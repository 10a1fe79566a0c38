//! The three-scenario attack taxonomy (§3.1) and transfer evaluation.

use crate::Result;
use advcomp_attacks::{Attack, PlannedEval};
use advcomp_nn::Sequential;
use advcomp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The paper's compression-aware attack scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Scenario 1: samples generated on a compressed model, applied to the
    /// same compressed model ("attackers buy products and figure out how to
    /// attack them").
    CompToComp,
    /// Scenario 2: samples generated on the baseline, applied to compressed
    /// models (public model → proprietary edge derivatives).
    FullToComp,
    /// Scenario 3: samples generated on a compressed model, applied to the
    /// hidden baseline (edge device → vendor's master model).
    CompToFull,
}

impl Scenario {
    /// All scenarios, in the paper's numbering order.
    pub const ALL: [Scenario; 3] = [
        Scenario::CompToComp,
        Scenario::FullToComp,
        Scenario::CompToFull,
    ];

    /// Stable identifier used in CSV columns.
    pub fn id(&self) -> &'static str {
        match self {
            Scenario::CompToComp => "comp_to_comp",
            Scenario::FullToComp => "full_to_comp",
            Scenario::CompToFull => "comp_to_full",
        }
    }

    /// The paper's scenario number (1-based).
    pub fn number(&self) -> usize {
        match self {
            Scenario::CompToComp => 1,
            Scenario::FullToComp => 2,
            Scenario::CompToFull => 3,
        }
    }
}

/// Per-sample shape of a batched input (batch axis stripped).
fn sample_shape(x: &Tensor) -> &[usize] {
    x.shape().get(1..).unwrap_or(&[])
}

/// Outcome of one transfer evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferOutcome {
    /// Accuracy of the target model on the adversarial samples (the paper's
    /// vertical axes in Figures 2 and 5 — lower = more transferable).
    pub adversarial_accuracy: f64,
    /// Accuracy of the target model on the clean samples, for reference.
    pub clean_accuracy: f64,
    /// Mean L2 norm of the applied perturbations.
    pub mean_l2: f64,
}

/// Generates adversarial samples on `source` and measures `target`'s
/// accuracy on them.
///
/// With `source == target` conceptually (same weights), this is the
/// white-box Scenario 1; with source = baseline and target = compressed it
/// is Scenario 2; the reverse is Scenario 3.
///
/// # Errors
///
/// Propagates attack and network errors.
pub fn attack_transfer(
    source: &mut Sequential,
    target: &Sequential,
    attack: &dyn Attack,
    x: &Tensor,
    labels: &[usize],
) -> Result<TransferOutcome> {
    // Measurement forwards run through the compiled plan (bit-identical
    // to Sequential eval, see graph_parity); crafting keeps the layer
    // path for gradients.
    let mut eval = PlannedEval::compile(target, sample_shape(x))?;
    let clean_accuracy = eval.accuracy(x, labels)?;
    let adv = attack.generate(source, x, labels)?;
    let adversarial_accuracy = eval.accuracy(&adv, labels)?;
    let stats = advcomp_attacks::PerturbationStats::between(x, &adv)?;
    Ok(TransferOutcome {
        adversarial_accuracy,
        clean_accuracy,
        mean_l2: stats.l2,
    })
}

/// Result of the §3.3 cross-seed transferability check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossSeedTransfer {
    /// Fraction of samples that fooled the source model.
    pub source_fool_rate: f64,
    /// Fraction of *those* samples that also fool the independently-trained
    /// target — the paper reports ≈7% for LeNet5 and ≈60% for CifarNet.
    pub transfer_rate: f64,
}

/// Measures how many adversarial samples crafted on `source` transfer to an
/// independently-initialised `target` trained on the same task (§3.3's
/// DeepFool sanity check).
///
/// # Errors
///
/// Propagates attack and network errors.
pub fn cross_seed_transfer(
    source: &mut Sequential,
    target: &Sequential,
    attack: &dyn Attack,
    x: &Tensor,
    labels: &[usize],
) -> Result<CrossSeedTransfer> {
    let adv = attack.generate(source, x, labels)?;
    let src_preds = PlannedEval::compile(source, sample_shape(x))?.predictions(&adv)?;
    let tgt_preds = PlannedEval::compile(target, sample_shape(x))?.predictions(&adv)?;
    let mut fooled_src = 0usize;
    let mut fooled_both = 0usize;
    for i in 0..labels.len() {
        if src_preds[i] != labels[i] {
            fooled_src += 1;
            if tgt_preds[i] != labels[i] {
                fooled_both += 1;
            }
        }
    }
    Ok(CrossSeedTransfer {
        source_fool_rate: fooled_src as f64 / labels.len().max(1) as f64,
        transfer_rate: if fooled_src == 0 {
            0.0
        } else {
            fooled_both as f64 / fooled_src as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentScale, TaskSetup, TrainedModel};
    use advcomp_attacks::{Ifgsm, NetKind};

    #[test]
    fn scenario_metadata() {
        assert_eq!(Scenario::CompToComp.number(), 1);
        assert_eq!(Scenario::FullToComp.number(), 2);
        assert_eq!(Scenario::CompToFull.number(), 3);
        assert_eq!(Scenario::ALL.len(), 3);
        assert_eq!(Scenario::CompToFull.id(), "comp_to_full");
    }

    #[test]
    fn white_box_transfer_degrades_accuracy() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 5).unwrap();
        let mut model = trained.instantiate().unwrap();
        let target = trained.instantiate().unwrap();
        let (x, y) = setup.test.slice(0, 48).unwrap();
        let attack = Ifgsm::new(0.05, 8).unwrap();
        let out = attack_transfer(&mut model, &target, &attack, &x, &y).unwrap();
        assert!(out.clean_accuracy > 0.7);
        assert!(
            out.adversarial_accuracy < out.clean_accuracy - 0.2,
            "white-box attack ineffective: {} -> {}",
            out.clean_accuracy,
            out.adversarial_accuracy
        );
        assert!(out.mean_l2 > 0.0);
    }

    #[test]
    fn cross_seed_transfer_in_unit_range() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let a = TrainedModel::train(&setup, &scale, 1).unwrap();
        let b = TrainedModel::train(&setup, &scale, 2).unwrap();
        let mut ma = a.instantiate().unwrap();
        let mb = b.instantiate().unwrap();
        let (x, y) = setup.test.slice(0, 32).unwrap();
        let attack = Ifgsm::new(0.05, 8).unwrap();
        let ct = cross_seed_transfer(&mut ma, &mb, &attack, &x, &y).unwrap();
        assert!((0.0..=1.0).contains(&ct.source_fool_rate));
        assert!((0.0..=1.0).contains(&ct.transfer_rate));
        assert!(ct.source_fool_rate > 0.1, "source barely fooled");
    }
}
