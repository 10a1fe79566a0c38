//! Adversarial training (defence extension).
//!
//! §2.3 of the paper notes twice that "training a model on adversarial
//! samples helps make it more robust against them" (Szegedy et al.;
//! Papernot et al.). This module implements the standard mixed-batch
//! adversarial training loop — each mini-batch is half clean, half
//! adversarial examples generated *against the current model* — so the
//! defence can be composed with the compression pipeline and measured under
//! the same transfer harness.

use crate::{CoreError, Result};
use advcomp_attacks::Attack;
use advcomp_data::{Batches, Dataset};
use advcomp_models::Checkpoint;
use advcomp_nn::{softmax_cross_entropy, LrSchedule, Mode, Sequential, Sgd, StepDecay};
use advcomp_tensor::Tensor;
use std::path::Path;

/// Configuration for adversarial fine-tuning.
#[derive(Debug, Clone)]
pub struct AdvTrainConfig {
    /// Epochs of adversarial fine-tuning.
    pub epochs: usize,
    /// Mini-batch size (clean half; the adversarial half doubles it).
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepDecay,
    /// SGD momentum.
    pub momentum: f32,
    /// Fraction of each batch replaced by adversarial examples, in `(0,1]`.
    pub adversarial_fraction: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for AdvTrainConfig {
    fn default() -> Self {
        AdvTrainConfig {
            epochs: 4,
            batch_size: 32,
            schedule: StepDecay::new(0.01, 0.1, vec![3]),
            momentum: 0.9,
            adversarial_fraction: 0.5,
            seed: 0,
        }
    }
}

/// Adversarially fine-tunes `model` on `data`, generating perturbations
/// with `attack` against the evolving model (Goodfellow et al.'s
/// adversarial objective, mixed-batch form).
///
/// Returns the mean training loss of the final epoch.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty dataset or a fraction
/// outside `(0, 1]`, and propagates attack/network errors.
pub fn adversarial_finetune(
    model: &mut Sequential,
    data: &Dataset,
    attack: &dyn Attack,
    cfg: &AdvTrainConfig,
) -> Result<f32> {
    if data.is_empty() {
        return Err(CoreError::InvalidConfig("empty training set".into()));
    }
    if !(cfg.adversarial_fraction > 0.0 && cfg.adversarial_fraction <= 1.0) {
        return Err(CoreError::InvalidConfig(format!(
            "adversarial_fraction {} must be in (0, 1]",
            cfg.adversarial_fraction
        )));
    }
    let mut opt = Sgd::new(cfg.schedule.lr_at(0), cfg.momentum, 1e-4)?;
    let mut final_loss = 0.0f32;
    for epoch in 0..cfg.epochs {
        opt.set_lr(cfg.schedule.lr_at(epoch));
        let plan = Batches::shuffled(
            data.len(),
            cfg.batch_size,
            cfg.seed.wrapping_add(epoch as u64),
        );
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for (x, y) in plan.iter(data) {
            // Generate adversarial counterparts for a prefix of the batch
            // against the *current* parameters.
            let n_adv = ((y.len() as f64) * cfg.adversarial_fraction).ceil() as usize;
            let n_adv = n_adv.clamp(1, y.len());
            let clean_prefix = x.narrow(0, n_adv)?;
            let adv_prefix = attack.generate(model, &clean_prefix, &y[..n_adv])?;
            let mixed_x = Tensor::concat0(&[adv_prefix, x.narrow(n_adv, y.len() - n_adv)?])?;
            let logits = model.forward(&mixed_x, Mode::Train)?;
            let loss = softmax_cross_entropy(&logits, &y)?;
            epoch_loss += loss.loss;
            batches += 1;
            model.zero_grad();
            model.backward(&loss.grad)?;
            opt.step(model.params_mut())?;
        }
        final_loss = epoch_loss / batches.max(1) as f32;
    }
    Ok(final_loss)
}

/// Adversarially fine-tunes a clone of `model` and saves the hardened
/// parameters as a checkpoint at `path`, so the serving registry can
/// register it as a variant (`ModelRegistry::load_variant`) alongside the
/// compressed ensemble. Returns the hardened model and the mean training
/// loss of the final epoch.
///
/// # Errors
///
/// As [`adversarial_finetune`], plus [`CoreError::Checkpoint`] if the
/// checkpoint cannot be written.
pub fn finetune_to_checkpoint(
    model: &Sequential,
    data: &Dataset,
    attack: &dyn Attack,
    cfg: &AdvTrainConfig,
    path: &Path,
) -> Result<(Sequential, f32)> {
    let mut hardened = model.clone();
    let loss = adversarial_finetune(&mut hardened, data, attack, cfg)?;
    Checkpoint::capture(&hardened)
        .save(path)
        .map_err(|e| CoreError::Checkpoint(e.to_string()))?;
    Ok((hardened, loss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::evaluate_model;
    use crate::{ExperimentScale, TaskSetup, TrainedModel};
    use advcomp_attacks::{Ifgsm, NetKind};

    #[test]
    fn hardening_reduces_attack_success() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 6).unwrap();
        // Single-step FGSM-strength adversary: the regime where plain
        // adversarial training reliably helps (multi-step white-box attacks
        // need PGD-style training budgets far beyond a tiny-profile test).
        let attack = Ifgsm::new(0.05, 1).unwrap();
        let (x, y) = setup.test.slice(0, 48).unwrap();

        // Vulnerable baseline.
        let mut plain = trained.instantiate().unwrap();
        let adv = attack.generate(&mut plain, &x, &y).unwrap();
        let logits = plain.forward(&adv, Mode::Eval).unwrap();
        let plain_adv_acc = advcomp_nn::accuracy(&logits, &y).unwrap();

        // Adversarially fine-tuned model: attack it (white-box, fresh
        // samples) and compare.
        let mut hardened = trained.instantiate().unwrap();
        let cfg = AdvTrainConfig {
            epochs: 8,
            schedule: StepDecay::new(0.02, 0.1, vec![6]),
            ..AdvTrainConfig::default()
        };
        adversarial_finetune(&mut hardened, &setup.train, &attack, &cfg).unwrap();
        let clean_acc = evaluate_model(&hardened, &setup.test, 64).unwrap();
        let adv2 = attack.generate(&mut hardened, &x, &y).unwrap();
        let logits = hardened.forward(&adv2, Mode::Eval).unwrap();
        let hardened_adv_acc = advcomp_nn::accuracy(&logits, &y).unwrap();

        assert!(
            clean_acc > 0.6,
            "hardening destroyed clean accuracy: {clean_acc}"
        );
        assert!(
            hardened_adv_acc > plain_adv_acc + 0.1,
            "no robustness gained: plain {plain_adv_acc} vs hardened {hardened_adv_acc}"
        );
    }

    /// The hardened checkpoint must restore bit-exactly into a fresh
    /// architecture — that is what lets the serving registry register the
    /// adversarially trained model as an ensemble variant.
    #[test]
    fn hardened_checkpoint_roundtrips() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 3).unwrap();
        let model = trained.instantiate().unwrap();
        let attack = Ifgsm::new(0.05, 1).unwrap();
        let cfg = AdvTrainConfig {
            epochs: 1,
            ..AdvTrainConfig::default()
        };
        let dir =
            std::env::temp_dir().join(format!("advcomp_advtrain_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hardened.advc");
        let (hardened, loss) =
            finetune_to_checkpoint(&model, &setup.train, &attack, &cfg, &path).unwrap();
        assert!(loss.is_finite());
        // The input model is untouched; the artifact restores the hardened
        // parameters exactly.
        assert_eq!(
            model.export_params(),
            trained.instantiate().unwrap().export_params()
        );
        let mut restored = setup.fresh_model(99);
        advcomp_models::Checkpoint::load(&path)
            .unwrap()
            .restore(&mut restored)
            .unwrap();
        assert_eq!(restored.export_params(), hardened.export_params());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_validation() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let mut model = setup.fresh_model(0);
        let attack = Ifgsm::new(0.05, 2).unwrap();
        let empty = setup.train.take(0).unwrap();
        assert!(
            adversarial_finetune(&mut model, &empty, &attack, &AdvTrainConfig::default()).is_err()
        );
        let mut cfg = AdvTrainConfig {
            adversarial_fraction: 0.0,
            ..AdvTrainConfig::default()
        };
        assert!(adversarial_finetune(&mut model, &setup.train, &attack, &cfg).is_err());
        cfg.adversarial_fraction = 1.5;
        assert!(adversarial_finetune(&mut model, &setup.train, &attack, &cfg).is_err());
    }
}
