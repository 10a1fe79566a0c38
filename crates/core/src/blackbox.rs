//! Black-box surrogate attacks (extension).
//!
//! §2.3 of the paper cites Papernot et al. 2017: "an adversary can
//! sometimes perform attacks without any knowledge of a model's internal
//! parameters — it can be enough to approximate a model with another known
//! model and build adversarial samples against that instead." This module
//! implements that loop as a fourth, stricter scenario beyond the paper's
//! taxonomy: the attacker cannot read *any* deployed weights and can only
//! query the target for labels.

use crate::{CoreError, Result};
use advcomp_attacks::PlannedEval;
use advcomp_data::Batches;
use advcomp_nn::{softmax_cross_entropy, LrSchedule, Mode, Sequential, Sgd, StepDecay};
use advcomp_tensor::Tensor;

/// Configuration for surrogate distillation.
#[derive(Debug, Clone)]
pub struct SurrogateConfig {
    /// Training epochs over the probe set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepDecay,
    /// SGD momentum.
    pub momentum: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            epochs: 8,
            batch_size: 32,
            schedule: StepDecay::new(0.05, 0.1, vec![6]),
            momentum: 0.9,
            seed: 0,
        }
    }
}

/// Labels `images` with the target model's own predictions — the only
/// oracle access a black-box adversary has.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn query_labels(target: &Sequential, images: &Tensor, batch: usize) -> Result<Vec<usize>> {
    let n = *images.shape().first().unwrap_or(&0);
    // One compiled plan answers every oracle query; its activation arena
    // is reused across chunks.
    let mut oracle = PlannedEval::compile(target, images.shape().get(1..).unwrap_or(&[]))?;
    let mut labels = Vec::with_capacity(n);
    let mut start = 0usize;
    while start < n {
        let len = batch.max(1).min(n - start);
        let chunk = images.narrow(start, len)?;
        labels.extend(oracle.predictions(&chunk)?);
        start += len;
    }
    Ok(labels)
}

/// Outcome of surrogate distillation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateReport {
    /// Fraction of probe samples where surrogate and target agree after
    /// training.
    pub agreement: f64,
    /// Number of oracle queries spent (one per probe image).
    pub queries: usize,
}

/// Distils a surrogate of `target` by training `surrogate` on the target's
/// predicted labels over `probe` images (Papernot et al.'s substitute
/// training, without the Jacobian augmentation).
///
/// The trained surrogate can then be attacked with any white-box method and
/// the samples transferred to the target.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty probe set and
/// propagates network errors.
pub fn distill_surrogate(
    surrogate: &mut Sequential,
    target: &Sequential,
    probe: &Tensor,
    cfg: &SurrogateConfig,
) -> Result<SurrogateReport> {
    let n = *probe.shape().first().unwrap_or(&0);
    if n == 0 {
        return Err(CoreError::InvalidConfig("empty probe set".into()));
    }
    let oracle = query_labels(target, probe, cfg.batch_size)?;
    let mut opt = Sgd::new(cfg.schedule.lr_at(0), cfg.momentum, 1e-4)?;
    for epoch in 0..cfg.epochs {
        opt.set_lr(cfg.schedule.lr_at(epoch));
        let plan = Batches::shuffled(n, cfg.batch_size, cfg.seed.wrapping_add(epoch as u64));
        // The probe is a raw tensor (not a Dataset), so expand the plan's
        // index batches by hand.
        for (x, y) in plan_iter(&plan, probe, &oracle)? {
            let logits = surrogate.forward(&x, Mode::Train)?;
            let loss = softmax_cross_entropy(&logits, &y)?;
            surrogate.zero_grad();
            surrogate.backward(&loss.grad)?;
            opt.step(surrogate.params_mut())?;
        }
    }
    // Final agreement over the probe set.
    let surrogate_preds = query_labels(surrogate, probe, cfg.batch_size)?;
    let agree = surrogate_preds
        .iter()
        .zip(&oracle)
        .filter(|(a, b)| a == b)
        .count();
    Ok(SurrogateReport {
        agreement: agree as f64 / n as f64,
        queries: n,
    })
}

/// Expands a shuffled batch plan over a raw probe tensor + labels.
fn plan_iter(
    plan: &Batches,
    probe: &Tensor,
    labels: &[usize],
) -> Result<Vec<(Tensor, Vec<usize>)>> {
    let mut out = Vec::with_capacity(plan.num_batches());
    for idx in plan.index_batches() {
        let mut imgs = Vec::with_capacity(idx.len());
        let mut ys = Vec::with_capacity(idx.len());
        for &i in idx {
            imgs.push(probe.index_axis0(i)?);
            ys.push(labels[i]);
        }
        out.push((Tensor::stack(&imgs)?, ys));
    }
    Ok(out)
}

/// Measures a complete black-box attack: distil a surrogate, craft samples
/// on it, apply them to the target. Returns `(surrogate report, target
/// accuracy on clean eval set, target accuracy on adversarial samples)`.
///
/// # Errors
///
/// Propagates distillation and attack errors.
pub fn black_box_attack(
    surrogate: &mut Sequential,
    target: &Sequential,
    probe: &Tensor,
    eval: (&Tensor, &[usize]),
    attack: &dyn advcomp_attacks::Attack,
    cfg: &SurrogateConfig,
) -> Result<(SurrogateReport, f64, f64)> {
    let report = distill_surrogate(surrogate, target, probe, cfg)?;
    let (x, y) = eval;
    let mut teval = PlannedEval::compile(target, x.shape().get(1..).unwrap_or(&[]))?;
    let clean_acc = teval.accuracy(x, y)?;
    let adv = attack.generate(surrogate, x, y)?;
    let adv_acc = teval.accuracy(&adv, y)?;
    Ok((report, clean_acc, adv_acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentScale, TaskSetup, TrainedModel};
    use advcomp_attacks::{Ifgsm, NetKind};

    #[test]
    fn query_labels_batches_correctly() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 1).unwrap();
        let model = trained.instantiate().unwrap();
        let (x, _) = setup.test.slice(0, 10).unwrap();
        let a = query_labels(&model, &x, 3).unwrap();
        let b = query_labels(&model, &x, 10).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn surrogate_learns_to_agree_and_attack_transfers() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 2).unwrap();
        let target = trained.instantiate().unwrap();
        // The attacker uses their own architecture and initialisation.
        let mut surrogate = setup.fresh_model(999);
        let probe = setup.train.images().narrow(0, 200).unwrap();
        let (x, y) = setup.test.slice(0, 32).unwrap();
        let attack = Ifgsm::new(0.08, 8).unwrap();
        let cfg = SurrogateConfig::default();
        let (report, clean, adv) =
            black_box_attack(&mut surrogate, &target, &probe, (&x, &y), &attack, &cfg).unwrap();
        assert_eq!(report.queries, 200);
        assert!(report.agreement > 0.6, "agreement {}", report.agreement);
        assert!(
            adv < clean,
            "black-box attack failed to transfer: clean {clean} adv {adv}"
        );
    }

    #[test]
    fn empty_probe_rejected() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let target = setup.fresh_model(0);
        let mut surrogate = setup.fresh_model(1);
        let probe = Tensor::zeros(&[0, 1, 28, 28]);
        assert!(
            distill_surrogate(&mut surrogate, &target, &probe, &SurrogateConfig::default())
                .is_err()
        );
    }
}
