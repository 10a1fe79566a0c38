//! Fine-grained weight pruning: one-shot (Han et al.) and Dynamic Network
//! Surgery (Guo et al.), the method the paper generates its pruned models
//! with (§2.1).

use crate::finetune::TrainConfig;
use crate::{CompressError, Result};
use advcomp_data::{Batches, Dataset};
use advcomp_nn::{softmax_cross_entropy, LrSchedule, Mode, ParamKind, Sequential};
use advcomp_tensor::{simd, Tensor};
use std::collections::HashMap;

/// Magnitude threshold that keeps approximately `density · len` of the
/// largest-magnitude values.
///
/// Returns 0 at density ≥ 1 (keep everything) and `+∞` at density ≤ 0
/// (prune everything).
pub fn magnitude_threshold(values: &[f32], density: f64) -> f32 {
    if values.is_empty() || density >= 1.0 {
        return 0.0;
    }
    if density <= 0.0 {
        return f32::INFINITY;
    }
    let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    mags.sort_by(f32::total_cmp);
    let keep = ((values.len() as f64) * density).round() as usize;
    let keep = keep.clamp(1, values.len());
    mags[values.len() - keep]
}

/// Per-parameter binary masks over a model's weight tensors (biases are
/// never pruned, matching the paper's tooling).
#[derive(Debug, Clone, Default)]
pub struct PruneMask {
    masks: HashMap<String, Tensor>,
}

impl PruneMask {
    /// Builds masks keeping the largest-magnitude `density` fraction of each
    /// weight tensor (per-layer density, as Mayo/DNS apply it).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] unless `0 ≤ density ≤ 1`.
    pub fn from_magnitude(model: &Sequential, density: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&density) {
            return Err(CompressError::InvalidConfig(format!(
                "density {density} must be in [0, 1]"
            )));
        }
        let mut masks = HashMap::new();
        for p in model.params() {
            if p.kind != ParamKind::Weight {
                continue;
            }
            let t = magnitude_threshold(p.value.data(), density);
            let mask = p.value.map(|v| if v.abs() >= t { 1.0 } else { 0.0 });
            masks.insert(p.name.clone(), mask);
        }
        Ok(PruneMask { masks })
    }

    /// Mask tensor for a parameter, if present.
    pub fn mask(&self, name: &str) -> Option<&Tensor> {
        self.masks.get(name)
    }

    /// Names of all masked parameters.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.masks.keys().map(String::as_str)
    }

    /// Zeroes masked weights in the model (`W ← W ⊙ M`, Equation 1).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::MaskMismatch`] when a masked parameter is
    /// missing from the model or shaped differently.
    pub fn apply(&self, model: &mut Sequential) -> Result<()> {
        for (name, mask) in &self.masks {
            let p = model
                .param_mut(name)
                .ok_or_else(|| CompressError::MaskMismatch(format!("no parameter {name}")))?;
            p.value = p.value.mul(mask).map_err(|_| {
                CompressError::MaskMismatch(format!(
                    "mask shape {:?} vs value {:?} for {name}",
                    mask.shape(),
                    p.value.shape()
                ))
            })?;
        }
        Ok(())
    }

    /// Fraction of weight entries kept, over all masked tensors.
    pub fn overall_density(&self) -> f64 {
        let total: usize = self.masks.values().map(Tensor::len).sum();
        if total == 0 {
            return 1.0;
        }
        let kept: usize = self.masks.values().map(Tensor::l0_norm).sum();
        kept as f64 / total as f64
    }
}

/// One-shot magnitude pruning (Han et al. 2016): threshold once, then
/// fine-tune with the mask frozen — masked weights receive no updates and
/// never recover.
#[derive(Debug, Clone, Copy)]
pub struct OneShotPruner {
    /// Target per-layer weight density in `[0, 1]`.
    pub density: f64,
}

impl OneShotPruner {
    /// Creates a pruner targeting the given density.
    pub fn new(density: f64) -> Self {
        OneShotPruner { density }
    }

    /// Prunes `model` and fine-tunes it on `data`, returning the mask.
    ///
    /// # Errors
    ///
    /// Propagates configuration, data and network errors.
    pub fn prune_and_finetune(
        &self,
        model: &mut Sequential,
        data: &Dataset,
        cfg: &TrainConfig,
    ) -> Result<PruneMask> {
        let mask = PruneMask::from_magnitude(model, self.density)?;
        mask.apply(model)?;
        let mut state = MaskedSgdState::capture(model, &mask);
        run_masked_finetune(model, data, cfg, &mut state, MaskPolicy::Frozen, 0)?;
        state.writeback(model)?;
        Ok(mask)
    }
}

/// Dynamic Network Surgery (Guo et al. 2016).
///
/// Maintains full-precision "dense" master weights underneath the mask.
/// Every `update_every` steps the mask is recomputed with hysteresis
/// thresholds `α = (1−h)·t`, `β = (1+h)·t` around the density-matching
/// magnitude threshold `t` (Equation 3 of the paper): entries below `α` are
/// pruned, entries above `β` are (re-)spliced in, entries in between keep
/// their previous state. Crucially, gradients of the masked loss are applied
/// to the **dense** weights, so pruned weights continue learning and can
/// recover — the property that distinguishes DNS from one-shot pruning.
///
/// Mask updates stop after `freeze_after` of the fine-tuning budget (the
/// DNS paper anneals its splicing probability to zero for the same reason):
/// a mask flipped in the last steps leaves the surviving weights no time to
/// adapt, which measurably hurts at aggressive densities.
#[derive(Debug, Clone, Copy)]
pub struct DnsPruner {
    /// Target per-layer weight density in `[0, 1]`.
    pub density: f64,
    /// Mask-update period, in optimiser steps.
    pub update_every: usize,
    /// Hysteresis half-width `h` (`α`/`β` sit at `∓h` around the threshold).
    pub hysteresis: f32,
    /// Fraction of total fine-tuning steps after which masks freeze.
    pub freeze_after: f64,
}

impl DnsPruner {
    /// Creates a DNS pruner with defaults calibrated on this crate's test
    /// tasks: mask updates every 64 steps, 30% hysteresis, masks frozen
    /// over the last half of fine-tuning. (Tighter hysteresis makes the
    /// density-matching threshold churn borderline weights in and out every
    /// update, which measurably costs accuracy at aggressive densities —
    /// the same pathology the original paper counters by annealing its
    /// splicing probability to zero.)
    pub fn new(density: f64) -> Self {
        DnsPruner {
            density,
            update_every: 64,
            hysteresis: 0.3,
            freeze_after: 0.5,
        }
    }

    /// Prunes `model` by DNS while fine-tuning on `data`; returns the final
    /// mask (already applied to the model).
    ///
    /// # Errors
    ///
    /// Propagates configuration, data and network errors.
    pub fn prune_and_finetune(
        &self,
        model: &mut Sequential,
        data: &Dataset,
        cfg: &TrainConfig,
    ) -> Result<PruneMask> {
        if self.update_every == 0 {
            return Err(CompressError::InvalidConfig(
                "update_every must be >= 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.freeze_after) {
            return Err(CompressError::InvalidConfig(
                "freeze_after must be in [0, 1]".into(),
            ));
        }
        let mask = PruneMask::from_magnitude(model, self.density)?;
        let mut state = MaskedSgdState::capture(model, &mask);
        state.mask = mask;
        let steps_per_epoch = data.len().div_ceil(cfg.batch_size.max(1));
        let total_steps = steps_per_epoch * cfg.epochs;
        let freeze_at = (total_steps as f64 * self.freeze_after).ceil() as usize;
        run_masked_finetune(
            model,
            data,
            cfg,
            &mut state,
            MaskPolicy::Dns {
                density: self.density,
                hysteresis: self.hysteresis,
                freeze_at,
            },
            self.update_every,
        )?;
        // After freezing, surviving weights may have drifted below the
        // final threshold; the mask, not the magnitudes, is authoritative.
        state.writeback(model)?;
        Ok(state.mask)
    }
}

/// How masks evolve during fine-tuning.
enum MaskPolicy {
    /// One-shot: mask never changes, masked gradients are dropped.
    Frozen,
    /// DNS: masks recomputed with hysteresis until `freeze_at` steps,
    /// gradients always applied to the dense master weights.
    Dns {
        density: f64,
        hysteresis: f32,
        freeze_at: usize,
    },
}

/// Dense master weights plus momentum buffers for the masked fine-tune.
struct MaskedSgdState {
    dense: HashMap<String, Tensor>,
    velocity: HashMap<String, Tensor>,
    mask: PruneMask,
}

impl MaskedSgdState {
    fn capture(model: &Sequential, mask: &PruneMask) -> Self {
        let mut dense = HashMap::new();
        let mut velocity = HashMap::new();
        for p in model.params() {
            dense.insert(p.name.clone(), p.value.clone());
            velocity.insert(p.name.clone(), Tensor::zeros(p.value.shape()));
        }
        MaskedSgdState {
            dense,
            velocity,
            mask: mask.clone(),
        }
    }

    /// Writes `dense ⊙ mask` into each weight parameter's own storage (and
    /// the plain dense values into biases), as `quant::install` does.
    fn install(&self, model: &mut Sequential) -> Result<()> {
        for p in model.params_mut() {
            let dense = self
                .dense
                .get(&p.name)
                .ok_or_else(|| CompressError::MaskMismatch(format!("no master for {}", p.name)))?;
            let mask = self.mask.mask(&p.name);
            let fits = |t: &Tensor| t.shape() == dense.shape();
            if !fits(&p.value) || !mask.is_none_or(fits) {
                return Err(CompressError::MaskMismatch(format!(
                    "{}: value or mask shaped unlike its master {:?}",
                    p.name,
                    dense.shape()
                )));
            }
            match mask {
                Some(m) => {
                    simd::mul_slices(simd::backend(), dense.data(), m.data(), p.value.data_mut())
                }
                None => p.value.data_mut().copy_from_slice(dense.data()),
            }
        }
        Ok(())
    }

    fn writeback(&self, model: &mut Sequential) -> Result<()> {
        self.install(model)
    }
}

fn run_masked_finetune(
    model: &mut Sequential,
    data: &Dataset,
    cfg: &TrainConfig,
    state: &mut MaskedSgdState,
    policy: MaskPolicy,
    update_every: usize,
) -> Result<()> {
    if data.is_empty() {
        return Err(CompressError::Data("empty fine-tuning set".into()));
    }
    if cfg.batch_size == 0 {
        return Err(CompressError::InvalidConfig(
            "batch_size must be >= 1".into(),
        ));
    }
    let mut step = 0usize;
    for epoch in 0..cfg.epochs {
        let lr = cfg.schedule.lr_at(epoch);
        let plan = Batches::shuffled(
            data.len(),
            cfg.batch_size,
            cfg.seed.wrapping_add(epoch as u64),
        );
        for (x, y) in plan.iter(data) {
            state.install(model)?;
            let logits = model.forward(&x, Mode::Train)?;
            let loss = softmax_cross_entropy(&logits, &y)?;
            model.zero_grad();
            model.backward(&loss.grad)?;

            // SGD with momentum over the dense master weights.
            for p in model.params_mut() {
                let dense = state.dense.get_mut(&p.name).expect("captured");
                let vel = state.velocity.get_mut(&p.name).expect("captured");
                let mask = state.mask.mask(&p.name);
                let decay = match p.kind {
                    ParamKind::Weight => cfg.weight_decay,
                    ParamKind::Bias => 0.0,
                };
                let dd = dense.data_mut();
                let vd = vel.data_mut();
                let gd = p.grad.data();
                for i in 0..dd.len() {
                    let mut g = gd[i] + decay * dd[i];
                    if let (MaskPolicy::Frozen, Some(m)) = (&policy, mask) {
                        // One-shot: pruned weights receive no gradient.
                        g *= m.data()[i];
                    }
                    vd[i] = cfg.momentum * vd[i] + g;
                    dd[i] -= lr * vd[i];
                }
            }

            step += 1;
            if let MaskPolicy::Dns {
                density,
                hysteresis,
                freeze_at,
            } = policy
            {
                if update_every > 0 && step.is_multiple_of(update_every) && step <= freeze_at {
                    update_dns_masks(state, density, hysteresis);
                }
            }
        }
    }
    Ok(())
}

/// Recomputes every mask from the dense master weights with hysteresis
/// (Equation 3 of the paper), each into its old mask's buffer: a weight
/// between the two thresholds keeps its old bit.
fn update_dns_masks(state: &mut MaskedSgdState, density: f64, hysteresis: f32) {
    for (name, mask) in &mut state.mask.masks {
        let dense = state.dense.get(name).expect("captured master");
        let t = magnitude_threshold(dense.data(), density);
        let alpha = t * (1.0 - hysteresis);
        let beta = t * (1.0 + hysteresis);
        for (m, &w) in mask.data_mut().iter_mut().zip(dense.data()) {
            let a = w.abs();
            if a < alpha {
                *m = 0.0;
            } else if a > beta {
                *m = 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finetune::evaluate;
    use advcomp_data::{DatasetConfig, SynthDigits};
    use advcomp_nn::{Dense, Flatten, Relu, StepDecay};
    use rand::SeedableRng;

    #[test]
    fn threshold_quantiles() {
        let vals = vec![0.1, -0.2, 0.3, -0.4, 0.5];
        assert_eq!(magnitude_threshold(&vals, 1.0), 0.0);
        assert_eq!(magnitude_threshold(&vals, 0.0), f32::INFINITY);
        // Keep top 2 of 5 → threshold at |−0.4|.
        let t = magnitude_threshold(&vals, 0.4);
        assert!((t - 0.4).abs() < 1e-6);
        assert_eq!(magnitude_threshold(&[], 0.5), 0.0);
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Dense::with_name("fc1", 28 * 28, 24, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::with_name("fc2", 24, 10, &mut rng)),
        ])
    }

    fn digits() -> (Dataset, Dataset) {
        SynthDigits::generate(&DatasetConfig {
            train: 200,
            test: 100,
            seed: 3,
            noise: 0.05,
        })
    }

    fn quick_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 32,
            schedule: StepDecay::new(0.05, 0.1, vec![epochs.saturating_sub(1).max(1)]),
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
        }
    }

    #[test]
    fn mask_density_close_to_target() {
        let model = mlp(1);
        for &d in &[0.1f64, 0.3, 0.5, 0.9] {
            let mask = PruneMask::from_magnitude(&model, d).unwrap();
            assert!(
                (mask.overall_density() - d).abs() < 0.02,
                "target {d}, got {}",
                mask.overall_density()
            );
        }
    }

    #[test]
    fn mask_apply_zeroes_weights() {
        let mut model = mlp(2);
        let mask = PruneMask::from_magnitude(&model, 0.5).unwrap();
        mask.apply(&mut model).unwrap();
        let w = &model.param("fc1.weight").unwrap().value;
        let density = w.density();
        assert!((density - 0.5).abs() < 0.02, "density {density}");
        // Biases untouched.
        assert!(mask.mask("fc1.bias").is_none());
    }

    #[test]
    fn invalid_density_rejected() {
        let model = mlp(3);
        assert!(PruneMask::from_magnitude(&model, -0.1).is_err());
        assert!(PruneMask::from_magnitude(&model, 1.5).is_err());
    }

    #[test]
    fn mask_mismatch_detected() {
        let model = mlp(4);
        let mask = PruneMask::from_magnitude(&model, 0.5).unwrap();
        let mut other = Sequential::new(vec![Box::new(Flatten::new())]);
        assert!(matches!(
            mask.apply(&mut other),
            Err(CompressError::MaskMismatch(_))
        ));
    }

    #[test]
    fn one_shot_keeps_mask_fixed_and_model_learns() {
        let (train, test) = digits();
        let mut model = mlp(5);
        crate::train_baseline(&mut model, &train, &quick_cfg(6)).unwrap();
        let base_acc = evaluate(&mut model, &test, 64).unwrap();

        let pruner = OneShotPruner::new(0.5);
        let mask = pruner
            .prune_and_finetune(&mut model, &train, &quick_cfg(4))
            .unwrap();
        // Weights obey the mask exactly after fine-tuning.
        let w = &model.param("fc1.weight").unwrap().value;
        let m = mask.mask("fc1.weight").unwrap();
        for (wv, mv) in w.data().iter().zip(m.data()) {
            if *mv == 0.0 {
                assert_eq!(*wv, 0.0);
            }
        }
        let pruned_acc = evaluate(&mut model, &test, 64).unwrap();
        assert!(
            pruned_acc > base_acc - 0.15,
            "pruning collapsed accuracy: {base_acc} -> {pruned_acc}"
        );
    }

    #[test]
    fn dns_prunes_to_target_density() {
        let (train, _) = digits();
        let mut model = mlp(6);
        crate::train_baseline(&mut model, &train, &quick_cfg(4)).unwrap();
        let pruner = DnsPruner::new(0.3);
        let mask = pruner
            .prune_and_finetune(&mut model, &train, &quick_cfg(3))
            .unwrap();
        let d = mask.overall_density();
        assert!((d - 0.3).abs() < 0.05, "density {d}");
        let w = &model.param("fc1.weight").unwrap().value;
        assert!(
            (w.density() - 0.3).abs() < 0.06,
            "weight density {}",
            w.density()
        );
    }

    #[test]
    fn dns_allows_recovery() {
        // A weight that is masked at step 0 but has large gradient pressure
        // can re-enter: verify masks actually change across updates.
        let (train, _) = digits();
        let mut model = mlp(7);
        crate::train_baseline(&mut model, &train, &quick_cfg(2)).unwrap();
        let initial = PruneMask::from_magnitude(&model, 0.3).unwrap();
        let pruner = DnsPruner {
            density: 0.3,
            update_every: 4,
            hysteresis: 0.1,
            freeze_after: 0.6,
        };
        let final_mask = pruner
            .prune_and_finetune(&mut model, &train, &quick_cfg(3))
            .unwrap();
        let im = initial.mask("fc1.weight").unwrap();
        let fm = final_mask.mask("fc1.weight").unwrap();
        let flips = im
            .data()
            .iter()
            .zip(fm.data())
            .filter(|(a, b)| a != b)
            .count();
        assert!(flips > 0, "DNS mask never changed");
        // Some previously-pruned weights recovered.
        let recovered = im
            .data()
            .iter()
            .zip(fm.data())
            .filter(|(a, b)| **a == 0.0 && **b == 1.0)
            .count();
        assert!(recovered > 0, "no weight recovered under DNS");
    }

    #[test]
    fn dns_zero_update_every_rejected() {
        let (train, _) = digits();
        let mut model = mlp(8);
        let pruner = DnsPruner {
            density: 0.5,
            update_every: 0,
            hysteresis: 0.1,
            freeze_after: 0.6,
        };
        assert!(pruner
            .prune_and_finetune(&mut model, &train, &quick_cfg(1))
            .is_err());
    }

    #[test]
    fn density_one_is_identity_mask() {
        let mut model = mlp(9);
        let before = model.param("fc1.weight").unwrap().value.clone();
        let mask = PruneMask::from_magnitude(&model, 1.0).unwrap();
        mask.apply(&mut model).unwrap();
        assert_eq!(
            model.param("fc1.weight").unwrap().value.data(),
            before.data()
        );
        assert_eq!(mask.overall_density(), 1.0);
    }
}
