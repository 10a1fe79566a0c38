//! Universal adversarial perturbations (UAP).
//!
//! A *universal* perturbation is a single input-shaped delta `v`, bounded
//! in L∞, that fools the victim on a large fraction of **all** inputs —
//! not one crafted per sample (Moosavi-Dezfooli et al.; Matachana et al.,
//! arXiv:2012.06024, study them against compressed networks). UAPs are
//! the natural online threat model for a serving guard: the attacker
//! pre-computes `v` offline against a surrogate and adds it to every
//! request, so per-sample crafting cost at attack time is zero.
//!
//! [`craft_uap`] runs the iterative sign-ascent variant: epochs over a
//! crafting set in a seeded-shuffle order, each minibatch ascending the
//! summed per-sample loss gradient at `clip(x + v)` and projecting `v`
//! back onto the `ε` L∞-ball. Every step is a deterministic function of
//! (model, crafting set, config) — the shuffle uses a self-contained
//! SplitMix64 stream, not the workspace RNG — so crafting is bit-exact
//! reproducible and golden-pinnable under a pinned kernel backend.

use crate::grad::loss_input_grad;
use crate::{AttackError, PlannedEval, Result};
use advcomp_nn::Sequential;
use advcomp_tensor::Tensor;

/// Configuration for [`craft_uap`].
#[derive(Debug, Clone)]
pub struct UapConfig {
    /// L∞ budget of the universal delta: every component of `v` stays in
    /// `[-epsilon, epsilon]`.
    pub epsilon: f32,
    /// Per-iteration sign-step size (typically `epsilon / epochs`-ish).
    pub step: f32,
    /// Passes over the crafting set.
    pub epochs: usize,
    /// Crafting minibatch size.
    pub batch: usize,
    /// Seed for the crafting-set shuffle order.
    pub seed: u64,
}

impl Default for UapConfig {
    fn default() -> Self {
        UapConfig {
            epsilon: 0.1,
            step: 0.02,
            epochs: 4,
            batch: 32,
            seed: 0,
        }
    }
}

impl UapConfig {
    fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(AttackError::InvalidConfig(format!(
                "uap epsilon {} must be finite and > 0",
                self.epsilon
            )));
        }
        if !(self.step > 0.0 && self.step.is_finite()) {
            return Err(AttackError::InvalidConfig(format!(
                "uap step {} must be finite and > 0",
                self.step
            )));
        }
        if self.epochs == 0 {
            return Err(AttackError::InvalidConfig("uap epochs must be >= 1".into()));
        }
        if self.batch == 0 {
            return Err(AttackError::InvalidConfig("uap batch must be >= 1".into()));
        }
        Ok(())
    }
}

/// A crafted universal perturbation: one input-shaped delta plus the
/// budget it was crafted under.
#[derive(Debug, Clone)]
pub struct Uap {
    delta: Tensor,
    epsilon: f32,
}

impl Uap {
    /// Wraps an existing delta (e.g. one loaded from disk). The delta is
    /// clamped into the stated budget so the invariant
    /// `‖delta‖∞ <= epsilon` always holds.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidConfig`] for a non-positive budget.
    pub fn from_delta(delta: Tensor, epsilon: f32) -> Result<Uap> {
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(AttackError::InvalidConfig(format!(
                "uap epsilon {epsilon} must be finite and > 0"
            )));
        }
        Ok(Uap {
            delta: delta.clamp(-epsilon, epsilon),
            epsilon,
        })
    }

    /// The universal delta (sample shape, no batch axis).
    pub fn delta(&self) -> &Tensor {
        &self.delta
    }

    /// The L∞ budget the delta respects.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Adds the delta to every sample of `x` (batch-first) and clips back
    /// into the valid pixel range `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidConfig`] when a row of `x` does not match the
    /// delta's element count.
    pub fn apply(&self, x: &Tensor) -> Result<Tensor> {
        let d = self.delta.len();
        let rows = x.shape().first().copied().unwrap_or(0);
        if d == 0 || rows == 0 || x.len() != rows * d {
            return Err(AttackError::InvalidConfig(format!(
                "uap delta of {} values cannot broadcast over input shape {:?}",
                d,
                x.shape()
            )));
        }
        let mut out = x.clone();
        let dv = self.delta.data();
        for row in out.data_mut().chunks_mut(d) {
            for (o, &v) in row.iter_mut().zip(dv) {
                *o = (*o + v).clamp(0.0, 1.0);
            }
        }
        Ok(out)
    }

    /// Fraction of samples whose top-1 prediction the delta flips —
    /// the standard UAP "fooling rate", measured against the model's own
    /// clean predictions (no labels needed).
    ///
    /// # Errors
    ///
    /// As [`Uap::apply`], plus compile errors ([`PlannedEval::compile`]).
    pub fn fool_rate(&self, model: &Sequential, x: &Tensor) -> Result<f64> {
        let adv_x = self.apply(x)?;
        let mut eval = PlannedEval::compile(model, &x.shape()[1..])?;
        let clean = eval.predictions(x)?;
        let adv = eval.predictions(&adv_x)?;
        let flipped = clean.iter().zip(&adv).filter(|(c, a)| c != a).count();
        Ok(flipped as f64 / clean.len().max(1) as f64)
    }
}

/// Self-contained SplitMix64 stream for the crafting-set shuffle.
///
/// Deliberately *not* the workspace `rand` crate: UAP crafting order must
/// stay bit-stable across RNG-stub revisions for the checked-in goldens.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn shuffle(&mut self, idx: &mut [usize]) {
        for i in (1..idx.len()).rev() {
            idx.swap(i, self.below(i + 1));
        }
    }
}

/// Crafts a universal perturbation against `model` from the crafting set
/// `(x, labels)` (`x` batch-first, values in `[0, 1]`).
///
/// Iterative sign ascent on the universal delta `v`:
///
/// ```text
/// for epoch in 0..epochs:
///   for minibatch (xb, yb) in seeded-shuffle order:
///     g  = Σ_samples ∇X J(θ, clip(xb + v), yb)      // shared v ⇒ sum
///     v ← clamp(v + step · sign(g), -ε, +ε)
/// ```
///
/// The summed gradient is the exact gradient of the minibatch loss with
/// respect to the *shared* delta; the projection keeps `v` inside the L∞
/// budget after every step. The model's parameters are left untouched.
///
/// # Errors
///
/// [`AttackError::InvalidConfig`] on bad hyper-parameters or an empty
/// crafting set, [`AttackError::BatchMismatch`] when labels don't match
/// `x`, plus any network error.
pub fn craft_uap(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    cfg: &UapConfig,
) -> Result<Uap> {
    cfg.validate()?;
    let n = x.shape().first().copied().unwrap_or(0);
    if n == 0 {
        return Err(AttackError::InvalidConfig(
            "uap crafting set is empty".into(),
        ));
    }
    if labels.len() != n {
        return Err(AttackError::BatchMismatch {
            inputs: n,
            labels: labels.len(),
        });
    }
    let sample: Vec<usize> = x.shape()[1..].to_vec();
    let d: usize = sample.iter().product();
    let mut delta = Tensor::zeros(&sample);
    let mut rng = SplitMix64(cfg.seed ^ 0xa076_1d64_78bd_642f);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(cfg.batch) {
            // Assemble the minibatch at clip(x + v).
            let mut shape = vec![chunk.len()];
            shape.extend_from_slice(&sample);
            let mut data = Vec::with_capacity(chunk.len() * d);
            let mut yb = Vec::with_capacity(chunk.len());
            let dv = delta.data();
            for &i in chunk {
                let row = &x.data()[i * d..(i + 1) * d];
                data.extend(row.iter().zip(dv).map(|(&a, &v)| (a + v).clamp(0.0, 1.0)));
                yb.push(labels[i]);
            }
            let xb = Tensor::new(&shape, data).map_err(advcomp_nn::NnError::from)?;
            let g = loss_input_grad(model, &xb, &yb)?;
            // Sum per-sample gradients: the exact gradient w.r.t. the
            // shared delta. Then one projected sign step on v.
            let mut gsum = vec![0.0f32; d];
            for row in g.data().chunks(d) {
                for (s, &v) in gsum.iter_mut().zip(row) {
                    *s += v;
                }
            }
            for (v, s) in delta.data_mut().iter_mut().zip(&gsum) {
                let sign = if *s > 0.0 {
                    1.0
                } else if *s < 0.0 {
                    -1.0
                } else {
                    0.0
                };
                *v = (*v + cfg.step * sign).clamp(-cfg.epsilon, cfg.epsilon);
            }
        }
    }
    Ok(Uap {
        delta,
        epsilon: cfg.epsilon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::Dense;
    use advcomp_nn::{Mode, Relu};
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(8, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, &mut rng)),
        ])
    }

    fn set(seed: u64, n: usize) -> (Tensor, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = advcomp_tensor::Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[n, 8], &mut rng);
        let labels = (0..n).map(|i| i % 3).collect();
        (x, labels)
    }

    fn cfg() -> UapConfig {
        UapConfig {
            epsilon: 0.15,
            step: 0.04,
            epochs: 3,
            batch: 8,
            seed: 11,
        }
    }

    #[test]
    fn crafting_is_deterministic_and_budgeted() {
        let (x, y) = set(1, 24);
        let a = craft_uap(&mut net(2), &x, &y, &cfg()).unwrap();
        let b = craft_uap(&mut net(2), &x, &y, &cfg()).unwrap();
        assert_eq!(a.delta().data(), b.delta().data(), "bit-exact replay");
        assert!(a.delta().linf_norm() <= cfg().epsilon + 1e-7);
        assert!(a.delta().linf_norm() > 0.0, "delta moved");
        // A different seed shuffles differently and lands elsewhere.
        let c = craft_uap(&mut net(2), &x, &y, &UapConfig { seed: 12, ..cfg() }).unwrap();
        assert_ne!(a.delta().data(), c.delta().data());
    }

    #[test]
    fn apply_stays_in_pixel_box_and_fools_some() {
        let (x, _) = set(3, 32);
        let mut model = net(4);
        // Craft against the model's own predictions: loss ascent then
        // pushes every sample away from its current class, so a large
        // enough budget must flip some — even on an untrained net.
        let y = model
            .forward(&x, Mode::Eval)
            .unwrap()
            .argmax_rows()
            .unwrap();
        let strong = UapConfig {
            epsilon: 0.5,
            step: 0.1,
            epochs: 6,
            ..cfg()
        };
        let uap = craft_uap(&mut model, &x, &y, &strong).unwrap();
        let adv = uap.apply(&x).unwrap();
        assert_eq!(adv.shape(), x.shape());
        assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The perturbation ascends the crafting loss, so it should flip at
        // least one crafting-set prediction at this budget.
        let rate = uap.fool_rate(&model, &x).unwrap();
        assert!(rate > 0.0, "fool rate {rate}");
    }

    #[test]
    fn rejects_bad_configs_and_shapes() {
        let (x, y) = set(5, 8);
        for bad in [
            UapConfig {
                epsilon: 0.0,
                ..cfg()
            },
            UapConfig {
                step: -1.0,
                ..cfg()
            },
            UapConfig { epochs: 0, ..cfg() },
            UapConfig { batch: 0, ..cfg() },
        ] {
            assert!(craft_uap(&mut net(6), &x, &y, &bad).is_err());
        }
        assert!(matches!(
            craft_uap(&mut net(6), &x, &y[..4], &cfg()),
            Err(AttackError::BatchMismatch { .. })
        ));
        let uap = craft_uap(&mut net(6), &x, &y, &cfg()).unwrap();
        assert!(uap.apply(&Tensor::ones(&[2, 5])).is_err());
        assert!(Uap::from_delta(Tensor::zeros(&[8]), -0.5).is_err());
        // from_delta clamps into the budget.
        let wrapped = Uap::from_delta(Tensor::full(&[8], 9.0), 0.25).unwrap();
        assert!(wrapped.delta().linf_norm() <= 0.25);
    }
}
