//! DeepFool (Moosavi-Dezfooli et al. 2016), L2 multi-class variant.

use crate::grad::logit_input_grads;
use crate::iterative::gradient_unusable;
use crate::{Attack, AttackError, Result};
use advcomp_nn::Sequential;
use advcomp_tensor::Tensor;

/// The L2 DeepFool attack.
///
/// Per sample, iteratively linearises the classifier around the current
/// iterate, finds the closest linearised decision boundary
/// `argmin_k |f_k − f_{k0}| / ‖∇f_k − ∇f_{k0}‖₂`, and steps just across it
/// (scaled by `1 + overshoot`). Produces much smaller perturbations than
/// the FGSM family, which is also why the paper finds it struggles against
/// coarsely-quantised models: its sub-resolution nudges get rounded away.
///
/// A non-finite step (from a NaN or ±∞ logit or gradient) stops the sample
/// at its last good iterate and records a `deepfool` health event, as in
/// the iterative FGSM family.
#[derive(Debug, Clone, Copy)]
pub struct DeepFool {
    overshoot: f32,
    max_iterations: usize,
}

impl DeepFool {
    /// Creates the attack. `overshoot` is the paper's ε for DeepFool in
    /// Table 1 (0.01); `max_iterations` its `i` (5 for LeNet5, 3 for
    /// CifarNet).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for negative overshoot or zero
    /// iterations.
    pub fn new(overshoot: f32, max_iterations: usize) -> Result<Self> {
        if !(overshoot >= 0.0 && overshoot.is_finite()) {
            return Err(AttackError::InvalidConfig(format!(
                "overshoot {overshoot} must be non-negative and finite"
            )));
        }
        if max_iterations == 0 {
            return Err(AttackError::InvalidConfig(
                "max_iterations must be >= 1".into(),
            ));
        }
        Ok(DeepFool {
            overshoot,
            max_iterations,
        })
    }

    /// The overshoot factor.
    pub fn overshoot(&self) -> f32 {
        self.overshoot
    }

    /// The iteration cap.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    fn attack_one(&self, model: &mut Sequential, x0: &Tensor) -> Result<Tensor> {
        let mut x = x0.clone();
        // The source class, from the first iteration's logits (the
        // forward at x0).
        let mut source = None;
        for i in 0..self.max_iterations {
            let (logits, grads) = logit_input_grads(model, &x)?;
            let k0 = *source.get_or_insert_with(|| argmax(&logits));
            if argmax(&logits) != k0 {
                break; // already across the boundary
            }
            // Closest linearised boundary: (distance, class, w, ‖w‖).
            let mut best: Option<(f32, usize, Tensor, f32)> = None;
            for k in 0..logits.len() {
                if k == k0 {
                    continue;
                }
                let w = grads[k].sub(&grads[k0])?;
                let wnorm = w.l2_norm();
                if wnorm < 1e-12 {
                    continue;
                }
                let dist = (logits[k] - logits[k0]).abs() / wnorm;
                if best.as_ref().is_none_or(|&(d, ..)| dist < d) {
                    best = Some((dist, k, w, wnorm));
                }
            }
            let Some((_, l, w, wnorm)) = best else {
                break; // degenerate gradients everywhere; give up
            };
            let f = logits[l] - logits[k0];
            let wnorm2 = wnorm.powi(2).max(1e-12);
            // Minimal step onto the boundary, plus a hair (1e-4) so the
            // linearised projection actually crosses it. Applied
            // incrementally from the current (clamped) iterate — the
            // standard formulation — so projection back into the valid
            // pixel box never stalls progress.
            let mut r = w.scale((f.abs() + 1e-4) * (1.0 + self.overshoot) / wnorm2);
            if gradient_unusable("deepfool", i, &mut r) {
                break;
            }
            x = x.add(&r)?.clamp(0.0, 1.0);
        }
        Ok(x)
    }
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &val) in v.iter().enumerate() {
        if val > v[best] {
            best = i;
        }
    }
    best
}

impl Attack for DeepFool {
    fn name(&self) -> &'static str {
        "deepfool"
    }

    fn generate(&self, model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<Tensor> {
        let n = *x.shape().first().unwrap_or(&0);
        if n != labels.len() {
            return Err(AttackError::BatchMismatch {
                inputs: n,
                labels: labels.len(),
            });
        }
        // DeepFool is untargeted and label-free (it moves away from the
        // model's own prediction); labels are accepted for interface
        // uniformity only.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let xi = x.narrow(i, 1)?;
            out.push(self.attack_one(model, &xi)?);
        }
        Ok(Tensor::concat0(&out)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{accuracy, Dense, Mode, Relu, Sgd};
    use rand::{Rng, SeedableRng};

    fn trained_toy() -> (Sequential, Tensor, Vec<usize>) {
        use advcomp_nn::softmax_cross_entropy;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut model = Sequential::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, &mut rng)),
        ]);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..90 {
            let cls = rng.gen_range(0..3usize);
            // Three well-separated blobs on a simplex-ish layout.
            let centre = [[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]][cls];
            xs.extend([
                centre[0] + rng.gen_range(-0.08..0.08),
                centre[1] + rng.gen_range(-0.08..0.08),
                0.5,
                0.5,
            ]);
            ys.push(cls);
        }
        let x = Tensor::new(&[90, 4], xs).unwrap();
        let mut opt = Sgd::new(0.2, 0.9, 0.0).unwrap();
        for _ in 0..200 {
            let logits = model.forward(&x, Mode::Train).unwrap();
            let loss = softmax_cross_entropy(&logits, &ys).unwrap();
            model.zero_grad();
            model.backward(&loss.grad).unwrap();
            opt.step(model.params_mut()).unwrap();
        }
        (model, x, ys)
    }

    #[test]
    fn construction_validation() {
        assert!(DeepFool::new(-0.1, 5).is_err());
        assert!(DeepFool::new(0.01, 0).is_err());
        assert!(DeepFool::new(f32::INFINITY, 3).is_err());
        assert!(DeepFool::new(0.02, 5).is_ok());
    }

    #[test]
    fn flips_most_predictions_with_small_perturbations() {
        let (mut model, x, ys) = trained_toy();
        let clean = model.forward(&x, Mode::Eval).unwrap();
        let clean_acc = accuracy(&clean, &ys).unwrap();
        assert!(clean_acc > 0.9, "toy model failed to train: {clean_acc}");

        let df = DeepFool::new(0.02, 10).unwrap();
        let adv = df.generate(&mut model, &x, &ys).unwrap();
        let adv_logits = model.forward(&adv, Mode::Eval).unwrap();
        let adv_acc = accuracy(&adv_logits, &ys).unwrap();
        assert!(adv_acc < 0.3, "DeepFool failed: accuracy still {adv_acc}");

        // Perturbations should be small relative to the data scale.
        let delta = adv.sub(&x).unwrap();
        let mean_l2 = delta.l2_norm() / (x.shape()[0] as f32).sqrt();
        assert!(mean_l2 < 0.6, "perturbation too large: {mean_l2}");
    }

    #[test]
    fn smaller_than_iterated_fgsm_perturbation() {
        // DeepFool takes minimal boundary-crossing steps; an iterated FGSM
        // run strong enough to flip the same samples spends far more
        // perturbation budget (the paper: DeepFool "produce[s] smaller
        // perturbations than the original IFGSM").
        use crate::{Attack as _, Ifgsm};
        let (mut model, x, ys) = trained_toy();
        let df_adv = DeepFool::new(0.02, 10)
            .unwrap()
            .generate(&mut model, &x, &ys)
            .unwrap();
        let fg_adv = Ifgsm::new(0.1, 8)
            .unwrap()
            .generate(&mut model, &x, &ys)
            .unwrap();
        let df_l2 = df_adv.sub(&x).unwrap().l2_norm();
        let fg_l2 = fg_adv.sub(&x).unwrap().l2_norm();
        assert!(
            df_l2 < fg_l2,
            "DeepFool ({df_l2}) should be finer than iterated FGSM ({fg_l2})"
        );
    }

    #[test]
    fn stays_in_pixel_range() {
        let (mut model, x, ys) = trained_toy();
        let adv = DeepFool::new(0.5, 10)
            .unwrap()
            .generate(&mut model, &x, &ys)
            .unwrap();
        assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn batch_mismatch_rejected() {
        let (mut model, x, _) = trained_toy();
        let df = DeepFool::new(0.02, 3).unwrap();
        assert!(matches!(
            df.generate(&mut model, &x, &[0, 1]),
            Err(AttackError::BatchMismatch { .. })
        ));
    }

    #[test]
    fn iteration_cap_respected_on_hopeless_input() {
        // A constant input far from any boundary may never flip within one
        // iteration; the attack must still terminate and return something
        // valid.
        let (mut model, _, _) = trained_toy();
        let x = Tensor::full(&[1, 4], 0.5);
        let adv = DeepFool::new(0.02, 1)
            .unwrap()
            .generate(&mut model, &x, &[0])
            .unwrap();
        assert_eq!(adv.shape(), x.shape());
    }
}
