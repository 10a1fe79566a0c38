//! Iterative fast-gradient attacks (Kurakin et al. 2016; the paper's
//! Algorithm 1).

use crate::grad::loss_input_grad;
use crate::{step, Attack, AttackError, Result};
use advcomp_nn::Sequential;
use advcomp_tensor::Tensor;

fn check(epsilon: f32, iterations: usize) -> Result<()> {
    if !(epsilon > 0.0 && epsilon.is_finite()) {
        return Err(AttackError::InvalidConfig(format!(
            "epsilon {epsilon} must be positive and finite"
        )));
    }
    if iterations == 0 {
        return Err(AttackError::InvalidConfig("iterations must be >= 1".into()));
    }
    Ok(())
}

/// Numerical-health guard shared by the iterative attacks. Hosts the
/// `attack_iter` fault-injection site, then reports whether the gradient is
/// unusable (NaN/Inf anywhere). A `true` return means the caller must stop
/// iterating and keep the last good iterate — one poisoned step would
/// otherwise spread NaN through every later iterate and surface as a
/// nonsense accuracy number instead of a recorded incident.
pub(crate) fn gradient_unusable(attack: &'static str, iteration: usize, g: &mut Tensor) -> bool {
    advcomp_nn::faults::corrupt("attack_iter", g.data_mut());
    if g.has_non_finite() {
        advcomp_nn::health::record(
            attack,
            format!("non-finite gradient at iteration {iteration}; keeping last good iterate"),
        );
        true
    } else {
        false
    }
}

/// Iterative FGSM (Algorithm 1): `X_{n+1} = Clip_{X,ε}(X_n + ε·sign(∇X J))`.
#[derive(Debug, Clone, Copy)]
pub struct Ifgsm {
    epsilon: f32,
    iterations: usize,
}

impl Ifgsm {
    /// Creates the attack with per-iteration step `epsilon` and `iterations`
    /// rounds (Table 1: ε=0.02, i=12 for both networks).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for a bad ε or zero iterations.
    pub fn new(epsilon: f32, iterations: usize) -> Result<Self> {
        check(epsilon, iterations)?;
        Ok(Ifgsm {
            epsilon,
            iterations,
        })
    }

    /// Per-iteration step size.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Number of iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl Attack for Ifgsm {
    fn name(&self) -> &'static str {
        "ifgsm"
    }

    fn generate(&self, model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<Tensor> {
        let mut adv = x.clone();
        for i in 0..self.iterations {
            let mut g = loss_input_grad(model, &adv, labels)?;
            if gradient_unusable("ifgsm", i, &mut g) {
                break;
            }
            step::sign_step(&mut adv, &g, self.epsilon)?;
        }
        Ok(adv)
    }
}

/// Iterative FGM: identical to [`Ifgsm`] except the step uses the raw
/// gradient, `N = ∇X J(θ, X_n, y)` — amplitudes contribute to the update,
/// which is why Table 1 needs ε=10 to attack the low-loss LeNet5.
#[derive(Debug, Clone, Copy)]
pub struct Ifgm {
    epsilon: f32,
    iterations: usize,
}

impl Ifgm {
    /// Creates the attack (Table 1: LeNet5 ε=10.0 i=5, CifarNet ε=0.02 i=12).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for a bad ε or zero iterations.
    pub fn new(epsilon: f32, iterations: usize) -> Result<Self> {
        check(epsilon, iterations)?;
        Ok(Ifgm {
            epsilon,
            iterations,
        })
    }

    /// Gradient scale factor ε.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Number of iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl Attack for Ifgm {
    fn name(&self) -> &'static str {
        "ifgm"
    }

    fn generate(&self, model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<Tensor> {
        let mut adv = x.clone();
        for i in 0..self.iterations {
            let mut g = loss_input_grad(model, &adv, labels)?;
            if gradient_unusable("ifgm", i, &mut g) {
                break;
            }
            // The epsilon ball doubles as the per-iterate clip of
            // Algorithm 1.
            step::grad_step(&mut adv, &g, self.epsilon, self.epsilon)?;
        }
        Ok(adv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{accuracy, Dense, Mode, Relu};
    use rand::SeedableRng;

    fn net() -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        Sequential::new(vec![
            Box::new(Dense::new(6, 12, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(12, 3, &mut rng)),
        ])
    }

    #[test]
    fn construction_validation() {
        assert!(Ifgsm::new(0.1, 0).is_err());
        assert!(Ifgsm::new(0.0, 5).is_err());
        assert!(Ifgm::new(-1.0, 5).is_err());
        assert!(Ifgm::new(10.0, 5).is_ok());
    }

    #[test]
    fn total_perturbation_bounded_by_iterations_times_epsilon() {
        let mut model = net();
        let x = Tensor::full(&[2, 6], 0.5);
        let attack = Ifgsm::new(0.01, 7).unwrap();
        let adv = attack.generate(&mut model, &x, &[0, 1]).unwrap();
        let delta = adv.sub(&x).unwrap();
        assert!(delta.linf_norm() <= 7.0 * 0.01 + 1e-5);
        assert!(adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn ifgm_each_step_within_epsilon() {
        // With huge epsilon * gradient, the per-step clip keeps components
        // within epsilon of the previous iterate.
        let mut model = net();
        let x = Tensor::full(&[1, 6], 0.5);
        let attack = Ifgm::new(0.05, 1).unwrap();
        let adv = attack.generate(&mut model, &x, &[0]).unwrap();
        assert!(adv.sub(&x).unwrap().linf_norm() <= 0.05 + 1e-6);
    }

    #[test]
    fn iterative_beats_single_step() {
        use advcomp_nn::softmax_cross_entropy;
        let mut model = net();
        let x = Tensor::full(&[4, 6], 0.5);
        let labels = vec![0, 1, 2, 0];
        let loss_of = |m: &mut Sequential, inp: &Tensor| {
            let l = m.forward(inp, Mode::Eval).unwrap();
            softmax_cross_entropy(&l, &labels).unwrap().loss
        };
        let one = Ifgsm::new(0.02, 1)
            .unwrap()
            .generate(&mut model, &x, &labels)
            .unwrap();
        let many = Ifgsm::new(0.02, 10)
            .unwrap()
            .generate(&mut model, &x, &labels)
            .unwrap();
        assert!(loss_of(&mut model, &many) >= loss_of(&mut model, &one));
    }

    #[test]
    fn accuracy_drops_under_ifgsm() {
        // Train a trivially-separable 2-feature task, then attack it.
        use advcomp_nn::{softmax_cross_entropy, Sgd};
        let mut model = net();
        let mut opt = Sgd::new(0.1, 0.9, 0.0).unwrap();
        // Class = which of the first two features is larger.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        use rand::Rng;
        for _ in 0..64 {
            let a: f32 = rng.gen_range(0.0..1.0);
            let b: f32 = rng.gen_range(0.0..1.0);
            xs.extend([a, b, 0.5, 0.5, 0.5, 0.5]);
            ys.push(if a > b { 0usize } else { 1 });
        }
        let x = Tensor::new(&[64, 6], xs).unwrap();
        for _ in 0..150 {
            let logits = model.forward(&x, Mode::Train).unwrap();
            let loss = softmax_cross_entropy(&logits, &ys).unwrap();
            model.zero_grad();
            model.backward(&loss.grad).unwrap();
            opt.step(model.params_mut()).unwrap();
        }
        let clean_logits = model.forward(&x, Mode::Eval).unwrap();
        let clean_acc = accuracy(&clean_logits, &ys).unwrap();
        assert!(clean_acc > 0.9, "failed to train: {clean_acc}");

        let adv = Ifgsm::new(0.05, 8)
            .unwrap()
            .generate(&mut model, &x, &ys)
            .unwrap();
        let adv_logits = model.forward(&adv, Mode::Eval).unwrap();
        let adv_acc = accuracy(&adv_logits, &ys).unwrap();
        assert!(
            adv_acc < clean_acc - 0.3,
            "attack ineffective: {clean_acc} -> {adv_acc}"
        );
    }
}
