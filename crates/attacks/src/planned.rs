//! Compiled evaluation forwards.
//!
//! Crafting adversarial samples needs the `Sequential` forward/backward
//! machinery (input gradients), but *measuring* a model does not: accuracy
//! evaluation, transfer measurement and black-box oracles only run
//! eval-mode forwards, over and over, on the same model. [`PlannedEval`]
//! compiles the model once with the graph compiler (`advcomp-graph`) and
//! reuses the plan — and its activation arena — for every subsequent
//! evaluation batch. The plan's forward is bit-identical to
//! `Sequential::forward(Mode::Eval)` (the `graph_parity` suite enforces
//! this), so it is the only eval forward the workspace runs.

use crate::{AttackError, Result};
use advcomp_graph::ExecPlan;
use advcomp_nn::{accuracy, Sequential};
use advcomp_tensor::Tensor;

/// A reusable, compiled eval-forward for one model.
///
/// Holds only the plan (arena, packed weights, schedule); it copies the
/// weights at compile time, so later edits to the source model are not
/// seen.
#[derive(Debug)]
pub struct PlannedEval {
    plan: ExecPlan,
}

impl PlannedEval {
    /// Compiles `model` for per-sample inputs of `sample_shape` (no batch
    /// axis).
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidConfig`] when the model does not lower for
    /// `sample_shape`.
    pub fn compile(model: &Sequential, sample_shape: &[usize]) -> Result<Self> {
        let plan = ExecPlan::compile(model, sample_shape).map_err(graph_error)?;
        Ok(PlannedEval { plan })
    }

    /// Eval-mode logits for `x`.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidConfig`] when `x` does not match the compiled
    /// sample shape.
    pub fn logits(&mut self, x: &Tensor) -> Result<Tensor> {
        self.plan.forward(x).map_err(graph_error)
    }

    /// Top-1 predictions for `x`.
    ///
    /// # Errors
    ///
    /// As [`PlannedEval::logits`].
    pub fn predictions(&mut self, x: &Tensor) -> Result<Vec<usize>> {
        Ok(self.logits(x)?.argmax_rows()?)
    }

    /// Top-1 accuracy on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// As [`PlannedEval::logits`], plus label/batch mismatches.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> Result<f64> {
        let logits = self.logits(x)?;
        accuracy(&logits, labels).map_err(Into::into)
    }
}

fn graph_error(e: advcomp_graph::GraphError) -> AttackError {
    AttackError::InvalidConfig(format!("compiled eval forward: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{Dense, Mode, Relu};
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(6, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 4, &mut rng)),
        ])
    }

    fn batch(seed: u64, n: usize) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        advcomp_tensor::Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[n, 6], &mut rng)
    }

    #[test]
    fn planned_eval_matches_sequential() {
        let mut model = net(3);
        let mut eval = PlannedEval::compile(&model, &[6]).unwrap();
        let x = batch(4, 5);
        let want = model.forward(&x, Mode::Eval).unwrap();
        let got = eval.logits(&x).unwrap();
        assert_eq!(want.data(), got.data());
        let labels = vec![0usize; 5];
        let a = eval.accuracy(&x, &labels).unwrap();
        let b = accuracy(&want, &labels).unwrap();
        assert_eq!(a, b);
        assert_eq!(eval.predictions(&x).unwrap(), want.argmax_rows().unwrap());
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let model = net(5);
        // A sample shape the first layer cannot take fails at compile time.
        assert!(matches!(
            PlannedEval::compile(&model, &[3]),
            Err(AttackError::InvalidConfig(_))
        ));
        // A batch that does not match the compiled shape fails per call,
        // and the plan keeps answering well-shaped batches afterwards.
        let mut eval = PlannedEval::compile(&model, &[6]).unwrap();
        assert!(matches!(
            eval.logits(&Tensor::zeros(&[2, 3])),
            Err(AttackError::InvalidConfig(_))
        ));
        assert_eq!(eval.logits(&batch(6, 2)).unwrap().shape(), &[2, 4]);
    }
}
