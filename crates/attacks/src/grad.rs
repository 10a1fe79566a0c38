//! Input-gradient plumbing shared by all attacks.

use crate::{AttackError, Result};
use advcomp_nn::{softmax_cross_entropy, Mode, Sequential};
use advcomp_tensor::Tensor;

/// Computes `∇X J(θ, X, y)` — the gradient of the **per-sample**
/// cross-entropy loss with respect to each input in the batch. This is the
/// quantity Equations 4 and 5 of the paper build perturbations from.
///
/// Samples in a batch do not interact, so the per-sample gradient is the
/// batch-mean gradient rescaled by the batch size. The rescaling matters:
/// magnitude-based attacks (FGM/IFGM) would otherwise see their effective ε
/// silently divided by the batch size, while sign-based attacks would hide
/// the bug entirely.
///
/// The backward is input-gradient-only ([`Sequential::backward_input`]), so
/// the call has no parameter-gradient side effect: every parameter gradient
/// is left exactly as it was.
///
/// # Errors
///
/// Returns [`AttackError::BatchMismatch`] when label count differs from the
/// batch, plus any network error.
pub fn loss_input_grad(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<Tensor> {
    if x.shape().first().copied().unwrap_or(0) != labels.len() {
        return Err(AttackError::BatchMismatch {
            inputs: x.shape().first().copied().unwrap_or(0),
            labels: labels.len(),
        });
    }
    let logits = model.forward(x, Mode::Eval)?;
    let loss = softmax_cross_entropy(&logits, labels)?;
    // Undo the 1/batch scaling of the mean loss: per-sample gradients.
    // Rescale the seed in place rather than allocating a copy.
    let mut seed = loss.grad;
    seed.scale_inplace(labels.len().max(1) as f32);
    Ok(model.backward_input(&seed)?)
}

/// Computes per-class logit gradients `∇X f_k(X)` for a **single** sample
/// (`x` of shape `[1, ...]`), returning `(logits, gradients)` where
/// `gradients[k]` is the input gradient of logit `k`.
///
/// DeepFool linearises the classifier around the current iterate with these.
/// Like [`loss_input_grad`], it leaves every parameter gradient untouched.
///
/// # Errors
///
/// Returns [`AttackError::InvalidConfig`] unless the batch size is 1.
pub fn logit_input_grads(model: &mut Sequential, x: &Tensor) -> Result<(Vec<f32>, Vec<Tensor>)> {
    if x.shape().first() != Some(&1) {
        return Err(AttackError::InvalidConfig(format!(
            "logit_input_grads expects a single sample, got batch {:?}",
            x.shape().first()
        )));
    }
    let logits = model.forward(x, Mode::Eval)?;
    let classes = logits.shape()[1];
    let mut grads = Vec::with_capacity(classes);
    for k in 0..classes {
        let mut seed = Tensor::zeros(&[1, classes]);
        seed.data_mut()[k] = 1.0;
        grads.push(model.backward_input(&seed)?);
    }
    Ok((logits.into_data(), grads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{Dense, Relu};
    use rand::SeedableRng;

    fn net() -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        Sequential::new(vec![
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ])
    }

    /// Seeds every parameter gradient with a distinct nonzero value.
    fn seed_param_grads(model: &mut Sequential) -> Vec<Tensor> {
        for (i, p) in model.params_mut().into_iter().enumerate() {
            p.grad = Tensor::full(p.value.shape(), 0.25 + i as f32);
        }
        model.params().iter().map(|p| p.grad.clone()).collect()
    }

    fn assert_grads_untouched(model: &Sequential, before: &[Tensor]) {
        for (p, want) in model.params().iter().zip(before) {
            assert_eq!(p.grad.data(), want.data(), "{} gradient moved", p.name);
        }
    }

    #[test]
    fn loss_grad_shape_and_parameter_gradients_untouched() {
        let mut model = net();
        let before = seed_param_grads(&mut model);
        let x = Tensor::ones(&[2, 4]);
        let g = loss_input_grad(&mut model, &x, &[0, 1]).unwrap();
        assert_eq!(g.shape(), &[2, 4]);
        assert_grads_untouched(&model, &before);
    }

    #[test]
    fn logit_grads_leave_parameter_gradients_untouched() {
        let mut model = net();
        let before = seed_param_grads(&mut model);
        logit_input_grads(&mut model, &Tensor::ones(&[1, 4])).unwrap();
        assert_grads_untouched(&model, &before);
    }

    #[test]
    fn loss_grad_batch_mismatch() {
        let mut model = net();
        let x = Tensor::ones(&[2, 4]);
        assert!(matches!(
            loss_input_grad(&mut model, &x, &[0]),
            Err(AttackError::BatchMismatch {
                inputs: 2,
                labels: 1
            })
        ));
    }

    #[test]
    fn logit_grads_one_per_class() {
        let mut model = net();
        let x = Tensor::ones(&[1, 4]);
        let (logits, grads) = logit_input_grads(&mut model, &x).unwrap();
        assert_eq!(logits.len(), 3);
        assert_eq!(grads.len(), 3);
        assert!(grads.iter().all(|g| g.shape() == [1, 4]));
    }

    #[test]
    fn logit_grads_reject_batches() {
        let mut model = net();
        assert!(logit_input_grads(&mut model, &Tensor::ones(&[2, 4])).is_err());
    }

    #[test]
    fn logit_grads_sum_property() {
        // Gradient of sum of logits == sum of per-logit gradients: check
        // against a single backward with an all-ones seed.
        let mut model = net();
        let x = Tensor::from_vec(vec![0.1, -0.4, 0.7, 0.2])
            .reshape(&[1, 4])
            .unwrap();
        let (_, grads) = logit_input_grads(&mut model, &x).unwrap();
        model.forward(&x, Mode::Eval).unwrap();
        let total = model.backward_input(&Tensor::ones(&[1, 3])).unwrap();
        let mut acc = Tensor::zeros(&[1, 4]);
        for g in &grads {
            acc.add_assign(g).unwrap();
        }
        assert!(acc.allclose(&total, 1e-5));
    }
}
