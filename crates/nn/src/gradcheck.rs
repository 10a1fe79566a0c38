//! Finite-difference gradient checking.
//!
//! Central-difference estimates of loss gradients, used by the test suites
//! of every layer to validate analytic backpropagation. Slow by design —
//! test-only.

use crate::loss::softmax_cross_entropy;
use crate::sequential::Sequential;
use crate::{Mode, NnError, Result};
use advcomp_tensor::Tensor;

/// Numerically estimates `dLoss/dInput` by central differences in
/// [`Mode::Eval`].
///
/// # Errors
///
/// Propagates forward/loss errors.
pub fn finite_diff_input_grad(
    net: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    eps: f32,
) -> Result<Tensor> {
    let mut grad = Tensor::zeros(x.shape());
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let lp = loss_of(net, &xp, labels)?;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lm = loss_of(net, &xm, labels)?;
        grad.data_mut()[i] = (lp - lm) / (2.0 * eps);
    }
    Ok(grad)
}

/// Numerically estimates `dLoss/dParam` for the named parameter in
/// [`Mode::Eval`].
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] when the parameter name is unknown,
/// plus forward/loss errors.
pub fn finite_diff_param_grad(
    net: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    param_name: &str,
    eps: f32,
) -> Result<Tensor> {
    let n = {
        let p = net
            .param(param_name)
            .ok_or_else(|| NnError::InvalidConfig(format!("unknown parameter {param_name}")))?;
        p.len()
    };
    let shape = net
        .param(param_name)
        .expect("checked above")
        .value
        .shape()
        .to_vec();
    let mut grad = Tensor::zeros(&shape);
    for i in 0..n {
        let original = net.param(param_name).expect("checked above").value.data()[i];
        net.param_mut(param_name)
            .expect("checked above")
            .value
            .data_mut()[i] = original + eps;
        let lp = loss_of(net, x, labels)?;
        net.param_mut(param_name)
            .expect("checked above")
            .value
            .data_mut()[i] = original - eps;
        let lm = loss_of(net, x, labels)?;
        net.param_mut(param_name)
            .expect("checked above")
            .value
            .data_mut()[i] = original;
        grad.data_mut()[i] = (lp - lm) / (2.0 * eps);
    }
    Ok(grad)
}

fn loss_of(net: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<f32> {
    let logits = net.forward(x, Mode::Eval)?;
    Ok(softmax_cross_entropy(&logits, labels)?.loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use rand::SeedableRng;

    #[test]
    fn mlp_gradients_match() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut net = Sequential::new(vec![
            Box::new(Dense::with_name("a", 5, 7, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::with_name("b", 7, 4, &mut rng)),
        ]);
        let x = advcomp_tensor::Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[3, 5], &mut rng);
        let labels = vec![0usize, 3, 2];

        let logits = net.forward(&x, Mode::Eval).unwrap();
        let loss = softmax_cross_entropy(&logits, &labels).unwrap();
        net.zero_grad();
        net.backward(&loss.grad).unwrap();
        let analytic_input = net.backward_input(&loss.grad).unwrap();
        let analytic_w = net.param("a.weight").unwrap().grad.clone();
        let analytic_b = net.param("b.bias").unwrap().grad.clone();

        let num_input = finite_diff_input_grad(&mut net, &x, &labels, 1e-3).unwrap();
        assert!(analytic_input.allclose(&num_input, 1e-2));
        let num_w = finite_diff_param_grad(&mut net, &x, &labels, "a.weight", 1e-3).unwrap();
        assert!(analytic_w.allclose(&num_w, 1e-2));
        let num_b = finite_diff_param_grad(&mut net, &x, &labels, "b.bias", 1e-3).unwrap();
        assert!(analytic_b.allclose(&num_b, 1e-2));
    }

    #[test]
    fn unknown_param_name_errors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 2, &mut rng))]);
        let x = Tensor::zeros(&[1, 2]);
        assert!(finite_diff_param_grad(&mut net, &x, &[0], "nope", 1e-3).is_err());
    }
}
