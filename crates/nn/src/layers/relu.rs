//! Rectified linear activation.

use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use advcomp_tensor::{simd, Tensor, TensorError};

/// `y = max(0, x)` elementwise.
///
/// The forward rectifies its input's buffer in place and, in the same
/// [`advcomp_tensor::simd::relu_in_place`] pass, records one bit per
/// element of `y > 0`; the backward zeroes the gradient in place where that
/// bit is clear ([`advcomp_tensor::simd::relu_grad_in_place`]).
#[derive(Debug, Default)]
pub struct Relu {
    /// Bit `i % 8` of byte `i / 8` is set where output `i` was positive.
    mask: Vec<u8>,
    /// The last forward's shape; `None` before the first.
    shape: Option<Vec<usize>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, mut input: Tensor, _mode: Mode) -> Result<Tensor> {
        self.mask.resize(input.len().div_ceil(8), 0);
        simd::relu_in_place(simd::backend(), input.data_mut(), Some(&mut self.mask));
        self.shape = Some(input.shape().to_vec());
        Ok(input)
    }

    fn backward_input(&mut self, mut grad_output: Tensor) -> Result<Tensor> {
        let shape = self
            .shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "relu" })?;
        if grad_output.shape() != shape.as_slice() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: shape.clone(),
                op: "relu backward",
            }));
        }
        simd::relu_grad_in_place(simd::backend(), grad_output.data_mut(), &self.mask);
        Ok(grad_output)
    }

    fn kind(&self) -> &'static str {
        "relu"
    }

    fn spec(&self) -> crate::layer::LayerSpec<'_> {
        crate::layer::LayerSpec::Relu
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Relu::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0]);
        let y = relu.forward(x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0]);
        relu.forward(x, Mode::Train).unwrap();
        let g = Tensor::from_vec(vec![10.0, 10.0, 10.0]);
        let gx = relu.backward_input(g).unwrap();
        // Subgradient at exactly 0 chosen as 0 (matches TF's relu_grad).
        assert_eq!(gx.data(), &[0.0, 0.0, 10.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward_input(Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn forward_outputs_expose_the_rectified_values() {
        let mut net = crate::Sequential::new(vec![Box::new(Relu::new())]);
        let x = Tensor::from_vec(vec![1.0, -2.0]);
        let outputs = net.forward_outputs(&x, Mode::Eval).unwrap();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].data(), &[1.0, 0.0]);
    }

    #[test]
    fn backward_rejects_a_foreign_shape() {
        let mut relu = Relu::new();
        relu.forward(Tensor::zeros(&[2, 3]), Mode::Eval).unwrap();
        assert!(relu.backward_input(Tensor::zeros(&[3, 2])).is_err());
    }
}
