//! Shape adapter between conv stacks and dense heads.

use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use advcomp_tensor::{Tensor, TensorError};

/// Flattens `[n, d1, d2, ...]` to `[n, d1·d2·...]`, preserving the batch
/// axis. The backward pass restores the original shape. Both hand their
/// tensor's buffer on under the new shape.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        if input.ndim() < 2 {
            return Err(NnError::Tensor(TensorError::RankMismatch {
                expected: 2,
                actual: input.ndim(),
                op: "flatten",
            }));
        }
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        self.cached_shape = Some(input.shape().to_vec());
        Ok(input.into_shape(&[n, rest])?)
    }

    fn backward_input(&mut self, grad_output: Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "flatten" })?;
        Ok(grad_output.into_shape(shape)?)
    }

    fn kind(&self) -> &'static str {
        "flatten"
    }

    fn spec(&self) -> crate::layer::LayerSpec<'_> {
        crate::layer::LayerSpec::Flatten
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Flatten { cached_shape: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let gx = f.backward_input(Tensor::ones(&[2, 60])).unwrap();
        assert_eq!(gx.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn rejects_vectors() {
        let mut f = Flatten::new();
        assert!(f.forward(Tensor::zeros(&[4]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut f = Flatten::new();
        assert!(f.backward_input(Tensor::zeros(&[2, 2])).is_err());
    }
}
