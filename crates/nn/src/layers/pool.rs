//! Max pooling.

use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use advcomp_tensor::{max_pool2d, max_pool2d_backward, simd, Tensor, TensorError};

/// 2-D max pooling over NCHW input with a square window.
///
/// Caches the window offset of every output's maximum, one byte each, in a
/// buffer kept between calls, so the backward pass routes each output
/// gradient to the single input element that produced it
/// ([`advcomp_tensor::max_pool2d_backward`]). The window loop is
/// [`advcomp_tensor::max_pool2d`], which the graph executor's pooling step
/// shares.
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// The last forward's input shape; `None` before the first.
    input_dims: Option<[usize; 4]>,
    /// Window offset (`ky · kernel + kx`) of each output's maximum.
    argmax: Vec<u8>,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given window and stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be >= 1");
        MaxPool2d {
            kernel,
            stride,
            input_dims: None,
            argmax: Vec::new(),
        }
    }

    fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if h < self.kernel || w < self.kernel {
            return Err(NnError::Tensor(TensorError::InvalidGeometry(format!(
                "pool window {} larger than input {h}x{w}",
                self.kernel
            ))));
        }
        Ok((
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        ))
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        let &[n, c, h, w] = input.shape() else {
            return Err(NnError::Tensor(TensorError::RankMismatch {
                expected: 4,
                actual: input.ndim(),
                op: "maxpool2d",
            }));
        };
        let (oh, ow) = self.output_hw(h, w)?;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        self.argmax.resize(out.len(), 0);
        max_pool2d(
            simd::backend(),
            input.data(),
            [n, c, h, w],
            self.kernel,
            self.stride,
            out.data_mut(),
            Some(&mut self.argmax),
        )?;
        self.input_dims = Some([n, c, h, w]);
        Ok(out)
    }

    fn backward_input(&mut self, grad_output: Tensor) -> Result<Tensor> {
        let dims = self
            .input_dims
            .ok_or(NnError::BackwardBeforeForward { layer: "maxpool2d" })?;
        let mut gx = Tensor::zeros(&dims);
        max_pool2d_backward(
            grad_output.data(),
            dims,
            self.kernel,
            self.stride,
            &self.argmax,
            gx.data_mut(),
        )?;
        Ok(gx)
    }

    fn kind(&self) -> &'static str {
        "maxpool2d"
    }

    fn spec(&self) -> crate::layer::LayerSpec<'_> {
        crate::layer::LayerSpec::MaxPool2d {
            kernel: self.kernel,
            stride: self.stride,
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2d::new(self.kernel, self.stride))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_2x2() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::new(
            &[1, 1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        )
        .unwrap();
        let y = pool.forward(x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6., 8., 14., 16.]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::new(&[1, 1, 2, 2], vec![1., 9., 3., 4.]).unwrap();
        pool.forward(x, Mode::Train).unwrap();
        let g = Tensor::new(&[1, 1, 1, 1], vec![5.0]).unwrap();
        let gx = pool.backward_input(g).unwrap();
        assert_eq!(gx.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn overlapping_windows_accumulate() {
        let mut pool = MaxPool2d::new(2, 1);
        let x = Tensor::new(&[1, 1, 2, 3], vec![0., 9., 0., 0., 0., 0.]).unwrap();
        let y = pool.forward(x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[9., 9.]);
        let g = Tensor::new(&[1, 1, 1, 2], vec![1.0, 1.0]).unwrap();
        let gx = pool.backward_input(g).unwrap();
        assert_eq!(gx.data()[1], 2.0);
    }

    #[test]
    fn rejects_small_input() {
        let mut pool = MaxPool2d::new(3, 1);
        assert!(pool
            .forward(Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval)
            .is_err());
        assert!(pool.forward(Tensor::zeros(&[2, 2]), Mode::Eval).is_err());
    }

    #[test]
    #[should_panic(expected = "kernel and stride")]
    fn zero_kernel_panics() {
        MaxPool2d::new(0, 1);
    }

    #[test]
    fn backward_requires_forward() {
        let mut pool = MaxPool2d::new(2, 2);
        assert!(pool.backward_input(Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }
}
