//! Fixed-point activation quantisation with a straight-through estimator.

use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use advcomp_qformat::QFormat;
use advcomp_tensor::{fake_quantize_in_place, simd, Tensor, TensorError};

/// Simulated fixed-point quantisation of activations.
///
/// When a [`QFormat`] is installed, the forward pass rounds every activation
/// to the nearest representable level and saturates at the format's range —
/// this is the "quantising activations" half of the paper's compression
/// scheme, and the source of the *clipping effect* §4.2 credits with the
/// marginal defence at low bitwidths.
///
/// The backward pass uses the clipped straight-through estimator: gradients
/// pass unchanged where the input was inside the representable range and are
/// zeroed where it saturated. The forward, in either mode, rounds its
/// input's buffer in place and writes that pass mask, into a buffer the
/// layer keeps between calls, in the same
/// [`advcomp_tensor::fake_quantize_in_place`] pass, whose AVX2 body returns
/// `QFormat::quantize`'s bits; the backward multiplies the gradient by the
/// mask in place. When no format is installed the layer is an identity that
/// hands its buffer on, so model builders can place `FakeQuant` everywhere
/// and enable quantisation later without rebuilding.
#[derive(Debug, Default)]
pub struct FakeQuant {
    format: Option<QFormat>,
    /// The last forward's pass mask (1 where the value passed, 0 where it
    /// saturated); empty when that forward had no format.
    pass_mask: Vec<f32>,
    /// The last forward's shape; `None` before the first.
    shape: Option<Vec<usize>>,
}

impl FakeQuant {
    /// Creates a disabled (identity) quantisation point.
    pub fn new() -> Self {
        FakeQuant::default()
    }

    /// Creates an enabled quantisation point.
    pub fn with_format(format: QFormat) -> Self {
        FakeQuant {
            format: Some(format),
            ..FakeQuant::default()
        }
    }

    /// Installs or removes the quantisation format.
    pub fn set_format(&mut self, format: Option<QFormat>) {
        self.format = format;
    }

    /// Currently-installed format, if any.
    pub fn format(&self) -> Option<QFormat> {
        self.format
    }
}

impl Layer for FakeQuant {
    fn forward(&mut self, mut input: Tensor, _mode: Mode) -> Result<Tensor> {
        self.pass_mask.clear();
        if let Some(q) = self.format {
            self.pass_mask.resize(input.len(), 0.0);
            fake_quantize_in_place(
                simd::backend(),
                q,
                input.data_mut(),
                Some(&mut self.pass_mask),
            )?;
        }
        self.shape = Some(input.shape().to_vec());
        Ok(input)
    }

    fn backward_input(&mut self, mut grad_output: Tensor) -> Result<Tensor> {
        let shape = self
            .shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "fakequant" })?;
        if self.pass_mask.is_empty() {
            return Ok(grad_output);
        }
        if grad_output.shape() != shape.as_slice() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: shape.clone(),
                op: "fakequant backward",
            }));
        }
        for (g, &m) in grad_output.data_mut().iter_mut().zip(&self.pass_mask) {
            *g *= m;
        }
        Ok(grad_output)
    }

    fn kind(&self) -> &'static str {
        "fakequant"
    }

    fn spec(&self) -> crate::layer::LayerSpec<'_> {
        crate::layer::LayerSpec::FakeQuant {
            format: self.format,
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(FakeQuant {
            format: self.format,
            ..FakeQuant::default()
        })
    }

    fn set_activation_format(&mut self, format: Option<QFormat>) -> bool {
        self.set_format(format);
        true
    }

    fn activation_format(&self) -> Option<QFormat> {
        self.format
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_identity() {
        let mut fq = FakeQuant::new();
        let x = Tensor::from_vec(vec![0.33, -7.5]);
        let y = fq.forward(x.clone(), Mode::Eval).unwrap();
        assert_eq!(y.data(), x.data());
        let g = fq.backward_input(Tensor::ones(&[2])).unwrap();
        assert_eq!(g.data(), &[1.0, 1.0]);
    }

    #[test]
    fn quantises_to_levels() {
        let q = QFormat::new(1, 3).unwrap(); // step 0.125, range [-1, 0.875]
        let mut fq = FakeQuant::with_format(q);
        let x = Tensor::from_vec(vec![0.3, -0.99, 5.0]);
        let y = fq.forward(x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[0.25, -1.0, 0.875]);
    }

    #[test]
    fn ste_zeroes_saturated_gradients() {
        let q = QFormat::new(1, 3).unwrap();
        let mut fq = FakeQuant::with_format(q);
        let x = Tensor::from_vec(vec![0.3, 5.0, -5.0]);
        fq.forward(x, Mode::Train).unwrap();
        let g = fq.backward_input(Tensor::ones(&[3])).unwrap();
        assert_eq!(g.data(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn format_toggle() {
        let mut fq = FakeQuant::new();
        assert!(fq.format().is_none());
        let q = QFormat::for_bitwidth(8).unwrap();
        fq.set_format(Some(q));
        assert_eq!(fq.format(), Some(q));
        fq.set_format(None);
        assert!(fq.format().is_none());
    }

    #[test]
    fn backward_requires_forward() {
        let mut fq = FakeQuant::new();
        assert!(fq.backward_input(Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn forward_outputs_expose_quantised_activations() {
        let q = QFormat::new(1, 3).unwrap();
        let mut net = crate::Sequential::new(vec![Box::new(FakeQuant::with_format(q))]);
        let outputs = net
            .forward_outputs(&Tensor::from_vec(vec![0.3]), Mode::Eval)
            .unwrap();
        assert_eq!(outputs[0].data(), &[0.25]);
    }
}
