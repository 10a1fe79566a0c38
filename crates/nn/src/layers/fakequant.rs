//! Fixed-point activation quantisation with a straight-through estimator.

use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use advcomp_qformat::QFormat;
use advcomp_tensor::{fake_quantize_in_place, simd, Tensor};

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
/// zeroed where it saturated. The forward, in either mode, copies its input
/// and rewrites the copy to the rounded activations, writing that pass mask
/// in the same [`advcomp_tensor::fake_quantize_in_place`] pass, whose AVX2
/// body returns `QFormat::quantize`'s bits. When no format is installed the
/// layer is an identity, so model builders can place `FakeQuant` everywhere
/// and enable quantisation later without rebuilding.
#[derive(Debug, Default)]
pub struct FakeQuant {
    format: Option<QFormat>,
    pass_mask: Option<Tensor>,
    last_output: Option<Tensor>,
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
            pass_mask: None,
            last_output: None,
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
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
        match self.format {
            None => {
                self.pass_mask = None;
                self.last_output = Some(input.clone());
                Ok(input.clone())
            }
            Some(q) => {
                let mut y = input.clone();
                let mut mask = Tensor::zeros(input.shape());
                fake_quantize_in_place(simd::backend(), q, y.data_mut(), Some(mask.data_mut()))?;
                self.pass_mask = Some(mask);
                self.last_output = Some(y.clone());
                Ok(y)
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.last_output.is_none() {
            return Err(NnError::BackwardBeforeForward { layer: "fakequant" });
        }
        match &self.pass_mask {
            None => Ok(grad_output.clone()),
            Some(mask) => Ok(grad_output.mul(mask)?),
        }
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
            pass_mask: None,
            last_output: None,
        })
    }

    fn last_output(&self) -> Option<&Tensor> {
        self.last_output.as_ref()
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
        let y = fq.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), x.data());
        let g = fq.backward(&Tensor::ones(&[2])).unwrap();
        assert_eq!(g.data(), &[1.0, 1.0]);
    }

    #[test]
    fn quantises_to_levels() {
        let q = QFormat::new(1, 3).unwrap(); // step 0.125, range [-1, 0.875]
        let mut fq = FakeQuant::with_format(q);
        let x = Tensor::from_vec(vec![0.3, -0.99, 5.0]);
        let y = fq.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[0.25, -1.0, 0.875]);
    }

    #[test]
    fn ste_zeroes_saturated_gradients() {
        let q = QFormat::new(1, 3).unwrap();
        let mut fq = FakeQuant::with_format(q);
        let x = Tensor::from_vec(vec![0.3, 5.0, -5.0]);
        fq.forward(&x, Mode::Train).unwrap();
        let g = fq.backward(&Tensor::ones(&[3])).unwrap();
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
        assert!(fq.backward(&Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn exposes_quantised_activations() {
        let q = QFormat::new(1, 3).unwrap();
        let mut fq = FakeQuant::with_format(q);
        fq.forward(&Tensor::from_vec(vec![0.3]), Mode::Eval)
            .unwrap();
        assert_eq!(fq.last_output().unwrap().data(), &[0.25]);
    }
}
