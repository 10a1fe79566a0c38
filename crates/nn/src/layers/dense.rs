//! Fully-connected layer.

use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use crate::qweights::QuantizedWeights;
use crate::{NnError, Result};
use advcomp_qformat::QFormat;
use advcomp_tensor::{qmatmul_f32, simd, Init, QTensor, Tensor};
use rand::Rng;

/// A fully-connected (affine) layer: `y = x Wᵀ + b`.
///
/// Weight shape is `[out, in]`, bias `[out]`; inputs are `[batch, in]`.
///
/// In the frozen state ([`Layer::freeze_quantized`]) the weight lives as a
/// packed [`QuantizedWeights`] block tensor and the forward pass runs the
/// fused int8 GEMM ([`advcomp_tensor::qmatmul_f32`]): inputs are quantised
/// per row on entry, accumulated in i32 per block, and dequantised into the
/// f32 output, so outputs and the bias addition keep their f32 semantics.
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    packed: Option<QuantizedWeights>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-initialised weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self::with_name("dense", in_features, out_features, rng)
    }

    /// Creates a named dense layer (names scope parameters, e.g. `"fc1"`).
    pub fn with_name<R: Rng + ?Sized>(
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        let w = Init::Kaiming {
            mode: advcomp_tensor::FanMode::FanIn,
        }
        .tensor(&[out_features, in_features], rng);
        Dense {
            weight: Param::new(format!("{name}.weight"), w, ParamKind::Weight),
            bias: Param::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_features]),
                ParamKind::Bias,
            ),
            packed: None,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        match &self.packed {
            Some(q) => q.tensor().cols(),
            None => self.weight.value.shape()[1],
        }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        match &self.packed {
            Some(q) => q.tensor().rows(),
            None => self.weight.value.shape()[0],
        }
    }

    /// The last forward's input, which both backward methods need.
    fn cached_input(&self) -> Result<&Tensor> {
        if self.packed.is_some() {
            return Err(NnError::InvalidConfig(
                "dense: backward through frozen quantised weights (inference-only)".into(),
            ));
        }
        self.cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "dense" })
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        if let Some(q) = &self.packed {
            let (m, n) = (input.shape()[0], q.tensor().rows());
            let mut out = vec![0.0f32; m * n];
            qmatmul_f32(
                simd::backend(),
                input.data(),
                m,
                q.act_format(),
                q.tensor(),
                &mut out,
            )?;
            let y = Tensor::new(&[m, n], out)?.add_row_broadcast(&self.bias.value)?;
            self.cached_input = None; // frozen layers are inference-only
            return Ok(y);
        }
        let wt = self.weight.value.t()?;
        let y = input.matmul(&wt)?;
        let y = y.add_row_broadcast(&self.bias.value)?;
        self.cached_input = Some(input);
        Ok(y)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        // dL/dW = gᵀ x, dL/db = Σ_batch g.
        let gw = grad_output.t()?.matmul(self.cached_input()?)?;
        self.weight.grad.add_assign(&gw)?;
        let gb = grad_output.sum_axis0()?;
        self.bias.grad.add_assign(&gb)?;
        Ok(())
    }

    fn backward_input(&mut self, grad_output: Tensor) -> Result<Tensor> {
        // dL/dx = g W.
        self.cached_input()?;
        Ok(grad_output.matmul(&self.weight.value)?)
    }

    fn params(&self) -> Vec<&Param> {
        // The frozen weight is no longer an f32 parameter: it leaves the
        // param list so optimisers, pruning and f32 export skip it.
        match self.packed {
            Some(_) => vec![&self.bias],
            None => vec![&self.weight, &self.bias],
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self.packed {
            Some(_) => vec![&mut self.bias],
            None => vec![&mut self.weight, &mut self.bias],
        }
    }

    fn kind(&self) -> &'static str {
        "dense"
    }

    fn spec(&self) -> crate::layer::LayerSpec<'_> {
        let weight = match &self.packed {
            Some(q) => crate::layer::WeightRepr::Packed(q),
            None => crate::layer::WeightRepr::Dense(&self.weight.value),
        };
        crate::layer::LayerSpec::Dense {
            weight,
            bias: &self.bias.value,
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        // Replicas share the packed blocks (Arc), not a fresh copy.
        Box::new(Dense {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            packed: self.packed.clone(),
            cached_input: None,
        })
    }

    fn freeze_quantized(&mut self, weight_format: QFormat, act_format: QFormat) -> Result<bool> {
        if self.packed.is_some() {
            return Err(NnError::InvalidConfig(
                "dense: weights already frozen".into(),
            ));
        }
        let shape = self.weight.value.shape().to_vec();
        let qt = QTensor::quantize(self.weight.value.data(), &shape, weight_format)?;
        self.packed = Some(QuantizedWeights::new(qt, act_format));
        // Drop the f32 copy: the packed blocks are now the only weights.
        self.weight.value = Tensor::default();
        self.weight.grad = Tensor::default();
        Ok(true)
    }

    fn quantized_weights(&self) -> Option<(&str, &QuantizedWeights)> {
        self.packed.as_ref().map(|q| (self.weight.name.as_str(), q))
    }

    fn install_quantized_weights(
        &mut self,
        name: &str,
        weights: &QuantizedWeights,
    ) -> Result<bool> {
        if name != self.weight.name {
            return Ok(false);
        }
        let expected: &[usize] = match &self.packed {
            Some(q) => q.tensor().shape(),
            None => self.weight.value.shape(),
        };
        if weights.tensor().shape() != expected {
            return Err(NnError::InvalidConfig(format!(
                "shape mismatch for {name}: {:?} vs {:?}",
                expected,
                weights.tensor().shape()
            )));
        }
        self.packed = Some(weights.clone());
        self.weight.value = Tensor::default();
        self.weight.grad = Tensor::default();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut layer = Dense::new(3, 2, &mut rng());
        // Overwrite params for a deterministic check.
        layer.params_mut()[0].value = Tensor::new(&[2, 3], vec![1., 0., 0., 0., 1., 0.]).unwrap();
        layer.params_mut()[1].value = Tensor::from_vec(vec![10.0, 20.0]);
        let x = Tensor::new(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = layer.forward(x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[11.0, 22.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Dense::new(3, 2, &mut rng());
        let g = Tensor::zeros(&[1, 2]);
        assert!(matches!(
            layer.backward_params(&g),
            Err(NnError::BackwardBeforeForward { layer: "dense" })
        ));
    }

    #[test]
    fn backward_gradients_exact_small_case() {
        let mut layer = Dense::new(2, 1, &mut rng());
        layer.params_mut()[0].value = Tensor::new(&[1, 2], vec![3.0, 4.0]).unwrap();
        layer.params_mut()[1].value = Tensor::from_vec(vec![0.0]);
        let x = Tensor::new(&[1, 2], vec![5.0, 6.0]).unwrap();
        layer.forward(x, Mode::Train).unwrap();
        let g = Tensor::new(&[1, 1], vec![2.0]).unwrap();
        layer.backward_params(&g).unwrap();
        let gx = layer.backward_input(g).unwrap();
        assert_eq!(gx.data(), &[6.0, 8.0]); // g * W
        assert_eq!(layer.params()[0].grad.data(), &[10.0, 12.0]); // gᵀ x
        assert_eq!(layer.params()[1].grad.data(), &[2.0]);
    }

    #[test]
    fn backward_accumulates() {
        let mut layer = Dense::new(2, 1, &mut rng());
        let x = Tensor::new(&[1, 2], vec![1.0, 1.0]).unwrap();
        layer.forward(x, Mode::Train).unwrap();
        let g = Tensor::new(&[1, 1], vec![1.0]).unwrap();
        layer.backward_params(&g).unwrap();
        let first = layer.params()[1].grad.data()[0];
        layer.backward_params(&g).unwrap();
        assert_eq!(layer.params()[1].grad.data()[0], 2.0 * first);
    }

    #[test]
    fn param_names_scoped() {
        let layer = Dense::with_name("fc1", 4, 4, &mut rng());
        let names: Vec<_> = layer.params().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names, vec!["fc1.weight", "fc1.bias"]);
    }

    #[test]
    fn matches_finite_difference() {
        use crate::{finite_diff_input_grad, Sequential};
        let mut net = Sequential::new(vec![Box::new(Dense::new(3, 2, &mut rng()))]);
        let x = Tensor::new(&[2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]).unwrap();
        let labels = vec![0usize, 1usize];
        let analytic = {
            let logits = net.forward(&x, Mode::Train).unwrap();
            let loss = crate::softmax_cross_entropy(&logits, &labels).unwrap();
            net.backward_input(&loss.grad).unwrap()
        };
        let numeric = finite_diff_input_grad(&mut net, &x, &labels, 1e-3).unwrap();
        assert!(analytic.allclose(&numeric, 1e-2));
    }
}
