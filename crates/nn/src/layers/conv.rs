//! 2-D convolution layer (`advcomp_tensor::conv`: the GEMM lowering, or
//! the direct stride-1 kernels where they can run).

use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use crate::qweights::QuantizedWeights;
use crate::{NnError, Result};
use advcomp_qformat::QFormat;
use advcomp_tensor::{
    conv2d_forward, conv2d_input_grad, conv2d_weight_grad, conv_impl, im2col_into, qmatmul_f32,
    rows_to_nchw, simd, Conv2dGeometry, ConvImpl, ConvScratch, Init, QTensor, Tensor,
};
use rand::Rng;

/// A 2-D convolution over NCHW input.
///
/// Weights are stored as `[out_channels, in_channels, kh, kw]`. Every pass
/// — forward, input gradient, and weight and bias gradients — runs the
/// implementation [`advcomp_tensor::conv_impl`] picks for the layer's
/// geometry: on the AVX2 backend a stride-1 conv with padding below its
/// kernel runs the direct kernels, which build no patch matrix and give
/// the dense lowering's bits, so a sample's forward and input gradient do
/// not depend on the rest of its batch; every other conv lowers to
/// `im2col` + matmul. The forward moves its input into its cache, from
/// which `backward_params` after a forward in either mode computes the
/// weight gradient `g2dᵀ · cols`; `backward_input` needs no patch matrix
/// at all. The f32 forward is
/// [`advcomp_tensor::conv2d_forward`], the graph executor's too. A lowered
/// forward leaves its patch matrix and GEMM rows in the layer's
/// [`ConvScratch`], rewritten in place instead of reallocated, and the
/// lowered weight gradient reuses the patch matrix; on the direct path the
/// layer never builds or keeps one.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    kernel: usize,
    stride: usize,
    padding: usize,
    packed: Option<QuantizedWeights>,
    cache: Option<ConvCache>,
    scratch: ConvScratch,
}

/// What `backward` needs of the last forward.
#[derive(Debug)]
struct ConvCache {
    geom: Conv2dGeometry,
    input: Tensor,
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised kernels and zero bias.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        Self::with_name(
            "conv",
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            rng,
        )
    }

    /// Creates a named convolution (names scope parameters, e.g. `"conv1"`).
    #[allow(clippy::too_many_arguments)]
    pub fn with_name<R: Rng + ?Sized>(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let w = Init::Kaiming {
            mode: advcomp_tensor::FanMode::FanIn,
        }
        .tensor(&[out_channels, in_channels, kernel, kernel], rng);
        Conv2d {
            weight: Param::new(format!("{name}.weight"), w, ParamKind::Weight),
            bias: Param::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_channels]),
                ParamKind::Bias,
            ),
            kernel,
            stride,
            padding,
            packed: None,
            cache: None,
            scratch: ConvScratch::default(),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        match &self.packed {
            Some(q) => q.tensor().shape()[0],
            None => self.weight.value.shape()[0],
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        match &self.packed {
            Some(q) => q.tensor().shape()[1],
            None => self.weight.value.shape()[1],
        }
    }

    /// Checks `grad_output` against the last forward and returns that
    /// forward's cache.
    fn checked_cache(&self, grad_output: &Tensor) -> Result<&ConvCache> {
        if self.packed.is_some() {
            return Err(NnError::InvalidConfig(
                "conv2d: backward through frozen quantised weights (inference-only)".into(),
            ));
        }
        let cache = self
            .cache
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        let (oh, ow) = cache.out_hw;
        let (n, oc) = (cache.input.shape()[0], self.out_channels());
        if grad_output.shape() != [n, oc, oh, ow] {
            return Err(NnError::Tensor(
                advcomp_tensor::TensorError::ShapeMismatch {
                    lhs: grad_output.shape().to_vec(),
                    rhs: vec![n, oc, oh, ow],
                    op: "conv2d backward",
                },
            ));
        }
        Ok(cache)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        if input.ndim() != 4 {
            return Err(NnError::Tensor(advcomp_tensor::TensorError::RankMismatch {
                expected: 4,
                actual: input.ndim(),
                op: "conv2d",
            }));
        }
        let (n, _c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let geom = Conv2dGeometry {
            in_channels: self.in_channels(),
            in_h: h,
            in_w: w,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        let (oh, ow) = geom.output_hw()?;
        if let Some(q) = &self.packed {
            // Dequant-fused conv path: the unrolled patch matrix feeds the
            // int8 GEMM directly; only the codes of the weight blocks and
            // the quantised patches touch memory in the hot loop.
            let cols = &mut self.scratch.cols;
            im2col_into(&input, &geom, cols)?;
            let (rows, oc) = (cols.shape()[0], q.tensor().rows());
            let mut out = vec![0.0f32; rows * oc];
            qmatmul_f32(
                simd::backend(),
                cols.data(),
                rows,
                q.act_format(),
                q.tensor(),
                &mut out,
            )?;
            let out2d = Tensor::new(&[rows, oc], out)?.add_row_broadcast(&self.bias.value)?;
            let out = rows_to_nchw(&out2d, n, oc, oh, ow)?;
            self.cache = None; // frozen layers are inference-only
            return Ok(out);
        }
        let backend = simd::backend();
        let oc = self.out_channels();
        let weight_t = self.weight.value.reshape(&[oc, geom.patch_len()])?.t()?;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        conv2d_forward(
            backend,
            input.data(),
            n,
            weight_t.data(),
            self.bias.value.data(),
            &geom,
            conv_impl(backend, &geom),
            &mut self.scratch,
            out.data_mut(),
        )?;
        self.cache = Some(ConvCache {
            geom,
            input,
            out_hw: (oh, ow),
        });
        Ok(out)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let cache = self.checked_cache(grad_output)?;
        let backend = simd::backend();
        let imp = conv_impl(backend, &cache.geom);
        // A lowered forward left the input's patch matrix in the scratch.
        let cols = (imp == ConvImpl::Lowering).then_some(&self.scratch.cols);
        let (gw, gb) =
            conv2d_weight_grad(backend, &cache.input, grad_output, &cache.geom, imp, cols)?;
        self.weight.grad.add_assign(&gw)?;
        self.bias.grad.add_assign(&gb)?;
        Ok(())
    }

    fn backward_input(&mut self, grad_output: Tensor) -> Result<Tensor> {
        let geom = self.checked_cache(&grad_output)?.geom;
        let backend = simd::backend();
        let imp = conv_impl(backend, &geom);
        Ok(conv2d_input_grad(
            backend,
            &grad_output,
            &self.weight.value,
            &geom,
            imp,
        )?)
    }

    fn params(&self) -> Vec<&Param> {
        // The frozen weight is no longer an f32 parameter (see `Dense`).
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
        "conv2d"
    }

    fn spec(&self) -> crate::layer::LayerSpec<'_> {
        let weight = match &self.packed {
            Some(q) => crate::layer::WeightRepr::Packed(q),
            None => crate::layer::WeightRepr::Dense(&self.weight.value),
        };
        crate::layer::LayerSpec::Conv2d {
            weight,
            bias: &self.bias.value,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        // The cache and the lowering scratch are per-replica state and start
        // empty; the scratch is regrown lazily by the replica's first
        // lowered pass. Packed weights are shared across replicas via Arc.
        Box::new(Conv2d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            packed: self.packed.clone(),
            cache: None,
            scratch: ConvScratch::default(),
        })
    }

    fn freeze_quantized(&mut self, weight_format: QFormat, act_format: QFormat) -> Result<bool> {
        if self.packed.is_some() {
            return Err(NnError::InvalidConfig(
                "conv2d: weights already frozen".into(),
            ));
        }
        let shape = self.weight.value.shape().to_vec();
        let qt = QTensor::quantize(self.weight.value.data(), &shape, weight_format)?;
        self.packed = Some(QuantizedWeights::new(qt, act_format));
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
        rand::rngs::StdRng::seed_from_u64(2)
    }

    #[test]
    fn identity_kernel_passthrough() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        conv.params_mut()[0].value = Tensor::new(&[1, 1, 1, 1], vec![1.0]).unwrap();
        let x = Tensor::new(&[1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let y = conv.forward(x.clone(), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng());
        conv.params_mut()[0].value = Tensor::ones(&[1, 1, 3, 3]);
        conv.params_mut()[1].value = Tensor::from_vec(vec![0.5]);
        let x = Tensor::new(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = conv.forward(x.clone(), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[45.5]);
    }

    #[test]
    fn multi_channel_output_layout() {
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng());
        conv.params_mut()[0].value = Tensor::new(&[2, 1, 1, 1], vec![1.0, 10.0]).unwrap();
        let x = Tensor::new(&[1, 1, 1, 2], vec![3.0, 4.0]).unwrap();
        let y = conv.forward(x.clone(), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 2]);
        assert_eq!(y.data(), &[3.0, 4.0, 30.0, 40.0]);
    }

    #[test]
    fn rejects_non_4d_input() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng());
        assert!(conv.forward(Tensor::zeros(&[4, 4]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_shapes() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        let x = Tensor::zeros(&[2, 2, 5, 5]);
        let y = conv.forward(x.clone(), Mode::Train).unwrap();
        assert_eq!(y.shape(), &[2, 3, 5, 5]);
        conv.backward_params(&Tensor::ones(y.shape())).unwrap();
        let gx = conv.backward_input(Tensor::ones(y.shape())).unwrap();
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(conv.params()[0].grad.shape(), &[3, 2, 3, 3]);
        assert_eq!(conv.params()[1].grad.shape(), &[3]);
        // Bias grad of an all-ones upstream gradient = #positions per channel.
        assert!(conv.params()[1]
            .grad
            .allclose(&Tensor::full(&[3], 50.0), 1e-5));
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng());
        assert!(matches!(
            conv.backward_params(&Tensor::zeros(&[1, 1, 1, 1])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        use crate::{finite_diff_input_grad, finite_diff_param_grad, Sequential};
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, &mut rng())),
            Box::new(crate::Flatten::new()),
            Box::new(crate::Dense::new(2 * 4 * 4, 3, &mut rng())),
        ]);
        let x = Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[2, 1, 4, 4], &mut rng());
        let labels = vec![0usize, 2usize];
        let logits = net.forward(&x, Mode::Train).unwrap();
        let loss = crate::softmax_cross_entropy(&logits, &labels).unwrap();
        net.zero_grad();
        net.backward(&loss.grad).unwrap();
        let gx = net.backward_input(&loss.grad).unwrap();
        let num_gx = finite_diff_input_grad(&mut net, &x, &labels, 1e-2).unwrap();
        assert!(gx.allclose(&num_gx, 3e-2), "input gradient mismatch");
        let num_gw = finite_diff_param_grad(&mut net, &x, &labels, "conv.weight", 1e-2).unwrap();
        let analytic_gw = net
            .params()
            .into_iter()
            .find(|p| p.name == "conv.weight")
            .unwrap()
            .grad
            .clone();
        assert!(
            analytic_gw.allclose(&num_gw, 3e-2),
            "weight gradient mismatch"
        );
    }

    #[test]
    fn repeated_forward_backward_reuses_scratch() {
        // Two full steps with different inputs: the weight gradient must
        // come from the last forward's input, not a blend of the two.
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng());
        conv.params_mut()[0].value = Tensor::ones(&[1, 1, 3, 3]);
        let x1 = Tensor::new(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let x2 = Tensor::new(&[1, 1, 3, 3], vec![1.0; 9]).unwrap();
        let y1 = conv.forward(x1.clone(), Mode::Train).unwrap();
        assert_eq!(y1.data(), &[45.0]);
        let y2 = conv.forward(x2.clone(), Mode::Train).unwrap();
        assert_eq!(y2.data(), &[9.0]);
        // Weight grad for all-ones upstream = im2col(x2) = x2's patch.
        conv.backward_params(&Tensor::ones(&[1, 1, 1, 1])).unwrap();
        assert!(conv.params()[0]
            .grad
            .allclose(&Tensor::ones(&[1, 1, 3, 3]), 1e-6));
    }
}
