//! The [`Layer`] trait and forward-pass [`Mode`].

use crate::param::Param;
use crate::Result;
use advcomp_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// Training mode enables stochastic behaviour (dropout); evaluation mode is
/// deterministic. Attacks always run in [`Mode::Eval`] — the adversary
/// differentiates the deployed, deterministic network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, caches retained for backward.
    Train,
    /// Inference: deterministic; caches still retained so input gradients
    /// (for attacks) remain available.
    Eval,
}

/// How a GEMM layer's weights are stored, as seen through [`LayerSpec`].
#[derive(Debug, Clone, Copy)]
pub enum WeightRepr<'a> {
    /// Trainable f32 weights (`[out, in]` for dense, `[oc, ic, kh, kw]`
    /// for convolution).
    Dense(&'a Tensor),
    /// Frozen block-quantised weights ([`Layer::freeze_quantized`]).
    Packed(&'a crate::QuantizedWeights),
}

/// A structural description of one layer, for the graph compiler.
///
/// [`Layer::spec`] lets `advcomp-graph` lower a [`crate::Sequential`] into
/// its typed IR without downcasting: each variant carries exactly the
/// state the inference forward pass depends on, borrowed from the layer.
/// Every layer must describe itself, so a layer with no lowering does not
/// compile.
#[derive(Debug, Clone, Copy)]
pub enum LayerSpec<'a> {
    /// 2-D convolution over NCHW input (square kernel).
    Conv2d {
        /// Kernel weights, `[oc, ic, kh, kw]` when dense.
        weight: WeightRepr<'a>,
        /// Per-output-channel bias, `[oc]`.
        bias: &'a Tensor,
        /// Square kernel edge.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
    },
    /// Fully-connected layer `y = x Wᵀ + b`.
    Dense {
        /// Weights, `[out, in]` when dense.
        weight: WeightRepr<'a>,
        /// Bias, `[out]`.
        bias: &'a Tensor,
    },
    /// `max(0, x)` elementwise.
    Relu,
    /// 2-D max pooling (square window, no padding).
    MaxPool2d {
        /// Window edge.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Collapse to `[batch, features]`.
    Flatten,
    /// Dropout — identity in [`Mode::Eval`], which is all an inference
    /// compiler sees.
    Dropout,
    /// Simulated activation quantisation; `None` means disabled
    /// (identity).
    FakeQuant {
        /// Installed activation format, if enabled.
        format: Option<advcomp_qformat::QFormat>,
    },
}

/// A differentiable network layer.
///
/// Contract:
///
/// * `forward` must cache whatever `backward` needs and may be called
///   repeatedly; each call replaces the cache.
/// * `backward` consumes a gradient with the shape of the **last forward
///   output** and returns the gradient with the shape of that forward's
///   input, *accumulating* (not overwriting) parameter gradients.
/// * `backward` must not destroy the cache: callers such as DeepFool
///   backpropagate several different seed gradients through one forward.
/// * An [`Mode::Eval`] `forward` must not mutate *persistent* state —
///   parameters, dropout RNG position, installed quantisation formats.
///   The transient backward cache is the only thing it may touch, so a
///   clone ([`Layer::clone_layer`]) computes exactly what its original
///   would.
pub trait Layer: Send + Sync {
    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Returns an [`crate::NnError`] when the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Backpropagates `grad_output`, returning the input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no forward
    /// cache exists, or shape errors when `grad_output` is malformed.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Immutable views of this layer's parameters (empty for stateless
    /// layers).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable views of this layer's parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Short static identifier, e.g. `"conv2d"`.
    fn kind(&self) -> &'static str;

    /// Structural description of this layer for the graph compiler
    /// ([`LayerSpec`]).
    fn spec(&self) -> LayerSpec<'_>;

    /// Clones this layer into an independent replica with **fresh (empty)
    /// backward caches** but identical persistent state: parameter values,
    /// dropout RNG position, installed quantisation formats.
    ///
    /// `Sequential::clone` is built on this. Its callers need a copy they
    /// may mutate while the original stays intact: `core::advtrain`
    /// fine-tunes a hardened copy, and `detect::grid` crafts through
    /// surrogate copies and compresses member copies of one baseline.
    /// Serving workers do not clone models; each clones a compiled
    /// `ExecPlan`. Because the clone starts cache-free, `backward` before a
    /// `forward` on it fails with [`crate::NnError::BackwardBeforeForward`]
    /// as on a new layer.
    fn clone_layer(&self) -> Box<dyn Layer>;

    /// The activation tensor this layer produced in its last forward pass,
    /// if it retains one. Used to sample activation distributions for the
    /// paper's Figure 6 CDFs.
    fn last_output(&self) -> Option<&Tensor> {
        None
    }

    /// Installs (or clears) a fixed-point activation format on this layer.
    ///
    /// Returns `true` when the layer is an activation-quantisation point
    /// (i.e. a `FakeQuant`); all other layers ignore the call and return
    /// `false`. Compression passes use this to switch a whole network's
    /// activation precision without downcasting.
    fn set_activation_format(&mut self, _format: Option<advcomp_qformat::QFormat>) -> bool {
        false
    }

    /// The fixed-point activation format currently installed, if this layer
    /// is a quantisation point and one is set.
    fn activation_format(&self) -> Option<advcomp_qformat::QFormat> {
        None
    }

    /// Freezes this layer's weights into packed block-quantised form for
    /// integer-GEMM inference: the f32 weight tensor is replaced by a
    /// [`crate::QuantizedWeights`] handle, the weight leaves `params()`,
    /// and `backward` starts failing (frozen layers are inference-only).
    ///
    /// Returns `true` when the layer holds packable weights (`Dense`,
    /// `Conv2d`); parameter-free and non-GEMM layers return `false`
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`crate::NnError::InvalidConfig`] when already frozen, or a tensor
    /// error when `weight_format` has no packed representation.
    fn freeze_quantized(
        &mut self,
        _weight_format: advcomp_qformat::QFormat,
        _act_format: advcomp_qformat::QFormat,
    ) -> Result<bool> {
        Ok(false)
    }

    /// The packed weights installed on this layer, if frozen, keyed by the
    /// weight parameter's name (the checkpoint serialisation key).
    fn quantized_weights(&self) -> Option<(&str, &crate::QuantizedWeights)> {
        None
    }

    /// Installs packed weights by parameter name (the checkpoint restore
    /// path). Returns `true` when this layer owns the named weight and
    /// accepted the handle — whether or not it was frozen before — and
    /// `false` when the name belongs elsewhere.
    ///
    /// # Errors
    ///
    /// [`crate::NnError::InvalidConfig`] when the name matches but the
    /// packed shape does not.
    fn install_quantized_weights(
        &mut self,
        _name: &str,
        _weights: &crate::QuantizedWeights,
    ) -> Result<bool> {
        Ok(false)
    }
}
