//! Shared packed-weight handles for frozen quantised inference.

use advcomp_qformat::QFormat;
use advcomp_tensor::QTensor;
use std::sync::Arc;

/// A layer's weights in packed block-quantised form, plus the activation
/// format its integer GEMM quantises inputs with.
///
/// The packed tensor sits behind an [`Arc`]: layer copies made via
/// [`crate::Layer::clone_layer`], and the compiled plans that serving
/// workers clone, share one copy of the blocks instead of duplicating them
/// — packed weights are immutable (frozen layers reject `backward`), so
/// sharing is safe.
#[derive(Debug, Clone)]
pub struct QuantizedWeights {
    tensor: Arc<QTensor>,
    act_format: QFormat,
}

impl QuantizedWeights {
    /// Wraps a freshly packed tensor.
    pub fn new(tensor: QTensor, act_format: QFormat) -> Self {
        QuantizedWeights {
            tensor: Arc::new(tensor),
            act_format,
        }
    }

    /// The packed weight blocks.
    pub fn tensor(&self) -> &QTensor {
        &self.tensor
    }

    /// The fixed-point format activations are quantised with on entry to
    /// the integer GEMM.
    pub fn act_format(&self) -> QFormat {
        self.act_format
    }

    /// Stored size in bytes: the checkpoint's block layout, codes plus
    /// one f32 scale per block ([`QTensor::packed_bytes`]).
    pub fn packed_bytes(&self) -> usize {
        self.tensor.packed_bytes()
    }

    /// How many handles share the packed blocks (1 = unshared).
    pub fn shared_count(&self) -> usize {
        Arc::strong_count(&self.tensor)
    }
}

impl PartialEq for QuantizedWeights {
    /// Content equality: same packed blocks and activation format,
    /// regardless of which `Arc` allocation holds them.
    fn eq(&self, other: &Self) -> bool {
        self.act_format == other.act_format && *self.tensor == *other.tensor
    }
}
