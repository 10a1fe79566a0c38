//! Pass pipeline: quant→dequant elision, pattern fusion, int8 chaining.
//!
//! Three passes run in order over a lowered [`Graph`]:
//!
//! 1. **Quantise elision.** A `Quantize(F)` node whose value flows — only
//!    through quantisation-transparent ops — into a packed GEMM whose
//!    activation format is also `F` is dropped. The GEMM re-encodes its
//!    input on the same fixed-point grid, and `encode(decode(encode(x)))
//!    == encode(x)` (re-encoding a grid value is lossless), so the codes
//!    entering the integer kernel are bit-identical with or without the
//!    round trip. Transparent ops are `MaxPool2d` (max commutes with the
//!    monotone quantiser — the pooled *value* is the quantised max either
//!    way) and `Flatten` (a permutation). Zero padding introduced by
//!    im2col is covered because `encode(0) == 0`.
//! 2. **Pattern fusion.** `Conv2d [+ Relu]` and `Dense [+ Relu]` collapse
//!    into single units that apply bias, then ReLU. `Dense` and packed
//!    convs run a GEMM whose epilogue does both per element while the
//!    output rows are still hot; the epilogue runs in the GEMM's rows
//!    layout (`[m, oc]`, channel = column), which commutes with a packed
//!    conv's later rows→NCHW permutation. An f32 conv runs
//!    `tensor::conv2d_forward`, which adds the bias, and its fused ReLU
//!    follows as the in-place ReLU step. Either way each element is
//!    `max(0, acc + bias)`, bit-identical to the layer-at-a-time chain. A
//!    ReLU that follows any other op stays a standalone step.
//! 3. **Int8 chaining.** For adjacent `Dense → Dense(packed)` pairs the
//!    producer's epilogue additionally emits the consumer's i8 activation
//!    codes (`F.encode(y)` on the final f32 value — exactly what the
//!    consumer's own quantise step would compute), and the consumer skips
//!    its quantise step entirely: adjacent packed layers exchange int8
//!    activations without an f32 round trip through a second pass.

use advcomp_qformat::QFormat;
use advcomp_tensor::QuantKind;

use crate::ir::{GemmWeight, Graph, Node, Op};

/// What the pass pipeline did to a graph, for tests and bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// `Quantize` nodes elided into a downstream packed GEMM.
    pub elided_quantize: usize,
    /// Conv2d nodes that absorbed a following ReLU: a packed conv applies
    /// it in its GEMM epilogue, an f32 conv as the in-place ReLU step right
    /// after the convolution.
    pub fused_conv_act: usize,
    /// Dense nodes that absorbed a following ReLU.
    pub fused_dense_act: usize,
    /// Dense→Dense links exchanging int8 activations directly.
    pub int8_chain_links: usize,
    /// Identity layers dropped at lowering (`Dropout`, disabled
    /// `FakeQuant`).
    pub dropped_identity: usize,
}

/// A GEMM with its fused epilogue (for an f32 conv: the convolution, its
/// bias and whether a ReLU follows).
#[derive(Debug, Clone)]
pub struct GemmUnit {
    /// The weights (`[out, k]` layout when dense).
    pub weight: GemmWeight,
    /// Bias added per output column.
    pub bias: Vec<f32>,
    /// Whether the epilogue applies a fused ReLU after the bias.
    pub relu: bool,
    /// When set, the epilogue also emits i8 codes of the final value in
    /// this format for the next (packed) layer.
    pub emit_codes: Option<QFormat>,
    /// When set, this packed GEMM consumes the codes emitted by the
    /// previous unit instead of quantising its f32 input.
    pub consume_codes: bool,
}

impl GemmUnit {
    fn new(weight: GemmWeight, bias: Vec<f32>) -> Self {
        GemmUnit {
            weight,
            bias,
            relu: false,
            emit_codes: None,
            consume_codes: false,
        }
    }
}

/// One operation after fusion.
#[derive(Debug, Clone)]
pub enum FusedOp {
    /// A convolution. f32: `tensor::conv2d_forward` (bias included), then
    /// the in-place ReLU step when `unit.relu`. Packed: patch codes, int8
    /// GEMM, bias/ReLU epilogue, rows→NCHW.
    Conv2d {
        /// The weights, bias and fused ReLU.
        unit: GemmUnit,
        /// Square kernel edge.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
    },
    /// GEMM + epilogue.
    Dense {
        /// The GEMM and its epilogue.
        unit: GemmUnit,
    },
    /// Standalone ReLU (it follows no GEMM to fuse into).
    Relu,
    /// 2-D max pooling.
    MaxPool2d {
        /// Window edge.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Per-sample reshape to rank 1 (free: no data movement).
    Flatten,
    /// Simulated activation quantisation kept in the graph (its value
    /// does not feed a matching packed GEMM).
    Quantize(QFormat),
}

impl FusedOp {
    /// Short lowercase mnemonic for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            FusedOp::Conv2d { .. } => "conv2d",
            FusedOp::Dense { .. } => "dense",
            FusedOp::Relu => "relu",
            FusedOp::MaxPool2d { .. } => "maxpool2d",
            FusedOp::Flatten => "flatten",
            FusedOp::Quantize(_) => "quantize",
        }
    }
}

/// The graph after the pass pipeline: fused ops with per-sample shapes.
#[derive(Debug, Clone)]
pub struct FusedGraph {
    /// Per-sample input shape.
    pub input_shape: Vec<usize>,
    /// Fused ops in execution order, each with its per-sample output
    /// shape.
    pub ops: Vec<(FusedOp, Vec<usize>)>,
    /// What the passes did.
    pub stats: FusionStats,
}

/// Is this op transparent to quantisation for the elision pass?
fn quant_transparent(op: &Op) -> bool {
    matches!(op, Op::MaxPool2d { .. } | Op::Flatten)
}

/// The activation format of a packed GEMM node, if any.
fn packed_act_format(op: &Op) -> Option<QFormat> {
    match op {
        Op::Conv2d { weight, .. } | Op::Dense { weight, .. } => weight.act_format(),
        _ => None,
    }
}

/// Pass 1: drop `Quantize` nodes that a downstream packed GEMM re-encodes
/// losslessly. Returns the number elided.
fn elide_quantize(nodes: &mut Vec<Node>) -> usize {
    let mut keep = vec![true; nodes.len()];
    let mut elided = 0usize;
    for i in 0..nodes.len() {
        let Op::Quantize(format) = &nodes[i].op else {
            continue;
        };
        let format = *format;
        let mut j = i + 1;
        while j < nodes.len() && quant_transparent(&nodes[j].op) {
            j += 1;
        }
        if j < nodes.len() && packed_act_format(&nodes[j].op) == Some(format) {
            keep[i] = false;
            elided += 1;
        }
    }
    let mut it = keep.iter();
    nodes.retain(|_| *it.next().unwrap());
    elided
}

/// Pass 2: collapse GEMM + epilogue patterns.
fn fuse_patterns(nodes: Vec<Node>, stats: &mut FusionStats) -> Vec<(FusedOp, Vec<usize>)> {
    let mut ops = Vec::with_capacity(nodes.len());
    let mut i = 0;
    while i < nodes.len() {
        let node = nodes[i].clone();
        let mut shape = node.out_shape;
        match node.op {
            Op::Conv2d {
                weight,
                bias,
                kernel,
                stride,
                padding,
            } => {
                let mut unit = GemmUnit::new(weight, bias);
                if let Some(Node {
                    op: Op::Relu,
                    out_shape,
                }) = nodes.get(i + 1)
                {
                    unit.relu = true;
                    shape = out_shape.clone();
                    stats.fused_conv_act += 1;
                    i += 1;
                }
                ops.push((
                    FusedOp::Conv2d {
                        unit,
                        kernel,
                        stride,
                        padding,
                    },
                    shape,
                ));
            }
            Op::Dense { weight, bias } => {
                let mut unit = GemmUnit::new(weight, bias);
                if let Some(Node {
                    op: Op::Relu,
                    out_shape,
                }) = nodes.get(i + 1)
                {
                    unit.relu = true;
                    shape = out_shape.clone();
                    stats.fused_dense_act += 1;
                    i += 1;
                }
                ops.push((FusedOp::Dense { unit }, shape));
            }
            Op::Relu => ops.push((FusedOp::Relu, shape)),
            Op::MaxPool2d { kernel, stride } => {
                ops.push((FusedOp::MaxPool2d { kernel, stride }, shape))
            }
            Op::Flatten => ops.push((FusedOp::Flatten, shape)),
            Op::Quantize(format) => ops.push((FusedOp::Quantize(format), shape)),
        }
        i += 1;
    }
    ops
}

/// Pass 3: link adjacent `Dense → Dense(packed)` pairs so they exchange
/// int8 codes directly. Returns the number of links.
fn chain_int8(ops: &mut [(FusedOp, Vec<usize>)]) -> usize {
    let mut links = 0usize;
    for i in 1..ops.len() {
        let Some(format) = (match &ops[i].0 {
            FusedOp::Dense { unit } => unit.weight.act_format(),
            _ => None,
        }) else {
            continue;
        };
        // The emitted codes must fit the i8 activation buffer.
        if QuantKind::for_format(format).is_none() {
            continue;
        }
        if let FusedOp::Dense { unit: producer } = &mut ops[i - 1].0 {
            producer.emit_codes = Some(format);
            links += 1;
        } else {
            continue;
        }
        if let FusedOp::Dense { unit: consumer } = &mut ops[i].0 {
            consumer.consume_codes = true;
        }
    }
    links
}

/// Runs the pass pipeline over a lowered graph.
pub fn fuse(graph: Graph) -> FusedGraph {
    let Graph {
        input_shape,
        mut nodes,
        dropped_identity,
    } = graph;
    let mut stats = FusionStats {
        dropped_identity,
        ..FusionStats::default()
    };
    stats.elided_quantize = elide_quantize(&mut nodes);
    let mut ops = fuse_patterns(nodes, &mut stats);
    stats.int8_chain_links = chain_int8(&mut ops);
    FusedGraph {
        input_shape,
        ops,
        stats,
    }
}
