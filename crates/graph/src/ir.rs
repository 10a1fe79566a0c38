//! The typed computation-graph IR and the `Sequential` → graph lowering.
//!
//! A [`Graph`] is a straight-line chain of [`Node`]s (mirroring
//! [`Sequential`], which has no branching) with **per-sample** shapes
//! inferred for every node output. Shapes deliberately exclude the batch
//! dimension: the compiled plan scales every buffer linearly with the batch
//! at run time, so one compilation serves every batch size.
//!
//! Lowering copies weights out of the layers: dense f32 weights are
//! reshaped to the `[out, k]` GEMM layout, packed (frozen) weights share
//! their `Arc`'d blocks with the source model. Layers that are identities
//! in inference — `Dropout`, and `FakeQuant` with no installed format —
//! are dropped here and counted in [`Graph::dropped_identity`].

use advcomp_nn::{LayerSpec, QuantizedWeights, Sequential, WeightRepr};
use advcomp_qformat::QFormat;
use advcomp_tensor::Tensor;

use crate::{GraphError, Result};

/// Weights of a GEMM node in either representation.
#[derive(Debug, Clone)]
pub enum GemmWeight {
    /// f32 weights in `[out, k]` row-major GEMM layout (`k` is
    /// `in_features` for dense layers, the im2col patch length for
    /// convolutions).
    Dense(Tensor),
    /// Frozen block-quantised weights, shared with the source layer.
    Packed(QuantizedWeights),
}

impl GemmWeight {
    /// Output features (GEMM `n`).
    pub fn out_features(&self) -> usize {
        match self {
            GemmWeight::Dense(w) => w.shape()[0],
            GemmWeight::Packed(q) => q.tensor().rows(),
        }
    }

    /// Reduction length (GEMM `k`).
    pub fn in_features(&self) -> usize {
        match self {
            GemmWeight::Dense(w) => w.shape()[1],
            GemmWeight::Packed(q) => q.tensor().cols(),
        }
    }

    /// The activation format a packed weight quantises inputs with.
    pub fn act_format(&self) -> Option<QFormat> {
        match self {
            GemmWeight::Dense(_) => None,
            GemmWeight::Packed(q) => Some(q.act_format()),
        }
    }
}

/// One IR operation. Parameters are owned copies (cheap `Arc` clones for
/// packed weights), so a lowered graph is independent of the source model.
#[derive(Debug, Clone)]
pub enum Op {
    /// 2-D convolution over NCHW input, square kernel. `weight` is in
    /// `[oc, patch]` GEMM layout.
    Conv2d {
        /// GEMM-layout kernel weights.
        weight: GemmWeight,
        /// Per-output-channel bias.
        bias: Vec<f32>,
        /// Square kernel edge.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
    },
    /// Fully-connected `y = x Wᵀ + b`.
    Dense {
        /// `[out, in]` GEMM-layout weights.
        weight: GemmWeight,
        /// Bias, `[out]`.
        bias: Vec<f32>,
    },
    /// Elementwise `max(0, x)`.
    Relu,
    /// 2-D max pooling (square window, no padding).
    MaxPool2d {
        /// Window edge.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Collapse the per-sample shape to rank 1.
    Flatten,
    /// Simulated activation quantisation (`FakeQuant` with an installed
    /// format): elementwise `format.quantize(v)`.
    Quantize(QFormat),
}

impl Op {
    /// Short lowercase mnemonic for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Conv2d { .. } => "conv2d",
            Op::Dense { .. } => "dense",
            Op::Relu => "relu",
            Op::MaxPool2d { .. } => "maxpool2d",
            Op::Flatten => "flatten",
            Op::Quantize(_) => "quantize",
        }
    }
}

/// One graph node: an operation plus its inferred per-sample output shape.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Per-sample output shape (no batch dimension).
    pub out_shape: Vec<usize>,
}

/// A lowered straight-line computation graph.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Per-sample input shape the graph was lowered against.
    pub input_shape: Vec<usize>,
    /// Nodes in execution order; node `i` consumes node `i-1`'s output
    /// (node 0 consumes the graph input).
    pub nodes: Vec<Node>,
    /// Layers dropped at lowering because they are inference identities
    /// (`Dropout`, disabled `FakeQuant`).
    pub dropped_identity: usize,
}

/// Validates a per-sample shape: non-empty, no zero dims.
fn check_shape(shape: &[usize], what: &str) -> Result<()> {
    if shape.is_empty() || shape.contains(&0) {
        return Err(GraphError::Shape(format!(
            "{what} shape {shape:?} has a zero or missing dimension"
        )));
    }
    Ok(())
}

/// Infers the per-sample output shape of `op` applied to `in_shape`.
pub fn infer_shape(op: &Op, in_shape: &[usize]) -> Result<Vec<usize>> {
    match op {
        Op::Conv2d {
            weight,
            bias,
            kernel,
            stride,
            padding,
        } => {
            if in_shape.len() != 3 {
                return Err(GraphError::Shape(format!(
                    "conv2d expects a [c, h, w] per-sample input, got {in_shape:?}"
                )));
            }
            let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
            let patch = c * kernel * kernel;
            if weight.in_features() != patch {
                return Err(GraphError::Shape(format!(
                    "conv2d weight expects patch length {}, input gives {patch}",
                    weight.in_features()
                )));
            }
            let oc = weight.out_features();
            if bias.len() != oc {
                return Err(GraphError::Shape(format!(
                    "conv2d bias has {} entries for {oc} output channels",
                    bias.len()
                )));
            }
            if *stride == 0 || *kernel == 0 {
                return Err(GraphError::Shape(
                    "conv2d kernel and stride must be >= 1".into(),
                ));
            }
            let (ph, pw) = (h + 2 * padding, w + 2 * padding);
            if ph < *kernel || pw < *kernel {
                return Err(GraphError::Shape(format!(
                    "conv2d kernel {kernel} larger than padded input {ph}x{pw}"
                )));
            }
            Ok(vec![
                oc,
                (ph - kernel) / stride + 1,
                (pw - kernel) / stride + 1,
            ])
        }
        Op::Dense { weight, bias } => {
            if in_shape.len() != 1 {
                return Err(GraphError::Shape(format!(
                    "dense expects a flattened rank-1 per-sample input, got {in_shape:?}"
                )));
            }
            if weight.in_features() != in_shape[0] {
                return Err(GraphError::Shape(format!(
                    "dense weight expects {} input features, got {}",
                    weight.in_features(),
                    in_shape[0]
                )));
            }
            let out = weight.out_features();
            if bias.len() != out {
                return Err(GraphError::Shape(format!(
                    "dense bias has {} entries for {out} output features",
                    bias.len()
                )));
            }
            Ok(vec![out])
        }
        Op::Relu | Op::Quantize(_) => Ok(in_shape.to_vec()),
        Op::MaxPool2d { kernel, stride } => {
            if in_shape.len() != 3 {
                return Err(GraphError::Shape(format!(
                    "maxpool2d expects [c, h, w], got {in_shape:?}"
                )));
            }
            // Mirrors the layer's `output_hw` checks.
            let (c, h, w) = (in_shape[0], in_shape[1], in_shape[2]);
            if *stride == 0 || *kernel == 0 {
                return Err(GraphError::Shape(
                    "maxpool2d: kernel and stride must be >= 1".into(),
                ));
            }
            if h < *kernel || w < *kernel {
                return Err(GraphError::Shape(format!(
                    "maxpool2d: window {kernel} larger than input {h}x{w}"
                )));
            }
            Ok(vec![
                c,
                (h - kernel) / stride + 1,
                (w - kernel) / stride + 1,
            ])
        }
        Op::Flatten => Ok(vec![in_shape.iter().product()]),
    }
}

/// Converts a [`WeightRepr`] into an owned [`GemmWeight`] in `[out, k]`
/// layout. `gemm_rows` is `Some(oc)` for convolutions, whose dense weight
/// tensor arrives as `[oc, ic, kh, kw]` and must be reshaped.
fn lower_weight(repr: &WeightRepr<'_>, gemm_rows: Option<usize>) -> Result<GemmWeight> {
    match repr {
        WeightRepr::Dense(w) => {
            let t = match gemm_rows {
                Some(oc) => {
                    if w.is_empty() || w.len() % oc != 0 {
                        return Err(GraphError::Shape(format!(
                            "conv weight of {} elements not divisible into {oc} rows",
                            w.len()
                        )));
                    }
                    w.reshape(&[oc, w.len() / oc])?
                }
                None => {
                    if w.ndim() != 2 {
                        return Err(GraphError::Shape(format!(
                            "dense weight must be rank 2, got {:?}",
                            w.shape()
                        )));
                    }
                    (*w).clone()
                }
            };
            Ok(GemmWeight::Dense(t))
        }
        WeightRepr::Packed(q) => Ok(GemmWeight::Packed((*q).clone())),
    }
}

/// Lowers a [`Sequential`] into a [`Graph`], inferring per-sample shapes.
///
/// `input_shape` is the per-sample shape (e.g. `[1, 28, 28]` for MNIST —
/// no batch dimension). Inference identities (`Dropout`, `FakeQuant` with
/// no format) are dropped.
///
/// # Errors
///
/// [`GraphError::Unsupported`] for a model that lowers to no nodes,
/// [`GraphError::Shape`] when a layer cannot accept its inferred input
/// shape.
pub fn lower(model: &Sequential, input_shape: &[usize]) -> Result<Graph> {
    check_shape(input_shape, "input")?;
    let mut nodes = Vec::with_capacity(model.len());
    let mut dropped = 0usize;
    let mut cur = input_shape.to_vec();
    for layer in model.layers() {
        let op = match layer.spec() {
            LayerSpec::Conv2d {
                weight,
                bias,
                kernel,
                stride,
                padding,
            } => {
                let oc = bias.len();
                Op::Conv2d {
                    weight: lower_weight(&weight, Some(oc))?,
                    bias: bias.data().to_vec(),
                    kernel,
                    stride,
                    padding,
                }
            }
            LayerSpec::Dense { weight, bias } => Op::Dense {
                weight: lower_weight(&weight, None)?,
                bias: bias.data().to_vec(),
            },
            LayerSpec::Relu => Op::Relu,
            LayerSpec::MaxPool2d { kernel, stride } => Op::MaxPool2d { kernel, stride },
            LayerSpec::Flatten => Op::Flatten,
            LayerSpec::Dropout => {
                dropped += 1;
                continue;
            }
            LayerSpec::FakeQuant { format: None } => {
                dropped += 1;
                continue;
            }
            LayerSpec::FakeQuant {
                format: Some(format),
            } => Op::Quantize(format),
        };
        let out_shape = infer_shape(&op, &cur)?;
        check_shape(&out_shape, op.name())?;
        nodes.push(Node {
            op,
            out_shape: out_shape.clone(),
        });
        cur = out_shape;
    }
    if nodes.is_empty() {
        return Err(GraphError::Unsupported(
            "model lowers to an empty graph".into(),
        ));
    }
    Ok(Graph {
        input_shape: input_shape.to_vec(),
        nodes,
        dropped_identity: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{Conv2d, Dense, Dropout, FakeQuant, Flatten, MaxPool2d, Relu, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net() -> Sequential {
        let mut rng = StdRng::seed_from_u64(7);
        Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten::new()),
            Box::new(Dropout::new(0.5, 1)),
            Box::new(Dense::new(4 * 4 * 4, 3, &mut rng)),
        ])
    }

    #[test]
    fn lowers_with_shape_inference_and_identity_dropping() {
        let model = tiny_net();
        let g = lower(&model, &[1, 8, 8]).unwrap();
        assert_eq!(g.dropped_identity, 1);
        let shapes: Vec<_> = g.nodes.iter().map(|n| n.out_shape.clone()).collect();
        assert_eq!(
            shapes,
            vec![
                vec![4, 8, 8],
                vec![4, 8, 8],
                vec![4, 4, 4],
                vec![64],
                vec![3]
            ]
        );
    }

    #[test]
    fn disabled_fakequant_is_dropped_and_enabled_kept() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Sequential::new(vec![
            Box::new(FakeQuant::new()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ]);
        let g = lower(&model, &[4]).unwrap();
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.dropped_identity, 1);

        let mut fq = FakeQuant::new();
        advcomp_nn::Layer::set_activation_format(
            &mut fq,
            Some(advcomp_qformat::QFormat::new(3, 4).unwrap()),
        );
        let model = Sequential::new(vec![Box::new(fq), Box::new(Dense::new(4, 2, &mut rng))]);
        let g = lower(&model, &[4]).unwrap();
        assert_eq!(g.nodes.len(), 2);
        assert!(matches!(g.nodes[0].op, Op::Quantize(_)));
    }

    #[test]
    fn shape_errors_surface() {
        let model = tiny_net();
        // Wrong channel count for conv1.
        let err = lower(&model, &[2, 8, 8]).unwrap_err();
        assert!(matches!(err, GraphError::Shape(_)), "{err:?}");
    }
}
