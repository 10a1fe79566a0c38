//! The compiled forward executor: [`ExecPlan`].
//!
//! `compile` lowers a [`Sequential`] to the IR, runs the pass pipeline,
//! then walks the fused ops once to produce a flat program of executor
//! steps plus a statically planned activation arena
//! ([`crate::plan`]). Everything a forward pass needs is materialised at
//! compile time:
//!
//! * f32 `Dense` weights are transposed into GEMM layout **and**
//!   pre-packed into the panel format the dense microkernel consumes (the
//!   `Sequential` path re-packs per call);
//! * f32 conv kernels are transposed once into the `[c·kh·kw, oc]` layout
//!   of `tensor::conv2d_forward`, the forward `Conv2d` calls too, and each
//!   conv's implementation (`tensor::conv_impl`: the direct kernels or the
//!   lowering) is chosen once for the plan's backend;
//! * packed int8 weights are shared with the layer that owns them (one
//!   `Arc`, one byte per code at 4 and 8 bits alike, scaled by the weight
//!   format's resolution — checkpoint loading refuses any other stored
//!   scale);
//! * per-layer activation-quantisation buffers ([`QActivations`]), the
//!   one scratch of input codes from which packed convs gather their patch
//!   codes, and the one [`ConvScratch`] of the lowered f32 convs (patch
//!   matrix and GEMM rows) are owned by the plan and rewritten in place;
//! * every f32 intermediate lives at a fixed per-sample offset in one
//!   arena, scaled by the batch size at run time.
//!
//! The steady-state forward therefore performs **zero plan-owned heap
//! allocation**: the only growth happens when a larger batch than any
//! seen before arrives, and every such growth increments
//! [`ExecPlan::alloc_events`] so tests can assert the steady state. (The
//! direct conv kernels keep their zero-bordered input planes in
//! `advcomp-tensor`'s per-thread scratch, which grows once per thread and
//! serves the layer path as well.)
//!
//! Arithmetic parity: each step dispatches into the same
//! `advcomp-tensor` kernels the layers use (an f32 conv into the very
//! function `Conv2d` calls), preserving operand order, parallel-banding
//! thresholds and per-element epilogue order, so the compiled forward is
//! bit-identical to `Sequential::forward` on either backend. None of those
//! kernels lets one sample's values choose another's arithmetic (the f32
//! GEMM is one kernel, the packed dense one, on every batch), so row `i` of
//! a batch's logits is sample `i`'s batch-1 forward, bit for bit.

use std::time::Instant;

use advcomp_nn::{QuantizedWeights, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{
    conv2d_forward, conv_impl, fake_quantize_in_place, gemm_prepacked, max_pool2d, qmatmul,
    quantize_activations_into, quantize_patches_into, rows_to_nchw_slice, simd, Conv2dGeometry,
    ConvImpl, ConvScratch, KernelBackend, PackedGemmB, QActivations, Tensor, QK,
};

use crate::fuse::{fuse, FusedOp, FusionStats, GemmUnit};
use crate::ir::{lower, GemmWeight};
use crate::plan::{plan_arena, validate_no_alias, BufferLife, MemoryPlan};
use crate::{GraphError, Result};

/// Where a step reads its primary operand from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// The caller's input tensor.
    Input,
    /// An arena buffer.
    Buf(usize),
}

/// A GEMM weight in executor-ready form.
#[derive(Debug, Clone)]
enum PlannedGemm {
    /// f32 weights, `[k, n]`, pre-packed into the dense kernel's panels.
    F32(PackedGemmB),
    /// Packed int8 weights, shared with the owning layer.
    Packed { weights: QuantizedWeights },
}

/// Fused per-element epilogue of one GEMM: bias, optional ReLU, optional
/// i8 code emission for the next layer.
#[derive(Debug, Clone)]
struct EpilogueParams {
    bias: Vec<f32>,
    relu: bool,
    /// `(qbuf index, format)` — emit codes of the final value.
    emit: Option<(usize, QFormat)>,
}

/// One executor instruction. Indices refer to the plan's side tables.
#[derive(Debug, Clone)]
enum Step {
    /// Copy the caller input into an arena buffer (only when the first
    /// real op is in-place).
    CopyInput { dst: usize },
    /// f32 convolution, bias included: `tensor::conv2d_forward`, which
    /// `Conv2d` calls too, by `imp`. A lowering writes its patch matrix
    /// and GEMM rows into the plan's `ConvScratch`. A fused ReLU follows as
    /// an `EltRelu` step.
    Conv {
        src: Src,
        dst: usize,
        geom: Conv2dGeometry,
        imp: ConvImpl,
        /// The kernel in the `[c·kh·kw, oc]` layout.
        weight_t: Vec<f32>,
        bias: Vec<f32>,
    },
    /// f32 GEMM of a `Dense` layer: the kernel `Tensor::matmul` runs, on
    /// the weight panels packed at compile time.
    Gemm { src: Src, dst: usize, weight: usize },
    /// Quantise f32 activations into a plan-owned i8 buffer.
    QuantizeAct { src: Src, qbuf: usize, cols: usize },
    /// Quantise a packed conv's patch rows into a plan-owned i8 buffer
    /// straight from its NCHW input (`tensor::quantize_patches_into`: the
    /// codes `Im2col` + `QuantizeAct` would give, without the f32 patch
    /// matrix).
    QuantizePatches {
        src: Src,
        qbuf: usize,
        geom: Conv2dGeometry,
    },
    /// Int8 GEMM with fused dequantisation.
    QGemm {
        qbuf: usize,
        dst: usize,
        weight: usize,
    },
    /// In-place bias/ReLU epilogue over GEMM rows (`Dense` and packed
    /// convs).
    Epilogue { buf: usize, cols: usize, epi: usize },
    /// Permute a packed conv's GEMM rows (`[m, oc]`) back to NCHW.
    RowsToNchw {
        src: usize,
        dst: usize,
        oc: usize,
        oh: usize,
        ow: usize,
    },
    /// 2-D max pooling (`tensor::max_pool2d`, `MaxPool2d`'s window loop
    /// and its AVX2 2×2 stride-2 body).
    MaxPool {
        src: Src,
        dst: usize,
        c: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
    },
    /// In-place ReLU (`tensor::simd::relu_in_place`, the `Relu` layer's
    /// kernel).
    EltRelu { buf: usize },
    /// In-place simulated quantisation (`tensor::fake_quantize_in_place`).
    EltQuantize { buf: usize, format: QFormat },
}

/// Compile-time builder state.
#[derive(Default)]
struct Builder {
    steps: Vec<Step>,
    lives: Vec<BufferLife>,
    weights: Vec<PlannedGemm>,
    epilogues: Vec<EpilogueParams>,
    qbufs: Vec<QActivations>,
    /// Per-qbuf `(rows per sample, cols)` for pre-sizing.
    qbuf_dims: Vec<(usize, usize)>,
    /// Largest per-sample input a `QuantizePatches` step encodes.
    codes_per_sample: usize,
    /// Largest per-sample patch matrix and GEMM rows of a lowered f32
    /// conv.
    conv_scratch_per_sample: (usize, usize),
}

impl Builder {
    /// Registers a buffer of `size` per-sample elements defined by the
    /// *next* step to be pushed.
    fn buf(&mut self, size: usize) -> usize {
        let id = self.lives.len();
        let def = self.steps.len();
        self.lives.push(BufferLife {
            size,
            def,
            last_use: def,
        });
        id
    }

    /// Extends a buffer's lifetime to the next step to be pushed.
    fn touch(&mut self, src: Src) {
        if let Src::Buf(id) = src {
            self.lives[id].last_use = self.steps.len();
        }
    }

    /// Ensures `cur` is an arena buffer (copying the input when the first
    /// op wants to work in place).
    fn materialize(&mut self, cur: Src, size: usize) -> usize {
        match cur {
            Src::Buf(id) => id,
            Src::Input => {
                let dst = self.buf(size);
                self.steps.push(Step::CopyInput { dst });
                dst
            }
        }
    }

    /// Transposes and pre-packs an f32 `Dense` weight, `[out, k]`.
    fn push_f32_weight(&mut self, w: &Tensor) -> Result<usize> {
        let wt = w.t()?;
        let (k, n) = (wt.shape()[0], wt.shape()[1]);
        let packed = PackedGemmB::pack(wt.data(), k, n)?;
        self.weights.push(PlannedGemm::F32(packed));
        Ok(self.weights.len() - 1)
    }

    /// Installs packed weights, sharing the layer's blocks.
    fn push_packed_weight(&mut self, q: &QuantizedWeights) -> usize {
        self.weights
            .push(PlannedGemm::Packed { weights: q.clone() });
        self.weights.len() - 1
    }

    /// Allocates a plan-owned activation-quantisation buffer.
    fn qbuf(&mut self, format: QFormat, rows_ps: usize, cols: usize) -> Result<usize> {
        self.qbufs.push(QActivations::with_format(format)?);
        self.qbuf_dims.push((rows_ps, cols));
        Ok(self.qbufs.len() - 1)
    }

    /// Registers a GEMM epilogue.
    fn epilogue(&mut self, unit: &GemmUnit, emit: Option<(usize, QFormat)>) -> usize {
        self.epilogues.push(EpilogueParams {
            bias: unit.bias.clone(),
            relu: unit.relu,
            emit,
        });
        self.epilogues.len() - 1
    }
}

/// Disjoint `(src, dst)` slices of one arena. The planner guarantees the
/// ranges never alias; violating that is a compiler bug, not user error.
fn split_pair(
    arena: &mut [f32],
    src: std::ops::Range<usize>,
    dst: std::ops::Range<usize>,
) -> (&[f32], &mut [f32]) {
    if src.end <= dst.start {
        let (lo, hi) = arena.split_at_mut(dst.start);
        let dlen = dst.end - dst.start;
        (&lo[src], &mut hi[..dlen])
    } else if dst.end <= src.start {
        let (lo, hi) = arena.split_at_mut(src.start);
        let slen = src.end - src.start;
        (&hi[..slen], &mut lo[dst])
    } else {
        unreachable!("memory plan produced aliasing src/dst ranges")
    }
}

/// A compiled, statically memory-planned forward pass.
///
/// Built once per model (serve replicas compile per generation, attacks
/// per crafting run), then driven with [`ExecPlan::forward`] /
/// [`ExecPlan::forward_into`]. Training and backward stay on
/// [`Sequential`] — the plan has no parameter gradients, caches or
/// stochastic layers, which is exactly what lets it pre-plan memory.
///
/// Cloning copies the f32 weights and the arena and shares the immutable
/// int8 blocks, so each clone runs forwards independently (serve workers
/// clone one plan per model).
#[derive(Debug, Clone)]
pub struct ExecPlan {
    backend: KernelBackend,
    input_shape: Vec<usize>,
    /// The output's full shape, `[n, output_shape...]`: `forward_into`
    /// writes the batch size into slot 0, so publishing the output builds
    /// no shape.
    batch_output_shape: Vec<usize>,
    steps: Vec<Step>,
    weights: Vec<PlannedGemm>,
    epilogues: Vec<EpilogueParams>,
    qbufs: Vec<QActivations>,
    qbuf_dims: Vec<(usize, usize)>,
    /// High-water code length per qbuf, for allocation accounting.
    qbuf_hw: Vec<usize>,
    /// The input codes of the current `QuantizePatches` step.
    input_codes: Vec<i8>,
    /// Largest per-sample length `input_codes` takes, for pre-sizing.
    codes_per_sample: usize,
    /// The patch matrix and GEMM rows of the current lowered f32 conv.
    conv_scratch: ConvScratch,
    /// Largest per-sample lengths `conv_scratch` takes, for pre-sizing.
    conv_scratch_per_sample: (usize, usize),
    sizes: Vec<usize>,
    offsets: Vec<usize>,
    arena_elems: usize,
    unplanned_elems: usize,
    out_buf: usize,
    arena: Vec<f32>,
    alloc_events: u64,
    compile_us: u64,
    stats: FusionStats,
}

impl ExecPlan {
    /// Compiles `model` for per-sample `input_shape` (no batch dimension,
    /// e.g. `[1, 28, 28]`), using the process-wide kernel backend.
    ///
    /// # Errors
    ///
    /// [`GraphError::Unsupported`] when a layer has no lowering,
    /// [`GraphError::Shape`] when shapes are inconsistent.
    pub fn compile(model: &Sequential, input_shape: &[usize]) -> Result<ExecPlan> {
        ExecPlan::compile_with_backend(model, input_shape, simd::backend())
    }

    /// As [`ExecPlan::compile`] with an explicit kernel backend, for
    /// scalar-vs-SIMD comparisons inside one process.
    ///
    /// # Errors
    ///
    /// As [`ExecPlan::compile`].
    pub fn compile_with_backend(
        model: &Sequential,
        input_shape: &[usize],
        backend: KernelBackend,
    ) -> Result<ExecPlan> {
        let started = Instant::now();
        let graph = fuse(lower(model, input_shape)?);
        let stats = graph.stats;
        let mut b = Builder::default();
        let mut cur = Src::Input;
        let mut cur_shape = graph.input_shape.clone();
        let mut cur_codes: Option<usize> = None;
        for (op, out_shape) in &graph.ops {
            match op {
                FusedOp::Conv2d {
                    unit,
                    kernel,
                    stride,
                    padding,
                } => {
                    let geom = Conv2dGeometry {
                        in_channels: cur_shape[0],
                        in_h: cur_shape[1],
                        in_w: cur_shape[2],
                        kernel_h: *kernel,
                        kernel_w: *kernel,
                        stride: *stride,
                        padding: *padding,
                    };
                    let (oh, ow) = geom.output_hw()?;
                    let patch = geom.patch_len();
                    let rows_ps = oh * ow;
                    let oc = unit.weight.out_features();
                    match &unit.weight {
                        GemmWeight::Dense(w2d) => {
                            let imp = conv_impl(backend, &geom);
                            if imp == ConvImpl::Lowering {
                                let (cols, rows) = &mut b.conv_scratch_per_sample;
                                *cols = (*cols).max(rows_ps * patch);
                                *rows = (*rows).max(rows_ps * oc);
                            }
                            b.touch(cur);
                            let dst = b.buf(oc * oh * ow);
                            b.steps.push(Step::Conv {
                                src: cur,
                                dst,
                                geom,
                                imp,
                                weight_t: w2d.t()?.into_data(),
                                bias: unit.bias.clone(),
                            });
                            if unit.relu {
                                b.touch(Src::Buf(dst));
                                b.steps.push(Step::EltRelu { buf: dst });
                            }
                            cur = Src::Buf(dst);
                        }
                        GemmWeight::Packed(q) => {
                            let weight = b.push_packed_weight(q);
                            let qbuf = b.qbuf(q.act_format(), rows_ps, patch)?;
                            let in_len = geom.in_channels * geom.in_h * geom.in_w;
                            b.codes_per_sample = b.codes_per_sample.max(in_len);
                            b.touch(cur);
                            b.steps.push(Step::QuantizePatches {
                                src: cur,
                                qbuf,
                                geom,
                            });
                            let rows_buf = b.buf(rows_ps * oc);
                            b.steps.push(Step::QGemm {
                                qbuf,
                                dst: rows_buf,
                                weight,
                            });
                            let epi = b.epilogue(unit, None);
                            b.touch(Src::Buf(rows_buf));
                            b.steps.push(Step::Epilogue {
                                buf: rows_buf,
                                cols: oc,
                                epi,
                            });
                            b.touch(Src::Buf(rows_buf));
                            let nchw = b.buf(oc * oh * ow);
                            b.steps.push(Step::RowsToNchw {
                                src: rows_buf,
                                dst: nchw,
                                oc,
                                oh,
                                ow,
                            });
                            cur = Src::Buf(nchw);
                        }
                    }
                    cur_shape = out_shape.clone();
                    cur_codes = None;
                }
                FusedOp::Dense { unit } => {
                    let k = unit.weight.in_features();
                    let nf = unit.weight.out_features();
                    let dst;
                    match &unit.weight {
                        GemmWeight::Dense(w) => {
                            let weight = b.push_f32_weight(w)?;
                            b.touch(cur);
                            dst = b.buf(nf);
                            b.steps.push(Step::Gemm {
                                src: cur,
                                dst,
                                weight,
                            });
                        }
                        GemmWeight::Packed(q) => {
                            let weight = b.push_packed_weight(q);
                            let qbuf = if unit.consume_codes {
                                cur_codes.ok_or_else(|| {
                                    GraphError::Unsupported(
                                        "int8 chain consumer without emitted codes".into(),
                                    )
                                })?
                            } else {
                                let qbuf = b.qbuf(q.act_format(), 1, k)?;
                                b.touch(cur);
                                b.steps.push(Step::QuantizeAct {
                                    src: cur,
                                    qbuf,
                                    cols: k,
                                });
                                qbuf
                            };
                            dst = b.buf(nf);
                            b.steps.push(Step::QGemm { qbuf, dst, weight });
                        }
                    }
                    let emit = match unit.emit_codes {
                        Some(format) => Some((b.qbuf(format, 1, nf)?, format)),
                        None => None,
                    };
                    let epi = b.epilogue(unit, emit);
                    b.touch(Src::Buf(dst));
                    b.steps.push(Step::Epilogue {
                        buf: dst,
                        cols: nf,
                        epi,
                    });
                    cur = Src::Buf(dst);
                    cur_shape = out_shape.clone();
                    cur_codes = emit.map(|(q, _)| q);
                }
                FusedOp::Relu => {
                    let buf = b.materialize(cur, cur_shape.iter().product());
                    b.touch(Src::Buf(buf));
                    b.steps.push(Step::EltRelu { buf });
                    cur = Src::Buf(buf);
                    cur_codes = None;
                }
                FusedOp::Quantize(format) => {
                    let buf = b.materialize(cur, cur_shape.iter().product());
                    b.touch(Src::Buf(buf));
                    b.steps.push(Step::EltQuantize {
                        buf,
                        format: *format,
                    });
                    cur = Src::Buf(buf);
                    cur_codes = None;
                }
                FusedOp::MaxPool2d { kernel, stride } => {
                    let (c, h, w) = (cur_shape[0], cur_shape[1], cur_shape[2]);
                    let (oh, ow) = (out_shape[1], out_shape[2]);
                    b.touch(cur);
                    let dst = b.buf(c * oh * ow);
                    b.steps.push(Step::MaxPool {
                        src: cur,
                        dst,
                        c,
                        h,
                        w,
                        kernel: *kernel,
                        stride: *stride,
                    });
                    cur = Src::Buf(dst);
                    cur_shape = out_shape.clone();
                    cur_codes = None;
                }
                FusedOp::Flatten => {
                    // Pure reshape: no step, no data movement.
                    cur_shape = out_shape.clone();
                    cur_codes = None;
                }
            }
        }
        let out_buf = b.materialize(cur, cur_shape.iter().product());
        // The output must survive every step so nothing recycles it
        // before the caller copies it out.
        b.lives[out_buf].last_use = b.steps.len();
        let plan: MemoryPlan = plan_arena(&b.lives);
        validate_no_alias(&b.lives, &plan).map_err(GraphError::Shape)?;
        let qbuf_hw = vec![0usize; b.qbufs.len()];
        Ok(ExecPlan {
            backend,
            input_shape: graph.input_shape,
            batch_output_shape: std::iter::once(0).chain(cur_shape).collect(),
            steps: b.steps,
            weights: b.weights,
            epilogues: b.epilogues,
            qbufs: b.qbufs,
            qbuf_dims: b.qbuf_dims,
            qbuf_hw,
            input_codes: Vec::new(),
            codes_per_sample: b.codes_per_sample,
            conv_scratch: ConvScratch::default(),
            conv_scratch_per_sample: b.conv_scratch_per_sample,
            sizes: b.lives.iter().map(|l| l.size).collect(),
            offsets: plan.offsets,
            arena_elems: plan.arena_len,
            unplanned_elems: plan.total_len,
            out_buf,
            arena: Vec::new(),
            alloc_events: 0,
            compile_us: started.elapsed().as_micros() as u64,
            stats,
        })
    }

    /// Runs the compiled forward, writing logits into `out` (reusing its
    /// allocation when large enough). `input` is `[n, input_shape...]`.
    ///
    /// # Errors
    ///
    /// [`GraphError::Shape`] on a batch-shape mismatch, or a tensor error
    /// from a kernel.
    pub fn forward_into(&mut self, input: &Tensor, out: &mut Tensor) -> Result<()> {
        let shape = input.shape();
        if shape.len() != self.input_shape.len() + 1
            || shape[1..] != self.input_shape[..]
            || shape[0] == 0
        {
            return Err(GraphError::Shape(format!(
                "plan compiled for [n{}] inputs, fed {shape:?}",
                self.input_shape
                    .iter()
                    .map(|d| format!(", {d}"))
                    .collect::<String>()
            )));
        }
        let n = shape[0];
        let need = self.arena_elems * n;
        if need > self.arena.len() {
            self.arena.resize(need, 0.0);
            self.alloc_events += 1;
        }
        let input_data = input.data();
        let ExecPlan {
            backend,
            steps,
            weights,
            epilogues,
            qbufs,
            qbuf_hw,
            input_codes,
            conv_scratch,
            sizes,
            offsets,
            arena,
            alloc_events,
            ..
        } = self;
        let backend = *backend;
        let rng = |id: usize| offsets[id] * n..offsets[id] * n + sizes[id] * n;
        for step in steps.iter() {
            match step {
                Step::CopyInput { dst } => {
                    arena[rng(*dst)].copy_from_slice(input_data);
                }
                Step::Conv {
                    src,
                    dst,
                    geom,
                    imp,
                    weight_t,
                    bias,
                } => {
                    let (sl, dl): (&[f32], &mut [f32]) = match src {
                        Src::Input => (input_data, &mut arena[rng(*dst)]),
                        Src::Buf(s) => split_pair(arena, rng(*s), rng(*dst)),
                    };
                    let cap = conv_scratch.capacity();
                    conv2d_forward(backend, sl, n, weight_t, bias, geom, *imp, conv_scratch, dl)?;
                    if conv_scratch.capacity() > cap {
                        *alloc_events += 1;
                    }
                }
                Step::Gemm { src, dst, weight } => {
                    let PlannedGemm::F32(packed) = &weights[*weight] else {
                        unreachable!("f32 GEMM bound to packed weights");
                    };
                    let (sl, dl): (&[f32], &mut [f32]) = match src {
                        Src::Input => (input_data, &mut arena[rng(*dst)]),
                        Src::Buf(s) => split_pair(arena, rng(*s), rng(*dst)),
                    };
                    gemm_prepacked(backend, sl, sl.len() / packed.k(), packed, dl)?;
                }
                Step::QuantizeAct { src, qbuf, cols } => {
                    let sl: &[f32] = match src {
                        Src::Input => input_data,
                        Src::Buf(s) => &arena[rng(*s)],
                    };
                    let rows = sl.len() / cols;
                    let q = &mut qbufs[*qbuf];
                    let format = q.format();
                    quantize_activations_into(backend, sl, rows, *cols, format, q)?;
                    let len = q.codes().len();
                    if len > qbuf_hw[*qbuf] {
                        qbuf_hw[*qbuf] = len;
                        *alloc_events += 1;
                    }
                }
                Step::QuantizePatches { src, qbuf, geom } => {
                    let sl: &[f32] = match src {
                        Src::Input => input_data,
                        Src::Buf(s) => &arena[rng(*s)],
                    };
                    let (q, cap) = (&mut qbufs[*qbuf], input_codes.capacity());
                    quantize_patches_into(backend, sl, n, geom, input_codes, q)?;
                    let len = q.codes().len();
                    if len > qbuf_hw[*qbuf] {
                        qbuf_hw[*qbuf] = len;
                        *alloc_events += 1;
                    }
                    if input_codes.capacity() > cap {
                        *alloc_events += 1;
                    }
                }
                Step::QGemm { qbuf, dst, weight } => {
                    let PlannedGemm::Packed { weights: qw } = &weights[*weight] else {
                        unreachable!("int8 GEMM bound to f32 weights");
                    };
                    qmatmul(backend, &qbufs[*qbuf], qw.tensor(), &mut arena[rng(*dst)])?;
                }
                Step::Epilogue { buf, cols, epi } => {
                    let params = &epilogues[*epi];
                    let dst = &mut arena[rng(*buf)];
                    let rows = dst.len() / cols;
                    let mut emit: Option<(&mut [i8], QFormat, usize)> = None;
                    if let Some((qb, format)) = params.emit {
                        let q = &mut qbufs[qb];
                        q.reset(rows, *cols);
                        let len = q.codes().len();
                        if len > qbuf_hw[qb] {
                            qbuf_hw[qb] = len;
                            *alloc_events += 1;
                        }
                        emit = Some((q.codes_mut(), format, cols.div_ceil(QK) * QK));
                    }
                    for row in 0..rows {
                        let out_row = &mut dst[row * cols..(row + 1) * cols];
                        for (j, v) in out_row.iter_mut().enumerate() {
                            let mut y = *v + params.bias[j];
                            if params.relu {
                                y = y.max(0.0);
                            }
                            *v = y;
                            if let Some((codes, format, row_stride)) = &mut emit {
                                codes[row * *row_stride + j] = format.encode(y) as i8;
                            }
                        }
                    }
                }
                Step::RowsToNchw {
                    src,
                    dst,
                    oc,
                    oh,
                    ow,
                } => {
                    let (sl, dl) = split_pair(arena, rng(*src), rng(*dst));
                    rows_to_nchw_slice(sl, n, *oc, *oh, *ow, dl)?;
                }
                Step::MaxPool {
                    src,
                    dst,
                    c,
                    h,
                    w,
                    kernel,
                    stride,
                } => {
                    let (sl, dl): (&[f32], &mut [f32]) = match src {
                        Src::Input => (input_data, &mut arena[rng(*dst)]),
                        Src::Buf(s) => split_pair(arena, rng(*s), rng(*dst)),
                    };
                    max_pool2d(backend, sl, [n, *c, *h, *w], *kernel, *stride, dl, None)?;
                }
                Step::EltRelu { buf } => {
                    // The `Relu` layer's kernel, without its backward mask.
                    simd::relu_in_place(backend, &mut arena[rng(*buf)], None);
                }
                Step::EltQuantize { buf, format } => {
                    // `FakeQuant`'s kernel, so the same bits on either backend.
                    fake_quantize_in_place(backend, *format, &mut arena[rng(*buf)], None)?;
                }
            }
        }
        self.batch_output_shape[0] = n;
        let out_range = self.offsets[self.out_buf] * n
            ..self.offsets[self.out_buf] * n + self.sizes[self.out_buf] * n;
        out.assign_from(&self.batch_output_shape, &self.arena[out_range])?;
        Ok(())
    }

    /// Runs the compiled forward, allocating a fresh output tensor.
    ///
    /// # Errors
    ///
    /// As [`ExecPlan::forward_into`].
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Pre-sizes the arena, the quantisation buffers and the conv lowering
    /// scratch for batches up to `n`, so the first real forward is already
    /// allocation-free. Growth here is deliberate and not counted in
    /// [`ExecPlan::alloc_events`].
    pub fn reserve_batch(&mut self, n: usize) {
        let need = self.arena_elems * n;
        if need > self.arena.len() {
            self.arena.resize(need, 0.0);
        }
        for (i, q) in self.qbufs.iter_mut().enumerate() {
            let (rows_ps, cols) = self.qbuf_dims[i];
            let rows = rows_ps * n;
            q.reset(rows, cols);
            self.qbuf_hw[i] = self.qbuf_hw[i].max(q.codes().len());
        }
        let codes = self.codes_per_sample * n;
        if codes > self.input_codes.len() {
            self.input_codes.resize(codes, 0);
        }
        let (cols, rows) = self.conv_scratch_per_sample;
        self.conv_scratch.reserve(cols * n, rows * n);
    }

    /// Per-sample input shape the plan was compiled for.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Per-sample output shape.
    pub fn output_shape(&self) -> &[usize] {
        &self.batch_output_shape[1..]
    }

    /// The kernel backend every step dispatches with.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// Number of executor steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// What the pass pipeline fused and elided.
    pub fn stats(&self) -> &FusionStats {
        &self.stats
    }

    /// Arena size in per-sample f32 elements (the planner's peak).
    pub fn arena_elems_per_sample(&self) -> usize {
        self.arena_elems
    }

    /// Sum of all intermediate sizes in per-sample elements — what
    /// per-layer allocation would cost. The ratio against
    /// [`ExecPlan::arena_elems_per_sample`] is the planner's win.
    pub fn unplanned_elems_per_sample(&self) -> usize {
        self.unplanned_elems
    }

    /// Bytes held by plan-owned buffers at their high-water mark: the f32
    /// arena, the i8 activation-code buffers, the input codes packed convs
    /// gather from, and the lowered f32 convs' patch matrix and GEMM rows.
    pub fn arena_peak_bytes(&self) -> usize {
        let f32_elems = self.arena.len() + self.conv_scratch.capacity();
        f32_elems * std::mem::size_of::<f32>()
            + self.qbuf_hw.iter().sum::<usize>()
            + self.input_codes.capacity()
    }

    /// Wall-clock microseconds the compilation took.
    pub fn compile_us(&self) -> u64 {
        self.compile_us
    }

    /// How many times a plan-owned buffer grew during forwards. Stays
    /// flat across same-batch steady-state calls — the zero-allocation
    /// assertion hook used by the parity suite and benches.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{Conv2d, Dense, Flatten, MaxPool2d, Mode, Relu, Sequential};
    use advcomp_tensor::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 4 * 4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ])
    }

    fn batch(seed: u64, n: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[n, 1, 8, 8], &mut rng)
    }

    #[test]
    fn compiled_forward_matches_sequential_bitwise() {
        let mut model = tiny_net(11);
        let mut plan = ExecPlan::compile(&model, &[1, 8, 8]).unwrap();
        for n in [1usize, 3, 8] {
            let x = batch(100 + n as u64, n);
            let want = model.forward(&x, Mode::Eval).unwrap();
            let got = plan.forward(&x).unwrap();
            assert_eq!(want.shape(), got.shape());
            assert_eq!(want.data(), got.data(), "batch {n} diverged");
        }
    }

    /// Both backends: on the scalar one the conv lowers through the plan's
    /// scratch, on AVX2 it runs the direct kernels.
    const BACKENDS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Simd];

    #[test]
    fn steady_state_forward_is_allocation_free() {
        let model = tiny_net(5);
        for backend in BACKENDS {
            let mut plan = ExecPlan::compile_with_backend(&model, &[1, 8, 8], backend).unwrap();
            let x = batch(7, 4);
            let mut out = Tensor::zeros(&[0]);
            plan.forward_into(&x, &mut out).unwrap();
            let warm = plan.alloc_events();
            assert!(warm > 0, "{backend:?}: the first forward grew nothing");
            for _ in 0..5 {
                plan.forward_into(&x, &mut out).unwrap();
            }
            assert_eq!(
                plan.alloc_events(),
                warm,
                "{backend:?}: steady state allocated"
            );
            // A smaller batch must not allocate either.
            let small = batch(8, 2);
            plan.forward_into(&small, &mut out).unwrap();
            assert_eq!(plan.alloc_events(), warm, "{backend:?}");
        }
    }

    #[test]
    fn reserve_batch_makes_first_forward_allocation_free() {
        let model = tiny_net(5);
        for backend in BACKENDS {
            let mut plan = ExecPlan::compile_with_backend(&model, &[1, 8, 8], backend).unwrap();
            plan.reserve_batch(4);
            let x = batch(9, 4);
            let mut out = Tensor::zeros(&[0]);
            plan.forward_into(&x, &mut out).unwrap();
            assert_eq!(plan.alloc_events(), 0, "{backend:?}");
        }
    }

    #[test]
    fn arena_peak_bytes_counts_every_plan_owned_buffer() {
        // q8-frozen: per sample a 512-element arena (conv1's GEMM rows and
        // their NCHW copy, 256 each), conv1's 64 patch rows of one 32-code
        // block, the 64 input values it encodes before gathering them,
        // fc1's 64 input codes, and the 8 codes fc1 emits for fc2, padded
        // to one block: 2048 + 2048 + 64 + 64 + 32 bytes.
        let mut model = tiny_net(5);
        let fmt = QFormat::for_bitwidth(8).unwrap();
        model.freeze_quantized(fmt, fmt).unwrap();
        let mut plan = ExecPlan::compile(&model, &[1, 8, 8]).unwrap();
        assert_eq!(plan.arena_elems_per_sample(), 512);
        plan.reserve_batch(8);
        assert_eq!(plan.arena_peak_bytes(), 8 * 4256);
        // A smaller batch leaves the high-water mark where it was.
        plan.forward(&batch(3, 2)).unwrap();
        assert_eq!(plan.arena_peak_bytes(), 8 * 4256);
        // f32 on the scalar backend, where the conv lowers: per sample a
        // 320-element arena (the conv output, then the pooled copy) and
        // the conv's 64 × 9 patch matrix and 64 × 4 GEMM rows.
        let model = tiny_net(5);
        let mut plan =
            ExecPlan::compile_with_backend(&model, &[1, 8, 8], KernelBackend::Scalar).unwrap();
        assert_eq!(plan.arena_elems_per_sample(), 320);
        plan.reserve_batch(8);
        assert_eq!(plan.arena_peak_bytes(), 8 * 4 * (320 + 64 * 9 + 64 * 4));
    }

    #[test]
    fn arena_is_smaller_than_per_layer_allocation() {
        let model = tiny_net(5);
        let plan = ExecPlan::compile(&model, &[1, 8, 8]).unwrap();
        assert!(plan.arena_elems_per_sample() < plan.unplanned_elems_per_sample());
    }

    #[test]
    fn packed_plans_share_the_layer_blocks_at_both_bitwidths() {
        for bits in [4, 8] {
            let mut model = tiny_net(5);
            let fmt = QFormat::for_bitwidth(bits).unwrap();
            assert_eq!(model.freeze_quantized(fmt, fmt).unwrap(), 3);
            let handles = |m: &Sequential| -> Vec<usize> {
                m.export_quantized()
                    .iter()
                    .map(|(_, q)| q.shared_count())
                    .collect()
            };
            let shared: Vec<usize> = handles(&model).iter().map(|c| c + 1).collect();
            let _plan = ExecPlan::compile(&model, &[1, 8, 8]).unwrap();
            assert_eq!(handles(&model), shared, "{bits}-bit plan copied its blocks");
        }
    }

    #[test]
    fn batch_shape_mismatch_is_rejected() {
        let model = tiny_net(5);
        let mut plan = ExecPlan::compile(&model, &[1, 8, 8]).unwrap();
        let bad = Tensor::zeros(&[2, 1, 9, 9]);
        assert!(plan.forward(&bad).is_err());
    }
}
