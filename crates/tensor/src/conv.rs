//! 2-D convolution: the `im2col`/`col2im` lowering and the direct
//! stride-1 kernels.
//!
//! **The lowering** turns a convolution into matrix multiplication: an
//! NCHW input batch is unrolled into a `[n·oh·ow, c·kh·kw]` patch matrix
//! ([`im2col`]), multiplied against the `[c·kh·kw, oc]` reshaped kernel,
//! and the backward pass folds patch gradients back with [`col2im`]. This
//! is the standard GEMM formulation used by most CPU deep-learning
//! runtimes; it runs every geometry on both backends.
//!
//! **The direct kernels** ([`ConvImpl::Direct`], AVX2 backend, stride 1,
//! padding below the kernel) compute the same numbers without building the
//! patch matrix: the forward chains each output over its taps and writes
//! NCHW, the input gradient gathers each input pixel's terms from the
//! output gradient, and the weight gradient chains each weight over the
//! batch's output positions, so neither `im2col`, `col2im` nor the row ↔
//! NCHW transposes run. They are bit-identical to the SIMD lowering: each
//! element keeps its GEMM kernel's arithmetic (dense FMA chain or zero-skip
//! mul-then-add) in the same order, and the batch's kernel is chosen by
//! sampling the never-built GEMM operand at exactly the positions
//! [`crate::probe_matmul_kernel`] would. [`conv_impl`] is the one rule
//! that sends a pass to them; [`conv2d_forward`], [`conv2d_input_grad`]
//! and [`conv2d_weight_grad`] run either implementation.
//!
//! [`conv2d_forward`] is the one f32 convolution forward: `Conv2d` and the
//! graph executor's f32 conv steps both call it, on slices, and it runs
//! whichever implementation the caller's [`conv_impl`] picked.
//!
//! Every transform here but the weight gradient touches each batch sample
//! independently, and each sample occupies a contiguous region of the
//! output buffer, so they parallelise over the batch on the persistent
//! worker pool ([`crate::pool`]). A weight's gradient sums over the whole
//! batch in order, so the direct weight gradient splits its chains, not
//! its samples, across threads. The direct kernels keep their
//! zero-bordered planes in per-thread scratch. A lowered forward writes its
//! patch matrix and GEMM rows into caller-owned [`ConvScratch`], so a layer
//! or plan that lowers allocates them once rather than once per step.
//!
//! [`max_pool2d`] is the one max-pooling window loop, shared by the layer
//! and the graph executor.

use crate::ops::{probe_kernel_by, probe_step};
use crate::simd::{self, DirectConv, WgradTiling, WGRAD_GROUP};
use crate::{pool, KernelBackend, MatmulKernel, QActivations, Result, Tensor, TensorError};
use std::cell::RefCell;

/// Static geometry of a 2-D convolution or pooling window over NCHW input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding applied to all four edges.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a square-kernel geometry.
    pub fn square(
        in_channels: usize,
        in_hw: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dGeometry {
            in_channels,
            in_h: in_hw,
            in_w: in_hw,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Validates the geometry and returns `(out_h, out_w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when stride is zero, a kernel
    /// dimension is zero, or the padded input is smaller than the kernel.
    pub fn output_hw(&self) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry("stride must be >= 1".into()));
        }
        if self.kernel_h == 0 || self.kernel_w == 0 || self.in_channels == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel dims and channels must be >= 1".into(),
            ));
        }
        let padded_h = self.in_h + 2 * self.padding;
        let padded_w = self.in_w + 2 * self.padding;
        if padded_h < self.kernel_h || padded_w < self.kernel_w {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kernel_h, self.kernel_w, padded_h, padded_w
            )));
        }
        Ok((
            (padded_h - self.kernel_h) / self.stride + 1,
            (padded_w - self.kernel_w) / self.stride + 1,
        ))
    }

    /// Number of elements in one unrolled patch: `c · kh · kw`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

/// The kernel columns `kx_lo..kx_hi` of a patch whose left edge sits at
/// image column `ix0` (negative inside the left padding) that land inside
/// an image `w` columns wide; an empty range when none does. When it is
/// not empty, `ix0 + kx_lo >= 0` and `ix0 + kx_hi <= w`.
fn inside_columns(ix0: isize, kernel_w: usize, w: usize) -> (usize, usize) {
    let lo = (-ix0).clamp(0, kernel_w as isize);
    let hi = (w as isize - ix0).clamp(lo, kernel_w as isize);
    (lo as usize, hi as usize)
}

/// Checks that `input` is an NCHW batch matching `geom`; returns its size.
fn check_input(input: &Tensor, geom: &Conv2dGeometry, op: &'static str) -> Result<usize> {
    if input.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.ndim(),
            op,
        });
    }
    let s = input.shape();
    if s[1] != geom.in_channels || s[2] != geom.in_h || s[3] != geom.in_w {
        return Err(TensorError::ShapeMismatch {
            lhs: s.to_vec(),
            rhs: vec![s[0], geom.in_channels, geom.in_h, geom.in_w],
            op,
        });
    }
    Ok(s[0])
}

/// Fills the patch rows of one batch sample. `chunk` is that sample's
/// contiguous slice of the column matrix (`oh·ow` rows `row_stride ≥
/// patch` apart), already zeroed. The values are f32 activations or their
/// i8 codes.
fn im2col_sample<T: Copy>(
    input: &[T],
    chunk: &mut [T],
    row_stride: usize,
    b: usize,
    geom: &Conv2dGeometry,
    oh: usize,
    ow: usize,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let pad = geom.padding as isize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride) as isize - pad;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride) as isize - pad;
            let (kx_lo, kx_hi) = inside_columns(ix0, geom.kernel_w, w);
            if kx_lo == kx_hi {
                continue; // the whole patch lies in the padding: stays zero
            }
            let row = (oy * ow + ox) * row_stride;
            for ch in 0..c {
                let ch_base = (b * c + ch) * h * w;
                for ky in 0..geom.kernel_h {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // padding row: stays zero
                    }
                    let dst = row + (ch * geom.kernel_h + ky) * geom.kernel_w;
                    let src = (ch_base + iy as usize * w) as isize + ix0;
                    let src =
                        &input[(src + kx_lo as isize) as usize..(src + kx_hi as isize) as usize];
                    chunk[dst + kx_lo..dst + kx_hi].copy_from_slice(src);
                }
            }
        }
    }
}

/// Unrolls an NCHW batch into a patch matrix of shape `[n·oh·ow, c·kh·kw]`.
///
/// Row `(b, oy, ox)` contains the receptive field of output pixel `(oy, ox)`
/// in sample `b`, channels-major then kernel-row-major. Out-of-bounds
/// (padding) positions read as zero. Samples are unrolled in parallel on the
/// worker pool.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `input` is 4-D, a
/// [`TensorError::ShapeMismatch`] when channel/height/width disagree with
/// `geom`, or geometry errors from [`Conv2dGeometry::output_hw`].
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Tensor::default();
    im2col_into(input, geom, &mut out)?;
    Ok(out)
}

/// [`im2col`] into a caller-owned scratch tensor.
///
/// `out` is reshaped to `[n·oh·ow, c·kh·kw]`, reusing its allocation when
/// the element count already matches — convolution layers call this every
/// forward pass with a persistent buffer, eliminating the per-step
/// allocation of the largest intermediate in the network.
///
/// # Errors
///
/// Same conditions as [`im2col`]; on error `out` is left untouched.
pub fn im2col_into(input: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    let n = check_input(input, geom, "im2col")?;
    let (oh, ow) = geom.output_hw()?;
    out.reset_scratch(&[n * oh * ow, geom.patch_len()]);
    im2col_slice(input.data(), geom, (oh, ow), out.data_mut());
    Ok(())
}

/// [`im2col`] over raw slices: fills `out`, the `n·oh·ow × c·kh·kw` patch
/// matrix of the `n` NCHW samples in `input`, one sample per pool task. The
/// callers, [`im2col_into`] and the lowered [`conv2d_forward`], have sized
/// both slices to `geom`.
fn im2col_slice(input: &[f32], geom: &Conv2dGeometry, (oh, ow): (usize, usize), out: &mut [f32]) {
    let patch = geom.patch_len();
    pool::for_each_chunk(out, oh * ow * patch, |b, chunk| {
        chunk.fill(0.0);
        im2col_sample(input, chunk, patch, b, geom, oh, ow);
    });
}

/// [`quantize_activations_into`](crate::quantize_activations_into) of
/// the patch matrix [`im2col`] would build from `input` (`n` NCHW
/// samples matching `geom`), without building it: every input value is
/// encoded once into `input_codes` (resized to `input.len()`), and the
/// patch rows gather codes. A code depends on its value alone and a zero
/// (the padding) encodes to code 0, so the codes, and `out`, equal those of
/// quantising the patch matrix, bit for bit on either backend. `out` keeps
/// its bound format; `input_codes` grows only when a larger input comes.
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] when `input` disagrees with the
/// geometry, or geometry errors from [`Conv2dGeometry::output_hw`].
pub fn quantize_patches_into(
    backend: KernelBackend,
    input: &[f32],
    n: usize,
    geom: &Conv2dGeometry,
    input_codes: &mut Vec<i8>,
    out: &mut QActivations,
) -> Result<()> {
    let (oh, ow) = geom.output_hw()?;
    let in_len = n * geom.in_channels * geom.in_h * geom.in_w;
    if input.len() != in_len {
        return Err(TensorError::LengthMismatch {
            expected: in_len,
            actual: input.len(),
        });
    }
    input_codes.resize(in_len, 0);
    crate::quant::encode_row(backend, input, out.format(), input_codes);
    out.reset(n * oh * ow, geom.patch_len());
    let row_stride = out.blocks_per_row() * crate::QK;
    let codes: &[i8] = input_codes;
    pool::for_each_chunk(out.codes_mut(), oh * ow * row_stride, |b, chunk| {
        im2col_sample(codes, chunk, row_stride, b, geom, oh, ow);
    });
    Ok(())
}

/// Accumulates the patch gradients of one batch sample. `chunk` is that
/// sample's contiguous `c·h·w` slice of the input gradient.
fn col2im_sample(
    cols: &[f32],
    chunk: &mut [f32],
    b: usize,
    geom: &Conv2dGeometry,
    oh: usize,
    ow: usize,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let patch = geom.patch_len();
    let pad = geom.padding as isize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride) as isize - pad;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride) as isize - pad;
            let (kx_lo, kx_hi) = inside_columns(ix0, geom.kernel_w, w);
            if kx_lo == kx_hi {
                continue; // the whole patch lies in the padding
            }
            let row = ((b * oh + oy) * ow + ox) * patch;
            for ch in 0..c {
                let ch_base = ch * h * w;
                for ky in 0..geom.kernel_h {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst = (ch_base + iy as usize * w) as isize + ix0;
                    let src = row + (ch * geom.kernel_h + ky) * geom.kernel_w;
                    // Each kernel column adds into its own pixel, so every
                    // pixel still takes its terms in patch order.
                    let dst = &mut chunk
                        [(dst + kx_lo as isize) as usize..(dst + kx_hi as isize) as usize];
                    for (d, &v) in dst.iter_mut().zip(&cols[src + kx_lo..src + kx_hi]) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Folds a patch-matrix gradient back into an NCHW input gradient —
/// the adjoint of [`im2col`]. Overlapping patches accumulate. Samples are
/// folded in parallel on the worker pool (patches never cross samples, so
/// the per-sample accumulations are independent).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have shape
/// `[n·oh·ow, c·kh·kw]` for the given geometry and batch size.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry, batch: usize) -> Result<Tensor> {
    let (oh, ow) = geom.output_hw()?;
    let patch = geom.patch_len();
    if cols.shape() != [batch * oh * ow, patch] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.shape().to_vec(),
            rhs: vec![batch * oh * ow, patch],
            op: "col2im",
        });
    }
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let mut out = Tensor::zeros(&[batch, c, h, w]);
    let data = cols.data();
    pool::for_each_chunk(out.data_mut(), c * h * w, |b, chunk| {
        col2im_sample(data, chunk, b, geom, oh, ow);
    });
    Ok(out)
}

/// Reorders a `[n·oh·ow, oc]` GEMM output into NCHW `[n, oc, oh, ow]`,
/// one batch sample per pool task.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `rows` has shape
/// `[n·oh·ow, oc]`.
pub fn rows_to_nchw(rows: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Result<Tensor> {
    if rows.shape() != [n * oh * ow, oc] {
        return Err(TensorError::ShapeMismatch {
            lhs: rows.shape().to_vec(),
            rhs: vec![n * oh * ow, oc],
            op: "rows_to_nchw",
        });
    }
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    rows_to_nchw_slice(rows.data(), n, oc, oh, ow, out.data_mut())?;
    Ok(out)
}

/// [`rows_to_nchw`] over raw slices: reorders `n·oh·ow × oc` GEMM rows
/// into an NCHW `n × oc × oh × ow` destination, fully overwritten, one
/// batch sample per pool task.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when either slice disagrees
/// with `n·oc·oh·ow`.
pub fn rows_to_nchw_slice(
    rows: &[f32],
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) -> Result<()> {
    let len = n * oc * oh * ow;
    if rows.len() != len {
        return Err(TensorError::LengthMismatch {
            expected: len,
            actual: rows.len(),
        });
    }
    if out.len() != len {
        return Err(TensorError::LengthMismatch {
            expected: len,
            actual: out.len(),
        });
    }
    pool::for_each_chunk(out, oc * oh * ow, |b, chunk| {
        for y in 0..oh {
            for x in 0..ow {
                let row = ((b * oh + y) * ow + x) * oc;
                for o in 0..oc {
                    chunk[(o * oh + y) * ow + x] = rows[row + o];
                }
            }
        }
    });
    Ok(())
}

/// Inverse of [`rows_to_nchw`]: NCHW tensor back to GEMM row layout,
/// one batch sample per pool task.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `t` has shape
/// `[n, oc, oh, ow]`.
pub fn nchw_to_rows(t: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Result<Tensor> {
    if t.shape() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: t.shape().to_vec(),
            rhs: vec![n, oc, oh, ow],
            op: "nchw_to_rows",
        });
    }
    let mut out = Tensor::zeros(&[n * oh * ow, oc]);
    let src = t.data();
    pool::for_each_chunk(out.data_mut(), oh * ow * oc, |b, chunk| {
        for o in 0..oc {
            for y in 0..oh {
                for x in 0..ow {
                    chunk[(y * ow + x) * oc + o] = src[((b * oc + o) * oh + y) * ow + x];
                }
            }
        }
    });
    Ok(out)
}

/// 2-D max pooling of the NCHW batch `input` (`[n, c, h, w]` = `dims`) with
/// a square `kernel` window, `stride` and no padding into `out` (`n × c ×
/// oh × ow`, `oh = (h − kernel) / stride + 1`), fully overwritten. Where
/// `argmax` is given it receives, per output, the flat `input` index of
/// the value chosen — what the layer's backward routes gradients to.
///
/// Each window is scanned row by row from its first element with a strict
/// `>`: the first maximum wins, and a NaN never replaces the running
/// maximum (a window starting with NaN yields NaN). `MaxPool2d` and the
/// graph executor's pooling step both run this loop.
///
/// # Errors
///
/// [`TensorError::InvalidGeometry`] when `kernel` or `stride` is zero or
/// the window is larger than the input, and
/// [`TensorError::LengthMismatch`] when a slice disagrees with the shape.
pub fn max_pool2d(
    input: &[f32],
    dims: [usize; 4],
    kernel: usize,
    stride: usize,
    out: &mut [f32],
    mut argmax: Option<&mut [usize]>,
) -> Result<()> {
    let [n, c, h, w] = dims;
    if kernel == 0 || stride == 0 || h < kernel || w < kernel {
        return Err(TensorError::InvalidGeometry(format!(
            "pool window {kernel} (stride {stride}) does not fit input {h}x{w}"
        )));
    }
    let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let lens = [
        (input.len(), n * c * h * w),
        (out.len(), n * c * oh * ow),
        (argmax.as_ref().map_or(out.len(), |a| a.len()), out.len()),
    ];
    if let Some(&(actual, expected)) = lens.iter().find(|(a, e)| a != e) {
        return Err(TensorError::LengthMismatch { expected, actual });
    }
    for b in 0..n {
        for ch in 0..c {
            let plane = (b * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = plane + oy * stride * w + ox * stride;
                    let mut best = input[best_idx];
                    for ky in 0..kernel {
                        let row = plane + (oy * stride + ky) * w + ox * stride;
                        for kx in 0..kernel {
                            let idx = row + kx;
                            if input[idx] > best {
                                best = input[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ((b * c + ch) * oh + oy) * ow + ox;
                    out[o] = best;
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax[o] = best_idx;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Which implementation runs a convolution pass. See [`conv_impl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvImpl {
    /// `im2col` → GEMM → bias → NCHW forward, and NCHW → rows → GEMM →
    /// `col2im` input gradient.
    Lowering,
    /// The direct stride-1 AVX2 kernels, bit-identical to the SIMD
    /// lowering, with no patch matrix.
    Direct,
}

/// The one rule that routes every pass of a convolution — forward, input
/// gradient, and weight and bias gradients: [`ConvImpl::Direct`] wherever
/// the direct kernels can run the geometry — the `Simd` backend on an
/// AVX2+FMA CPU, stride 1, padding below the kernel — and
/// [`ConvImpl::Lowering`] everywhere else: the scalar backend (the goldens'
/// reference) and strided convolutions. `Conv2d` and the graph executor's
/// f32 conv steps both ask it. (Int8 convolutions have no direct kernel:
/// the frozen layer lowers, and the graph executor gathers patch codes.)
///
/// The passes share the rule because `kernel_bench`'s `simd.conv_direct.*`
/// and `simd.conv_wgrad.*` rows measure the direct kernels winning every
/// pass of the six sweep convolutions (forward and input gradient at batch
/// 1 and 48, weight gradient at batch 32), narrow outputs included: each
/// saves the patch matrix's round trip (`im2col` or `col2im`, the row ↔
/// NCHW transposes, the separate bias pass), and its register blocks fill
/// the vector lanes along output rows (output channels, for the weight
/// gradient). A pass where the lowering wins would take a condition on the
/// geometry here, and its `kernel_bench` gate would fail until it did.
pub fn conv_impl(backend: KernelBackend, geom: &Conv2dGeometry) -> ConvImpl {
    let direct = simd::use_avx2(backend)
        && geom.stride == 1
        && geom.padding < geom.kernel_h
        && geom.padding < geom.kernel_w
        && geom.output_hw().is_ok();
    if direct {
        ConvImpl::Direct
    } else {
        ConvImpl::Lowering
    }
}

/// The direct kernels' view of `geom` with `oc` output channels.
///
/// # Errors
///
/// [`TensorError::InvalidGeometry`] where [`conv_impl`] would not choose
/// [`ConvImpl::Direct`].
fn direct_shape(backend: KernelBackend, geom: &Conv2dGeometry, oc: usize) -> Result<DirectConv> {
    if conv_impl(backend, geom) != ConvImpl::Direct {
        return Err(TensorError::InvalidGeometry(format!(
            "direct convolution needs the AVX2 backend, stride 1 and padding below the \
             kernel; got stride {}, padding {}, kernel {}x{}",
            geom.stride, geom.padding, geom.kernel_h, geom.kernel_w
        )));
    }
    let (oh, ow) = geom.output_hw()?;
    Ok(DirectConv {
        c: geom.in_channels,
        h: geom.in_h,
        w: geom.in_w,
        oc,
        kh: geom.kernel_h,
        kw: geom.kernel_w,
        pad: geom.padding,
        oh,
        ow,
    })
}

/// Checks a conv weight `[oc, c, kh, kw]` against `geom`; returns `oc`.
fn weight_channels(weight: &Tensor, geom: &Conv2dGeometry, op: &'static str) -> Result<usize> {
    let s = weight.shape();
    if s.len() != 4 || s[1] != geom.in_channels || s[2] != geom.kernel_h || s[3] != geom.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: s.to_vec(),
            rhs: vec![
                s.first().copied().unwrap_or(0),
                geom.in_channels,
                geom.kernel_h,
                geom.kernel_w,
            ],
            op,
        });
    }
    Ok(s[0])
}

thread_local! {
    /// Zero-bordered planes of the sample a direct kernel is working on,
    /// kept per thread so pool workers never share or reallocate them.
    static DIRECT_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f(sample, chunk)` over the `chunk_len`-element samples of `out`:
/// on the pool when the pass does at least as many multiply-adds (`macs`)
/// as a GEMM the pool would split, on the calling thread otherwise. (A
/// lone sample stays on one thread: on a 2-core host, splitting one
/// sample's channels across the pool measured no faster, its hand-off
/// costing what the second core saved.)
fn for_each_sample<F>(out: &mut [f32], chunk_len: usize, macs: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if macs >= crate::ops::PARALLEL_THRESHOLD {
        pool::for_each_chunk(out, chunk_len, f);
    } else {
        for (b, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(b, chunk);
        }
    }
}

/// Coordinates of the flat indices the density probe samples (see
/// [`probe_step`]) in a row-major array of shape `dims`, in increasing
/// order, found by mixed-radix addition of the step's digits rather than
/// by division.
struct ProbeWalk<const N: usize> {
    dims: [usize; N],
    step: [usize; N],
    coord: [usize; N],
}

impl<const N: usize> ProbeWalk<N> {
    fn new(dims: [usize; N]) -> Self {
        let mut rest = probe_step(dims.iter().product());
        let mut step = [0; N];
        for j in (1..N).rev() {
            step[j] = rest % dims[j];
            rest /= dims[j];
        }
        step[0] = rest;
        ProbeWalk {
            dims,
            step,
            coord: [0; N],
        }
    }

    /// The next sampled coordinate (the first call returns the origin).
    fn next(&mut self) -> [usize; N] {
        let at = self.coord;
        let mut carry = 0;
        for j in (1..N).rev() {
            let v = self.coord[j] + self.step[j] + carry;
            carry = usize::from(v >= self.dims[j]);
            self.coord[j] = v - carry * self.dims[j];
        }
        self.coord[0] += self.step[0] + carry;
        at
    }
}

/// The GEMM kernel the lowering's forward would pick: the density probe
/// over the `[n·oh·ow, c·kh·kw]` patch matrix of `input`, read at the
/// sampled positions without building it. `(oh, ow)` is the geometry's
/// output size.
fn probe_patches(
    input: &[f32],
    n: usize,
    geom: &Conv2dGeometry,
    (oh, ow): (usize, usize),
) -> MatmulKernel {
    let (h, w) = (geom.in_h, geom.in_w);
    let sample = geom.in_channels * h * w;
    // Patch column `(ch, ky, kx)` reads channel plane `ch` at kernel offset
    // `(ky, kx)`, counted from the padded origin of its patch; splitting
    // the column into its three digits walks the same flat indices.
    let dims = [n, oh, ow, geom.in_channels, geom.kernel_h, geom.kernel_w];
    let mut walk = ProbeWalk::new(dims);
    probe_kernel_by(dims.iter().product(), || {
        let [b, oy, ox, ch, ky, kx] = walk.next();
        let iy = (oy * geom.stride + ky).wrapping_sub(geom.padding);
        let ix = (ox * geom.stride + kx).wrapping_sub(geom.padding);
        iy < h && ix < w && input[b * sample + ch * h * w + iy * w + ix] != 0.0
    })
}

/// The GEMM kernel the lowering's input gradient would pick: the density
/// probe over the `[n·oh·ow, oc]` gradient rows of the NCHW `grad` (shape
/// `[n, oc, oh, ow]`), read without transposing it. A row's output
/// position is one coordinate here, which keeps the walk's carry chain
/// short.
fn probe_grad_rows(grad: &[f32], [n, oc, oh, ow]: [usize; 4]) -> MatmulKernel {
    let plane = oh * ow;
    let mut walk = ProbeWalk::new([n, plane, oc]);
    probe_kernel_by(n * plane * oc, || {
        let [b, pos, o] = walk.next();
        grad[(b * oc + o) * plane + pos] != 0.0
    })
}

/// The GEMM kernel the lowering's weight gradient would pick: the density
/// probe over `g2dᵀ`, the `[oc, n·oh·ow]` transpose of the gradient rows of
/// the NCHW `grad` (shape `[n, oc, oh, ow]`), read without building it.
fn probe_grad_cols(grad: &[f32], [n, oc, oh, ow]: [usize; 4]) -> MatmulKernel {
    let plane = oh * ow;
    let mut walk = ProbeWalk::new([oc, n, plane]);
    probe_kernel_by(oc * n * plane, || {
        let [o, b, pos] = walk.next();
        grad[(b * oc + o) * plane + pos] != 0.0
    })
}

/// The buffers a lowered convolution forward fills: the patch matrix and
/// the GEMM rows. The caller owns them and passes them to every call, so
/// they are rewritten in place and grow only when a larger batch comes; the
/// direct kernels leave them alone.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    /// The `[n·oh·ow, c·kh·kw]` patch matrix of the last lowered forward,
    /// which the lowered [`conv2d_weight_grad`] reuses.
    pub cols: Tensor,
    /// The `n·oh·ow × oc` GEMM rows of the last lowered forward.
    rows: Vec<f32>,
}

impl ConvScratch {
    /// Grows the buffers to hold `cols` patch-matrix and `rows` GEMM-row
    /// elements without reallocating.
    pub fn reserve(&mut self, cols: usize, rows: usize) {
        self.cols.reserve_scratch(cols);
        self.rows.reserve(rows.saturating_sub(self.rows.len()));
    }

    /// The f32 elements the buffers hold room for.
    pub fn capacity(&self) -> usize {
        self.cols.capacity() + self.rows.capacity()
    }
}

/// The f32 convolution forward `y = conv(x, W) + b`, by `imp`: `input`
/// holds `n` NCHW samples matching `geom`, `weight_t` the kernel in the
/// GEMM's `[c·kh·kw, oc]` layout (`Wᵀ`), `bias` its `oc` biases, and `out`
/// receives the `[n, oc, oh, ow]` output, fully overwritten. `Conv2d` and
/// the graph executor's f32 conv steps both run it.
///
/// `kernel` forces the GEMM kernel flavour; `None` picks it as
/// [`crate::Tensor::matmul`] would, by the density probe over the patch
/// matrix. [`ConvImpl::Lowering`] runs `im2col` into `scratch.cols`, the
/// GEMM into the scratch rows, the bias add and the NCHW transpose;
/// [`ConvImpl::Direct`] leaves `scratch` alone and returns the same bits.
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] when a slice disagrees with `n`, `geom`
/// and `bias.len()`, geometry errors from [`Conv2dGeometry::output_hw`],
/// and [`TensorError::InvalidGeometry`] for [`ConvImpl::Direct`] where
/// [`conv_impl`] would never choose it for lack of AVX2, stride 1 or
/// padding below the kernel.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward(
    backend: KernelBackend,
    input: &[f32],
    n: usize,
    weight_t: &[f32],
    bias: &[f32],
    geom: &Conv2dGeometry,
    imp: ConvImpl,
    kernel: Option<MatmulKernel>,
    scratch: &mut ConvScratch,
    out: &mut [f32],
) -> Result<()> {
    let (oh, ow) = geom.output_hw()?;
    let (oc, patch) = (bias.len(), geom.patch_len());
    let sample = geom.in_channels * geom.in_h * geom.in_w;
    let lens = [
        (input.len(), n * sample),
        (weight_t.len(), patch * oc),
        (out.len(), n * oc * oh * ow),
    ];
    if let Some(&(actual, expected)) = lens.iter().find(|(a, e)| a != e) {
        return Err(TensorError::LengthMismatch { expected, actual });
    }
    if imp == ConvImpl::Lowering {
        let ConvScratch { cols, rows } = scratch;
        let m = n * oh * ow;
        cols.reset_scratch(&[m, patch]);
        im2col_slice(input, geom, (oh, ow), cols.data_mut());
        let kernel = kernel.unwrap_or_else(|| crate::probe_matmul_kernel(cols.data()));
        rows.clear();
        rows.resize(m * oc, 0.0);
        crate::ops::matmul_slices(backend, kernel, cols.data(), weight_t, rows, patch, oc);
        for row in rows.chunks_exact_mut(oc) {
            simd::add_assign_slices(backend, row, bias);
        }
        return rows_to_nchw_slice(rows, n, oc, oh, ow, out);
    }
    let d = direct_shape(backend, geom, oc)?;
    let kernel = kernel.unwrap_or_else(|| probe_patches(input, n, geom, (oh, ow)));
    let finite = weight_t.iter().all(|v| v.is_finite());
    for_each_sample(out, oc * oh * ow, n * oh * ow * oc * patch, |b, chunk| {
        DIRECT_SCRATCH.with(|scratch| {
            let ran = simd::conv_direct_forward(
                backend,
                &d,
                &input[b * sample..(b + 1) * sample],
                weight_t,
                bias,
                chunk,
                kernel == MatmulKernel::Sparse,
                finite,
                &mut scratch.borrow_mut(),
            );
            debug_assert!(ran, "direct_shape checked the AVX2 path");
        });
    });
    Ok(())
}

/// Convolution input gradient `dL/dx` (`[n, c, h, w]`) from the NCHW
/// output gradient `grad_output` (`[n, oc, oh, ow]`), by `imp`.
///
/// `kernel` forces the GEMM kernel flavour; `None` picks it as
/// [`crate::Tensor::matmul`] would, by the density probe over the
/// gradient rows. [`ConvImpl::Lowering`] runs `nchw_to_rows`, the GEMM
/// against `W` and `col2im`; [`ConvImpl::Direct`] returns the same bits
/// without any of them.
///
/// # Errors
///
/// As [`conv2d_forward`], for `grad_output` and `weight`.
pub fn conv2d_input_grad(
    backend: KernelBackend,
    grad_output: &Tensor,
    weight: &Tensor,
    geom: &Conv2dGeometry,
    imp: ConvImpl,
    kernel: Option<MatmulKernel>,
) -> Result<Tensor> {
    let oc = weight_channels(weight, geom, "conv2d input gradient")?;
    let (oh, ow) = geom.output_hw()?;
    let n = grad_output.shape().first().copied().unwrap_or(0);
    if grad_output.shape() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.shape().to_vec(),
            rhs: vec![n, oc, oh, ow],
            op: "conv2d input gradient",
        });
    }
    let patch = geom.patch_len();
    let w2d = weight.reshape(&[oc, patch])?;
    if imp == ConvImpl::Lowering {
        let g2d = nchw_to_rows(grad_output, n, oc, oh, ow)?;
        let kernel = kernel.unwrap_or_else(|| crate::probe_matmul_kernel(g2d.data()));
        let gcols = g2d.matmul_with(&w2d, kernel, backend)?;
        return col2im(&gcols, geom, n);
    }
    let d = direct_shape(backend, geom, oc)?;
    let dy = grad_output.data();
    let kernel = kernel.unwrap_or_else(|| probe_grad_rows(dy, [n, oc, oh, ow]));
    let wt = w2d.t()?;
    let finite = wt.data().iter().all(|v| v.is_finite());
    let mut out = Tensor::zeros(&[n, d.c, d.h, d.w]);
    let sample = oc * oh * ow;
    for_each_sample(
        out.data_mut(),
        d.c * d.h * d.w,
        n * oh * ow * oc * patch,
        |b, chunk| {
            DIRECT_SCRATCH.with(|scratch| {
                let ran = simd::conv_direct_input_grad(
                    backend,
                    &d,
                    &dy[b * sample..(b + 1) * sample],
                    wt.data(),
                    chunk,
                    kernel == MatmulKernel::Sparse,
                    finite,
                    &mut scratch.borrow_mut(),
                );
                debug_assert!(ran, "direct_shape checked the AVX2 path");
            });
        },
    );
    Ok(out)
}

/// Convolution weight and bias gradients `(dL/dW, dL/db)`, `[oc, c, kh,
/// kw]` and `[oc]`, of the NCHW batch `input` and its output gradient
/// `grad_output` (`[n, oc, oh, ow]`), by `imp`.
///
/// `kernel` forces the GEMM kernel flavour; `None` picks it as
/// [`crate::Tensor::matmul`] would, by the density probe over `g2dᵀ`.
/// [`ConvImpl::Lowering`] multiplies `g2dᵀ` (the transposed gradient rows)
/// by the patch matrix — `cols` when the caller's forward already built it
/// for `input`, a fresh `im2col` otherwise — and sums the rows for the
/// bias. [`ConvImpl::Direct`] returns the same bits without the patch
/// matrix, the rows or their transpose: output channels sit in the vector
/// lanes, each weight is one chain over `(n, oy, ox)` that no thread split
/// shares, and the bias is summed in `sum_axis0`'s row order.
///
/// # Errors
///
/// As [`conv2d_forward`], for `input` and `grad_output`, and a
/// [`TensorError::ShapeMismatch`] when `cols` is not `input`'s
/// `[n·oh·ow, c·kh·kw]` patch matrix.
pub fn conv2d_weight_grad(
    backend: KernelBackend,
    input: &Tensor,
    grad_output: &Tensor,
    geom: &Conv2dGeometry,
    imp: ConvImpl,
    kernel: Option<MatmulKernel>,
    cols: Option<&Tensor>,
) -> Result<(Tensor, Tensor)> {
    let n = check_input(input, geom, "conv2d weight gradient")?;
    let (oh, ow) = geom.output_hw()?;
    let oc = grad_output.shape().get(1).copied().unwrap_or(0);
    if grad_output.shape() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.shape().to_vec(),
            rhs: vec![n, oc, oh, ow],
            op: "conv2d weight gradient",
        });
    }
    let patch = geom.patch_len();
    let weight_shape = [oc, geom.in_channels, geom.kernel_h, geom.kernel_w];
    if imp == ConvImpl::Lowering {
        let built;
        let cols = match cols {
            Some(cols) if cols.shape() != [n * oh * ow, patch] => {
                return Err(TensorError::ShapeMismatch {
                    lhs: cols.shape().to_vec(),
                    rhs: vec![n * oh * ow, patch],
                    op: "conv2d weight gradient",
                })
            }
            Some(cols) => cols,
            None => {
                built = im2col(input, geom)?;
                &built
            }
        };
        let g2d = nchw_to_rows(grad_output, n, oc, oh, ow)?;
        let g2d_t = g2d.t()?;
        let kernel = kernel.unwrap_or_else(|| crate::probe_matmul_kernel(g2d_t.data()));
        let gw = g2d_t.matmul_with(cols, kernel, backend)?;
        return Ok((gw.reshape(&weight_shape)?, g2d.sum_axis0()?));
    }
    let d = direct_shape(backend, geom, oc)?;
    let (x, dy) = (input.data(), grad_output.data());
    let kernel = kernel.unwrap_or_else(|| probe_grad_cols(dy, [n, oc, oh, ow]));
    let finite = x.iter().all(|v| v.is_finite());
    let tiling = WgradTiling::new(&d);
    let task_len = tiling.task_len();
    let mut acc = vec![0.0f32; tiling.tasks() * task_len];
    let run = |first_task: usize, band: &mut [f32]| {
        DIRECT_SCRATCH.with(|scratch| {
            let ran = simd::conv_direct_weight_grad(
                backend,
                &d,
                &tiling,
                x,
                dy,
                first_task,
                band,
                kernel == MatmulKernel::Sparse,
                finite,
                &mut scratch.borrow_mut(),
            );
            debug_assert!(ran, "direct_shape checked the AVX2 path");
        });
    };
    // Tasks, never samples, are split across threads: each chain stays on
    // one thread, in order.
    let threads = pool::global().effective_threads();
    if n * oh * ow * oc * patch >= crate::ops::PARALLEL_THRESHOLD && threads >= 2 {
        pool::for_each_row_band(&mut acc, task_len, threads, run);
    } else {
        run(0, &mut acc);
    }
    let mut gw = Tensor::zeros(&weight_shape);
    let mut gb = Tensor::zeros(&[oc]);
    for (task, chains) in acc.chunks_exact(task_len).enumerate() {
        let (group, block) = tiling.task(task);
        let o0 = group * WGRAD_GROUP;
        let lanes = WGRAD_GROUP.min(oc - o0);
        for slot in 0..tiling.segs {
            let chain = |kx: usize| &chains[(slot * tiling.width + kx) * WGRAD_GROUP..][..lanes];
            if let Some(kk) = tiling.segment(block, slot) {
                for kx in 0..tiling.width {
                    for (l, &v) in chain(kx).iter().enumerate() {
                        gw.data_mut()[(o0 + l) * patch + kk + kx] = v;
                    }
                }
            } else if tiling.is_bias(block, slot) {
                gb.data_mut()[o0..o0 + lanes].copy_from_slice(chain(0));
            }
        }
    }
    Ok((gw, gb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hw_basic() {
        let g = Conv2dGeometry::square(1, 5, 3, 1, 0);
        assert_eq!(g.output_hw().unwrap(), (3, 3));
        let g = Conv2dGeometry::square(1, 5, 3, 1, 1);
        assert_eq!(g.output_hw().unwrap(), (5, 5));
        let g = Conv2dGeometry::square(1, 6, 2, 2, 0);
        assert_eq!(g.output_hw().unwrap(), (3, 3));
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(Conv2dGeometry::square(1, 5, 3, 0, 0).output_hw().is_err());
        assert!(Conv2dGeometry::square(1, 2, 3, 1, 0).output_hw().is_err());
        assert!(Conv2dGeometry::square(0, 5, 3, 1, 0).output_hw().is_err());
        // Padding can rescue a small input.
        assert!(Conv2dGeometry::square(1, 2, 3, 1, 1).output_hw().is_ok());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is just a reshape.
        let x = Tensor::new(&[1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 1]);
        assert_eq!(cols.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn im2col_3x3_patch_layout() {
        let x = Tensor::new(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let g = Conv2dGeometry::square(1, 3, 3, 1, 0);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[1, 9]);
        assert_eq!(cols.data(), &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeros() {
        let x = Tensor::new(&[1, 1, 1, 1], vec![5.0]).unwrap();
        let g = Conv2dGeometry::square(1, 1, 3, 1, 1);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[1, 9]);
        // Only the centre of the 3x3 patch is inside the image.
        let mut expected = vec![0.0; 9];
        expected[4] = 5.0;
        assert_eq!(cols.data(), expected.as_slice());
    }

    #[test]
    fn im2col_multi_channel_order() {
        // Two channels: patch must be channel-major.
        let x = Tensor::new(&[1, 2, 1, 1], vec![1.0, 2.0]).unwrap();
        let g = Conv2dGeometry::square(2, 1, 1, 1, 0);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.data(), &[1.0, 2.0]);
    }

    #[test]
    fn im2col_shape_validation() {
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let g = Conv2dGeometry::square(2, 4, 3, 1, 0);
        assert!(im2col(&x, &g).is_err());
        assert!(im2col(&Tensor::zeros(&[4, 4]), &g).is_err());
    }

    #[test]
    fn im2col_into_reuses_and_overwrites_scratch() {
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        let x1 = Tensor::new(&[1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let x2 = Tensor::new(&[1, 1, 2, 2], vec![5., 6., 7., 8.]).unwrap();
        let mut scratch = Tensor::default();
        im2col_into(&x1, &g, &mut scratch).unwrap();
        assert_eq!(scratch.data(), &[1., 2., 3., 4.]);
        // Second call must fully overwrite, not blend with, the first.
        im2col_into(&x2, &g, &mut scratch).unwrap();
        assert_eq!(scratch.data(), &[5., 6., 7., 8.]);
        assert_eq!(scratch.shape(), &[4, 1]);
    }

    #[test]
    fn im2col_into_matches_im2col_across_batches() {
        use crate::Init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = Conv2dGeometry::square(3, 6, 3, 1, 1);
        let mut scratch = Tensor::default();
        // Growing then shrinking batch sizes exercise the reallocation path.
        for &n in &[1usize, 4, 2] {
            let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[n, 3, 6, 6], &mut rng);
            let fresh = im2col(&x, &g).unwrap();
            im2col_into(&x, &g, &mut scratch).unwrap();
            assert_eq!(scratch.data(), fresh.data());
            assert_eq!(scratch.shape(), fresh.shape());
        }
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // 2x2 input, 1x1 kernel stride 1: col2im is the inverse reshape.
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        let cols = Tensor::new(&[4, 1], vec![1., 2., 3., 4.]).unwrap();
        let x = col2im(&cols, &g, 1).unwrap();
        assert_eq!(x.shape(), &[1, 1, 2, 2]);
        assert_eq!(x.data(), &[1., 2., 3., 4.]);

        // Overlapping 2x2 kernels on 3x3 input: centre pixel appears in all
        // four patches and must accumulate.
        let g = Conv2dGeometry::square(1, 3, 2, 1, 0);
        let cols = Tensor::ones(&[4, 4]);
        let x = col2im(&cols, &g, 1).unwrap();
        assert_eq!(x.get(&[0, 0, 1, 1]).unwrap(), 4.0);
        assert_eq!(x.get(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(x.get(&[0, 0, 0, 1]).unwrap(), 2.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // checked on random data.
        use crate::Init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = Conv2dGeometry::square(2, 5, 3, 2, 1);
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[2, 2, 5, 5], &mut rng);
        let (oh, ow) = g.output_hw().unwrap();
        let y = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[2 * oh * ow, g.patch_len()], &mut rng);
        let ax = im2col(&x, &g).unwrap();
        let aty = col2im(&y, &g, 2).unwrap();
        let lhs: f32 = ax.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(aty.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_validates_shape() {
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        assert!(col2im(&Tensor::zeros(&[3, 1]), &g, 1).is_err());
    }

    #[test]
    fn probe_walk_visits_the_sampled_indices() {
        for dims in [
            [1usize, 7, 5, 3],
            [2, 28, 28, 25],
            [48, 10, 10, 75],
            [3, 1, 1, 1],
        ] {
            let len: usize = dims.iter().product();
            let step = probe_step(len);
            let mut walk = ProbeWalk::new(dims);
            for i in (0..len).step_by(step) {
                let [a, b, c, d] = walk.next();
                assert_eq!(
                    ((a * dims[1] + b) * dims[2] + c) * dims[3] + d,
                    i,
                    "{dims:?}"
                );
            }
        }
    }

    #[test]
    fn virtual_probes_equal_the_probe_over_the_built_operands() {
        use crate::{probe_matmul_kernel, Init};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut picked = [0usize; 2];
        // (batch, channels, size, kernel, stride, padding, out channels):
        // small operands sampled whole, large ones strided.
        for (n, c, hw, k, stride, pad, oc) in [
            (1, 1, 5, 3, 1, 1, 2),
            (1, 1, 28, 5, 1, 2, 3),
            (3, 3, 14, 5, 1, 0, 8),
            (48, 3, 32, 3, 1, 1, 11),
            (2, 11, 16, 3, 2, 1, 22),
            (4, 2, 9, 5, 1, 4, 1),
        ] {
            let geom = Conv2dGeometry::square(c, hw, k, stride, pad);
            let (oh, ow) = geom.output_hw().unwrap();
            for density in [0.05f32, 0.2, 0.25, 0.3, 0.4, 1.0] {
                let mut sparse = |shape: &[usize]| {
                    let mut t = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(shape, &mut rng);
                    for v in t.data_mut() {
                        if rng.gen::<f32>() >= density {
                            *v = 0.0;
                        }
                    }
                    t
                };
                let x = sparse(&[n, c, hw, hw]);
                let built = probe_matmul_kernel(im2col(&x, &geom).unwrap().data());
                assert_eq!(probe_patches(x.data(), n, &geom, (oh, ow)), built);
                picked[usize::from(built == MatmulKernel::Sparse)] += 1;
                let dy = sparse(&[n, oc, oh, ow]);
                let rows = nchw_to_rows(&dy, n, oc, oh, ow).unwrap();
                let built = probe_matmul_kernel(rows.data());
                assert_eq!(probe_grad_rows(dy.data(), [n, oc, oh, ow]), built);
                picked[usize::from(built == MatmulKernel::Sparse)] += 1;
                let built = probe_matmul_kernel(rows.t().unwrap().data());
                assert_eq!(probe_grad_cols(dy.data(), [n, oc, oh, ow]), built);
                picked[usize::from(built == MatmulKernel::Sparse)] += 1;
            }
        }
        assert!(picked[0] > 0 && picked[1] > 0, "kernels picked {picked:?}");
    }

    /// The gradient probes read exactly the built operands' sampled
    /// indices: an NCHW gradient whose built rows (or their transpose)
    /// are nonzero at exactly those indices reads as dense, and one that
    /// is nonzero everywhere else as sparse, which a walk over any other
    /// indices would not report.
    #[test]
    fn gradient_probes_read_the_sampled_indices() {
        for [n, oc, oh, ow] in [[3usize, 11, 7, 9], [48, 3, 28, 28], [2, 22, 16, 16]] {
            let plane = oh * ow;
            let len = n * oc * plane;
            let step = probe_step(len);
            // NCHW index of flat index `i` of the rows `[n·plane, oc]` and
            // of their transpose `[oc, n·plane]`.
            let of_rows = |i: usize| ((i / oc / plane) * oc + i % oc) * plane + i / oc % plane;
            let of_cols = |i: usize| {
                let (o, r) = (i / (n * plane), i % (n * plane));
                ((r / plane) * oc + o) * plane + r % plane
            };
            type Probe = fn(&[f32], [usize; 4]) -> MatmulKernel;
            let probes: [(Probe, &dyn Fn(usize) -> usize); 2] =
                [(probe_grad_rows, &of_rows), (probe_grad_cols, &of_cols)];
            for (probe, nchw) in probes {
                for (fill, want) in [(0.0, MatmulKernel::Dense), (1.0, MatmulKernel::Sparse)] {
                    let mut grad = vec![fill; len];
                    for i in (0..len).step_by(step) {
                        grad[nchw(i)] = 1.0 - fill;
                    }
                    assert_eq!(probe(&grad, [n, oc, oh, ow]), want, "{:?}", [n, oc, oh, ow]);
                }
            }
        }
    }

    #[test]
    fn rows_nchw_roundtrip() {
        let rows = Tensor::new(&[4, 3], (0..12).map(|v| v as f32).collect()).unwrap();
        let nchw = rows_to_nchw(&rows, 1, 3, 2, 2).unwrap();
        let back = nchw_to_rows(&nchw, 1, 3, 2, 2).unwrap();
        assert_eq!(back.data(), rows.data());
    }

    #[test]
    fn rows_to_nchw_layout_and_validation() {
        // Two samples, two channels, 1x2 spatial: row-major GEMM rows are
        // (b, y, x) ordered with channels innermost.
        let rows = Tensor::new(&[4, 2], vec![1., 10., 2., 20., 3., 30., 4., 40.]).unwrap();
        let nchw = rows_to_nchw(&rows, 2, 2, 1, 2).unwrap();
        assert_eq!(nchw.shape(), &[2, 2, 1, 2]);
        assert_eq!(nchw.data(), &[1., 2., 10., 20., 3., 4., 30., 40.]);
        assert!(rows_to_nchw(&rows, 2, 3, 1, 2).is_err());
        assert!(nchw_to_rows(&rows, 2, 2, 1, 2).is_err());
    }
}
