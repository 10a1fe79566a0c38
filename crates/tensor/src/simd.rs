//! Runtime-dispatched SIMD slice kernels (AVX2+FMA) with scalar fallbacks.
//!
//! Every hot elementwise loop, reduction and GEMM body in this crate
//! funnels through the free functions here, each of which takes
//! an explicit [`KernelBackend`]. Production tensor ops pass the cached
//! process-wide default from [`backend`] (selected once from the
//! `ADVCOMP_KERNEL` environment variable, mirroring `ADVCOMP_THREADS`);
//! parity tests and the ablation benchmarks pass both backends explicitly
//! so the two implementations can be compared inside one process.
//!
//! # Numerics policy
//!
//! The SIMD implementations fall into three classes:
//!
//! * **Bit-exact** — `add`, `sub`, `mul`, `axpy`, `scale`, `add_scalar`,
//!   `abs`, `sign`, `relu`, `clamp` and the fused attack-step kernels
//!   perform exactly the same IEEE-754 operations per element as the
//!   scalar code, in the same order, with no contraction (the SIMD `axpy`
//!   deliberately uses multiply-then-add rather than FMA). For finite
//!   inputs the results are bitwise identical across backends, so the
//!   golden-vector suite passes under either backend for these ops. The
//!   fake-quantiser (`crate::quant::fake_quantize_in_place`), the in-place
//!   ReLU pair ([`relu_in_place`], whose `max(v, +0)` maps `−0` and NaN to
//!   `+0` in lanes and tail alike, and [`relu_grad_in_place`]) and the
//!   2×2 stride-2 max-pool body behind [`crate::max_pool2d`] are in this
//!   class too, for every input, ±∞ and NaN included: the pool only
//!   selects, with ordered `_CMP_GT_OQ` compares and blends over the
//!   window's taps in the scalar scan's order, so the first maximum wins
//!   and a NaN never replaces one.
//! * **Tolerance-class** — the dense GEMM uses FMA contraction and the
//!   reductions (`sum`, `sumsq`, `sum_abs`) use lane-parallel
//!   accumulators, so results differ from scalar by reassociation /
//!   double-rounding at the level of a few ULPs (≤ 1e-5 relative L2 in the
//!   testkit parity suite). Golden vectors therefore pin
//!   `ADVCOMP_KERNEL=scalar`.
//! * **Bit-exact with the lowering** — the direct convolution kernels
//!   (below) return the bits of the SIMD im2col lowering, so against
//!   scalar they sit in the dense GEMM's tolerance class.
//!
//! # GEMM bodies
//!
//! The dense GEMM, the crate's one f32 GEMM, has two AVX2 bodies with one
//! per-element arithmetic, an in-order FMA chain from +0: the one-row
//! stripe body (four ymm accumulators across a 32-wide output stripe, then
//! narrower remainders and a scalar `mul_add` tail) and, for fewer than 32
//! output columns at a depth of at least 8, the 8-row tile
//! (`gemm_tile_rows`), which puts 8 rows in the lanes and one output column
//! in each of up to 8 accumulators. Conv layers lower to `cols · Wᵀ` with
//! as many output columns as channels (3–22 at the widths the sweeps run),
//! where the stripe body ran mostly its scalar tail. The tile takes a
//! band's full 8-row groups and leaves the rest to the one-row body. It
//! makes no heap allocation: it transposes A into a stack buffer, `k` in
//! blocks of 128.
//!
//! # Direct convolution
//!
//! The direct stride-1 convolution kernels compute what the SIMD lowering
//! (`im2col` → GEMM → bias → NCHW, and NCHW → rows → GEMM → `col2im`)
//! computes with the dense GEMM, bit for bit, without the patch matrix.
//! They have one arithmetic, the dense GEMM's in-order FMA chain from +0:
//! per output element the forward chains the element's taps in patch
//! order over zero-bordered input planes, then adds the bias; per input
//! pixel the input gradient sums, from +0 and in `col2im`'s order (its
//! taps reversed), terms that are each the lowering's chain over the
//! output channels. Blocks of output (or input) channels × up to 4 vectors
//! of 8 columns of one row keep 6–12 chains in registers. The weight
//! gradient chains each weight over the batch's output positions in order,
//! as `g2dᵀ · cols` does, with 8 output channels in the lanes (as in the
//! 8-row GEMM tile) and up to 12 weights' chains per task, one broadcast
//! from the zero-bordered input planes per chain and position; the bias
//! gradient is one more chain, over a plane of ones.
//!
//! Where the other operand is finite, the kernels skip the FMAs of an
//! all-zero input vector, gradient vector or 8-channel gradient position:
//! their products are ±0, which leave an accumulator as it is unless it
//! holds −0, and an accumulator is −0 only after an underflowed product
//! rounded it there. Where the other operand holds ±∞ or NaN they skip
//! nothing, so `0·∞` gives the dense GEMM's NaN. See
//! `conv_direct_forward`, `conv_direct_input_grad` and
//! `conv_direct_weight_grad`; `crate::conv` drives them.
//!
//! NaN edge cases differ where the hardware min/max semantics differ from
//! `f32::clamp`/`f32::max`: `_mm256_max_ps(a, b)` returns `b` when `a` is
//! NaN, so a NaN input to the SIMD `clamp`/`relu`/`max` maps to a bound
//! where the scalar code would propagate the NaN (or, for `relu`, also
//! clamp it). Attack loops guard non-finite gradients *before* stepping
//! (see `advcomp_attacks`), so no production path feeds NaN to these
//! kernels; the divergence is documented rather than papered over with a
//! slow NaN-preserving blend.

use std::sync::OnceLock;

/// Which slice-kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar loops (the reference semantics; goldens pin this).
    Scalar,
    /// AVX2+FMA vector kernels; silently falls back to scalar at each call
    /// site when the CPU lacks the features.
    Simd,
}

impl KernelBackend {
    /// Stable lowercase name (matches the `ADVCOMP_KERNEL` values).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }
}

/// `true` when the CPU supports the AVX2+FMA kernels. Detected once and
/// cached; on non-x86_64 targets this is always `false` and every `Simd`
/// request degrades to the scalar implementation.
pub fn simd_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Process-wide default backend for production tensor ops.
///
/// Selected by `ADVCOMP_KERNEL` (read **once** and cached, exactly like
/// `ADVCOMP_THREADS`): `scalar` forces the portable loops, `simd` requests
/// the vector kernels, and `auto` (or unset / unrecognised) picks `simd`
/// when the CPU supports it. A `simd` request on unsupported hardware still
/// returns [`KernelBackend::Simd`]; each kernel then falls back to scalar,
/// so the setting is safe everywhere.
pub fn backend() -> KernelBackend {
    static BACKEND: OnceLock<KernelBackend> = OnceLock::new();
    *BACKEND.get_or_init(|| match std::env::var("ADVCOMP_KERNEL") {
        Ok(s) if s.eq_ignore_ascii_case("scalar") => KernelBackend::Scalar,
        Ok(s) if s.eq_ignore_ascii_case("simd") => KernelBackend::Simd,
        _ => {
            if simd_available() {
                KernelBackend::Simd
            } else {
                KernelBackend::Scalar
            }
        }
    })
}

/// `true` when this call should take the AVX2 path.
#[inline]
pub(crate) fn use_avx2(backend: KernelBackend) -> bool {
    backend == KernelBackend::Simd && simd_available()
}

// ---------------------------------------------------------------------------
// Elementwise kernels (bit-exact class)
// ---------------------------------------------------------------------------

/// `out[i] = a[i] + b[i]`.
pub fn add_slices(backend: KernelBackend, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(a.len() == out.len() && b.len() == out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::add(a, b, out) };
    }
    let _ = backend;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out[i] = a[i] - b[i]`.
pub fn sub_slices(backend: KernelBackend, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(a.len() == out.len() && b.len() == out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::sub(a, b, out) };
    }
    let _ = backend;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `out[i] = a[i] * b[i]`.
pub fn mul_slices(backend: KernelBackend, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(a.len() == out.len() && b.len() == out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::mul(a, b, out) };
    }
    let _ = backend;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// `acc[i] += b[i]`.
pub fn add_assign_slices(backend: KernelBackend, acc: &mut [f32], b: &[f32]) {
    debug_assert_eq!(acc.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::add_assign(acc, b) };
    }
    let _ = backend;
    for (a, &y) in acc.iter_mut().zip(b) {
        *a += y;
    }
}

/// `acc[i] = acc[i] + s * x[i]` (axpy). Multiply-then-add in both backends
/// — no FMA — so the result is bit-exact across backends.
pub fn axpy_slices(backend: KernelBackend, acc: &mut [f32], x: &[f32], s: f32) {
    debug_assert_eq!(acc.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::axpy(acc, x, s) };
    }
    let _ = backend;
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += s * v;
    }
}

/// `out[i] = a[i] * s`.
pub fn scale_slices(backend: KernelBackend, a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::scale(a, s, out) };
    }
    let _ = backend;
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x * s;
    }
}

/// `acc[i] *= s` in place.
pub fn scale_assign_slices(backend: KernelBackend, acc: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::scale_assign(acc, s) };
    }
    let _ = backend;
    for a in acc.iter_mut() {
        *a *= s;
    }
}

/// `out[i] = a[i] + s`.
pub fn add_scalar_slices(backend: KernelBackend, a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::add_scalar(a, s, out) };
    }
    let _ = backend;
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x + s;
    }
}

/// `out[i] = |a[i]|`.
pub fn abs_slices(backend: KernelBackend, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::abs(a, out) };
    }
    let _ = backend;
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x.abs();
    }
}

/// `out[i] = sign(a[i])` ∈ {-1, 0, +1}, with 0 for NaN (the paper's FGSM
/// convention; see [`crate::Tensor::sign`]). Bit-exact across backends.
pub fn sign_slices(backend: KernelBackend, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::sign(a, out) };
    }
    let _ = backend;
    for (o, &x) in out.iter_mut().zip(a) {
        *o = scalar_sign(x);
    }
}

/// `out[i] = max(a[i], 0)`.
pub fn relu_slices(backend: KernelBackend, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::relu(a, out) };
    }
    let _ = backend;
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x.max(0.0);
    }
}

/// `a[i] = max(a[i], 0)` in place, [`relu_slices`]' operation per element:
/// `−0` and NaN rectify to `+0` on both backends. Where `mask` is given
/// (`a.len().div_ceil(8)` bytes) the same pass writes the ReLU backward's
/// mask: bit `i % 8` of `mask[i / 8]` is set where the rectified `a[i] >
/// 0`, and the last byte's bits past the end of `a` are clear.
///
/// # Panics
///
/// Panics when `mask` has the wrong length.
pub fn relu_in_place(backend: KernelBackend, a: &mut [f32], mask: Option<&mut [u8]>) {
    if let Some(mask) = &mask {
        assert_eq!(mask.len(), a.len().div_ceil(8), "relu mask length");
    }
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        // SAFETY: `use_avx2` checked the CPU; the mask length is checked.
        return unsafe { avx2::relu_in_place(a, mask) };
    }
    let _ = backend;
    match mask {
        Some(mask) => {
            for (chunk, byte) in a.chunks_mut(8).zip(mask) {
                *byte = relu_byte(chunk);
            }
        }
        None => a.iter_mut().for_each(|v| *v = v.max(0.0)),
    }
}

/// Rectifies up to 8 values in place and returns their `> 0` bits.
#[inline]
fn relu_byte(chunk: &mut [f32]) -> u8 {
    let mut bits = 0;
    for (j, v) in chunk.iter_mut().enumerate() {
        *v = v.max(0.0);
        bits |= u8::from(*v > 0.0) << j;
    }
    bits
}

/// The ReLU backward in place over the mask [`relu_in_place`] wrote:
/// `g[i] = if out[i] > 0 { g[i] } else { 0.0 }`, so `+0` where the output
/// was not positive and `g[i]`, NaN included, where it was.
///
/// # Panics
///
/// Panics unless `mask.len() == g.len().div_ceil(8)`.
pub fn relu_grad_in_place(backend: KernelBackend, g: &mut [f32], mask: &[u8]) {
    assert_eq!(mask.len(), g.len().div_ceil(8), "relu mask length");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        // SAFETY: `use_avx2` checked the CPU; the mask length is checked.
        return unsafe { avx2::relu_grad_in_place(g, mask) };
    }
    let _ = backend;
    for (chunk, &byte) in g.chunks_mut(8).zip(mask) {
        relu_grad_byte(chunk, byte);
    }
}

/// Zeroes the values of `chunk` (up to 8) whose bit in `byte` is clear.
#[inline]
fn relu_grad_byte(chunk: &mut [f32], byte: u8) {
    for (j, v) in chunk.iter_mut().enumerate() {
        if byte >> j & 1 == 0 {
            *v = 0.0;
        }
    }
}

/// The AVX2 body of [`crate::max_pool2d`]'s 2×2 stride-2 window, with its
/// bits: pools `planes` NCHW planes of `h × w` into `out` (`planes ×
/// (h/2) × (w/2)`), with each output's window offset in `argmax` when
/// given. Returns `false`, writing nothing, when the AVX2 path is
/// unavailable (or the backend is `Scalar`), so the caller runs its window
/// scan. The caller has checked the lengths.
pub(crate) fn max_pool_2x2(
    backend: KernelBackend,
    input: &[f32],
    planes: usize,
    [h, w]: [usize; 2],
    out: &mut [f32],
    argmax: Option<&mut [u8]>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        // SAFETY: `use_avx2` checked the CPU; every vector load and store
        // is bounds-checked in `pool_quads`.
        unsafe { avx2::max_pool_2x2(input, planes, h, w, out, argmax) };
        return true;
    }
    let _ = (backend, input, planes, h, w, out, argmax);
    false
}

/// `out[i] = clamp(a[i], lo, hi)` (caller guarantees `lo <= hi`).
pub fn clamp_slices(backend: KernelBackend, a: &[f32], lo: f32, hi: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::clamp(a, lo, hi, out) };
    }
    let _ = backend;
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x.clamp(lo, hi);
    }
}

#[inline]
fn scalar_sign(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Fused attack-step kernels (bit-exact class)
// ---------------------------------------------------------------------------
//
// Each fused kernel performs, per element, exactly the float operations the
// historical unfused tensor-op chain performed (same order, no
// contraction), so switching an attack to the fused path changes neither
// goldens nor determinism — it only removes the intermediate traversals and
// allocations.

/// FGSM/IFGSM step: `x[i] = clamp(x[i] + step * sign(g[i]), lo, hi)`.
pub fn fused_sign_step_clamp(
    backend: KernelBackend,
    x: &mut [f32],
    g: &[f32],
    step: f32,
    lo: f32,
    hi: f32,
) {
    debug_assert_eq!(x.len(), g.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::fused_sign_step_clamp(x, g, step, lo, hi) };
    }
    let _ = backend;
    for (xv, &gv) in x.iter_mut().zip(g) {
        *xv = (*xv + step * scalar_sign(gv)).clamp(lo, hi);
    }
}

/// FGM/IFGM step:
/// `x[i] = clamp(x[i] + clamp(scale * g[i], -ball, ball), lo, hi)`.
/// Pass `ball = f32::INFINITY` for an unclipped gradient step.
pub fn fused_grad_step_clamp(
    backend: KernelBackend,
    x: &mut [f32],
    g: &[f32],
    scale: f32,
    ball: f32,
    lo: f32,
    hi: f32,
) {
    debug_assert_eq!(x.len(), g.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::fused_grad_step_clamp(x, g, scale, ball, lo, hi) };
    }
    let _ = backend;
    for (xv, &gv) in x.iter_mut().zip(g) {
        *xv = (*xv + (scale * gv).clamp(-ball, ball)).clamp(lo, hi);
    }
}

/// PGD step: sign step followed by projection onto the `eps`-ball around
/// `origin`, then the data range:
/// `x[i] = clamp(clamp(x[i] + step * sign(g[i]), origin[i] - eps, origin[i] + eps), lo, hi)`.
#[allow(clippy::too_many_arguments)]
pub fn fused_project_step_clamp(
    backend: KernelBackend,
    x: &mut [f32],
    g: &[f32],
    origin: &[f32],
    step: f32,
    eps: f32,
    lo: f32,
    hi: f32,
) {
    debug_assert!(x.len() == g.len() && x.len() == origin.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::fused_project_step_clamp(x, g, origin, step, eps, lo, hi) };
    }
    let _ = backend;
    for ((xv, &gv), &ov) in x.iter_mut().zip(g).zip(origin) {
        let stepped = *xv + step * scalar_sign(gv);
        *xv = stepped.clamp(ov - eps, ov + eps).clamp(lo, hi);
    }
}

// ---------------------------------------------------------------------------
// Reductions (tolerance class for sums; extrema are order-insensitive)
// ---------------------------------------------------------------------------

/// Sum of all elements. SIMD uses lane-parallel accumulators (reassociated).
pub fn sum_slice(backend: KernelBackend, a: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::sum(a) };
    }
    let _ = backend;
    a.iter().sum()
}

/// Sum of squares (the L2 norm before the square root). SIMD uses FMA.
pub fn sumsq_slice(backend: KernelBackend, a: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::sumsq(a) };
    }
    let _ = backend;
    a.iter().map(|v| v * v).sum()
}

/// Sum of absolute values (L1 norm).
pub fn sum_abs_slice(backend: KernelBackend, a: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::sum_abs(a) };
    }
    let _ = backend;
    a.iter().map(|v| v.abs()).sum()
}

/// Maximum element (`NEG_INFINITY` for an empty slice). Max is associative
/// and commutative over finite floats, so both backends agree exactly on
/// finite inputs.
pub fn max_slice(backend: KernelBackend, a: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::max(a) };
    }
    let _ = backend;
    a.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
}

/// Minimum element (`INFINITY` for an empty slice).
pub fn min_slice(backend: KernelBackend, a: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::min(a) };
    }
    let _ = backend;
    a.iter().fold(f32::INFINITY, |m, &v| m.min(v))
}

/// Maximum absolute value (0 for an empty slice) — the L∞ norm.
pub fn max_abs_slice(backend: KernelBackend, a: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        return unsafe { avx2::max_abs(a) };
    }
    let _ = backend;
    a.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

// ---------------------------------------------------------------------------
// GEMM bodies (tolerance class: FMA contraction)
// ---------------------------------------------------------------------------

/// AVX2 dense microkernel over one output row band of a GEMM.
///
/// Layout contract is identical to the scalar microkernel in `ops.rs`:
/// `b` holds `k`-row column panels of width `panel` (last one ragged) when
/// `packed`, and is row-major `k × n` otherwise; `out_band` covers rows
/// `[row_start, ...)` of the result, zero-initialised. Returns `false`
/// when the AVX2 path is unavailable (or the backend is `Scalar`) so the
/// caller can run its scalar kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_dense_rows(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    packed: bool,
    out_band: &mut [f32],
    row_start: usize,
    k: usize,
    n: usize,
    panel: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        unsafe { avx2::gemm_dense_rows(a, b, packed, out_band, row_start, k, n, panel) };
        return true;
    }
    let _ = (backend, a, b, packed, out_band, row_start, k, n, panel);
    false
}

/// Output-column count below which the f32 GEMMs run [`gemm_tile_rows`]
/// instead of their one-row bodies (the tile keeps one accumulator row
/// per column on the stack). A conv layer lowers to `cols · Wᵀ`, so `n` is
/// its output-channel count: 3–22 at the widths the sweeps run, where a
/// 32-wide row stripe leaves most of the work to its scalar tail.
pub(crate) const TILE_MAX_N: usize = 32;

/// AVX2 8-row tile over the full 8-row groups of one output row band of a
/// narrow GEMM (`n <` [`TILE_MAX_N`], `k ≥ ops::TILE_MIN_K`).
///
/// `b` is `k × n` row-major (a packed panel of width `n < PANEL` has the
/// same layout), and `out_band` covers rows `[row_start, ...)` of the
/// result, zero-initialised. Each group of 8 rows sits in the lanes of up
/// to 8 accumulators, one per output column, and walks `k` once per column
/// group, so the row count fills the vector lanes instead of the narrow
/// `n`. Per element the arithmetic is `acc = fma(a[r][kk], b[kk][j], acc)`
/// for `kk` in order from +0 — the per-element chain of the stripe body and
/// its `mul_add` tail in [`gemm_dense_rows`].
///
/// Returns how many leading rows of the band it computed: a multiple of 8,
/// or 0 when the AVX2 path is unavailable (or the backend is `Scalar`). The
/// caller computes the remaining rows with its one-row kernel, so a row's
/// bits never depend on its neighbours.
pub(crate) fn gemm_tile_rows(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    row_start: usize,
    k: usize,
    n: usize,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        // SAFETY: `use_avx2` checked that the CPU has AVX2 and FMA; the
        // tile bounds-checks every slice it reads or writes.
        return unsafe { avx2::gemm_tile_rows(a, b, out_band, row_start, k, n) };
    }
    let _ = (backend, a, b, out_band, row_start, k, n);
    0
}

// ---------------------------------------------------------------------------
// Direct stride-1 convolution (bit-exact with the dense SIMD lowering)
// ---------------------------------------------------------------------------

/// One sample of a stride-1 convolution with `pad < kh, kw`, as the direct
/// kernels see it: `c × h × w` input, `oc` output channels of
/// `kh × kw` taps, `oh × ow` output (`oh = h + 2·pad − kh + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirectConv {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub oc: usize,
    pub kh: usize,
    pub kw: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
}

/// Output columns one block of the direct kernels covers at most: 4
/// vectors of 8 lanes. The zero-bordered planes leave room for it.
const DIRECT_MAX_COLS: usize = 32;

impl DirectConv {
    /// Row stride of a zero-bordered plane whose rows feed `cols` outputs
    /// each: room for a whole last block and the kernel's reach.
    fn row_stride(&self, cols: usize) -> usize {
        cols.div_ceil(DIRECT_MAX_COLS) * DIRECT_MAX_COLS + self.kw - 1
    }

    /// Copies the sample `x` (`c × h × w`) into `buf` as `c` planes of
    /// `(h + 2·pad) × row_stride(ow)`, the image at row and column offset
    /// `pad` and +0 everywhere else. Returns the row stride.
    fn pad_input(&self, x: &[f32], buf: &mut Vec<f32>) -> usize {
        let stride = self.row_stride(self.ow);
        let ph = self.h + 2 * self.pad;
        buf.clear();
        buf.resize(self.c * ph * stride, 0.0);
        for (ch, src) in x.chunks_exact(self.h * self.w).enumerate() {
            for (iy, row) in src.chunks_exact(self.w).enumerate() {
                let at = (ch * ph + iy + self.pad) * stride + self.pad;
                buf[at..at + self.w].copy_from_slice(row);
            }
        }
        stride
    }

    /// Copies the output gradient `dy` (`oc × oh × ow`) into `buf` as `oc`
    /// planes of `oh × row_stride(w)`, each row at column offset
    /// `kw − 1 − pad` and +0 everywhere else, so that input column `ix`
    /// reads tap `kx`'s output column at `ix + kw − 1 − kx`. Returns the
    /// row stride.
    fn pad_grad(&self, dy: &[f32], buf: &mut Vec<f32>) -> usize {
        let stride = self.row_stride(self.w);
        let offset = self.kw - 1 - self.pad;
        buf.clear();
        buf.resize(self.oc * self.oh * stride, 0.0);
        for (r, row) in dy.chunks_exact(self.ow).enumerate() {
            let at = r * stride + offset;
            buf[at..at + self.ow].copy_from_slice(row);
        }
        stride
    }
}

/// Direct stride-1 forward of one sample on the AVX2 path: `x` is the
/// sample (`c × h × w`), `wt` the kernel as `c·kh·kw × oc` (the lowering's
/// `Wᵀ`), `out` the sample's `oc × oh × ow` output, and `scratch` a reusable
/// buffer for the zero-bordered input planes.
///
/// Each output element is the dense lowering's: the dense GEMM's in-order
/// FMA chain over its taps in patch order `(ch, ky, kx)` from +0, padding
/// taps reading +0, then `+ bias`. Where `finite_weights`, a tap whose
/// input vectors are all zero is skipped (see the module docs for why that
/// keeps the bits); otherwise every tap runs, so a zero input or padding
/// facing an ∞ or NaN weight gives NaN. Returns `false`, computing
/// nothing, when the AVX2 path is unavailable (or the backend is
/// `Scalar`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_direct_forward(
    backend: KernelBackend,
    d: &DirectConv,
    x: &[f32],
    wt: &[f32],
    bias: &[f32],
    out: &mut [f32],
    finite_weights: bool,
    scratch: &mut Vec<f32>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        let stride = d.pad_input(x, scratch);
        let xpad = &scratch[..];
        // SAFETY: `use_avx2` checked that the CPU has AVX2 and FMA; the
        // kernel bounds-checks every slice it reads or writes.
        unsafe {
            let run = if finite_weights {
                avx2::conv_forward::<true>
            } else {
                avx2::conv_forward::<false>
            };
            run(d, xpad, stride, wt, bias, out);
        }
        return true;
    }
    let _ = (backend, d, x, wt, bias, out, finite_weights, scratch);
    false
}

/// Direct stride-1 input gradient of one sample on the AVX2 path: `dy` is
/// the sample's output gradient (`oc × oh × ow`), `wt` the kernel as
/// `c·kh·kw × oc`, `out` the sample's `c × h × w` input gradient, and
/// `scratch` a reusable buffer for the zero-bordered gradient planes.
///
/// Gather form of `col2im(dY·W)`: each input pixel is a sum from +0 of one
/// term per output position its taps reach, taken in reverse tap order
/// (`ky`, then `kx`, descending: `col2im`'s raster order of output
/// positions), and each term is the dense lowering's in-order FMA chain
/// over the output channels of `dy · w` from +0. Where `finite_weights`,
/// an output channel whose gradient vectors are all zero is skipped;
/// otherwise every channel runs, and the terms of output columns outside
/// the output, which the lowering never forms, are masked to +0 (they
/// chain over the planes' +0 border, which an ∞ or NaN weight turns into
/// NaN). Returns `false`, computing nothing, when the AVX2 path is
/// unavailable (or the backend is `Scalar`).
pub(crate) fn conv_direct_input_grad(
    backend: KernelBackend,
    d: &DirectConv,
    dy: &[f32],
    wt: &[f32],
    out: &mut [f32],
    finite_weights: bool,
    scratch: &mut Vec<f32>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        let stride = d.pad_grad(dy, scratch);
        let dypad = &scratch[..];
        // SAFETY: as in `conv_direct_forward`.
        unsafe {
            let run = if finite_weights {
                avx2::conv_input_grad::<true>
            } else {
                avx2::conv_input_grad::<false>
            };
            run(d, dypad, stride, wt, out);
        }
        return true;
    }
    let _ = (backend, d, dy, wt, out, finite_weights, scratch);
    false
}

/// Output channels one vector of the direct weight gradient holds: the
/// gradient's rows sit in the lanes as in the 8-row GEMM tile.
pub(crate) const WGRAD_GROUP: usize = 8;

/// Chains one task of the direct weight gradient keeps in registers, at
/// most.
const WGRAD_CHAINS: usize = 12;

/// How the direct weight gradient splits its chains into tasks.
///
/// The kernel's taps, in patch order `(ch, ky, kx)`, fall into *segments*
/// of `width` consecutive columns of one kernel row (`width` is 5 or 3
/// where that divides `kw`, else 1), so segment `s` holds taps `s·width..`
/// and its chains read one input row at `width` neighbouring offsets. One more
/// segment reads a plane of ones: its first chain is the bias gradient,
/// because `fma(g, 1, acc)` is `acc + g`, the addition `sum_axis0` makes. A
/// *task* is one group of [`WGRAD_GROUP`] output channels times one block of
/// `segs` segments (`segs · width ≤ 12` chains), the last block padded with
/// repeats of the ones segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WgradTiling {
    /// Taps per segment.
    pub width: usize,
    /// Segments per block.
    pub segs: usize,
    /// Segments over kernel taps; segment `tap_segments` reads the ones.
    pub tap_segments: usize,
    /// Blocks per output-channel group.
    pub blocks: usize,
    /// Output-channel groups.
    pub groups: usize,
}

impl WgradTiling {
    pub(crate) fn new(d: &DirectConv) -> WgradTiling {
        let width = [5, 3]
            .into_iter()
            .find(|&w| d.kw.is_multiple_of(w))
            .unwrap_or(1);
        let segs = WGRAD_CHAINS / width;
        let tap_segments = d.c * d.kh * d.kw / width;
        WgradTiling {
            width,
            segs,
            tap_segments,
            blocks: (tap_segments + 1).div_ceil(segs),
            groups: d.oc.div_ceil(WGRAD_GROUP),
        }
    }

    /// Tasks, group-major.
    pub(crate) fn tasks(&self) -> usize {
        self.groups * self.blocks
    }

    /// Accumulator floats per task: `segs × width` chains of
    /// [`WGRAD_GROUP`] lanes, slot `r`'s column `kx` at `(r·width + kx)·8`.
    pub(crate) fn task_len(&self) -> usize {
        self.segs * self.width * WGRAD_GROUP
    }

    /// `(group, block)` of task `task`.
    pub(crate) fn task(&self, task: usize) -> (usize, usize) {
        (task / self.blocks, task % self.blocks)
    }

    /// The segment in slot `slot` of block `block`: `Some(first tap)` for
    /// a tap segment, `None` for the ones segment or its padding repeats.
    pub(crate) fn segment(&self, block: usize, slot: usize) -> Option<usize> {
        let seg = block * self.segs + slot;
        (seg < self.tap_segments).then_some(seg * self.width)
    }

    /// Whether slot `slot` of block `block` is the ones segment itself.
    pub(crate) fn is_bias(&self, block: usize, slot: usize) -> bool {
        block * self.segs + slot == self.tap_segments
    }
}

/// Direct stride-1 weight and bias gradients of a whole batch on the AVX2
/// path, for the consecutive tasks of `tiling` from `first_task` on:
/// `x` is the batch (`n × c × h × w`), `dy` its output gradient (`n × oc ×
/// oh × ow`), and `acc` holds the tasks' accumulators (see
/// [`WgradTiling::task_len`]), +0 on entry. `scratch` holds one sample's
/// zero-bordered input planes, the plane of ones and the sample's gradient
/// transposed to rows of `8·groups` channels.
///
/// Every chain is the dense GEMM's in-order FMA over `(sample, oy, ox)`,
/// the order of the lowering's `g2dᵀ · cols` and `sum_axis0`, from +0,
/// padding taps multiplying the planes' +0 as `cols`' zeros are
/// multiplied. Where `finite_input`, a position whose 8 gradient entries
/// are all zero is skipped; otherwise every position runs, so a zero
/// gradient entry facing an ∞ or NaN input gives NaN. Returns `false`,
/// computing nothing, when the AVX2 path is unavailable (or the backend is
/// `Scalar`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_direct_weight_grad(
    backend: KernelBackend,
    d: &DirectConv,
    tiling: &WgradTiling,
    x: &[f32],
    dy: &[f32],
    first_task: usize,
    acc: &mut [f32],
    finite_input: bool,
    scratch: &mut Vec<f32>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(backend) {
        let stride = d.w + 2 * d.pad;
        let plane = (d.h + 2 * d.pad) * stride;
        let out_plane = d.oh * d.ow;
        let ocp = tiling.groups * WGRAD_GROUP;
        let planes_len = (d.c + 1) * plane;
        scratch.clear();
        scratch.resize(planes_len + out_plane * ocp, 0.0);
        let (xpad, grow) = scratch.split_at_mut(planes_len);
        xpad[d.c * plane..].fill(1.0);
        let (sample, grad_sample) = (d.c * d.h * d.w, d.oc * out_plane);
        for (xs, gs) in x.chunks_exact(sample).zip(dy.chunks_exact(grad_sample)) {
            // Only the interiors are written, so the borders stay +0.
            for (ch, src) in xs.chunks_exact(d.h * d.w).enumerate() {
                for (iy, row) in src.chunks_exact(d.w).enumerate() {
                    let at = ch * plane + (iy + d.pad) * stride + d.pad;
                    xpad[at..at + d.w].copy_from_slice(row);
                }
            }
            for (o, gp) in gs.chunks_exact(out_plane).enumerate() {
                for (pos, &g) in gp.iter().enumerate() {
                    grow[pos * ocp + o] = g;
                }
            }
            // SAFETY: `use_avx2` checked that the CPU has AVX2 and FMA; the
            // kernel bounds-checks every slice it reads or writes.
            unsafe {
                let run = if finite_input {
                    avx2::conv_weight_grad::<true>
                } else {
                    avx2::conv_weight_grad::<false>
                };
                run(d, tiling, xpad, stride, grow, first_task, acc);
            }
        }
        return true;
    }
    let _ = (backend, d, tiling, x, dy, first_task, acc);
    let _ = (finite_input, scratch);
    false
}

// ---------------------------------------------------------------------------
// AVX2 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The vector bodies. Every function is `unsafe` because it must only
    //! run on a CPU with AVX2 (+FMA where used); the dispatchers above
    //! guarantee that via [`super::simd_available`].

    use super::TILE_MAX_N;
    use core::arch::x86_64::*;

    const LANES: usize = 8;

    #[target_feature(enable = "avx2")]
    pub unsafe fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + LANES <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(op.add(i), v);
            i += LANES;
        }
        while i < n {
            *op.add(i) = *ap.add(i) + *bp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + LANES <= n {
            let v = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(op.add(i), v);
            i += LANES;
        }
        while i < n {
            *op.add(i) = *ap.add(i) - *bp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + LANES <= n {
            let v = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(op.add(i), v);
            i += LANES;
        }
        while i < n {
            *op.add(i) = *ap.add(i) * *bp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(acc: &mut [f32], b: &[f32]) {
        let n = acc.len();
        let (ap, bp) = (acc.as_mut_ptr(), b.as_ptr());
        let mut i = 0;
        while i + LANES <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(ap.add(i), v);
            i += LANES;
        }
        while i < n {
            *ap.add(i) += *bp.add(i);
            i += 1;
        }
    }

    /// Deliberately mul-then-add (NOT `_mm256_fmadd_ps`): the scalar axpy
    /// rounds the product before the add, and this kernel is in the
    /// bit-exact class.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(acc: &mut [f32], x: &[f32], s: f32) {
        let n = acc.len();
        let (ap, xp) = (acc.as_mut_ptr(), x.as_ptr());
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + LANES <= n {
            let prod = _mm256_mul_ps(sv, _mm256_loadu_ps(xp.add(i)));
            _mm256_storeu_ps(ap.add(i), _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), prod));
            i += LANES;
        }
        while i < n {
            *ap.add(i) += s * *xp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(a: &[f32], s: f32, out: &mut [f32]) {
        let n = out.len();
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(op.add(i), _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), sv));
            i += LANES;
        }
        while i < n {
            *op.add(i) = *ap.add(i) * s;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_assign(acc: &mut [f32], s: f32) {
        let n = acc.len();
        let ap = acc.as_mut_ptr();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(ap.add(i), _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), sv));
            i += LANES;
        }
        while i < n {
            *ap.add(i) *= s;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_scalar(a: &[f32], s: f32, out: &mut [f32]) {
        let n = out.len();
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(op.add(i), _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), sv));
            i += LANES;
        }
        while i < n {
            *op.add(i) = *ap.add(i) + s;
            i += 1;
        }
    }

    /// Clears the sign bit — bit-identical to `f32::abs` for every input
    /// including NaN payloads.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn abs_ps(v: __m256) -> __m256 {
        _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn abs(a: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(op.add(i), abs_ps(_mm256_loadu_ps(ap.add(i))));
            i += LANES;
        }
        while i < n {
            *op.add(i) = (*ap.add(i)).abs();
            i += 1;
        }
    }

    /// `(v > 0) - (v < 0)` via ordered-compare masks: NaN fails both
    /// compares and maps to 0, matching the scalar branch chain exactly.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sign_ps(v: __m256) -> __m256 {
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let pos = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ), one);
        let neg = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ), one);
        _mm256_sub_ps(pos, neg)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sign(a: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(op.add(i), sign_ps(_mm256_loadu_ps(ap.add(i))));
            i += LANES;
        }
        while i < n {
            *op.add(i) = super::scalar_sign(*ap.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn relu(a: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(op.add(i), _mm256_max_ps(_mm256_loadu_ps(ap.add(i)), zero));
            i += LANES;
        }
        while i < n {
            *op.add(i) = (*ap.add(i)).max(0.0);
            i += 1;
        }
    }

    /// `relu`'s `max(v, +0)` in place; with a mask, the movemask of the
    /// ordered `r > 0` compare is the byte of each 8 values.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_in_place(a: &mut [f32], mask: Option<&mut [u8]>) {
        let n = a.len();
        let p = a.as_mut_ptr();
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        match mask {
            Some(mask) => {
                while i + LANES <= n {
                    let r = _mm256_max_ps(_mm256_loadu_ps(p.add(i)), zero);
                    _mm256_storeu_ps(p.add(i), r);
                    let positive = _mm256_cmp_ps(r, zero, _CMP_GT_OQ);
                    mask[i / LANES] = _mm256_movemask_ps(positive) as u8;
                    i += LANES;
                }
                if i < n {
                    mask[i / LANES] = super::relu_byte(&mut a[i..]);
                }
            }
            None => {
                while i + LANES <= n {
                    _mm256_storeu_ps(p.add(i), _mm256_max_ps(_mm256_loadu_ps(p.add(i)), zero));
                    i += LANES;
                }
                a[i..].iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }
    }

    /// Spreads each mask byte over 8 lanes (lane `j` all-ones where bit
    /// `j` is set) and ANDs it into the gradient: a clear bit leaves `+0`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_grad_in_place(g: &mut [f32], mask: &[u8]) {
        let n = g.len();
        let p = g.as_mut_ptr();
        let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let mut i = 0;
        while i + LANES <= n {
            let byte = _mm256_set1_epi32(i32::from(mask[i / LANES]));
            let keep = _mm256_cmpeq_epi32(_mm256_and_si256(byte, bits), bits);
            let kept = _mm256_and_ps(_mm256_loadu_ps(p.add(i)), _mm256_castsi256_ps(keep));
            _mm256_storeu_ps(p.add(i), kept);
            i += LANES;
        }
        if i < n {
            super::relu_grad_byte(&mut g[i..], mask[i / LANES]);
        }
    }

    /// 2×2 stride-2 max pooling of `planes` planes of `h × w` (see
    /// `super::max_pool_2x2`). Each output row's groups of 4 windows
    /// ("quads") are paired, across rows and planes, into one 8-lane step
    /// (an unpaired last quad with itself); a row's last `ow % 4` windows
    /// take `conv::window_max`, the scalar scan.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_pool_2x2(
        input: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        mut argmax: Option<&mut [u8]>,
    ) {
        let (oh, ow) = (h / 2, w / 2);
        let quads = ow / 4;
        // (input index of a quad's first window, output index of its first
        // output) of a quad waiting for its pair.
        let mut pending: Option<(usize, usize)> = None;
        for plane in 0..planes {
            for oy in 0..oh {
                let (row, out_row) = ((plane * h + 2 * oy) * w, (plane * oh + oy) * ow);
                for q in 0..quads {
                    let quad = (row + 8 * q, out_row + 4 * q);
                    match pending.take() {
                        None => pending = Some(quad),
                        Some(first) => {
                            pool_quads(input, w, first, quad, out, argmax.as_deref_mut());
                        }
                    }
                }
                for ox in 4 * quads..ow {
                    let (best, off) = crate::conv::window_max(input, row + 2 * ox, w, 2);
                    out[out_row + ox] = best;
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax[out_row + ox] = off;
                    }
                }
            }
        }
        if let Some(last) = pending {
            pool_quads(input, w, last, last, out, argmax);
        }
    }

    /// Two quads `a` and `b` (input index of the first window's top-left
    /// tap, output index) of a 2×2 stride-2 pool over rows `w` wide: the
    /// window scan's four taps in order, each replacing the running
    /// maximum (and its offset) where the ordered compare `tap > best`
    /// holds, so the first maximum wins and a NaN never replaces one.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; every access is bounds-checked.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pool_quads(
        input: &[f32],
        w: usize,
        a: (usize, usize),
        b: (usize, usize),
        out: &mut [f32],
        argmax: Option<&mut [u8]>,
    ) {
        assert!(a.0.max(b.0) + w + LANES <= input.len() && a.1.max(b.1) + 4 <= out.len());
        let ip = input.as_ptr();
        let (a0, a1) = (
            _mm256_loadu_ps(ip.add(a.0)),
            _mm256_loadu_ps(ip.add(a.0 + w)),
        );
        let (b0, b1) = (
            _mm256_loadu_ps(ip.add(b.0)),
            _mm256_loadu_ps(ip.add(b.0 + w)),
        );
        // Taps (0,0), (0,1), (1,0), (1,1); lanes [a0 a1 b0 b1 | a2 a3 b2 b3]
        // for windows a0..a3 of quad `a` and b0..b3 of quad `b`.
        let taps = [
            _mm256_shuffle_ps::<0x88>(a0, b0),
            _mm256_shuffle_ps::<0xDD>(a0, b0),
            _mm256_shuffle_ps::<0x88>(a1, b1),
            _mm256_shuffle_ps::<0xDD>(a1, b1),
        ];
        let mut best = taps[0];
        let mut off = _mm256_setzero_si256();
        for (k, &tap) in taps.iter().enumerate().skip(1) {
            let gt = _mm256_cmp_ps(tap, best, _CMP_GT_OQ);
            best = _mm256_blendv_ps(best, tap, gt);
            off = _mm256_blendv_epi8(off, _mm256_set1_epi32(k as i32), _mm256_castps_si256(gt));
        }
        // Lanes back to [a0 a1 a2 a3 | b0 b1 b2 b3].
        let best = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(best)));
        let op = out.as_mut_ptr();
        _mm_storeu_ps(op.add(a.1), _mm256_castps256_ps128(best));
        _mm_storeu_ps(op.add(b.1), _mm256_extractf128_ps::<1>(best));
        if let Some(argmax) = argmax {
            assert!(a.1.max(b.1) + 4 <= argmax.len());
            let off = _mm256_permute4x64_epi64::<0xD8>(off);
            // The low byte of each offset, packed into each half's dword 0.
            #[rustfmt::skip]
            let low_bytes = _mm256_setr_epi8(
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            );
            let packed = _mm256_shuffle_epi8(off, low_bytes);
            let ap = argmax.as_mut_ptr();
            (ap.add(a.1) as *mut i32).write_unaligned(_mm256_extract_epi32::<0>(packed));
            (ap.add(b.1) as *mut i32).write_unaligned(_mm256_extract_epi32::<4>(packed));
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clamp_ps(v: __m256, lo: __m256, hi: __m256) -> __m256 {
        _mm256_min_ps(_mm256_max_ps(v, lo), hi)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn clamp(a: &[f32], lo: f32, hi: f32, out: &mut [f32]) {
        let n = out.len();
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        let (lov, hiv) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(op.add(i), clamp_ps(_mm256_loadu_ps(ap.add(i)), lov, hiv));
            i += LANES;
        }
        while i < n {
            *op.add(i) = (*ap.add(i)).clamp(lo, hi);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fused_sign_step_clamp(x: &mut [f32], g: &[f32], step: f32, lo: f32, hi: f32) {
        let n = x.len();
        let (xp, gp) = (x.as_mut_ptr(), g.as_ptr());
        let stepv = _mm256_set1_ps(step);
        let (lov, hiv) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut i = 0;
        while i + LANES <= n {
            let delta = _mm256_mul_ps(stepv, sign_ps(_mm256_loadu_ps(gp.add(i))));
            let stepped = _mm256_add_ps(_mm256_loadu_ps(xp.add(i)), delta);
            _mm256_storeu_ps(xp.add(i), clamp_ps(stepped, lov, hiv));
            i += LANES;
        }
        while i < n {
            let xv = *xp.add(i) + step * super::scalar_sign(*gp.add(i));
            *xp.add(i) = xv.clamp(lo, hi);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn fused_grad_step_clamp(
        x: &mut [f32],
        g: &[f32],
        scale: f32,
        ball: f32,
        lo: f32,
        hi: f32,
    ) {
        let n = x.len();
        let (xp, gp) = (x.as_mut_ptr(), g.as_ptr());
        let scalev = _mm256_set1_ps(scale);
        let (nballv, ballv) = (_mm256_set1_ps(-ball), _mm256_set1_ps(ball));
        let (lov, hiv) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut i = 0;
        while i + LANES <= n {
            let delta = clamp_ps(
                _mm256_mul_ps(scalev, _mm256_loadu_ps(gp.add(i))),
                nballv,
                ballv,
            );
            let stepped = _mm256_add_ps(_mm256_loadu_ps(xp.add(i)), delta);
            _mm256_storeu_ps(xp.add(i), clamp_ps(stepped, lov, hiv));
            i += LANES;
        }
        while i < n {
            let delta = (scale * *gp.add(i)).clamp(-ball, ball);
            *xp.add(i) = (*xp.add(i) + delta).clamp(lo, hi);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn fused_project_step_clamp(
        x: &mut [f32],
        g: &[f32],
        origin: &[f32],
        step: f32,
        eps: f32,
        lo: f32,
        hi: f32,
    ) {
        let n = x.len();
        let (xp, gp, op) = (x.as_mut_ptr(), g.as_ptr(), origin.as_ptr());
        let stepv = _mm256_set1_ps(step);
        let epsv = _mm256_set1_ps(eps);
        let (lov, hiv) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
        let mut i = 0;
        while i + LANES <= n {
            let delta = _mm256_mul_ps(stepv, sign_ps(_mm256_loadu_ps(gp.add(i))));
            let stepped = _mm256_add_ps(_mm256_loadu_ps(xp.add(i)), delta);
            let ov = _mm256_loadu_ps(op.add(i));
            let ball = clamp_ps(stepped, _mm256_sub_ps(ov, epsv), _mm256_add_ps(ov, epsv));
            _mm256_storeu_ps(xp.add(i), clamp_ps(ball, lov, hiv));
            i += LANES;
        }
        while i < n {
            let ov = *op.add(i);
            let stepped = *xp.add(i) + step * super::scalar_sign(*gp.add(i));
            *xp.add(i) = stepped.clamp(ov - eps, ov + eps).clamp(lo, hi);
            i += 1;
        }
    }

    /// Sums the 8 lanes of `v` in a fixed (deterministic) order.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_ps(v: __m256) -> f32 {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        lanes.iter().sum()
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum(a: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 2 * LANES <= n {
            acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(ap.add(i)));
            acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(ap.add(i + LANES)));
            i += 2 * LANES;
        }
        while i + LANES <= n {
            acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(ap.add(i)));
            i += LANES;
        }
        let mut total = hsum_ps(_mm256_add_ps(acc0, acc1));
        while i < n {
            total += *ap.add(i);
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sumsq(a: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 2 * LANES <= n {
            let v0 = _mm256_loadu_ps(ap.add(i));
            let v1 = _mm256_loadu_ps(ap.add(i + LANES));
            acc0 = _mm256_fmadd_ps(v0, v0, acc0);
            acc1 = _mm256_fmadd_ps(v1, v1, acc1);
            i += 2 * LANES;
        }
        while i + LANES <= n {
            let v = _mm256_loadu_ps(ap.add(i));
            acc0 = _mm256_fmadd_ps(v, v, acc0);
            i += LANES;
        }
        let mut total = hsum_ps(_mm256_add_ps(acc0, acc1));
        while i < n {
            let v = *ap.add(i);
            total += v * v;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_abs(a: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 2 * LANES <= n {
            acc0 = _mm256_add_ps(acc0, abs_ps(_mm256_loadu_ps(ap.add(i))));
            acc1 = _mm256_add_ps(acc1, abs_ps(_mm256_loadu_ps(ap.add(i + LANES))));
            i += 2 * LANES;
        }
        while i + LANES <= n {
            acc0 = _mm256_add_ps(acc0, abs_ps(_mm256_loadu_ps(ap.add(i))));
            i += LANES;
        }
        let mut total = hsum_ps(_mm256_add_ps(acc0, acc1));
        while i < n {
            total += (*ap.add(i)).abs();
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn max(a: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i + LANES <= n {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(ap.add(i)));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        while i < n {
            m = m.max(*ap.add(i));
            i += 1;
        }
        m
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn min(a: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let mut acc = _mm256_set1_ps(f32::INFINITY);
        let mut i = 0;
        while i + LANES <= n {
            acc = _mm256_min_ps(acc, _mm256_loadu_ps(ap.add(i)));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(f32::INFINITY, |m, &v| m.min(v));
        while i < n {
            m = m.min(*ap.add(i));
            i += 1;
        }
        m
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn max_abs(a: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + LANES <= n {
            acc = _mm256_max_ps(acc, abs_ps(_mm256_loadu_ps(ap.add(i))));
            i += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        while i < n {
            m = m.max((*ap.add(i)).abs());
            i += 1;
        }
        m
    }

    /// One row × one panel whose rows lie `stride` apart: 4 ymm
    /// accumulators cover a 32-wide output stripe; each `k` step
    /// broadcasts `a_row[kk]` and FMAs it against the panel row.
    /// Remainders narrow to one ymm, then a scalar `mul_add` tail (still
    /// contracted, matching the vector lanes).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_row_panel(
        a_row: &[f32],
        panel: &[f32],
        stride: usize,
        out_row: &mut [f32],
        w: usize,
    ) {
        // Every pointer read below stays inside `panel`.
        assert!(a_row.is_empty() || panel.len() >= (a_row.len() - 1) * stride + w);
        let pp = panel.as_ptr();
        let op = out_row.as_mut_ptr();
        let mut j = 0;
        while j + 4 * LANES <= w {
            let mut acc0 = _mm256_loadu_ps(op.add(j));
            let mut acc1 = _mm256_loadu_ps(op.add(j + LANES));
            let mut acc2 = _mm256_loadu_ps(op.add(j + 2 * LANES));
            let mut acc3 = _mm256_loadu_ps(op.add(j + 3 * LANES));
            for (kk, &av) in a_row.iter().enumerate() {
                let avv = _mm256_set1_ps(av);
                let base = pp.add(kk * stride + j);
                acc0 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(base), acc0);
                acc1 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(base.add(LANES)), acc1);
                acc2 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(base.add(2 * LANES)), acc2);
                acc3 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(base.add(3 * LANES)), acc3);
            }
            _mm256_storeu_ps(op.add(j), acc0);
            _mm256_storeu_ps(op.add(j + LANES), acc1);
            _mm256_storeu_ps(op.add(j + 2 * LANES), acc2);
            _mm256_storeu_ps(op.add(j + 3 * LANES), acc3);
            j += 4 * LANES;
        }
        while j + LANES <= w {
            let mut acc = _mm256_loadu_ps(op.add(j));
            for (kk, &av) in a_row.iter().enumerate() {
                let bv = _mm256_loadu_ps(pp.add(kk * stride + j));
                acc = _mm256_fmadd_ps(_mm256_set1_ps(av), bv, acc);
            }
            _mm256_storeu_ps(op.add(j), acc);
            j += LANES;
        }
        if j < w {
            for (kk, &av) in a_row.iter().enumerate() {
                let row = &panel[kk * stride..kk * stride + w];
                for jj in j..w {
                    out_row[jj] = av.mul_add(row[jj], out_row[jj]);
                }
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_dense_rows(
        a: &[f32],
        b: &[f32],
        packed: bool,
        out_band: &mut [f32],
        row_start: usize,
        k: usize,
        n: usize,
        panel: usize,
    ) {
        let rows = out_band.len() / n;
        for j0 in (0..n).step_by(panel) {
            let w = panel.min(n - j0);
            let (base, stride) = crate::ops::panel_at(packed, k, n, j0, w);
            let p = &b[base..];
            for r in 0..rows {
                let a_row = &a[(row_start + r) * k..(row_start + r + 1) * k];
                let out_row = &mut out_band[r * n + j0..r * n + j0 + w];
                gemm_row_panel(a_row, p, stride, out_row, w);
            }
        }
    }

    /// Depth of the A tile transposed onto the stack at a time: 8 rows ×
    /// 128 f32 is 4 KiB, and no heap allocation is made.
    const TILE_K: usize = 128;

    /// The 8-row tile over the band's full 8-row groups; returns the rows
    /// it computed. See [`super::gemm_tile_rows`] for the per-element
    /// arithmetic.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_tile_rows(
        a: &[f32],
        b: &[f32],
        out_band: &mut [f32],
        row_start: usize,
        k: usize,
        n: usize,
    ) -> usize {
        assert!(
            n > 0 && n < TILE_MAX_N,
            "tile output width {n} out of 1..{TILE_MAX_N}"
        );
        let tiled = out_band.len() / n / LANES * LANES;
        // `at[kk * LANES + r]` = a[r][k0 + kk]; `acc[j]` holds column j of
        // the 8 rows, lane r = row r.
        let mut at = [0.0f32; TILE_K * LANES];
        let mut acc = [[0.0f32; LANES]; TILE_MAX_N];
        for r0 in (0..tiled).step_by(LANES) {
            for col in &mut acc[..n] {
                *col = [0.0; LANES];
            }
            for k0 in (0..k).step_by(TILE_K) {
                let kb = TILE_K.min(k - k0);
                let a_tile = &a[(row_start + r0) * k + k0..];
                let mut kk0 = 0;
                while kk0 + LANES <= kb {
                    transpose_8x8(&a_tile[kk0..], k, &mut at[kk0 * LANES..]);
                    kk0 += LANES;
                }
                for r in 0..LANES {
                    for kk in kk0..kb {
                        at[kk * LANES + r] = a_tile[r * k + kk];
                    }
                }
                let b_block = &b[k0 * n..(k0 + kb) * n];
                let mut j0 = 0;
                while j0 < n {
                    let w = LANES.min(n - j0);
                    let cols = &mut acc[j0..j0 + w];
                    match w {
                        1 => tile_cols::<1>(&at, kb, b_block, n, j0, cols),
                        2 => tile_cols::<2>(&at, kb, b_block, n, j0, cols),
                        3 => tile_cols::<3>(&at, kb, b_block, n, j0, cols),
                        4 => tile_cols::<4>(&at, kb, b_block, n, j0, cols),
                        5 => tile_cols::<5>(&at, kb, b_block, n, j0, cols),
                        6 => tile_cols::<6>(&at, kb, b_block, n, j0, cols),
                        7 => tile_cols::<7>(&at, kb, b_block, n, j0, cols),
                        _ => tile_cols::<8>(&at, kb, b_block, n, j0, cols),
                    }
                    j0 += w;
                }
            }
            for r in 0..LANES {
                let out_row = &mut out_band[(r0 + r) * n..(r0 + r + 1) * n];
                for (o, col) in out_row.iter_mut().zip(&acc[..n]) {
                    *o = col[r];
                }
            }
        }
        tiled
    }

    /// Copies the 8 × 8 block at the start of `src` (rows `stride` apart)
    /// to the start of `dst` transposed: `dst[c * 8 + r] = src[r * stride
    /// + c]`. Pure data movement, so every bit pattern survives.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_8x8(src: &[f32], stride: usize, dst: &mut [f32]) {
        // Bounds-checked once here, so the vector loads and stores below
        // stay inside both slices.
        let src = &src[..(LANES - 1) * stride + LANES];
        let dst = &mut dst[..LANES * LANES];
        let r: [__m256; LANES] =
            core::array::from_fn(|i| _mm256_loadu_ps(src.as_ptr().add(i * stride)));
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        let cols = [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ];
        for (c, v) in cols.into_iter().enumerate() {
            _mm256_storeu_ps(dst.as_mut_ptr().add(c * LANES), v);
        }
    }

    /// Columns `j0..j0 + W` of one tile over one `k` block of `kb` steps:
    /// `W` live accumulators, loaded from and stored back to `cols`, and
    /// per `k` step one load of the transposed `a` column and `W`
    /// broadcasts from `b_block` (`kb` rows of `n`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_cols<const W: usize>(
        at: &[f32; TILE_K * LANES],
        kb: usize,
        b_block: &[f32],
        n: usize,
        j0: usize,
        cols: &mut [[f32; LANES]],
    ) {
        // Every pointer read below stays inside `at` and `b_block`.
        assert!(cols.len() == W && j0 + W <= n && kb <= TILE_K && b_block.len() >= kb * n);
        let mut v = [_mm256_setzero_ps(); W];
        for (vj, col) in v.iter_mut().zip(cols.iter()) {
            *vj = _mm256_loadu_ps(col.as_ptr());
        }
        for kk in 0..kb {
            let av = _mm256_loadu_ps(at.as_ptr().add(kk * LANES));
            let brow = b_block.as_ptr().add(kk * n + j0);
            for (j, vj) in v.iter_mut().enumerate() {
                *vj = _mm256_fmadd_ps(av, _mm256_broadcast_ss(&*brow.add(j)), *vj);
            }
        }
        for (vj, col) in v.iter().zip(cols.iter_mut()) {
            _mm256_storeu_ps(col.as_mut_ptr(), *vj);
        }
    }

    // -----------------------------------------------------------------------
    // Direct stride-1 convolution
    // -----------------------------------------------------------------------

    use super::DirectConv;

    /// Whether every lane of `v` is +0 or −0 (NaN is not).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn all_zero(v: __m256) -> bool {
        _mm256_testz_si256(_mm256_castps_si256(v), _mm256_set1_epi32(i32::MAX)) != 0
    }

    /// Stores the first `min(8, dst.len())` lanes of `v` to `dst`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_lanes(dst: &mut [f32], v: __m256) {
        if dst.len() >= LANES {
            _mm256_storeu_ps(dst.as_mut_ptr(), v);
        } else {
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), v);
            dst.copy_from_slice(&lanes[..dst.len()]);
        }
    }

    /// The block shape for rows of `cols` outputs over `channels`
    /// channels: vectors per block `V` (1, 2 or 4, so at most
    /// `DIRECT_MAX_COLS` columns) and channels per block `B`, with `B·V`
    /// about `regs` live chains (`B ≤ 8`) and the channels split into
    /// blocks of balanced size. Four vectors only where two would leave
    /// chains unused: wide rows over few channels.
    fn blocking(cols: usize, channels: usize, regs: usize) -> (usize, usize) {
        let v = if cols <= LANES {
            1
        } else if cols <= 2 * LANES || 2 * channels >= regs {
            2
        } else {
            4
        };
        let most = (regs / v).clamp(1, 8);
        (v, channels.div_ceil(channels.div_ceil(most)))
    }

    /// Calls `$f::<V, B, FINITE>(args)` for the block shape `(v, b)` from
    /// `blocking`; the arms list every shape it can return.
    macro_rules! block_shapes {
        ($f:ident::<$finite:ident>, ($v:expr, $b:expr), $args:tt,
         $(($vv:literal, [$($bb:literal),*])),*) => {
            match ($v, $b) {
                $($(($vv, $bb) => $f::<$vv, $bb, $finite> $args,)*)*
                _ => unreachable!("no direct-convolution block of shape {:?}", ($v, $b)),
            }
        };
    }

    /// The forward over one sample; see [`super::conv_direct_forward`].
    /// `xpad` holds the zero-bordered input planes, rows `stride` apart.
    ///
    /// Blocks of `B` output channels × `V` vectors of 8 output columns of
    /// one output row keep `B·V ≤ 12` accumulators live: each tap loads
    /// `V` input vectors and broadcasts `B` weights.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn conv_forward<const FINITE: bool>(
        d: &DirectConv,
        xpad: &[f32],
        stride: usize,
        wt: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let (v, b_max) = blocking(d.ow, d.oc, 12);
        for o0 in (0..d.oc).step_by(b_max) {
            let b = b_max.min(d.oc - o0);
            for oy in 0..d.oh {
                for ox0 in (0..d.ow).step_by(v * LANES) {
                    block_shapes!(
                        forward_block::<FINITE>,
                        (v, b),
                        (d, xpad, stride, wt, bias, out, o0, oy, ox0),
                        (1, [1, 2, 3, 4, 5, 6, 7, 8]),
                        (2, [1, 2, 3, 4, 5, 6]),
                        (4, [1, 2, 3])
                    )
                }
            }
        }
    }

    /// Output channels `o0..o0 + B`, output row `oy`, output columns
    /// `ox0..ox0 + 8·V` (those below `ow` are stored). `FINITE`: every
    /// weight is finite, so a tap whose `V` input vectors are all zero is
    /// skipped.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn forward_block<const V: usize, const B: usize, const FINITE: bool>(
        d: &DirectConv,
        xpad: &[f32],
        stride: usize,
        wt: &[f32],
        bias: &[f32],
        out: &mut [f32],
        o0: usize,
        oy: usize,
        ox0: usize,
    ) {
        let ph = d.h + 2 * d.pad;
        // Every pointer read below stays inside `xpad` and `wt`.
        assert!(
            o0 + B <= d.oc
                && oy + d.kh <= ph
                && ox0 + V * LANES + d.kw - 1 <= stride
                && xpad.len() >= d.c * ph * stride
                && wt.len() >= d.c * d.kh * d.kw * d.oc
        );
        let zero = _mm256_setzero_ps();
        let mut acc = [[zero; V]; B];
        let mut x = [zero; V];
        let mut w = wt.as_ptr().add(o0);
        for ch in 0..d.c {
            for ky in 0..d.kh {
                let row = xpad.as_ptr().add((ch * ph + oy + ky) * stride + ox0);
                for kx in 0..d.kw {
                    let mut bits = zero;
                    for (u, xu) in x.iter_mut().enumerate() {
                        *xu = _mm256_loadu_ps(row.add(kx + u * LANES));
                        bits = _mm256_or_ps(bits, *xu);
                    }
                    if !FINITE || !all_zero(bits) {
                        for (j, accj) in acc.iter_mut().enumerate() {
                            let wv = _mm256_broadcast_ss(&*w.add(j));
                            for (a, &xu) in accj.iter_mut().zip(&x) {
                                *a = _mm256_fmadd_ps(xu, wv, *a);
                            }
                        }
                    }
                    w = w.add(d.oc);
                }
            }
        }
        let plane = d.oh * d.ow;
        for (j, accj) in acc.iter().enumerate() {
            let bv = _mm256_set1_ps(bias[o0 + j]);
            let dst = &mut out[(o0 + j) * plane + oy * d.ow..][..d.ow];
            for (u, &a) in accj.iter().enumerate() {
                let x0 = ox0 + u * LANES;
                if x0 < d.ow {
                    let end = (x0 + LANES).min(d.ow);
                    store_lanes(&mut dst[x0..end], _mm256_add_ps(a, bv));
                }
            }
        }
    }

    /// The input gradient over one sample; see
    /// [`super::conv_direct_input_grad`]. `dypad` holds the zero-bordered
    /// gradient planes, rows `stride` apart.
    ///
    /// Blocks of `B` input channels × `V` vectors of 8 input columns of one
    /// input row keep `B·V ≤ 6` term chains and as many sums live: each
    /// output channel's step loads `V` gradient vectors, shared by the `B`
    /// channels, and broadcasts `B` weights.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn conv_input_grad<const FINITE: bool>(
        d: &DirectConv,
        dypad: &[f32],
        stride: usize,
        wt: &[f32],
        out: &mut [f32],
    ) {
        let (v, b_max) = blocking(d.w, d.c, 6);
        for ch0 in (0..d.c).step_by(b_max) {
            let b = b_max.min(d.c - ch0);
            for iy in 0..d.h {
                for ix0 in (0..d.w).step_by(v * LANES) {
                    block_shapes!(
                        input_grad_block::<FINITE>,
                        (v, b),
                        (d, dypad, stride, wt, out, ch0, iy, ix0),
                        (1, [1, 2, 3, 4, 5, 6]),
                        (2, [1, 2, 3]),
                        (4, [1])
                    )
                }
            }
        }
    }

    /// Input channels `ch0..ch0 + B`, input row `iy`, input columns
    /// `ix0..ix0 + 8·V` (those below `w` are stored). `FINITE`: every
    /// weight is finite, so an output channel whose `V` gradient vectors
    /// are all zero is skipped; otherwise the terms of output columns
    /// outside the output are masked to +0.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn input_grad_block<const V: usize, const B: usize, const FINITE: bool>(
        d: &DirectConv,
        dypad: &[f32],
        stride: usize,
        wt: &[f32],
        out: &mut [f32],
        ch0: usize,
        iy: usize,
        ix0: usize,
    ) {
        let taps = d.kh * d.kw;
        let plane = d.oh * stride;
        // Every pointer read below stays inside `dypad` and `wt`.
        assert!(
            ch0 + B <= d.c
                && ix0 + V * LANES + d.kw - 1 <= stride
                && dypad.len() >= d.oc * plane
                && wt.len() >= d.c * taps * d.oc
        );
        let zero = _mm256_setzero_ps();
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut sum = [[zero; V]; B];
        let mut g = [zero; V];
        for ky in (0..d.kh).rev() {
            // Output row `iy + pad − ky`; a row outside the output forms
            // no term.
            let oy = (iy + d.pad).wrapping_sub(ky);
            if oy >= d.oh {
                continue;
            }
            for kx in (0..d.kw).rev() {
                let src = dypad.as_ptr().add(oy * stride + ix0 + d.kw - 1 - kx);
                let w = wt.as_ptr().add((ch0 * taps + ky * d.kw + kx) * d.oc);
                let mut term = [[zero; V]; B];
                for o in 0..d.oc {
                    let mut bits = zero;
                    for (u, gu) in g.iter_mut().enumerate() {
                        *gu = _mm256_loadu_ps(src.add(o * plane + u * LANES));
                        bits = _mm256_or_ps(bits, *gu);
                    }
                    if FINITE && all_zero(bits) {
                        continue;
                    }
                    for (j, tj) in term.iter_mut().enumerate() {
                        let wv = _mm256_broadcast_ss(&*w.add(j * taps * d.oc + o));
                        for (t, &gu) in tj.iter_mut().zip(&g) {
                            *t = _mm256_fmadd_ps(gu, wv, *t);
                        }
                    }
                }
                if !FINITE {
                    // Keep out the terms of output columns outside
                    // `0..ow`: chains over the +0 border, which an ∞ or
                    // NaN weight turns into NaN.
                    for (u, _) in g.iter().enumerate() {
                        let ox = (ix0 + u * LANES + d.pad) as i32 - kx as i32;
                        let ox = _mm256_add_epi32(_mm256_set1_epi32(ox), lane);
                        let inside = _mm256_and_si256(
                            _mm256_cmpgt_epi32(ox, _mm256_set1_epi32(-1)),
                            _mm256_cmpgt_epi32(_mm256_set1_epi32(d.ow as i32), ox),
                        );
                        for tj in term.iter_mut() {
                            tj[u] = _mm256_and_ps(tj[u], _mm256_castsi256_ps(inside));
                        }
                    }
                }
                for (sj, tj) in sum.iter_mut().zip(&term) {
                    for (s, &t) in sj.iter_mut().zip(tj) {
                        *s = _mm256_add_ps(*s, t);
                    }
                }
            }
        }
        let plane_in = d.h * d.w;
        for (j, sj) in sum.iter().enumerate() {
            let dst = &mut out[(ch0 + j) * plane_in + iy * d.w..][..d.w];
            for (u, &s) in sj.iter().enumerate() {
                let x0 = ix0 + u * LANES;
                if x0 < d.w {
                    let end = (x0 + LANES).min(d.w);
                    store_lanes(&mut dst[x0..end], s);
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Direct stride-1 weight gradient
    // -----------------------------------------------------------------------

    use super::{WgradTiling, WGRAD_GROUP};

    /// One sample's share of the band of tasks from `first_task` on; see
    /// [`super::conv_direct_weight_grad`]. `xpad` holds the sample's
    /// zero-bordered planes and the plane of ones, rows `stride` apart, and
    /// `grow` its gradient as rows of `8·groups` channels.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn conv_weight_grad<const FINITE: bool>(
        d: &DirectConv,
        t: &WgradTiling,
        xpad: &[f32],
        stride: usize,
        grow: &[f32],
        first_task: usize,
        acc: &mut [f32],
    ) {
        let run = match t.width {
            1 => weight_grad_tasks::<1, 12, FINITE>,
            3 => weight_grad_tasks::<3, 4, FINITE>,
            5 => weight_grad_tasks::<5, 2, FINITE>,
            w => unreachable!("no weight-gradient segment of width {w}"),
        };
        run(d, t, xpad, stride, grow, first_task, acc);
    }

    /// [`conv_weight_grad`] for segments of `W` taps, `R` per block.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn weight_grad_tasks<const W: usize, const R: usize, const FINITE: bool>(
        d: &DirectConv,
        t: &WgradTiling,
        xpad: &[f32],
        stride: usize,
        grow: &[f32],
        first_task: usize,
        acc: &mut [f32],
    ) {
        debug_assert!(t.width == W && t.segs == R);
        let plane = (d.h + 2 * d.pad) * stride;
        let ocp = t.groups * WGRAD_GROUP;
        for (i, task_acc) in acc.chunks_exact_mut(t.task_len()).enumerate() {
            let (group, block) = t.task(first_task + i);
            // Each segment's tap (ky, kx0) in channel plane ch, or the
            // plane of ones at index c.
            let offsets: [usize; R] = core::array::from_fn(|slot| match t.segment(block, slot) {
                Some(kk) => {
                    let (ch, ky, kx) = (kk / (d.kh * d.kw), kk / d.kw % d.kh, kk % d.kw);
                    ch * plane + ky * stride + kx
                }
                None => d.c * plane,
            });
            weight_grad_block::<W, R, FINITE>(
                d, xpad, stride, &offsets, grow, ocp, group, task_acc,
            );
        }
    }

    /// Output channels `8·group..` of the `R × W` chains whose segments
    /// start at `offsets` in `xpad`, over one sample's output positions in
    /// order: per position one load of the gradient row's 8 channels and
    /// one broadcast per chain. `FINITE`: every input is finite, so a
    /// position whose 8 gradient entries are all zero is skipped.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn weight_grad_block<const W: usize, const R: usize, const FINITE: bool>(
        d: &DirectConv,
        xpad: &[f32],
        stride: usize,
        offsets: &[usize; R],
        grow: &[f32],
        ocp: usize,
        group: usize,
        acc: &mut [f32],
    ) {
        // The furthest input offset a chain reads past its segment start.
        let reach = (d.oh - 1) * stride + d.ow - 1 + W - 1;
        // Every pointer read below stays inside `xpad`, `grow` and `acc`.
        assert!(
            offsets.iter().all(|&o| o + reach < xpad.len())
                && (group + 1) * WGRAD_GROUP <= ocp
                && grow.len() >= d.oh * d.ow * ocp
                && acc.len() >= R * W * LANES
        );
        let zero = _mm256_setzero_ps();
        let mut a = [[zero; W]; R];
        for (r, ar) in a.iter_mut().enumerate() {
            for (kx, akx) in ar.iter_mut().enumerate() {
                *akx = _mm256_loadu_ps(acc.as_ptr().add((r * W + kx) * LANES));
            }
        }
        let rows: [*const f32; R] = core::array::from_fn(|r| xpad.as_ptr().add(offsets[r]));
        let mut g = grow.as_ptr().add(group * WGRAD_GROUP);
        for oy in 0..d.oh {
            for ox in 0..d.ow {
                let gv = _mm256_loadu_ps(g);
                g = g.add(ocp);
                if FINITE && all_zero(gv) {
                    continue;
                }
                let at = oy * stride + ox;
                for (row, ar) in rows.iter().zip(a.iter_mut()) {
                    for (kx, akx) in ar.iter_mut().enumerate() {
                        let xv = _mm256_broadcast_ss(&*row.add(at + kx));
                        *akx = _mm256_fmadd_ps(gv, xv, *akx);
                    }
                }
            }
        }
        for (r, ar) in a.iter().enumerate() {
            for (kx, &akx) in ar.iter().enumerate() {
                _mm256_storeu_ps(acc.as_mut_ptr().add((r * W + kx) * LANES), akx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill covering sign changes, zeros and a
    /// wide magnitude range (no RNG dependency in the unit tests).
    fn fill(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                let v = (h % 2001) as f32 / 1000.0 - 1.0;
                if h.is_multiple_of(17) {
                    0.0
                } else {
                    v * ((h % 5) as f32 + 0.25)
                }
            })
            .collect()
    }

    /// Lengths straddling the 8-lane width, the 32-wide unroll and odd
    /// tails.
    const LENS: &[usize] = &[0, 1, 3, 7, 8, 9, 15, 16, 31, 32, 33, 100, 1023];

    #[test]
    fn env_override_names_roundtrip() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Simd.name(), "simd");
    }

    #[test]
    fn elementwise_bit_exact_across_backends() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this machine");
            return;
        }
        for &n in LENS {
            let a = fill(n, 1);
            let b = fill(n, 2);
            let mut s = vec![0.0f32; n];
            let mut v = vec![0.0f32; n];

            type BinKernel = fn(KernelBackend, &[f32], &[f32], &mut [f32]);
            let cases: &[BinKernel] = &[add_slices, sub_slices, mul_slices];
            for case in cases {
                case(KernelBackend::Scalar, &a, &b, &mut s);
                case(KernelBackend::Simd, &a, &b, &mut v);
                assert_bits_eq(&s, &v);
            }

            sign_slices(KernelBackend::Scalar, &a, &mut s);
            sign_slices(KernelBackend::Simd, &a, &mut v);
            assert_bits_eq(&s, &v);

            clamp_slices(KernelBackend::Scalar, &a, -0.5, 0.75, &mut s);
            clamp_slices(KernelBackend::Simd, &a, -0.5, 0.75, &mut v);
            assert_bits_eq(&s, &v);

            relu_slices(KernelBackend::Scalar, &a, &mut s);
            relu_slices(KernelBackend::Simd, &a, &mut v);
            assert_bits_eq(&s, &v);

            abs_slices(KernelBackend::Scalar, &a, &mut s);
            abs_slices(KernelBackend::Simd, &a, &mut v);
            assert_bits_eq(&s, &v);

            scale_slices(KernelBackend::Scalar, &a, 0.3, &mut s);
            scale_slices(KernelBackend::Simd, &a, 0.3, &mut v);
            assert_bits_eq(&s, &v);

            add_scalar_slices(KernelBackend::Scalar, &a, 0.7, &mut s);
            add_scalar_slices(KernelBackend::Simd, &a, 0.7, &mut v);
            assert_bits_eq(&s, &v);

            let mut s2 = fill(n, 3);
            let mut v2 = s2.clone();
            axpy_slices(KernelBackend::Scalar, &mut s2, &a, 0.125);
            axpy_slices(KernelBackend::Simd, &mut v2, &a, 0.125);
            assert_bits_eq(&s2, &v2);

            add_assign_slices(KernelBackend::Scalar, &mut s2, &b);
            add_assign_slices(KernelBackend::Simd, &mut v2, &b);
            assert_bits_eq(&s2, &v2);

            scale_assign_slices(KernelBackend::Scalar, &mut s2, -1.5);
            scale_assign_slices(KernelBackend::Simd, &mut v2, -1.5);
            assert_bits_eq(&s2, &v2);
        }
    }

    #[test]
    fn fused_steps_bit_exact_across_backends() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this machine");
            return;
        }
        for &n in LENS {
            let g = fill(n, 4);
            let origin = fill(n, 5);
            let x0 = fill(n, 6);

            let mut s = x0.clone();
            let mut v = x0.clone();
            fused_sign_step_clamp(KernelBackend::Scalar, &mut s, &g, 0.05, 0.0, 1.0);
            fused_sign_step_clamp(KernelBackend::Simd, &mut v, &g, 0.05, 0.0, 1.0);
            assert_bits_eq(&s, &v);

            let mut s = x0.clone();
            let mut v = x0.clone();
            fused_grad_step_clamp(KernelBackend::Scalar, &mut s, &g, 0.4, 0.1, 0.0, 1.0);
            fused_grad_step_clamp(KernelBackend::Simd, &mut v, &g, 0.4, 0.1, 0.0, 1.0);
            assert_bits_eq(&s, &v);

            let mut s = x0.clone();
            let mut v = x0.clone();
            fused_grad_step_clamp(
                KernelBackend::Scalar,
                &mut s,
                &g,
                0.4,
                f32::INFINITY,
                0.0,
                1.0,
            );
            fused_grad_step_clamp(
                KernelBackend::Simd,
                &mut v,
                &g,
                0.4,
                f32::INFINITY,
                0.0,
                1.0,
            );
            assert_bits_eq(&s, &v);

            let mut s = x0.clone();
            let mut v = x0.clone();
            fused_project_step_clamp(
                KernelBackend::Scalar,
                &mut s,
                &g,
                &origin,
                0.02,
                0.1,
                0.0,
                1.0,
            );
            fused_project_step_clamp(
                KernelBackend::Simd,
                &mut v,
                &g,
                &origin,
                0.02,
                0.1,
                0.0,
                1.0,
            );
            assert_bits_eq(&s, &v);
        }
    }

    #[test]
    fn sign_nan_maps_to_zero_in_both_backends() {
        let a = [
            f32::NAN,
            -0.0,
            0.0,
            2.5,
            -3.5,
            f32::NAN,
            1.0,
            -1.0,
            f32::NAN,
        ];
        let mut s = [9.0f32; 9];
        let mut v = [9.0f32; 9];
        sign_slices(KernelBackend::Scalar, &a, &mut s);
        sign_slices(KernelBackend::Simd, &a, &mut v);
        assert_eq!(s, [0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0]);
        assert_eq!(s, v);
    }

    #[test]
    fn reductions_match_within_tolerance() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA on this machine");
            return;
        }
        for &n in LENS {
            let a = fill(n, 7);
            for (s, v) in [
                (
                    sum_slice(KernelBackend::Scalar, &a),
                    sum_slice(KernelBackend::Simd, &a),
                ),
                (
                    sumsq_slice(KernelBackend::Scalar, &a),
                    sumsq_slice(KernelBackend::Simd, &a),
                ),
                (
                    sum_abs_slice(KernelBackend::Scalar, &a),
                    sum_abs_slice(KernelBackend::Simd, &a),
                ),
            ] {
                let tol = 1e-5 * s.abs().max(1.0);
                assert!((s - v).abs() <= tol, "scalar {s} vs simd {v} at n={n}");
            }
            // Extrema are order-insensitive: exactly equal on finite data.
            assert_eq!(
                max_slice(KernelBackend::Scalar, &a),
                max_slice(KernelBackend::Simd, &a)
            );
            assert_eq!(
                min_slice(KernelBackend::Scalar, &a),
                min_slice(KernelBackend::Simd, &a)
            );
            assert_eq!(
                max_abs_slice(KernelBackend::Scalar, &a),
                max_abs_slice(KernelBackend::Simd, &a)
            );
        }
    }

    #[test]
    fn empty_reductions_are_identities() {
        for be in [KernelBackend::Scalar, KernelBackend::Simd] {
            assert_eq!(sum_slice(be, &[]), 0.0);
            assert_eq!(max_slice(be, &[]), f32::NEG_INFINITY);
            assert_eq!(min_slice(be, &[]), f32::INFINITY);
            assert_eq!(max_abs_slice(be, &[]), 0.0);
        }
    }

    fn assert_bits_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "lane {i}: {x} != {y}");
        }
    }
}
