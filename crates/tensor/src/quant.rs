//! Block-quantised weight storage and fused int8 GEMM kernels.
//!
//! This module is the storage + execution half of the paper's fixed-point
//! story. The simulation half (`FakeQuant`, `qformat`) rounds values in
//! f32 and still pays full dense-float inference; here the rounded codes
//! are *stored* as integers and *executed* with int8×int8→i32 arithmetic.
//!
//! In memory a packed tensor holds one `i8` per code, each row zero-padded
//! to whole [`QK`]-value blocks, and one scale: the format's resolution
//! `2^-f`. Codes are the raw two's-complement [`QFormat`] codes
//! (`encode`), so `code × resolution` reproduces [`QFormat::decode`]
//! **bit-exactly** — a packed tensor dequantises to precisely the values
//! the simulated (`quantize_slice`) path produces. The ggml-style block
//! layouts (`Q8_0`: 32 code bytes + f32 scale; `Q4_0`: 16 nibble-packed
//! bytes + f32 scale) exist only on disk, in the checkpoint codec;
//! [`QuantKind`] names which one a tensor is stored as.
//!
//! The simulation half's one elementwise kernel lives here too:
//! [`fake_quantize_in_place`] rewrites a slice to `QFormat::quantize(v)`
//! (and, when asked, writes the straight-through estimator's pass mask
//! first), with an AVX2 body exact for every f32 input of every format up
//! to 24 bits and `QFormat::quantize` itself as the scalar body. Its
//! callers copy first where they keep the input. `FakeQuant`, the graph
//! executor's quantise step and the weight installs of quantisation-aware
//! fine-tuning all call it, and the activation encoder shares its rounding.
//!
//! The GEMM ([`qmatmul`]) quantises f32 activations per row on entry,
//! accumulates integer dot products in i32, and applies the one combined
//! dequant multiply (`resolution_w × scale_a`) per output.
//! Dispatch follows the [`crate::simd`] contract: explicit
//! [`KernelBackend`], AVX2 bodies behind a runtime feature check, scalar
//! fallback everywhere, `ADVCOMP_KERNEL` honoured by callers passing
//! [`crate::simd::backend`]. On the scalar backend the packed forward is
//! bit-exact with the simulated path whenever every intermediate product
//! sum stays inside f32's 24-bit integer window (true for the paper's
//! Q1.3/Q2.6 schedules on LeNet-scale reductions); the AVX2 path is
//! tolerance-class like the dense FMA GEMM.

use crate::simd::KernelBackend;
use crate::{pool, Result, TensorError};
use advcomp_qformat::QFormat;

/// Values per quantisation block (ggml's `QK8_0`/`QK4_0`).
pub const QK: usize = 32;

/// Work threshold above which [`qmatmul`] parallelises over row bands.
///
/// Deliberately higher than the dense GEMM's `64³` threshold: the
/// `maddubs` kernel retires ~4× the MACs per instruction of the f32 FMA
/// path, so a problem that keeps eight f32 bands busy finishes in the
/// time the pool takes to wake its workers. Measured on the 128³ bench
/// shape (`BENCH_quant.json`), banding *costs* the packed path ~30%;
/// serial wins until roughly this size.
const PARALLEL_THRESHOLD: usize = 160 * 160 * 160;

/// Longest row (flattened `cols`) a packed tensor may have. Every code
/// product is at most `2^7 · 2^7 = 2^14` in magnitude, so rows of at most
/// this many values keep the GEMM's whole-row total strictly inside `i32`.
const MAX_COLS: usize = 131_071;

/// Storage class of a packed tensor: the code width, and the ggml block
/// layout the checkpoint codec writes it in. In memory both hold one `i8`
/// per code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// 4-bit codes, stored two per byte (`Q4_0`): 20 bytes per block.
    Q4,
    /// 8-bit codes, stored one per byte (`Q8_0`): 36 bytes per block.
    Q8,
}

impl QuantKind {
    /// Picks the narrowest block class whose codes can hold `format`'s
    /// raw range: ≤ 4 total bits → [`QuantKind::Q4`], ≤ 8 → [`QuantKind::Q8`].
    /// Wider formats have no packed representation and return `None`.
    pub fn for_format(format: QFormat) -> Option<QuantKind> {
        match format.total_bits() {
            0..=4 => Some(QuantKind::Q4),
            5..=8 => Some(QuantKind::Q8),
            _ => None,
        }
    }

    /// Code width in bits.
    pub fn bits(self) -> u32 {
        match self {
            QuantKind::Q4 => 4,
            QuantKind::Q8 => 8,
        }
    }

    /// Stored code bytes per 32-value block (scale excluded).
    pub fn payload_bytes(self) -> usize {
        match self {
            QuantKind::Q4 => QK / 2,
            QuantKind::Q8 => QK,
        }
    }

    /// Stored bytes per block: payload plus the f32 scale.
    pub fn block_bytes(self) -> usize {
        4 + self.payload_bytes()
    }

    /// Stable lowercase name (`"q4_0"` / `"q8_0"`).
    pub fn name(self) -> &'static str {
        match self {
            QuantKind::Q4 => "q4_0",
            QuantKind::Q8 => "q8_0",
        }
    }
}

/// A weight tensor stored as fixed-point codes.
///
/// The logical shape is preserved (`[out, in]` for dense weights,
/// `[oc, ic, kh, kw]` for convolutions); rows are `shape[0]` and every
/// row's trailing axes are flattened to `cols` — exactly the 2-D view the
/// GEMM-lowered forward passes consume. Each row is padded independently
/// to a whole number of [`QK`]-value blocks with zero codes, so `cols`
/// need not be a multiple of [`QK`]. The tensor's one scale is
/// `format().resolution()`.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    kind: QuantKind,
    shape: Vec<usize>,
    format: QFormat,
    /// One code per value, `rows × blocks_per_row × QK`, row-major.
    codes: Vec<i8>,
    /// Whether the `maddubs` dot-product kernel is exact for these codes:
    /// iff no code is -128 — `sign(w, a)` negates `w` for negative
    /// activations, and `-(-128)` wraps. With `|w| ≤ 127` the i16 pair
    /// sums stay within `2·128·127 = 32512`, so the saturating add is
    /// exact for every activation code. Cached at construction; see
    /// `qgemm_rows`.
    maddubs_safe: bool,
}

impl QTensor {
    /// Packs `data` (row-major, logical shape `shape`) into fixed-point
    /// codes using `format`'s round-to-nearest semantics.
    ///
    /// Every stored code is exactly `format.encode(value)`, so
    /// [`QTensor::dequantize`] equals `format.quantize` applied
    /// elementwise, bit for bit.
    ///
    /// # Errors
    ///
    /// [`TensorError::Unsupported`] when `format` is wider than 8 bits or
    /// a row is longer than 131,071 values (the i32 row-total bound);
    /// [`TensorError::LengthMismatch`] when `data` does not fill `shape`;
    /// [`TensorError::Empty`] for an empty shape.
    pub fn quantize(data: &[f32], shape: &[usize], format: QFormat) -> Result<QTensor> {
        let kind = QuantKind::for_format(format).ok_or_else(|| {
            TensorError::Unsupported(format!(
                "no packed block format for {}-bit {format}",
                format.total_bits()
            ))
        })?;
        let (rows, cols) = split_rows_cols(shape)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::LengthMismatch {
                expected: rows.saturating_mul(cols),
                actual: data.len(),
            });
        }
        let stride = cols.div_ceil(QK) * QK;
        // Padding codes stay zero: they contribute exactly 0 to any dot
        // product and are never read back (dequantize stops at `cols`).
        let mut codes = vec![0i8; rows * stride];
        for (dst, src) in codes.chunks_mut(stride).zip(data.chunks(cols)) {
            for (q, &v) in dst.iter_mut().zip(src) {
                *q = format.encode(v) as i8;
            }
        }
        Ok(QTensor {
            kind,
            shape: shape.to_vec(),
            format,
            maddubs_safe: !codes.contains(&i8::MIN),
            codes,
        })
    }

    /// Reassembles a packed tensor from its parts (the checkpoint-v3
    /// decode path): one code per value, rows padded to whole blocks.
    ///
    /// # Errors
    ///
    /// [`TensorError::Unsupported`] when `kind` cannot hold `format`, a
    /// code lies outside `kind`'s range, or a row is longer than 131,071
    /// values; [`TensorError::LengthMismatch`] when `codes` does not
    /// match the shape's padded length.
    pub fn from_parts(
        kind: QuantKind,
        shape: Vec<usize>,
        format: QFormat,
        codes: Vec<i8>,
    ) -> Result<QTensor> {
        match QuantKind::for_format(format) {
            Some(k) if k.bits() <= kind.bits() => {}
            _ => {
                return Err(TensorError::Unsupported(format!(
                    "{format} codes do not fit {} blocks",
                    kind.name()
                )))
            }
        }
        let (rows, cols) = split_rows_cols(&shape)?;
        let expected = rows
            .checked_mul(cols.div_ceil(QK) * QK)
            .ok_or_else(|| TensorError::Unsupported(format!("{rows} packed rows overflow")))?;
        if codes.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: codes.len(),
            });
        }
        // A code wider than `kind` could not be stored in its block layout.
        let max = i8::MAX >> (8 - kind.bits());
        if let Some(c) = codes.iter().find(|&&c| c > max || c < -max - 1) {
            return Err(TensorError::Unsupported(format!(
                "code {c} does not fit {} blocks",
                kind.name()
            )));
        }
        Ok(QTensor {
            kind,
            shape,
            format,
            maddubs_safe: !codes.contains(&i8::MIN),
            codes,
        })
    }

    /// Storage class.
    pub fn kind(&self) -> QuantKind {
        self.kind
    }

    /// Logical (unpacked) shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The fixed-point format the codes were encoded with; its
    /// `resolution()` is the tensor's scale.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Row count (`shape[0]`).
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Flattened per-row element count (product of trailing axes).
    pub fn cols(&self) -> usize {
        self.shape[1..].iter().product()
    }

    /// Blocks per row (`cols` rounded up to whole blocks).
    pub fn blocks_per_row(&self) -> usize {
        self.cols().div_ceil(QK)
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.rows() * self.cols()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The codes, `rows × blocks_per_row × QK`, row-major, each row
    /// zero-padded to whole blocks.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Stored size in bytes: `rows × blocks_per_row` blocks of
    /// [`QuantKind::block_bytes`] each, the block layout checkpoint v3
    /// writes. This is the number the size-accounting report and the
    /// ≤ ⅓-of-f32 checkpoint acceptance bound are measured against.
    pub fn packed_bytes(&self) -> usize {
        self.rows() * self.blocks_per_row() * self.kind.block_bytes()
    }

    /// The raw code of logical element `(row, col)`.
    pub fn code(&self, row: usize, col: usize) -> i8 {
        self.codes[row * self.blocks_per_row() * QK + col]
    }

    /// Unpacks to row-major f32 values in the logical shape. Bit-exact
    /// with `format.quantize` applied to the original data.
    pub fn dequantize(&self) -> Vec<f32> {
        let (cols, scale) = (self.cols(), self.format.resolution());
        self.codes
            .chunks(self.blocks_per_row() * QK)
            .flat_map(|row| row[..cols].iter().map(move |&c| f32::from(c) * scale))
            .collect()
    }
}

/// Splits a logical shape into `(rows, flattened cols)`, rejecting empty
/// shapes and rows longer than [`MAX_COLS`].
fn split_rows_cols(shape: &[usize]) -> Result<(usize, usize)> {
    let Some((&rows, rest)) = shape.split_first() else {
        return Err(TensorError::Empty("quantize"));
    };
    let cols = rest
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&c| c <= MAX_COLS)
        .ok_or_else(|| {
            TensorError::Unsupported(format!(
                "packed rows hold at most {MAX_COLS} values, shape {shape:?}"
            ))
        })?;
    if rows == 0 || cols == 0 {
        return Err(TensorError::Empty("quantize"));
    }
    Ok((rows, cols))
}

/// A batch of activation rows quantised to i8 codes for the int8 GEMM.
///
/// Rows are quantised independently on entry to a packed layer (the
/// activations themselves stay f32 between layers). Codes use the same
/// fixed-point grid as the installed activation format, so re-encoding an
/// already-quantised activation (the `FakeQuant` output) is lossless.
#[derive(Debug, Clone)]
pub struct QActivations {
    rows: usize,
    cols: usize,
    /// i8 codes, `rows × blocks_per_row × QK`, zero-padded per row.
    codes: Vec<i8>,
    /// The activation format; its resolution `2^-f` is the one scale.
    format: QFormat,
}

impl QActivations {
    /// An empty buffer bound to `format`, for reuse via
    /// [`quantize_activations_into`] or [`QActivations::reset`]. The graph
    /// executor holds one per packed layer so the steady-state forward
    /// quantises into persistent storage instead of allocating.
    ///
    /// # Errors
    ///
    /// [`TensorError::Unsupported`] when the format's codes exceed 8 bits.
    pub fn with_format(format: QFormat) -> Result<QActivations> {
        if QuantKind::for_format(format).is_none() {
            return Err(TensorError::Unsupported(format!(
                "activation codes for {}-bit {format} do not fit i8",
                format.total_bits()
            )));
        }
        Ok(QActivations {
            rows: 0,
            cols: 0,
            codes: Vec::new(),
            format,
        })
    }

    /// Resizes for `rows × cols` logical values and zeroes every code
    /// (including block padding), keeping the bound format. Callers then
    /// write codes through [`QActivations::codes_mut`] — the layout is
    /// `rows × blocks_per_row × QK`, rows padded with zero codes.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let bpr = cols.div_ceil(QK);
        self.codes.clear();
        self.codes.resize(rows * bpr * QK, 0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Mutable access to the i8 codes (padded rows).
    pub fn codes_mut(&mut self) -> &mut [i8] {
        &mut self.codes
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical per-row length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Blocks per row.
    pub fn blocks_per_row(&self) -> usize {
        self.cols.div_ceil(QK)
    }

    /// The activation format the codes were encoded with.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The activation scale (`format.resolution()`).
    pub fn scale(&self) -> f32 {
        self.format.resolution()
    }

    /// The i8 codes (padded rows).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }
}

/// Quantises f32 activation rows (`rows × cols`, row-major) to i8 codes.
///
/// Scalar and AVX2 paths agree bit-exactly: both compute
/// `round_half_away(v × 2^f)` saturated to the format's raw range (the
/// power-of-two scaling is exact in f32 and f64 alike), with NaN encoding
/// to 0 as in [`QFormat::encode`].
///
/// # Errors
///
/// [`TensorError::Unsupported`] when the format's codes exceed 8 bits;
/// [`TensorError::LengthMismatch`] when `data` is not `rows × cols`.
pub fn quantize_activations(
    backend: KernelBackend,
    data: &[f32],
    rows: usize,
    cols: usize,
    format: QFormat,
) -> Result<QActivations> {
    let mut out = QActivations::with_format(format)?;
    quantize_activations_into(backend, data, rows, cols, format, &mut out)?;
    Ok(out)
}

/// [`quantize_activations`] into a caller-owned buffer created with
/// [`QActivations::with_format`] — identical codes, no allocation once the
/// buffer has grown to its steady-state size.
///
/// # Errors
///
/// As [`quantize_activations`]; additionally
/// [`TensorError::Unsupported`] when `format` differs from the buffer's
/// bound format (the scale would silently change otherwise).
pub fn quantize_activations_into(
    backend: KernelBackend,
    data: &[f32],
    rows: usize,
    cols: usize,
    format: QFormat,
    out: &mut QActivations,
) -> Result<()> {
    if format != out.format {
        return Err(TensorError::Unsupported(format!(
            "activation buffer bound to {}, fed {format}",
            out.format
        )));
    }
    if data.len() != rows * cols {
        return Err(TensorError::LengthMismatch {
            expected: rows * cols,
            actual: data.len(),
        });
    }
    out.reset(rows, cols);
    let bpr = cols.div_ceil(QK);
    for r in 0..rows {
        let src = &data[r * cols..(r + 1) * cols];
        let dst = &mut out.codes[r * bpr * QK..r * bpr * QK + cols];
        encode_row(backend, src, format, dst);
    }
    Ok(())
}

/// Widest format [`fake_quantize_in_place`]'s AVX2 body runs. A code of at
/// most 24 bits is an exact f32 integer, so the body rounds, saturates and
/// decodes in f32 lanes with `QFormat::quantize`'s bits; wider codes can
/// round on the way back to f32, and their formats take the scalar body.
const FAKE_QUANT_MAX_BITS: u32 = 24;

/// Simulated fixed-point quantisation of a slice, in place: every value of
/// `data` becomes `format.quantize(value)`, and when `mask` is given, the
/// clipped straight-through estimator's pass mask of the original value is
/// written to it first: 1.0 where `format.min_value() <= v <=
/// format.max_value()`, +0.0 elsewhere (NaN included).
///
/// Both bodies return `QFormat::quantize`'s bits for every f32 input: round
/// half away from zero, NaN → +0, saturation at the range edges (±∞
/// included), and +0 for every input whose code is zero, −0 among them.
/// The AVX2 body rounds `t = v · 2^f` (exact: a power-of-two scaling) as
/// `trunc(t)` plus `sign(t)` where `|t − trunc t| ≥ ½` (the difference is
/// exact too), which [`quantize_activations`] shares; it runs formats of up
/// to 24 bits. The scalar body, and wider formats on either backend, call
/// `QFormat::quantize` per element.
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] when `mask` is not as long as `data`.
pub fn fake_quantize_in_place(
    backend: KernelBackend,
    format: QFormat,
    data: &mut [f32],
    mask: Option<&mut [f32]>,
) -> Result<()> {
    if let Some(m) = mask.as_ref().filter(|m| m.len() != data.len()) {
        return Err(TensorError::LengthMismatch {
            expected: data.len(),
            actual: m.len(),
        });
    }
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx2(backend) && format.total_bits() <= FAKE_QUANT_MAX_BITS {
        // SAFETY: use_avx2 verified AVX2 support at runtime; the lengths
        // were checked above.
        unsafe { avx2::fake_quantize_in_place(format, data, mask) };
        return Ok(());
    }
    let _ = backend;
    fake_quantize_scalar(format, data, mask);
    Ok(())
}

/// The scalar body of [`fake_quantize_in_place`] (and its AVX2 body's
/// tail): the range test, then `QFormat::quantize`, per element.
fn fake_quantize_scalar(format: QFormat, data: &mut [f32], mask: Option<&mut [f32]>) {
    if let Some(mask) = mask {
        let pass = format.min_value()..=format.max_value();
        for (m, v) in mask.iter_mut().zip(data.iter()) {
            *m = if pass.contains(v) { 1.0 } else { 0.0 };
        }
    }
    format.quantize_slice(data);
}

/// Encodes one row of f32 values to i8 codes.
pub(crate) fn encode_row(backend: KernelBackend, src: &[f32], format: QFormat, dst: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::use_avx2(backend) {
        // SAFETY: use_avx2 verified AVX2 support at runtime.
        unsafe { avx2::encode_row(src, format, dst) };
        return;
    }
    let _ = backend;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = format.encode(v) as i8;
    }
}

/// Int8 GEMM with fused dequantisation:
/// `out[i, j] = (Σ_l a[i, l] · w[j, l]) · scale_w · scale_a`, where both
/// scales are their formats' resolutions. The scalar backend sums each
/// 32-value block in i32 and accumulates blocks in f32; AVX2 sums the
/// whole row in i32.
///
/// `out` is `[act.rows, w.rows]` row-major; callers add bias and reshape.
/// Parallelises over output row bands on the global worker pool above the
/// same work threshold as the dense GEMM.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] when the inner dimensions disagree, and
/// [`TensorError::LengthMismatch`] when `out` has the wrong size.
pub fn qmatmul(
    backend: KernelBackend,
    act: &QActivations,
    w: &QTensor,
    out: &mut [f32],
) -> Result<()> {
    if act.cols() != w.cols() {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![act.rows(), act.cols()],
            rhs: w.shape().to_vec(),
            op: "qmatmul",
        });
    }
    let (m, n) = (act.rows(), w.rows());
    if out.len() != m * n {
        return Err(TensorError::LengthMismatch {
            expected: m * n,
            actual: out.len(),
        });
    }
    let threads = pool::global().effective_threads();
    if m * act.cols() * n >= PARALLEL_THRESHOLD && threads >= 2 && m >= 2 {
        pool::for_each_row_band(out, n, threads, |row_start, band| {
            qgemm_rows(backend, act, w, row_start, band);
        });
    } else {
        qgemm_rows(backend, act, w, 0, out);
    }
    Ok(())
}

/// Convenience wrapper: quantises `a` (`m × w.cols()` f32, row-major) with
/// `act_format` and runs [`qmatmul`]. This is the dequant-fused entry the
/// packed `Dense` forward and the im2col conv path use.
///
/// # Errors
///
/// As [`quantize_activations`] and [`qmatmul`].
pub fn qmatmul_f32(
    backend: KernelBackend,
    a: &[f32],
    m: usize,
    act_format: QFormat,
    w: &QTensor,
    out: &mut [f32],
) -> Result<()> {
    let act = quantize_activations(backend, a, m, w.cols(), act_format)?;
    qmatmul(backend, &act, w, out)
}

/// Computes the output rows `row_start..` of the GEMM into `band`.
///
/// The weights carry one scale, so the dequant multiply hoists out of the
/// block loop: the AVX2 kernels accumulate raw i32 sums across the whole
/// row (inside `i32` by the [`MAX_COLS`] bound) and multiply once per
/// output.
fn qgemm_rows(
    backend: KernelBackend,
    act: &QActivations,
    w: &QTensor,
    row_start: usize,
    band: &mut [f32],
) {
    let n = w.rows();
    let row_len = w.blocks_per_row() * QK;
    let combined = w.format.resolution() * act.scale();
    for (local, out_row) in band.chunks_mut(n).enumerate() {
        let i = row_start + local;
        let a_row = &act.codes[i * row_len..(i + 1) * row_len];
        #[cfg(target_arch = "x86_64")]
        if crate::simd::use_avx2(backend) {
            // SAFETY: use_avx2 verified AVX2 support at runtime.
            unsafe {
                if w.maddubs_safe {
                    avx2::qgemm_row_q8_uniform_maddubs(a_row, combined, w, out_row);
                } else {
                    avx2::qgemm_row_q8_uniform(a_row, combined, w, out_row);
                }
            }
            continue;
        }
        let _ = backend;
        scalar_qgemm_row(a_row, combined, w, out_row);
    }
}

/// Scalar reference row kernel (the bit-exact class: per-block i32 sums,
/// f32 accumulation across blocks — in the exact regime this matches the
/// simulated dense-f32 forward on quantised values). `out_row[j]` is
/// weight row `j`.
fn scalar_qgemm_row(a_row: &[i8], combined_scale: f32, w: &QTensor, out_row: &mut [f32]) {
    for (o, wrow) in out_row.iter_mut().zip(w.codes.chunks(a_row.len())) {
        let mut acc = 0.0f32;
        for (a_blk, w_blk) in a_row.chunks(QK).zip(wrow.chunks(QK)) {
            acc += dot_i8(a_blk, w_blk) as f32 * combined_scale;
        }
        *o = acc;
    }
}

/// Integer dot product of two code slices.
fn dot_i8(a: &[i8], w: &[i8]) -> i32 {
    a.iter()
        .zip(w)
        .map(|(&a, &w)| i32::from(a) * i32::from(w))
        .sum()
}

/// Scalar tail of the AVX2 row kernels: whole-row i32 totals with the
/// single hoisted dequant multiply. `out_row[l]` is weight row `j0 + l`.
#[cfg(target_arch = "x86_64")]
fn scalar_uniform_tail_q8(
    a_row: &[i8],
    combined_scale: f32,
    w: &QTensor,
    j0: usize,
    out_row: &mut [f32],
) {
    let rows = w.codes[j0 * a_row.len()..].chunks(a_row.len());
    for (o, wrow) in out_row.iter_mut().zip(rows) {
        *o = dot_i8(a_row, wrow) as f32 * combined_scale;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 bodies. Same contracts as `simd::avx2`: callers must have
    //! verified `avx2` support; slices may have any length (tails are
    //! handled inside). int8×int8 products go through `maddubs` when the
    //! weights hold no -128 code, otherwise through sign-extension to i16
    //! and `madd` (16 MACs per instruction).

    use super::{QTensor, QK};
    use advcomp_qformat::QFormat;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// `round_half_away(t)` on every lane: `trunc(t)`, plus `sign(t)` where
    /// `|t − trunc t| ≥ ½`. The difference is exact for every f32, so this
    /// rounds exactly where `trunc(t + copysign(½, t))` does not: one ulp
    /// below ½, that sum rounds up to 1. ±∞ stay ±∞ (their difference is
    /// NaN, which fails the compare), NaN stays NaN, and a zero result is
    /// +0 (the fix-up adds +0 where it adds nothing).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn round_half_away(t: __m256) -> __m256 {
        let r = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(t);
        let abs = _mm256_andnot_ps(_mm256_set1_ps(-0.0), _mm256_sub_ps(t, r));
        let up = _mm256_cmp_ps(abs, _mm256_set1_ps(0.5), _CMP_GE_OQ);
        let sign = _mm256_and_ps(t, _mm256_set1_ps(-0.0));
        let step = _mm256_or_ps(_mm256_set1_ps(1.0), sign);
        _mm256_add_ps(r, _mm256_and_ps(up, step))
    }

    /// A format's code arithmetic in f32 lanes, for codes of at most 24
    /// bits (exact f32 integers).
    struct CodeLanes {
        /// `2^f`.
        scale: __m256,
        /// The raw range's edges.
        lo: __m256,
        hi: __m256,
    }

    impl CodeLanes {
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn new(format: QFormat) -> CodeLanes {
            CodeLanes {
                scale: _mm256_set1_ps((1u64 << format.frac_bits()) as f32),
                lo: _mm256_set1_ps(format.min_raw() as f32),
                hi: _mm256_set1_ps(format.max_raw() as f32),
            }
        }

        /// `QFormat::encode(v)` as integral f32 lanes: the rounded
        /// `v · 2^f` (exact in f32, or ±∞ where it saturates anyway), NaN
        /// → 0, saturated to the raw range.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn codes(&self, v: __m256) -> __m256 {
            let r = round_half_away(_mm256_mul_ps(v, self.scale));
            let r = _mm256_and_ps(r, _mm256_cmp_ps(v, v, _CMP_ORD_Q));
            _mm256_max_ps(self.lo, _mm256_min_ps(self.hi, r))
        }
    }

    /// Encodes a row of f32 to i8 codes, bit-exact with the scalar
    /// `QFormat::encode`. A tail of under 8 values runs the same lanes
    /// through zero-padded stack copies.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn encode_row(src: &[f32], format: QFormat, dst: &mut [i8]) {
        /// The 8 codes of `v`'s lanes, stored at `out` (integral inputs
        /// in the i8 range: each narrowing is exact).
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn encode8(lanes: &CodeLanes, v: __m256, out: *mut i8) {
            let q = _mm256_cvtps_epi32(lanes.codes(v));
            let packed16 =
                _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            _mm_storel_epi64(out.cast(), _mm_packs_epi16(packed16, packed16));
        }
        let lanes = CodeLanes::new(format);
        let n = src.len();
        // Every store below stays inside `dst`.
        assert!(dst.len() >= n);
        let mut i = 0;
        while i + 8 <= n {
            encode8(
                &lanes,
                _mm256_loadu_ps(src.as_ptr().add(i)),
                dst.as_mut_ptr().add(i),
            );
            i += 8;
        }
        if i < n {
            let (mut tail, mut codes) = ([0.0f32; 8], [0i8; 8]);
            tail[..n - i].copy_from_slice(&src[i..]);
            encode8(&lanes, _mm256_loadu_ps(tail.as_ptr()), codes.as_mut_ptr());
            dst[i..n].copy_from_slice(&codes[..n - i]);
        }
    }

    /// The body of [`super::fake_quantize_in_place`] for formats of at
    /// most 24 bits; `mask` must be as long as `data` (asserted).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fake_quantize_in_place(
        format: QFormat,
        data: &mut [f32],
        mut mask: Option<&mut [f32]>,
    ) {
        let lanes = CodeLanes::new(format);
        let resolution = _mm256_set1_ps(format.resolution());
        let lo_v = _mm256_set1_ps(format.min_value());
        let hi_v = _mm256_set1_ps(format.max_value());
        let one = _mm256_set1_ps(1.0);
        let n = data.len();
        // Every load and store below stays inside the two slices.
        assert!(mask.as_ref().is_none_or(|m| m.len() == n));
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(data.as_ptr().add(i));
            if let Some(mask) = mask.as_deref_mut() {
                let pass = _mm256_and_ps(
                    _mm256_cmp_ps(v, lo_v, _CMP_GE_OQ),
                    _mm256_cmp_ps(v, hi_v, _CMP_LE_OQ),
                );
                _mm256_storeu_ps(mask.as_mut_ptr().add(i), _mm256_and_ps(pass, one));
            }
            // The code times the resolution: an exact product, +0 for a
            // zero code.
            let q = _mm256_mul_ps(lanes.codes(v), resolution);
            _mm256_storeu_ps(data.as_mut_ptr().add(i), q);
            i += 8;
        }
        super::fake_quantize_scalar(format, &mut data[i..], mask.map(|m| &mut m[i..]));
    }

    /// Sign-extends 16 i8 lanes to 16 i16 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen(ptr: *const u8) -> __m256i {
        _mm256_cvtepi8_epi16(_mm_loadu_si128(ptr.cast()))
    }

    /// i32 lane sums of one 32-value block product.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_madd(a0: __m256i, a1: __m256i, w0: __m256i, w1: __m256i) -> __m256i {
        _mm256_add_epi32(_mm256_madd_epi16(a0, w0), _mm256_madd_epi16(a1, w1))
    }

    /// i32 horizontal sum of 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0x4E>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0xB1>(s));
        _mm_cvtsi128_si32(s)
    }

    /// One output row of the int8 GEMM, 4 weight rows per inner pass so
    /// the widened activation block is reused across rows: raw i32 sums
    /// accumulate across every block and the single dequant multiply
    /// happens once per output.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qgemm_row_q8_uniform(
        a_row: &[i8],
        combined_scale: f32,
        w: &QTensor,
        out_row: &mut [f32],
    ) {
        let bpr = w.blocks_per_row();
        let n = out_row.len();
        let codes = w.codes.as_ptr().cast::<u8>();
        let mut j = 0;
        while j + 4 <= n {
            let mut acc = [_mm256_setzero_si256(); 4];
            for b in 0..bpr {
                let ap = a_row.as_ptr().add(b * QK).cast::<u8>();
                let a0 = widen(ap);
                let a1 = widen(ap.add(16));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let wp = codes.add(((j + r) * bpr + b) * QK);
                    *accr =
                        _mm256_add_epi32(*accr, block_madd(a0, a1, widen(wp), widen(wp.add(16))));
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out_row[j + r] = hsum_epi32(*accr) as f32 * combined_scale;
            }
            j += 4;
        }
        super::scalar_uniform_tail_q8(a_row, combined_scale, w, j, &mut out_row[j..]);
    }

    /// Batched horizontal reduction: the four lane-wise i32 sums of four
    /// accumulators, as one `__m128i`. Integer addition is associative, so
    /// the totals are bit-identical to four [`hsum_epi32`] calls at a
    /// third of the instruction count.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum4_epi32(v0: __m256i, v1: __m256i, v2: __m256i, v3: __m256i) -> __m128i {
        let t = _mm256_hadd_epi32(_mm256_hadd_epi32(v0, v1), _mm256_hadd_epi32(v2, v3));
        _mm_add_epi32(_mm256_castsi256_si128(t), _mm256_extracti128_si256::<1>(t))
    }

    /// [`qgemm_row_q8_uniform`] with the block dot products computed by
    /// `maddubs` instead of sign-extension and `madd` — 32 MACs per
    /// multiply instruction and no port-5 `vpmovsxbw` pressure, the
    /// difference between matching the dense f32 FMA rate and doubling
    /// it. Per lane `maddubs(|a|, sign(w, a)) = |a|·(±w) = a·w`; exact
    /// only when no weight code is -128 (`qgemm_rows` gates on the
    /// cached `maddubs_safe` flag). Eight weight rows per
    /// pass share one activation load/abs, and the eight row totals
    /// reduce together through [`hsum4_epi32`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn qgemm_row_q8_uniform_maddubs(
        a_row: &[i8],
        combined_scale: f32,
        w: &QTensor,
        out_row: &mut [f32],
    ) {
        let bpr = w.blocks_per_row();
        let n = out_row.len();
        let codes = w.codes.as_ptr();
        let ones = _mm256_set1_epi16(1);
        let scale = _mm256_set1_ps(combined_scale);
        let row_stride = bpr * QK;
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = [_mm256_setzero_si256(); 8];
            let tile = codes.add(j * row_stride);
            for b in 0..bpr {
                let av = _mm256_loadu_si256(a_row.as_ptr().add(b * QK).cast());
                let aabs = _mm256_abs_epi8(av);
                let wb = tile.add(b * QK);
                for (r, accr) in acc.iter_mut().enumerate() {
                    let wv = _mm256_loadu_si256(wb.add(r * row_stride).cast());
                    let prods = _mm256_maddubs_epi16(aabs, _mm256_sign_epi8(wv, av));
                    *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(prods, ones));
                }
            }
            let lo = hsum4_epi32(acc[0], acc[1], acc[2], acc[3]);
            let hi = hsum4_epi32(acc[4], acc[5], acc[6], acc[7]);
            let sums = _mm256_set_m128i(hi, lo);
            let vals = _mm256_mul_ps(_mm256_cvtepi32_ps(sums), scale);
            _mm256_storeu_ps(out_row.as_mut_ptr().add(j), vals);
            j += 8;
        }
        while j + 4 <= n {
            let mut acc = [_mm256_setzero_si256(); 4];
            let tile = codes.add(j * row_stride);
            for b in 0..bpr {
                let av = _mm256_loadu_si256(a_row.as_ptr().add(b * QK).cast());
                let aabs = _mm256_abs_epi8(av);
                let wb = tile.add(b * QK);
                for (r, accr) in acc.iter_mut().enumerate() {
                    let wv = _mm256_loadu_si256(wb.add(r * row_stride).cast());
                    let prods = _mm256_maddubs_epi16(aabs, _mm256_sign_epi8(wv, av));
                    *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(prods, ones));
                }
            }
            let sums = hsum4_epi32(acc[0], acc[1], acc[2], acc[3]);
            let vals = _mm_mul_ps(_mm_cvtepi32_ps(sums), _mm256_castps256_ps128(scale));
            _mm_storeu_ps(out_row.as_mut_ptr().add(j), vals);
            j += 4;
        }
        super::scalar_uniform_tail_q8(a_row, combined_scale, w, j, &mut out_row[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::KernelBackend;

    fn q8() -> QFormat {
        QFormat::for_bitwidth(8).unwrap()
    }

    fn q4() -> QFormat {
        QFormat::for_bitwidth(4).unwrap()
    }

    /// Deterministic pseudo-random f32s in [-range, range].
    fn values(seed: u64, n: usize, range: f32) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = ((state >> 33) as f64) / ((1u64 << 31) as f64); // [0, 2)
                ((u - 1.0) * range as f64) as f32
            })
            .collect()
    }

    #[test]
    fn kind_schedule_matches_paper_bitwidths() {
        assert_eq!(QuantKind::for_format(q4()), Some(QuantKind::Q4));
        assert_eq!(QuantKind::for_format(q8()), Some(QuantKind::Q8));
        assert_eq!(
            QuantKind::for_format(QFormat::for_bitwidth(5).unwrap()),
            Some(QuantKind::Q8)
        );
        assert_eq!(
            QuantKind::for_format(QFormat::for_bitwidth(16).unwrap()),
            None
        );
        assert!(matches!(
            QTensor::quantize(&[0.0; 4], &[2, 2], QFormat::for_bitwidth(16).unwrap()),
            Err(TensorError::Unsupported(_))
        ));
    }

    #[test]
    fn pack_unpack_bit_exact_vs_qformat() {
        for fmt in [q4(), q8()] {
            let data = values(7, 5 * 77, 3.0); // cols 77: exercises padding
            let qt = QTensor::quantize(&data, &[5, 7, 11], fmt).unwrap();
            let back = qt.dequantize();
            for (i, (&orig, &deq)) in data.iter().zip(&back).enumerate() {
                let expect = fmt.quantize(orig);
                assert_eq!(
                    expect.to_bits(),
                    deq.to_bits(),
                    "{fmt} element {i}: {orig} -> {deq} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn packed_bytes_accounting() {
        let qt = QTensor::quantize(&[0.5; 64 * 100], &[64, 100], q8()).unwrap();
        // 100 cols → 4 blocks/row.
        assert_eq!(qt.blocks_per_row(), 4);
        assert_eq!(qt.packed_bytes(), 64 * 4 * QuantKind::Q8.block_bytes());
        let qt4 = QTensor::quantize(&[0.5; 64 * 100], &[64, 100], q4()).unwrap();
        assert_eq!(qt4.packed_bytes(), 64 * 4 * QuantKind::Q4.block_bytes());
        assert!(qt4.packed_bytes() * 3 < 64 * 100 * 4);
    }

    #[test]
    fn activation_encoding_matches_encode_on_both_backends() {
        let data = values(3, 2 * 50, 4.0);
        for fmt in [q4(), q8()] {
            let scalar = quantize_activations(KernelBackend::Scalar, &data, 2, 50, fmt).unwrap();
            let simd = quantize_activations(KernelBackend::Simd, &data, 2, 50, fmt).unwrap();
            assert_eq!(scalar.codes(), simd.codes());
            for r in 0..2 {
                for c in 0..50 {
                    assert_eq!(
                        scalar.codes()[r * scalar.blocks_per_row() * QK + c],
                        fmt.encode(data[r * 50 + c]) as i8
                    );
                }
            }
        }
    }

    #[test]
    fn qmatmul_matches_f64_reference() {
        for fmt in [q4(), q8()] {
            let (m, k, n) = (5, 70, 9);
            let a = values(11, m * k, 2.0);
            let wdata = values(13, n * k, 1.5);
            let w = QTensor::quantize(&wdata, &[n, k], fmt).unwrap();
            let wq = w.dequantize();
            for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                let act = quantize_activations(backend, &a, m, k, fmt).unwrap();
                let mut out = vec![0.0f32; m * n];
                qmatmul(backend, &act, &w, &mut out).unwrap();
                for i in 0..m {
                    for j in 0..n {
                        let mut reference = 0.0f64;
                        for l in 0..k {
                            reference += fmt.quantize(a[i * k + l]) as f64 * wq[j * k + l] as f64;
                        }
                        let got = out[i * n + j] as f64;
                        assert!(
                            (got - reference).abs() <= 1e-4 * reference.abs().max(1.0),
                            "{fmt} {backend:?} ({i},{j}): {got} vs {reference}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_and_simd_rows_agree_to_tolerance() {
        let (m, k, n) = (4, 130, 23); // odd n exercises the 4-row tail
        let a = values(21, m * k, 2.0);
        let wdata = values(22, n * k, 2.0);
        for fmt in [q4(), q8()] {
            let w = QTensor::quantize(&wdata, &[n, k], fmt).unwrap();
            let mut scalar = vec![0.0f32; m * n];
            let mut simd = vec![0.0f32; m * n];
            let act = quantize_activations(KernelBackend::Scalar, &a, m, k, fmt).unwrap();
            qmatmul(KernelBackend::Scalar, &act, &w, &mut scalar).unwrap();
            qmatmul(KernelBackend::Simd, &act, &w, &mut simd).unwrap();
            let num: f64 = scalar
                .iter()
                .zip(&simd)
                .map(|(&s, &v)| ((s - v) as f64).powi(2))
                .sum();
            let den: f64 = scalar.iter().map(|&s| (s as f64).powi(2)).sum();
            assert!(num.sqrt() <= 1e-5 * den.sqrt().max(1e-12), "{fmt} rel-L2");
        }
    }

    #[test]
    fn qmatmul_shape_validation() {
        let w = QTensor::quantize(&[0.25; 6 * 8], &[6, 8], q8()).unwrap();
        let act = quantize_activations(KernelBackend::Scalar, &[0.5; 2 * 7], 2, 7, q8()).unwrap();
        let mut out = vec![0.0; 12];
        assert!(matches!(
            qmatmul(KernelBackend::Scalar, &act, &w, &mut out),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let act = quantize_activations(KernelBackend::Scalar, &[0.5; 2 * 8], 2, 8, q8()).unwrap();
        let mut short = vec![0.0; 5];
        assert!(matches!(
            qmatmul(KernelBackend::Scalar, &act, &w, &mut short),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn from_parts_validates_lengths_and_code_range() {
        let qt = QTensor::quantize(&[0.5; 4 * 40], &[4, 40], q8()).unwrap();
        let parts = |kind, shape: &[usize]| {
            QTensor::from_parts(kind, shape.to_vec(), qt.format(), qt.codes().to_vec())
        };
        assert_eq!(parts(QuantKind::Q8, &[4, 40]).unwrap(), qt);
        // q8 codes do not fit q4 blocks.
        assert!(parts(QuantKind::Q4, &[4, 40]).is_err());
        // 3 blocks/row: the code length no longer matches.
        let wrong_len = parts(QuantKind::Q8, &[4, 70]);
        assert!(matches!(wrong_len, Err(TensorError::LengthMismatch { .. })));
        // A Q4 tensor's codes must fit a nibble, or the checkpoint codec
        // could not store them.
        let mut codes = vec![0i8; 2 * QK];
        codes[3] = 8;
        let wide = QTensor::from_parts(QuantKind::Q4, vec![2, 20], q4(), codes);
        assert!(matches!(wide, Err(TensorError::Unsupported(_))));
    }

    #[test]
    fn rows_past_the_i32_row_total_bound_are_unsupported() {
        let unsupported = |r: Result<QTensor>| matches!(r, Err(TensorError::Unsupported(_)));
        let cols = 131_073;
        let data = vec![0.25; 2 * cols];
        assert!(unsupported(QTensor::quantize(
            &data[..cols],
            &[1, cols],
            q8()
        )));
        assert!(unsupported(QTensor::quantize(
            &data,
            &[2, 3, cols / 3],
            q4()
        )));
        let padded = vec![0; cols.div_ceil(QK) * QK];
        assert!(unsupported(QTensor::from_parts(
            QuantKind::Q8,
            vec![1, cols],
            q8(),
            padded
        )));
        // Overflowing shape products are refused, not wrapped.
        let overflow = vec![1, usize::MAX, 2];
        assert!(unsupported(QTensor::from_parts(
            QuantKind::Q8,
            overflow,
            q8(),
            vec![]
        )));
        // The longest accepted row at the extreme codes (-128 × -128, and
        // -128 × -127 for the maddubs kernel): the whole-row i32 total
        // stays exact on both backends, SIMD tiles and scalar tail alike.
        let n = 9;
        for (w_value, product) in [(-2.0f32, 16384.0f64), (-127.0 / 64.0, 16256.0)] {
            let w = QTensor::quantize(&vec![w_value; n * MAX_COLS], &[n, MAX_COLS], q8()).unwrap();
            assert_eq!(w.maddubs_safe, w_value > -2.0);
            let expected = (MAX_COLS as f64 * product / 4096.0) as f32;
            for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                let mut out = vec![0.0f32; n];
                qmatmul_f32(backend, &vec![-2.0; MAX_COLS], 1, q8(), &w, &mut out).unwrap();
                assert!(out.iter().all(|&o| o == expected), "{backend:?} {out:?}");
            }
        }
    }

    #[test]
    fn quantize_into_matches_allocating_path_and_reuses_storage() {
        let data = values(47, 4 * 50, 3.0);
        for fmt in [q4(), q8()] {
            let fresh = quantize_activations(KernelBackend::Scalar, &data, 4, 50, fmt).unwrap();
            let mut buf = QActivations::with_format(fmt).unwrap();
            quantize_activations_into(KernelBackend::Scalar, &data, 4, 50, fmt, &mut buf).unwrap();
            assert_eq!(buf.codes(), fresh.codes());
            assert_eq!(buf.scale(), fresh.scale());
            let ptr = buf.codes().as_ptr();
            // Smaller batch reuses the grown allocation, stale tail cleared.
            quantize_activations_into(KernelBackend::Scalar, &data[..2 * 50], 2, 50, fmt, &mut buf)
                .unwrap();
            assert_eq!(buf.codes().as_ptr(), ptr);
            assert_eq!(buf.rows(), 2);
            // Mismatched format is rejected rather than silently re-scaled.
            let other = if fmt == q4() { q8() } else { q4() };
            assert!(matches!(
                quantize_activations_into(KernelBackend::Scalar, &data, 4, 50, other, &mut buf),
                Err(TensorError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn parallel_band_path_matches_serial() {
        // Big enough to cross PARALLEL_THRESHOLD with the serial result
        // computed under a thread cap of 1.
        let (m, k, n) = (64, 64, 1024);
        let a = values(31, m * k, 1.0);
        let wdata = values(32, n * k, 1.0);
        let w = QTensor::quantize(&wdata, &[n, k], q8()).unwrap();
        let act = quantize_activations(KernelBackend::Scalar, &a, m, k, q8()).unwrap();
        let mut serial = vec![0.0f32; m * n];
        pool::with_thread_cap(1, || {
            qmatmul(KernelBackend::Scalar, &act, &w, &mut serial).unwrap();
        });
        let mut parallel = vec![0.0f32; m * n];
        qmatmul(KernelBackend::Scalar, &act, &w, &mut parallel).unwrap();
        assert_eq!(serial, parallel);
    }
}
