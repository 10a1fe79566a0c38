//! Matrix multiplication kernels.
//!
//! Every f32 product runs one compute kernel, the dense microkernel: it
//! packs `b` into contiguous column panels when that changes the layout,
//! then runs a branch-free inner loop unrolled 4× over `k` and blocked in
//! `n`, across disjoint output row bands on the persistent worker pool
//! ([`crate::pool`]). Its inner loops run through the backend-dispatched
//! slice kernels in [`crate::simd`]: an AVX2+FMA body selected at runtime,
//! with the scalar loop below as the fallback.
//!
//! Per output element the kernel keeps one arithmetic per backend: on the
//! AVX2 path an in-order `mul_add` chain from +0, on the scalar path the
//! 4-step body. An element is computed from its own row of `a` and from
//! `b` only, so a row's bits never depend on the other rows, the band it
//! falls in or the batch it came with. On AVX2, products with fewer than
//! 32 output columns and a depth of at least 8 — every lowered conv
//! forward at the widths the sweeps run, whose `n` is the layer's
//! output-channel count — run each band's full 8-row groups through the
//! 8-row tile instead of the one-row body, whose 32-wide stripes would
//! leave most of such a product to a scalar tail. The tile computes the
//! same chain, so it changes speed, not bits. `crates/tensor/tests/kernels.rs`
//! pins all of this. (On the AVX2 backend stride-1 convolutions skip the
//! GEMM — every pass of `Conv2d`, and the graph executor's f32 conv steps,
//! which run the same forward: the direct kernels of `crate::conv` compute
//! the bits of this kernel.)
//!
//! Reference implementations kept for tests and ablation benchmarks
//! (compiled only under `cfg(test)` or the `bench-ablation` feature so
//! exhibit binaries don't carry dead code):
//! [`Tensor::matmul_naive`] (obviously-correct triple loop) and
//! [`Tensor::matmul_spawn_per_call`] (the pre-pool behaviour: same
//! banding, but fresh OS threads spawned on every call).

use crate::simd::{self, KernelBackend, TILE_MAX_N};
use crate::{pool, Result, Tensor, TensorError};

/// Column-panel width of the dense microkernel. A `k × 128` f32 panel is at
/// most a few hundred KiB for the depths seen here and stays resident while
/// a whole row band streams through it.
const PANEL: usize = 128;

/// Minimum `m * n * k` product before work is split across the pool; below
/// this the submission overhead dominates.
pub(crate) const PARALLEL_THRESHOLD: usize = 64 * 64 * 64;

/// Depth below which the tile is not used: it moves every output through
/// a transpose, and at a depth of 3 (the input gradient of a 3-channel
/// conv) that costs more than the products.
const TILE_MIN_K: usize = 8;

fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    if a.ndim() != 2 || b.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.ndim() != 2 { a.ndim() } else { b.ndim() },
            op: "matmul",
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
            op: "matmul",
        });
    }
    Ok((m, k, n))
}

/// Packs `b` (`k × n`, row-major) into column panels of width [`PANEL`].
///
/// Panel `p` covers columns `[p*PANEL, p*PANEL+w)` and is stored as `k`
/// contiguous rows of `w` elements at offset `k * p * PANEL`. The panels
/// tile `n` exactly, so the packed buffer has the same `k * n` length but
/// each panel's rows sit `w` (not `n`) apart — the access pattern the dense
/// microkernel streams through.
fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; k * n];
    for j0 in (0..n).step_by(PANEL) {
        let w = PANEL.min(n - j0);
        let base = k * j0;
        for kk in 0..k {
            packed[base + kk * w..base + (kk + 1) * w]
                .copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
        }
    }
    packed
}

/// How the dense microkernel finds the column panel of `b` that starts at
/// column `j0` and is `w` wide: returns the panel's first element and the
/// distance between its rows. Packed panels (see [`pack_b_panels`]) are
/// `k` rows of `w`; unpacked, `b` is read in place with row stride `n`.
/// For `n ≤ PANEL` the two coincide.
pub(crate) fn panel_at(packed: bool, k: usize, n: usize, j0: usize, w: usize) -> (usize, usize) {
    if packed {
        (k * j0, w)
    } else {
        (j0, n)
    }
}

/// Dense microkernel over one output row band.
///
/// `out_band` holds rows `[row_start, row_start + out_band.len()/n)` of the
/// result and must be zero-initialised. `b` is either packed into column
/// panels (`packed`) or row-major `k × n`; the layout changes where the
/// panels are read from, never the arithmetic. On an AVX2+FMA machine with
/// the `Simd` backend selected, the band runs through [`crate::simd`]: its
/// full 8-row groups through the 8-row FMA tile when `n` < [`TILE_MAX_N`]
/// and `k` ≥ [`TILE_MIN_K`] (one panel, laid out as `b` itself), the other
/// rows through the 32-wide FMA stripe body. Both evaluate each element as
/// an in-order `mul_add` chain from +0. Otherwise, for each panel of `b`,
/// the scalar inner loop accumulates 4 `k`-steps at a time into a
/// `w`-wide output stripe with no branches, which the compiler
/// autovectorises to whatever the baseline target offers.
#[allow(clippy::too_many_arguments)]
fn matmul_dense_rows(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    packed: bool,
    out_band: &mut [f32],
    row_start: usize,
    k: usize,
    n: usize,
) {
    let tiled = if n < TILE_MAX_N && k >= TILE_MIN_K {
        simd::gemm_tile_rows(backend, a, b, out_band, row_start, k, n)
    } else {
        0
    };
    let (out_band, row_start) = (&mut out_band[tiled * n..], row_start + tiled);
    if out_band.is_empty()
        || simd::gemm_dense_rows(backend, a, b, packed, out_band, row_start, k, n, PANEL)
    {
        return;
    }
    let rows = out_band.len() / n;
    for j0 in (0..n).step_by(PANEL) {
        let w = PANEL.min(n - j0);
        let (base, stride) = panel_at(packed, k, n, j0, w);
        let brow = |kk: usize| &b[base + kk * stride..base + kk * stride + w];
        for r in 0..rows {
            let a_row = &a[(row_start + r) * k..(row_start + r + 1) * k];
            let out_row = &mut out_band[r * n + j0..r * n + j0 + w];
            let mut kk = 0;
            while kk + 4 <= k {
                let a0 = a_row[kk];
                let a1 = a_row[kk + 1];
                let a2 = a_row[kk + 2];
                let a3 = a_row[kk + 3];
                let (b0, b1, b2, b3) = (brow(kk), brow(kk + 1), brow(kk + 2), brow(kk + 3));
                for j in 0..w {
                    out_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
                kk += 4;
            }
            while kk < k {
                let av = a_row[kk];
                let b0 = brow(kk);
                for j in 0..w {
                    out_row[j] += av * b0[j];
                }
                kk += 1;
            }
        }
    }
}

/// Runs `kernel(row_start, band)` over `out` (`m × n`, zero-initialised):
/// across disjoint row bands on the pool when the product crosses
/// [`PARALLEL_THRESHOLD`] and at least two threads and rows are available,
/// as one band on the calling thread otherwise. The one banding decision
/// every f32 GEMM entry point shares.
fn run_banded<F>(out: &mut [f32], m: usize, k: usize, n: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    let threads = pool::global().effective_threads();
    if m * k * n >= PARALLEL_THRESHOLD && threads >= 2 && m >= 2 {
        pool::for_each_row_band(out, n, threads, kernel);
    } else {
        kernel(0, out);
    }
}

/// A weight matrix pre-packed into the dense microkernel's column-panel
/// layout (each panel stored as `k` contiguous rows).
///
/// The graph compiler packs each f32 weight matrix once at plan-compile
/// time and reuses the panels for every forward pass, where
/// [`Tensor::matmul`] re-packs its right operand on every call. The packed
/// buffer holds the same `k × n` elements; only the layout differs.
#[derive(Debug, Clone)]
pub struct PackedGemmB {
    packed: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedGemmB {
    /// Packs `b` (`k × n`, row-major) into column panels.
    pub fn pack(b: &[f32], k: usize, n: usize) -> Result<PackedGemmB> {
        if b.len() != k * n {
            return Err(TensorError::LengthMismatch {
                expected: k * n,
                actual: b.len(),
            });
        }
        Ok(PackedGemmB {
            packed: pack_b_panels(b, k, n),
            k,
            n,
        })
    }

    /// Inner (reduction) dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output column count.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Dense GEMM against a pre-packed right operand: `out = a · b`, with `a`
/// `m × k` row-major and `out` `m × n` (fully overwritten).
///
/// Runs the identical kernel, banding policy and backend dispatch as
/// [`Tensor::matmul`], so results are bit-identical to the `Tensor` entry
/// point on every backend — the packing is pure data movement.
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] when `a` or `out` disagree with
/// `m × b.k()` / `m × b.n()`.
pub fn gemm_prepacked(
    backend: KernelBackend,
    a: &[f32],
    m: usize,
    b: &PackedGemmB,
    out: &mut [f32],
) -> Result<()> {
    let (k, n) = (b.k, b.n);
    if a.len() != m * k {
        return Err(TensorError::LengthMismatch {
            expected: m * k,
            actual: a.len(),
        });
    }
    if out.len() != m * n {
        return Err(TensorError::LengthMismatch {
            expected: m * n,
            actual: out.len(),
        });
    }
    out.fill(0.0);
    run_banded(out, m, k, n, |row_start, band| {
        matmul_dense_rows(backend, a, &b.packed, true, band, row_start, k, n);
    });
    Ok(())
}

/// `out = a · b`: `a` is `m × k` and `b` `k × n`, both row-major, and
/// `out` is the zero-initialised `m × n` result, `m = out.len() / n`. The
/// body of [`Tensor::matmul_with`], and of the lowered convolution forward,
/// which keeps its operands in caller-owned scratch.
pub(crate) fn matmul_slices(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    let m = out.len().checked_div(n).unwrap_or(0);
    // Pack only when it changes the layout and a panel is read more than
    // once: for `n ≤ PANEL` the packed layout is `b` itself, and a one-row
    // product streams each panel once.
    let packed;
    let (b, is_packed) = if n <= PANEL || m == 1 {
        (b, false)
    } else {
        packed = pack_b_panels(b, k, n);
        (&packed[..], true)
    };
    run_banded(out, m, k, n, |row_start, band| {
        matmul_dense_rows(backend, a, b, is_packed, band, row_start, k, n);
    });
}

impl Tensor {
    /// Matrix product of two 2-D tensors.
    ///
    /// Runs the dense microkernel over disjoint output row bands on the
    /// persistent worker pool when the product is large enough to amortise
    /// the dispatch, on the process-default backend from
    /// [`crate::simd::backend`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are 2-D,
    /// and [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use advcomp_tensor::Tensor;
    /// # fn main() -> Result<(), advcomp_tensor::TensorError> {
    /// let a = Tensor::eye(3);
    /// let b = Tensor::new(&[3, 1], vec![1.0, 2.0, 3.0])?;
    /// assert_eq!(a.matmul(&b)?.data(), &[1.0, 2.0, 3.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_with(other, simd::backend())
    }

    /// Matrix product with the slice-kernel backend chosen explicitly. This
    /// is the root of every matmul entry point; parity tests and the
    /// simd-vs-scalar ablation benches use it to compare backends inside
    /// one process (the `ADVCOMP_KERNEL` cache is process-wide, so flipping
    /// the environment mid-run has no effect).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_with(&self, other: &Tensor, backend: KernelBackend) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other)?;
        let mut out = Tensor::zeros(&[m, n]);
        matmul_slices(backend, self.data(), other.data(), out.data_mut(), k, n);
        Ok(out)
    }

    /// Banded matmul that spawns fresh OS threads on every call — the
    /// pre-pool behaviour, kept only so the pooled-vs-spawned ablation
    /// bench measures real thread-creation cost against the same dense
    /// compute kernel. Production code must use [`Tensor::matmul`].
    /// Compiled only for tests and `bench-ablation` builds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    #[cfg(any(test, feature = "bench-ablation"))]
    pub fn matmul_spawn_per_call(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other)?;
        let mut out = Tensor::zeros(&[m, n]);
        if m == 0 || n == 0 {
            return Ok(out);
        }
        let backend = simd::backend();
        let a = self.data();
        let packed = pack_b_panels(other.data(), k, n);
        let threads = pool::available_threads();
        if m * k * n < PARALLEL_THRESHOLD || threads < 2 || m < 2 {
            matmul_dense_rows(backend, a, &packed, true, out.data_mut(), 0, k, n);
            return Ok(out);
        }
        let chunk_rows = m.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, band) in out.data_mut().chunks_mut(chunk_rows * n).enumerate() {
                let packed = &packed;
                scope.spawn(move || {
                    matmul_dense_rows(backend, a, packed, true, band, t * chunk_rows, k, n);
                });
            }
        });
        Ok(out)
    }

    /// Textbook triple-loop matmul (correctness reference). Compiled only
    /// for tests and `bench-ablation` builds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    #[cfg(any(test, feature = "bench-ablation"))]
    pub fn matmul_naive(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other)?;
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += self.data()[i * k + kk] * other.data()[kk * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        Ok(out)
    }

    /// Matrix–vector product: `[m, k] × [k] -> [m]`.
    ///
    /// # Errors
    ///
    /// Returns rank/shape errors mirroring [`Tensor::matmul`].
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        if v.ndim() != 1 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: v.ndim(),
                op: "matvec",
            });
        }
        let col = v.reshape(&[v.len(), 1])?;
        let out = self.matmul(&col)?;
        out.reshape(&[self.shape()[0]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Init;
    use rand::SeedableRng;

    #[test]
    fn small_matmul_exact() {
        let a = Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::new(&[3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            a.matmul(&v),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_matches_naive_on_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Sizes straddle the panel width, the k-unroll remainder, and the
        // parallel threshold.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (3, 6, 130),
            (33, 65, 17),
            (17, 129, 257),
            (70, 70, 70),
            (130, 80, 90),
        ] {
            let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[m, k], &mut rng);
            let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[k, n], &mut rng);
            let fast = a.matmul(&b).unwrap();
            let slow = a.matmul_naive(&b).unwrap();
            assert!(fast.allclose(&slow, 1e-4), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        // Big enough to cross PARALLEL_THRESHOLD.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[130, 80], &mut rng);
        let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[80, 90], &mut rng);
        let fast = a.matmul(&b).unwrap();
        let slow = a.matmul_naive(&b).unwrap();
        assert!(fast.allclose(&slow, 1e-3));
    }

    #[test]
    fn spawn_per_call_matches_pooled() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[128, 128], &mut rng);
        let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[128, 128], &mut rng);
        let pooled = a.matmul(&b).unwrap();
        let spawned = a.matmul_spawn_per_call(&b).unwrap();
        assert!(pooled.allclose(&spawned, 1e-5));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let v = Tensor::from_vec(vec![1., 0., -1.]);
        let out = a.matvec(&v).unwrap();
        assert_eq!(out.shape(), &[2]);
        assert_eq!(out.data(), &[-2.0, -2.0]);
        assert!(a.matvec(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn prepacked_gemm_bit_identical_to_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (7, 33, 130), (130, 80, 90)] {
            let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[m, k], &mut rng);
            let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[k, n], &mut rng);
            let reference = a.matmul(&b).unwrap();
            let packed = PackedGemmB::pack(b.data(), k, n).unwrap();
            let mut out = vec![f32::NAN; m * n];
            gemm_prepacked(simd::backend(), a.data(), m, &packed, &mut out).unwrap();
            assert_eq!(reference.data(), &out[..], "prepacked at {m}x{k}x{n}");
        }
    }

    #[test]
    fn unpacked_dense_reads_bit_identical_to_packed() {
        // `matmul_with` reads `b` in place when packing would not change
        // its layout (n ≤ PANEL) or no panel is reused (m = 1);
        // `gemm_prepacked` always reads packed panels.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for &(m, k) in &[(1usize, 60usize), (1, 7), (5, 33)] {
            for &n in &[1usize, 127, 128, 129, 200] {
                let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[m, k], &mut rng);
                let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[k, n], &mut rng);
                let packed = PackedGemmB::pack(b.data(), k, n).unwrap();
                for be in [KernelBackend::Scalar, KernelBackend::Simd] {
                    let got = a.matmul_with(&b, be).unwrap();
                    let mut want = vec![f32::NAN; m * n];
                    gemm_prepacked(be, a.data(), m, &packed, &mut want).unwrap();
                    let same = got
                        .data()
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(same, "{m}x{k}x{n} on {}", be.name());
                }
            }
        }
    }

    #[test]
    fn prepacked_rejects_bad_lengths() {
        assert!(PackedGemmB::pack(&[0.0; 5], 2, 3).is_err());
        let b = PackedGemmB::pack(&[0.0; 6], 2, 3).unwrap();
        let mut out = vec![0.0; 6];
        assert!(gemm_prepacked(simd::backend(), &[0.0; 3], 2, &b, &mut out).is_err());
        assert!(gemm_prepacked(simd::backend(), &[0.0; 4], 2, &b, &mut out[..5]).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[4, 4], &mut rng);
        let i = Tensor::eye(4);
        assert!(a.matmul(&i).unwrap().allclose(&a, 1e-6));
        assert!(i.matmul(&a).unwrap().allclose(&a, 1e-6));
    }
}
