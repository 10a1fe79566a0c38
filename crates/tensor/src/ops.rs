//! Matrix multiplication kernels.
//!
//! The production entry point [`Tensor::matmul`] picks between two compute
//! kernels with a cheap density probe over the left operand, then runs the
//! chosen kernel across disjoint output row bands on the persistent worker
//! pool ([`crate::pool`]):
//!
//! * **Dense microkernel** — packs `b` into contiguous column panels, then
//!   runs a branch-free inner loop unrolled 4× over `k` and blocked in `n`.
//!   This is the fast path for ordinary dense activations and weights.
//! * **Sparse-aware kernel** — the cache-blocked i-k-j loop that skips zero
//!   multipliers from `a`. Pruned models produce weight matrices that are
//!   mostly zeros, where skipping beats the packed kernel's raw throughput.
//!
//! Both kernels run their inner loops through the backend-dispatched slice
//! kernels in [`crate::simd`]: the dense microkernel has an AVX2+FMA body
//! selected at runtime (scalar fallback below), and the sparse kernel's
//! row-axpy vectorises without changing its bit-exact scalar semantics.
//!
//! Reference implementations kept for tests and ablation benchmarks
//! (compiled only under `cfg(test)` or the `bench-ablation` feature so
//! exhibit binaries don't carry dead code):
//! [`Tensor::matmul_naive`] (obviously-correct triple loop),
//! [`Tensor::matmul_blocked_serial`] (blocked zero-skip kernel, no
//! threading), and [`Tensor::matmul_spawn_per_call`] (the pre-pool
//! behaviour: same banding, but fresh OS threads spawned on every call).

use crate::simd::{self, KernelBackend};
use crate::{pool, Result, Tensor, TensorError};

/// Edge length of the cache blocks used by the sparse-aware kernel. 64 f32
/// rows × 64 columns keeps each block pair within L1 on typical x86 cores.
const BLOCK: usize = 64;

/// Column-panel width of the dense microkernel. A `k × 128` f32 panel is at
/// most a few hundred KiB for the depths seen here and stays resident while
/// a whole row band streams through it.
const PANEL: usize = 128;

/// Minimum `m * n * k` product before work is split across the pool; below
/// this the submission overhead dominates.
const PARALLEL_THRESHOLD: usize = 64 * 64 * 64;

/// Upper bound on elements inspected by the density probe.
const DENSITY_PROBE_SAMPLES: usize = 1024;

/// Nonzero fraction at or below which the sparse-aware kernel is chosen.
/// The crossover sits well above the ≥90 %-zero regime produced by pruning,
/// and well below ordinary dense activations.
const SPARSE_NONZERO_CUTOFF: f32 = 0.25;

/// Compute kernel chosen for a matrix product. See [`Tensor::matmul`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKernel {
    /// Packed-panel, branch-free kernel for dense operands.
    Dense,
    /// Zero-skipping blocked kernel for pruned / mostly-zero operands.
    Sparse,
}

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

/// Fraction of nonzero entries in `data`, estimated from at most
/// [`DENSITY_PROBE_SAMPLES`] strided samples (exact for small inputs).
fn probe_nonzero_fraction(data: &[f32]) -> f32 {
    if data.is_empty() {
        return 1.0;
    }
    let step = (data.len() / DENSITY_PROBE_SAMPLES).max(1);
    let mut seen = 0u32;
    let mut nonzero = 0u32;
    let mut i = 0;
    while i < data.len() {
        seen += 1;
        if data[i] != 0.0 {
            nonzero += 1;
        }
        i += step;
    }
    nonzero as f32 / seen as f32
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

/// Dense microkernel over one output row band.
///
/// `out_band` holds rows `[row_start, row_start + out_band.len()/n)` of the
/// result and must be zero-initialised. On an AVX2+FMA machine with the
/// `Simd` backend selected, the whole band runs through the 8-wide FMA
/// microkernel in [`crate::simd`]; otherwise, for each panel of
/// `packed_b`, the scalar inner loop accumulates 4 `k`-steps at a time
/// into a `w`-wide output stripe with no branches, which the compiler
/// autovectorises to whatever the baseline target offers.
fn matmul_dense_rows(
    backend: KernelBackend,
    a: &[f32],
    packed_b: &[f32],
    out_band: &mut [f32],
    row_start: usize,
    k: usize,
    n: usize,
) {
    if simd::gemm_dense_rows(backend, a, packed_b, out_band, row_start, k, n, PANEL) {
        return;
    }
    let rows = out_band.len() / n;
    for j0 in (0..n).step_by(PANEL) {
        let w = PANEL.min(n - j0);
        let panel = &packed_b[k * j0..k * j0 + k * w];
        for r in 0..rows {
            let a_row = &a[(row_start + r) * k..(row_start + r + 1) * k];
            let out_row = &mut out_band[r * n + j0..r * n + j0 + w];
            let mut kk = 0;
            while kk + 4 <= k {
                let a0 = a_row[kk];
                let a1 = a_row[kk + 1];
                let a2 = a_row[kk + 2];
                let a3 = a_row[kk + 3];
                let b0 = &panel[kk * w..(kk + 1) * w];
                let b1 = &panel[(kk + 1) * w..(kk + 2) * w];
                let b2 = &panel[(kk + 2) * w..(kk + 3) * w];
                let b3 = &panel[(kk + 3) * w..(kk + 4) * w];
                for j in 0..w {
                    out_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
                kk += 4;
            }
            while kk < k {
                let av = a_row[kk];
                let brow = &panel[kk * w..(kk + 1) * w];
                for j in 0..w {
                    out_row[j] += av * brow[j];
                }
                kk += 1;
            }
        }
    }
}

/// Sparse-aware kernel over one output row band.
///
/// `out_band` holds rows `[row_start, row_start + out_band.len()/n)` and
/// must be zero-initialised. Blocked i-k-j order: the innermost loop is a
/// row axpy that runs contiguously over `b` and `out` (vectorised through
/// [`crate::simd::axpy_slices`], which is bit-exact across backends), and
/// zero multipliers from `a` are skipped entirely — the win pruned weight
/// matrices are after.
fn matmul_sparse_rows(
    backend: KernelBackend,
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    row_start: usize,
    k: usize,
    n: usize,
) {
    let row_end = row_start + out_band.len() / n;
    for i0 in (row_start..row_end).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(row_end);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i in i0..i1 {
                let out_row = &mut out_band[(i - row_start) * n..(i - row_start + 1) * n];
                let a_row = &a[i * k..(i + 1) * k];
                for kk in k0..k1 {
                    let aik = a_row[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    simd::axpy_slices(backend, out_row, b_row, aik);
                }
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

/// The kernel [`Tensor::matmul`] would choose for a left operand with this
/// backing slice — the same strided density probe, exposed for callers
/// (the graph executor) that hold activations in arena slices rather than
/// `Tensor`s.
pub fn probe_matmul_kernel(data: &[f32]) -> MatmulKernel {
    if probe_nonzero_fraction(data) <= SPARSE_NONZERO_CUTOFF {
        MatmulKernel::Sparse
    } else {
        MatmulKernel::Dense
    }
}

/// Dense GEMM against a pre-packed right operand: `out = a · b`, with `a`
/// `m × k` row-major and `out` `m × n` (fully overwritten).
///
/// Runs the identical kernel, banding policy and backend dispatch as
/// [`Tensor::matmul`] with [`MatmulKernel::Dense`], so results are
/// bit-identical to the `Tensor` entry point on every backend — the packing
/// is pure data movement.
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
        matmul_dense_rows(backend, a, &b.packed, band, row_start, k, n);
    });
    Ok(())
}

/// Sparse-aware GEMM over raw slices: `out = a · b`, zero multipliers in
/// `a` skipped. Same kernel, banding policy and backend dispatch as
/// [`Tensor::matmul`] with [`MatmulKernel::Sparse`]; `out` is fully
/// overwritten.
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] when slice lengths disagree with
/// `m × k`, `k × n`, `m × n`.
pub fn gemm_sparse(
    backend: KernelBackend,
    a: &[f32],
    m: usize,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) -> Result<()> {
    if a.len() != m * k {
        return Err(TensorError::LengthMismatch {
            expected: m * k,
            actual: a.len(),
        });
    }
    if b.len() != k * n {
        return Err(TensorError::LengthMismatch {
            expected: k * n,
            actual: b.len(),
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
        matmul_sparse_rows(backend, a, b, band, row_start, k, n);
    });
    Ok(())
}

impl Tensor {
    /// Matrix product of two 2-D tensors.
    ///
    /// Probes the density of `self` to choose between the dense packed
    /// microkernel and the sparse zero-skip kernel (see
    /// [`probe_matmul_kernel`]), then runs the kernel over disjoint output
    /// row bands on the persistent worker pool when the product is large
    /// enough to amortise the dispatch.
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
        self.matmul_with_kernel(other, probe_matmul_kernel(self.data()))
    }

    /// Matrix product with an explicitly chosen kernel (used by tests and
    /// the ablation benchmarks; prefer [`Tensor::matmul`]). Runs on the
    /// process-default backend from [`crate::simd::backend`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_with_kernel(&self, other: &Tensor, kernel: MatmulKernel) -> Result<Tensor> {
        self.matmul_with(other, kernel, simd::backend())
    }

    /// Matrix product with both the kernel and the slice-kernel backend
    /// chosen explicitly. This is the root of every matmul entry point;
    /// parity tests and the simd-vs-scalar ablation benches use it to
    /// compare backends inside one process (the `ADVCOMP_KERNEL` cache is
    /// process-wide, so flipping the environment mid-run has no effect).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_with(
        &self,
        other: &Tensor,
        kernel: MatmulKernel,
        backend: KernelBackend,
    ) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other)?;
        let mut out = Tensor::zeros(&[m, n]);
        let a = self.data();
        let b = other.data();
        match kernel {
            MatmulKernel::Dense => {
                let packed = pack_b_panels(b, k, n);
                run_banded(out.data_mut(), m, k, n, |row_start, band| {
                    matmul_dense_rows(backend, a, &packed, band, row_start, k, n);
                });
            }
            MatmulKernel::Sparse => {
                run_banded(out.data_mut(), m, k, n, |row_start, band| {
                    matmul_sparse_rows(backend, a, b, band, row_start, k, n);
                });
            }
        }
        Ok(out)
    }

    /// Blocked zero-skip matmul on the calling thread only (ablation
    /// reference; this was the only kernel before the dense/sparse split).
    /// Compiled only for tests and `bench-ablation` builds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    #[cfg(any(test, feature = "bench-ablation"))]
    pub fn matmul_blocked_serial(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = matmul_dims(self, other)?;
        let mut out = Tensor::zeros(&[m, n]);
        if m > 0 && n > 0 {
            matmul_sparse_rows(
                simd::backend(),
                self.data(),
                other.data(),
                out.data_mut(),
                0,
                k,
                n,
            );
        }
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
            matmul_dense_rows(backend, a, &packed, out.data_mut(), 0, k, n);
            return Ok(out);
        }
        let chunk_rows = m.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, band) in out.data_mut().chunks_mut(chunk_rows * n).enumerate() {
                let packed = &packed;
                scope.spawn(move || {
                    matmul_dense_rows(backend, a, packed, band, t * chunk_rows, k, n);
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
    use rand::{Rng, SeedableRng};

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
    fn blocked_matches_naive_on_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (33, 65, 17),
            (70, 70, 70),
        ] {
            let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[m, k], &mut rng);
            let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[k, n], &mut rng);
            let fast = a.matmul(&b).unwrap();
            let slow = a.matmul_naive(&b).unwrap();
            assert!(fast.allclose(&slow, 1e-4), "mismatch at {m}x{k}x{n}");
            let serial = a.matmul_blocked_serial(&b).unwrap();
            assert!(serial.allclose(&slow, 1e-4));
        }
    }

    #[test]
    fn dense_kernel_matches_naive_on_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Sizes straddle the panel width, the k-unroll remainder, and the
        // parallel threshold.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 6, 130),
            (17, 129, 257),
            (70, 70, 70),
            (130, 80, 90),
        ] {
            let a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[m, k], &mut rng);
            let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[k, n], &mut rng);
            let dense = a.matmul_with_kernel(&b, MatmulKernel::Dense).unwrap();
            let slow = a.matmul_naive(&b).unwrap();
            assert!(dense.allclose(&slow, 1e-4), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn sparse_kernel_matches_dense_on_pruned_input() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[65, 70], &mut rng);
        for v in a.data_mut().iter_mut() {
            if rng.gen::<f32>() < 0.92 {
                *v = 0.0;
            }
        }
        let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[70, 33], &mut rng);
        let sparse = a.matmul_with_kernel(&b, MatmulKernel::Sparse).unwrap();
        let dense = a.matmul_with_kernel(&b, MatmulKernel::Dense).unwrap();
        assert!(sparse.allclose(&dense, 1e-4));
    }

    #[test]
    fn probe_selects_sparse_for_pruned_and_dense_for_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let dense = Init::Uniform { lo: 0.5, hi: 1.0 }.tensor(&[64, 64], &mut rng);
        assert_eq!(probe_matmul_kernel(dense.data()), MatmulKernel::Dense);

        // ≥90 % zeros — the regime produced by magnitude pruning.
        let mut pruned = Init::Uniform { lo: 0.5, hi: 1.0 }.tensor(&[64, 64], &mut rng);
        for (i, v) in pruned.data_mut().iter_mut().enumerate() {
            if i % 10 != 0 {
                *v = 0.0;
            }
        }
        assert_eq!(probe_matmul_kernel(pruned.data()), MatmulKernel::Sparse);
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
            let reference = a.matmul_with_kernel(&b, MatmulKernel::Dense).unwrap();
            let packed = PackedGemmB::pack(b.data(), k, n).unwrap();
            let mut out = vec![f32::NAN; m * n];
            gemm_prepacked(simd::backend(), a.data(), m, &packed, &mut out).unwrap();
            assert_eq!(reference.data(), &out[..], "prepacked at {m}x{k}x{n}");
        }
    }

    #[test]
    fn sparse_slice_gemm_bit_identical_to_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let (m, k, n) = (65, 70, 33);
        let mut a = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[m, k], &mut rng);
        for v in a.data_mut().iter_mut() {
            if rng.gen::<f32>() < 0.9 {
                *v = 0.0;
            }
        }
        let b = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[k, n], &mut rng);
        let reference = a.matmul_with_kernel(&b, MatmulKernel::Sparse).unwrap();
        let mut out = vec![f32::NAN; m * n];
        gemm_sparse(simd::backend(), a.data(), m, b.data(), k, n, &mut out).unwrap();
        assert_eq!(reference.data(), &out[..]);
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
