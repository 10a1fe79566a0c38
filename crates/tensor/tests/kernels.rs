//! Property tests for the pooled GEMM kernels and the parallelised
//! convolution lowering.
//!
//! The pool is sized once per process from `ADVCOMP_THREADS`, so a single
//! test binary cannot vary the environment variable between cases. Instead
//! these tests sweep caps 1, 2 and 8 through `pool::with_thread_cap`, which
//! caps the parallelism a caller uses without touching the pool itself.
//! A cap is clamped to the pool size, so a cap only splits work as it
//! names when the pool has at least that many threads: on a 1-core host
//! every cap runs serially. `scripts/check.sh` therefore also runs this
//! binary with `ADVCOMP_THREADS=8`.

use advcomp_tensor::{
    col2im, gemm_prepacked, gemm_sparse, im2col, im2col_into, nchw_to_rows, pool, rows_to_nchw,
    simd, Conv2dGeometry, Init, KernelBackend, MatmulKernel, PackedGemmB, Tensor,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn uniform(shape: &[usize], rng: &mut rand::rngs::StdRng) -> Tensor {
    Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(shape, rng)
}

/// Local triple-loop reference (the library's `matmul_naive` is gated
/// behind `cfg(test)` / the `bench-ablation` feature and integration tests
/// compile against the production surface).
fn naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled matmul (both kernels), the serial blocked kernel and the
    /// naive reference agree for every thread cap, including row counts
    /// that do not divide evenly into bands. Sizes straddle the parallel
    /// threshold so both the serial and the pooled dispatch run.
    #[test]
    fn kernels_agree_under_thread_caps(
        m in 1usize..70,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Force past the parallel threshold for a third of the cases by
        // widening k (m stays non-divisible-prone).
        let k = if seed % 3 == 0 { k + 64 } else { k };
        let a = uniform(&[m, k], &mut rng);
        let b = uniform(&[k, n], &mut rng);
        let reference = naive(&a, &b);
        // Both explicit backends must agree with the reference regardless
        // of which one ADVCOMP_KERNEL selected for this process.
        for be in [KernelBackend::Scalar, KernelBackend::Simd] {
            let dense = a.matmul_with(&b, MatmulKernel::Dense, be).unwrap();
            prop_assert!(dense.allclose(&reference, 1e-4), "dense/{} vs naive", be.name());
            let sparse = a.matmul_with(&b, MatmulKernel::Sparse, be).unwrap();
            prop_assert!(sparse.allclose(&reference, 1e-4), "sparse/{} vs naive", be.name());
        }
        for cap in [1usize, 2, 8] {
            let (pooled, dense, sparse) = pool::with_thread_cap(cap, || {
                (
                    a.matmul(&b).unwrap(),
                    a.matmul_with_kernel(&b, MatmulKernel::Dense).unwrap(),
                    a.matmul_with_kernel(&b, MatmulKernel::Sparse).unwrap(),
                )
            });
            prop_assert!(pooled.allclose(&reference, 1e-4), "pooled vs naive, cap {cap}");
            prop_assert!(dense.allclose(&reference, 1e-4), "dense vs naive, cap {cap}");
            prop_assert!(sparse.allclose(&reference, 1e-4), "sparse vs naive, cap {cap}");
        }
    }

    /// The parallelised im2col/col2im pair keeps the adjoint identity
    /// <im2col(x), y> == <x, col2im(y)> at every thread cap, and the
    /// scratch-reusing im2col_into matches the allocating im2col exactly.
    #[test]
    fn conv_lowering_adjoint_under_thread_caps(
        batch in 1usize..5,
        c in 1usize..3,
        hw in 3usize..8,
        kern in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(hw + 2 * pad >= kern);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let geom = Conv2dGeometry::square(c, hw, kern, stride, pad);
        let (oh, ow) = geom.output_hw().unwrap();
        let x = uniform(&[batch, c, hw, hw], &mut rng);
        let y = uniform(&[batch * oh * ow, geom.patch_len()], &mut rng);
        let mut scratch = Tensor::default();
        for cap in [1usize, 2, 8] {
            let (ax, aty) = pool::with_thread_cap(cap, || {
                im2col_into(&x, &geom, &mut scratch).unwrap();
                (im2col(&x, &geom).unwrap(), col2im(&y, &geom, batch).unwrap())
            });
            prop_assert_eq!(scratch.data(), ax.data(), "im2col_into vs im2col, cap {}", cap);
            let lhs: f64 = ax.data().iter().zip(y.data())
                .map(|(a, b)| (*a as f64) * (*b as f64)).sum();
            let rhs: f64 = x.data().iter().zip(aty.data())
                .map(|(a, b)| (*a as f64) * (*b as f64)).sum();
            prop_assert!(
                (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
                "adjoint broke at cap {cap}: {lhs} vs {rhs}"
            );
        }
    }

    /// The GEMM-row/NCHW reorders are mutually inverse at every thread cap.
    #[test]
    fn nchw_reorder_roundtrip_under_thread_caps(
        batch in 1usize..5,
        oc in 1usize..6,
        oh in 1usize..6,
        ow in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows = uniform(&[batch * oh * ow, oc], &mut rng);
        for cap in [1usize, 2, 8] {
            let back = pool::with_thread_cap(cap, || {
                let nchw = rows_to_nchw(&rows, batch, oc, oh, ow).unwrap();
                nchw_to_rows(&nchw, batch, oc, oh, ow).unwrap()
            });
            prop_assert_eq!(back.data(), rows.data(), "roundtrip broke at cap {}", cap);
        }
    }
}

/// Deterministic (non-property) check on the exact acceptance shapes: a
/// 128×128×128 product, the size the ablation bench measures, under both
/// explicit backends.
#[test]
fn acceptance_size_agrees_across_kernels() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let a = uniform(&[128, 128], &mut rng);
    let b = uniform(&[128, 128], &mut rng);
    let reference = naive(&a, &b);
    assert!(a.matmul(&b).unwrap().allclose(&reference, 1e-4));
    for be in [KernelBackend::Scalar, KernelBackend::Simd] {
        assert!(a
            .matmul_with(&b, MatmulKernel::Dense, be)
            .unwrap()
            .allclose(&reference, 1e-4));
    }
}

/// Row counts around the 8-row tile of the AVX2 kernels (a partial tile, one
/// tile, one plus a row, several), depths around its `k` blocks, and every
/// output width below the tile cutoff (32) and a few above it.
const PIN_M: [usize; 6] = [1, 7, 8, 9, 17, 100];
const PIN_K: [usize; 5] = [1, 3, 25, 99, 300];
const PIN_N: std::ops::RangeInclusive<usize> = 1..=40;

/// Reference: every element as an in-order `f32::mul_add` chain from +0.
fn fma_chain(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Reference: every element as an in-order `acc + a * b` chain from +0
/// that skips each `a == 0` (either sign).
fn zero_skip_chain(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let av = a[i * k + kk];
                if av != 0.0 {
                    acc += av * b[kk * n + j];
                }
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// `m × k` left operand: uniform values with about a third of the entries
/// replaced by +0 or −0, and every fifth column (from column 1) all zero so
/// the right operand can hold non-finite rows there.
fn pin_lhs(m: usize, k: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    use rand::Rng;
    let mut a = uniform(&[m, k], rng).into_data();
    for (idx, v) in a.iter_mut().enumerate() {
        let kk = idx % k;
        let roll = rng.gen_range(0u32..6);
        if kk % 5 == 1 || roll == 0 {
            *v = 0.0;
        } else if roll == 1 {
            *v = -0.0;
        }
    }
    a
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{label}: element {idx} is {g:e} ({:#010x}), want {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs `gemm(a, m)` on the whole `m`-row operand and on each row alone,
/// checks the full product against `want`, and checks that row `i` of it
/// equals the 1-row product of row `i`.
fn check_product(
    label: &str,
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    want: Option<&[f32]>,
    gemm: &dyn Fn(&[f32], usize) -> Vec<f32>,
) {
    let full = gemm(a, m);
    if let Some(want) = want {
        assert_bits(label, &full, want);
    }
    for i in 0..m {
        let row = gemm(&a[i * k..(i + 1) * k], 1);
        assert_bits(
            &format!("{label}: row {i} vs its 1-row product"),
            &full[i * n..(i + 1) * n],
            &row,
        );
    }
}

/// Pins the per-element arithmetic of both f32 GEMM kernels through all
/// three entry points (`Tensor::matmul_with`, `gemm_prepacked`,
/// `gemm_sparse`), so no kernel body — the AVX2 8-row tile for narrow
/// outputs included — can drift from it:
///
/// * on an AVX2+FMA host, the SIMD dense GEMM is an in-order `mul_add`
///   chain from +0, bit for bit;
/// * on both backends, the zero-skip GEMM is an in-order `acc + a·b` chain
///   that skips `a == 0`, bit for bit, even where `b` holds ±∞ or NaN
///   facing only zero multipliers;
/// * on both backends and both kernels, row `i` of an `m`-row product is
///   the 1-row product of row `i`.
#[test]
fn gemm_kernels_keep_per_element_arithmetic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    for &m in &PIN_M {
        for &k in &PIN_K {
            for n in PIN_N {
                let a = pin_lhs(m, k, &mut rng);
                let b_finite = uniform(&[k, n], &mut rng).into_data();
                // Non-finite rows of b sit where every multiplier is zero.
                let mut b_poisoned = b_finite.clone();
                for kk in (1..k).step_by(5) {
                    let row = &mut b_poisoned[kk * n..(kk + 1) * n];
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
                    }
                }
                let fma_want = fma_chain(&a, &b_finite, m, k, n);
                let skip_want = zero_skip_chain(&a, &b_poisoned, m, k, n);
                let packed = PackedGemmB::pack(&b_finite, k, n).unwrap();
                let bt_finite = Tensor::new(&[k, n], b_finite.clone()).unwrap();
                let bt_poisoned = Tensor::new(&[k, n], b_poisoned.clone()).unwrap();
                for be in [KernelBackend::Scalar, KernelBackend::Simd] {
                    let shape = format!("{m}x{k}x{n} {}", be.name());
                    // The dense chain is pinned where the FMA body runs; the
                    // scalar dense body sums 4 products per step.
                    let dense_want = (be == KernelBackend::Simd && simd::simd_available())
                        .then_some(&fma_want[..]);
                    let matmul = |bt: &Tensor, kernel: MatmulKernel, a: &[f32], rows: usize| {
                        let at = Tensor::new(&[rows, k], a.to_vec()).unwrap();
                        at.matmul_with(bt, kernel, be).unwrap().into_data()
                    };
                    check_product(
                        &format!("matmul dense {shape}"),
                        &a,
                        m,
                        k,
                        n,
                        dense_want,
                        &|a: &[f32], rows: usize| matmul(&bt_finite, MatmulKernel::Dense, a, rows),
                    );
                    check_product(
                        &format!("gemm_prepacked {shape}"),
                        &a,
                        m,
                        k,
                        n,
                        dense_want,
                        &|a: &[f32], rows: usize| {
                            let mut out = vec![f32::NAN; rows * n];
                            gemm_prepacked(be, a, rows, &packed, &mut out).unwrap();
                            out
                        },
                    );
                    check_product(
                        &format!("matmul zero-skip {shape}"),
                        &a,
                        m,
                        k,
                        n,
                        Some(&skip_want),
                        &|a: &[f32], rows: usize| {
                            matmul(&bt_poisoned, MatmulKernel::Sparse, a, rows)
                        },
                    );
                    check_product(
                        &format!("gemm_sparse {shape}"),
                        &a,
                        m,
                        k,
                        n,
                        Some(&skip_want),
                        &|a: &[f32], rows: usize| {
                            let mut out = vec![f32::NAN; rows * n];
                            gemm_sparse(be, a, rows, &b_poisoned, k, n, &mut out).unwrap();
                            out
                        },
                    );
                }
            }
        }
    }
}
