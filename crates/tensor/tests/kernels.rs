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
    col2im, im2col, im2col_into, nchw_to_rows, pool, rows_to_nchw, Conv2dGeometry, Init,
    KernelBackend, MatmulKernel, Tensor,
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
        pad in 0usize..2,
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
