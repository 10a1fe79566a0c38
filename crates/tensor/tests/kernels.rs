//! Property tests for the pooled GEMM kernels and the parallelised
//! convolution lowering, and parity tests for the direct convolution,
//! fake-quantiser, ReLU and max-pool kernels.
//!
//! The pool is sized once per process from `ADVCOMP_THREADS`, so a single
//! test binary cannot vary the environment variable between cases. Instead
//! these tests sweep caps 1, 2 and 8 through `pool::with_thread_cap`, which
//! caps the parallelism a caller uses without touching the pool itself.
//! A cap is clamped to the pool size, so a cap only splits work as it
//! names when the pool has at least that many threads: on a 1-core host
//! every cap runs serially. `scripts/check.sh` therefore also runs this
//! binary with `ADVCOMP_THREADS=8`.

use advcomp_qformat::QFormat;
use advcomp_tensor::{
    col2im, conv2d_forward, conv2d_input_grad, conv2d_weight_grad, conv_impl,
    fake_quantize_in_place, gemm_prepacked, im2col, im2col_into, max_pool2d, max_pool2d_backward,
    nchw_to_rows, pool, quantize_activations, quantize_patches_into, rows_to_nchw, simd,
    Conv2dGeometry, ConvImpl, ConvScratch, Init, KernelBackend, PackedGemmB, QActivations, Tensor,
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

    /// Pooled matmul on both backends and the naive reference agree for
    /// every thread cap, including row counts that do not divide evenly
    /// into bands. Sizes straddle the parallel threshold so both the serial
    /// and the pooled dispatch run.
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
            let out = a.matmul_with(&b, be).unwrap();
            prop_assert!(out.allclose(&reference, 1e-4), "{} vs naive", be.name());
        }
        for cap in [1usize, 2, 8] {
            let pooled = pool::with_thread_cap(cap, || a.matmul(&b).unwrap());
            prop_assert!(pooled.allclose(&reference, 1e-4), "pooled vs naive, cap {cap}");
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
        assert!(a.matmul_with(&b, be).unwrap().allclose(&reference, 1e-4));
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

/// Equal bits.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits()
}

/// Equal bits, or both NaN: a NaN's payload depends on which operand an
/// instruction propagates, not on the arithmetic under test.
fn same_value(a: f32, b: f32) -> bool {
    same_bits(a, b) || (a.is_nan() && b.is_nan())
}

/// Asserts `same(got[i], want[i])` for every element.
fn assert_elements(label: &str, got: &[f32], want: &[f32], same: fn(f32, f32) -> bool) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(*g, *w),
            "{label}: element {idx} is {g:e} ({:#010x}), want {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_elements(label, got, want, same_bits);
}

/// Runs `gemm(a, m)` on the whole `m`-row operand and on each row alone,
/// checks the full product against `want`, and checks that row `i` of it
/// equals the 1-row product of row `i`, every element by `same`.
#[allow(clippy::too_many_arguments)]
fn check_product(
    label: &str,
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    want: Option<&[f32]>,
    same: fn(f32, f32) -> bool,
    gemm: &dyn Fn(&[f32], usize) -> Vec<f32>,
) {
    let full = gemm(a, m);
    if let Some(want) = want {
        assert_elements(label, &full, want, same);
    }
    for i in 0..m {
        let row = gemm(&a[i * k..(i + 1) * k], 1);
        assert_elements(
            &format!("{label}: row {i} vs its 1-row product"),
            &full[i * n..(i + 1) * n],
            &row,
            same,
        );
    }
}

/// Pins the per-element arithmetic of the f32 GEMM through both entry
/// points (`Tensor::matmul_with`, `gemm_prepacked`), so no kernel body —
/// the AVX2 8-row tile for narrow outputs included — can drift from it:
///
/// * on an AVX2+FMA host, the SIMD GEMM is an in-order `mul_add` chain
///   from +0, bit for bit;
/// * on both backends, a zero multiplier facing ±∞ or NaN in `b` gives NaN,
///   as IEEE multiplication does, so no body skips a zero term;
/// * on both backends, row `i` of an `m`-row product is the 1-row product
///   of row `i`.
#[test]
fn gemm_kernels_keep_per_element_arithmetic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    for &m in &PIN_M {
        for &k in &PIN_K {
            for n in PIN_N {
                let a = pin_lhs(m, k, &mut rng);
                let b_finite = uniform(&[k, n], &mut rng).into_data();
                // Non-finite rows of b sit where every multiplier is zero, so
                // for k > 1 every element of the product is NaN.
                let mut b_poisoned = b_finite.clone();
                for kk in (1..k).step_by(5) {
                    let row = &mut b_poisoned[kk * n..(kk + 1) * n];
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][j % 3];
                    }
                }
                let fma_want = fma_chain(&a, &b_finite, m, k, n);
                let nan_want = vec![f32::NAN; m * n];
                let operands = [(b_finite, "finite"), (b_poisoned, "poisoned")].map(|(b, name)| {
                    let packed = PackedGemmB::pack(&b, k, n).unwrap();
                    (Tensor::new(&[k, n], b).unwrap(), packed, name)
                });
                for be in [KernelBackend::Scalar, KernelBackend::Simd] {
                    // The chain is pinned where the FMA body runs; the scalar
                    // body sums 4 products per step.
                    let fma = be == KernelBackend::Simd && simd::simd_available();
                    for (bt, packed, name) in &operands {
                        let (want, same): (_, fn(f32, f32) -> bool) = match *name {
                            "finite" => (fma.then_some(&fma_want[..]), same_bits),
                            _ => ((k > 1).then_some(&nan_want[..]), same_value),
                        };
                        let shape = format!("{m}x{k}x{n} {name} {}", be.name());
                        check_product(
                            &format!("matmul {shape}"),
                            &a,
                            m,
                            k,
                            n,
                            want,
                            same,
                            &|a: &[f32], rows: usize| {
                                let at = Tensor::new(&[rows, k], a.to_vec()).unwrap();
                                at.matmul_with(bt, be).unwrap().into_data()
                            },
                        );
                        check_product(
                            &format!("gemm_prepacked {shape}"),
                            &a,
                            m,
                            k,
                            n,
                            want,
                            same,
                            &|a: &[f32], rows: usize| {
                                let mut out = vec![f32::NAN; rows * n];
                                gemm_prepacked(be, a, rows, packed, &mut out).unwrap();
                                out
                            },
                        );
                    }
                }
            }
        }
    }
}

/// `len` values uniform in [-1, 1), of which about a `density` fraction is
/// nonzero; the zeros take both signs.
fn with_density(len: usize, density: f32, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    use rand::Rng;
    let mut v = uniform(&[len], rng).into_data();
    for x in v.iter_mut() {
        if rng.gen::<f32>() >= density {
            *x = if rng.gen::<bool>() { 0.0 } else { -0.0 };
        }
    }
    v
}

fn assert_same(label: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    assert_elements(label, got.data(), want.data(), same_value);
}

/// One convolution: geometry, output channels and batch.
#[derive(Debug, Clone, Copy)]
struct ConvCase {
    c: usize,
    oc: usize,
    k: usize,
    pad: usize,
    hw: usize,
    batch: usize,
}

impl ConvCase {
    fn geom(&self) -> Conv2dGeometry {
        Conv2dGeometry::square(self.c, self.hw, self.k, 1, self.pad)
    }

    /// Input, output gradient, weight and bias, the first two with about a
    /// `density` fraction of nonzero entries.
    fn data(&self, density: f32, rng: &mut rand::rngs::StdRng) -> ConvData {
        let oh = self.geom().output_hw().unwrap().0;
        let (n, c, oc, hw) = (self.batch, self.c, self.oc, self.hw);
        let x = with_density(n * c * hw * hw, density, rng);
        let dy = with_density(n * oc * oh * oh, density, rng);
        ConvData {
            x: Tensor::new(&[n, c, hw, hw], x).unwrap(),
            dy: Tensor::new(&[n, oc, oh, oh], dy).unwrap(),
            weight: uniform(&[oc, c, self.k, self.k], rng),
            bias: uniform(&[oc], rng),
        }
    }
}

/// The operands of one [`ConvCase`].
struct ConvData {
    x: Tensor,
    dy: Tensor,
    weight: Tensor,
    bias: Tensor,
}

/// The six sweep convolutions, LeNet-5 at width 0.5 and CifarNet at width
/// 0.35, as `(c, oc, k, pad, hw)`.
const SWEEP_CONVS: [(usize, usize, usize, usize, usize); 6] = [
    (1, 3, 5, 2, 28),
    (3, 8, 5, 0, 14),
    (3, 11, 3, 1, 32),
    (11, 11, 3, 1, 32),
    (11, 22, 3, 1, 16),
    (22, 22, 3, 1, 8),
];

/// Every `c ∈ {1, 3, 11, 22}`, `oc ∈ {1, 3, 8, 11, 22}`, `k ∈ {1, 3, 5}`
/// and `pad < k`, each at one spatial size in 5..=32 and one batch of 1, 3
/// or 48 (batch 48 only where the patch matrix stays small), a 4 × 4
/// kernel at every `pad < 4` (a width no weight-gradient segment divides
/// but 1), plus the six sweep convolutions at batch 1 and 48.
fn conv_cases() -> Vec<ConvCase> {
    let mut cases = Vec::new();
    let mut i = 0usize;
    for c in [1usize, 3, 11, 22] {
        for oc in [1usize, 3, 8, 11, 22] {
            for k in [1usize, 3, 5] {
                for pad in 0..k {
                    let hw = 5 + (i * 11) % 28;
                    let mut batch = [1usize, 3, 48][i % 3];
                    if batch == 48 && c * k * k * hw * hw > 20_000 {
                        batch = 3;
                    }
                    cases.push(ConvCase {
                        c,
                        oc,
                        k,
                        pad,
                        hw,
                        batch,
                    });
                    i += 1;
                }
            }
        }
    }
    for (pad, (c, oc, hw, batch)) in [
        (3, 8, 9, 3),
        (11, 22, 12, 1),
        (1, 11, 17, 48),
        (22, 3, 6, 3),
    ]
    .into_iter()
    .enumerate()
    {
        cases.push(ConvCase {
            c,
            oc,
            k: 4,
            pad,
            hw,
            batch,
        });
    }
    for batch in [1, 48] {
        for (c, oc, k, pad, hw) in SWEEP_CONVS {
            cases.push(ConvCase {
                c,
                oc,
                k,
                pad,
                hw,
                batch,
            });
        }
    }
    cases
}

/// [`conv2d_forward`] of the NCHW `x` with the `[oc, c, kh, kw]` `weight`,
/// into an output first filled with NaN, so an element the call does not
/// write shows.
fn conv_forward(
    be: KernelBackend,
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: &Conv2dGeometry,
    imp: ConvImpl,
    scratch: &mut ConvScratch,
) -> Tensor {
    let (n, oc) = (x.shape()[0], weight.shape()[0]);
    let (oh, ow) = geom.output_hw().unwrap();
    let weight_t = weight
        .reshape(&[oc, geom.patch_len()])
        .unwrap()
        .t()
        .unwrap();
    let mut y = Tensor::full(&[n, oc, oh, ow], f32::NAN);
    conv2d_forward(
        be,
        x.data(),
        n,
        weight_t.data(),
        bias.data(),
        geom,
        imp,
        scratch,
        y.data_mut(),
    )
    .unwrap();
    y
}

/// Every pass of `case` through the SIMD lowering, built from public
/// calls: `im2col → matmul → bias add → rows_to_nchw` forward,
/// `nchw_to_rows → matmul → col2im` input gradient, and `g2dᵀ · im2col`
/// weight and `sum_axis0` bias gradients.
fn dense_lowering(case: &ConvCase, data: &ConvData) -> [Tensor; 4] {
    let dense = |a: &Tensor, b: &Tensor| a.matmul_with(b, KernelBackend::Simd).unwrap();
    let geom = case.geom();
    let (n, oc) = (case.batch, case.oc);
    let (oh, ow) = geom.output_hw().unwrap();
    let ConvData {
        x,
        dy,
        weight,
        bias,
    } = data;
    let w2d = weight.reshape(&[oc, geom.patch_len()]).unwrap();
    let cols = im2col(x, &geom).unwrap();
    let rows = dense(&cols, &w2d.t().unwrap());
    let g2d = nchw_to_rows(dy, n, oc, oh, ow).unwrap();
    [
        rows_to_nchw(&rows.add_row_broadcast(bias).unwrap(), n, oc, oh, ow).unwrap(),
        col2im(&dense(&g2d, &w2d), &geom, n).unwrap(),
        dense(&g2d.t().unwrap(), &cols)
            .reshape(weight.shape())
            .unwrap(),
        g2d.sum_axis0().unwrap(),
    ]
}

/// Every pass of `case` — forward, input gradient, and weight and bias
/// gradients — by the direct kernels under thread cap `cap` must return
/// the dense lowering's bits.
fn check_direct_conv(label: &str, case: &ConvCase, data: &ConvData, cap: usize) {
    let be = KernelBackend::Simd;
    let geom = case.geom();
    let ConvData {
        x,
        dy,
        weight,
        bias,
    } = data;
    let imp = ConvImpl::Direct;
    let direct = pool::with_thread_cap(cap, || {
        let y = conv_forward(be, x, weight, bias, &geom, imp, &mut ConvScratch::default());
        let dx = conv2d_input_grad(be, dy, weight, &geom, imp).unwrap();
        let (dw, db) = conv2d_weight_grad(be, x, dy, &geom, imp, None).unwrap();
        [y, dx, dw, db]
    });
    let names = [
        "forward",
        "input gradient",
        "weight gradient",
        "bias gradient",
    ];
    for ((name, got), want) in names.iter().zip(&direct).zip(&dense_lowering(case, data)) {
        assert_same(&format!("{label}: {name}"), got, want);
    }
}

/// The direct stride-1 kernels return the bits of the SIMD lowering, at
/// thread caps 1, 2 and 8, on inputs and output
/// gradients whose zeros (of both signs) they may skip.
#[test]
fn direct_conv_matches_dense_lowering() {
    if !simd::simd_available() {
        eprintln!("skipping: no AVX2+FMA on this machine");
        return;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    for (i, case) in conv_cases().into_iter().enumerate() {
        let density = [0.6, 0.2, 1.0][i % 3];
        let data = case.data(density, &mut rng);
        let label = format!("{case:?} density {density}");
        check_direct_conv(&label, &case, &data, [1, 2, 8][i % 3]);
    }
}

/// A sample's forward and input gradient are its batch-1 bits, whatever
/// its batchmates hold, by either implementation on either backend: the
/// six sweep convolutions, a batch of 16 that alternates sparse samples
/// (densities 0.1 to 0.6, zeros of both signs) with dense ones, at thread
/// caps 1, 2 and 8. A kernel choice made from the whole batch (a density
/// probe over the patch matrix or the gradient rows) would pick the sparse
/// samples' arithmetic by their dense batchmates.
#[test]
fn conv_samples_ignore_their_batchmates() {
    const BATCH: usize = 16;
    let mut rng = rand::rngs::StdRng::seed_from_u64(61);
    for (c, oc, k, pad, hw) in SWEEP_CONVS {
        let geom = Conv2dGeometry::square(c, hw, k, 1, pad);
        let (oh, ow) = geom.output_hw().unwrap();
        let weight = uniform(&[oc, c, k, k], &mut rng);
        let bias = uniform(&[oc], &mut rng);
        let densities: Vec<f32> = (0..BATCH)
            .map(|b| match b % 2 {
                0 => [0.1, 0.2, 0.3, 0.4, 0.5, 0.6][b / 2 % 6],
                _ => 1.0,
            })
            .collect();
        let xs: Vec<Vec<f32>> = densities
            .iter()
            .map(|&d| with_density(c * hw * hw, d, &mut rng))
            .collect();
        let dys: Vec<Vec<f32>> = densities
            .iter()
            .map(|&d| with_density(oc * oh * ow, d, &mut rng))
            .collect();
        let mut runs = vec![
            (KernelBackend::Scalar, ConvImpl::Lowering),
            (KernelBackend::Simd, ConvImpl::Lowering),
        ];
        if simd::simd_available() {
            assert_eq!(conv_impl(KernelBackend::Simd, &geom), ConvImpl::Direct);
            runs.push((KernelBackend::Simd, ConvImpl::Direct));
        }
        for (be, imp) in runs {
            let passes = |n: usize, x: Vec<f32>, dy: Vec<f32>| {
                let x = Tensor::new(&[n, c, hw, hw], x).unwrap();
                let dy = Tensor::new(&[n, oc, oh, ow], dy).unwrap();
                let y = conv_forward(
                    be,
                    &x,
                    &weight,
                    &bias,
                    &geom,
                    imp,
                    &mut ConvScratch::default(),
                );
                let dx = conv2d_input_grad(be, &dy, &weight, &geom, imp).unwrap();
                (y, dx)
            };
            let alone: Vec<(Tensor, Tensor)> = xs
                .iter()
                .zip(&dys)
                .map(|(x, dy)| passes(1, x.clone(), dy.clone()))
                .collect();
            for cap in [1usize, 2, 8] {
                let (y, dx) =
                    pool::with_thread_cap(cap, || passes(BATCH, xs.concat(), dys.concat()));
                for (b, (y1, dx1)) in alone.iter().enumerate() {
                    let label = format!(
                        "{geom:?} {be:?} {imp:?} sample {b} (density {}) cap {cap}",
                        densities[b]
                    );
                    let (ylen, dxlen) = (y1.len(), dx1.len());
                    let y_b = &y.data()[b * ylen..(b + 1) * ylen];
                    assert_bits(&format!("{label}: forward"), y_b, y1.data());
                    let dx_b = &dx.data()[b * dxlen..(b + 1) * dxlen];
                    assert_bits(&format!("{label}: input gradient"), dx_b, dx1.data());
                }
            }
        }
    }
}

/// `conv2d_forward` writes every output element by either implementation
/// on either backend, strided geometries included, and a lowering leaves
/// the input's patch matrix in the scratch: the graph executor passes arena
/// slices that still hold an earlier step's values, one scratch serves
/// every conv of a plan, and `Conv2d`'s lowered weight gradient reads the
/// patch matrix back.
#[test]
fn conv_forward_writes_every_output() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(59);
    let mut scratch = ConvScratch::default();
    let mut cases: Vec<(ConvCase, usize)> = conv_cases()
        .into_iter()
        .step_by(7)
        .map(|case| (case, 1))
        .collect();
    let strided = ConvCase {
        c: 3,
        oc: 5,
        k: 3,
        pad: 1,
        hw: 16,
        batch: 3,
    };
    cases.push((strided, 2));
    for (case, stride) in cases {
        let data = case.data(0.6, &mut rng);
        let geom = Conv2dGeometry {
            stride,
            ..case.geom()
        };
        for be in [KernelBackend::Scalar, KernelBackend::Simd] {
            for imp in [ConvImpl::Lowering, ConvImpl::Direct] {
                if imp == ConvImpl::Direct && advcomp_tensor::conv_impl(be, &geom) != imp {
                    continue;
                }
                let label = format!("{case:?} stride {stride} {be:?} {imp:?}");
                let (x, weight, bias) = (&data.x, &data.weight, &data.bias);
                let y = conv_forward(be, x, weight, bias, &geom, imp, &mut scratch);
                assert!(!y.has_non_finite(), "{label}: an output was not written");
                if imp == ConvImpl::Lowering {
                    let cols = im2col(x, &geom).unwrap();
                    assert_eq!(scratch.cols.shape(), cols.shape(), "{label}");
                    assert_eq!(scratch.cols.data(), cols.data(), "{label}");
                }
            }
        }
    }
}

/// ±0, ±∞ and NaN weights facing zero multipliers — zero inputs and
/// padding in the forward, zero gradient entries and the border in the
/// input gradient — give the dense lowering's values: NaN where the dense
/// GEMM multiplies them by zero, nothing where no output position exists.
/// With such a weight the direct kernels skip no zero, which one ∞ weight
/// facing an all-zero gradient channel checks.
#[test]
fn direct_conv_matches_lowering_with_non_finite_weights() {
    if !simd::simd_available() {
        eprintln!("skipping: no AVX2+FMA on this machine");
        return;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (c, oc, k, pad, hw, batch) in [
        (1, 3, 5, 2, 12, 2),
        (3, 8, 3, 1, 9, 3),
        (11, 11, 3, 2, 20, 1),
        (2, 22, 5, 4, 7, 2),
    ] {
        let case = ConvCase {
            c,
            oc,
            k,
            pad,
            hw,
            batch,
        };
        let mut data = case.data(0.5, &mut rng);
        for (idx, v) in data.weight.data_mut().iter_mut().enumerate().step_by(3) {
            *v = specials[idx % specials.len()];
        }
        check_direct_conv(&format!("{case:?} non-finite weights"), &case, &data, 2);
        // One ∞ weight, of output channel 0, whose gradient is all zero:
        // only not skipping makes the input gradient's NaN.
        let mut data = case.data(0.5, &mut rng);
        data.weight.data_mut()[0] = f32::INFINITY;
        let plane = data.dy.len() / (batch * oc);
        for sample in data.dy.data_mut().chunks_mut(oc * plane) {
            sample[..plane].fill(0.0);
        }
        check_direct_conv(&format!("{case:?} one ∞ weight"), &case, &data, 2);
    }
}

/// ±∞ and NaN in the input and in the output gradient, next to zeros and
/// the padding, give the dense lowering's weight and bias gradients (and
/// the other passes' values): NaN where the dense GEMM multiplies an ∞
/// gradient by a padded zero or a zero gradient entry by an ∞ input, which
/// the weight gradient therefore does not skip.
#[test]
fn direct_conv_matches_lowering_with_non_finite_operands() {
    if !simd::simd_available() {
        eprintln!("skipping: no AVX2+FMA on this machine");
        return;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(53);
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0];
    for (i, (c, oc, k, pad, hw, batch)) in [
        (1, 3, 5, 2, 12, 2),
        (3, 8, 3, 1, 9, 3),
        (11, 11, 3, 2, 20, 1),
        (2, 22, 5, 4, 7, 2),
    ]
    .into_iter()
    .enumerate()
    {
        let case = ConvCase {
            c,
            oc,
            k,
            pad,
            hw,
            batch,
        };
        let poison = |t: &mut Tensor, every: usize| {
            for (idx, v) in t.data_mut().iter_mut().enumerate().step_by(every) {
                *v = specials[idx % specials.len()];
            }
        };
        for poisoned in ["x", "dy", "x and dy", "one x, facing zero dy"] {
            let mut data = case.data(0.5, &mut rng);
            match poisoned {
                "x" => poison(&mut data.x, 7),
                "dy" => poison(&mut data.dy, 5),
                "x and dy" => {
                    poison(&mut data.x, 7);
                    poison(&mut data.dy, 5);
                }
                _ => {
                    // Every product with this ∞ has a zero gradient entry,
                    // so only not skipping makes its weights' NaN.
                    data.x.data_mut()[0] = f32::INFINITY;
                    let sample = data.dy.len() / batch;
                    data.dy.data_mut()[..sample].fill(0.0);
                }
            }
            let label = format!("{case:?} non-finite {poisoned}");
            check_direct_conv(&label, &case, &data, [1, 2, 8][i % 3]);
        }
    }
}

/// `fake_quantize_in_place`, with and without its pass mask, on `backends`
/// against `QFormat::quantize` and the clipped-STE range test `min_value
/// <= v <= max_value`, bit for bit.
fn check_fake_quantize(fmt: QFormat, values: &[f32], backends: &[KernelBackend]) {
    let pass = fmt.min_value()..=fmt.max_value();
    let want: Vec<(u32, u32)> = values
        .iter()
        .map(|v| {
            let mask = if pass.contains(v) { 1.0f32 } else { 0.0 };
            (fmt.quantize(*v).to_bits(), mask.to_bits())
        })
        .collect();
    for &backend in backends {
        let mut out = values.to_vec();
        let mut mask = vec![f32::NAN; values.len()];
        fake_quantize_in_place(backend, fmt, &mut out, Some(&mut mask)).unwrap();
        let mut unmasked = values.to_vec();
        fake_quantize_in_place(backend, fmt, &mut unmasked, None).unwrap();
        for (i, (&v, &(want, want_mask))) in values.iter().zip(&want).enumerate() {
            let label = || {
                format!(
                    "{fmt} {} input {v:e} ({:#010x})",
                    backend.name(),
                    v.to_bits()
                )
            };
            assert_eq!(out[i].to_bits(), want, "{}: value", label());
            assert_eq!(unmasked[i].to_bits(), want, "{}: without mask", label());
            assert_eq!(mask[i].to_bits(), want_mask, "{}: mask", label());
        }
    }
}

/// `v` and the `d` nearest floats on either side of it.
fn ulps_around(v: f32, d: i32) -> impl Iterator<Item = f32> {
    (-d..=d).map(move |k| f32::from_bits((v.to_bits() as i32).wrapping_add(k) as u32))
}

/// The fake-quantiser's output and pass mask equal `QFormat::quantize` and
/// its range test bit for bit at every `QFormat::for_bitwidth` format from
/// 4 to 24 bits (the widest its AVX2 body runs): ±0, subnormals, ±∞ and
/// NaNs, every code's midpoint ± 2 ulps (so the ulp below ½·2^-f rounds
/// to 0, and each saturation threshold is crossed), and the range edges ±
/// 1 ulp. Slices of odd length also run the vector body's scalar tail.
/// The scalar body is `QFormat::quantize` itself; it is checked on the
/// edge values and the paper's packed widths, the AVX2 body everywhere.
#[test]
fn fake_quantize_matches_qformat_quantize() {
    const CODES_PER_CHUNK: i64 = 1 << 16;
    for bits in 4..=24 {
        let fmt = QFormat::for_bitwidth(bits).unwrap();
        let mut specials = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_0001),
            f32::MAX,
            f32::MIN,
        ];
        specials.extend(ulps_around(fmt.min_value(), 1).chain(ulps_around(fmt.max_value(), 1)));
        let both = [KernelBackend::Scalar, KernelBackend::Simd];
        check_fake_quantize(fmt, &specials, &both);
        let sweep: &[KernelBackend] = if bits <= 8 { &both } else { &both[1..] };
        let res = f64::from(fmt.resolution());
        let mut k0 = fmt.min_raw() - 1;
        while k0 <= fmt.max_raw() {
            let k1 = (k0 + CODES_PER_CHUNK).min(fmt.max_raw() + 1);
            let values: Vec<f32> = (k0..k1)
                .flat_map(|k| ulps_around(((k as f64 + 0.5) * res) as f32, 2))
                .collect();
            check_fake_quantize(fmt, &values, sweep);
            k0 = k1;
        }
    }
}

/// Every one of the 2³² f32 bit patterns through the AVX2 fake-quantiser
/// at Q1.3 and Q2.6 against `QFormat::quantize` and the range test. Takes
/// minutes; run with `cargo test --release -p advcomp-tensor --test
/// kernels -- --ignored`.
#[test]
#[ignore]
fn fake_quantize_matches_qformat_quantize_on_every_f32() {
    const CHUNK: u64 = 1 << 20;
    for bits in [4, 8] {
        let fmt = QFormat::for_bitwidth(bits).unwrap();
        let pass = fmt.min_value()..=fmt.max_value();
        let mut mask = vec![0.0f32; CHUNK as usize];
        for start in (0..1u64 << 32).step_by(CHUNK as usize) {
            let values: Vec<f32> = (start..start + CHUNK)
                .map(|b| f32::from_bits(b as u32))
                .collect();
            let mut out = values.clone();
            fake_quantize_in_place(KernelBackend::Simd, fmt, &mut out, Some(&mut mask)).unwrap();
            for (i, &v) in values.iter().enumerate() {
                let want_mask = if pass.contains(&v) { 1.0f32 } else { 0.0 };
                assert!(
                    out[i].to_bits() == fmt.quantize(v).to_bits()
                        && mask[i].to_bits() == want_mask.to_bits(),
                    "{fmt}: input {:#010x}",
                    v.to_bits()
                );
            }
        }
    }
}

/// `quantize_patches_into` — each input value encoded once, the patch rows
/// gathered as codes — gives the codes of quantising `im2col`'s patch
/// matrix, on both backends, at Q1.3 and Q2.6, for strided and padded
/// geometries, with inputs that include NaN, ±∞, −0, the ulp below half a
/// step and the range edges; and reusing its buffers for a smaller batch
/// changes nothing.
#[test]
fn quantize_patches_matches_the_quantised_patch_matrix() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    for bits in [4, 8] {
        let fmt = QFormat::for_bitwidth(bits).unwrap();
        let res = fmt.resolution();
        let edges = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits((0.5 * res).to_bits() - 1),
            -f32::from_bits((0.5 * res).to_bits() - 1),
            fmt.max_value(),
            fmt.min_value(),
        ];
        for (c, hw, k, stride, pad) in [
            (1, 28, 5, 1, 2),
            (3, 14, 5, 1, 0),
            (3, 9, 3, 2, 1),
            (11, 8, 3, 1, 1),
            (2, 7, 4, 3, 3),
        ] {
            let geom = Conv2dGeometry::square(c, hw, k, stride, pad);
            let (mut input_codes, mut out) = (Vec::new(), QActivations::with_format(fmt).unwrap());
            for n in [3, 1] {
                let mut x = Init::Uniform { lo: -3.0, hi: 3.0 }.tensor(&[n, c, hw, hw], &mut rng);
                for (i, &e) in edges.iter().enumerate() {
                    x.data_mut()[i * 7 % (n * c * hw * hw)] = e;
                }
                let cols = im2col(&x, &geom).unwrap();
                let (rows, patch) = (cols.shape()[0], cols.shape()[1]);
                for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                    let want =
                        quantize_activations(backend, cols.data(), rows, patch, fmt).unwrap();
                    quantize_patches_into(backend, x.data(), n, &geom, &mut input_codes, &mut out)
                        .unwrap();
                    assert_eq!(
                        (out.rows(), out.cols(), out.codes()),
                        (want.rows(), want.cols(), want.codes()),
                        "{fmt} {geom:?} batch {n} {}",
                        backend.name()
                    );
                }
            }
        }
    }
}

/// Values for the ReLU pair: signed zeros, NaNs, subnormals, infinities
/// and ordinary values of both signs.
const RELU_VALUES: [f32; 13] = [
    -0.0,
    0.0,
    f32::NAN,
    -f32::NAN,
    f32::from_bits(1),
    -f32::from_bits(1),
    f32::from_bits(0x007f_ffff),
    -f32::MIN_POSITIVE,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.5,
    -2.5,
    0.25,
];

/// `relu_in_place` equals `relu_slices` and `v > 0 ? v : +0` bit for bit
/// on both backends, with and without its mask, and the mask holds `out >
/// 0` with the bits past the end clear; `relu_grad_in_place` equals `if
/// out > 0 { g } else { 0.0 }`. Lengths 0–67 put every value, `−0` and
/// NaN included, in the 8-lane body and in the scalar tail.
#[test]
fn relu_pair_matches_relu_slices_and_its_mask() {
    let n = RELU_VALUES.len();
    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        for len in 0..=67usize {
            let x: Vec<f32> = (0..len).map(|i| RELU_VALUES[(i + len) % n]).collect();
            let g: Vec<f32> = (0..len).map(|i| RELU_VALUES[(i * 5 + 3) % n]).collect();
            let label = format!("{} len {len}", backend.name());
            let mut sliced = vec![f32::NAN; len];
            simd::relu_slices(backend, &x, &mut sliced);
            let rectified: Vec<f32> = x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
            assert_bits(&format!("{label}: relu_slices"), &sliced, &rectified);

            let mut out = x.clone();
            let mut mask = vec![0xa5u8; len.div_ceil(8)];
            simd::relu_in_place(backend, &mut out, Some(&mut mask));
            assert_bits(&format!("{label}: relu_in_place"), &out, &sliced);
            let mut unmasked = x.clone();
            simd::relu_in_place(backend, &mut unmasked, None);
            assert_bits(&format!("{label}: without mask"), &unmasked, &sliced);
            for (i, byte) in mask.iter().enumerate() {
                let want = (0..8)
                    .filter(|j| out.get(i * 8 + j).is_some_and(|&v| v > 0.0))
                    .fold(0u8, |bits, j| bits | 1 << j);
                assert_eq!(*byte, want, "{label}: mask byte {i}");
            }

            let mut dx = g.clone();
            simd::relu_grad_in_place(backend, &mut dx, &mask);
            let want: Vec<f32> = g
                .iter()
                .zip(&out)
                .map(|(&g, &out)| if out > 0.0 { g } else { 0.0 })
                .collect();
            assert_elements(
                &format!("{label}: relu_grad_in_place"),
                &dx,
                &want,
                same_value,
            );
        }
    }
}

/// Max pooling as it was written before it recorded window offsets: each
/// window scanned row by row with a strict `>`, returning per output the
/// value and its flat input index.
fn reference_pool(
    input: &[f32],
    [n, c, h, w]: [usize; 4],
    kernel: usize,
    stride: usize,
) -> (Vec<f32>, Vec<usize>) {
    let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let (mut out, mut argmax) = (Vec::new(), Vec::new());
    for plane in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best_idx = (plane * h + oy * stride) * w + ox * stride;
                let mut best = input[best_idx];
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let idx = (plane * h + oy * stride + ky) * w + ox * stride + kx;
                        if input[idx] > best {
                            best = input[idx];
                            best_idx = idx;
                        }
                    }
                }
                out.push(best);
                argmax.push(best_idx);
            }
        }
    }
    (out, argmax)
}

/// Pool inputs: half uniform values, half drawn from ties (±0, ±1), ±∞
/// and NaN.
fn pool_values(len: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    use rand::Rng;
    const SPECIAL: [f32; 7] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect()
}

/// `max_pool2d` on both backends against [`reference_pool`]: the values
/// bit for bit, with and without offsets, every output written, and the
/// offsets decoding to the reference's flat indices. Then
/// `max_pool2d_backward` over a zeroed buffer against the reference's
/// scatter `+=` of gradients that include `−0`.
fn check_pool(label: &str, input: &[f32], dims: [usize; 4], kernel: usize, stride: usize) {
    let [_, _, h, w] = dims;
    let (want, want_idx) = reference_pool(input, dims, kernel, stride);
    let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let grad: Vec<f32> = (0..want.len())
        .map(|o| {
            if o % 3 == 0 {
                -0.0
            } else {
                o as f32 * 0.25 - 1.0
            }
        })
        .collect();
    let mut want_dx = vec![0.0f32; input.len()];
    for (&idx, &g) in want_idx.iter().zip(&grad) {
        want_dx[idx] += g;
    }
    let unwritten = f32::from_bits(0x7fc0_dead);
    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        let label = format!("{label} {}", backend.name());
        let mut out = vec![unwritten; want.len()];
        let mut offsets = vec![0xeeu8; want.len()];
        max_pool2d(
            backend,
            input,
            dims,
            kernel,
            stride,
            &mut out,
            Some(&mut offsets),
        )
        .unwrap();
        assert_bits(&format!("{label}: values"), &out, &want);
        for (o, (&off, &idx)) in offsets.iter().zip(&want_idx).enumerate() {
            let (plane, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
            let (ky, kx) = (usize::from(off) / kernel, usize::from(off) % kernel);
            let decoded = (plane * h + oy * stride + ky) * w + ox * stride + kx;
            assert_eq!(decoded, idx, "{label}: output {o} offset {off}");
        }
        let mut plain = vec![unwritten; want.len()];
        max_pool2d(backend, input, dims, kernel, stride, &mut plain, None).unwrap();
        assert_bits(&format!("{label}: values without offsets"), &plain, &want);
        let mut dx = vec![0.0f32; input.len()];
        max_pool2d_backward(&grad, dims, kernel, stride, &offsets, &mut dx).unwrap();
        assert_bits(&format!("{label}: input gradient"), &dx, &want_dx);
    }
}

/// The 2×2 stride-2 pool's AVX2 body (and the scalar scan) against the
/// reference at output widths 1–33, which cover the paired 4-wide quads,
/// an unpaired last quad (an odd count of quads: 3 or 9 rows of an odd
/// number each) and every tail length, on even and odd input sizes, over
/// inputs full of ties (±0), ±∞ and NaNs.
#[test]
fn max_pool_2x2_matches_the_window_scan() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    for ow in 1..=33usize {
        for (n, oh, odd) in [(1usize, 1usize, 0usize), (2, 2, 1), (1, 3, 0)] {
            let dims = [n, 3, 2 * oh + odd, 2 * ow + odd];
            let input = pool_values(dims.iter().product(), &mut rng);
            check_pool(&format!("2x2 ow {ow} dims {dims:?}"), &input, dims, 2, 2);
        }
    }
}

/// A NaN at each position of every window: it never replaces the running
/// maximum, and one in the first position is the window's result.
#[test]
fn max_pool_skips_nan_at_every_window_position() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    for (kernel, stride, h, w) in [(2usize, 2usize, 6usize, 38usize), (3, 2, 7, 21)] {
        let dims = [1, 2, h, w];
        let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
        for pos in 0..kernel * kernel {
            let mut input = uniform(&[dims.iter().product()], &mut rng).into_data();
            for plane in 0..2 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (ky, kx) = (pos / kernel, pos % kernel);
                        input[(plane * h + oy * stride + ky) * w + ox * stride + kx] = f32::NAN;
                    }
                }
            }
            check_pool(
                &format!("{kernel}x{kernel} NaN at {pos}"),
                &input,
                dims,
                kernel,
                stride,
            );
        }
    }
}

/// Every pool of the sweep nets (LeNet-5 at width 0.5, CifarNet at width
/// 0.35) at batch 1 and 48, and a 3×3 stride-2 pool, whose overlapping
/// windows run the general loop and accumulate in the backward.
#[test]
fn max_pool_runs_every_net_pool() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let pools = [
        ("lenet5_pool1", 3usize, 28usize),
        ("lenet5_pool2", 8, 10),
        ("cifarnet_pool1", 11, 32),
        ("cifarnet_pool2", 22, 16),
        ("cifarnet_pool3", 22, 8),
    ];
    for (name, c, hw) in pools {
        for batch in [1usize, 48] {
            let dims = [batch, c, hw, hw];
            let input = uniform(&[dims.iter().product()], &mut rng).into_data();
            check_pool(&format!("{name} b{batch}"), &input, dims, 2, 2);
        }
    }
    let dims = [2, 3, 9, 11];
    let input = pool_values(dims.iter().product(), &mut rng);
    check_pool("3x3 stride 2", &input, dims, 3, 2);
}
