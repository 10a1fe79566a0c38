//! Scalar-vs-SIMD kernel parity: the conformance contract of the
//! runtime-dispatched kernel layer (DESIGN.md, "kernel dispatch").
//!
//! Two classes of kernel, two standards of agreement:
//!
//! * **Bit-exact**: elementwise maps with no reassociation (add, sign,
//!   clamp, axpy, the fused attack steps). The SIMD lane computes the same
//!   float expression per element as the scalar loop, so the backends must
//!   agree to the bit on every input, including non-finite ones for sign.
//! * **Tolerance (1e-5 relative L2)**: contractions the SIMD backend
//!   reassociates — the FMA GEMM microkernel and the lane-parallel
//!   sum/sum-of-squares reductions. These differ from scalar by a few ULPs
//!   by design; the FMA contraction is in fact *more* accurate.
//!
//! Everything here passes explicit [`KernelBackend`] values, so the suite
//! exercises both backends in one process regardless of `ADVCOMP_KERNEL` —
//! on a machine without AVX2 the Simd backend falls back to scalar and the
//! comparisons hold trivially.

use advcomp_tensor::{simd, Init, KernelBackend};
use advcomp_testkit::DetRng;

const SCALAR: KernelBackend = KernelBackend::Scalar;
const SIMD: KernelBackend = KernelBackend::Simd;

/// Lengths straddling the 8-lane width, its multiples, and the unrolled
/// 16-element stride, so every tail path runs.
const LENS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 31, 100, 1023];

fn vecs(n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = DetRng::new(seed);
    (rng.vec_f32(n, -3.0, 3.0), rng.vec_f32(n, -3.0, 3.0))
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit divergence at {i}: {x} vs {y}"
        );
    }
}

fn rel_l2(a: &[f32], b: &[f32]) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        num += (*x as f64 - *y as f64).powi(2);
        den += (*x as f64).powi(2);
    }
    (num / den.max(1e-30)).sqrt()
}

#[test]
fn elementwise_kernels_bit_exact_across_backends() {
    for n in LENS {
        let (a, b) = vecs(n, 0xE1E);
        let mut out_s = vec![0.0f32; n];
        let mut out_v = vec![0.0f32; n];

        simd::add_slices(SCALAR, &a, &b, &mut out_s);
        simd::add_slices(SIMD, &a, &b, &mut out_v);
        assert_bits_eq(&out_s, &out_v, "add");

        simd::mul_slices(SCALAR, &a, &b, &mut out_s);
        simd::mul_slices(SIMD, &a, &b, &mut out_v);
        assert_bits_eq(&out_s, &out_v, "mul");

        simd::sign_slices(SCALAR, &a, &mut out_s);
        simd::sign_slices(SIMD, &a, &mut out_v);
        assert_bits_eq(&out_s, &out_v, "sign");

        simd::clamp_slices(SCALAR, &a, -0.5, 0.5, &mut out_s);
        simd::clamp_slices(SIMD, &a, -0.5, 0.5, &mut out_v);
        assert_bits_eq(&out_s, &out_v, "clamp");

        let mut acc_s = b.clone();
        let mut acc_v = b.clone();
        simd::axpy_slices(SCALAR, &mut acc_s, &a, 0.37);
        simd::axpy_slices(SIMD, &mut acc_v, &a, 0.37);
        assert_bits_eq(&acc_s, &acc_v, "axpy");
    }
}

#[test]
fn sign_agrees_on_non_finite_inputs() {
    let a = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.5,
        -1.5,
    ];
    let mut out_s = vec![0.0f32; a.len()];
    let mut out_v = vec![0.0f32; a.len()];
    simd::sign_slices(SCALAR, &a, &mut out_s);
    simd::sign_slices(SIMD, &a, &mut out_v);
    assert_bits_eq(&out_s, &out_v, "sign(non-finite)");
    assert_eq!(out_s, [0.0, 1.0, -1.0, 0.0, 0.0, 1.0, -1.0]);
}

#[test]
fn fused_attack_steps_bit_exact_across_backends() {
    for n in LENS {
        let (x0, g) = vecs(n, 0xF5D);
        let origin: Vec<f32> = x0.iter().map(|v| (v / 6.0 + 0.5).clamp(0.0, 1.0)).collect();

        let mut x_s = origin.clone();
        let mut x_v = origin.clone();
        simd::fused_sign_step_clamp(SCALAR, &mut x_s, &g, 0.03, 0.0, 1.0);
        simd::fused_sign_step_clamp(SIMD, &mut x_v, &g, 0.03, 0.0, 1.0);
        assert_bits_eq(&x_s, &x_v, "fused_sign_step");

        let mut x_s = origin.clone();
        let mut x_v = origin.clone();
        simd::fused_grad_step_clamp(SCALAR, &mut x_s, &g, 1.7, 0.05, 0.0, 1.0);
        simd::fused_grad_step_clamp(SIMD, &mut x_v, &g, 1.7, 0.05, 0.0, 1.0);
        assert_bits_eq(&x_s, &x_v, "fused_grad_step");

        let mut x_s = origin.clone();
        let mut x_v = origin.clone();
        simd::fused_project_step_clamp(SCALAR, &mut x_s, &g, &origin, 0.03, 0.05, 0.0, 1.0);
        simd::fused_project_step_clamp(SIMD, &mut x_v, &g, &origin, 0.03, 0.05, 0.0, 1.0);
        assert_bits_eq(&x_s, &x_v, "fused_project_step");
    }
}

#[test]
fn dense_gemm_within_relative_l2_tolerance() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    // Shapes straddling the panel width (128), the 8/32-wide column strips
    // and the parallel threshold.
    for (m, k, n) in [(1, 1, 1), (5, 7, 9), (33, 17, 40), (128, 128, 128)] {
        let a = init.tensor(&[m, k], &mut rng);
        let b = init.tensor(&[k, n], &mut rng);
        let s = a.matmul_with(&b, SCALAR).unwrap();
        let v = a.matmul_with(&b, SIMD).unwrap();
        let err = rel_l2(s.data(), v.data());
        assert!(err < 1e-5, "dense GEMM {m}x{k}x{n}: rel L2 {err}");
    }
}

#[test]
fn reductions_within_relative_tolerance_and_extrema_exact() {
    for n in LENS {
        if n == 0 {
            continue;
        }
        let (a, _) = vecs(n, 0x2ED);
        for (name, s, v) in [
            (
                "sum",
                simd::sum_slice(SCALAR, &a) as f64,
                simd::sum_slice(SIMD, &a) as f64,
            ),
            (
                "sumsq",
                simd::sumsq_slice(SCALAR, &a) as f64,
                simd::sumsq_slice(SIMD, &a) as f64,
            ),
            (
                "sum_abs",
                simd::sum_abs_slice(SCALAR, &a) as f64,
                simd::sum_abs_slice(SIMD, &a) as f64,
            ),
        ] {
            // Relative tolerance against the absolute-value mass, so
            // cancellation in `sum` does not blow up the relative error.
            let scale = simd::sum_abs_slice(SCALAR, &a) as f64;
            assert!(
                (s - v).abs() <= 1e-5 * scale.max(1.0),
                "{name} n={n}: {s} vs {v}"
            );
        }
        // Extrema are order-insensitive: exact on finite data.
        assert_eq!(simd::max_slice(SCALAR, &a), simd::max_slice(SIMD, &a));
        assert_eq!(simd::min_slice(SCALAR, &a), simd::min_slice(SIMD, &a));
        assert_eq!(
            simd::max_abs_slice(SCALAR, &a),
            simd::max_abs_slice(SIMD, &a)
        );
    }
}
