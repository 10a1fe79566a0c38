//! Differential kernel fuzzing: production kernels vs reference
//! implementations over randomized shape/density sweeps.
//!
//! Every case asserts agreement within [`Tolerance::kernel_default`]
//! (1e-4 absolute + 1e-4 relative) between:
//!
//! * the f32 GEMM on both backends (`matmul_with`) and on the process
//!   default (`matmul`), the triple-loop f32 `matmul_naive`, and an
//!   f64-accumulated reference;
//! * the `im2col`-backed `Conv2d` layer and a direct quadruple-loop
//!   convolution reference.
//!
//! The sweeps total well over 200 cases and include shapes on both sides
//! of the GEMM parallel threshold and left operands from dense to almost
//! all zeros.

use advcomp_nn::{Conv2d, Layer, Mode};
use advcomp_tensor::{KernelBackend, Tensor};
use advcomp_testkit::diffref::{self, conv2d_direct, matmul_f64};
use advcomp_testkit::tolerance::{compare_slices, Tolerance};
use rand::SeedableRng;

fn assert_agrees(label: &str, expected: &Tensor, actual: &Tensor) {
    assert_eq!(expected.shape(), actual.shape(), "{label}: shape mismatch");
    if let Err(e) = compare_slices(expected.data(), actual.data(), Tolerance::kernel_default()) {
        panic!("{label}: {e}");
    }
}

fn fuzz_gemm_sweep(seed: u64, count: usize, max_dim: usize) {
    for case in diffref::gemm_cases(seed, count, max_dim) {
        let label = format!(
            "gemm case {} ({:?}×{:?}, zero_prob {:.2})",
            case.index,
            case.a.shape(),
            case.b.shape(),
            case.zero_prob
        );
        let reference = matmul_f64(&case.a, &case.b);
        for be in [KernelBackend::Scalar, KernelBackend::Simd] {
            let out = case.a.matmul_with(&case.b, be).unwrap();
            assert_agrees(
                &format!("{label}: {} vs f64 ref", be.name()),
                &reference,
                &out,
            );
        }
        let naive = case.a.matmul_naive(&case.b).unwrap();
        let auto = case.a.matmul(&case.b).unwrap();
        assert_agrees(&format!("{label}: naive vs f64 ref"), &reference, &naive);
        assert_agrees(&format!("{label}: auto vs f64 ref"), &reference, &auto);
    }
}

/// 150 small-shape cases: both backends, full density range.
#[test]
fn gemm_kernels_agree_small_shapes() {
    fuzz_gemm_sweep(0xD1FF, 150, 48);
}

/// 16 larger cases whose `m·k·n` frequently crosses the parallel
/// threshold, so the banded multi-threaded paths are exercised.
#[test]
fn gemm_kernels_agree_across_parallel_threshold() {
    fuzz_gemm_sweep(0xBEEF, 16, 96);
}

/// 60 convolution cases: im2col production forward vs direct reference.
#[test]
fn conv2d_matches_direct_reference() {
    let mut init_rng = rand::rngs::StdRng::seed_from_u64(0);
    for case in diffref::conv_cases(0xC0DE, 60) {
        let label = format!(
            "conv case {} (x {:?}, w {:?}, stride {}, pad {})",
            case.index,
            case.input.shape(),
            case.weight.shape(),
            case.stride,
            case.padding
        );
        let reference = conv2d_direct(
            &case.input,
            &case.weight,
            &case.bias,
            case.stride,
            case.padding,
        );

        let (oc, c, k) = (
            case.weight.shape()[0],
            case.weight.shape()[1],
            case.weight.shape()[2],
        );
        let mut conv =
            Conv2d::with_name("fuzz", c, oc, k, case.stride, case.padding, &mut init_rng);
        for p in conv.params_mut() {
            if p.name.ends_with(".weight") {
                p.value = case.weight.clone();
            } else {
                p.value = Tensor::new(&[oc], case.bias.clone()).unwrap();
            }
        }
        let produced = conv
            .forward(case.input.clone(), Mode::Eval)
            .expect("conv forward");
        assert_agrees(&label, &reference, &produced);
    }
}

/// Degenerate shapes the sweeps rarely hit: vectors, single elements,
/// rank-1 inner dimension.
#[test]
fn gemm_kernels_agree_on_edge_shapes() {
    let shapes: [(usize, usize, usize); 6] = [
        (1, 1, 1),
        (1, 64, 1),
        (64, 1, 64),
        (1, 7, 63),
        (65, 64, 1),
        (2, 129, 2),
    ];
    let mut rng = advcomp_testkit::DetRng::new(0xE00E);
    for (m, k, n) in shapes {
        let a = Tensor::new(&[m, k], rng.vec_f32(m * k, -2.0, 2.0)).unwrap();
        let b = Tensor::new(&[k, n], rng.vec_f32(k * n, -2.0, 2.0)).unwrap();
        let reference = matmul_f64(&a, &b);
        let label = format!("edge shape {m}×{k}×{n}");
        for be in [KernelBackend::Scalar, KernelBackend::Simd] {
            let out = a.matmul_with(&b, be).unwrap();
            assert_agrees(&format!("{label} {}", be.name()), &reference, &out);
        }
        assert_agrees(&label, &reference, &a.matmul_naive(&b).unwrap());
    }
}
