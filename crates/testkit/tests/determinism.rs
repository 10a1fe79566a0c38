//! Determinism harness: the full pipeline must be bit-exact across kernel
//! parallelism caps {1, 2, 8} and across repeated runs.
//!
//! This file deliberately contains a **single** `#[test]`. The tensor
//! thread pool reads `ADVCOMP_THREADS` once, at first use; the test sets
//! it to the largest sweep value before any tensor op so the pool has
//! enough workers for every cap, then varies the *effective* parallelism
//! per-operation with `with_thread_cap`. Multiple `#[test]` functions
//! would race on that one-shot initialisation across libtest threads.

use advcomp_attacks::{Attack, DeepFool, Ifgsm};
use advcomp_compress::{PruneMask, Quantizer};
use advcomp_nn::{softmax_cross_entropy, Mode, Sgd};
use advcomp_tensor::Tensor;
use advcomp_testkit::determinism::{check_bit_exact, STANDARD_CAPS};
use advcomp_testkit::{fixtures, DetRng};

const REPEATS: usize = 2;

fn flat_params(model: &advcomp_nn::Sequential) -> Vec<f32> {
    model
        .export_params()
        .iter()
        .flat_map(|(_, t)| t.data().to_vec())
        .collect()
}

#[test]
fn pipeline_is_bit_exact_across_thread_caps() {
    // Must precede every tensor op: the pool caches this at first use.
    std::env::set_var("ADVCOMP_THREADS", "8");
    // Pin the scalar kernels: this pillar's outputs are compared bit-exactly
    // and must not depend on whether the host CPU has AVX2. The SIMD
    // backend gets the same sweep in the `simd_smoke` test binary.
    advcomp_testkit::pin_kernel("scalar");

    // Large GEMM, above the parallel threshold (m·k·n = 96³ > 64³), so the
    // banded multi-threaded kernel path is actually what is being swept.
    check_bit_exact("large matmul", &STANDARD_CAPS, REPEATS, || {
        let mut rng = DetRng::new(0xA11CE);
        let a = Tensor::new(&[96, 96], rng.vec_f32(96 * 96, -1.0, 1.0)).unwrap();
        let b = Tensor::new(&[96, 96], rng.vec_f32(96 * 96, -1.0, 1.0)).unwrap();
        a.matmul(&b).unwrap().data().to_vec()
    })
    .unwrap();

    // Sparse operand above the threshold: the same dense kernel, which
    // multiplies every zero like any other value.
    check_bit_exact("sparse matmul", &STANDARD_CAPS, REPEATS, || {
        let mut rng = DetRng::new(0x5EED);
        let a = Tensor::new(&[96, 96], rng.sparse_vec_f32(96 * 96, -1.0, 1.0, 0.9)).unwrap();
        let b = Tensor::new(&[96, 96], rng.vec_f32(96 * 96, -1.0, 1.0)).unwrap();
        a.matmul(&b).unwrap().data().to_vec()
    })
    .unwrap();

    // One full train step: forward (train), loss, backward, SGD update.
    check_bit_exact("train step", &STANDARD_CAPS, REPEATS, || {
        let mut model = fixtures::lenet(3);
        let x = fixtures::image_batch(4, 8);
        let labels = fixtures::labels(5, 8, fixtures::LENET_CLASSES);
        let logits = model.forward(&x, Mode::Train).unwrap();
        let loss = softmax_cross_entropy(&logits, &labels).unwrap();
        model.zero_grad();
        model.backward(&loss.grad).unwrap();
        let mut opt = Sgd::new(0.1, 0.9, 0.0).unwrap();
        opt.step(model.params_mut()).unwrap();
        let mut out = vec![loss.loss];
        out.extend(flat_params(&model));
        out
    })
    .unwrap();

    // Attack step: IFGSM crafts identical adversarial pixels.
    check_bit_exact("ifgsm attack", &STANDARD_CAPS, REPEATS, || {
        let mut model = fixtures::lenet(3);
        let x = fixtures::image_batch(4, 8);
        let labels = fixtures::labels(5, 8, fixtures::LENET_CLASSES);
        let attack = Ifgsm::new(0.06, 4).unwrap();
        attack
            .generate(&mut model, &x, &labels)
            .unwrap()
            .data()
            .to_vec()
    })
    .unwrap();

    // DeepFool exercises per-logit backward passes.
    check_bit_exact("deepfool attack", &STANDARD_CAPS, REPEATS, || {
        let mut model = fixtures::lenet(3);
        let x = fixtures::image_batch(4, 4);
        let labels = fixtures::labels(5, 4, fixtures::LENET_CLASSES);
        let attack = DeepFool::new(0.02, 8).unwrap();
        attack
            .generate(&mut model, &x, &labels)
            .unwrap()
            .data()
            .to_vec()
    })
    .unwrap();

    // Pruning: mask derivation + application.
    check_bit_exact("prune", &STANDARD_CAPS, REPEATS, || {
        let mut model = fixtures::lenet(3);
        let mask = PruneMask::from_magnitude(&model, 0.4).unwrap();
        mask.apply(&mut model).unwrap();
        flat_params(&model)
    })
    .unwrap();

    // Quantisation: Q2.6 weight snapping.
    check_bit_exact("quantize", &STANDARD_CAPS, REPEATS, || {
        let mut model = fixtures::lenet(3);
        Quantizer::for_bitwidth(8)
            .unwrap()
            .quantize_weights(&mut model);
        flat_params(&model)
    })
    .unwrap();
}
