//! `backward_input` is the input half of `backward`: the companion of
//! `gradcheck_all`, which checks that half against finite differences.
//!
//! Attacks differentiate the paper nets through
//! `Sequential::backward_input`, which skips every weight-gradient GEMM.
//! This suite pins its contract on both nets, at f32, DNS-pruned and with
//! FakeQuant formats installed, at batch 1 and 48: with every parameter
//! gradient seeded nonzero, `backward_input` returns the bits of
//! `backward`'s input gradient and leaves every parameter gradient as it
//! was.

use advcomp_compress::{PruneMask, Quantizer};
use advcomp_models::{cifarnet, lenet5, ModelKind};
use advcomp_nn::{Mode, Sequential};
use advcomp_tensor::Tensor;
use advcomp_testkit::DetRng;

/// A deterministic `[batch, ...shape]` tensor with values in `[lo, hi)`.
fn det_tensor(seed: u64, batch: usize, shape: &[usize], lo: f32, hi: f32) -> Tensor {
    let mut full = vec![batch];
    full.extend_from_slice(shape);
    let numel: usize = full.iter().product();
    Tensor::new(&full, DetRng::new(seed).vec_f32(numel, lo, hi)).expect("consistent shape")
}

/// One paper net at reduced width.
fn build(kind: ModelKind) -> Sequential {
    match kind {
        ModelKind::CifarNet => cifarnet(0.35, 32),
        _ => lenet5(0.5, 31),
    }
}

/// Both paper nets, at f32, DNS-pruned to density 0.1 and with 4-bit
/// weights and FakeQuant activation formats installed (simulated, so the
/// layers stay differentiable).
fn variants() -> Vec<(String, ModelKind, Sequential)> {
    let mut out = Vec::new();
    for (name, kind) in [
        ("lenet5", ModelKind::LeNet5),
        ("cifarnet", ModelKind::CifarNet),
    ] {
        out.push((format!("{name} f32"), kind, build(kind)));
        let mut pruned = build(kind);
        PruneMask::from_magnitude(&pruned, 0.1)
            .and_then(|mask| mask.apply(&mut pruned))
            .expect("prune");
        out.push((format!("{name} dns 0.1"), kind, pruned));
        let mut quantized = build(kind);
        Quantizer::for_bitwidth(4)
            .expect("4-bit quantizer")
            .quantize(&mut quantized);
        assert!(
            quantized
                .layers()
                .iter()
                .any(|l| l.activation_format().is_some()),
            "{name}: no FakeQuant format installed"
        );
        out.push((format!("{name} fakequant 4"), kind, quantized));
    }
    out
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{label}: element {i} is {g:e}, want {w:e}"
        );
    }
}

#[test]
fn backward_input_is_the_input_half_of_backward() {
    for (name, kind, mut model) in variants() {
        for batch in [1usize, 48] {
            let label = format!("{name} batch {batch}");
            let x = det_tensor(batch as u64, batch, kind.input_shape(), 0.0, 1.0);
            let logits = model.forward(&x, Mode::Eval).expect("forward");
            let classes = logits.shape()[1];
            let seed = det_tensor(100 + batch as u64, batch, &[classes], -1.0, 1.0);

            for (i, p) in model.params_mut().into_iter().enumerate() {
                p.grad = Tensor::full(p.value.shape(), 0.5 + i as f32);
            }
            let seeded: Vec<Tensor> = model.params().iter().map(|p| p.grad.clone()).collect();

            let input_only = model.backward_input(&seed).expect("backward_input");
            for (p, before) in model.params().iter().zip(&seeded) {
                assert_bits(
                    &format!("{label}: {} gradient after backward_input", p.name),
                    p.grad.data(),
                    before.data(),
                );
            }

            let full = model.backward(&seed).expect("backward");
            assert_eq!(input_only.shape(), full.shape(), "{label}: shape");
            assert_bits(
                &format!("{label}: input gradient"),
                input_only.data(),
                full.data(),
            );
            // `backward` did accumulate, so the comparison above is between
            // the two paths, not two calls of one.
            assert!(
                model
                    .params()
                    .iter()
                    .zip(&seeded)
                    .any(|(p, before)| p.grad.data() != before.data()),
                "{label}: backward accumulated no parameter gradient"
            );
        }
    }
}
