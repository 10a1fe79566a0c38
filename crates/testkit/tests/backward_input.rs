//! `backward_input` and `backward` are the two halves of backpropagation:
//! the companion of `gradcheck_all`, which checks both against finite
//! differences.
//!
//! Attacks differentiate the paper nets through
//! `Sequential::backward_input`, which skips every weight-gradient GEMM.
//! This suite pins its contract on both nets, at f32, DNS-pruned and with
//! FakeQuant formats installed, at batch 1 and 48: with every parameter
//! gradient seeded nonzero, `backward_input` leaves every parameter
//! gradient as it was. (`backward` returns nothing; the goldens'
//! `lenet_train_step` and `dist_sweep`'s curve hashes pin the parameter
//! gradients it accumulates.) A small net with a stride-2 and a 1×1
//! convolution rides along: on the AVX2 backend the paper nets' stride-1
//! convolutions run the direct kernels while the stride-2 one keeps the
//! `im2col` lowering, so the suite covers both.
//!
//! `Conv2d` caches its input and computes the weight gradient from it in
//! `backward`: the second test pins that a `backward` after an
//! `Eval`-mode forward accumulates the same parameter gradients, and
//! `backward_input` returns the same input gradient, as after a
//! `Train`-mode one (none of these nets has dropout).
//!
//! The third pins batch invariance, which a batched attack needs: seeded
//! with one-hot logit rows, row `i` of a batch's `backward_input` is sample
//! `i`'s batch-1 input gradient, bit for bit, over the paper nets' own test
//! inputs.

use advcomp_attacks::NetKind;
use advcomp_compress::{PruneMask, Quantizer};
use advcomp_core::{ExperimentScale, TaskSetup, TrainedModel};
use advcomp_models::{cifarnet, lenet5};
use advcomp_nn::{Mode, Sequential};
use advcomp_tensor::Tensor;
use advcomp_testkit::fixtures::{strided, STRIDED_INPUT};
use advcomp_testkit::DetRng;

/// A deterministic `[batch, ...shape]` tensor with values in `[lo, hi)`.
fn det_tensor(seed: u64, batch: usize, shape: &[usize], lo: f32, hi: f32) -> Tensor {
    let mut full = vec![batch];
    full.extend_from_slice(shape);
    let numel: usize = full.iter().product();
    Tensor::new(&full, DetRng::new(seed).vec_f32(numel, lo, hi)).expect("consistent shape")
}

/// Builds one net under test.
type Build = fn() -> Sequential;

/// How many inputs [`nets`] holds per net: the largest batch here.
const INPUTS: usize = 64;

/// The first [`INPUTS`] test inputs of `net`'s task at `tiny` scale.
fn task_rows(net: NetKind) -> Tensor {
    let setup = TaskSetup::new(net, &ExperimentScale::tiny());
    let (rows, _) = setup
        .test
        .slice(0, INPUTS)
        .expect("the tiny test split holds 64");
    rows
}

/// The nets under test with [`INPUTS`] inputs each: both paper nets at
/// reduced width on their task's test inputs, and [`strided`] on uniform
/// values.
fn nets() -> [(&'static str, Tensor, Build); 3] {
    [
        ("lenet5", task_rows(NetKind::LeNet5), || lenet5(0.5, 31)),
        ("cifarnet", task_rows(NetKind::CifarNet), || {
            cifarnet(0.35, 32)
        }),
        (
            "strided",
            det_tensor(34, INPUTS, &STRIDED_INPUT, 0.0, 1.0),
            || strided(33),
        ),
    ]
}

/// Every net of [`nets`] at f32, DNS-pruned to density 0.1 and with 4-bit
/// weights and FakeQuant activation formats installed (simulated, so the
/// layers stay differentiable), with the net's inputs.
fn variants() -> Vec<(String, Tensor, Sequential)> {
    let mut out = Vec::new();
    for (name, inputs, build) in nets() {
        out.push((format!("{name} f32"), inputs.clone(), build()));
        let mut pruned = build();
        PruneMask::from_magnitude(&pruned, 0.1)
            .and_then(|mask| mask.apply(&mut pruned))
            .expect("prune");
        out.push((format!("{name} dns 0.1"), inputs.clone(), pruned));
        let mut quantized = build();
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
        out.push((format!("{name} fakequant 4"), inputs, quantized));
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
fn backward_input_leaves_parameter_gradients_untouched() {
    for (name, inputs, mut model) in variants() {
        let shape = &inputs.shape()[1..];
        for batch in [1usize, 48] {
            let label = format!("{name} batch {batch}");
            let x = det_tensor(batch as u64, batch, shape, 0.0, 1.0);
            let logits = model.forward(&x, Mode::Eval).expect("forward");
            let classes = logits.shape()[1];
            let seed = det_tensor(100 + batch as u64, batch, &[classes], -1.0, 1.0);

            for (i, p) in model.params_mut().into_iter().enumerate() {
                p.grad = Tensor::full(p.value.shape(), 0.5 + i as f32);
            }
            let seeded: Vec<Tensor> = model.params().iter().map(|p| p.grad.clone()).collect();

            let dx = model.backward_input(&seed).expect("backward_input");
            assert_eq!(dx.shape(), x.shape(), "{label}: input gradient shape");
            for (p, before) in model.params().iter().zip(&seeded) {
                assert_bits(
                    &format!("{label}: {} gradient after backward_input", p.name),
                    p.grad.data(),
                    before.data(),
                );
            }
        }
    }
}

/// Parameter gradients of one `backward` from zeroed gradients, and the
/// input gradient `backward_input` then returns, after a forward of `x` in
/// `mode`.
fn gradients_after(model: &mut Sequential, x: &Tensor, mode: Mode) -> (Vec<Tensor>, Tensor) {
    let logits = model.forward(x, mode).expect("forward");
    let seed = det_tensor(7, logits.shape()[0], &logits.shape()[1..], -1.0, 1.0);
    model.zero_grad();
    model.backward(&seed).expect("backward");
    let dx = model.backward_input(&seed).expect("backward_input");
    (model.params().iter().map(|p| p.grad.clone()).collect(), dx)
}

#[test]
fn backward_after_eval_forward_matches_train_forward() {
    for (name, inputs, mut model) in variants() {
        let shape = &inputs.shape()[1..];
        for batch in [1usize, 48] {
            let label = format!("{name} batch {batch}");
            let x = det_tensor(50 + batch as u64, batch, shape, 0.0, 1.0);
            let (eval_grads, eval_dx) = gradients_after(&mut model, &x, Mode::Eval);
            let (train_grads, train_dx) = gradients_after(&mut model, &x, Mode::Train);
            for ((p, e), t) in model.params().iter().zip(&eval_grads).zip(&train_grads) {
                assert_bits(&format!("{label}: {} gradient", p.name), e.data(), t.data());
            }
            assert_bits(
                &format!("{label}: input gradient"),
                eval_dx.data(),
                train_dx.data(),
            );
            assert!(
                eval_grads
                    .iter()
                    .any(|g| g.data().iter().any(|&v| v != 0.0)),
                "{label}: backward accumulated no parameter gradient"
            );
        }
    }
}

/// Input gradient of an `Eval` forward of `inputs` rows `start..start +
/// batch`, seeded with one-hot logit rows (row `r` hot at class `(start +
/// r) % classes`), so the seed carries no batch-size scale.
fn one_hot_input_grad(
    model: &mut Sequential,
    inputs: &Tensor,
    start: usize,
    batch: usize,
) -> Tensor {
    let x = inputs
        .narrow(start, batch)
        .expect("inputs hold every batch");
    let logits = model.forward(&x, Mode::Eval).expect("forward");
    let classes = logits.shape()[1];
    let mut seed = Tensor::zeros(logits.shape());
    for (r, row) in seed.data_mut().chunks_exact_mut(classes).enumerate() {
        row[(start + r) % classes] = 1.0;
    }
    model.backward_input(&seed).expect("backward_input")
}

/// Every variant, and LeNet-5 trained at `tiny` scale (seed 11), whose
/// `Dense` layers see a trained net's sparse activations and gradients.
#[test]
fn backward_input_rows_ignore_their_batchmates() {
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let trained = TrainedModel::train(&setup, &scale, 11).expect("tiny baseline trains");
    let mut cases = variants();
    cases.push((
        "lenet5 trained".into(),
        task_rows(NetKind::LeNet5),
        trained.instantiate().expect("checkpoint restores"),
    ));
    for (name, inputs, mut model) in cases {
        let alone: Vec<Tensor> = (0..INPUTS)
            .map(|i| one_hot_input_grad(&mut model, &inputs, i, 1))
            .collect();
        for batch in [1usize, 3, 16, INPUTS] {
            let dx = one_hot_input_grad(&mut model, &inputs, 0, batch);
            for (i, (row, one)) in dx
                .data()
                .chunks_exact(dx.len() / batch)
                .zip(&alone)
                .enumerate()
            {
                assert_bits(
                    &format!("{name} batch {batch}: row {i} vs its batch-1 input gradient"),
                    row,
                    one.data(),
                );
            }
        }
    }
}
