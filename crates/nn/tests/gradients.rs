//! Exhaustive finite-difference gradient checks over layer combinations,
//! including the compression-specific layers (FakeQuant STE) and pooling —
//! the correctness backbone of every attack and training result.

use advcomp_nn::{
    finite_diff_input_grad, finite_diff_param_grad, softmax_cross_entropy, Conv2d, Dense, Dropout,
    FakeQuant, Flatten, Layer, MaxPool2d, Mode, Relu, Sequential,
};
use advcomp_qformat::QFormat;
use advcomp_tensor::{Init, Tensor};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

// Comparison policy: aggregate relative L2 error, not elementwise bounds.
// The loss is only piecewise smooth (ReLU kinks, max-pool argmax flips), so
// a finite-difference probe can be badly wrong in isolated elements whose
// probe step crosses a kink while the gradient field as a whole is correct.
// Elementwise `allclose` made these checks dependent on which `rand` stream
// initialised the weights (a kink landing near a probe point is a lottery);
// the relative-norm statistic is robust to it. Same policy as
// `deep_lenet_style_gradcheck` below and `TESTING.md`.
fn rel_l2(analytic: &Tensor, numeric: &Tensor) -> f32 {
    let diff = analytic.sub(numeric).unwrap().l2_norm();
    diff / numeric.l2_norm().max(1e-6)
}

fn check_input_grad(net: &mut Sequential, x: &Tensor, labels: &[usize], threshold: f32) {
    let logits = net.forward(x, Mode::Eval).unwrap();
    let loss = softmax_cross_entropy(&logits, labels).unwrap();
    net.zero_grad();
    net.backward(&loss.grad).unwrap();
    let analytic = net.backward_input(&loss.grad).unwrap();
    let numeric = finite_diff_input_grad(net, x, labels, 1e-3).unwrap();
    let err = rel_l2(&analytic, &numeric);
    assert!(
        err < threshold,
        "input gradient relative-L2 error {err} >= {threshold}"
    );
}

fn check_param_grad(
    net: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    name: &str,
    threshold: f32,
) {
    let logits = net.forward(x, Mode::Eval).unwrap();
    let loss = softmax_cross_entropy(&logits, labels).unwrap();
    net.zero_grad();
    net.backward(&loss.grad).unwrap();
    let analytic = net.param(name).unwrap().grad.clone();
    let numeric = finite_diff_param_grad(net, x, labels, name, 1e-3).unwrap();
    let err = rel_l2(&analytic, &numeric);
    assert!(
        err < threshold,
        "param {name} gradient relative-L2 error {err} >= {threshold}"
    );
}

#[test]
fn conv_pool_dense_stack() {
    let mut r = rng(1);
    let mut net = Sequential::new(vec![
        Box::new(Conv2d::with_name("c1", 1, 3, 3, 1, 1, &mut r)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Dense::with_name("d1", 3 * 3 * 3, 4, &mut r)),
    ]);
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[2, 1, 6, 6], &mut r);
    let labels = vec![1usize, 3];
    check_input_grad(&mut net, &x, &labels, 3e-2);
    check_param_grad(&mut net, &x, &labels, "c1.weight", 3e-2);
    check_param_grad(&mut net, &x, &labels, "c1.bias", 3e-2);
    check_param_grad(&mut net, &x, &labels, "d1.weight", 3e-2);
}

#[test]
fn stacked_convolutions() {
    let mut r = rng(2);
    let mut net = Sequential::new(vec![
        Box::new(Conv2d::with_name("c1", 2, 4, 3, 1, 1, &mut r)),
        Box::new(Relu::new()),
        Box::new(Conv2d::with_name("c2", 4, 2, 3, 2, 0, &mut r)),
        Box::new(Flatten::new()),
        Box::new(Dense::with_name("d", 2 * 2 * 2, 3, &mut r)),
    ]);
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[1, 2, 5, 5], &mut r);
    let labels = vec![2usize];
    check_input_grad(&mut net, &x, &labels, 3e-2);
    check_param_grad(&mut net, &x, &labels, "c2.weight", 3e-2);
}

#[test]
fn fakequant_ste_passes_in_range_gradients() {
    // With a wide format and in-range inputs, FakeQuant's STE should be
    // gradient-transparent: the analytic gradient equals the plain net's.
    let mut r = rng(3);
    let w = Init::Uniform { lo: -0.4, hi: 0.4 }.tensor(&[3, 4], &mut r);
    let build = |with_fq: bool, w: &Tensor| -> Sequential {
        let mut rr = rng(99);
        let mut layers: Vec<Box<dyn advcomp_nn::Layer>> = Vec::new();
        if with_fq {
            layers.push(Box::new(FakeQuant::with_format(
                QFormat::new(4, 20).unwrap(),
            )));
        }
        let mut dense = Dense::with_name("d", 4, 3, &mut rr);
        dense.params_mut()[0].value = w.clone();
        layers.push(Box::new(dense));
        Sequential::new(layers)
    };
    let x = Init::Uniform { lo: 0.1, hi: 0.9 }.tensor(&[2, 4], &mut r);
    let labels = vec![0usize, 2];

    let mut plain = build(false, &w);
    let logits = plain.forward(&x, Mode::Eval).unwrap();
    let loss = softmax_cross_entropy(&logits, &labels).unwrap();
    let g_plain = plain.backward_input(&loss.grad).unwrap();

    let mut fq = build(true, &w);
    let logits = fq.forward(&x, Mode::Eval).unwrap();
    let loss = softmax_cross_entropy(&logits, &labels).unwrap();
    let g_fq = fq.backward_input(&loss.grad).unwrap();

    // Q4.20 has resolution ~1e-6: activations and logits are essentially
    // unquantised, so gradients agree tightly.
    assert!(g_plain.allclose(&g_fq, 1e-3));
}

#[test]
fn fakequant_ste_blocks_saturated_gradients() {
    let q = QFormat::new(1, 3).unwrap(); // range [-1, 0.875]
    let mut net = Sequential::new(vec![Box::new(FakeQuant::with_format(q))]);
    let x = Tensor::new(&[1, 3], vec![0.5, 3.0, -3.0]).unwrap();
    net.forward(&x, Mode::Eval).unwrap();
    let g = net.backward_input(&Tensor::ones(&[1, 3])).unwrap();
    assert_eq!(g.data(), &[1.0, 0.0, 0.0]);
}

#[test]
fn dropout_eval_does_not_perturb_gradients() {
    let mut r = rng(4);
    let mut net = Sequential::new(vec![
        Box::new(Dense::with_name("d1", 4, 8, &mut r)),
        Box::new(Dropout::new(0.5, 0)),
        Box::new(Relu::new()),
        Box::new(Dense::with_name("d2", 8, 2, &mut r)),
    ]);
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[3, 4], &mut r);
    let labels = vec![0usize, 1, 0];
    // Eval mode: dropout is identity, so gradcheck must pass exactly.
    check_input_grad(&mut net, &x, &labels, 2e-2);
}

#[test]
fn gradients_accumulate_across_backwards() {
    let mut r = rng(5);
    let mut net = Sequential::new(vec![Box::new(Dense::with_name("d", 3, 2, &mut r))]);
    let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[2, 3], &mut r);
    net.forward(&x, Mode::Train).unwrap();
    let g = Tensor::ones(&[2, 2]);
    net.backward(&g).unwrap();
    let once = net.param("d.weight").unwrap().grad.clone();
    net.backward(&g).unwrap();
    let twice = net.param("d.weight").unwrap().grad.clone();
    assert!(twice.allclose(&once.scale(2.0), 1e-5));
    net.zero_grad();
    assert_eq!(net.param("d.weight").unwrap().grad.l0_norm(), 0);
}

#[test]
fn deep_lenet_style_gradcheck() {
    // A miniature LeNet (conv-pool-conv-pool-dense) on 8x8 input: the
    // full composition used by the real models, gradient-checked end to end.
    let mut r = rng(6);
    let mut net = Sequential::new(vec![
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("c1", 1, 2, 3, 1, 1, &mut r)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Conv2d::with_name("c2", 2, 4, 3, 1, 0, &mut r)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Dense::with_name("fc", 4, 3, &mut r)),
    ]);
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[2, 1, 8, 8], &mut r);
    let labels = vec![0usize, 2];
    // Max-pool argmaxes can flip under the finite-difference probe (the
    // loss is only piecewise smooth), so compare gradients in relative norm
    // rather than elementwise.
    let logits = net.forward(&x, Mode::Eval).unwrap();
    let loss = softmax_cross_entropy(&logits, &labels).unwrap();
    net.zero_grad();
    net.backward(&loss.grad).unwrap();
    let analytic = net.backward_input(&loss.grad).unwrap();
    let numeric = finite_diff_input_grad(&mut net, &x, &labels, 1e-3).unwrap();
    let diff = analytic.sub(&numeric).unwrap().l2_norm();
    let denom = numeric.l2_norm().max(1e-6);
    assert!(
        diff / denom < 0.05,
        "relative input-gradient error {}",
        diff / denom
    );
    for name in ["c1.weight", "fc.bias"] {
        let analytic = net.param(name).unwrap().grad.clone();
        let numeric = finite_diff_param_grad(&mut net, &x, &labels, name, 1e-3).unwrap();
        let diff = analytic.sub(&numeric).unwrap().l2_norm();
        let denom = numeric.l2_norm().max(1e-6);
        assert!(
            diff / denom < 0.05,
            "relative {name} gradient error {}",
            diff / denom
        );
    }
}
