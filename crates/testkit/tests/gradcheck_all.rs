//! Gradcheck expansion: finite-difference validation of every layer's
//! analytic backward pass, including FakeQuant's straight-through
//! estimator.
//!
//! Comparison uses the aggregate relative-L2 statistic
//! (`advcomp_testkit::tolerance::rel_l2_error`): central differences of a
//! piecewise-smooth loss (ReLU kinks, max-pool argmax flips) can be badly
//! wrong in isolated elements while the gradient field as a whole is
//! right, so elementwise tolerances are the wrong instrument here. See
//! `TESTING.md` for the full tolerance policy.

use advcomp_nn::{
    finite_diff_input_grad, finite_diff_param_grad, softmax_cross_entropy, Conv2d, Dense, Dropout,
    FakeQuant, Flatten, Layer, MaxPool2d, Mode, Relu, Sequential,
};
use advcomp_qformat::QFormat;
use advcomp_tensor::Tensor;
use advcomp_testkit::fixtures::materialize_params;
use advcomp_testkit::tolerance::rel_l2_error;
use advcomp_testkit::DetRng;
use rand::SeedableRng;

/// Relative-L2 threshold for smooth networks (every layer differentiable).
const SMOOTH: f32 = 0.02;
/// Threshold for networks with kinks (ReLU, pooling argmax, quantisation).
const KINKY: f32 = 0.05;

/// Deterministic input tensor, independent of the linked `rand`.
fn det_input(seed: u64, shape: &[usize], lo: f32, hi: f32) -> Tensor {
    let mut rng = DetRng::new(seed);
    let n: usize = shape.iter().product();
    Tensor::new(shape, rng.vec_f32(n, lo, hi)).unwrap()
}

/// Builds `layers` into a network with parameters drawn from [`DetRng`].
fn det_net(seed: u64, layers: Vec<Box<dyn Layer>>) -> Sequential {
    let mut net = Sequential::new(layers);
    materialize_params(&mut net, &mut DetRng::new(seed));
    net
}

/// Checks the analytic input gradient and the gradients of every named
/// parameter against central differences in [`Mode::Eval`].
fn check_net(
    label: &str,
    net: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    eps: f32,
    threshold: f32,
) {
    let logits = net.forward(x, Mode::Eval).expect("forward");
    let loss = softmax_cross_entropy(&logits, labels).expect("loss");
    net.zero_grad();
    net.backward(&loss.grad).expect("backward");
    let analytic_input = net.backward_input(&loss.grad).expect("backward_input");
    let analytic_params: Vec<(String, Tensor)> = net
        .params()
        .iter()
        .map(|p| (p.name.clone(), p.grad.clone()))
        .collect();

    let fd_input = finite_diff_input_grad(net, x, labels, eps).expect("fd input");
    let err = rel_l2_error(analytic_input.data(), fd_input.data());
    assert!(
        err < threshold,
        "{label}: input gradient rel-L2 error {err} >= {threshold}"
    );

    for (name, analytic) in &analytic_params {
        let fd = finite_diff_param_grad(net, x, labels, name, eps).expect("fd param");
        let err = rel_l2_error(analytic.data(), fd.data());
        assert!(
            err < threshold,
            "{label}: {name} gradient rel-L2 error {err} >= {threshold}"
        );
    }
}

fn init_rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0)
}

#[test]
fn conv_relu_maxpool_gradients() {
    let mut r = init_rng();
    let mut net = det_net(
        14,
        vec![
            Box::new(Conv2d::with_name("c", 1, 3, 3, 1, 1, &mut r)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Flatten::new()),
            Box::new(Dense::with_name("fc", 12, 4, &mut r)),
        ],
    );
    let x = det_input(15, &[2, 1, 4, 4], 0.0, 1.0);
    check_net("conv+relu+maxpool", &mut net, &x, &[1, 3], 1e-2, KINKY);
}

#[test]
fn dropout_eval_is_transparent_to_gradients() {
    // Dropout in eval mode must be an exact identity for both values and
    // gradients. (Train mode resamples its mask per forward call, so the
    // perturbed losses of a finite-difference probe are not samples of one
    // differentiable function — eval is the checkable mode.)
    let mut r = init_rng();
    let mut net = det_net(
        22,
        vec![
            Box::new(Dense::with_name("a", 5, 8, &mut r)),
            Box::new(Dropout::new(0.35, 99)),
            Box::new(Dense::with_name("b", 8, 3, &mut r)),
        ],
    );
    let x = det_input(23, &[3, 5], -1.0, 1.0);
    check_net("dropout eval", &mut net, &x, &[0, 2, 1], 1e-3, SMOOTH);
}

#[test]
fn fakequant_ste_matches_fine_quantised_loss() {
    // With a fine format (Q8.16, step ≈ 1.5e-5) the quantised forward is a
    // staircase much finer than the probe step, so central differences of
    // the *quantised* loss recover the smooth envelope gradient — exactly
    // what the straight-through estimator claims to be.
    let q = QFormat::new(8, 16).unwrap();
    let mut r = init_rng();
    let mut net = det_net(
        24,
        vec![
            Box::new(Dense::with_name("a", 4, 6, &mut r)),
            Box::new(FakeQuant::with_format(q)),
            Box::new(Dense::with_name("b", 6, 3, &mut r)),
        ],
    );
    let x = det_input(25, &[3, 4], -1.0, 1.0);
    check_net("fakequant fine STE", &mut net, &x, &[1, 2, 0], 1e-3, KINKY);
}

#[test]
fn fakequant_ste_saturation_mask() {
    // Coarse formats make the loss staircase too wide for finite
    // differences; the STE contract is checked directly instead: gradients
    // pass where the input is inside the representable range and are
    // zeroed where the forward saturated.
    let q = QFormat::new(1, 3).unwrap(); // range [-1, 0.875]
    let mut fq = FakeQuant::with_format(q);
    let x = Tensor::new(&[1, 5], vec![-2.0, -1.0, 0.3, 0.875, 1.5]).unwrap();
    fq.forward(x.clone(), Mode::Eval).unwrap();
    let g = fq
        .backward_input(Tensor::new(&[1, 5], vec![1.0; 5]).unwrap())
        .unwrap();
    let expected: Vec<f32> = x
        .data()
        .iter()
        .map(|&v| {
            if (q.min_value()..=q.max_value()).contains(&v) {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    assert_eq!(g.data(), expected.as_slice(), "clipped-STE pass mask");
}

#[test]
fn softmax_cross_entropy_gradient() {
    // A parameter-free net isolates the loss itself: the analytic CE
    // gradient (softmax − one-hot) against finite differences.
    let mut net = Sequential::new(vec![Box::new(Flatten::new())]);
    let x = det_input(26, &[3, 5], -2.0, 2.0);
    check_net("softmax-CE", &mut net, &x, &[4, 0, 2], 1e-3, 0.01);
}

#[test]
fn full_lenet_stack_input_gradient() {
    // The composed fixture network: one end-to-end input gradcheck over
    // every layer kind the goldens exercise.
    let mut net = advcomp_testkit::fixtures::lenet(77);
    let x = det_input(27, &[2, 1, 8, 8], 0.0, 1.0);
    let labels = [3usize, 8];

    let logits = net.forward(&x, Mode::Eval).unwrap();
    let loss = softmax_cross_entropy(&logits, &labels).unwrap();
    net.zero_grad();
    let analytic = net.backward_input(&loss.grad).unwrap();
    // eps 1e-3: coarser probes flip max-pool argmaxes on this fixture and
    // the finite-difference estimate stops converging (checked empirically:
    // rel-L2 0.33 at 1e-2, 0.004 at 1e-3).
    let fd = finite_diff_input_grad(&mut net, &x, &labels, 1e-3).unwrap();
    let err = rel_l2_error(analytic.data(), fd.data());
    assert!(err < KINKY, "lenet stack input rel-L2 error {err}");
}
