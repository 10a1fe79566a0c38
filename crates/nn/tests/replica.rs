//! Replica-safety contract for eval-mode forwards.
//!
//! `Sequential::clone` gives a caller a copy it may mutate while the
//! original stays intact: `core::advtrain` fine-tunes a hardened copy and
//! `detect::grid` crafts through surrogate copies and compresses member
//! copies of one baseline. (Serving workers clone compiled `ExecPlan`s, not
//! models.) A copy computes what its original would only if an eval-mode
//! forward pass mutates nothing but the layer's transient backward cache:
//! parameters, installed quantisation formats and the dropout RNG
//! position must be bit-identical afterwards, and two replicas evaluating
//! the same input on different threads must produce bit-identical outputs.

use advcomp_nn::{Conv2d, Dense, Dropout, FakeQuant, Flatten, MaxPool2d, Mode, Relu, Sequential};
use advcomp_tensor::{Init, Tensor};
use rand::SeedableRng;

/// A network touching every layer with interior state: conv (im2col
/// scratch), dropout (RNG), fakequant (mask).
fn stateful_net(seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("conv1", 1, 4, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Dropout::new(0.5, 11)),
        Box::new(Dense::with_name("fc1", 4 * 4 * 4, 10, &mut rng)),
    ])
}

fn input(seed: u64, n: usize) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[n, 1, 8, 8], &mut rng)
}

#[test]
fn concurrent_eval_on_clones_is_bit_identical() {
    let base = stateful_net(3);
    let x = input(5, 3);
    let mut handles = Vec::new();
    for _ in 0..2 {
        let mut replica = base.clone();
        let xc = x.clone();
        handles.push(std::thread::spawn(move || {
            // Several passes: later outputs must not depend on pass count.
            let mut last = None;
            for _ in 0..3 {
                last = Some(replica.forward(&xc, Mode::Eval).unwrap());
            }
            last.unwrap().into_data()
        }));
    }
    let a = handles.pop().unwrap().join().unwrap();
    let b = handles.pop().unwrap().join().unwrap();
    assert_eq!(a, b, "replica eval forwards diverged");
}

#[test]
fn eval_forward_preserves_persistent_state() {
    let mut net = stateful_net(7);
    let x = input(9, 2);
    let params_before = net.export_params();
    let probe_before = probe_output(&net);
    let y1 = net.forward(&x, Mode::Eval).unwrap();
    let y2 = net.forward(&x, Mode::Eval).unwrap();
    // Eval is a pure function of (state, input): repeated calls agree ...
    assert_eq!(y1.data(), y2.data());
    // ... and nothing persistent moved.
    let params_after = net.export_params();
    for ((n1, t1), (n2, t2)) in params_before.iter().zip(&params_after) {
        assert_eq!(n1, n2);
        assert_eq!(t1.data(), t2.data(), "parameter {n1} mutated by eval");
    }
    assert_eq!(probe_before, probe_output(&net), "eval state mutated");
}

#[test]
fn eval_forward_does_not_advance_dropout_rng() {
    // Two clones; one runs extra eval passes first. If eval drew from the
    // dropout RNG, the subsequent train-mode masks would differ.
    let base = stateful_net(13);
    let mut a = base.clone();
    let mut b = base.clone();
    let x = input(17, 2);
    for _ in 0..4 {
        a.forward(&x, Mode::Eval).unwrap();
    }
    let ya = a.forward(&x, Mode::Train).unwrap();
    let yb = b.forward(&x, Mode::Train).unwrap();
    assert_eq!(
        ya.data(),
        yb.data(),
        "eval forward advanced the dropout RNG"
    );
}

fn probe_output(net: &Sequential) -> Vec<f32> {
    // State that is not exported as params is checked through its effect:
    // a clone's eval output on a fixed probe.
    let mut probe_net = net.clone();
    let probe = Tensor::ones(&[1, 1, 8, 8]);
    probe_net
        .forward(&probe, Mode::Eval)
        .expect("probe forward")
        .into_data()
}
