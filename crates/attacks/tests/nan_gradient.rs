//! A poisoned gradient stops an iterative attack at its last good iterate.
//!
//! The injected fault fires at the `attack_iter` site's n-th hit anywhere
//! in the process, and most of this crate's unit tests run iterative
//! attacks, so these tests run in a binary of their own: no other test can
//! take the NaN meant for one of them. Each test also holds [`SERIAL`]
//! across its unfaulted reference run, so neither reference run can take
//! the NaN armed for the other test.

use advcomp_attacks::{Attack, DeepFool, Ifgsm};
use advcomp_nn::faults::{self, FaultKind, FaultSpec};
use advcomp_nn::{health, Dense, Relu, Sequential};
use advcomp_tensor::Tensor;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests of this binary, reference runs included.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn net() -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    Sequential::new(vec![
        Box::new(Dense::new(6, 12, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(12, 3, &mut rng)),
    ])
}

#[test]
fn injected_nan_gradient_stops_at_last_good_iterate() {
    let _serial = serial();
    let x = Tensor::full(&[2, 6], 0.5);
    let labels = [0usize, 1];
    // Reference: the first three (healthy) iterations.
    let clean = Ifgsm::new(0.01, 3)
        .unwrap()
        .generate(&mut net(), &x, &labels)
        .unwrap();
    // Poison the gradient of iteration 3 of an 8-iteration run: the
    // guard must keep the iterate from iteration 2 and record why.
    let _g = faults::install(vec![FaultSpec::once(FaultKind::Nan, "attack_iter", 3)]);
    let (guarded, events) = health::scope(|| {
        Ifgsm::new(0.01, 8)
            .unwrap()
            .generate(&mut net(), &x, &labels)
            .unwrap()
    });
    assert!(!guarded.has_non_finite());
    assert_eq!(guarded.data(), clean.data());
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].site, "ifgsm");
    assert!(events[0].detail.contains("iteration 3"), "{events:?}");
}

#[test]
fn injected_nan_deepfool_step_keeps_the_last_good_iterate() {
    let _serial = serial();
    let x = Tensor::new(
        &[2, 6],
        vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.2, 0.9, 0.4, 0.7, 0.1, 0.6],
    )
    .unwrap();
    let labels = [0usize, 1];
    let attack = DeepFool::new(0.02, 5).unwrap();
    let clean = attack.generate(&mut net(), &x, &labels).unwrap();
    assert_ne!(
        clean.narrow(0, 1).unwrap().data(),
        x.narrow(0, 1).unwrap().data(),
        "the healthy run must move sample 0 for this test to mean anything"
    );
    // Poison the first step, which belongs to sample 0: sample 0 keeps its
    // last good iterate (its input) and sample 1 runs as if unfaulted.
    let _g = faults::install(vec![FaultSpec::once(FaultKind::Nan, "attack_iter", 0)]);
    let (guarded, events) = health::scope(|| attack.generate(&mut net(), &x, &labels).unwrap());
    assert!(!guarded.has_non_finite());
    assert_eq!(
        guarded.narrow(0, 1).unwrap().data(),
        x.narrow(0, 1).unwrap().data()
    );
    assert_eq!(
        guarded.narrow(1, 1).unwrap().data(),
        clean.narrow(1, 1).unwrap().data()
    );
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].site, "deepfool");
    assert!(events[0].detail.contains("iteration 0"), "{events:?}");
}
