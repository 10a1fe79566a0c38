//! A poisoned gradient stops an iterative attack at its last good iterate.
//!
//! The injected fault fires at the `attack_iter` site's n-th hit anywhere
//! in the process, and most of this crate's unit tests run iterative
//! attacks, so this test runs in a binary of its own: no other test can
//! take the NaN meant for this one.

use advcomp_attacks::{Attack, Ifgsm};
use advcomp_nn::faults::{self, FaultKind, FaultSpec};
use advcomp_nn::{health, Dense, Relu, Sequential};
use advcomp_tensor::Tensor;
use rand::SeedableRng;

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
