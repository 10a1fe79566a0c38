//! A worker panic costs one batch, not the worker, and never a hang.
//!
//! The injected fault fires at the first `serve_batch` call in the
//! process, whichever engine makes it, so this test runs in a binary of
//! its own: no other engine can take the panic meant for this one.

use advcomp_models::mlp;
use advcomp_nn::faults::{self, FaultKind, FaultSpec};
use advcomp_serve::{Engine, GuardConfig, ModelRegistry, ServeConfig, ServeError};
use std::sync::atomic::Ordering;
use std::time::Duration;

#[test]
fn injected_worker_panic_reports_worker_lost_not_a_hang() {
    let _g = faults::install(vec![FaultSpec::once(FaultKind::Panic, "serve_batch", 0)]);
    let mut registry = ModelRegistry::new(&[1, 28, 28]).unwrap();
    registry.set_baseline("dense", mlp(8, 0)).unwrap();
    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_depth: 32,
            guard: Some(GuardConfig { threshold: 0.5 }),
        },
    )
    .unwrap();
    // First batch panics: its jobs must resolve to WorkerLost.
    let r = engine.submit(vec![0.2; 28 * 28], false);
    assert!(matches!(r, Err(ServeError::WorkerLost)), "{r:?}");
    // The worker survived the panic and still serves.
    let p = engine.submit(vec![0.3; 28 * 28], false).unwrap();
    assert!(p.label < 10);
    assert_eq!(
        engine.metrics().worker_panics.load(Ordering::Relaxed),
        1,
        "panic counted"
    );
    engine.shutdown();
}
