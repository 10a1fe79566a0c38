//! Thread-local numerical-health event sink.
//!
//! Guards scattered through the stack — the attack iteration loops in
//! `advcomp-attacks`, the training rollback logic in `advcomp-core` — need
//! to report "something numerically bad happened and here is how I
//! recovered" without every function signature in between growing a
//! metadata channel. Each sweep job runs on one worker thread, so a
//! thread-local event log works: guards [`record`] events as they fire, and
//! the job harness wraps the whole pipeline in [`scope`] to collect
//! everything that happened into the point's result metadata. Work a job
//! hands to other threads brings its events back: `advcomp_attacks::craft_all`
//! captures each pool-crafted sample's events in a [`scope`] and re-records
//! them on the calling thread.
//!
//! Events are *recoveries*, not errors: a guard that records an event has
//! already degraded gracefully (kept the last good attack iterate, rolled
//! the model back an epoch). Hard failures still travel as `Err`.

use std::cell::RefCell;

/// One recovered numerical incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    /// Which guard fired (e.g. `ifgsm`, `train`).
    pub site: String,
    /// What happened and how it was handled.
    pub detail: String,
}

impl HealthEvent {
    /// Renders as `site: detail` for logs and result metadata.
    pub fn describe(&self) -> String {
        format!("{}: {}", self.site, self.detail)
    }
}

thread_local! {
    static EVENTS: RefCell<Vec<HealthEvent>> = const { RefCell::new(Vec::new()) };
}

/// Records a recovered incident on the current thread's log.
pub fn record(site: &str, detail: impl Into<String>) {
    EVENTS.with(|e| {
        e.borrow_mut().push(HealthEvent {
            site: site.into(),
            detail: detail.into(),
        })
    });
}

/// Takes (and clears) every event recorded on the current thread.
pub fn drain() -> Vec<HealthEvent> {
    EVENTS.with(|e| e.borrow_mut().split_off(0))
}

/// Runs `f` with a clean event log and returns its result together with
/// the events it recorded. Events recorded before the scope are preserved
/// and restored afterwards, so nested scopes compose.
pub fn scope<T>(f: impl FnOnce() -> T) -> (T, Vec<HealthEvent>) {
    let outer = drain();
    let result = f();
    let inner = drain();
    EVENTS.with(|e| *e.borrow_mut() = outer);
    (result, inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain() {
        assert!(drain().is_empty());
        record("a", "first");
        record("b", "second");
        let events = drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].describe(), "a: first");
        assert!(drain().is_empty());
    }

    #[test]
    fn scope_isolates_and_restores() {
        record("outer", "kept");
        let ((), inner) = scope(|| record("inner", "captured"));
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].site, "inner");
        let outer = drain();
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].site, "outer");
    }

    #[test]
    fn threads_have_independent_logs() {
        record("main", "here");
        let from_thread = std::thread::spawn(|| {
            record("worker", "there");
            drain()
        })
        .join()
        .unwrap();
        assert_eq!(from_thread.len(), 1);
        assert_eq!(from_thread[0].site, "worker");
        assert_eq!(drain().len(), 1);
    }
}
