//! Bounded parallel execution of independent experiment jobs.
//!
//! [`run_supervised`] is the one job runner: it degrades gracefully. Each
//! job runs under `catch_unwind` with a retry budget; a job that keeps
//! failing becomes a [`JobFailure`] in its slot while every other slot
//! still completes. One bad point on a Figure 2 curve must not discard
//! the hours of work behind the other points. A caller that wants fail
//! fast passes [`RetryPolicy::none`] and turns the first failed slot into
//! an error.

use crate::resilience::RetryPolicy;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Terminal failure of one supervised job: what went wrong on the last
/// attempt, and how many attempts were spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Error (or panic) message from the final attempt.
    pub error: String,
    /// `true` when the final attempt panicked rather than returning `Err`.
    pub panicked: bool,
    /// Attempts consumed (= the retry policy's `max_attempts` on failure).
    pub attempts: u32,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} attempt{} ({})",
            if self.panicked { "panicked" } else { "failed" },
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.error
        )
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one job to completion under the retry budget.
fn supervise<T, F>(job: &F, retry: &RetryPolicy) -> Result<(T, u32), JobFailure>
where
    F: Fn() -> crate::Result<T>,
{
    let budget = retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let (error, panicked) = match catch_unwind(AssertUnwindSafe(job)) {
            Ok(Ok(value)) => return Ok((value, attempt)),
            Ok(Err(e)) => (e.to_string(), false),
            Err(payload) => (panic_message(payload), true),
        };
        if attempt >= budget {
            return Err(JobFailure {
                error,
                panicked,
                attempts: attempt,
            });
        }
        std::thread::sleep(retry.backoff_before(attempt));
    }
}

/// One result slot of [`run_supervised`]: `(value, attempts_used)` on
/// success, the recorded [`JobFailure`] otherwise.
pub type SupervisedSlot<T> = Result<(T, u32), JobFailure>;

/// Runs `jobs` across at most `max_workers` threads, preserving slot
/// order, catching per-job panics and retrying failures up to
/// `retry.max_attempts` with exponential backoff. Each sweep point in
/// Figures 2 and 5 is an independent train-compress-attack pipeline, so
/// this is embarrassingly parallel; the worker cap keeps the matmul
/// threads from oversubscribing the machine. A successful slot carries
/// `(value, attempts_used)`; a job that exhausts its budget yields
/// `Err(JobFailure)` in its slot while every other job still runs to
/// completion — a sweep degrades to partial results instead of dying.
///
/// Jobs are `Fn` (not `FnOnce`) because a retry re-invokes the same
/// closure; sweep jobs are pure functions of their captured configuration,
/// so re-running one is safe by construction.
pub fn run_supervised<T, F>(
    jobs: Vec<F>,
    max_workers: usize,
    retry: &RetryPolicy,
) -> Vec<SupervisedSlot<T>>
where
    T: Send,
    F: Fn() -> crate::Result<T> + Send + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = max_workers.max(1).min(n);
    if workers == 1 {
        return jobs.iter().map(|j| supervise(j, retry)).collect();
    }
    let slots: Vec<Mutex<Option<SupervisedSlot<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock() = Some(supervise(&jobs[i], retry));
            });
        }
    })
    // Unreachable in practice: job panics are caught inside `supervise`.
    .expect("supervised worker infrastructure panicked");
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actually_parallel() {
        use std::time::{Duration, Instant};
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                || {
                    std::thread::sleep(Duration::from_millis(50));
                    Ok(1)
                }
            })
            .collect();
        let start = Instant::now();
        let out = run_supervised(jobs, 4, &RetryPolicy::none());
        assert_eq!(out.iter().map(|r| r.as_ref().unwrap().0).sum::<i32>(), 4);
        assert!(
            start.elapsed() < Duration::from_millis(180),
            "jobs appear to have run serially"
        );
    }

    #[test]
    fn supervised_isolates_a_panicking_job() {
        let jobs: Vec<Box<dyn Fn() -> crate::Result<i32> + Send + Sync>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| panic!("boom at point 1")),
            Box::new(|| Ok(3)),
        ];
        let out = run_supervised(jobs, 2, &RetryPolicy::none());
        assert_eq!(out[0], Ok((1, 1)));
        assert_eq!(out[2], Ok((3, 1)));
        let failure = out[1].as_ref().unwrap_err();
        assert!(failure.panicked);
        assert_eq!(failure.attempts, 1);
        assert!(failure.error.contains("boom at point 1"));
    }

    #[test]
    fn supervised_retries_until_success() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let jobs = vec![|| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(crate::CoreError::InvalidConfig("transient".into()))
            } else {
                Ok(42)
            }
        }];
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_ms: 0,
        };
        let out = run_supervised(jobs, 1, &retry);
        assert_eq!(out, vec![Ok((42, 3))]);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn supervised_exhausts_retry_budget() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let jobs = vec![|| -> crate::Result<i32> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(crate::CoreError::InvalidConfig("permanent".into()))
        }];
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_ms: 0,
        };
        let out = run_supervised(jobs, 1, &retry);
        let failure = out[0].as_ref().unwrap_err();
        assert!(!failure.panicked);
        assert_eq!(failure.attempts, 3);
        assert!(failure.error.contains("permanent"));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn supervised_preserves_order_across_workers() {
        let jobs: Vec<_> = (0..12).map(|i| move || Ok(i * i)).collect();
        let out = run_supervised(jobs, 4, &RetryPolicy::none());
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, Ok(((i * i) as i32, 1)));
        }
    }

    #[test]
    fn supervised_empty_input() {
        let out: Vec<Result<(i32, u32), JobFailure>> = run_supervised(
            Vec::<fn() -> crate::Result<i32>>::new(),
            4,
            &RetryPolicy::none(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn job_failure_display() {
        let f = JobFailure {
            error: "x".into(),
            panicked: true,
            attempts: 2,
        };
        assert_eq!(f.to_string(), "panicked after 2 attempts (x)");
    }
}
