//! Scheduling contract of the kernel pool: a `for_each_chunk` caller
//! computes its own chunks (so it finishes even when every worker is busy
//! elsewhere), `with_thread_cap(n)` bounds a scope to `n` threads, and a
//! panic in a chunk run by a helper reaches the caller.
//!
//! This file deliberately contains a **single** `#[test]`: the pool reads
//! `ADVCOMP_THREADS` once, at first use, so the test sets it before any
//! tensor op (the same pattern as `testkit/tests/determinism.rs`).

use advcomp_tensor::pool::{self, for_each_chunk, with_thread_cap};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

const THREADS: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(10);

/// A one-way latch: `open` releases every current and future `wait`.
struct Latch {
    open: Mutex<bool>,
    changed: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            open: Mutex::new(false),
            changed: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.changed.notify_all();
    }

    /// Waits until the latch opens or `timeout` passes.
    fn wait(&self, timeout: Duration) {
        let open = self.open.lock().unwrap();
        let _open = self
            .changed
            .wait_timeout_while(open, timeout, |open| !*open)
            .unwrap();
    }
}

/// Every pool worker is held inside caller A's chunks; caller B's scope
/// must still finish, computed entirely on B's own thread.
fn caller_progresses_while_workers_are_busy() {
    let held = Latch::new();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<Vec<ThreadId>>();
    let outcome = thread::scope(|s| {
        let held = &held;
        s.spawn(move || {
            // THREADS chunks: one for A itself and one per pool worker.
            let mut a = vec![0.0f32; THREADS];
            for_each_chunk(&mut a, 1, |_, _| {
                entered_tx.send(()).unwrap();
                // Outlasts B's deadline, so no worker is freed before it.
                held.wait(3 * TIMEOUT);
            });
        });
        for n in 0..THREADS {
            if entered_rx.recv_timeout(TIMEOUT).is_err() {
                held.open();
                return Err(format!("only {n} of {THREADS} threads entered A's scope"));
            }
        }
        s.spawn(move || {
            let ran_on = Mutex::new(Vec::new());
            let mut b = vec![0.0f32; 16];
            for_each_chunk(&mut b, 1, |_, chunk| {
                ran_on.lock().unwrap().push(thread::current().id());
                chunk[0] = 1.0;
            });
            assert!(b.iter().all(|&v| v == 1.0));
            done_tx.send(ran_on.into_inner().unwrap()).unwrap();
        });
        let done = done_rx.recv_timeout(TIMEOUT);
        held.open();
        done.map_err(|_| "B's scope did not finish while the workers were busy".to_string())
    });
    let ran_on = outcome.unwrap();
    assert_eq!(ran_on.len(), 16, "every chunk of B runs exactly once");
    let b_thread = ran_on[0];
    assert!(
        ran_on.iter().all(|&t| t == b_thread),
        "B's chunks must all run on B's own thread"
    );
}

/// A capped scope never has more threads inside its closure than the cap,
/// however many pool workers are idle.
fn thread_cap_bounds_every_scope() {
    let inside = AtomicUsize::new(0);
    let most_inside = AtomicUsize::new(0);
    let threads = Mutex::new(HashSet::new());
    let mut data = vec![0.0f32; 64];
    with_thread_cap(2, || {
        for_each_chunk(&mut data, 1, |_, _| {
            threads.lock().unwrap().insert(thread::current().id());
            let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
            most_inside.fetch_max(now, Ordering::SeqCst);
            // Linger until a third thread joins (a cap violation) or a
            // short while passes, so idle workers get every chance to.
            let start = Instant::now();
            while inside.load(Ordering::SeqCst) <= 2 && start.elapsed() < Duration::from_millis(5) {
                thread::yield_now();
            }
            inside.fetch_sub(1, Ordering::SeqCst);
        });
    });
    let most = most_inside.load(Ordering::SeqCst);
    assert!(most <= 2, "{most} threads inside a cap-2 scope at once");
    let distinct = threads.into_inner().unwrap().len();
    assert!(distinct <= 2, "a cap-2 scope ran on {distinct} threads");
}

/// A panic in a chunk that a helper runs is re-raised in the caller, and
/// the pool keeps working afterwards.
fn helper_panics_reach_the_caller() {
    let caller = thread::current().id();
    let helper_entered = Latch::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut data = vec![0.0f32; 8];
        for_each_chunk(&mut data, 1, |_, _| {
            if thread::current().id() == caller {
                // Hold the caller so the remaining chunks go to helpers.
                helper_entered.wait(TIMEOUT);
            } else {
                helper_entered.open();
                panic!("helper chunk panicked");
            }
        });
    }));
    let payload = result.expect_err("a helper's panic must surface to the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"helper chunk panicked")
    );
    let mut data = vec![0.0f32; 256];
    for_each_chunk(&mut data, 16, |i, chunk| chunk.fill(i as f32));
    for (i, v) in data.iter().enumerate() {
        assert_eq!(*v, (i / 16) as f32);
    }
}

#[test]
fn callers_self_schedule_within_their_cap() {
    // Must precede every tensor op: the pool caches this at first use.
    std::env::set_var("ADVCOMP_THREADS", THREADS.to_string());
    assert_eq!(pool::available_threads(), THREADS);
    caller_progresses_while_workers_are_busy();
    thread_cap_bounds_every_scope();
    helper_panics_reach_the_caller();
}
