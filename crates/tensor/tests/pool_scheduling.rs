//! Scheduling contract of the kernel pool: a `for_each_chunk` caller
//! computes its own chunks (so it finishes even when every worker is busy
//! elsewhere), `with_thread_cap(n)` bounds a scope to `n` threads, and a
//! panic in a chunk run by a helper reaches the caller. For
//! `WorkerPool::run`'s lead: it runs on the calling thread while helpers
//! take chunks, the chunks it leaves unclaimed go to the caller, every
//! chunk runs once, a lead panic waits for the started chunks and stops
//! the rest, a chunk panic waits for the lead, and a one-thread cap runs
//! the lead and then the chunks in order.
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

    /// Waits until the latch opens or `timeout` passes; returns whether
    /// it opened.
    fn wait(&self, timeout: Duration) -> bool {
        let open = self.open.lock().unwrap();
        let (open, _) = self
            .changed
            .wait_timeout_while(open, timeout, |open| !*open)
            .unwrap();
        *open
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

/// The lead runs on the calling thread while helpers take chunks: a lead
/// that waits for a chunk to open a latch finishes.
fn lead_runs_beside_helper_chunks() {
    let caller = thread::current().id();
    let opened = Latch::new();
    let lead_thread = pool::global().run(
        8,
        THREADS - 1,
        || {
            assert!(
                opened.wait(TIMEOUT),
                "no helper took a chunk while the lead ran"
            );
            thread::current().id()
        },
        &|_| opened.open(),
    );
    assert_eq!(lead_thread, caller, "the lead must run on the caller");
}

/// With every pool worker held inside another caller's chunks, the chunks
/// the lead leaves unclaimed all run on the caller once it returns.
fn unclaimed_chunks_go_to_the_caller() {
    let held = Latch::new();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<(ThreadId, ThreadId, Vec<ThreadId>)>();
    let outcome = thread::scope(|s| {
        let held = &held;
        s.spawn(move || {
            let mut a = vec![0.0f32; THREADS];
            for_each_chunk(&mut a, 1, |_, _| {
                entered_tx.send(()).unwrap();
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
            let lead_on = pool::global().run(16, THREADS - 1, || thread::current().id(), &|_| {
                ran_on.lock().unwrap().push(thread::current().id())
            });
            let ran_on = ran_on.into_inner().unwrap();
            done_tx
                .send((thread::current().id(), lead_on, ran_on))
                .unwrap();
        });
        let done = done_rx.recv_timeout(TIMEOUT);
        held.open();
        done.map_err(|_| "B's run did not finish while the workers were busy".to_string())
    });
    let (b_thread, lead_on, ran_on) = outcome.unwrap();
    assert_eq!(lead_on, b_thread, "B's lead must run on B");
    assert_eq!(ran_on.len(), 16, "every chunk of B runs exactly once");
    assert!(
        ran_on.iter().all(|&t| t == b_thread),
        "B's unclaimed chunks must all run on B's own thread"
    );
}

/// Every chunk of a run with a lead runs exactly once, whichever thread
/// claims it.
fn every_chunk_runs_once_beside_a_lead() {
    let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    pool::global().run(
        runs.len(),
        THREADS - 1,
        || thread::sleep(Duration::from_millis(2)),
        &|i| {
            runs[i].fetch_add(1, Ordering::SeqCst);
        },
    );
    for (i, r) in runs.iter().enumerate() {
        assert_eq!(r.load(Ordering::SeqCst), 1, "chunk {i}");
    }
}

/// A panic in the lead reaches the caller only after the chunk a helper
/// had started (and is sleeping in) has finished, and the chunks nobody
/// had claimed never start.
fn lead_panic_waits_for_started_chunks() {
    let started = Latch::new();
    let finished = AtomicUsize::new(0);
    let ran = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool::global().run(
            64,
            THREADS - 1,
            || {
                assert!(started.wait(TIMEOUT), "no helper started a chunk");
                panic!("lead panicked");
            },
            &|_| {
                ran.fetch_add(1, Ordering::SeqCst);
                started.open();
                thread::sleep(Duration::from_millis(100));
                finished.fetch_add(1, Ordering::SeqCst);
            },
        )
    }));
    let payload = result.expect_err("the lead's panic must surface to the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"lead panicked"));
    let (ran, finished) = (ran.load(Ordering::SeqCst), finished.load(Ordering::SeqCst));
    assert!(
        ran >= 1 && ran == finished,
        "{finished} of {ran} started chunks finished"
    );
    assert!(ran < 64, "chunks kept starting after the lead panicked");
}

/// A panic in a helper's chunk reaches the caller after the lead has
/// finished.
fn chunk_panic_waits_for_the_lead() {
    let caller = thread::current().id();
    let panicking = Latch::new();
    let lead_done = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool::global().run(
            4,
            THREADS - 1,
            || {
                assert!(panicking.wait(TIMEOUT), "no helper took a chunk");
                thread::sleep(Duration::from_millis(50));
                lead_done.store(1, Ordering::SeqCst);
            },
            &|_| {
                if thread::current().id() != caller {
                    panicking.open();
                    panic!("helper chunk panicked");
                }
            },
        )
    }));
    let payload = result.expect_err("the chunk's panic must surface to the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"helper chunk panicked")
    );
    assert_eq!(
        lead_done.load(Ordering::SeqCst),
        1,
        "the lead was cut short"
    );
}

/// Under a one-thread cap nothing is published: the lead runs first, then
/// every chunk in index order, all on the caller.
fn one_thread_cap_runs_lead_then_chunks_in_order() {
    let caller = thread::current().id();
    let log = Mutex::new(Vec::new());
    with_thread_cap(1, || {
        pool::global().run(
            8,
            THREADS - 1,
            || log.lock().unwrap().push((None, thread::current().id())),
            &|i| log.lock().unwrap().push((Some(i), thread::current().id())),
        )
    });
    let log = log.into_inner().unwrap();
    let order: Vec<Option<usize>> = log.iter().map(|&(step, _)| step).collect();
    let want: Vec<Option<usize>> = std::iter::once(None).chain((0..8).map(Some)).collect();
    assert_eq!(order, want, "lead first, then chunks in index order");
    assert!(log.iter().all(|&(_, t)| t == caller), "all on the caller");
}

#[test]
fn callers_self_schedule_within_their_cap() {
    // Must precede every tensor op: the pool caches this at first use.
    std::env::set_var("ADVCOMP_THREADS", THREADS.to_string());
    assert_eq!(pool::available_threads(), THREADS);
    caller_progresses_while_workers_are_busy();
    thread_cap_bounds_every_scope();
    helper_panics_reach_the_caller();
    lead_runs_beside_helper_chunks();
    unclaimed_chunks_go_to_the_caller();
    every_chunk_runs_once_beside_a_lead();
    lead_panic_waits_for_started_chunks();
    chunk_panic_waits_for_the_lead();
    one_thread_cap_runs_lead_then_chunks_in_order();
}
