//! Process-wide persistent worker pool for data-parallel kernels.
//!
//! The original kernels spawned fresh scoped OS threads on **every**
//! `matmul` call. Training loops and iterative attacks issue thousands of
//! GEMMs per second, so thread creation became a fixed tax on the whole
//! pipeline. This module replaces per-call spawning with a lazily
//! initialised pool that lives for the life of the process:
//!
//! * Workers are started once, on first use, by [`global`].
//! * The pool is sized by the `ADVCOMP_THREADS` environment variable when
//!   set, otherwise by [`std::thread::available_parallelism`]. The value is
//!   read **once** and cached (see [`available_threads`]).
//! * [`WorkerPool::run`] is the one scheduling body. It runs a *lead*
//!   closure on the calling thread while idle workers run numbered
//!   *chunks*, then lets the caller claim the chunks still unclaimed, and
//!   blocks until every chunk has finished, so chunks may borrow the
//!   caller's stack.
//! * [`for_each_chunk`] is `run` with an empty lead: it hands out disjoint
//!   mutable bands of an output buffer — the access pattern of every
//!   kernel in this crate (row bands of a GEMM, batch samples of `im2col`,
//!   element ranges of a large `map`).
//!
//! # Self-scheduled scopes
//!
//! A parallel `run` publishes one *job* on the pool's queue: a claim
//! cursor over its chunk indices plus a number of *helper seats*. The
//! calling thread runs the lead, then claims chunk indices from the cursor
//! itself, while every idle worker that takes a seat claims from the same
//! cursor from the moment the job is published. The caller therefore never
//! sleeps while its own chunks are unclaimed; it waits only for chunks a
//! helper has already started. A worker takes a seat on the first queued
//! job that still has unclaimed chunks and a free seat, and a job leaves
//! the queue once it is exhausted or fully seated. Seats are counted per
//! job and capped at `effective_threads − 1`, so [`with_thread_cap`]`(n)`
//! bounds every scope to `n` threads, the caller included. Chunk boundaries
//! never depend on which thread claims a chunk, so kernel results are
//! bit-identical under any schedule. With no helper seat (a cap of 1, a
//! call from inside a worker, or a caller asking for none, as
//! `for_each_chunk` does for a single chunk) the lead runs first and then
//! every chunk in index order, all on the caller.
//!
//! # Lead plus chunks
//!
//! Kernels pass an empty lead. `advcomp_attacks::craft_all` passes a real
//! one: the sweep's per-point crafting runs the batch attacks (IFGSM,
//! IFGM) as the lead on the calling thread, while DeepFool's independent
//! samples are the chunks that idle workers take. The lead's own kernel
//! scopes publish jobs of their own, so a worker that runs out of samples
//! helps those. A panic in the lead stops the remaining chunks from
//! starting and is re-raised once every started chunk has finished; a
//! panic in a chunk is re-raised after the lead and every chunk.
//!
//! # Composition with experiment-level parallelism
//!
//! `advcomp_core::runner::run_supervised` runs whole experiment pipelines
//! on its own scoped threads, and the serving engine runs one thread per
//! worker. Each such caller computes its own scopes and the shared workers
//! only help, so concurrent callers make progress side by side instead of
//! queueing behind the workers: `w` callers on an `ADVCOMP_THREADS=p` pool
//! run at most `w + p − 1` compute threads, leads included. A scope opened
//! from inside a pool worker (nested data parallelism) runs inline on that
//! worker, which makes nesting deadlock-free.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Panic = Box<dyn std::any::Any + Send + 'static>;

/// Number of worker threads used for data-parallel kernels.
///
/// Respects `ADVCOMP_THREADS` when set (useful to pin benchmarks),
/// otherwise uses the machine's available parallelism. The environment is
/// consulted once per process; the result is cached in a `OnceLock` so hot
/// kernels never re-read or re-parse it.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(s) = std::env::var("ADVCOMP_THREADS") {
            if let Ok(n) = s.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// Set on pool workers, so scopes opened while helping run inline
    /// instead of publishing jobs from inside a job.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Per-thread cap on the parallelism a [`WorkerPool::run`] caller will
    /// use; `usize::MAX` means "whatever the pool has". Tests and ablation
    /// benches use [`with_thread_cap`] to exercise 1/2/8-way splits
    /// deterministically inside one process.
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Runs `f` with kernel parallelism capped at `cap` on this thread.
///
/// The global pool keeps its workers; GEMMs called from `f` split into at
/// most `cap` row bands, and every scope opened from `f` runs on at most
/// `cap` threads, this one included. `cap = 1` forces fully serial
/// kernels.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_CAP.with(|c| c.replace(cap.max(1)));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// One published scope: chunk indices `0..count`, claimed one at a time
/// from `next` by the caller and by the helpers seated on it.
struct Job {
    /// The chunk body with the caller's borrow lifetime erased. It is
    /// called only with an index won from `next`, and the caller does not
    /// return before every won index has finished, so the borrow outlives
    /// every call. A job can stay queued (or held by a seated helper) after
    /// its caller returned; by then `next >= count` (exhausted or
    /// [cancelled](Job::cancel)), so no claim succeeds and this pointer is
    /// never dereferenced again.
    chunk: *const (dyn Fn(usize) + Sync + 'static),
    count: usize,
    next: AtomicUsize,
    progress: Mutex<Progress>,
    done: Condvar,
}

struct Progress {
    finished: usize,
    /// Chunks that will finish: `count`, or after [`Job::cancel`] the
    /// number won before it.
    expected: usize,
    panic: Option<Panic>,
}

// SAFETY: `chunk` points to a `Sync` closure, so calling it from any thread
// through a shared reference is allowed; the claim protocol documented on
// the field keeps the pointee alive for every call. The other fields are
// atomics or behind a mutex.
unsafe impl Send for Job {}
// SAFETY: as for `Send`.
unsafe impl Sync for Job {}

impl Job {
    /// Wins the next unclaimed chunk index. The cursor publishes no data
    /// (the closure's captures are published by the queue mutex, and chunk
    /// results by `progress`), so `Relaxed` suffices: the read-modify-write
    /// alone guarantees each index is won exactly once.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.count).then_some(i)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.count
    }

    /// Claims and runs chunks until none are left, then records how many
    /// this thread finished (and its first panic, if any).
    fn work(&self) {
        let mut ran = 0;
        let mut panic = None;
        while let Some(i) = self.claim() {
            // SAFETY: `i` was just won from the cursor, so the caller is
            // still inside `WorkerPool::run` and the closure is alive (see
            // `Job::chunk`).
            let chunk = unsafe { &*self.chunk };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| chunk(i))) {
                panic.get_or_insert(payload);
            }
            ran += 1;
        }
        if ran == 0 {
            return;
        }
        let mut progress = self.progress.lock().unwrap_or_else(|p| p.into_inner());
        progress.finished += ran;
        if progress.panic.is_none() {
            progress.panic = panic;
        }
        if progress.finished == progress.expected {
            self.done.notify_all();
        }
    }

    /// Stops every later claim: chunks not yet won never run, and
    /// [`wait`](Job::wait) waits only for the ones already won.
    fn cancel(&self) {
        // `Relaxed` as in `claim`: the swap and every claim are
        // read-modify-writes of one atomic, so each claim lands wholly
        // before the swap (and is counted in `won`) or after it (and fails).
        let won = self
            .next
            .swap(self.count, Ordering::Relaxed)
            .min(self.count);
        self.progress
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .expected = won;
    }

    /// Blocks until every won chunk has finished; returns the first panic.
    fn wait(&self) -> Option<Panic> {
        let mut progress = self.progress.lock().unwrap_or_else(|p| p.into_inner());
        while progress.finished < progress.expected {
            progress = self.done.wait(progress).unwrap_or_else(|p| p.into_inner());
        }
        progress.panic.take()
    }
}

/// A queued job and the helper seats it still offers (always at least 1).
struct Seats {
    job: Arc<Job>,
    free: usize,
}

/// State shared by the pool handle and its workers.
struct Queue {
    jobs: Mutex<VecDeque<Seats>>,
    published: Condvar,
}

impl Queue {
    /// Blocks until a queued job has unclaimed chunks and a free seat, and
    /// takes that seat.
    fn take_seat(&self) -> Arc<Job> {
        let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            jobs.retain(|seats| !seats.job.exhausted());
            if let Some(front) = jobs.front_mut() {
                front.free -= 1;
                let job = Arc::clone(&front.job);
                if front.free == 0 {
                    jobs.pop_front();
                }
                return job;
            }
            jobs = self.published.wait(jobs).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The persistent pool: the job queue plus the worker count it was built
/// with. Workers are detached; they live until process exit.
pub struct WorkerPool {
    queue: Arc<Queue>,
    threads: usize,
}

impl WorkerPool {
    fn new(threads: usize) -> Self {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            published: Condvar::new(),
        });
        // One worker fewer than the target parallelism: the thread calling
        // `WorkerPool::run` always computes chunks itself, so `threads`-way
        // splits use exactly `threads` runnable threads.
        for worker in 0..threads.saturating_sub(1) {
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("advcomp-pool-{worker}"))
                .spawn(move || {
                    IN_POOL_WORKER.with(|flag| flag.set(true));
                    loop {
                        queue.take_seat().work();
                    }
                })
                .expect("failed to spawn pool worker");
        }
        WorkerPool { queue, threads }
    }

    /// Parallelism this pool was sized for (callers should split work into
    /// at most [`effective_threads`](Self::effective_threads) bands).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallelism available to the current thread: the pool size clamped
    /// by [`with_thread_cap`], and 1 inside a pool worker (nested scopes
    /// run inline).
    pub fn effective_threads(&self) -> usize {
        if IN_POOL_WORKER.with(|flag| flag.get()) {
            return 1;
        }
        THREAD_CAP.with(|cap| cap.get()).min(self.threads)
    }

    /// Runs `lead` on this thread while up to `helpers` idle workers run
    /// `chunk(i)` for the indices `i` in `0..count` they claim, then claims
    /// the indices still unclaimed on this thread, and returns `lead`'s
    /// result once every chunk has finished.
    ///
    /// `helpers` is capped at [`effective_threads`](Self::effective_threads)
    /// `− 1` and at `count`. With no helper left, nothing is published:
    /// `lead` runs, then every chunk in index order, on this thread, and a
    /// panic propagates at once. Otherwise a panic in a chunk is re-raised
    /// here after `lead` and every chunk have finished, and a panic in
    /// `lead` stops the unclaimed chunks from starting and is re-raised
    /// once every started chunk has finished (chunks may borrow this
    /// thread's stack).
    pub fn run<R>(
        &self,
        count: usize,
        helpers: usize,
        lead: impl FnOnce() -> R,
        chunk: &(dyn Fn(usize) + Sync),
    ) -> R {
        let helpers = helpers.min(self.effective_threads() - 1).min(count);
        if helpers == 0 {
            let led = lead();
            for i in 0..count {
                chunk(i);
            }
            return led;
        }
        // SAFETY: only the lifetime changes (same fat-pointer layout); see
        // `Job::chunk` for why the erased borrow is never used after this
        // function returns.
        let chunk = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(chunk)
        };
        let job = Arc::new(Job {
            chunk,
            count,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress {
                finished: 0,
                expected: count,
                panic: None,
            }),
            done: Condvar::new(),
        });
        self.queue
            .jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back(Seats {
                job: Arc::clone(&job),
                free: helpers,
            });
        for _ in 0..helpers {
            self.queue.published.notify_one();
        }
        let led = catch_unwind(AssertUnwindSafe(lead));
        if led.is_ok() {
            job.work();
        } else {
            job.cancel();
        }
        let chunk_panic = job.wait();
        let led = led.unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = chunk_panic {
            resume_unwind(payload);
        }
        led
    }
}

/// The process-wide pool, started on first use.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(available_threads()))
}

/// `for_each_chunk`'s output buffer, shared with the helpers of one scope.
struct SharedOut<T>(*mut T);

// SAFETY: the helpers only form disjoint `&mut` bands from this pointer
// (one per claimed chunk index) while the caller holds the exclusive
// borrow of the buffer, so sharing the pointer cannot alias; the bands
// move to other threads, hence `T: Send`.
unsafe impl<T: Send> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Splits `out` into contiguous chunks of `chunk_len` elements and runs
/// `f(chunk_index, chunk)` for each, in parallel on the global pool.
///
/// Chunks are disjoint `&mut` bands, so no synchronisation is needed in
/// `f`. Chunk `i` starts at element `i * chunk_len`; every chunk except
/// possibly the last has exactly `chunk_len` elements. This is
/// [`WorkerPool::run`] with an empty lead: the calling thread computes
/// chunks itself and up to `effective_threads() − 1` idle workers help
/// (never more than one fewer than the chunks); if `f` panics on a helper,
/// the panic is re-raised here after every chunk has run.
pub fn for_each_chunk<T: Send, F>(out: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let len = out.len();
    let count = len.div_ceil(chunk_len);
    let out = SharedOut(out.as_mut_ptr());
    global().run(count, count.saturating_sub(1), || {}, &|i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: the pool runs each index in `0..count` at most once, so
        // `start..end` is in bounds and disjoint from every other band, and
        // `out` stays exclusively borrowed until `run` returns, which is
        // after every band has been dropped.
        let chunk = unsafe { std::slice::from_raw_parts_mut(out.ptr().add(start), end - start) };
        f(i, chunk)
    });
}

/// Splits `out` into `bands` roughly equal contiguous bands aligned to
/// `row_len` elements (never splitting a row) and runs
/// `f(first_row, band)` for each in parallel. Used by the GEMM drivers.
pub fn for_each_row_band<F>(out: &mut [f32], row_len: usize, bands: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert!(row_len > 0 && out.len().is_multiple_of(row_len));
    let rows = out.len() / row_len;
    let band_rows = rows.div_ceil(bands.max(1)).max(1);
    for_each_chunk(out, band_rows * row_len, |band, chunk| {
        f(band * band_rows, chunk)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_disjointly() {
        let mut data = vec![0.0f32; 1000];
        for_each_chunk(&mut data, 130, |i, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 130 + j) as f32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn row_bands_align_to_rows() {
        // 7 rows of 3 split into 4 bands: band starts must be row-aligned.
        let mut data = vec![-1.0f32; 21];
        for_each_row_band(&mut data, 3, 4, |first_row, band| {
            assert_eq!(band.len() % 3, 0);
            for (j, v) in band.iter_mut().enumerate() {
                *v = (first_row * 3 + j) as f32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let mut data = vec![0.0f32; 64];
        for_each_chunk(&mut data, 1, |i, _| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0.0f32; 4];
            for_each_chunk(&mut data, 1, |i, _| {
                if i == 2 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "chunk panic must surface to the caller");
        // The pool must remain usable after a panic.
        let mut data = vec![0.0f32; 256];
        for_each_chunk(&mut data, 16, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = 1.0;
            }
        });
        assert!(data.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn thread_cap_forces_serial() {
        with_thread_cap(1, || {
            assert_eq!(global().effective_threads(), 1);
        });
        assert!(global().effective_threads() >= 1);
    }

    #[test]
    fn nested_scopes_run_inline() {
        // A task that itself calls for_each_chunk must not deadlock.
        let mut outer = vec![0.0f32; 64];
        for_each_chunk(&mut outer, 8, |_, chunk| {
            let mut inner = vec![0.0f32; 32];
            for_each_chunk(&mut inner, 4, |_, c| {
                for v in c.iter_mut() {
                    *v = 1.0;
                }
            });
            chunk[0] = inner.iter().sum();
        });
        for band in outer.chunks(8) {
            assert_eq!(band[0], 32.0);
        }
    }

    #[test]
    fn available_threads_is_cached_and_positive() {
        let a = available_threads();
        let b = available_threads();
        assert_eq!(a, b);
        assert!(a >= 1);
    }
}
