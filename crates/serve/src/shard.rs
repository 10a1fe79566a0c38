//! Sharded bounded queues with work stealing.
//!
//! The engine's single `sync_channel` was the scaling ceiling: every
//! worker contended on one mutex-wrapped receiver, so adding workers
//! added contention, not throughput. This module replaces it with one
//! bounded FIFO **shard** per worker. Producers place work round-robin
//! (spilling to the next shard when one is full), each worker drains its
//! own shard, and an idle worker **steals** a chunk from the most loaded
//! shard so a stalled or slow worker never strands queued requests.
//!
//! Design rules, chosen so the concurrency test suite can assert real
//! properties instead of schedules:
//!
//! * **Message passing only.** Items are moved, never shared: an item
//!   sits in exactly one shard deque until exactly one worker pops it.
//!   There is no path that clones or re-enqueues an item, so requests
//!   cannot be duplicated; every popped item is either processed or
//!   dropped with its completion guard (which reports the failure), so
//!   requests cannot be silently lost.
//! * **Bounded everywhere.** `push` fails with the item handed back when
//!   all shards are at `depth` — the caller surfaces explicit
//!   backpressure. Stealing moves items between a victim's deque and a
//!   thief's batch without ever growing a queue past its bound.
//! * **No global condvar.** Each shard has its own mutex + condvar;
//!   workers use short timed waits and scan for steals on timeout, so a
//!   wakeup never requires knowing which worker is parked where.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused; the item is handed back to the caller.
pub(crate) enum PushError<T> {
    /// Every candidate shard is at capacity.
    Full(T),
    /// The queue was closed; no new work is accepted.
    Closed(T),
}

struct Shard<T> {
    q: Mutex<VecDeque<T>>,
    cv: Condvar,
}

/// A set of bounded FIFO shards, one per worker, with steal support.
pub(crate) struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    depth: usize,
    next: AtomicUsize,
    open: AtomicBool,
    /// Total items moved by steals (for metrics).
    pub(crate) stolen: AtomicU64,
}

impl<T> ShardedQueue<T> {
    pub(crate) fn new(shards: usize, depth: usize) -> Self {
        assert!(shards > 0 && depth > 0);
        ShardedQueue {
            shards: (0..shards)
                .map(|_| Shard {
                    q: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            depth,
            next: AtomicUsize::new(0),
            open: AtomicBool::new(true),
            stolen: AtomicU64::new(0),
        }
    }

    fn lock(&self, i: usize) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.shards[i].q.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Places `item` on the next round-robin shard, probing every shard
    /// once before reporting `Full`. A single hot shard therefore spills
    /// to its neighbours instead of shedding while capacity exists.
    pub(crate) fn push(&self, item: T) -> Result<usize, PushError<T>> {
        if !self.open.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        let n = self.shards.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let mut item = item;
        for probe in 0..n {
            let i = (start + probe) % n;
            match self.try_push_at(i, item) {
                Ok(()) => return Ok(i),
                Err(back) => item = back,
            }
        }
        Err(PushError::Full(item))
    }

    /// Places `item` on exactly `shard` (no spill). Used for keyed
    /// affinity and by tests that need a deterministic target.
    pub(crate) fn push_to(&self, shard: usize, item: T) -> Result<(), PushError<T>> {
        if !self.open.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        let i = shard % self.shards.len();
        self.try_push_at(i, item).map_err(PushError::Full)
    }

    fn try_push_at(&self, i: usize, item: T) -> Result<(), T> {
        let mut q = self.lock(i);
        if q.len() >= self.depth {
            return Err(item);
        }
        q.push_back(item);
        drop(q);
        self.shards[i].cv.notify_one();
        Ok(())
    }

    /// Pops up to `max` items for worker `w`, preferring its own shard.
    ///
    /// Blocks until at least one item is available (waiting on the own
    /// shard's condvar in `steal_poll` slices, scanning other shards for
    /// steals on each timeout), then coalesces from the own shard until
    /// `max` items or `max_delay` after the first item. Returns the batch
    /// with its assembly time, from the first pop to batch close, or
    /// `None` only when the queue is closed and every shard is empty —
    /// workers drain all queued work before exiting.
    pub(crate) fn pop_batch(
        &self,
        w: usize,
        max: usize,
        max_delay: Duration,
        steal_poll: Duration,
    ) -> Option<(Vec<T>, Duration)> {
        let mut batch = self.first_items(w, max, steal_poll)?;
        let first = Instant::now();
        if batch.len() >= max {
            return Some((batch, first.elapsed()));
        }
        // Coalesce: drain the own shard until the deadline or `max`.
        let deadline = first + max_delay;
        loop {
            let mut q = self.lock(w);
            while batch.len() < max {
                match q.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if batch.len() >= max {
                return Some((batch, first.elapsed()));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.open.load(Ordering::Acquire) {
                return Some((batch, first.elapsed()));
            }
            let (qq, _timeout) = self.shards[w]
                .cv
                .wait_timeout(q, left.min(steal_poll))
                .unwrap_or_else(|p| p.into_inner());
            drop(qq);
        }
    }

    /// Blocks until worker `w` has at least one item (own shard first,
    /// then steals), or the queue is closed and fully drained.
    fn first_items(&self, w: usize, max: usize, steal_poll: Duration) -> Option<Vec<T>> {
        loop {
            {
                let mut q = self.lock(w);
                if let Some(item) = q.pop_front() {
                    return Some(vec![item]);
                }
                if self.open.load(Ordering::Acquire) {
                    let (mut q, _timeout) = self.shards[w]
                        .cv
                        .wait_timeout(q, steal_poll)
                        .unwrap_or_else(|p| p.into_inner());
                    if let Some(item) = q.pop_front() {
                        return Some(vec![item]);
                    }
                }
            }
            // Own shard empty after a wait slice: scan for a steal.
            let stolen = self.steal_batch(w, max);
            if !stolen.is_empty() {
                return Some(stolen);
            }
            if !self.open.load(Ordering::Acquire) {
                // Closed: one more sweep over every shard (including our
                // own) before declaring the queue drained.
                for i in 0..self.shards.len() {
                    let mut q = self.lock(i);
                    if let Some(item) = q.pop_front() {
                        return Some(vec![item]);
                    }
                }
                return None;
            }
        }
    }

    /// Steals up to `max` items from the front of the most loaded shard
    /// other than `w`. FIFO order within the victim is preserved for the
    /// stolen chunk; items never transit through a third queue.
    fn steal_batch(&self, w: usize, max: usize) -> Vec<T> {
        let n = self.shards.len();
        if n <= 1 {
            return Vec::new();
        }
        // Pick the deepest victim without holding two locks at once.
        let mut victim = None;
        let mut deepest = 0usize;
        for i in 0..n {
            if i == w {
                continue;
            }
            let len = self.lock(i).len();
            if len > deepest {
                deepest = len;
                victim = Some(i);
            }
        }
        let Some(v) = victim else {
            return Vec::new();
        };
        let mut q = self.lock(v);
        let take = q.len().min(max);
        let stolen: Vec<T> = q.drain(..take).collect();
        drop(q);
        if !stolen.is_empty() {
            self.stolen
                .fetch_add(stolen.len() as u64, Ordering::Relaxed);
        }
        stolen
    }

    /// Closes the queue: subsequent pushes fail with `Closed`, parked
    /// workers wake, and `pop_batch` returns `None` once every shard has
    /// drained.
    pub(crate) fn close(&self) {
        self.open.store(false, Ordering::Release);
        for s in &self.shards {
            s.cv.notify_all();
        }
    }

    /// Current depth of each shard (diagnostics / tests).
    pub(crate) fn depths(&self) -> Vec<usize> {
        (0..self.shards.len()).map(|i| self.lock(i).len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_spills_to_free_shards_then_reports_full() {
        let q = ShardedQueue::new(2, 2);
        for i in 0..4 {
            assert!(q.push(i).is_ok());
        }
        match q.push(99) {
            Err(PushError::Full(item)) => assert_eq!(item, 99),
            _ => panic!("expected Full with the item handed back"),
        }
        assert_eq!(q.depths(), vec![2, 2]);
    }

    #[test]
    fn push_to_pins_without_spill() {
        let q = ShardedQueue::new(4, 1);
        q.push_to(2, 7).map_err(|_| ()).unwrap();
        match q.push_to(2, 8) {
            Err(PushError::Full(8)) => {}
            _ => panic!("pinned push must not spill"),
        }
        assert_eq!(q.depths(), vec![0, 0, 1, 0]);
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q = ShardedQueue::new(2, 8);
        q.push(1).map_err(|_| ()).unwrap();
        q.push(2).map_err(|_| ()).unwrap();
        q.close();
        assert!(matches!(q.push(3), Err(PushError::Closed(3))));
        // Both queued items are still handed out, then None.
        let mut seen = Vec::new();
        while let Some((batch, _)) =
            q.pop_batch(0, 8, Duration::from_millis(1), Duration::from_millis(1))
        {
            seen.extend(batch);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn assembly_time_runs_from_first_pop_to_batch_close() {
        let q = ShardedQueue::new(1, 8);
        let delay = Duration::from_millis(5);
        q.push(1).map_err(|_| ()).unwrap();
        q.push(2).map_err(|_| ()).unwrap();
        // A batch full on its first pop closes at once; a lone item waits
        // out the coalescing deadline.
        assert!(q.pop_batch(0, 1, delay, delay).unwrap().1 < delay);
        assert!(q.pop_batch(0, 8, delay, delay).unwrap().1 >= delay);
    }

    #[test]
    fn idle_worker_steals_from_loaded_shard() {
        let q = Arc::new(ShardedQueue::new(2, 64));
        for i in 0..10 {
            q.push_to(0, i).map_err(|_| ()).unwrap();
        }
        // Worker 1's own shard is empty; it must steal from shard 0.
        let (batch, _) = q
            .pop_batch(1, 4, Duration::from_millis(1), Duration::from_millis(1))
            .expect("steal yields a batch");
        assert!(!batch.is_empty());
        assert_eq!(batch[0], 0, "steals take the victim's FIFO front");
        assert!(q.stolen.load(Ordering::Relaxed) >= batch.len() as u64);
    }

    #[test]
    fn concurrent_producers_and_stealing_workers_lose_nothing() {
        let q = Arc::new(ShardedQueue::new(4, 1024));
        let total: u64 = 2000;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..total / 4 {
                        let mut v = p * (total / 4) + i;
                        loop {
                            match q.push(v) {
                                Ok(_) => break,
                                Err(PushError::Full(back)) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some((batch, _)) =
                        q.pop_batch(w, 16, Duration::from_micros(200), Duration::from_millis(1))
                    {
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = Vec::new();
        for w in workers {
            all.extend(w.join().unwrap());
        }
        all.sort_unstable();
        // Exactly once each: no drops, no duplicates.
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }
}
