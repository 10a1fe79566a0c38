//! The engine's one bounded batch queue.
//!
//! Every worker pops from the same FIFO: one `Mutex<VecDeque>` plus one
//! `Condvar`. Both waits in [`BatchQueue::pop_batch`] — for the first
//! item and for the batch to fill — release the lock, so any number of
//! workers can assemble batches at once and producers never queue behind
//! an assembling worker.
//!
//! Design rules, chosen so the concurrency test suite can assert real
//! properties instead of schedules:
//!
//! * **Message passing only.** Items are moved, never shared: an item
//!   sits in the deque until exactly one worker pops it. There is no path
//!   that clones or re-enqueues an item, so requests cannot be
//!   duplicated; every popped item is either processed or dropped with
//!   its completion guard (which reports the failure), so requests cannot
//!   be silently lost.
//! * **Bounded.** `push` fails with the item handed back once the queue
//!   holds `capacity` items — the caller surfaces explicit backpressure.
//! * **No idle polling.** A worker with nothing to do blocks on the
//!   condvar without a timeout; only a push or `close` wakes it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a push was refused; the item is handed back to the caller.
pub(crate) enum PushError<T> {
    /// The queue holds `capacity` items.
    Full(T),
    /// The queue was closed; no new work is accepted.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    open: bool,
}

/// A bounded FIFO that workers pop in batches.
pub(crate) struct BatchQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    capacity: usize,
}

impl<T> BatchQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        BatchQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Appends `item`, or hands it back when the queue is full or closed.
    pub(crate) fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.lock();
        if !s.open {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.cv.notify_one();
        Ok(())
    }

    /// Pops a batch of up to `max` items.
    ///
    /// Blocks, with no timeout, until an item arrives or the queue
    /// closes. Takes every available item up to `max` under one lock,
    /// then waits with the lock released until the batch holds `max`
    /// items or `max_delay` has passed since the first pop. Returns the
    /// batch with its assembly time, from the first pop to batch close,
    /// or `None` only when the queue is closed and empty — workers drain
    /// all queued work before exiting.
    pub(crate) fn pop_batch(&self, max: usize, max_delay: Duration) -> Option<(Vec<T>, Duration)> {
        let mut s = self.lock();
        while s.items.is_empty() {
            if !s.open {
                return None;
            }
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        let first = Instant::now();
        let deadline = first + max_delay;
        let mut batch = Vec::with_capacity(max.min(s.items.len()));
        loop {
            let take = s.items.len().min(max - batch.len());
            batch.extend(s.items.drain(..take));
            let left = deadline.saturating_duration_since(Instant::now());
            if batch.len() >= max || left.is_zero() || !s.open {
                break;
            }
            s = self
                .cv
                .wait_timeout(s, left)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        Some((batch, first.elapsed()))
    }

    /// Closes the queue: subsequent pushes fail with `Closed`, every
    /// parked worker wakes, and `pop_batch` returns `None` once the queue
    /// has drained.
    pub(crate) fn close(&self) {
        self.lock().open = false;
        self.cv.notify_all();
    }

    /// Items currently queued.
    pub(crate) fn len(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn push(q: &BatchQueue<u64>, v: u64) {
        assert!(q.push(v).is_ok(), "push {v} refused");
    }

    #[test]
    fn pops_in_fifo_order() {
        let q = BatchQueue::new(16);
        for i in 0..10 {
            push(&q, i);
        }
        let (a, _) = q.pop_batch(4, Duration::ZERO).unwrap();
        let (b, _) = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn exactly_capacity_pushes_succeed_then_full() {
        let q = BatchQueue::new(5);
        for i in 0..5 {
            push(&q, i);
        }
        match q.push(99) {
            Err(PushError::Full(item)) => assert_eq!(item, 99),
            _ => panic!("expected Full with the item handed back"),
        }
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q = BatchQueue::new(8);
        push(&q, 1);
        push(&q, 2);
        q.close();
        assert!(matches!(q.push(3), Err(PushError::Closed(3))));
        // Both queued items are still handed out, then None.
        let (batch, _) = q.pop_batch(1, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![1]);
        let (batch, _) = q.pop_batch(8, Duration::from_millis(1)).unwrap();
        assert_eq!(batch, vec![2]);
        assert!(q.pop_batch(8, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn assembly_time_runs_from_first_pop_to_batch_close() {
        let q = BatchQueue::new(8);
        let delay = Duration::from_millis(5);
        push(&q, 1);
        push(&q, 2);
        // A batch full on its first pop closes at once; a lone item waits
        // out the coalescing deadline.
        assert!(q.pop_batch(1, delay).unwrap().1 < delay);
        assert!(q.pop_batch(8, delay).unwrap().1 >= delay);
    }

    #[test]
    fn blocked_pop_returns_once_an_item_is_pushed() {
        let q = Arc::new(BatchQueue::new(4));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(1, Duration::ZERO))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!worker.is_finished(), "pop returned on an empty queue");
        push(&q, 7);
        let (batch, _) = worker.join().unwrap().expect("open queue yields a batch");
        assert_eq!(batch, vec![7]);
    }

    #[test]
    fn concurrent_producers_and_consumers_pop_every_item_once() {
        let q = Arc::new(BatchQueue::new(64));
        let total: u64 = 2000;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..total / 4 {
                        let mut v = p * (total / 4) + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
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
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some((batch, _)) = q.pop_batch(16, Duration::from_micros(200)) {
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
