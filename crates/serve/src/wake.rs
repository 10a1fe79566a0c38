//! Event-loop waker: lets worker threads interrupt a `poll(2)` sleep.
//!
//! The I/O loop parks in [`crate::netpoll::wait`]; when a worker finishes
//! a batch the response must go out immediately, not at the next timeout
//! tick. The waker is a loopback socket pair: the read end sits in the
//! poll set, [`Waker::wake`] writes one byte to the write end, and the
//! loop [`Waker::drain`]s it on wakeup.
//!
//! A TCP loopback pair (not `UnixStream::pair`) keeps this file free of
//! platform gates — std guarantees it everywhere the server runs.
//!
//! The `signalled` flag coalesces bursts: only the wake that flips
//! `false → true` pays for a syscall. `drain` reads until the socket is
//! empty and only **then** clears the flag. A wake that races with the
//! drain either lands before the clear and writes nothing, or lands after
//! it and writes a fresh byte for the next poll round. The first case is
//! safe because every waker queues its message before it wakes and the
//! loop drains its channels after `drain`: the clear is an `AcqRel` swap
//! that synchronises with the wake's `AcqRel` swap, so the message is
//! visible to this round's receive. Clearing before reading would lose
//! wakes: a racing wake's byte is consumed by the same drain, the flag
//! stays set with nothing pending, and every later wake is suppressed
//! until the poll times out.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

#[derive(Debug)]
pub(crate) struct Waker {
    tx: TcpStream,
    rx: TcpStream,
    signalled: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Waker> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx,
            rx,
            signalled: AtomicBool::new(false),
        })
    }

    /// Interrupts the poll loop. Cheap when a wake is already pending;
    /// never blocks (a full socket buffer implies a wake is pending too).
    pub(crate) fn wake(&self) {
        if !self.signalled.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Raw fd of the read end, for the poll set.
    #[cfg(unix)]
    pub(crate) fn poll_fd(&self) -> i32 {
        std::os::unix::io::AsRawFd::as_raw_fd(&self.rx)
    }

    #[cfg(not(unix))]
    pub(crate) fn poll_fd(&self) -> i32 {
        -1
    }

    /// Consumes pending wake bytes; called by the loop after each poll and
    /// before it drains its channels.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.signalled.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn wake_makes_poll_fd_readable_and_drain_clears_it() {
        let w = Waker::new().unwrap();
        let mut entries = [crate::netpoll::PollEntry::new(w.poll_fd(), true, false)];
        assert_eq!(
            crate::netpoll::wait(&mut entries, Duration::from_millis(10)).unwrap(),
            0,
            "no wake yet"
        );
        w.wake();
        w.wake(); // coalesced: still a single pending byte
        entries[0].readable = false;
        assert_eq!(
            crate::netpoll::wait(&mut entries, Duration::from_millis(1000)).unwrap(),
            1
        );
        assert!(entries[0].readable);
        w.drain();
        entries[0].readable = false;
        assert_eq!(
            crate::netpoll::wait(&mut entries, Duration::from_millis(10)).unwrap(),
            0,
            "drained"
        );
    }

    #[test]
    fn wake_after_drain_is_not_lost() {
        let w = Arc::new(Waker::new().unwrap());
        for _ in 0..100 {
            w.wake();
            w.drain();
            w.wake();
            let mut entries = [crate::netpoll::PollEntry::new(w.poll_fd(), true, false)];
            assert_eq!(
                crate::netpoll::wait(&mut entries, Duration::from_millis(1000)).unwrap(),
                1,
                "post-drain wake must be visible"
            );
            w.drain();
        }
    }

    #[test]
    fn wake_storm_never_waits_out_a_poll_timeout() {
        // The event loop's order: poll → drain → receive. Four senders
        // queue a message, then wake, at jittered intervals, so wakes land
        // in every part of the drain (and, on a small host, preempt the
        // loop in the middle of it). A poll that times out although a
        // message was queued before it returned means a wake was lost.
        const SENDERS: usize = 4;
        const WAKES: usize = 50_000;
        const POLL: Duration = Duration::from_millis(100);
        let w = Arc::new(Waker::new().unwrap());
        let (tx, rx) = std::sync::mpsc::channel::<Instant>();
        let senders: Vec<_> = (0..SENDERS as u64)
            .map(|seed| {
                let (w, tx) = (Arc::clone(&w), tx.clone());
                std::thread::spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
                    for _ in 0..WAKES / SENDERS {
                        tx.send(Instant::now()).unwrap();
                        w.wake();
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        for _ in 0..x % 512 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let (mut received, mut stalls) = (0, 0);
        while received < WAKES {
            let mut entries = [crate::netpoll::PollEntry::new(w.poll_fd(), true, false)];
            let ready = crate::netpoll::wait(&mut entries, POLL).unwrap();
            let returned_at = Instant::now();
            w.drain();
            let mut waited_out = false;
            while let Ok(sent_at) = rx.try_recv() {
                received += 1;
                waited_out |= ready == 0 && sent_at < returned_at;
            }
            stalls += usize::from(waited_out);
        }
        for s in senders {
            s.join().unwrap();
        }
        assert_eq!(stalls, 0, "{stalls} polls timed out with a wake pending");
    }

    #[test]
    fn concurrent_wakers_never_block() {
        let w = Arc::new(Waker::new().unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        w.wake();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        w.drain();
    }
}
