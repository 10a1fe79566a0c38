//! The worker side of the lease protocol.
//!
//! A worker owns its own [`PreparedMatrix`] (or a shared `Arc` of the
//! coordinator's, in local-spawn mode), so the coordinator never ships
//! model weights — only point indices. Compute runs on a helper thread
//! while the protocol thread keeps the lease alive with heartbeats; an
//! injected `dist_heartbeat` panic therefore kills the *worker*, not the
//! point — exactly the crash the coordinator's lease expiry is built for.

use super::msg::{CoordMsg, WorkerMsg};
use crate::resilience::RetryPolicy;
use crate::runner::run_supervised;
use crate::sweep::PreparedMatrix;
use crate::{CoreError, Result};
use advcomp_nn::faults;
use advcomp_wire::{read_frame, write_frame};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

/// Worker behaviour knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker identifier (appears in coordinator events).
    pub id: String,
    /// Heartbeat interval while computing a point.
    pub heartbeat_ms: u64,
    /// Local retry budget per leased point (panic isolation included).
    pub retry: RetryPolicy,
    /// Connection attempts before giving up on the coordinator.
    pub connect_attempts: u32,
    /// Delay between connection attempts.
    pub connect_backoff_ms: u64,
    /// Artificial per-point slowdown — lets tests hold a point in-flight
    /// long enough to kill the worker mid-compute deterministically.
    pub slow_ms: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            id: "worker".into(),
            heartbeat_ms: 250,
            retry: RetryPolicy::sweep_default(),
            connect_attempts: 20,
            connect_backoff_ms: 50,
            slow_ms: 0,
        }
    }
}

/// What a worker did before the coordinator sent `done`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Points computed and successfully reported.
    pub completed: usize,
    /// Points reported as failed after the local retry budget.
    pub failed: usize,
    /// Heartbeats sent.
    pub heartbeats_sent: usize,
    /// Heartbeats suppressed by an injected `dist_heartbeat` I/O fault.
    pub heartbeats_skipped: usize,
}

fn exchange(stream: &mut TcpStream, msg: &WorkerMsg) -> Result<CoordMsg> {
    write_frame(stream, msg.to_json().as_bytes())?;
    let payload = read_frame(stream)?
        .ok_or_else(|| CoreError::Job("coordinator closed the connection mid-exchange".into()))?;
    CoordMsg::from_json(&payload)
        .map_err(|e| CoreError::Job(format!("bad coordinator message: {e}")))
}

fn connect(addr: &str, opts: &WorkerOptions) -> Result<TcpStream> {
    let mut last = None;
    for attempt in 0..opts.connect_attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < opts.connect_attempts {
            std::thread::sleep(Duration::from_millis(opts.connect_backoff_ms));
        }
    }
    Err(CoreError::Io(last.expect("at least one attempt")))
}

/// Runs the worker loop against the coordinator at `addr` until it sends
/// `done`.
///
/// # Errors
///
/// Connection failures, protocol violations and handshake rejection
/// (config-hash mismatch). Per-point compute failures are *reported*, not
/// returned — the coordinator owns the failure budget.
///
/// # Panics
///
/// An injected `panic` fault at the `dist_heartbeat` site panics here by
/// design, simulating sudden worker death.
pub fn run_worker(
    addr: &str,
    prepared: &PreparedMatrix,
    opts: &WorkerOptions,
) -> Result<WorkerSummary> {
    let mut stream = connect(addr, opts)?;
    let mut summary = WorkerSummary::default();
    let hello = WorkerMsg::Hello {
        worker: opts.id.clone(),
        config: prepared.config_hash(),
    };
    if let CoordMsg::Reject { reason } = exchange(&mut stream, &hello)? {
        return Err(CoreError::Job(format!(
            "coordinator rejected worker: {reason}"
        )));
    }
    loop {
        match exchange(&mut stream, &WorkerMsg::Request)? {
            CoordMsg::Grant { index, key, .. } => {
                if prepared.keys().get(index).map(String::as_str) != Some(key.as_str()) {
                    return Err(CoreError::Job(format!(
                        "grant for point {index} key '{key}' does not match this \
                         worker's matrix — config drift past the handshake"
                    )));
                }
                let report = compute_with_heartbeats(
                    &mut stream,
                    prepared,
                    index,
                    &key,
                    opts,
                    &mut summary,
                )?;
                match report {
                    Ok(record_json) => {
                        summary.completed += 1;
                        exchange(
                            &mut stream,
                            &WorkerMsg::Result {
                                key,
                                record: record_json,
                            },
                        )?;
                    }
                    Err(error) => {
                        summary.failed += 1;
                        exchange(&mut stream, &WorkerMsg::Failed { key, error })?;
                    }
                }
            }
            CoordMsg::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms.min(1000)));
            }
            CoordMsg::Done => return Ok(summary),
            CoordMsg::Reject { reason } => {
                return Err(CoreError::Job(format!(
                    "coordinator rejected worker: {reason}"
                )));
            }
        }
    }
}

/// Computes one leased point on a helper thread while heartbeating from
/// this one. Returns `Ok(Ok(record_json))` on success, `Ok(Err(msg))` when
/// the point exhausted the local retry budget — protocol errors are the
/// outer `Err`.
fn compute_with_heartbeats(
    stream: &mut TcpStream,
    prepared: &PreparedMatrix,
    index: usize,
    key: &str,
    opts: &WorkerOptions,
    summary: &mut WorkerSummary,
) -> Result<std::result::Result<String, String>> {
    let slot = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let retry = opts.retry;
        let slow_ms = opts.slow_ms;
        s.spawn(move || {
            if slow_ms > 0 {
                std::thread::sleep(Duration::from_millis(slow_ms));
            }
            // `run_supervised` supplies the panic isolation and local
            // retries; a send failure just means the protocol thread died
            // first, in which case the result is moot.
            let mut slots = run_supervised(vec![|| prepared.run_point(index)], 1, &retry);
            let _ = tx.send(slots.pop().expect("one job in, one slot out"));
        });
        loop {
            match rx.recv_timeout(Duration::from_millis(opts.heartbeat_ms.max(1))) {
                Ok(slot) => return Ok(slot),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("supervised compute always sends exactly once")
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    match faults::fire("dist_heartbeat") {
                        Some(faults::FaultKind::Panic) => {
                            panic!("injected fault: panic at site 'dist_heartbeat'")
                        }
                        Some(_) => {
                            // Injected I/O (or other) fault: the heartbeat
                            // is silently dropped; enough of these and the
                            // coordinator expires the lease — the
                            // slow-network failure mode.
                            summary.heartbeats_skipped += 1;
                            continue;
                        }
                        None => {}
                    }
                    let ack = exchange(
                        stream,
                        &WorkerMsg::Heartbeat {
                            key: key.to_string(),
                        },
                    )?;
                    summary.heartbeats_sent += 1;
                    if let CoordMsg::Reject { reason } = ack {
                        return Err(CoreError::Job(format!(
                            "coordinator rejected heartbeat: {reason}"
                        )));
                    }
                }
            }
        }
    })?;
    Ok(match slot {
        Ok((outcome, attempts)) => Ok(prepared.record_ok(index, outcome, attempts).to_json()),
        Err(failure) => Err(failure.error),
    })
}
