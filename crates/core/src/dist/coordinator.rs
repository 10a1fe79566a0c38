//! The coordinator side of the lease protocol.
//!
//! One thread per worker connection (I/O + protocol), one main loop
//! (accept, lease expiry, solo fallback, termination), one mutex around
//! the sweep state. Per-point work takes seconds to minutes, so lock
//! granularity is nowhere near the bottleneck — correctness of the lease
//! ledger is what matters.

use super::msg::{CoordMsg, WorkerMsg};
use super::{DistOutcome, DistReport, DistRunConfig};
use crate::journal::{EventLog, EventRecord, Journal, PointRecord};
use crate::runner::run_supervised;
use crate::sweep::{PointFailure, PreparedMatrix};
use crate::{CoreError, Result};
use advcomp_nn::faults;
use advcomp_wire::{write_frame, FrameBuffer};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One outstanding lease on a sweep point.
#[derive(Debug)]
struct Lease {
    worker: String,
    granted: Instant,
    deadline: Instant,
}

/// Mutable sweep state, shared between the main loop and connection
/// handler threads.
struct CoordState {
    slots: Vec<Option<PointRecord>>,
    /// Total grants per point (a second grant is a re-dispatch).
    grants: Vec<u32>,
    /// Reported failures per point (feeds the failure budget).
    failures: Vec<u32>,
    /// Earliest next dispatch per point (failure backoff).
    eligible_at: Vec<Instant>,
    leases: Vec<Vec<Lease>>,
    connected: usize,
    last_worker_seen: Instant,
    report: DistReport,
    /// Points executed (completed or permanently failed) by this
    /// coordinator process — [`MatrixRun::computed`](crate::sweep::MatrixRun).
    computed_run: usize,
    failed: Vec<PointFailure>,
    health: Vec<String>,
    journal: Journal,
    events: EventLog,
    done: bool,
}

impl CoordState {
    fn event(&mut self, kind: &str, key: &str, detail: &str) {
        // Event-log appends are best-effort observability; losing one must
        // not fail the sweep. Note it and move on.
        if let Err(e) = self.events.append(kind, key, detail) {
            self.health
                .push(format!("dist: event log append failed: {e}"));
        }
    }

    fn release_worker_lease(&mut self, index: usize, worker: &str) {
        self.leases[index].retain(|l| l.worker != worker);
    }

    fn pending(&self) -> bool {
        self.slots.iter().any(Option::is_none)
    }
}

/// Everything a connection handler needs.
struct Shared {
    state: Mutex<CoordState>,
    prepared: Arc<PreparedMatrix>,
    cfg: DistRunConfig,
    key_index: HashMap<String, usize>,
}

/// Read-only probe into a running coordinator — lets tests (and the kill
/// harness) wait for observable protocol states without sleeping blind.
#[derive(Clone)]
pub struct DistHandle {
    shared: Arc<Shared>,
}

impl DistHandle {
    /// Snapshot of the current report counters.
    pub fn report(&self) -> DistReport {
        self.shared
            .state
            .lock()
            .expect("coordinator state lock")
            .report
            .clone()
    }

    /// Whether the sweep has completed.
    pub fn done(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("coordinator state lock")
            .done
    }
}

/// A bound, not-yet-running sweep coordinator.
pub struct Coordinator {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Binds the listener and restores state: journal-completed points are
    /// loaded as resumed, the event log is replayed to restore report
    /// counters (tolerating a torn final line from a coordinator crash).
    ///
    /// # Errors
    ///
    /// Bind, journal and event-log errors.
    pub fn bind(
        listen: &str,
        prepared: Arc<PreparedMatrix>,
        cfg: &DistRunConfig,
    ) -> Result<Coordinator> {
        let journal = Journal::open(&cfg.run_dir)?;
        let (events, past, warnings) = EventLog::open(&cfg.run_dir)?;
        let n = prepared.num_points();
        let mut report = DistReport {
            points: n,
            resume_warnings: warnings.len(),
            ..DistReport::default()
        };
        restore_counters(&mut report, &past);
        let mut health = prepared.baseline_health();
        for w in &warnings {
            health.push(format!("dist: {w}"));
        }

        let mut slots: Vec<Option<PointRecord>> = (0..n).map(|_| None).collect();
        let mut resumed = 0usize;
        for (i, key) in prepared.keys().iter().enumerate() {
            if let Some(rec) = journal.load(key)? {
                if prepared.resumable(&rec) {
                    slots[i] = Some(rec);
                    resumed += 1;
                }
            }
        }
        report.resumed = resumed;

        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let now = Instant::now();
        let key_index = prepared
            .keys()
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i))
            .collect();
        let state = CoordState {
            slots,
            grants: vec![0; n],
            failures: vec![0; n],
            eligible_at: vec![now; n],
            leases: (0..n).map(|_| Vec::new()).collect(),
            connected: 0,
            last_worker_seen: now,
            report,
            computed_run: 0,
            failed: Vec::new(),
            health,
            journal,
            events,
            done: false,
        };
        Ok(Coordinator {
            listener,
            addr,
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                prepared,
                cfg: cfg.clone(),
                key_index,
            }),
        })
    }

    /// The bound listen address (for `127.0.0.1:0`-style ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A probe handle for tests and harnesses.
    pub fn handle(&self) -> DistHandle {
        DistHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the sweep to completion: serves workers, expires leases,
    /// degrades to solo compute when every worker is gone, then writes
    /// `dist_report.json` and assembles the final [`DistOutcome`].
    ///
    /// # Errors
    ///
    /// Listener errors and report-write failures. Worker-side failures
    /// never error here.
    pub fn run(self) -> Result<DistOutcome> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            self.accept_waiting(&mut handlers)?;
            self.expire_leases();
            if !self
                .shared
                .state
                .lock()
                .expect("coordinator state lock")
                .pending()
            {
                break;
            }
            self.maybe_solo_step();
            std::thread::sleep(Duration::from_millis(10));
        }
        {
            let mut st = self.shared.state.lock().expect("coordinator state lock");
            st.done = true;
            st.event("done", "", "");
        }
        // Wind-down: keep accepting so a worker that connected in the final
        // instants is told `done` instead of hanging on an unanswered
        // hello; handlers drain as each worker gets its `done` (or drops).
        loop {
            self.accept_waiting(&mut handlers)?;
            handlers.retain(|h| !h.is_finished());
            if handlers.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        let mut st = self.shared.state.lock().expect("coordinator state lock");
        let report = st.report.clone();
        crate::report::write_json(&report, &self.shared.cfg.run_dir.join("dist_report.json"))?;
        let slots = std::mem::take(&mut st.slots);
        let failed = std::mem::take(&mut st.failed);
        let health = std::mem::take(&mut st.health);
        let run =
            self.shared
                .prepared
                .assemble(slots, report.resumed, st.computed_run, failed, health);
        Ok(DistOutcome { run, report })
    }

    /// Accepts every waiting connection, spawning one handler thread each.
    fn accept_waiting(&self, handlers: &mut Vec<std::thread::JoinHandle<()>>) -> Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || handle_conn(stream, &shared)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(CoreError::Io(e)),
            }
        }
    }

    /// Expires leases whose deadline passed without a heartbeat.
    fn expire_leases(&self) {
        let mut st = self.shared.state.lock().expect("coordinator state lock");
        let now = Instant::now();
        for i in 0..st.slots.len() {
            if st.slots[i].is_some() {
                continue;
            }
            let expired: Vec<String> = {
                let leases = &mut st.leases[i];
                let dead: Vec<String> = leases
                    .iter()
                    .filter(|l| l.deadline <= now)
                    .map(|l| l.worker.clone())
                    .collect();
                leases.retain(|l| l.deadline > now);
                dead
            };
            for worker in expired {
                st.report.leases_expired += 1;
                let key = self.shared.prepared.keys()[i].clone();
                st.event("lease_expired", &key, &worker);
            }
        }
    }

    /// Degrades to computing one pending point inline when no workers are
    /// connected (and none has been seen for the grace window).
    fn maybe_solo_step(&self) {
        let pick = {
            let mut st = self.shared.state.lock().expect("coordinator state lock");
            if st.connected > 0
                || st.last_worker_seen.elapsed()
                    < Duration::from_millis(self.shared.cfg.dist.solo_grace_ms)
            {
                return;
            }
            let now = Instant::now();
            let pick = (0..st.slots.len()).find(|&i| {
                st.slots[i].is_none() && st.leases[i].is_empty() && st.eligible_at[i] <= now
            });
            if let Some(i) = pick {
                // A synthetic lease keeps a late-arriving worker from being
                // granted the same point while we compute it (duplicates
                // would still resolve correctly — this just avoids waste).
                st.leases[i].push(Lease {
                    worker: "solo".into(),
                    granted: now,
                    deadline: now + Duration::from_secs(3600),
                });
            }
            pick
        };
        let Some(i) = pick else { return };
        let prepared = &self.shared.prepared;
        let mut slots = run_supervised(vec![|| prepared.run_point(i)], 1, &self.shared.cfg.retry);
        let outcome = slots.pop().expect("one job in, one slot out");

        let mut st = self.shared.state.lock().expect("coordinator state lock");
        st.release_worker_lease(i, "solo");
        if st.slots[i].is_some() {
            // A worker connected mid-compute and beat us to it.
            st.report.duplicates += 1;
            let key = prepared.keys()[i].clone();
            st.event("duplicate", &key, "solo");
            return;
        }
        let key = prepared.keys()[i].clone();
        match outcome {
            Ok((out, attempts)) => {
                let rec = prepared.record_ok(i, out, attempts);
                store_degraded(&mut st, &rec);
                st.slots[i] = Some(rec);
                st.computed_run += 1;
                st.report.computed_solo += 1;
                st.event("completed_solo", &key, "");
            }
            Err(f) => note_failure(&mut st, &self.shared, i, f.error),
        }
    }
}

/// Maps replayed event kinds back onto report counters so a restarted
/// coordinator's report stays cumulative for the whole sweep.
fn restore_counters(report: &mut DistReport, past: &[EventRecord]) {
    for e in past {
        match e.kind.as_str() {
            "worker_joined" => report.workers_joined += 1,
            "worker_lost" => report.workers_lost += 1,
            "lease_granted" => report.leases_granted += 1,
            "lease_expired" => report.leases_expired += 1,
            "redispatch" => report.redispatches += 1,
            "speculative" => report.speculative += 1,
            "duplicate" => report.duplicates += 1,
            "divergent" => report.divergent += 1,
            "grant_error" => report.grant_errors += 1,
            "result_write_error" => report.result_write_errors += 1,
            "point_failed" => report.reported_failures += 1,
            "permanent_failure" => report.permanent_failures += 1,
            "completed" => report.computed_remote += 1,
            "completed_solo" => report.computed_solo += 1,
            _ => {}
        }
    }
}

/// Journal-store with the same degradation contract as
/// [`TransferMatrix::run_resilient`](crate::sweep::TransferMatrix::run_resilient):
/// a persist failure must not discard a computed point.
fn store_degraded(st: &mut CoordState, rec: &PointRecord) {
    if let Err(e) = st.journal.store(rec) {
        st.health.push(format!(
            "journal: failed to persist point x={} ({}): {e}",
            rec.x, rec.compression
        ));
    }
}

/// Registers a reported failure for point `i`: backoff for re-dispatch, or
/// a permanent journalled failure once the budget is spent.
fn note_failure(st: &mut CoordState, shared: &Shared, i: usize, error: String) {
    st.failures[i] += 1;
    st.report.reported_failures += 1;
    let key = shared.prepared.keys()[i].clone();
    st.event("point_failed", &key, &error);
    let failures = st.failures[i];
    if failures >= shared.cfg.dist.failure_budget.max(1) {
        let rec = shared.prepared.record_failed(i, error.clone(), failures);
        store_degraded(st, &rec);
        st.slots[i] = Some(rec);
        let (x, compression) = shared.prepared.coordinate(i);
        st.failed.push(PointFailure {
            x,
            compression,
            error,
            attempts: failures,
        });
        st.computed_run += 1;
        st.report.permanent_failures += 1;
        st.event("permanent_failure", &key, "");
    } else {
        let backoff = shared
            .cfg
            .dist
            .backoff_ms
            .saturating_mul(1 << (failures - 1).min(16));
        st.eligible_at[i] = Instant::now() + Duration::from_millis(backoff);
    }
}

/// Picks the next grant for `worker`: lowest-index fresh point first, then
/// a speculative copy of the longest-running straggler, else wait/done.
fn select_grant(st: &mut CoordState, shared: &Shared, worker: &str) -> CoordMsg {
    let now = Instant::now();
    let dist = &shared.cfg.dist;
    let n = st.slots.len();

    let fresh = (0..n).find(|&i| {
        st.slots[i].is_none()
            && st.leases[i].is_empty()
            && st.failures[i] < dist.failure_budget.max(1)
            && st.eligible_at[i] <= now
    });
    let index = match fresh {
        Some(i) => {
            if st.grants[i] > 0 {
                st.report.redispatches += 1;
                let key = shared.prepared.keys()[i].clone();
                st.event("redispatch", &key, worker);
            }
            Some(i)
        }
        None => {
            // Straggler speculation: re-dispatch the oldest in-flight point
            // this worker doesn't already hold, within the speculation cap.
            let straggler = (0..n)
                .filter(|&i| {
                    st.slots[i].is_none()
                        && !st.leases[i].is_empty()
                        && st.leases[i].len() < 1 + dist.max_speculation
                        && st.leases[i].iter().all(|l| l.worker != worker)
                })
                .filter_map(|i| {
                    let oldest = st.leases[i].iter().map(|l| l.granted).min()?;
                    (now.duration_since(oldest) >= Duration::from_millis(dist.straggler_ms))
                        .then_some((oldest, i))
                })
                .min()
                .map(|(_, i)| i);
            if let Some(i) = straggler {
                st.report.speculative += 1;
                let key = shared.prepared.keys()[i].clone();
                st.event("speculative", &key, worker);
            }
            straggler
        }
    };
    match index {
        Some(i) => {
            st.leases[i].push(Lease {
                worker: worker.to_string(),
                granted: now,
                deadline: now + Duration::from_millis(dist.lease_ms),
            });
            st.grants[i] += 1;
            st.report.leases_granted += 1;
            let key = shared.prepared.keys()[i].clone();
            st.event("lease_granted", &key, worker);
            CoordMsg::Grant {
                index: i,
                key,
                deadline_ms: dist.lease_ms,
            }
        }
        None if st.pending() => CoordMsg::Wait {
            ms: dist.heartbeat_ms,
        },
        None => CoordMsg::Done,
    }
}

/// Handles a completed-point report. Returns the reply.
fn accept_result(
    st: &mut CoordState,
    shared: &Shared,
    worker: &str,
    key: &str,
    record: &str,
) -> CoordMsg {
    let Some(&i) = shared.key_index.get(key) else {
        return CoordMsg::Reject {
            reason: format!("result for unknown point key '{key}'"),
        };
    };
    // The journalled-result fault site: an injected persist failure must
    // cost only this delivery — the lease is released so the point
    // re-dispatches, and the worker carries on.
    if let Some(e) = faults::io_error("dist_result_write") {
        st.report.result_write_errors += 1;
        st.release_worker_lease(i, worker);
        st.event("result_write_error", key, &e.to_string());
        return CoordMsg::Wait { ms: 0 };
    }
    st.release_worker_lease(i, worker);
    if let Some(existing) = st.slots[i].as_ref().map(PointRecord::to_json) {
        // Lost a race (lease expiry, speculation): first write won. The
        // duplicate must be bit-identical — divergence means the
        // determinism contract broke somewhere.
        st.report.duplicates += 1;
        st.event("duplicate", key, worker);
        if existing != record {
            st.report.divergent += 1;
            st.health.push(format!(
                "dist: divergent duplicate for point key {key} from {worker}"
            ));
            st.event("divergent", key, worker);
        }
        return CoordMsg::Wait { ms: 0 };
    }
    let rec = match PointRecord::from_json(record) {
        Ok(rec) if rec.key == key && shared.prepared.resumable(&rec) => rec,
        Ok(_) => {
            note_failure(
                st,
                shared,
                i,
                format!("worker {worker} sent a mismatched record"),
            );
            return CoordMsg::Wait { ms: 0 };
        }
        Err(e) => {
            note_failure(
                st,
                shared,
                i,
                format!("worker {worker} sent an unparseable record: {e}"),
            );
            return CoordMsg::Wait { ms: 0 };
        }
    };
    store_degraded(st, &rec);
    st.slots[i] = Some(rec);
    st.leases[i].clear();
    st.computed_run += 1;
    st.report.computed_remote += 1;
    st.event("completed", key, worker);
    CoordMsg::Wait { ms: 0 }
}

/// Per-connection protocol loop: drains frames via a [`FrameBuffer`]
/// (timeout-safe), answers each message, and settles the worker's leases on
/// disconnect.
fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut fb = FrameBuffer::new();
    let mut worker: Option<String> = None;
    let mut done_since: Option<Instant> = None;
    loop {
        loop {
            let payload = match fb.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => return disconnect(shared, worker.as_deref()),
            };
            let Ok(msg) = WorkerMsg::from_json(payload) else {
                return disconnect(shared, worker.as_deref());
            };
            let (reply, close) = process(shared, &mut worker, msg);
            if write_frame(&mut stream, reply.to_json().as_bytes()).is_err() {
                return disconnect(shared, worker.as_deref());
            }
            if close {
                // Clean end (done/reject): the worker is not "lost".
                if worker.is_some() {
                    let mut st = shared.state.lock().expect("coordinator state lock");
                    st.connected = st.connected.saturating_sub(1);
                }
                return;
            }
        }
        // Helloed workers are served until their `done` (their next request
        // answers it); a connection that still hasn't helloed a while after
        // the sweep finished is dead weight — drop it so wind-down ends.
        if worker.is_none() && shared.state.lock().expect("coordinator state lock").done {
            let since = *done_since.get_or_insert_with(Instant::now);
            if since.elapsed() > Duration::from_secs(2) {
                return;
            }
        }
        match fb.read_from(&mut stream, 4096) {
            Ok(0) => return disconnect(shared, worker.as_deref()),
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return disconnect(shared, worker.as_deref()),
        }
    }
}

/// Settles state for a dropped connection: every lease the worker held is
/// released so its points re-dispatch immediately.
fn disconnect(shared: &Shared, worker: Option<&str>) {
    let Some(worker) = worker else { return };
    let mut st = shared.state.lock().expect("coordinator state lock");
    st.connected = st.connected.saturating_sub(1);
    if st.done {
        return;
    }
    st.report.workers_lost += 1;
    for i in 0..st.slots.len() {
        st.release_worker_lease(i, worker);
    }
    st.event("worker_lost", "", worker);
}

/// Dispatches one worker message; returns the reply and whether the
/// connection should close after sending it.
fn process(shared: &Shared, worker: &mut Option<String>, msg: WorkerMsg) -> (CoordMsg, bool) {
    let mut st = shared.state.lock().expect("coordinator state lock");
    st.last_worker_seen = Instant::now();
    match msg {
        WorkerMsg::Hello { worker: id, config } => {
            if config != shared.prepared.config_hash() {
                return (
                    CoordMsg::Reject {
                        reason: format!(
                            "config hash mismatch: coordinator {}, worker {config} — \
                             different matrix, scale or seed",
                            shared.prepared.config_hash()
                        ),
                    },
                    true,
                );
            }
            st.connected += 1;
            st.report.workers_joined += 1;
            st.event("worker_joined", "", &id);
            *worker = Some(id);
            (CoordMsg::Wait { ms: 0 }, false)
        }
        _ if worker.is_none() => (
            CoordMsg::Reject {
                reason: "protocol violation: first message must be hello".into(),
            },
            true,
        ),
        WorkerMsg::Request => {
            // The lease-grant fault site: an injected failure here must
            // cost one request, not the worker or the sweep.
            if let Some(e) = faults::io_error("dist_lease_grant") {
                st.report.grant_errors += 1;
                st.event("grant_error", "", &e.to_string());
                return (
                    CoordMsg::Wait {
                        ms: shared.cfg.dist.heartbeat_ms,
                    },
                    false,
                );
            }
            let w = worker.clone().expect("checked above");
            let reply = select_grant(&mut st, shared, &w);
            let close = matches!(reply, CoordMsg::Done);
            (reply, close)
        }
        WorkerMsg::Heartbeat { key } => {
            let w = worker.as_deref().expect("checked above");
            if let Some(&i) = shared.key_index.get(&key) {
                let deadline = Instant::now() + Duration::from_millis(shared.cfg.dist.lease_ms);
                for l in st.leases[i].iter_mut().filter(|l| l.worker == w) {
                    l.deadline = deadline;
                }
            }
            (CoordMsg::Wait { ms: 0 }, false)
        }
        WorkerMsg::Result { key, record } => {
            let w = worker.clone().expect("checked above");
            let reply = accept_result(&mut st, shared, &w, &key, &record);
            let close = matches!(reply, CoordMsg::Reject { .. });
            (reply, close)
        }
        WorkerMsg::Failed { key, error } => {
            let w = worker.clone().expect("checked above");
            if let Some(&i) = shared.key_index.get(&key) {
                st.release_worker_lease(i, &w);
                if st.slots[i].is_none() {
                    note_failure(&mut st, shared, i, error);
                }
            }
            (CoordMsg::Wait { ms: 0 }, false)
        }
    }
}
