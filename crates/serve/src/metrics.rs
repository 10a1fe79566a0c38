//! Serving metrics: lock-free counters and histograms.
//!
//! All recorders are plain atomics so the hot path (workers + connection
//! threads) never takes a lock to record. Latency histograms use
//! power-of-two microsecond buckets — bucket `i` counts samples in
//! `[2^i, 2^(i+1))` µs (bucket 0 also absorbs sub-µs samples) — which
//! gives ~30 buckets covering 1 µs to >15 min with bounded error for
//! quantile estimates. Snapshots are consistent-enough reads (each value
//! individually atomic) serialised to JSON for scraping and for
//! `BENCH_serve.json`.

use crate::json::{Json, JsonObj};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const LAT_BUCKETS: usize = 30;
const BATCH_BUCKETS: usize = 64;

/// Histogram of durations in power-of-two microsecond buckets.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LAT_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let idx = (63 - us.max(1).leading_zeros() as usize).min(LAT_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) in microseconds, taken as the
    /// upper edge of the bucket containing the q-th sample. 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bucket edge, capped by the true observed max.
                return (1u64 << (i + 1)).min(self.max_us.load(Ordering::Relaxed).max(1));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Largest recorded sample in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    fn to_json(&self) -> Json {
        JsonObj::new()
            .set("count", Json::Num(self.count() as f64))
            .set("mean_us", Json::Num(self.mean_us()))
            .set("p50_us", Json::Num(self.quantile_us(0.50) as f64))
            .set("p99_us", Json::Num(self.quantile_us(0.99) as f64))
            .set("p999_us", Json::Num(self.quantile_us(0.999) as f64))
            .set("max_us", Json::Num(self.max_us() as f64))
            .build()
    }
}

/// Distribution of executed batch sizes (bucket per exact size, capped).
#[derive(Debug)]
pub struct BatchSizeDistribution {
    // counts[s] = number of batches of size s+1; the last bucket absorbs
    // every size >= BATCH_BUCKETS.
    counts: [AtomicU64; BATCH_BUCKETS],
    batches: AtomicU64,
    jobs: AtomicU64,
    max: AtomicU64,
}

impl Default for BatchSizeDistribution {
    fn default() -> Self {
        BatchSizeDistribution {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            batches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl BatchSizeDistribution {
    /// Records one executed batch of `size` requests.
    pub fn record(&self, size: usize) {
        if size == 0 {
            return;
        }
        let idx = (size - 1).min(BATCH_BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.jobs.fetch_add(size as u64, Ordering::Relaxed);
        self.max.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Number of batches executed.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Largest batch observed.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean batch size (0 when empty).
    pub fn mean(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            0.0
        } else {
            self.jobs.load(Ordering::Relaxed) as f64 / b as f64
        }
    }

    fn to_json(&self) -> Json {
        let sizes = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| Json::Arr(vec![Json::Num((i + 1) as f64), Json::Num(n as f64)]))
            })
            .collect();
        JsonObj::new()
            .set("batches", Json::Num(self.batches() as f64))
            .set("mean", Json::Num(self.mean()))
            .set("max", Json::Num(self.max() as f64))
            .set("sizes", Json::Arr(sizes))
            .build()
    }
}

/// Per-model gauges for the compiled forward plan: set each time a worker
/// installs its clone of the plan (the clones are identical, so
/// last-writer-wins is fine). Both gauges stay 0 until a worker has
/// installed the model's plan.
#[derive(Debug, Default)]
pub struct PlanGauge {
    /// Time the graph compiler spent building the plan, in microseconds.
    pub compile_us: AtomicU64,
    /// Peak bytes of the plan-owned activation arena + quantisation
    /// scratch after `reserve_batch(max_batch)`.
    pub arena_peak_bytes: AtomicU64,
}

/// How the guard is deployed: which detector scores requests and at what
/// threshold (set once at engine start, exported in the snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct GuardDeployment {
    /// Detector name (e.g. `"disagreement"`).
    pub detector: String,
    /// Decision threshold in effect.
    pub threshold: f64,
    /// `true` when the threshold came from a calibration artifact rather
    /// than manual configuration.
    pub calibrated: bool,
}

/// All metrics for one serving engine, shared via `Arc`.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests accepted into the queue.
    pub accepted: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests rejected with `overloaded` (queue full).
    pub overloaded: AtomicU64,
    /// Requests rejected with `rate_limited` (per-client token bucket
    /// empty) — deliberate admission control, distinct from overload.
    pub rate_limited: AtomicU64,
    /// Requests that failed (bad input, forward error, worker lost).
    pub failed: AtomicU64,
    /// Time from enqueue until the worker closed the batch holding the
    /// job, so it includes that batch's assembly time.
    pub queue_wait: LatencyHistogram,
    /// Per batch, the time a worker spent coalescing it: from its first
    /// pop to batch close.
    pub batch_assembly: LatencyHistogram,
    /// Forward-pass time (baseline + guard variants) per batch.
    pub forward: LatencyHistogram,
    /// Per-model forward time: one histogram per registry model (baseline
    /// first, then guard variants in registry order), recorded per batch.
    /// This is what makes the packed-vs-dense variant cost observable —
    /// a packed Q8 variant's histogram should sit well below the dense
    /// baseline's. Empty under `Default`; populated by
    /// [`ServeMetrics::with_model_names`].
    pub per_model_forward: Vec<(String, LatencyHistogram)>,
    /// Per-model compiled-plan gauges (same order and population rule as
    /// [`ServeMetrics::per_model_forward`]).
    pub per_model_plan: Vec<(String, PlanGauge)>,
    /// End-to-end time from enqueue to reply.
    pub total: LatencyHistogram,
    /// Distribution of executed batch sizes.
    pub batch_sizes: BatchSizeDistribution,
    /// Requests scored by the compression-ensemble guard.
    pub guard_scored: AtomicU64,
    /// Requests the guard flagged as suspect.
    pub guard_flagged: AtomicU64,
    /// Sum over scored requests of the disagreeing-variant count.
    pub guard_disagreements: AtomicU64,
    /// Number of guard variants per request (for rate normalisation).
    pub guard_variants: AtomicU64,
    /// Per-variant disagreement counters `(name, count)` in registry
    /// variant order: how often each variant's top-1 label disagreed with
    /// the baseline's. This is what localises a guard signal to the
    /// variant producing it (a quantised member may disagree far more
    /// than a pruned one). Empty under `Default`; populated by
    /// [`ServeMetrics::with_model_names`].
    pub per_variant_disagreements: Vec<(String, AtomicU64)>,
    /// Guard outcomes for evaluation traffic tagged with an attack id:
    /// `attack -> (scored, flagged)`. Only tagged requests take this lock
    /// — the untagged production path stays lock-free.
    attack_outcomes: Mutex<BTreeMap<String, (u64, u64)>>,
    /// Guard deployment info for the snapshot (set at engine start).
    guard_deployment: Mutex<Option<GuardDeployment>>,
    /// Successful model hot swaps (mirrored from the registry at snapshot
    /// time via [`ServeMetrics::set_swaps`]).
    pub swaps: AtomicU64,
    /// Worker batches lost to a panic (caught; jobs answered WorkerLost).
    pub worker_panics: AtomicU64,
    /// Connections accepted by the server.
    pub conns_opened: AtomicU64,
    /// Connections closed (either side, any reason).
    pub conns_closed: AtomicU64,
    /// Connections that ended in a transport error (reset, short read
    /// mid-frame, I/O failure) rather than a clean close.
    pub conn_resets: AtomicU64,
    /// Protocol violations observed (oversized frame header, malformed
    /// JSON payload).
    pub bad_frames: AtomicU64,
    /// Connections refused at accept time (connection limit).
    pub rejected_conns: AtomicU64,
}

impl ServeMetrics {
    /// Metrics with one per-model forward histogram per registry model
    /// (baseline first, then variants — the `ModelRegistry::names` order).
    pub fn with_model_names<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        ServeMetrics {
            per_model_forward: names
                .iter()
                .map(|n| (n.clone(), LatencyHistogram::default()))
                .collect(),
            // Variants are every model after the baseline.
            per_variant_disagreements: names
                .iter()
                .skip(1)
                .map(|n| (n.clone(), AtomicU64::new(0)))
                .collect(),
            per_model_plan: names
                .into_iter()
                .map(|n| (n, PlanGauge::default()))
                .collect(),
            ..ServeMetrics::default()
        }
    }

    /// Counts one top-1 disagreement for variant `index` (registry variant
    /// order; out-of-range indices are ignored).
    pub fn record_variant_disagreement(&self, index: usize) {
        if let Some((_, c)) = self.per_variant_disagreements.get(index) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the guard's verdict for one request tagged with `attack`
    /// (evaluation traffic only).
    pub fn record_attack_outcome(&self, attack: &str, flagged: bool) {
        let mut map = self
            .attack_outcomes
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let entry = map.entry(attack.to_string()).or_insert((0, 0));
        entry.0 += 1;
        if flagged {
            entry.1 += 1;
        }
    }

    /// Per-attack guard outcomes as `(attack, scored, flagged)` rows.
    pub fn attack_outcomes(&self) -> Vec<(String, u64, u64)> {
        self.attack_outcomes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, &(s, f))| (k.clone(), s, f))
            .collect()
    }

    /// Publishes how the guard is deployed (detector + threshold) so the
    /// snapshot can report calibrated verdicts as such.
    pub fn set_guard_deployment(&self, d: GuardDeployment) {
        *self
            .guard_deployment
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(d);
    }

    /// The published guard deployment, if any.
    pub fn guard_deployment(&self) -> Option<GuardDeployment> {
        self.guard_deployment
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Records one model's compiled-plan gauges. `index` follows the
    /// registry order; out-of-range indices are ignored.
    pub fn set_model_plan(&self, index: usize, compile_us: u64, arena_peak_bytes: u64) {
        if let Some((_, g)) = self.per_model_plan.get(index) {
            g.compile_us.store(compile_us, Ordering::Relaxed);
            g.arena_peak_bytes
                .store(arena_peak_bytes, Ordering::Relaxed);
        }
    }

    /// Records one model's share of a batch forward pass. `index` follows
    /// the registry order used in [`ServeMetrics::with_model_names`];
    /// out-of-range indices are ignored (metrics must never panic a
    /// worker).
    pub fn record_model_forward(&self, index: usize, d: Duration) {
        if let Some((_, h)) = self.per_model_forward.get(index) {
            h.record(d);
        }
    }

    /// Mirrors the registry's swap counter into the snapshot.
    pub fn set_swaps(&self, v: u64) {
        self.swaps.store(v, Ordering::Relaxed);
    }

    /// Fraction of scored requests the guard flagged (0 when unscored).
    pub fn flag_rate(&self) -> f64 {
        let n = self.guard_scored.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.guard_flagged.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Mean fraction of variants disagreeing with the baseline per scored
    /// request (0 when unscored).
    pub fn disagreement_rate(&self) -> f64 {
        let slots = self.guard_variants.load(Ordering::Relaxed);
        if slots == 0 {
            0.0
        } else {
            self.guard_disagreements.load(Ordering::Relaxed) as f64 / slots as f64
        }
    }

    /// Requests per second over `elapsed` (completed requests only).
    pub fn throughput(&self, elapsed: Duration) -> f64 {
        let s = elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.completed.load(Ordering::Relaxed) as f64 / s
        }
    }

    /// One consistent-enough JSON snapshot of every metric.
    pub fn snapshot(&self, elapsed: Duration) -> Json {
        JsonObj::new()
            .set(
                "requests",
                JsonObj::new()
                    .set(
                        "accepted",
                        Json::Num(self.accepted.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "completed",
                        Json::Num(self.completed.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "overloaded",
                        Json::Num(self.overloaded.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "rate_limited",
                        Json::Num(self.rate_limited.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "failed",
                        Json::Num(self.failed.load(Ordering::Relaxed) as f64),
                    )
                    .build(),
            )
            .set(
                "latency",
                JsonObj::new()
                    .set("queue_wait", self.queue_wait.to_json())
                    .set("batch_assembly", self.batch_assembly.to_json())
                    .set("forward", self.forward.to_json())
                    .set("forward_per_model", {
                        let mut obj = JsonObj::new();
                        for (name, h) in &self.per_model_forward {
                            obj = obj.set(name, h.to_json());
                        }
                        obj.build()
                    })
                    .set("total", self.total.to_json())
                    .build(),
            )
            .set("plan", {
                let mut obj = JsonObj::new();
                for (name, g) in &self.per_model_plan {
                    obj = obj.set(
                        name,
                        JsonObj::new()
                            .set(
                                "compiled",
                                Json::Bool(g.compile_us.load(Ordering::Relaxed) > 0),
                            )
                            .set(
                                "compile_us",
                                Json::Num(g.compile_us.load(Ordering::Relaxed) as f64),
                            )
                            .set(
                                "arena_peak_bytes",
                                Json::Num(g.arena_peak_bytes.load(Ordering::Relaxed) as f64),
                            )
                            .build(),
                    );
                }
                obj.build()
            })
            .set("batch", self.batch_sizes.to_json())
            .set("guard", {
                let mut guard = JsonObj::new()
                    .set(
                        "scored",
                        Json::Num(self.guard_scored.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "flagged",
                        Json::Num(self.guard_flagged.load(Ordering::Relaxed) as f64),
                    )
                    .set("flag_rate", Json::Num(self.flag_rate()))
                    .set("disagreement_rate", Json::Num(self.disagreement_rate()));
                if let Some(d) = self.guard_deployment() {
                    guard = guard
                        .set("detector", Json::Str(d.detector))
                        .set("threshold", Json::Num(d.threshold))
                        .set("calibrated", Json::Bool(d.calibrated));
                }
                let mut per_variant = JsonObj::new();
                for (name, c) in &self.per_variant_disagreements {
                    per_variant =
                        per_variant.set(name, Json::Num(c.load(Ordering::Relaxed) as f64));
                }
                guard = guard.set("per_variant_disagreements", per_variant.build());
                let mut attacks = JsonObj::new();
                for (name, scored, flagged) in self.attack_outcomes() {
                    let rate = if scored == 0 {
                        0.0
                    } else {
                        flagged as f64 / scored as f64
                    };
                    attacks = attacks.set(
                        &name,
                        JsonObj::new()
                            .set("scored", Json::Num(scored as f64))
                            .set("flagged", Json::Num(flagged as f64))
                            .set("detection_rate", Json::Num(rate))
                            .build(),
                    );
                }
                guard.set("attacks", attacks.build()).build()
            })
            .set(
                "engine",
                JsonObj::new()
                    .set(
                        "swaps",
                        Json::Num(self.swaps.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "worker_panics",
                        Json::Num(self.worker_panics.load(Ordering::Relaxed) as f64),
                    )
                    .build(),
            )
            .set(
                "conns",
                JsonObj::new()
                    .set(
                        "opened",
                        Json::Num(self.conns_opened.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "closed",
                        Json::Num(self.conns_closed.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "resets",
                        Json::Num(self.conn_resets.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "bad_frames",
                        Json::Num(self.bad_frames.load(Ordering::Relaxed) as f64),
                    )
                    .set(
                        "rejected",
                        Json::Num(self.rejected_conns.load(Ordering::Relaxed) as f64),
                    )
                    .build(),
            )
            .set("elapsed_s", Json::Num(elapsed.as_secs_f64()))
            .set("throughput_rps", Json::Num(self.throughput(elapsed)))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [1u64, 2, 4, 100, 1000, 1000, 1000, 8000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_us(), 8000);
        // The rank-4 sample of 8 is the 100µs one (bucket [64, 128) ->
        // upper edge 128); allow through the adjacent 1000µs bucket.
        let p50 = h.quantile_us(0.5);
        assert!((128..=1024).contains(&p50), "p50 = {p50}");
        // p99 is the max sample's bucket, capped at the observed max.
        let p99 = h.quantile_us(0.99);
        assert!((4096..=8000).contains(&p99), "p99 = {p99}");
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1)); // sub-µs -> bucket 0
        h.record(Duration::from_secs(3600)); // beyond last bucket -> clamped
        assert_eq!(h.count(), 2);
        assert!(h.quantile_us(1.0) >= h.quantile_us(0.0));
    }

    #[test]
    fn batch_distribution_tracks_mean_and_max() {
        let d = BatchSizeDistribution::default();
        d.record(0); // ignored
        d.record(1);
        d.record(4);
        d.record(4);
        d.record(500); // clamps into the overflow bucket but max is exact
        assert_eq!(d.batches(), 4);
        assert_eq!(d.max(), 500);
        assert!((d.mean() - 509.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn per_model_forward_histograms_appear_in_snapshot() {
        let m = ServeMetrics::with_model_names(["dense", "q8_packed"]);
        assert_eq!(m.per_model_forward.len(), 2);
        m.record_model_forward(0, Duration::from_micros(800));
        m.record_model_forward(1, Duration::from_micros(200));
        m.record_model_forward(1, Duration::from_micros(300));
        m.record_model_forward(7, Duration::from_micros(999)); // out of range: ignored
        assert_eq!(m.per_model_forward[0].1.count(), 1);
        assert_eq!(m.per_model_forward[1].1.count(), 2);
        let snap = m.snapshot(Duration::from_secs(1));
        let parsed = Json::parse(snap.to_string().as_bytes()).unwrap();
        let per_model = parsed
            .get("latency")
            .and_then(|l| l.get("forward_per_model"))
            .expect("forward_per_model section");
        assert_eq!(
            per_model.get("dense").and_then(|h| h.get("count")),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            per_model.get("q8_packed").and_then(|h| h.get("count")),
            Some(&Json::Num(2.0))
        );
        // Default-built metrics expose an empty (but present) section.
        let empty = ServeMetrics::default().snapshot(Duration::from_secs(1));
        let parsed = Json::parse(empty.to_string().as_bytes()).unwrap();
        assert!(parsed
            .get("latency")
            .and_then(|l| l.get("forward_per_model"))
            .is_some());
    }

    #[test]
    fn snapshot_is_valid_json() {
        let m = ServeMetrics::default();
        m.accepted.fetch_add(3, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        m.total.record(Duration::from_millis(5));
        m.batch_sizes.record(2);
        m.guard_scored.fetch_add(2, Ordering::Relaxed);
        m.guard_flagged.fetch_add(1, Ordering::Relaxed);
        m.guard_variants.fetch_add(4, Ordering::Relaxed);
        m.guard_disagreements.fetch_add(3, Ordering::Relaxed);
        let snap = m.snapshot(Duration::from_secs(2));
        let text = snap.to_string();
        let parsed = Json::parse(text.as_bytes()).unwrap();
        assert_eq!(
            parsed.get("requests").and_then(|r| r.get("accepted")),
            Some(&Json::Num(3.0))
        );
        assert_eq!(
            parsed.get("throughput_rps"),
            Some(&Json::Num(1.0)),
            "2 completed / 2s"
        );
        assert_eq!(
            parsed.get("guard").and_then(|g| g.get("flag_rate")),
            Some(&Json::Num(0.5))
        );
    }
}
