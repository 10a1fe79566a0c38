//! `serve_bench` — open-loop saturation sweep for the serving stack;
//! writes `BENCH_serve.json`.
//!
//! The old bench was closed-loop (clients sent request-after-response),
//! which self-throttles: the offered load sinks to whatever the server
//! sustains, every worker count "achieves" the same rps, and saturation
//! is unobservable. This bench fixes the arrival schedule instead
//! (`advcomp_serve::loadgen`): for each worker count it probes capacity,
//! sweeps a ladder of offered rates around it against a **fresh** server
//! per point, and records the goodput-vs-offered curve, the saturation
//! knee (highest offered rate still served at ≥92% goodput), and
//! client + per-stage server percentiles (p50/p99/p999) at the knee.
//!
//! ```text
//! scripts/bench.sh serve [--out FILE] [--workers 1,4,8]
//!                        [--duration-ms 1000] [--connections 8]
//! ```
//!
//! Gates. Knee rps is host-specific, so before writing anything the
//! bench reads the committed `BENCH_serve.json`: when that was measured
//! on this host's core count, the top worker count's knee
//! (`scaling.workers_<top>_knee_rps`) is gated at ≥ 0.6× the committed
//! one. On a host with ≥ 8 cores, a sweep from 1 to ≥ 8 workers gates
//! `scaling.knee_ratio` at ≥ 3; on a smaller host the workers time-slice
//! the same cores and the ratio is physically unreachable. The host's
//! core count is recorded as `cores` either way.
//!
//! Caveat: models here are stub-RNG initialised (`mlp(32, seed)` with
//! the vendored deterministic RNG), so forward-pass cost is realistic
//! but the weights are not trained; the bench measures the serving
//! stack, not model quality.

use advcomp_bench::record::{cores, Flags, Report};
use advcomp_models::mlp;
use advcomp_serve::loadgen::{self, find_knee, LoadPlan, GOODPUT_RATIO};
use advcomp_serve::{Engine, GuardConfig, ModelRegistry, ServeConfig, Server};
use advcomp_wire::json::Json;
use std::time::Duration;

const SAMPLE: usize = 28 * 28;
const MAX_BATCH: usize = 16;
const MAX_DELAY_MS: u64 = 2;
const QUEUE_DEPTH: usize = 256;
/// The committed baseline the knee gate compares against.
const BASELINE: &str = "BENCH_serve.json";

fn start_server(workers: usize) -> (Server, Engine) {
    let mut registry = ModelRegistry::new(&[1, 28, 28]).expect("registry");
    registry
        .set_baseline("dense", mlp(32, 0))
        .expect("baseline");
    registry.add_variant("alt", mlp(32, 1)).expect("variant");
    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers,
            max_batch: MAX_BATCH,
            max_delay: Duration::from_millis(MAX_DELAY_MS),
            queue_depth: QUEUE_DEPTH,
            guard: Some(GuardConfig { threshold: 0.5 }),
        },
    )
    .expect("engine");
    let server = Server::bind(engine.clone(), "127.0.0.1:0").expect("bind");
    (server, engine)
}

struct Point {
    report: loadgen::LoadReport,
    server_metrics: Json,
}

/// One open-loop run against a fresh server, so per-point server-side
/// stage histograms are not polluted by earlier ladder rungs.
fn run_point(workers: usize, offered_rps: f64, duration: Duration, connections: usize) -> Point {
    let (server, engine) = start_server(workers);
    let addr = server.local_addr();
    let plan = LoadPlan {
        connections,
        drain_timeout: Duration::from_secs(5),
        ..LoadPlan::new(offered_rps, duration, vec![0.5; SAMPLE])
    };
    let report = loadgen::run(addr, &plan).expect("load run");
    let server_metrics = engine.metrics_snapshot();
    server.request_shutdown();
    server.join();
    Point {
        report,
        server_metrics,
    }
}

/// Estimates the server's capacity by overload: offer far more than any
/// plausible capacity and read off the achieved goodput, escalating if
/// the server somehow kept up.
fn probe_capacity(workers: usize, duration: Duration, connections: usize) -> f64 {
    let mut offered = 25_000.0;
    for _ in 0..3 {
        let p = run_point(workers, offered, duration, connections);
        let goodput = p.report.goodput_rps();
        if goodput < 0.8 * offered {
            return goodput.max(50.0);
        }
        offered *= 4.0; // kept up: push the ceiling higher
    }
    offered
}

/// Appends one ladder point's records under `prefix`.
fn push_point(report: &mut Report, prefix: &str, r: &loadgen::LoadReport) {
    let q = |quantile| r.latency.quantile_us(quantile) as f64;
    for (key, unit, value) in [
        ("offered_rps", "rps", r.offered_rps),
        ("sent", "count", r.sent as f64),
        ("ok", "count", r.ok as f64),
        ("overloaded", "count", r.overloaded as f64),
        ("rate_limited", "count", r.rate_limited as f64),
        ("failed", "count", r.failed as f64),
        ("lost", "count", r.lost as f64),
        ("goodput_rps", "rps", r.goodput_rps()),
        ("sent_rps", "rps", r.sent_rps()),
        ("client_latency.p50_us", "us", q(0.50)),
        ("client_latency.p99_us", "us", q(0.99)),
        ("client_latency.p999_us", "us", q(0.999)),
        ("client_latency.mean_us", "us", r.latency.mean_us()),
    ] {
        report.push(format!("{prefix}.{key}"), unit, value);
    }
}

/// Appends the knee point's records, server-side per-stage percentiles
/// included, under `prefix`.
fn push_knee(report: &mut Report, prefix: &str, p: &Point) {
    let r = &p.report;
    report.push(format!("{prefix}.offered_rps"), "rps", r.offered_rps);
    report.push(format!("{prefix}.goodput_rps"), "rps", r.goodput_rps());
    report.push(
        format!("{prefix}.client_p99_us"),
        "us",
        r.latency.quantile_us(0.99) as f64,
    );
    for stage in ["queue_wait", "batch_assembly", "forward", "total"] {
        for q in ["p50_us", "p99_us", "p999_us"] {
            let v = p
                .server_metrics
                .get("latency")
                .and_then(|l| l.get(stage))
                .and_then(|h| h.get(q))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            report.push(format!("{prefix}.server_stages.{stage}.{q}"), "us", v);
        }
    }
}

/// One worker count's ladder of points and the index of its knee, if any.
fn sweep_workers(
    workers: usize,
    duration: Duration,
    connections: usize,
    ladder: &[f64],
) -> (Vec<Point>, Option<usize>) {
    let capacity = probe_capacity(
        workers,
        duration.min(Duration::from_millis(300)),
        connections,
    );
    println!("  workers {workers}: capacity probe ~{capacity:.0} rps");
    let mut points = Vec::new();
    for &frac in ladder {
        let offered = (capacity * frac).max(20.0);
        let p = run_point(workers, offered, duration, connections);
        println!(
            "    offered {:>8.0} rps -> goodput {:>8.1} rps  p99 {:>7} us  \
             (ok {} overloaded {} lost {})",
            offered,
            p.report.goodput_rps(),
            p.report.latency.quantile_us(0.99),
            p.report.ok,
            p.report.overloaded,
            p.report.lost
        );
        points.push(p);
    }
    let curve: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.report.offered_rps, p.report.goodput_rps()))
        .collect();
    let knee = find_knee(&curve);
    (points, knee)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(
        std::env::args().skip(1),
        &[
            ("--out", BASELINE),
            ("--workers", "1,4,8"),
            ("--duration-ms", "1000"),
            ("--connections", "8"),
        ],
    )?;
    let duration = Duration::from_millis(flags.num("--duration-ms")?);
    let connections: usize = flags.num("--connections")?;
    let worker_counts = flags
        .get("--workers")
        .split(',')
        .map(str::parse)
        .collect::<Result<Vec<usize>, _>>()
        .map_err(|_| format!("--workers {}: not a list of counts", flags.get("--workers")))?;
    // Read before this run can overwrite it.
    let baseline = Report::read(BASELINE);

    let cores = cores();
    println!(
        "serve_bench: open-loop sweep, workers {worker_counts:?}, \
         {connections} connections, {duration:?}/point, {cores} cores"
    );
    let mut report = Report::new("serve");
    report.note = Some(
        "model mlp:32 + 1 guard variant; open-loop fixed-arrival-rate generator; knee = \
         highest offered rate with goodput >= 92% of offered; stub-RNG untrained weights \
         (serving-stack cost only); knee rps is host-specific"
            .into(),
    );
    report.push("cores", "count", cores as f64);
    for (key, unit, value) in [
        ("connections", "count", connections as f64),
        ("duration_ms", "ms", duration.as_millis() as f64),
        ("goodput_ratio", "fraction", GOODPUT_RATIO),
        ("max_batch", "count", MAX_BATCH as f64),
        ("max_delay_ms", "ms", MAX_DELAY_MS as f64),
        ("queue_depth", "count", QUEUE_DEPTH as f64),
    ] {
        report.push(format!("config.{key}"), unit, value);
    }

    let ladder = [0.4, 0.7, 0.9, 1.2, 1.8];
    let mut knees = Vec::new();
    for &workers in &worker_counts {
        let (points, knee) = sweep_workers(workers, duration, connections, &ladder);
        let prefix = format!("workers_{workers}");
        report.push(format!("{prefix}.workers"), "count", workers as f64);
        for (i, p) in points.iter().enumerate() {
            push_point(&mut report, &format!("{prefix}.points.{i}"), &p.report);
        }
        if let Some(k) = knee {
            push_knee(&mut report, &format!("{prefix}.knee"), &points[k]);
        }
        knees.push((
            workers,
            knee.map_or(0.0, |k| points[k].report.goodput_rps()),
        ));
    }

    // The knee gate compares like with like: the same core count and the
    // top worker count.
    let top = worker_counts.iter().max().copied().unwrap_or(0);
    let committed_knee = match &baseline {
        Ok(base) if base.value("cores") == Some(cores as f64) => {
            base.value(&format!("scaling.workers_{top}_knee_rps"))
        }
        Ok(_) => {
            println!("serve_bench: no knee gate ({BASELINE} has another core count)");
            None
        }
        Err(e) => {
            println!("serve_bench: no knee gate ({e})");
            None
        }
    };
    for (workers, goodput) in knees.iter().copied() {
        let record = report.push(
            format!("scaling.workers_{workers}_knee_rps"),
            "rps",
            goodput,
        );
        if let Some(committed) = committed_knee.filter(|_| workers == top) {
            record.min(0.6 * committed);
        }
    }
    if let (Some(&(first, a)), Some(&(last, b))) = (knees.first(), knees.last()) {
        if a > 0.0 {
            let ratio = report.push("scaling.knee_ratio", "x", b / a);
            if cores >= 8 && first == 1 && last >= 8 {
                ratio.min(3.0);
            }
        }
    }
    report.finish(flags.get("--out"))?;
    Ok(())
}
