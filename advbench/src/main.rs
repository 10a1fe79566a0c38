//! `advbench`: one benchmark for the two paths users of this repository
//! wait on — a predict request to the serving stack and a point of the
//! attack × compression sweep — on the paper's nets.
//!
//! ```text
//! advbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]
//! advbench --agree <A> <B>
//! ```
//!
//! A run sets up its workload from the seed (several times, reporting the
//! median), measures for `--seconds`, checks every output, prints each
//! metric as `name value unit n=<samples>` and, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It also
//! writes `target/advbench/<workload>-<seed>.json`. A run whose outputs
//! fail a check exits 1 without printing metrics. `--trace 1` reports the
//! per-layer metrics instead of the end-to-end ones and writes the spans
//! to `target/advbench/<workload>-<seed>-trace.spans.jsonl`. `--agree` compares
//! two sets of result files against the bounds in `BENCHMARK.json`. See
//! README.md.

mod agree;
mod serve;
mod stats;
mod sweep;
mod trace;

use advcomp_attacks::NetKind;
use advcomp_serve::json::{Json, JsonObj};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{Span, Tracer};

/// Kernel threads the benchmark pins unless `ADVCOMP_THREADS` is set: the
/// measured host has two cores.
const DEFAULT_THREADS: &str = "2";

/// The per-layer metrics every workload reports with `--trace 1`, as
/// listed in `BENCHMARK.json`. Shares (`%`) are of the operation's mean
/// time; a layer off the workload's path reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.task_setup_s", "s"),
    ("core.trainer.train_s", "s"),
    ("attacks.craft_s.pool", "s"),
    ("models.instantiate_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("serve.protocol.parse_pct", "%"),
    ("serve.engine.queue_wait_pct", "%"),
    ("graph.exec.forward_pct.dense", "%"),
    ("graph.exec.forward_pct.q8", "%"),
    ("graph.exec.forward_pct.q4", "%"),
    ("detect.guard_pct", "%"),
    ("serve.engine.reply_pct", "%"),
    ("serve.protocol.encode_pct", "%"),
    ("serve.server.unaccounted_pct", "%"),
    ("serve.engine.batch_size_mean", "count"),
    ("serve.engine.batch_fill", "ratio"),
    ("serve.wire.request_bytes", "bytes"),
    ("serve.engine.overloaded", "count"),
    ("serve.engine.failed", "count"),
    ("serve.engine.worker_panics", "count"),
    ("models.instantiate_pct", "%"),
    ("compress.apply_pct.dns", "%"),
    ("compress.apply_pct.quant", "%"),
    ("nn.evaluate_pct", "%"),
    ("attacks.craft_pct.ifgsm", "%"),
    ("attacks.craft_pct.ifgm", "%"),
    ("attacks.craft_pct.deepfool", "%"),
    ("nn.transfer_eval_pct", "%"),
    ("core.journal.store_pct", "%"),
    ("core.sweep.self_pct", "%"),
    ("core.sweep.attempts_per_point", "count"),
    ("core.sweep.health_events", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeTrickle,
    ServePipelined,
    SweepLenet,
    SweepCifar,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ServeTrickle,
        Workload::ServePipelined,
        Workload::SweepLenet,
        Workload::SweepCifar,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeTrickle => "serve_trickle",
            Workload::ServePipelined => "serve_pipelined",
            Workload::SweepLenet => "sweep_lenet",
            Workload::SweepCifar => "sweep_cifar",
        }
    }

    fn run(self, opts: &Opts, tr: &mut Tracer) -> Result<Report, String> {
        match self {
            Workload::ServeTrickle => serve::run(serve::Traffic::Trickle, opts, tr),
            Workload::ServePipelined => serve::run(serve::Traffic::Pipelined, opts, tr),
            Workload::SweepLenet => sweep::run(NetKind::LeNet5, opts, tr),
            Workload::SweepCifar => sweep::run(NetKind::CifarNet, opts, tr),
        }
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A short run for tests: one set-up and, for sweeps, two recipes.
    pub smoke: bool,
}

impl Opts {
    /// Set-ups per run. Untraced runs report the median of three; a
    /// traced run needs only one to record its layers.
    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }
}

/// One reported number with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        n: impl TryInto<u64>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n: n.try_into().unwrap_or(u64::MAX),
        }
    }
}

/// What a workload measured.
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that got no correct answer (refused, failed, lost).
    pub failed: u64,
    /// Exactly the `BENCHMARK.json` list for the run's mode.
    pub metrics: Vec<Metric>,
    /// Further numbers, printed and saved but not part of the result line.
    pub detail: Vec<Metric>,
}

/// The end-to-end metrics of `BENCHMARK.json`, from the set-up times and
/// the sorted times in ms of the operation a user waits on: a predict
/// request, or a pass over the sweep matrix.
pub fn end_to_end(setup_s: &[f64], sorted_ms: &[f64]) -> Vec<Metric> {
    let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
    vec![
        Metric::new("setup_s", stats::median(setup_s), "s", setup_s.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
        Metric::new(
            "latency_p50_ms",
            stats::nearest_rank(sorted_ms, 0.5),
            "ms",
            sorted_ms.len(),
        ),
    ]
}

/// The highest of p99.9, p99, p90 and p75 with at least ten samples
/// beyond it, if any, as `<prefix>_p<q>_ms`: the tail a workload's sample
/// count supports.
pub fn tail(prefix: &str, sorted_ms: &[f64]) -> Option<Metric> {
    [(0.999, "p999"), (0.99, "p99"), (0.9, "p90"), (0.75, "p75")]
        .into_iter()
        .find(|&(q, _)| stats::percentile_supported(sorted_ms.len(), q))
        .map(|(q, tag)| {
            Metric::new(
                format!("{prefix}_{tag}_ms"),
                stats::nearest_rank(sorted_ms, q),
                "ms",
                sorted_ms.len(),
            )
        })
}

/// Whether `name` is a per-layer metric of `BENCHMARK.json`.
pub fn listed(name: &str) -> bool {
    PER_LAYER.iter().any(|(n, _)| *n == name)
}

/// Metric name for a span name: `suffix` goes after the layer, before a
/// kind (`attacks.craft.ifgsm` → `attacks.craft_pct.ifgsm`).
pub fn metric_name(span: &str, suffix: &str) -> String {
    let parts: Vec<&str> = span.split('.').collect();
    match parts.as_slice() {
        [layer, op, kind] if matches!(*layer, "attacks" | "compress") => {
            format!("{layer}.{op}{suffix}.{kind}")
        }
        _ => format!("{span}{suffix}"),
    }
}

/// Per-layer values being filled in by a traced run.
pub struct Layers(BTreeMap<&'static str, (f64, u64)>);

impl Layers {
    /// Starts with the layers every workload's set-up passes through,
    /// read from the set-up spans (trace 0), and the mean instantiate
    /// time over every span.
    pub fn from_setup(spans: &[Span]) -> Self {
        let mut layers = Layers(BTreeMap::new());
        let total = |name: &str| {
            spans
                .iter()
                .filter(|s| s.trace_id == 0 && s.name == name)
                .fold((0.0, 0u64), |(t, n), s| {
                    (t + s.duration_ns() as f64 / 1e9, n + 1)
                })
        };
        for (span, metric) in [
            ("data.task_setup", "data.task_setup_s"),
            ("core.trainer.train", "core.trainer.train_s"),
            ("attacks.craft.pool", "attacks.craft_s.pool"),
        ] {
            let (s, n) = total(span);
            layers.set(metric, s, n);
        }
        let inst: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "models.instantiate")
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        layers.set(
            "models.instantiate_ms",
            stats::mean(&inst),
            inst.len() as u64,
        );
        layers
    }

    /// Sets a listed metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `PER_LAYER` does not list: a typo would otherwise
    /// report 0.
    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        let key = PER_LAYER
            .iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("{name} is not a listed per-layer metric"))
            .0;
        self.0.insert(key, (value, n));
    }

    /// Every listed metric in `PER_LAYER` order; layers the workload
    /// never called read 0 with no samples.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (v, n) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric::new(name, v, unit, n)
            })
            .collect()
    }
}

/// Set-up steps that no listed metric covers, as total seconds.
pub fn setup_detail(spans: &[Span]) -> Vec<Metric> {
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.trace_id == 0 && s.parent.is_some())
    {
        let e = totals.entry(s.name.as_str()).or_default();
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    totals
        .into_iter()
        .map(|(name, (ns, n))| (metric_name(name, "_s"), ns, n))
        .filter(|(name, _, _)| !listed(name) && name != "models.instantiate_s")
        .map(|(name, ns, n)| Metric::new(name, ns as f64 / 1e9, "s", n))
        .collect()
}

/// FNV-1a 64 continued from `hash` over `bytes`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64: the seeded stream request mixes are drawn from.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

enum Command {
    Run(Workload, Opts),
    Agree(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("--agree") {
        return match args {
            [_, a, b] => Ok(Command::Agree(a.into(), b.into())),
            _ => Err("usage: advbench --agree <A> <B>".into()),
        };
    }
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(workload, opts))
}

fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    JsonObj::new()
        .set("cores", Json::Num(cores as f64))
        .set(
            "advcomp_threads",
            Json::Num(advcomp_tensor::pool::available_threads() as f64),
        )
        .set(
            "kernel",
            Json::Str(advcomp_tensor::simd::backend().name().into()),
        )
        .build()
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> Json {
    let mut obj = JsonObj::new();
    for m in metrics {
        let mut entry = JsonObj::new()
            .set("value", Json::Num(m.value))
            .set("unit", Json::Str(m.unit.into()));
        if with_n {
            entry = entry.set("n", Json::Num(m.n as f64));
        }
        obj = obj.set(&m.name, entry.build());
    }
    obj.build()
}

fn run(workload: Workload, opts: &Opts) -> Result<(), String> {
    let mut tr = Tracer::new(opts.trace);
    let report = workload.run(opts, &mut tr)?;
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    let host = host_json();
    println!(
        "# advbench {} seed {} trace {} host {host}",
        workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    for m in report.metrics.iter().chain(&report.detail) {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.n);
    }

    let dir = Path::new("target").join("advbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-{}{}{}",
        workload.name(),
        opts.seed,
        if opts.trace { "-trace" } else { "" },
        if opts.smoke { "-smoke" } else { "" }
    );
    if opts.trace {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans {}", path.display());
    }
    let saved = JsonObj::new()
        .set("workload", Json::Str(workload.name().into()))
        .set("seed", Json::Num(opts.seed as f64))
        .set("seconds", Json::Num(opts.seconds))
        .set("trace", Json::Bool(opts.trace))
        .set("smoke", Json::Bool(opts.smoke))
        .set("host", host)
        .set("attempted", Json::Num(report.attempted as f64))
        .set("failed", Json::Num(report.failed as f64))
        .set("metrics", metrics_json(&report.metrics, true))
        .set("detail", metrics_json(&report.detail, true))
        .build();
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{saved}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# result {}", path.display());

    let line = JsonObj::new()
        .set("correct", Json::Bool(true))
        .set("attempted", Json::Num(report.attempted as f64))
        .set("failed", Json::Num(report.failed as f64))
        .set("metrics", metrics_json(&report.metrics, false))
        .build();
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    if std::env::var_os("ADVCOMP_THREADS").is_none() {
        std::env::set_var("ADVCOMP_THREADS", DEFAULT_THREADS);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(workload, opts)) => run(workload, &opts),
        Ok(Command::Agree(a, b)) => agree::agree(&a, &b).and_then(|all| {
            if all {
                Ok(())
            } else {
                Err("the two sets do not agree on every metric".into())
            }
        }),
        Err(e) => {
            eprintln!("advbench: {e}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("advbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_put_the_suffix_before_the_kind() {
        assert_eq!(
            metric_name("attacks.craft.ifgsm", "_pct"),
            "attacks.craft_pct.ifgsm"
        );
        assert_eq!(
            metric_name("compress.apply.dns", "_ms"),
            "compress.apply_ms.dns"
        );
        assert_eq!(
            metric_name("nn.transfer_eval", "_pct"),
            "nn.transfer_eval_pct"
        );
        assert_eq!(
            metric_name("graph.exec.compile", "_s"),
            "graph.exec.compile_s"
        );
    }

    #[test]
    fn args_parse_the_documented_flags() {
        let args: Vec<String> = "--workload sweep_lenet --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        match parse_args(&args).unwrap() {
            Command::Run(w, o) => {
                assert_eq!(w, Workload::SweepLenet);
                assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
            }
            Command::Agree(..) => panic!("not an agree"),
        }
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload sweep_lenet --trace 2",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&args).is_err(), "{bad}");
        }
    }

    #[test]
    fn split_mix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(3);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(3);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut r = SplitMix::new(9);
        assert!((0..1000).all(|_| r.below(7) < 7 && (0.0..1.0).contains(&r.unit())));
    }
}
