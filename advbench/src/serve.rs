//! The predict-request path: a LeNet-5 baseline served with q8 and q4
//! frozen variants under the disagreement guard, driven over one TCP
//! connection by a writer and a reader thread.
//!
//! Every response is checked against labels computed at set-up by a
//! batch-1 `ExecPlan` forward of each model, and its guard score against
//! the disagreement fraction of its own variant labels.

use crate::stats::{self, nearest_rank};
use crate::trace::Tracer;
use crate::{fnv1a, Layers, Metric, Opts, Report, SplitMix};
use advcomp_attacks::{AttackKind, NetKind, PaperParams};
use advcomp_compress::Quantizer;
use advcomp_core::{ExperimentScale, TaskSetup, TrainedModel};
use advcomp_graph::ExecPlan;
use advcomp_serve::json::Json;
use advcomp_serve::protocol::{ok_response, read_frame, write_frame, Request};
use advcomp_serve::{
    Engine, GuardConfig, ModelRegistry, Prediction, ServeConfig, ServeMetrics, Server,
};
use advcomp_tensor::Tensor;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Open loop: a fixed arrival rate, each request timed from when it
    /// was due.
    Trickle,
    /// Closed loop: a fixed number of requests in flight, each timed from
    /// its send.
    Pipelined,
}

/// Open-loop arrival rate.
const RATE_RPS: f64 = 200.0;
/// Closed-loop requests in flight.
const IN_FLIGHT: usize = 64;
/// Closed-loop requests sent before measuring, so plans, arenas and
/// socket buffers are warm.
const WARMUP: usize = 256;
const MAX_BATCH: usize = 16;
/// Share of clean test images in the request mix; the rest are
/// IFGSM-crafted.
const CLEAN_SHARE: f64 = 0.8;
/// Inputs whose top-2 logit margin is below this in any model are left
/// out of the pool: batched plan forwards are not bit-identical per row,
/// so such a label could flip with batch composition.
const MIN_MARGIN: f32 = 1e-3;
/// Compressed variants behind the guard: (name, bitwidth).
const VARIANTS: [(&str, u32); 2] = [("q8", 8), ("q4", 4)];
const INPUT_SHAPE: [usize; 3] = [1, 28, 28];
/// A response (or a send) slower than this counts as lost.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// An open-loop run whose generator ran later than this at p99 measured
/// its own lateness, not the server's.
const MAX_LAG_P99_MS: f64 = 1.0;

/// One distinct request: its framed bytes and the answer it must get.
struct Entry {
    id: String,
    frame: Vec<u8>,
    label: usize,
    variants: [usize; 2],
}

/// A running server plus the requests it will be sent.
struct Served {
    pool: Vec<Entry>,
    clean: Vec<u32>,
    adv: Vec<u32>,
    server: Server,
    engine: Engine,
    fingerprint: u64,
}

/// Trains the baseline, freezes the variants, crafts and labels the
/// request pool and starts the engine and server.
fn set_up(seed: u64, tr: &mut Tracer) -> Result<Served, String> {
    let scale = ExperimentScale {
        lenet5_width: 1.0,
        ..ExperimentScale::tiny()
    };
    let root = tr.open(0, None, "setup");
    let p = Some(root);
    let task = tr.within(0, p, "data.task_setup", || {
        TaskSetup::new(NetKind::LeNet5, &scale)
    });
    let base = tr
        .within(0, p, "core.trainer.train", || {
            TrainedModel::train(&task, &scale, seed)
        })
        .map_err(|e| format!("training: {e}"))?;
    let mut models = Vec::new();
    for _ in 0..=VARIANTS.len() {
        models.push(
            tr.within(0, p, "models.instantiate", || base.instantiate())
                .map_err(|e| e.to_string())?,
        );
    }
    tr.within(0, p, "compress.freeze", || {
        for (model, (_, bits)) in models[1..].iter_mut().zip(VARIANTS) {
            Quantizer::for_bitwidth(bits)
                .and_then(|q| q.quantize_frozen(model))
                .map_err(|e| format!("freezing q{bits}: {e}"))?;
        }
        Ok::<_, String>(())
    })?;

    let (x, y) = task
        .test
        .slice(0, task.test.len())
        .map_err(|e| e.to_string())?;
    let mut attacked = tr
        .within(0, p, "models.instantiate", || base.instantiate())
        .map_err(|e| e.to_string())?;
    let adv = tr
        .within(0, p, "attacks.craft.pool", || {
            PaperParams::build_adapted(NetKind::LeNet5, AttackKind::Ifgsm).generate(
                &mut attacked,
                &x,
                &y,
            )
        })
        .map_err(|e| format!("crafting the pool: {e}"))?;

    let mut plans = tr
        .within(0, p, "graph.exec.compile", || {
            models
                .iter()
                .map(|m| ExecPlan::compile(m, &INPUT_SHAPE))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("compiling: {e}"))?;
    let sample_len: usize = INPUT_SHAPE.iter().product();
    let n = y.len();
    let mut pool = Vec::with_capacity(2 * n);
    let (mut clean, mut adv_idx) = (Vec::new(), Vec::new());
    tr.within(0, p, "graph.exec.label_pool", || {
        for (k, images) in [&x, &adv].into_iter().enumerate() {
            for i in 0..n {
                let input = images.data()[i * sample_len..(i + 1) * sample_len].to_vec();
                let mut labels = [0usize; 3];
                let mut margin = f32::INFINITY;
                for (plan, label) in plans.iter_mut().zip(&mut labels) {
                    let mut shape = vec![1];
                    shape.extend_from_slice(&INPUT_SHAPE);
                    let t = Tensor::new(&shape, input.clone()).map_err(|e| e.to_string())?;
                    let logits = plan.forward(&t).map_err(|e| e.to_string())?;
                    let (top, gap) = top_and_margin(logits.data());
                    *label = top;
                    margin = margin.min(gap);
                }
                if margin < MIN_MARGIN {
                    continue;
                }
                let index = pool.len() as u32;
                if k == 0 {
                    clean.push(index);
                } else {
                    adv_idx.push(index);
                }
                let id = format!("p{index}");
                let payload = Request::Predict {
                    id: id.clone(),
                    input,
                    probs: false,
                    attack: None,
                }
                .to_payload();
                let mut frame = Vec::with_capacity(payload.len() + 4);
                write_frame(&mut frame, &payload).map_err(|e| e.to_string())?;
                pool.push(Entry {
                    id,
                    frame,
                    label: labels[0],
                    variants: [labels[1], labels[2]],
                });
            }
        }
        Ok::<_, String>(())
    })?;
    if clean.is_empty() || adv_idx.is_empty() {
        return Err("no request survived the margin filter".into());
    }

    let (server, engine) = tr.within(0, p, "serve.engine.start", || {
        let mut registry = ModelRegistry::new(&INPUT_SHAPE).map_err(|e| e.to_string())?;
        let mut models = models.into_iter();
        let dense = models.next().expect("baseline model");
        registry
            .set_baseline("dense", dense)
            .map_err(|e| e.to_string())?;
        for ((name, _), model) in VARIANTS.iter().zip(models) {
            registry
                .add_variant(*name, model)
                .map_err(|e| e.to_string())?;
        }
        let engine = Engine::start(
            &registry,
            ServeConfig {
                workers: 2,
                max_batch: MAX_BATCH,
                max_delay: Duration::from_millis(2),
                queue_depth: 256,
                guard: Some(GuardConfig { threshold: 0.5 }),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let server = Server::bind(engine.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok::<_, String>((server, engine))
    })?;
    tr.close(root);

    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for e in &pool {
        fingerprint = fnv1a(fingerprint, &e.frame);
        fingerprint = fnv1a(
            fingerprint,
            &[e.label as u8, e.variants[0] as u8, e.variants[1] as u8],
        );
    }
    Ok(Served {
        pool,
        clean,
        adv: adv_idx,
        server,
        engine,
        fingerprint,
    })
}

/// Index of the largest logit (first on ties, like `argmax_rows`) and
/// its margin over the runner-up.
fn top_and_margin(logits: &[f32]) -> (usize, f32) {
    let mut best = 0;
    for (j, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = j;
        }
    }
    let second = logits
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != best)
        .map(|(_, &v)| v)
        .fold(f32::NEG_INFINITY, f32::max);
    (best, logits[best] - second)
}

/// The seeded request mix: pool indices, `CLEAN_SHARE` of them clean.
fn schedule(served: &Served, seed: u64, len: usize) -> Vec<u32> {
    let mut rng = SplitMix::new(seed ^ 0x5e12_7e5e_ed00_0001);
    (0..len)
        .map(|_| {
            let from = if rng.unit() < CLEAN_SHARE {
                &served.clean
            } else {
                &served.adv
            };
            from[rng.below(from.len())]
        })
        .collect()
}

/// What the client saw over one phase of load.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    non_ok: u64,
    lost: u64,
    /// Checks that failed, with the first few explained.
    wrong: u64,
    first_wrong: Vec<String>,
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    elapsed_s: f64,
}

enum Sent {
    Request { idx: u32, base: Instant },
    Done,
}

/// How long a phase runs: a request count (open loop) or a duration
/// (closed loop).
#[derive(Clone, Copy)]
enum Length {
    Requests(usize),
    Seconds(f64),
}

/// Drives one phase of load over a fresh connection and checks every
/// response. In an open loop the latency base is the due time; in a
/// closed loop it is the send.
fn drive(
    addr: SocketAddr,
    served: &Served,
    schedule: &[u32],
    traffic: Traffic,
    length: Length,
    tr: &mut Tracer,
    first_trace: u64,
) -> Result<Phase, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    for timeout in [TcpStream::set_read_timeout, TcpStream::set_write_timeout] {
        timeout(&stream, Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    }
    let mut writer_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let (meta_tx, meta_rx) = mpsc::channel::<Sent>();
    let (credit_tx, credit_rx) = mpsc::sync_channel::<()>(IN_FLIGHT);
    for _ in 0..IN_FLIGHT {
        credit_tx.send(()).expect("credit channel has room");
    }
    let pool = &served.pool;
    let mut phase = Phase::default();

    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut lags_ms = Vec::new();
            let start = Instant::now() + Duration::from_millis(5);
            let interval = Duration::from_secs_f64(1.0 / RATE_RPS);
            for (k, &idx) in schedule.iter().cycle().enumerate() {
                let base = match (traffic, length) {
                    (Traffic::Trickle, Length::Requests(n)) => {
                        if k >= n {
                            break;
                        }
                        let due = start + interval.mul_f64(k as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        lags_ms.push(ms(Instant::now().saturating_duration_since(due)));
                        due
                    }
                    (_, length) => {
                        if credit_rx.recv().is_err() {
                            break; // the reader gave up
                        }
                        let done = match length {
                            Length::Requests(n) => k >= n,
                            Length::Seconds(secs) => start.elapsed().as_secs_f64() >= secs,
                        };
                        if done {
                            break;
                        }
                        Instant::now()
                    }
                };
                if meta_tx.send(Sent::Request { idx, base }).is_err() {
                    break;
                }
                if writer_stream.write_all(&pool[idx as usize].frame).is_err() {
                    break;
                }
            }
            let _ = meta_tx.send(Sent::Done);
            lags_ms
        });

        let mut first_base: Option<Instant> = None;
        let mut last_arrival = Instant::now();
        let mut credits = Some(credit_tx);
        while let Ok(Sent::Request { idx, base }) = meta_rx.recv() {
            phase.sent += 1;
            first_base.get_or_insert(base);
            let Some(credit) = &credits else {
                phase.lost += 1;
                continue;
            };
            let payload = match read_frame(&mut reader) {
                Ok(Some(p)) => p,
                _ => {
                    // Timed out or closed: this and every later request
                    // is lost; dropping the credits stops a closed-loop
                    // writer.
                    credits = None;
                    phase.lost += 1;
                    continue;
                }
            };
            let arrived = Instant::now();
            last_arrival = arrived;
            let _ = credit.try_send(());
            let entry = &pool[idx as usize];
            match check_response(&payload, entry) {
                Ok(true) => {
                    phase.ok += 1;
                    let latency = arrived.saturating_duration_since(base);
                    phase.latencies_ms.push(ms(latency));
                    if tr.enabled() {
                        let trace = first_trace + phase.sent;
                        tr.record(trace, None, "serve.request", base, arrived);
                    }
                }
                Ok(false) => phase.non_ok += 1,
                Err(why) => {
                    phase.wrong += 1;
                    if phase.first_wrong.len() < 3 {
                        phase.first_wrong.push(why);
                    }
                }
            }
        }
        drop(credits);
        phase.lags_ms = writer.join().expect("writer thread panicked");
        if let Some(first) = first_base {
            phase.elapsed_s = last_arrival.saturating_duration_since(first).as_secs_f64();
        }
    });
    Ok(phase)
}

/// `Ok(true)` for a correct ok response, `Ok(false)` for a non-ok status,
/// `Err` for a wrong answer.
fn check_response(payload: &[u8], entry: &Entry) -> Result<bool, String> {
    let resp = Json::parse(payload).map_err(|e| format!("unparseable response: {e}"))?;
    let id = resp.get("id").and_then(Json::as_str).unwrap_or("");
    if id != entry.id {
        return Err(format!(
            "response {id:?} arrived where {:?} was due",
            entry.id
        ));
    }
    if resp.get("status").and_then(Json::as_str) != Some("ok") {
        return Ok(false);
    }
    let label = resp.get("label").and_then(Json::as_u64);
    if label != Some(entry.label as u64) {
        return Err(format!("{id}: label {label:?}, expected {}", entry.label));
    }
    let mut disagree = 0;
    for ((name, _), &want) in VARIANTS.iter().zip(&entry.variants) {
        let got = resp
            .get("variants")
            .and_then(|v| v.get(name))
            .and_then(Json::as_u64);
        if got != Some(want as u64) {
            return Err(format!(
                "{id}: variant {name} label {got:?}, expected {want}"
            ));
        }
        disagree += usize::from(want != entry.label);
    }
    let want = disagree as f64 / VARIANTS.len() as f64;
    let suspect = resp.get("suspect").and_then(Json::as_f64);
    if suspect != Some(want) {
        return Err(format!("{id}: suspect {suspect:?}, expected {want}"));
    }
    Ok(true)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Engine counters at one instant, so a phase can be isolated by
/// difference. Histogram sums are recovered as mean × count.
struct EngineSnap {
    queue: (u64, f64),
    forward: (u64, f64),
    total: (u64, f64),
    models: Vec<(u64, f64)>,
    batches: u64,
    jobs: f64,
    overloaded: u64,
    failed: u64,
    panics: u64,
}

impl EngineSnap {
    fn take(m: &ServeMetrics) -> Self {
        let h = |h: &advcomp_serve::LatencyHistogram| (h.count(), h.mean_us() * h.count() as f64);
        EngineSnap {
            queue: h(&m.queue_wait),
            forward: h(&m.forward),
            total: h(&m.total),
            models: m.per_model_forward.iter().map(|(_, x)| h(x)).collect(),
            batches: m.batch_sizes.batches(),
            jobs: m.batch_sizes.mean() * m.batch_sizes.batches() as f64,
            overloaded: m.overloaded.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            panics: m.worker_panics.load(Ordering::Relaxed),
        }
    }
}

/// Mean in ms of a histogram over the interval between two snapshots.
fn mean_between(a: (u64, f64), b: (u64, f64)) -> f64 {
    let n = b.0.saturating_sub(a.0);
    if n == 0 {
        0.0
    } else {
        (b.1 - a.1) / n as f64 / 1e3
    }
}

/// Runs a serving workload: set-up (median of several, asserted
/// identical), warm-up, then the measured phase; with tracing, an
/// untraced and a traced phase followed by protocol replays.
pub fn run(traffic: Traffic, opts: &Opts, tr: &mut Tracer) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    let mut first_fingerprint = None;
    for _ in 0..opts.setups() {
        // Stop the last set-up's server first, so peak memory holds one.
        if let Some(prev) = served.take() {
            prev.server.join();
        }
        let t0 = Instant::now();
        let s = set_up(opts.seed, tr)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if *first_fingerprint.get_or_insert(s.fingerprint) != s.fingerprint {
            return Err("two set-ups from one seed built different request pools".into());
        }
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let addr = served.server.local_addr();
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let length = match traffic {
        Traffic::Trickle => Length::Requests(((RATE_RPS * seconds).round() as usize).max(1)),
        Traffic::Pipelined => Length::Seconds(seconds),
    };
    let sched = schedule(&served, opts.seed, 8192);
    let mut off = Tracer::new(false);
    let warm = drive(
        addr,
        &served,
        &sched,
        Traffic::Pipelined,
        Length::Requests(WARMUP),
        &mut off,
        0,
    )?;
    let mut phases = vec![drive(addr, &served, &sched, traffic, length, &mut off, 0)?];
    let mut engine_phase = None;
    if opts.trace {
        let before = EngineSnap::take(served.engine.metrics());
        phases.push(drive(addr, &served, &sched, traffic, length, tr, 1)?);
        engine_phase = Some((before, EngineSnap::take(served.engine.metrics())));
    }
    served.server.join();

    for p in std::iter::once(&warm).chain(&phases) {
        if p.wrong > 0 {
            return Err(format!(
                "{} wrong responses, e.g. {}",
                p.wrong,
                p.first_wrong.join("; ")
            ));
        }
    }
    let measured = phases.last().expect("one phase");
    let attempted = measured.sent;
    let failed = measured.non_ok + measured.lost;
    if measured.latencies_ms.is_empty() {
        return Err("no request was answered".into());
    }
    let lat = stats::sorted(&measured.latencies_ms);
    let mut detail = vec![];
    if traffic == Traffic::Trickle {
        let lag = stats::sorted(&measured.lags_ms);
        let lag_p99 = nearest_rank(&lag, 0.99);
        if lag_p99 > MAX_LAG_P99_MS {
            eprintln!(
                "advbench: generator lag p99 {lag_p99:.3} ms exceeds {MAX_LAG_P99_MS} ms; \
                 latencies include the generator's own lateness"
            );
        }
        detail.push(Metric::new(
            "serve.loadgen.lag_p99_ms",
            lag_p99,
            "ms",
            lag.len(),
        ));
    }
    detail.extend(crate::tail("latency", &lat));
    detail.push(Metric::new(
        "throughput_per_s",
        measured.ok as f64 / measured.elapsed_s,
        "1/s",
        measured.ok,
    ));

    if !opts.trace {
        return Ok(Report {
            attempted,
            failed,
            metrics: crate::end_to_end(&setup_s, &lat),
            detail,
        });
    }

    // Per-layer: engine means over the traced phase, protocol replays
    // over the traced phase's payloads, the rest unaccounted.
    let (base, after) = engine_phase.expect("traced phase");
    let untraced_mean = stats::mean(&phases[0].latencies_ms);
    let client_ms = stats::mean(&measured.latencies_ms);
    let batches = after.batches - base.batches;
    let batch_mean = if batches == 0 {
        0.0
    } else {
        (after.jobs - base.jobs) / batches as f64
    };
    let queue_ms = mean_between(base.queue, after.queue);
    let forward_ms = mean_between(base.forward, after.forward);
    let total_ms = mean_between(base.total, after.total);
    let per_model: Vec<f64> = base
        .models
        .iter()
        .zip(&after.models)
        .map(|(&a, &b)| mean_between(a, b))
        .collect();
    let guard_ms = forward_ms - per_model.iter().sum::<f64>();
    let replayed: Vec<&Entry> = sched
        .iter()
        .cycle()
        .take((measured.sent as usize).max(1000))
        .map(|&i| &served.pool[i as usize])
        .collect();
    let parse_us = replay_parse(&replayed, tr)?;
    let encode_us = replay_encode(&replayed, tr)?;
    let request_bytes =
        replayed.iter().map(|e| e.frame.len() as f64).sum::<f64>() / replayed.len() as f64;
    let unaccounted_ms = client_ms - (total_ms + (parse_us + encode_us) / 1e3);
    let covered_ms = queue_ms + forward_ms + (parse_us + encode_us) / 1e3;

    let n_req = measured.ok;
    let pct = |x_ms: f64| 100.0 * x_ms / client_ms;
    let mut layers = Layers::from_setup(tr.spans());
    layers.set(
        "trace.overhead_pct",
        100.0 * (client_ms - untraced_mean) / untraced_mean,
        n_req,
    );
    layers.set("trace.coverage_pct", pct(covered_ms), n_req);
    layers.set("serve.protocol.parse_pct", pct(parse_us / 1e3), n_req);
    layers.set("serve.engine.queue_wait_pct", pct(queue_ms), n_req);
    for (i, name) in ["dense", "q8", "q4"].iter().enumerate() {
        layers.set(
            &format!("graph.exec.forward_pct.{name}"),
            pct(per_model[i]),
            batches,
        );
    }
    layers.set("detect.guard_pct", pct(guard_ms), batches);
    layers.set(
        "serve.engine.reply_pct",
        pct(total_ms - queue_ms - forward_ms),
        n_req,
    );
    layers.set("serve.protocol.encode_pct", pct(encode_us / 1e3), n_req);
    layers.set("serve.server.unaccounted_pct", pct(unaccounted_ms), n_req);
    layers.set("serve.engine.batch_size_mean", batch_mean, batches);
    layers.set(
        "serve.engine.batch_fill",
        batch_mean / MAX_BATCH as f64,
        batches,
    );
    layers.set(
        "serve.wire.request_bytes",
        request_bytes,
        replayed.len() as u64,
    );
    layers.set(
        "serve.engine.overloaded",
        (after.overloaded - base.overloaded) as f64,
        n_req,
    );
    layers.set(
        "serve.engine.failed",
        (after.failed - base.failed) as f64,
        n_req,
    );
    layers.set(
        "serve.engine.worker_panics",
        (after.panics - base.panics) as f64,
        batches,
    );

    detail.extend([
        Metric::new("serve.client.mean_ms", client_ms, "ms", n_req),
        Metric::new(
            "serve.protocol.parse_us",
            parse_us,
            "us",
            replayed.len() as u64,
        ),
        Metric::new(
            "serve.protocol.encode_us",
            encode_us,
            "us",
            replayed.len() as u64,
        ),
        Metric::new("serve.engine.queue_wait_ms", queue_ms, "ms", n_req),
        Metric::new("serve.engine.forward_ms", forward_ms, "ms", batches),
        Metric::new("graph.exec.forward_ms.dense", per_model[0], "ms", batches),
        Metric::new("graph.exec.forward_ms.q8", per_model[1], "ms", batches),
        Metric::new("graph.exec.forward_ms.q4", per_model[2], "ms", batches),
        Metric::new("detect.guard_ms", guard_ms, "ms", batches),
        Metric::new("serve.engine.total_ms", total_ms, "ms", n_req),
        Metric::new("serve.server.unaccounted_ms", unaccounted_ms, "ms", n_req),
    ]);
    detail.extend(crate::setup_detail(tr.spans()));
    Ok(Report {
        attempted,
        failed,
        metrics: layers.into_metrics(),
        detail,
    })
}

/// Mean µs per `Request::parse` over `entries`, each call a span.
fn replay_parse(entries: &[&Entry], tr: &mut Tracer) -> Result<f64, String> {
    let t0 = Instant::now();
    for (k, e) in entries.iter().enumerate() {
        let req = tr.within(1_000_000 + k as u64, None, "serve.protocol.parse", || {
            Request::parse(&e.frame[4..])
        });
        std::hint::black_box(req.map_err(|err| format!("replaying {}: {err}", e.id))?);
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / entries.len() as f64)
}

/// Mean µs per response encode (`ok_response` plus framing, as the
/// server does it) for the answers `entries` must get, each call a span.
fn replay_encode(entries: &[&Entry], tr: &mut Tracer) -> Result<f64, String> {
    let predictions: Vec<Prediction> = entries
        .iter()
        .map(|e| {
            let disagree = e.variants.iter().filter(|&&v| v != e.label).count();
            let suspect = disagree as f64 / VARIANTS.len() as f64;
            Prediction {
                label: e.label,
                probs: None,
                suspect: Some(suspect),
                flagged: Some(suspect >= 0.5),
                variant_labels: VARIANTS
                    .iter()
                    .zip(e.variants)
                    .map(|((n, _), l)| (n.to_string(), l))
                    .collect(),
            }
        })
        .collect();
    let t0 = Instant::now();
    for (k, (e, p)) in entries.iter().zip(&predictions).enumerate() {
        let frame = tr.within(2_000_000 + k as u64, None, "serve.protocol.encode", || {
            let mut buf = Vec::new();
            write_frame(&mut buf, ok_response(&e.id, p).to_string().as_bytes()).map(|()| buf)
        });
        std::hint::black_box(frame.map_err(|err| err.to_string())?);
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / entries.len() as f64)
}
