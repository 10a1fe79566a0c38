//! The sweep-point path: `TransferMatrix::prepare` once per set-up, then
//! whole passes over the recipes, each point `run_point` → `record_ok` →
//! `Journal::store`, one at a time.
//!
//! Every pass must reproduce the first pass's records byte for byte, and
//! the journal must reload them unchanged. A traced run recomposes each
//! point from the public calls `compute_point` is made of, inside one
//! span each, and must reach the same record bit for bit.

use crate::stats::nearest_rank;
use crate::trace::{self, Tracer};
use crate::{fnv1a, Layers, Metric, Opts, Report};
use advcomp_attacks::{AttackKind, NetKind, PaperParams};
use advcomp_core::journal::{Journal, PointRecord};
use advcomp_core::sweep::{PointOutcome, PreparedMatrix, TransferMatrix};
use advcomp_core::{evaluate_model, Compression, ExperimentScale, TaskSetup, TrainedModel};
use advcomp_nn::{accuracy, health, Mode, Sequential};
use advcomp_tensor::Tensor;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Batch size `compute_point` evaluates clean accuracy with.
const EVAL_BATCH: usize = 64;

/// Baselines a run trains and rotates its passes over. DeepFool stops
/// early per sample, so its cost depends on the baseline: across LeNet-5
/// seeds it took from 7 to 70 ms per craft. Rotating over four keeps one
/// run's median pass from hanging on a single baseline. A CifarNet
/// baseline alone takes 4 s to prepare, so that workload trains one.
fn baselines(net: NetKind) -> u64 {
    match net {
        NetKind::LeNet5 => 4,
        NetKind::CifarNet => 1,
    }
}

fn matrix(net: NetKind, smoke: bool) -> TransferMatrix {
    let mut recipes = vec![
        (1.0, Compression::None),
        (0.5, Compression::DnsPrune { density: 0.5 }),
        (0.1, Compression::DnsPrune { density: 0.1 }),
        (
            8.0,
            Compression::Quant {
                bitwidth: 8,
                weights_only: false,
            },
        ),
        (
            4.0,
            Compression::Quant {
                bitwidth: 4,
                weights_only: false,
            },
        ),
    ];
    if smoke {
        recipes.truncate(2);
    }
    TransferMatrix {
        net,
        attacks: AttackKind::ALL.to_vec(),
        recipes,
    }
}

/// Hashes a value's full `Debug` rendering without materialising it: a
/// prepared matrix renders every tensor it holds, so equal hashes mean
/// equal set-ups.
struct DebugHash(u64);

impl std::fmt::Write for DebugHash {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

fn fingerprint(prepared: &[PreparedMatrix]) -> u64 {
    let mut h = DebugHash(0xcbf2_9ce4_8422_2325);
    write!(h, "{prepared:?}").expect("hashing never fails");
    h.0
}

/// Journal directory for one run, inside the checkout's `target/`.
fn journal_dir(opts: &Opts, net: NetKind) -> PathBuf {
    Path::new("target").join("advbench").join(format!(
        "journal-{}-{}-{}",
        net.id(),
        opts.seed,
        std::process::id()
    ))
}

/// A fresh journal for one pass, and its directory. Each pass stores into
/// its own, as a real sweep stores each point once: overwriting last
/// pass's entries would time the file system's replace-by-rename handling
/// instead.
fn pass_journal(dir: &Path, pass: usize) -> Result<(Journal, PathBuf), String> {
    let pass_dir = dir.join(format!("pass-{pass}"));
    let journal = Journal::open(&pass_dir).map_err(|e| format!("journal: {e}"))?;
    Ok((journal, pass_dir))
}

/// Reloads every point of a finished pass, checks the journal returns
/// `records` unchanged, and deletes the pass's journal.
fn check_reload(
    prepared: &PreparedMatrix,
    (journal, pass_dir): &(Journal, PathBuf),
    records: &[String],
) -> Result<(), String> {
    let reloaded = prepared
        .keys()
        .iter()
        .map(|k| match journal.load(k) {
            Ok(Some(rec)) => Ok(rec.to_json()),
            Ok(None) => Err(format!("journal lost point {k}")),
            Err(e) => Err(format!("journal reload: {e}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    check_same(records, &reloaded, "the journal reload")?;
    let _ = std::fs::remove_dir_all(pass_dir);
    Ok(())
}

/// What one untraced pass measured.
struct Pass {
    records: Vec<String>,
    point_s: Vec<f64>,
}

fn untraced_pass(prepared: &PreparedMatrix, dir: &Path, pass: usize) -> Result<Pass, String> {
    let journal = pass_journal(dir, pass)?;
    let mut out = Pass {
        records: Vec::new(),
        point_s: Vec::new(),
    };
    for i in 0..prepared.num_points() {
        let t0 = Instant::now();
        let outcome = prepared
            .run_point(i)
            .map_err(|e| format!("point {i}: {e}"))?;
        let record = prepared.record_ok(i, outcome, 1);
        journal
            .0
            .store(&record)
            .map_err(|e| format!("journal: {e}"))?;
        out.point_s.push(t0.elapsed().as_secs_f64());
        out.records.push(record.to_json());
    }
    check_reload(prepared, &journal, &out.records)?;
    Ok(out)
}

/// Everything `prepare` computes, rebuilt from public calls so a traced
/// point can be composed from them.
struct Recomposed {
    setup: TaskSetup,
    baseline: TrainedModel,
    eval_sets: Vec<(Tensor, Vec<usize>)>,
    adv_from_full: Vec<Tensor>,
}

fn recompose_setup(
    m: &TransferMatrix,
    scale: &ExperimentScale,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Recomposed, String> {
    let root = tr.open(0, None, "setup");
    let p = Some(root);
    let setup = tr.within(0, p, "data.task_setup", || TaskSetup::new(m.net, scale));
    let baseline = tr
        .within(0, p, "core.trainer.train", || {
            TrainedModel::train(&setup, scale, seed)
        })
        .map_err(|e| format!("training: {e}"))?;
    let mut full = tr
        .within(0, p, "models.instantiate", || baseline.instantiate())
        .map_err(|e| e.to_string())?;
    let mut eval_sets = Vec::new();
    let mut adv_from_full = Vec::new();
    for &kind in &m.attacks {
        let want = match kind {
            AttackKind::DeepFool => scale.deepfool_eval,
            _ => scale.attack_eval,
        };
        let n = want.min(setup.test.len()).max(1);
        let (x, y) = setup.test.slice(0, n).map_err(|e| e.to_string())?;
        let adv = tr
            .within(0, p, "attacks.craft.pool", || {
                PaperParams::build_adapted(m.net, kind).generate(&mut full, &x, &y)
            })
            .map_err(|e| format!("crafting {}: {e}", kind.id()))?;
        eval_sets.push((x, y));
        adv_from_full.push(adv);
    }
    tr.close(root);
    Ok(Recomposed {
        setup,
        baseline,
        eval_sets,
        adv_from_full,
    })
}

fn accuracy_on(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<f64, String> {
    let logits = model.forward(x, Mode::Eval).map_err(|e| e.to_string())?;
    accuracy(&logits, labels).map_err(|e| e.to_string())
}

fn recipe_kind(c: &Compression) -> &'static str {
    match c {
        Compression::None => "none",
        Compression::DnsPrune { .. } => "dns",
        Compression::OneShotPrune { .. } => "oneshot",
        Compression::Quant { .. } => "quant",
    }
}

/// One point composed from public calls, each in a child span of the
/// point's root span.
#[allow(clippy::too_many_arguments)]
fn traced_point(
    m: &TransferMatrix,
    scale: &ExperimentScale,
    r: &Recomposed,
    prepared: &PreparedMatrix,
    journal: &Journal,
    i: usize,
    trace_id: u64,
    tr: &mut Tracer,
) -> Result<String, String> {
    let recipe = m.recipes[i].1;
    let root = tr.open(trace_id, None, "core.sweep.point");
    let p = Some(root);
    let cfg = r.setup.finetune_config(scale);
    let (outcome, events) = health::scope(|| -> Result<_, String> {
        let mut comp = tr
            .within(trace_id, p, "models.instantiate", || {
                r.baseline.instantiate()
            })
            .map_err(|e| e.to_string())?;
        tr.within(
            trace_id,
            p,
            format!("compress.apply.{}", recipe_kind(&recipe)),
            || recipe.apply(&mut comp, &r.setup.train, &cfg),
        )
        .map_err(|e| e.to_string())?;
        let mut full = tr
            .within(trace_id, p, "models.instantiate", || {
                r.baseline.instantiate()
            })
            .map_err(|e| e.to_string())?;
        let base_accuracy = tr
            .within(trace_id, p, "nn.evaluate", || {
                evaluate_model(&mut comp, &r.setup.test, EVAL_BATCH)
            })
            .map_err(|e| e.to_string())?;
        let mut scenarios = Vec::new();
        for (a, &kind) in m.attacks.iter().enumerate() {
            let (x, y) = &r.eval_sets[a];
            let adv = tr
                .within(trace_id, p, format!("attacks.craft.{}", kind.id()), || {
                    PaperParams::build_adapted(m.net, kind).generate(&mut comp, x, y)
                })
                .map_err(|e| e.to_string())?;
            // Scenario order (1, 3, 2) is `compute_point`'s.
            let triple = tr.within(trace_id, p, "nn.transfer_eval", || {
                let s1 = accuracy_on(&mut comp, &adv, y)?;
                let s3 = accuracy_on(&mut full, &adv, y)?;
                let s2 = accuracy_on(&mut comp, &r.adv_from_full[a], y)?;
                Ok::<_, String>((s1, s2, s3))
            })?;
            scenarios.push(triple);
        }
        Ok((base_accuracy, scenarios))
    });
    let (base_accuracy, scenarios) = outcome?;
    let record = prepared.record_ok(
        i,
        PointOutcome {
            base_accuracy,
            scenarios,
            health: events.iter().map(health::HealthEvent::describe).collect(),
        },
        1,
    );
    tr.within(trace_id, p, "core.journal.store", || journal.store(&record))
        .map_err(|e| format!("journal: {e}"))?;
    tr.close(root);
    Ok(record.to_json())
}

/// Runs a sweep workload on `net`.
pub fn run(net: NetKind, opts: &Opts, tr: &mut Tracer) -> Result<Report, String> {
    let m = matrix(net, opts.smoke);
    let scale = ExperimentScale::tiny();
    let k = baselines(net);
    let seeds: Vec<u64> = (0..k)
        .map(|i| opts.seed.wrapping_mul(k).wrapping_add(i))
        .collect();
    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    let mut first_fingerprint = None;
    for _ in 0..opts.setups() {
        // Free the last set-up first, so peak memory holds one.
        prepared.clear();
        let t0 = Instant::now();
        prepared = seeds
            .iter()
            .map(|&seed| m.prepare(&scale, seed))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("prepare: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let f = fingerprint(&prepared);
        if *first_fingerprint.get_or_insert(f) != f {
            return Err("two set-ups from one seed prepared different matrices".into());
        }
    }

    let dir = journal_dir(opts, net);
    let _ = std::fs::remove_dir_all(&dir);
    let result = measure(&m, &scale, &prepared, &dir, &setup_s, opts, tr);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    m: &TransferMatrix,
    scale: &ExperimentScale,
    prepared: &[PreparedMatrix],
    dir: &Path,
    setup_s: &[f64],
    opts: &Opts,
    tr: &mut Tracer,
) -> Result<Report, String> {
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // The first pass over each baseline is the reference for its later
    // passes and for the traced pipeline.
    let mut reference: Vec<Vec<String>> = Vec::new();
    let mut point_ms = Vec::new();
    let mut pass_ms = Vec::new();
    let t0 = Instant::now();
    while more_passes(t0, &pass_ms, seconds) {
        let b = pass_ms.len() % prepared.len();
        let pass = untraced_pass(&prepared[b], dir, pass_ms.len())?;
        match reference.get(b) {
            None => reference.push(pass.records),
            Some(r) => check_same(r, &pass.records, "a later pass")?,
        }
        pass_ms.push(pass.point_s.iter().sum::<f64>() * 1e3);
        point_ms.extend(pass.point_s.iter().map(|s| s * 1e3));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let attempted = point_ms.len() as u64;
    let points = crate::stats::sorted(&point_ms);
    let mut detail = vec![
        Metric::new(
            "points_per_s",
            points.len() as f64 / elapsed,
            "1/s",
            points.len(),
        ),
        Metric::new(
            "point_p50_ms",
            nearest_rank(&points, 0.5),
            "ms",
            points.len(),
        ),
    ];
    detail.extend(crate::tail("point", &points));

    if !opts.trace {
        return Ok(Report {
            attempted,
            failed: 0,
            metrics: crate::end_to_end(setup_s, &crate::stats::sorted(&pass_ms)),
            detail,
        });
    }

    // Traced phase: the same points recomposed from public calls, over
    // the baselines the untraced phase reached.
    let recomposed = prepared[..reference.len()]
        .iter()
        .map(|p| recompose_setup(m, scale, p.seed(), tr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut traced_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let t0 = Instant::now();
    let mut trace_id = 1;
    while more_passes(t0, &traced_pass_ms, seconds) {
        let b = traced_pass_ms.len() % recomposed.len();
        let journal = pass_journal(dir, pass_ms.len() + traced_pass_ms.len())?;
        let mut records = Vec::new();
        let mut pass_total = 0.0;
        for i in 0..prepared[b].num_points() {
            let p0 = Instant::now();
            records.push(traced_point(
                m,
                scale,
                &recomposed[b],
                &prepared[b],
                &journal.0,
                i,
                trace_id,
                tr,
            )?);
            let point = p0.elapsed().as_secs_f64() * 1e3;
            traced_ms.push(point);
            pass_total += point;
            trace_id += 1;
        }
        check_same(&reference[b], &records, "the composed pipeline")?;
        check_reload(&prepared[b], &journal, &records)?;
        traced_pass_ms.push(pass_total);
    }
    let records = reference
        .iter()
        .flatten()
        .map(|j| PointRecord::from_json(j))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let health_events: usize = records.iter().map(|r| r.health.len()).sum();
    let attempts: u32 = records.iter().map(|r| r.attempts).sum();

    let spans = tr.spans();
    let selfs = trace::self_times_ns(spans);
    let mut point_ns = 0u64;
    let mut self_ns = 0u64;
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        if s.trace_id == 0 {
            continue; // set-up
        }
        if s.parent.is_none() {
            point_ns += s.duration_ns();
            self_ns += own;
        } else {
            let e = by_name.entry(s.name.as_str()).or_default();
            e.0 += s.duration_ns();
            e.1 += 1;
        }
    }
    let traced = traced_ms.len() as u64;
    let pct = |ns: u64| 100.0 * ns as f64 / point_ns as f64;
    let untraced_mean = crate::stats::mean(&point_ms);
    let traced_mean = crate::stats::mean(&traced_ms);
    let mut layers = Layers::from_setup(spans);
    layers.set(
        "trace.overhead_pct",
        100.0 * (traced_mean - untraced_mean) / untraced_mean,
        traced,
    );
    layers.set("trace.coverage_pct", 100.0 - pct(self_ns), traced);
    layers.set("core.sweep.self_pct", pct(self_ns), traced);
    let n_records = records.len() as u64;
    layers.set(
        "core.sweep.attempts_per_point",
        f64::from(attempts) / n_records as f64,
        n_records,
    );
    layers.set("core.sweep.health_events", health_events as f64, n_records);
    detail.push(Metric::new(
        "core.sweep.traced_point_ms",
        traced_mean,
        "ms",
        traced,
    ));
    for (name, (ns, calls)) in &by_name {
        let share = crate::metric_name(name, "_pct");
        if crate::listed(&share) {
            layers.set(&share, pct(*ns), *calls);
        }
        let mean = crate::metric_name(name, "_ms");
        if !crate::listed(&mean) {
            detail.push(Metric::new(
                mean,
                *ns as f64 / 1e6 / *calls as f64,
                "ms",
                *calls,
            ));
        }
    }
    detail.extend(crate::setup_detail(spans));
    Ok(Report {
        attempted,
        failed: 0,
        metrics: layers.into_metrics(),
        detail,
    })
}

/// Whole passes run until the next one would end further past the
/// deadline than stopping now falls short of it; at least one runs.
fn more_passes(start: Instant, pass_ms: &[f64], seconds: f64) -> bool {
    pass_ms.is_empty()
        || start.elapsed().as_secs_f64() + crate::stats::mean(pass_ms) / 2e3 < seconds
}

fn check_same(want: &[String], got: &[String], what: &str) -> Result<(), String> {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w != g {
            return Err(format!(
                "point {i}: {what} differs from the first pass:\n{w}\nvs\n{g}"
            ));
        }
    }
    if want.len() != got.len() {
        return Err(format!(
            "{what} has {} points, expected {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}
