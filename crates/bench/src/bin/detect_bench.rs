//! Machine-readable detection-subsystem benchmark; writes
//! `BENCH_detect.json`.
//!
//! Exercises the whole calibrated-detection pipeline on the deterministic
//! stub-RNG task (seeded synthetic digits, LeNet-5 baseline):
//!
//! * the **attack × compression grid** from
//!   [`advcomp_detect::run_detection_grid`] — detector AUC, detection rate
//!   at the calibrated threshold, and attack success per
//!   `(surrogate, attack)` cell, plus the UAP transfer matrix;
//! * the **gate fixture** — disagreement-detector AUC separating clean
//!   traffic from *successful* small-step IFGSM perturbations (the
//!   boundary-local regime the ensemble guard is built for);
//! * the **online story** — flag rates for clean vs offline-crafted UAP
//!   traffic through a live guarded engine at the calibrated threshold;
//! * **guard overhead** — µs/request of the ensemble guard, measured as
//!   the difference between guard-on and guard-off single-request
//!   latency through the engine.
//!
//! Gates (on every host): the fixture AUC is at least 0.9, and online the
//! guard flags the UAP strictly more often than clean traffic
//! (`online.uap_minus_clean_flagged` ≥ 1) and at a rate of at least 0.15.
//!
//! ```text
//! scripts/bench.sh detect [--out FILE] [--iters N]
//! ```

use advcomp_attacks::{craft_uap, Attack, Ifgsm, NetKind, PlannedEval, UapConfig};
use advcomp_bench::record::{median_ns, Flags, Report};
use advcomp_compress::Quantizer;
use advcomp_core::advtrain::{adversarial_finetune, AdvTrainConfig};
use advcomp_core::{Compression, ExperimentScale, TaskSetup, TrainedModel};
use advcomp_detect::{
    detector_by_name, run_detection_grid, DetectionGridConfig, DetectorCalibration, RocCurve,
    VariantEnsemble,
};
use advcomp_nn::Sequential;
use advcomp_serve::{Engine, GuardConfig, ModelRegistry, ServeConfig};
use advcomp_tensor::Tensor;
use std::time::Duration;

/// The AUC floor gated on the fixture.
const GATE_AUC: f64 = 0.9;
/// The online UAP flag-rate floor.
const GATE_UAP_FLAG_RATE: f64 = 0.15;
/// Seed of the benchmark task (training, compression, crafting).
const SEED: u64 = 42;

/// Appends a calibration's records under `<prefix>.<detector>.`.
fn push_calibration(report: &mut Report, prefix: &str, cal: &DetectorCalibration) {
    for (key, unit, value) in [
        ("threshold", "score", cal.threshold),
        ("target_fpr", "fraction", cal.target_fpr),
        ("observed_fpr", "fraction", cal.observed_fpr),
        ("observed_tpr", "fraction", cal.observed_tpr),
        ("auc", "fraction", cal.auc),
    ] {
        report.push(format!("{prefix}.{}.{key}", cal.detector), unit, value);
    }
}

/// The deployed ensemble the serve layer would run: dense baseline plus
/// the compression levels whose decision boundaries move the most, plus
/// an adversarially fine-tuned member.
struct Fixture {
    setup: TaskSetup,
    dense: Sequential,
    variants: Vec<(&'static str, Sequential)>,
}

fn build_fixture(scale: &ExperimentScale) -> Fixture {
    let setup = TaskSetup::new(NetKind::LeNet5, scale);
    let trained = TrainedModel::train(&setup, scale, SEED).expect("baseline training");
    let dense = trained.instantiate().expect("instantiate baseline");

    let mut quant4 = dense.clone();
    Quantizer::for_bitwidth(4)
        .unwrap()
        .quantize_frozen(&mut quant4)
        .expect("q4 freeze");
    let mut pruned = dense.clone();
    Compression::OneShotPrune { density: 0.5 }
        .apply(&mut pruned, &setup.train, &setup.finetune_config(scale))
        .expect("one-shot prune");
    let mut hardened = dense.clone();
    let attack = Ifgsm::new(0.05, 1).expect("attack config");
    let adv_cfg = AdvTrainConfig {
        epochs: 2,
        seed: SEED,
        ..AdvTrainConfig::default()
    };
    adversarial_finetune(&mut hardened, &setup.train, &attack, &adv_cfg)
        .expect("adversarial fine-tune");

    Fixture {
        setup,
        dense,
        variants: vec![
            ("quant4", quant4),
            ("pruned", pruned),
            ("hardened", hardened),
        ],
    }
}

fn ensemble_of(fixture: &Fixture) -> VariantEnsemble {
    let shape = fixture.setup.test.sample_shape();
    let mut e = VariantEnsemble::new("dense", &fixture.dense, shape).expect("dense compiles");
    for (name, model) in &fixture.variants {
        e.push_variant(*name, model).expect("variant compiles");
    }
    e
}

/// Gate fixture: clean vs *successful* small-step IFGSM. Small steps keep
/// the perturbed inputs just past the baseline's boundary — the regime
/// where the compressed variants' shifted boundaries disagree — and the
/// success filter drops perturbations that never crossed it (nothing to
/// detect). Clean negatives are the correctly-classified samples, so the
/// baseline's own boundary-hugging mistakes don't pollute the negatives.
fn gate_fixture(
    report: &mut Report,
    fixture: &Fixture,
    ensemble: &mut VariantEnsemble,
) -> DetectorCalibration {
    let (epsilon, steps) = (0.005f64, 8usize);
    let n = fixture.setup.test.len();
    let (x, y) = fixture.setup.test.slice(0, n).expect("test slice");
    let detector = detector_by_name("disagreement").expect("known detector");

    let mut surrogate = fixture.dense.clone();
    let adv = Ifgsm::new(epsilon as f32, steps)
        .unwrap()
        .generate(&mut surrogate, &x, &y)
        .expect("ifgsm crafting");
    let mut eval = PlannedEval::compile(&surrogate, &x.shape()[1..]).expect("dense compiles");
    let clean_pred = eval.predictions(&x).expect("clean predictions");
    let adv_pred = eval.predictions(&adv).expect("adversarial predictions");

    let clean_all = ensemble.score(detector.as_ref(), &x).expect("clean scores");
    let adv_all = ensemble.score(detector.as_ref(), &adv).expect("adv scores");
    let clean: Vec<f64> = (0..n)
        .filter(|&i| clean_pred[i] == y[i])
        .map(|i| clean_all[i])
        .collect();
    // Adversarial positives: correctly-classified samples the attack
    // actually flips on the surrogate (unsuccessful perturbations carry no
    // boundary-crossing signal to detect).
    let adv: Vec<f64> = (0..n)
        .filter(|&i| clean_pred[i] == y[i] && adv_pred[i] != y[i])
        .map(|i| adv_all[i])
        .collect();
    let auc = RocCurve::from_scores(&clean, &adv).expect("roc").auc();
    let cal =
        DetectorCalibration::calibrate("disagreement", &clean, &adv, 0.1).expect("calibration");

    println!(
        "gate fixture: ifgsm eps {epsilon} x{steps}  clean {} adv {}  auc {auc:.3}  \
         threshold {:.3} (fpr {:.3}, tpr {:.3})",
        clean.len(),
        adv.len(),
        cal.threshold,
        cal.observed_fpr,
        cal.observed_tpr
    );
    let row = "fixture.disagreement.ifgsm";
    report.push(format!("{row}.epsilon"), "linf", epsilon);
    report.push(format!("{row}.steps"), "count", steps as f64);
    report.push(format!("{row}.clean_n"), "count", clean.len() as f64);
    report.push(format!("{row}.adv_n"), "count", adv.len() as f64);
    report
        .push(format!("{row}.auc"), "fraction", auc)
        .min(GATE_AUC);
    report.push(format!("{row}.gate_auc"), "fraction", GATE_AUC);
    push_calibration(report, "calibration", &cal);
    cal
}

fn grid_report(report: &mut Report, scale: &ExperimentScale) {
    let cfg = DetectionGridConfig {
        net: NetKind::LeNet5,
        compressions: vec![
            Compression::OneShotPrune { density: 0.5 },
            Compression::Quant {
                bitwidth: 8,
                weights_only: false,
            },
            Compression::Quant {
                bitwidth: 4,
                weights_only: false,
            },
        ],
        detector: "disagreement".into(),
        epsilon: 0.05,
        steps: 6,
        uap_epochs: 4,
        target_fpr: 0.05,
        seed: SEED,
        craft_len: 64,
        eval_len: 64,
        include_hardened: true,
        ..DetectionGridConfig::default()
    };
    let grid = run_detection_grid(&cfg, scale).expect("detection grid");
    assert!(
        grid.failed.is_empty(),
        "grid cells failed: {:?}",
        grid.failed
    );
    for (member, &accuracy) in grid.members.iter().zip(&grid.clean_accuracy) {
        report.push(
            format!("grid.clean_accuracy.{member}"),
            "fraction",
            accuracy,
        );
    }
    push_calibration(report, "grid.calibration", &grid.calibration);
    for c in &grid.cells {
        println!(
            "grid {}/{}: auc {:.3}  detection {:.3}  attack success {:.3}",
            c.surrogate, c.attack, c.auc, c.detection_rate, c.attack_success
        );
        let row = format!("grid.{}.{}", c.surrogate, c.attack);
        for (key, value) in [
            ("auc", c.auc),
            ("detection_rate", c.detection_rate),
            ("attack_success", c.attack_success),
        ] {
            report.push(format!("{row}.{key}"), "fraction", value);
        }
    }
    // Fool rate on member `to` of the UAP crafted on member `from`.
    for (from, rates) in grid.members.iter().zip(&grid.transfer) {
        for (to, rate) in grid.members.iter().zip(rates) {
            report.push(format!("grid.uap_transfer.{from}.{to}"), "fraction", *rate);
        }
    }
}

fn registry_of(fixture: &Fixture, cal: Option<&DetectorCalibration>) -> ModelRegistry {
    let mut registry =
        ModelRegistry::new(fixture.setup.test.sample_shape()).expect("registry shape");
    registry
        .set_baseline("dense", fixture.dense.clone())
        .expect("baseline registration");
    for (name, model) in &fixture.variants {
        registry
            .add_variant(*name, model.clone())
            .expect("variant registration");
    }
    if let Some(cal) = cal {
        registry.set_calibration(cal.clone()).expect("calibration");
    }
    registry
}

/// Online check: clean and offline-crafted-UAP traffic through a live
/// guarded engine, verdicts taken at the calibrated threshold.
fn online_report(report: &mut Report, fixture: &Fixture, cal: &DetectorCalibration) {
    let uap_epsilon = 0.2f64;
    let (x_craft, y_craft) = fixture.setup.train.slice(0, 64).expect("craft slice");
    let mut surrogate = fixture.dense.clone();
    let uap = craft_uap(
        &mut surrogate,
        &x_craft,
        &y_craft,
        &UapConfig {
            epsilon: uap_epsilon as f32,
            step: uap_epsilon as f32 / 5.0,
            epochs: 4,
            batch: 16,
            seed: 7,
        },
    )
    .expect("uap crafting");

    let n = 48;
    let (x_eval, _) = fixture.setup.test.slice(0, n).expect("eval slice");
    let uap_fool_rate = uap.fool_rate(&fixture.dense, &x_eval).expect("fool rate");
    let x_uap = uap.apply(&x_eval).expect("uap apply");

    let registry = registry_of(fixture, Some(cal));
    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            guard: Some(GuardConfig::default()),
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    let deployment = engine.metrics().guard_deployment().expect("guard deployed");
    assert!(deployment.calibrated, "calibration artifact must deploy");

    let sample_len: usize = fixture.setup.test.sample_shape().iter().product();
    let flagged = |images: &Tensor, tag: Option<&str>| -> usize {
        let mut flagged = 0usize;
        for i in 0..n {
            let input = images.data()[i * sample_len..(i + 1) * sample_len].to_vec();
            let pred = engine
                .submit_tagged(input, false, tag.map(str::to_string))
                .expect("submit");
            flagged += usize::from(pred.flagged.expect("guard verdict"));
        }
        flagged
    };
    let clean_flagged = flagged(&x_eval, None);
    let uap_flagged = flagged(&x_uap, Some("uap"));
    engine.shutdown();
    let clean_flag_rate = clean_flagged as f64 / n as f64;
    let uap_flag_rate = uap_flagged as f64 / n as f64;

    println!(
        "online: uap eps {uap_epsilon} fool rate {uap_fool_rate:.3}  \
         flag rate clean {clean_flag_rate:.3} vs uap {uap_flag_rate:.3}"
    );
    report.push("online.uap_epsilon", "linf", uap_epsilon);
    report.push("online.uap_fool_rate", "fraction", uap_fool_rate);
    report.push("online.clean_flag_rate", "fraction", clean_flag_rate);
    report
        .push("online.uap_flag_rate", "fraction", uap_flag_rate)
        .min(GATE_UAP_FLAG_RATE);
    report.push("online.requests_per_side", "count", n as f64);
    report
        .push(
            "online.uap_minus_clean_flagged",
            "count",
            uap_flagged as f64 - clean_flagged as f64,
        )
        .min(1.0);
}

/// Median single-request latency (µs) through the engine. `max_batch: 1`
/// dispatches every request immediately, so no batching delay pollutes
/// the measurement.
fn median_submit_us(fixture: &Fixture, guard: Option<GuardConfig>, iters: usize) -> f64 {
    let cal = guard.is_some().then(|| {
        // Any valid artifact works for timing: the cost is the variant
        // forwards, not the threshold compare.
        let clean: Vec<f64> = (0..32).map(|i| 0.01 * f64::from(i)).collect();
        let adv: Vec<f64> = (0..32).map(|i| 0.6 + 0.01 * f64::from(i)).collect();
        DetectorCalibration::calibrate("disagreement", &clean, &adv, 0.05).expect("calibration")
    });
    let registry = registry_of(fixture, cal.as_ref());
    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            guard,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    let sample_len: usize = fixture.setup.test.sample_shape().iter().product();
    let (x, _) = fixture.setup.test.slice(0, 8).expect("warm slice");
    let mut inputs = x.data().chunks(sample_len).map(<[f32]>::to_vec).cycle();
    let median = median_ns(iters, || {
        let input = inputs.next().expect("cycle never ends");
        engine.submit(input, false).expect("timed submit");
    });
    engine.shutdown();
    median as f64 / 1000.0
}

fn overhead_report(report: &mut Report, fixture: &Fixture, iters: usize) {
    let guard_off_us = median_submit_us(fixture, None, iters);
    let guard_on_us = median_submit_us(fixture, Some(GuardConfig::default()), iters);
    let ensemble_size = fixture.variants.len() + 1;
    println!(
        "guard overhead: off {guard_off_us:.1} us  on {guard_on_us:.1} us  \
         (+{:.1} us/request over {ensemble_size} ensemble members)",
        guard_on_us - guard_off_us
    );
    report.push("guard_overhead.iters", "count", iters as f64);
    report.push("guard_overhead.guard_off_us", "us", guard_off_us);
    report.push("guard_overhead.guard_on_us", "us", guard_on_us);
    report.push(
        "guard_overhead.overhead_us",
        "us",
        guard_on_us - guard_off_us,
    );
    report.push(
        "guard_overhead.ensemble_size",
        "count",
        ensemble_size as f64,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(
        std::env::args().skip(1),
        &[("--out", "BENCH_detect.json"), ("--iters", "200")],
    )?;
    let iters: usize = flags.num("--iters")?;
    let mut report = Report::new("detect");
    report.note = Some("scale tiny".into());
    report.push("seed", "id", SEED as f64);

    let scale = ExperimentScale::tiny();
    let fixture = build_fixture(&scale);
    let mut ensemble = ensemble_of(&fixture);
    let cal = gate_fixture(&mut report, &fixture, &mut ensemble);
    grid_report(&mut report, &scale);
    online_report(&mut report, &fixture, &cal);
    overhead_report(&mut report, &fixture, iters);
    report.finish(flags.get("--out"))?;
    Ok(())
}
