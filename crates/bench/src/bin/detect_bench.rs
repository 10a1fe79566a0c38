//! Machine-readable detection-subsystem benchmark.
//!
//! Exercises the whole calibrated-detection pipeline on the deterministic
//! stub-RNG task (seeded synthetic digits, LeNet-5 baseline) and writes
//! `BENCH_detect.json`:
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
//! Run via `scripts/bench_detect.sh`, or directly:
//!
//! ```text
//! cargo run --release -p advcomp-bench --bin detect_bench -- \
//!     [--out FILE] [--iters N] [--check-detect]
//! ```
//!
//! `--check-detect` exits non-zero when the gate fixture's AUC drops below
//! 0.9 or when the offline-crafted UAP is no longer flagged online above
//! the clean false-positive rate — the regression gate `scripts/check.sh`
//! relies on, mirroring the other `--check-*` benches.

use advcomp_attacks::{craft_uap, Attack, Ifgsm, NetKind, PlannedEval, UapConfig};
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
use serde::Serialize;
use std::time::{Duration, Instant};

/// The AUC floor `--check-detect` enforces on the gate fixture.
const GATE_AUC: f64 = 0.9;
/// The online UAP flag-rate floor `--check-detect` enforces.
const GATE_UAP_FLAG_RATE: f64 = 0.15;
/// Seed of the benchmark task (training, compression, crafting).
const SEED: u64 = 42;

#[derive(Serialize)]
struct FixtureReport {
    detector: String,
    attack: String,
    epsilon: f32,
    steps: usize,
    /// Clean negatives: test samples the baseline classifies correctly.
    clean_n: usize,
    /// Adversarial positives: correctly-classified samples the attack
    /// actually flips on the surrogate (unsuccessful perturbations carry
    /// no boundary-crossing signal to detect).
    adv_n: usize,
    auc: f64,
    gate_auc: f64,
}

#[derive(Serialize)]
struct CalibrationReport {
    detector: String,
    threshold: f64,
    target_fpr: f64,
    observed_fpr: f64,
    observed_tpr: f64,
    auc: f64,
}

#[derive(Serialize)]
struct GridCellReport {
    surrogate: String,
    attack: String,
    auc: f64,
    detection_rate: f64,
    attack_success: f64,
}

#[derive(Serialize)]
struct GridReport {
    members: Vec<String>,
    clean_accuracy: Vec<f64>,
    calibration: CalibrationReport,
    cells: Vec<GridCellReport>,
    /// `uap_transfer[i][j]` = fool rate on member *j* of the UAP crafted
    /// on member *i*.
    uap_transfer: Vec<Vec<f64>>,
}

#[derive(Serialize)]
struct OnlineReport {
    uap_epsilon: f32,
    uap_fool_rate: f64,
    clean_flag_rate: f64,
    uap_flag_rate: f64,
    requests_per_side: usize,
}

#[derive(Serialize)]
struct OverheadReport {
    iters: usize,
    guard_off_us: f64,
    guard_on_us: f64,
    overhead_us: f64,
    ensemble_size: usize,
}

#[derive(Serialize)]
struct DetectReport {
    scale: String,
    seed: u64,
    fixture: FixtureReport,
    calibration: CalibrationReport,
    grid: GridReport,
    online: OnlineReport,
    guard_overhead: OverheadReport,
}

fn calibration_report(cal: &DetectorCalibration) -> CalibrationReport {
    CalibrationReport {
        detector: cal.detector.clone(),
        threshold: cal.threshold,
        target_fpr: cal.target_fpr,
        observed_fpr: cal.observed_fpr,
        observed_tpr: cal.observed_tpr,
        auc: cal.auc,
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
    fixture: &Fixture,
    ensemble: &mut VariantEnsemble,
) -> (FixtureReport, DetectorCalibration) {
    let (epsilon, steps) = (0.005f32, 8usize);
    let n = fixture.setup.test.len();
    let (x, y) = fixture.setup.test.slice(0, n).expect("test slice");
    let detector = detector_by_name("disagreement").expect("known detector");

    let mut surrogate = fixture.dense.clone();
    let adv = Ifgsm::new(epsilon, steps)
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
    (
        FixtureReport {
            detector: "disagreement".into(),
            attack: "ifgsm".into(),
            epsilon,
            steps,
            clean_n: clean.len(),
            adv_n: adv.len(),
            auc,
            gate_auc: GATE_AUC,
        },
        cal,
    )
}

fn grid_report(scale: &ExperimentScale) -> GridReport {
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
    for c in &grid.cells {
        println!(
            "grid {}/{}: auc {:.3}  detection {:.3}  attack success {:.3}",
            c.surrogate, c.attack, c.auc, c.detection_rate, c.attack_success
        );
    }
    GridReport {
        members: grid.members.clone(),
        clean_accuracy: grid.clean_accuracy.clone(),
        calibration: calibration_report(&grid.calibration),
        cells: grid
            .cells
            .iter()
            .map(|c| GridCellReport {
                surrogate: c.surrogate.clone(),
                attack: c.attack.into(),
                auc: c.auc,
                detection_rate: c.detection_rate,
                attack_success: c.attack_success,
            })
            .collect(),
        uap_transfer: grid.transfer,
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
fn online_report(fixture: &Fixture, cal: &DetectorCalibration) -> OnlineReport {
    let uap_epsilon = 0.2f32;
    let (x_craft, y_craft) = fixture.setup.train.slice(0, 64).expect("craft slice");
    let mut surrogate = fixture.dense.clone();
    let uap = craft_uap(
        &mut surrogate,
        &x_craft,
        &y_craft,
        &UapConfig {
            epsilon: uap_epsilon,
            step: uap_epsilon / 5.0,
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
    let flag_fraction = |images: &Tensor, tag: Option<&str>| -> f64 {
        let mut flagged = 0usize;
        for i in 0..n {
            let input = images.data()[i * sample_len..(i + 1) * sample_len].to_vec();
            let pred = engine
                .submit_tagged(input, false, tag.map(str::to_string))
                .expect("submit");
            flagged += usize::from(pred.flagged.expect("guard verdict"));
        }
        flagged as f64 / n as f64
    };
    let clean_flag_rate = flag_fraction(&x_eval, None);
    let uap_flag_rate = flag_fraction(&x_uap, Some("uap"));
    engine.shutdown();

    println!(
        "online: uap eps {uap_epsilon} fool rate {uap_fool_rate:.3}  \
         flag rate clean {clean_flag_rate:.3} vs uap {uap_flag_rate:.3}"
    );
    OnlineReport {
        uap_epsilon,
        uap_fool_rate,
        clean_flag_rate,
        uap_flag_rate,
        requests_per_side: n,
    }
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
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|i| x.data()[i * sample_len..(i + 1) * sample_len].to_vec())
        .collect();
    for input in &inputs {
        engine.submit(input.clone(), false).expect("warm submit");
    }
    let mut samples: Vec<u64> = (0..iters)
        .map(|i| {
            let input = inputs[i % inputs.len()].clone();
            let t0 = Instant::now();
            engine.submit(input, false).expect("timed submit");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    engine.shutdown();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / 1000.0
}

fn overhead_report(fixture: &Fixture, iters: usize) -> OverheadReport {
    let guard_off_us = median_submit_us(fixture, None, iters);
    let guard_on_us = median_submit_us(fixture, Some(GuardConfig::default()), iters);
    println!(
        "guard overhead: off {guard_off_us:.1} us  on {guard_on_us:.1} us  \
         (+{:.1} us/request over {} ensemble members)",
        guard_on_us - guard_off_us,
        fixture.variants.len() + 1
    );
    OverheadReport {
        iters,
        guard_off_us,
        guard_on_us,
        overhead_us: guard_on_us - guard_off_us,
        ensemble_size: fixture.variants.len() + 1,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out_path = String::from("BENCH_detect.json");
    let mut iters = 200usize;
    let mut check_detect = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(v) = args.next() {
                    out_path = v;
                }
            }
            "--iters" => {
                if let Some(v) = args.next() {
                    iters = v.parse()?;
                }
            }
            "--check-detect" => check_detect = true,
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }

    let scale = ExperimentScale::tiny();
    let fixture = build_fixture(&scale);
    let mut ensemble = ensemble_of(&fixture);
    let (fixture_report, cal) = gate_fixture(&fixture, &mut ensemble);
    let grid = grid_report(&scale);
    let online = online_report(&fixture, &cal);
    let guard_overhead = overhead_report(&fixture, iters);

    let report = DetectReport {
        scale: "tiny".into(),
        seed: SEED,
        fixture: fixture_report,
        calibration: calibration_report(&cal),
        grid,
        online,
        guard_overhead,
    };
    std::fs::write(&out_path, serde_json::to_string_pretty(&report)?)?;
    println!("wrote {out_path}");

    if check_detect {
        if report.fixture.auc < GATE_AUC {
            return Err(format!(
                "--check-detect: gate-fixture AUC {:.3} below the {GATE_AUC} floor \
                 (ifgsm eps {} x{}, {} clean vs {} successful-adversarial)",
                report.fixture.auc,
                report.fixture.epsilon,
                report.fixture.steps,
                report.fixture.clean_n,
                report.fixture.adv_n
            )
            .into());
        }
        if report.online.uap_flag_rate <= report.online.clean_flag_rate {
            return Err(format!(
                "--check-detect: guard is blind to the offline-crafted UAP online: \
                 clean flag rate {:.3} vs uap {:.3}",
                report.online.clean_flag_rate, report.online.uap_flag_rate
            )
            .into());
        }
        if report.online.uap_flag_rate < GATE_UAP_FLAG_RATE {
            return Err(format!(
                "--check-detect: online UAP flag rate {:.3} below the {GATE_UAP_FLAG_RATE} \
                 floor at the calibrated threshold {:.3}",
                report.online.uap_flag_rate, report.calibration.threshold
            )
            .into());
        }
    }
    Ok(())
}
