//! The attack × compression detection-evaluation grid.
//!
//! For one trained task this builds the deployed ensemble — dense
//! baseline plus every configured compression variant (optionally plus an
//! adversarially fine-tuned variant) — calibrates the detector on held-out
//! traffic, then measures, for every `(attack, surrogate)` cell, how well
//! the calibrated ensemble guard detects adversarial traffic crafted on
//! that surrogate:
//!
//! * **AUC** of the detector score (attacked vs. clean traffic);
//! * **detection rate** at the calibrated threshold;
//! * **attack success** — fraction of eval samples the baseline
//!   misclassifies after the attack;
//!
//! plus the **UAP transfer matrix**: the fool rate of a universal
//! perturbation crafted on member *i* when applied to member *j* (the
//! paper's transfer question, asked of universal instead of per-sample
//! perturbations).
//!
//! Cells run under the core resilience stack — supervised workers with
//! panic isolation and retries — and, when a run directory is given, a
//! checkpoint/resume journal with the same bit-exact resume guarantee as
//! the sweep grids: per-member records persist as soon as they complete
//! and are loaded instead of recomputed on re-runs.

use crate::{
    detector_by_name, DetectError, Detector, DetectorCalibration, Result, RocCurve, VariantEnsemble,
};
use advcomp_attacks::{craft_uap, Attack, Ifgm, Ifgsm, NetKind, PlannedEval, UapConfig};
use advcomp_core::advtrain::{adversarial_finetune, AdvTrainConfig};
use advcomp_core::journal::{point_key, Journal, PointRecord, PointStatus};
use advcomp_core::{
    run_supervised, Compression, CoreError, ExperimentScale, RetryPolicy, TaskSetup, TrainedModel,
};
use advcomp_nn::Sequential;
use advcomp_tensor::Tensor;
use std::path::PathBuf;

/// Attack identifiers evaluated per grid cell, in column order.
pub const GRID_ATTACKS: [&str; 3] = ["ifgsm", "ifgm", "uap"];

/// Configuration of one detection-grid run.
#[derive(Debug, Clone)]
pub struct DetectionGridConfig {
    /// Network/task to train the ensemble on.
    pub net: NetKind,
    /// Compression recipes producing the ensemble's variants (the
    /// baseline is always a member and needs no entry here).
    pub compressions: Vec<Compression>,
    /// Detector to calibrate and evaluate (a [`detector_by_name`] name).
    pub detector: String,
    /// Per-iteration attack step (IFGSM/IFGM) and UAP L∞ budget.
    pub epsilon: f32,
    /// Iterations for IFGSM/IFGM crafting.
    pub steps: usize,
    /// Epochs of UAP crafting over the crafting set.
    pub uap_epochs: usize,
    /// False-positive-rate budget for the calibrated operating point.
    pub target_fpr: f64,
    /// Seed for training, compression fine-tuning, and UAP crafting.
    pub seed: u64,
    /// Samples (from the training set) used to craft universal
    /// perturbations.
    pub craft_len: usize,
    /// Samples (from the test set) per evaluation batch; the calibration
    /// batch is the *next* `eval_len` test samples, so calibration traffic
    /// is held out from grid measurement.
    pub eval_len: usize,
    /// Also build an adversarially fine-tuned (hardened) variant and
    /// include it as an ensemble member and grid surrogate.
    pub include_hardened: bool,
    /// Journal directory for checkpoint/resume; `None` disables
    /// journaling.
    pub run_dir: Option<PathBuf>,
    /// Retry policy for grid-cell jobs.
    pub retry: RetryPolicy,
}

impl Default for DetectionGridConfig {
    fn default() -> Self {
        DetectionGridConfig {
            net: NetKind::LeNet5,
            compressions: vec![
                Compression::OneShotPrune { density: 0.5 },
                Compression::Quant {
                    bitwidth: 8,
                    weights_only: false,
                },
            ],
            detector: "disagreement".into(),
            epsilon: 0.05,
            steps: 8,
            uap_epochs: 4,
            target_fpr: 0.05,
            seed: 0,
            craft_len: 64,
            eval_len: 64,
            include_hardened: false,
            run_dir: None,
            retry: RetryPolicy::none(),
        }
    }
}

impl DetectionGridConfig {
    fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(DetectError::InvalidConfig(format!(
                "epsilon {} must be positive and finite",
                self.epsilon
            )));
        }
        if self.steps == 0 || self.uap_epochs == 0 {
            return Err(DetectError::InvalidConfig(
                "steps and uap_epochs must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.target_fpr) {
            return Err(DetectError::InvalidConfig(format!(
                "target FPR must be in [0, 1], got {}",
                self.target_fpr
            )));
        }
        if self.craft_len == 0 || self.eval_len < 2 {
            return Err(DetectError::InvalidConfig(
                "craft_len must be >= 1 and eval_len >= 2".into(),
            ));
        }
        if self.compressions.is_empty() && !self.include_hardened {
            return Err(DetectError::InvalidConfig(
                "grid needs at least one compression variant (or include_hardened)".into(),
            ));
        }
        if detector_by_name(&self.detector).is_none() {
            return Err(DetectError::InvalidConfig(format!(
                "unknown detector {:?}",
                self.detector
            )));
        }
        Ok(())
    }
}

/// One `(surrogate, attack)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Ensemble member the attack was crafted on.
    pub surrogate: String,
    /// Attack identifier (one of [`GRID_ATTACKS`]).
    pub attack: &'static str,
    /// Detector-score AUC: attacked vs. clean eval traffic.
    pub auc: f64,
    /// Fraction of attacked traffic flagged at the calibrated threshold.
    pub detection_rate: f64,
    /// Fraction of eval samples the baseline misclassifies post-attack.
    pub attack_success: f64,
}

/// A grid cell that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct GridFailure {
    /// Ensemble member whose cells failed.
    pub surrogate: String,
    /// Final error (or panic) message.
    pub error: String,
    /// Attempts consumed.
    pub attempts: u32,
}

/// Result of one detection-grid run.
#[derive(Debug, Clone)]
pub struct DetectionGrid {
    /// The calibration chosen on held-out traffic (what serve deploys).
    pub calibration: DetectorCalibration,
    /// Ensemble member names, baseline first.
    pub members: Vec<String>,
    /// Clean eval-batch accuracy per member (same order as `members`).
    pub clean_accuracy: Vec<f64>,
    /// All completed cells, surrogate-major in `members` ×
    /// [`GRID_ATTACKS`] order.
    pub cells: Vec<GridCell>,
    /// `transfer[i][j]` = fool rate on member *j* of the UAP crafted on
    /// member *i* (rows for failed members are empty).
    pub transfer: Vec<Vec<f64>>,
    /// Members restored from the journal instead of recomputed.
    pub resumed: usize,
    /// Members whose cells permanently failed.
    pub failed: Vec<GridFailure>,
}

impl DetectionGrid {
    /// The completed cell for `(surrogate, attack)`, if any.
    pub fn cell(&self, surrogate: &str, attack: &str) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| c.surrogate == surrogate && c.attack == attack)
    }
}

/// One ensemble member: name, sweep coordinate, and its model.
struct Member {
    name: String,
    x: f64,
    model: Sequential,
}

/// Per-member outcome produced by one supervised job.
struct MemberOutcome {
    clean_accuracy: f64,
    /// `(auc, detection_rate, attack_success)` per [`GRID_ATTACKS`] entry.
    attacks: Vec<(f64, f64, f64)>,
    /// UAP fool rate on each ensemble member.
    transfer: Vec<f64>,
}

struct PreparedGrid<'a> {
    cfg: &'a DetectionGridConfig,
    members: Vec<Member>,
    x_eval: Tensor,
    y_eval: Vec<usize>,
    x_craft: Tensor,
    y_craft: Vec<usize>,
    sample_shape: Vec<usize>,
    clean_scores: Vec<f64>,
    calibration: DetectorCalibration,
}

fn to_job_error(e: DetectError) -> CoreError {
    CoreError::Job(e.to_string())
}

impl PreparedGrid<'_> {
    fn detector(&self) -> Box<dyn Detector> {
        detector_by_name(&self.cfg.detector).expect("validated detector name")
    }

    /// Journal key for member `i`: hashes everything that determines its
    /// cells, including the detector, attack budgets, operating point, and
    /// ensemble roster (the transfer row's length and meaning depend on
    /// the full member list).
    fn key(&self, i: usize, scale: &ExperimentScale) -> String {
        let roster: Vec<&str> = self.members.iter().map(|m| m.name.as_str()).collect();
        let recipe = format!(
            "detect|member={}|det={}|eps={:?}|steps={}|uap_epochs={}|fpr={:?}|craft={}|eval={}|roster={}",
            self.members[i].name,
            self.cfg.detector,
            self.cfg.epsilon,
            self.cfg.steps,
            self.cfg.uap_epochs,
            self.cfg.target_fpr,
            self.cfg.craft_len,
            self.cfg.eval_len,
            roster.join(","),
        );
        point_key(
            &format!("detect:{}", self.net_id()),
            &GRID_ATTACKS,
            self.members[i].x,
            &recipe,
            self.cfg.seed,
            scale,
        )
    }

    fn net_id(&self) -> &'static str {
        self.cfg.net.id()
    }

    /// A journalled record is resumable only if it carries exactly the
    /// triples this roster expects (3 attacks + one transfer entry per
    /// member).
    fn resumable(&self, rec: &PointRecord) -> bool {
        rec.status == PointStatus::Ok
            && rec.scenarios.len() == GRID_ATTACKS.len() + self.members.len()
    }

    /// Computes every cell for member `i`: craft each attack on the
    /// member's model, score the attacked traffic with the *full*
    /// ensemble, and measure the UAP's transfer to every member.
    fn run_member(&self, i: usize) -> advcomp_core::Result<MemberOutcome> {
        self.run_member_inner(i).map_err(to_job_error)
    }

    fn run_member_inner(&self, i: usize) -> Result<MemberOutcome> {
        let detector = self.detector();
        // Each job owns its surrogate clone (crafting mutates gradient
        // state) and its plans (plans are per-thread).
        let mut surrogate = self.members[i].model.clone();
        let mut ensemble = ensemble_of(&self.members, &self.sample_shape)?;

        let clean_accuracy = PlannedEval::compile(&self.members[i].model, &self.sample_shape)?
            .accuracy(&self.x_eval, &self.y_eval)?;

        let mut attacks = Vec::with_capacity(GRID_ATTACKS.len());
        let mut transfer = Vec::with_capacity(self.members.len());
        for attack in GRID_ATTACKS {
            let adv = match attack {
                "ifgsm" => Ifgsm::new(self.cfg.epsilon, self.cfg.steps)?.generate(
                    &mut surrogate,
                    &self.x_eval,
                    &self.y_eval,
                )?,
                "ifgm" => Ifgm::new(self.cfg.epsilon, self.cfg.steps)?.generate(
                    &mut surrogate,
                    &self.x_eval,
                    &self.y_eval,
                )?,
                "uap" => {
                    let uap_cfg = UapConfig {
                        epsilon: self.cfg.epsilon,
                        step: self.cfg.epsilon / 4.0,
                        epochs: self.cfg.uap_epochs,
                        batch: 32,
                        seed: self.cfg.seed,
                    };
                    let uap = craft_uap(&mut surrogate, &self.x_craft, &self.y_craft, &uap_cfg)?;
                    // The universal delta is what transfers: measure its
                    // fool rate on every member while we hold it.
                    for m in &self.members {
                        transfer.push(uap.fool_rate(&m.model, &self.x_eval)?);
                    }
                    uap.apply(&self.x_eval)?
                }
                _ => unreachable!("GRID_ATTACKS is fixed"),
            };
            let scores = ensemble.score(detector.as_ref(), &adv)?;
            let auc = RocCurve::from_scores(&self.clean_scores, &scores)?.auc();
            let detection_rate = scores
                .iter()
                .filter(|&&s| s >= self.calibration.threshold)
                .count() as f64
                / scores.len() as f64;
            let attack_success = 1.0 - ensemble.baseline_accuracy(&adv, &self.y_eval)?;
            attacks.push((auc, detection_rate, attack_success));
        }
        Ok(MemberOutcome {
            clean_accuracy,
            attacks,
            transfer,
        })
    }

    fn record_ok(
        &self,
        i: usize,
        out: &MemberOutcome,
        attempts: u32,
        scale: &ExperimentScale,
    ) -> PointRecord {
        let mut scenarios = out.attacks.clone();
        scenarios.extend(out.transfer.iter().map(|&f| (f, 0.0, 0.0)));
        PointRecord {
            key: self.key(i, scale),
            x: self.members[i].x,
            compression: self.members[i].name.clone(),
            status: PointStatus::Ok,
            attempts,
            base_accuracy: out.clean_accuracy,
            scenarios,
            health: Vec::new(),
            error: None,
        }
    }

    fn outcome_from_record(&self, rec: &PointRecord) -> MemberOutcome {
        MemberOutcome {
            clean_accuracy: rec.base_accuracy,
            attacks: rec.scenarios[..GRID_ATTACKS.len()].to_vec(),
            transfer: rec.scenarios[GRID_ATTACKS.len()..]
                .iter()
                .map(|t| t.0)
                .collect(),
        }
    }
}

/// The deployed ensemble: member 0 as the baseline, the rest as variants.
fn ensemble_of(members: &[Member], sample_shape: &[usize]) -> Result<VariantEnsemble> {
    let mut ensemble =
        VariantEnsemble::new(members[0].name.clone(), &members[0].model, sample_shape)?;
    for m in &members[1..] {
        ensemble.push_variant(m.name.clone(), &m.model)?;
    }
    Ok(ensemble)
}

/// Coordinate a compression recipe occupies on the grid's x axis (density
/// for pruning, bitwidth for quantisation, 1.0 for the identity recipe).
fn coordinate(c: &Compression) -> f64 {
    match c {
        Compression::None => 1.0,
        Compression::DnsPrune { density } | Compression::OneShotPrune { density } => *density,
        Compression::Quant { bitwidth, .. } => f64::from(*bitwidth),
    }
}

/// Trains the task, builds the ensemble, calibrates the detector on
/// held-out traffic, and evaluates every `(attack, surrogate)` cell under
/// the supervised-worker resilience stack (journaled when
/// [`DetectionGridConfig::run_dir`] is set).
///
/// # Errors
///
/// Rejects invalid configurations; propagates training, compression,
/// calibration, and journal errors. Per-cell compute failures do *not*
/// error — they land in [`DetectionGrid::failed`].
pub fn run_detection_grid(
    cfg: &DetectionGridConfig,
    scale: &ExperimentScale,
) -> Result<DetectionGrid> {
    cfg.validate()?;
    let journal = match &cfg.run_dir {
        Some(dir) => Some(Journal::open(dir).map_err(DetectError::Core)?),
        None => None,
    };

    let setup = TaskSetup::new(cfg.net, scale);
    let trained = TrainedModel::train(&setup, scale, cfg.seed)?;
    let baseline = trained.instantiate()?;
    let finetune = setup.finetune_config(scale);

    let mut members = vec![Member {
        name: "baseline".into(),
        x: 1.0,
        model: baseline.clone(),
    }];
    for c in &cfg.compressions {
        let mut model = baseline.clone();
        c.apply(&mut model, &setup.train, &finetune)?;
        members.push(Member {
            name: c.id(),
            x: coordinate(c),
            model,
        });
    }
    if cfg.include_hardened {
        let mut model = baseline.clone();
        let attack = Ifgsm::new(cfg.epsilon, cfg.steps)?;
        let adv_cfg = AdvTrainConfig {
            seed: cfg.seed,
            ..AdvTrainConfig::default()
        };
        adversarial_finetune(&mut model, &setup.train, &attack, &adv_cfg)?;
        members.push(Member {
            name: "hardened".into(),
            x: 0.0,
            model,
        });
    }

    let (x_eval, y_eval) = setup
        .test
        .slice(0, cfg.eval_len)
        .map_err(|e| DetectError::InvalidConfig(format!("eval slice: {e}")))?;
    let (x_cal, y_cal) = setup
        .test
        .slice(cfg.eval_len, cfg.eval_len)
        .map_err(|e| DetectError::InvalidConfig(format!("calibration slice: {e}")))?;
    let (x_craft, y_craft) = setup
        .train
        .slice(0, cfg.craft_len)
        .map_err(|e| DetectError::InvalidConfig(format!("craft slice: {e}")))?;
    let sample_shape: Vec<usize> = x_eval.shape()[1..].to_vec();

    // Calibrate on the held-out batch: clean scores vs. IFGSM-on-baseline
    // scores, operating point at the configured FPR budget.
    let detector = detector_by_name(&cfg.detector).expect("validated detector name");
    let mut ensemble = ensemble_of(&members, &sample_shape)?;
    let cal_clean = ensemble.score(detector.as_ref(), &x_cal)?;
    let cal_attack = Ifgsm::new(cfg.epsilon, cfg.steps)?;
    let x_cal_adv = cal_attack.generate(&mut members[0].model.clone(), &x_cal, &y_cal)?;
    let cal_adv = ensemble.score(detector.as_ref(), &x_cal_adv)?;
    let calibration =
        DetectorCalibration::calibrate(&cfg.detector, &cal_clean, &cal_adv, cfg.target_fpr)?;

    // Clean reference scores on the *measurement* batch, shared by every
    // cell's AUC computation.
    let clean_scores = ensemble.score(detector.as_ref(), &x_eval)?;

    let prepared = PreparedGrid {
        cfg,
        members,
        x_eval,
        y_eval,
        x_craft,
        y_craft,
        sample_shape,
        clean_scores,
        calibration,
    };

    // Fill member slots from the journal, then compute the rest under
    // supervision.
    let n = prepared.members.len();
    let mut slots: Vec<Option<MemberOutcome>> = (0..n).map(|_| None).collect();
    let mut resumed = 0usize;
    if let Some(j) = &journal {
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some(rec) = j.load(&prepared.key(i, scale)).map_err(DetectError::Core)? {
                if prepared.resumable(&rec) {
                    *slot = Some(prepared.outcome_from_record(&rec));
                    resumed += 1;
                }
            }
        }
    }
    let pending: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    let jobs: Vec<_> = pending
        .iter()
        .map(|&i| {
            let prepared = &prepared;
            move || prepared.run_member(i)
        })
        .collect();
    let outcomes = run_supervised(jobs, scale.workers(), &cfg.retry);

    let mut failed = Vec::new();
    for (&i, outcome) in pending.iter().zip(outcomes) {
        match outcome {
            Ok((out, attempts)) => {
                if let Some(j) = &journal {
                    // Best-effort persistence, same policy as the sweeps: a
                    // journal-write failure degrades resume, never the run.
                    let _ = j.store(&prepared.record_ok(i, &out, attempts, scale));
                }
                slots[i] = Some(out);
            }
            Err(f) => failed.push(GridFailure {
                surrogate: prepared.members[i].name.clone(),
                error: f.error,
                attempts: f.attempts,
            }),
        }
    }

    let member_names: Vec<String> = prepared.members.iter().map(|m| m.name.clone()).collect();
    let mut cells = Vec::new();
    let mut clean_accuracy = vec![0.0; n];
    let mut transfer = vec![Vec::new(); n];
    for (i, slot) in slots.into_iter().enumerate() {
        let Some(out) = slot else { continue };
        clean_accuracy[i] = out.clean_accuracy;
        transfer[i] = out.transfer;
        for (attack, &(auc, detection_rate, attack_success)) in
            GRID_ATTACKS.iter().zip(&out.attacks)
        {
            cells.push(GridCell {
                surrogate: member_names[i].clone(),
                attack,
                auc,
                detection_rate,
                attack_success,
            });
        }
    }

    Ok(DetectionGrid {
        calibration: prepared.calibration,
        members: member_names,
        clean_accuracy,
        cells,
        transfer,
        resumed,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> DetectionGridConfig {
        DetectionGridConfig {
            compressions: vec![Compression::OneShotPrune { density: 0.5 }],
            epsilon: 0.05,
            steps: 6,
            uap_epochs: 2,
            craft_len: 48,
            eval_len: 32,
            seed: 5,
            ..DetectionGridConfig::default()
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        let base = tiny_cfg();
        for bad in [
            DetectionGridConfig {
                epsilon: 0.0,
                ..base.clone()
            },
            DetectionGridConfig {
                steps: 0,
                ..base.clone()
            },
            DetectionGridConfig {
                target_fpr: 1.5,
                ..base.clone()
            },
            DetectionGridConfig {
                eval_len: 1,
                ..base.clone()
            },
            DetectionGridConfig {
                compressions: vec![],
                include_hardened: false,
                ..base.clone()
            },
            DetectionGridConfig {
                detector: "nope".into(),
                ..base.clone()
            },
        ] {
            assert!(run_detection_grid(&bad, &ExperimentScale::tiny()).is_err());
        }
    }

    #[test]
    fn grid_runs_and_resumes_bit_exactly() {
        let scale = ExperimentScale::tiny();
        let dir = std::env::temp_dir().join(format!("advcomp_detect_grid_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = DetectionGridConfig {
            run_dir: Some(dir.clone()),
            // Divergence is the continuous score: with a single variant the
            // disagreement score is binary and its tiny-scale AUC is noisy.
            detector: "divergence".into(),
            ..tiny_cfg()
        };
        let grid = run_detection_grid(&cfg, &scale).unwrap();
        assert_eq!(grid.members, vec!["baseline", "oneshot-d0.500"]);
        assert_eq!(grid.resumed, 0);
        assert!(grid.failed.is_empty());
        assert_eq!(grid.cells.len(), 2 * GRID_ATTACKS.len());
        for c in &grid.cells {
            assert!((0.0..=1.0).contains(&c.auc), "{c:?}");
            assert!((0.0..=1.0).contains(&c.detection_rate), "{c:?}");
            assert!((0.0..=1.0).contains(&c.attack_success), "{c:?}");
        }
        // The calibrated threshold honours the FPR budget on its own set.
        assert!(grid.calibration.observed_fpr <= cfg.target_fpr);
        // The white-box IFGSM-on-baseline cell is the calibration's own
        // regime: it must separate well at tiny scale.
        let wb = grid.cell("baseline", "ifgsm").unwrap();
        assert!(wb.auc > 0.6, "white-box AUC collapsed: {wb:?}");
        // Transfer matrix is square with unit-interval entries.
        assert_eq!(grid.transfer.len(), 2);
        for row in &grid.transfer {
            assert_eq!(row.len(), 2);
            assert!(row.iter().all(|f| (0.0..=1.0).contains(f)));
        }
        assert!(
            grid.clean_accuracy.iter().all(|&a| a > 0.5),
            "{:?}",
            grid.clean_accuracy
        );

        // Second run resumes every member from the journal, bit-exactly.
        let again = run_detection_grid(&cfg, &scale).unwrap();
        assert_eq!(again.resumed, 2);
        assert_eq!(again.cells, grid.cells);
        assert_eq!(again.transfer, grid.transfer);
        assert_eq!(again.clean_accuracy, grid.clean_accuracy);
        std::fs::remove_dir_all(&dir).ok();
    }
}
