//! Density and bitwidth sweeps — the machinery behind Figures 2–5.

use crate::compression::Compression;
use crate::journal::{point_key, Journal, PointRecord, PointStatus};
use crate::resilience::RetryPolicy;
use crate::runner::run_supervised;
use crate::scale::ExperimentScale;
use crate::trainer::{evaluate_planned, TaskSetup, TrainedModel};
use crate::{CoreError, Result};
use advcomp_attacks::{AttackKind, NetKind, PaperParams, PlannedEval};
use advcomp_compress::TrainConfig;
use advcomp_nn::{faults, health};
use advcomp_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One point on a Figure 2/5-style curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The sweep coordinate: weight density (pruning) or bitwidth
    /// (quantisation).
    pub x: f64,
    /// Compression recipe identifier.
    pub compression: String,
    /// Clean test accuracy of the compressed model (the paper's blue
    /// "BASE ACC" line).
    pub base_accuracy: f64,
    /// Scenario 1: accuracy of the compressed model on samples generated
    /// from itself (green line).
    pub comp_to_comp: f64,
    /// Scenario 2: accuracy of the compressed model on samples generated
    /// from the baseline (cyan line).
    pub full_to_comp: f64,
    /// Scenario 3: accuracy of the *baseline* on samples generated from the
    /// compressed model (red line).
    pub comp_to_full: f64,
}

/// A complete Figure 2/5 curve for one (network, attack) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Network identifier.
    pub net: String,
    /// Attack identifier.
    pub attack: String,
    /// Clean test accuracy of the uncompressed baseline.
    pub baseline_accuracy: f64,
    /// Final training loss of the baseline (LeNet5's is much smaller than
    /// CifarNet's — the paper's §4.1 explanation for attack difficulty).
    pub baseline_loss: f32,
    /// Points in sweep order.
    pub points: Vec<SweepPoint>,
}

/// Recipe list builders shared by [`TransferSweep`] and [`TransferMatrix`].
fn pruning_recipes(densities: &[f64], one_shot: bool) -> Vec<(f64, Compression)> {
    densities
        .iter()
        .map(|&d| {
            if d >= 1.0 {
                (d, Compression::None)
            } else if one_shot {
                (d, Compression::OneShotPrune { density: d })
            } else {
                (d, Compression::DnsPrune { density: d })
            }
        })
        .collect()
}

fn quant_recipes(bitwidths: &[u32], weights_only: bool) -> Vec<(f64, Compression)> {
    bitwidths
        .iter()
        .map(|&b| {
            if b >= 32 {
                (b as f64, Compression::None)
            } else {
                (
                    b as f64,
                    Compression::Quant {
                        bitwidth: b,
                        weights_only,
                    },
                )
            }
        })
        .collect()
}

/// A full exhibit run: one trained baseline, a family of compressed
/// variants, and **several attacks** evaluated on each variant. Compressing
/// once per recipe and reusing it across attacks is what makes Figures 2
/// and 5 affordable on CPU.
#[derive(Debug, Clone)]
pub struct TransferMatrix {
    /// Which network to train and compress.
    pub net: NetKind,
    /// Attacks to evaluate (at their Table 1 parameters).
    pub attacks: Vec<AttackKind>,
    /// `(x coordinate, recipe)` pairs, e.g. densities or bitwidths.
    pub recipes: Vec<(f64, Compression)>,
}

impl TransferMatrix {
    /// Figure 2: DNS-pruning sweep over `densities` for all `attacks`.
    pub fn pruning(net: NetKind, attacks: Vec<AttackKind>, densities: &[f64]) -> Self {
        TransferMatrix {
            net,
            attacks,
            recipes: pruning_recipes(densities, false),
        }
    }

    /// Ablation: one-shot pruning instead of DNS.
    pub fn pruning_one_shot(net: NetKind, attacks: Vec<AttackKind>, densities: &[f64]) -> Self {
        TransferMatrix {
            net,
            attacks,
            recipes: pruning_recipes(densities, true),
        }
    }

    /// Figure 5: weight+activation quantisation sweep over `bitwidths`
    /// (32 = float32 baseline).
    pub fn quantisation(net: NetKind, attacks: Vec<AttackKind>, bitwidths: &[u32]) -> Self {
        TransferMatrix {
            net,
            attacks,
            recipes: quant_recipes(bitwidths, false),
        }
    }

    /// Ablation: weights-only quantisation (isolates the activation
    /// clipping effect of §4.2).
    pub fn quantisation_weights_only(
        net: NetKind,
        attacks: Vec<AttackKind>,
        bitwidths: &[u32],
    ) -> Self {
        TransferMatrix {
            net,
            attacks,
            recipes: quant_recipes(bitwidths, true),
        }
    }

    /// Runs the matrix: trains the baseline once (seed 7), compresses each
    /// recipe once, evaluates all attacks on it, and returns one
    /// [`SweepResult`] per attack (in `self.attacks` order).
    ///
    /// # Errors
    ///
    /// Propagates training, compression and attack errors; rejects empty
    /// attack or recipe lists.
    pub fn run(&self, scale: &ExperimentScale) -> Result<Vec<SweepResult>> {
        self.run_with_baseline_seed(scale, 7)
    }

    /// [`TransferMatrix::run`] with an explicit baseline-training seed.
    ///
    /// Fail-fast wrapper over [`TransferMatrix::run_resilient`]: no journal,
    /// no retries, and any failed point (panic included) surfaces as an
    /// error — the semantics tests and short diagnostics want.
    ///
    /// # Errors
    ///
    /// Same as [`TransferMatrix::run`].
    pub fn run_with_baseline_seed(
        &self,
        scale: &ExperimentScale,
        seed: u64,
    ) -> Result<Vec<SweepResult>> {
        let cfg = RunConfig {
            seed,
            run_dir: None,
            retry: RetryPolicy::none(),
        };
        let run = self.run_resilient(scale, &cfg)?;
        if let Some(f) = run.failed.first() {
            return Err(CoreError::Job(format!(
                "sweep point x={} ({}): {}",
                f.x, f.compression, f.error
            )));
        }
        Ok(run.results)
    }

    /// Trains the baseline and precomputes everything point execution
    /// needs: per-attack evaluation sets, baseline-generated adversarial
    /// samples (Scenario 2 inputs) and per-point journal keys. The result
    /// is self-contained and `Sync`, so one [`PreparedMatrix`] can be
    /// shared (e.g. behind an `Arc`) by local workers, the distributed
    /// coordinator and its in-process workers alike.
    ///
    /// # Errors
    ///
    /// Rejects empty attack/recipe lists; propagates baseline-training,
    /// data and attack errors.
    pub fn prepare(&self, scale: &ExperimentScale, seed: u64) -> Result<PreparedMatrix> {
        if self.recipes.is_empty() {
            return Err(CoreError::InvalidConfig("sweep has no recipes".into()));
        }
        if self.attacks.is_empty() {
            return Err(CoreError::InvalidConfig("sweep has no attacks".into()));
        }
        let setup = TaskSetup::new(self.net, scale);
        let baseline = TrainedModel::train(&setup, scale, seed)?;
        let finetune_cfg = setup.finetune_config(scale);

        // Per-attack evaluation sets and baseline-generated adversarial
        // samples — these do not depend on the recipe, so compute them once.
        let mut eval_sets: Vec<(Tensor, Vec<usize>)> = Vec::new();
        let mut adv_from_full: Vec<Tensor> = Vec::new();
        {
            let mut full = baseline.instantiate()?;
            for &kind in &self.attacks {
                let n = eval_count(kind, scale, setup.test.len());
                let (x, y) = setup.test.slice(0, n)?;
                let attack = PaperParams::build_adapted(self.net, kind);
                let adv = attack.generate(&mut full, &x, &y)?;
                eval_sets.push((x, y));
                adv_from_full.push(adv);
            }
        }

        let attack_ids: Vec<&str> = self.attacks.iter().map(|k| k.id()).collect();
        let keys: Vec<String> = self
            .recipes
            .iter()
            .map(|(x, recipe)| point_key(self.net.id(), &attack_ids, *x, &recipe.id(), seed, scale))
            .collect();

        Ok(PreparedMatrix {
            net: self.net,
            attacks: self.attacks.clone(),
            recipes: self.recipes.clone(),
            scale: *scale,
            seed,
            setup,
            baseline,
            finetune_cfg,
            eval_sets,
            adv_from_full,
            keys,
        })
    }

    /// Runs the matrix under the full resilience stack: supervised workers
    /// (panic isolation + [`RetryPolicy`] retries), per-point numerical
    /// health capture, and — when [`RunConfig::run_dir`] is set — a
    /// checkpoint/resume journal. Completed points found in the journal are
    /// loaded instead of recomputed (bit-exactly, see [`crate::journal`]);
    /// points that exhaust their retry budget are recorded in
    /// [`MatrixRun::failed`] and omitted from the curves instead of sinking
    /// the whole run.
    ///
    /// # Errors
    ///
    /// Rejects empty attack/recipe lists, propagates baseline-training and
    /// journal-corruption errors. Per-point compute failures do *not* error
    /// here — they land in [`MatrixRun::failed`].
    pub fn run_resilient(&self, scale: &ExperimentScale, cfg: &RunConfig) -> Result<MatrixRun> {
        if self.recipes.is_empty() {
            return Err(CoreError::InvalidConfig("sweep has no recipes".into()));
        }
        if self.attacks.is_empty() {
            return Err(CoreError::InvalidConfig("sweep has no attacks".into()));
        }
        // Open the journal before training: a bad run_dir should surface
        // before the expensive part, not after.
        let journal = match &cfg.run_dir {
            Some(dir) => Some(Journal::open(dir)?),
            None => None,
        };
        let prepared = self.prepare(scale, cfg.seed)?;
        let mut health_log = prepared.baseline_health();

        // One slot per recipe, filled either from the journal or by compute.
        let mut slots: Vec<Option<PointRecord>> = (0..self.recipes.len()).map(|_| None).collect();
        let mut resumed = 0usize;
        if let Some(j) = &journal {
            for (i, key) in prepared.keys().iter().enumerate() {
                if let Some(rec) = j.load(key)? {
                    if prepared.resumable(&rec) {
                        slots[i] = Some(rec);
                        resumed += 1;
                    }
                }
            }
        }

        let pending: Vec<usize> = (0..self.recipes.len())
            .filter(|&i| slots[i].is_none())
            .collect();
        let jobs: Vec<_> = pending
            .iter()
            .map(|&i| {
                let prepared = &prepared;
                move || prepared.run_point(i)
            })
            .collect();

        let outcomes = run_supervised(jobs, scale.workers(), &cfg.retry);

        let mut failed = Vec::new();
        let computed = pending.len();
        for (&i, outcome) in pending.iter().zip(outcomes) {
            let record = match outcome {
                Ok((out, attempts)) => prepared.record_ok(i, out, attempts),
                Err(f) => {
                    let (x, compression) = prepared.coordinate(i);
                    failed.push(PointFailure {
                        x,
                        compression,
                        error: f.error.clone(),
                        attempts: f.attempts,
                    });
                    prepared.record_failed(i, f.error, f.attempts)
                }
            };
            if let Some(j) = &journal {
                // A journal-write failure must not discard a computed point:
                // degrade to "won't resume next time" and note it.
                if let Err(e) = j.store(&record) {
                    health_log.push(format!(
                        "journal: failed to persist point x={} ({}): {e}",
                        record.x, record.compression
                    ));
                }
            }
            slots[i] = Some(record);
        }

        Ok(prepared.assemble(slots, resumed, computed, failed, health_log))
    }
}

/// A [`TransferMatrix`] with its baseline trained and all per-point inputs
/// precomputed — the shared, immutable substrate every execution mode
/// (in-process supervised workers, the distributed coordinator, remote
/// workers) runs points against. Self-contained and `Sync`; clone-free
/// sharing via `Arc`.
///
/// Determinism contract: two `PreparedMatrix` values built from the same
/// matrix, scale and seed produce bit-identical [`PointRecord`]s for the
/// same point index — this is what lets a re-dispatched or remotely
/// computed point splice into the journal exactly as if it had been
/// computed locally.
#[derive(Debug)]
pub struct PreparedMatrix {
    net: NetKind,
    attacks: Vec<AttackKind>,
    recipes: Vec<(f64, Compression)>,
    scale: ExperimentScale,
    seed: u64,
    setup: TaskSetup,
    baseline: TrainedModel,
    finetune_cfg: TrainConfig,
    eval_sets: Vec<(Tensor, Vec<usize>)>,
    adv_from_full: Vec<Tensor>,
    keys: Vec<String>,
}

/// The computed numbers (plus health events) of one sweep point, before
/// they are folded into a [`PointRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Clean test accuracy of the compressed model.
    pub base_accuracy: f64,
    /// One `(comp→comp, full→comp, comp→full)` triple per attack.
    pub scenarios: Vec<(f64, f64, f64)>,
    /// Numerical-health incidents captured while computing the point.
    pub health: Vec<String>,
}

impl PreparedMatrix {
    /// Number of sweep points (recipes).
    pub fn num_points(&self) -> usize {
        self.recipes.len()
    }

    /// Per-point journal keys, in recipe order.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// `(x coordinate, recipe id)` of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn coordinate(&self, i: usize) -> (f64, String) {
        let (x, recipe) = &self.recipes[i];
        (*x, recipe.id())
    }

    /// 16-hex-digit hash over the full point-key list — a cheap handshake
    /// token two processes can compare to prove they were built from the
    /// same matrix, scale and seed before exchanging results.
    pub fn config_hash(&self) -> String {
        format!("{:016x}", crate::journal::fnv1a64(&self.keys.join("|")))
    }

    /// Whether `rec` is a completed point this matrix can resume from.
    /// Only `Ok` records resume; recorded failures are retried (a re-run is
    /// usually an attempt to get past a transient cause). The
    /// scenario-arity check guards against hand-edited entries.
    pub fn resumable(&self, rec: &PointRecord) -> bool {
        rec.status == PointStatus::Ok && rec.scenarios.len() == self.attacks.len()
    }

    /// Baseline-training health events, formatted for [`MatrixRun::health`].
    pub fn baseline_health(&self) -> Vec<String> {
        self.baseline
            .health
            .events
            .iter()
            .map(|e| format!("baseline: {e}"))
            .collect()
    }

    /// Executes point `i`: the train→compress→attack pipeline under a
    /// numerical-health scope, with the `sweep_point` fault site fired
    /// first. The fault site counts *invocations*, so a retried point
    /// advances the hit counter on each attempt.
    ///
    /// # Errors
    ///
    /// Propagates compression/attack/eval errors (and injected `error`
    /// faults); injected `panic` faults panic, which supervised execution
    /// ([`run_supervised`]) converts into a retryable failure.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn run_point(&self, i: usize) -> Result<PointOutcome> {
        match faults::fire("sweep_point") {
            Some(faults::FaultKind::Panic) => {
                panic!("injected fault: panic at site 'sweep_point'")
            }
            Some(faults::FaultKind::Error) => {
                return Err(CoreError::Job(
                    "injected fault: error at site 'sweep_point'".into(),
                ))
            }
            _ => {}
        }
        let (result, events) = health::scope(|| {
            compute_point(
                self.recipes[i].1,
                self.net,
                &self.setup,
                &self.baseline,
                &self.finetune_cfg,
                &self.attacks,
                &self.eval_sets,
                &self.adv_from_full,
            )
        });
        let outcome = result?;
        Ok(PointOutcome {
            base_accuracy: outcome.base_accuracy,
            scenarios: outcome.scenarios,
            health: events.iter().map(health::HealthEvent::describe).collect(),
        })
    }

    /// Folds a successful [`PointOutcome`] for point `i` into its
    /// journal-ready [`PointRecord`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn record_ok(&self, i: usize, outcome: PointOutcome, attempts: u32) -> PointRecord {
        let (x, compression) = self.coordinate(i);
        PointRecord {
            key: self.keys[i].clone(),
            x,
            compression,
            status: PointStatus::Ok,
            attempts,
            base_accuracy: outcome.base_accuracy,
            scenarios: outcome.scenarios,
            health: outcome.health,
            error: None,
        }
    }

    /// Builds the permanent-failure [`PointRecord`] for point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn record_failed(&self, i: usize, error: String, attempts: u32) -> PointRecord {
        let (x, compression) = self.coordinate(i);
        PointRecord {
            key: self.keys[i].clone(),
            x,
            compression,
            status: PointStatus::Failed,
            attempts,
            base_accuracy: 0.0,
            scenarios: Vec::new(),
            health: Vec::new(),
            error: Some(error),
        }
    }

    /// Assembles the final [`MatrixRun`] from filled point slots: appends
    /// each record's health incidents to `health_log` and projects the `Ok`
    /// records (in recipe order) onto one [`SweepResult`] per attack.
    pub fn assemble(
        &self,
        slots: Vec<Option<PointRecord>>,
        resumed: usize,
        computed: usize,
        failed: Vec<PointFailure>,
        mut health_log: Vec<String>,
    ) -> MatrixRun {
        for rec in slots.iter().flatten() {
            for h in &rec.health {
                health_log.push(format!("point x={} ({}): {h}", rec.x, rec.compression));
            }
        }

        let completed: Vec<&PointRecord> = slots
            .iter()
            .flatten()
            .filter(|r| r.status == PointStatus::Ok)
            .collect();
        let results = self
            .attacks
            .iter()
            .enumerate()
            .map(|(ai, &kind)| SweepResult {
                net: self.net.id().into(),
                attack: kind.id().into(),
                baseline_accuracy: self.baseline.test_accuracy,
                baseline_loss: self.baseline.final_loss,
                points: completed
                    .iter()
                    .map(|r| {
                        let (s1, s2, s3) = r.scenarios[ai];
                        SweepPoint {
                            x: r.x,
                            compression: r.compression.clone(),
                            base_accuracy: r.base_accuracy,
                            comp_to_comp: s1,
                            full_to_comp: s2,
                            comp_to_full: s3,
                        }
                    })
                    .collect(),
            })
            .collect();
        MatrixRun {
            results,
            resumed,
            computed,
            failed,
            health: health_log,
        }
    }

    /// The experiment scale this matrix was prepared at.
    pub fn scale(&self) -> &ExperimentScale {
        &self.scale
    }

    /// The baseline-training seed this matrix was prepared with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Options for [`TransferMatrix::run_resilient`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Baseline-training seed (part of every point's journal key).
    pub seed: u64,
    /// Journal directory for checkpoint/resume; `None` disables journaling.
    pub run_dir: Option<PathBuf>,
    /// Retry budget for failed/panicked points.
    pub retry: RetryPolicy,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 7,
            run_dir: None,
            retry: RetryPolicy::sweep_default(),
        }
    }
}

/// A sweep point that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PointFailure {
    /// Sweep coordinate of the failed point.
    pub x: f64,
    /// Compression recipe identifier.
    pub compression: String,
    /// Error (or panic) message from the final attempt.
    pub error: String,
    /// Attempts consumed.
    pub attempts: u32,
}

/// Outcome of a resilient matrix run: the curves plus the run's
/// resilience bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MatrixRun {
    /// One [`SweepResult`] per attack; failed points are omitted from the
    /// curves (see [`MatrixRun::failed`]).
    pub results: Vec<SweepResult>,
    /// Points loaded from the journal instead of recomputed.
    pub resumed: usize,
    /// Points actually executed this run (successes and failures).
    pub computed: usize,
    /// Points that failed permanently, with their final error and attempt
    /// count — recorded, not dropped.
    pub failed: Vec<PointFailure>,
    /// Resilience incidents: baseline-training rollbacks, per-point
    /// numerical-health events, journal-write degradations.
    pub health: Vec<String>,
}

struct RecipeOutcome {
    base_accuracy: f64,
    // One (s1, s2, s3) triple per attack.
    scenarios: Vec<(f64, f64, f64)>,
}

/// The train→compress→attack pipeline for one sweep point (shared by every
/// execution mode; must stay deterministic in its inputs so journal resume
/// is honest).
#[allow(clippy::too_many_arguments)]
fn compute_point(
    recipe: Compression,
    net: NetKind,
    setup: &TaskSetup,
    baseline: &TrainedModel,
    finetune_cfg: &TrainConfig,
    attacks: &[AttackKind],
    eval_sets: &[(Tensor, Vec<usize>)],
    adv_from_full: &[Tensor],
) -> Result<RecipeOutcome> {
    let mut comp = baseline.instantiate()?;
    recipe.apply(&mut comp, &setup.train, finetune_cfg)?;
    // Every accuracy below runs through one plan per model; crafting
    // keeps `comp`'s layer path for gradients.
    let sample_shape = setup.test.sample_shape();
    let mut comp_eval = PlannedEval::compile(&comp, sample_shape)?;
    let mut full_eval = PlannedEval::compile(&baseline.instantiate()?, sample_shape)?;
    let base_accuracy = evaluate_planned(&mut comp_eval, &setup.test, 64)?;
    let mut scenarios = Vec::with_capacity(attacks.len());
    for (i, &kind) in attacks.iter().enumerate() {
        let (x, y) = &eval_sets[i];
        let attack = PaperParams::build_adapted(net, kind);
        // One generation on the compressed model serves both Scenario 1
        // (evaluate on itself) and Scenario 3 (evaluate on the hidden
        // baseline).
        let adv_comp = attack.generate(&mut comp, x, y)?;
        let s1 = comp_eval.accuracy(&adv_comp, y)?;
        let s3 = full_eval.accuracy(&adv_comp, y)?;
        let s2 = comp_eval.accuracy(&adv_from_full[i], y)?;
        scenarios.push((s1, s2, s3));
    }
    Ok(RecipeOutcome {
        base_accuracy,
        scenarios,
    })
}

/// A single-attack sweep — the one-curve convenience wrapper over
/// [`TransferMatrix`].
#[derive(Debug, Clone)]
pub struct TransferSweep {
    /// Which network to train and compress.
    pub net: NetKind,
    /// Which attack (at its Table 1 parameters) to evaluate.
    pub attack: AttackKind,
    /// `(x coordinate, recipe)` pairs.
    pub recipes: Vec<(f64, Compression)>,
}

impl TransferSweep {
    /// The Figure 2 pruning sweep (DNS, as in the paper).
    pub fn pruning(net: NetKind, attack: AttackKind, densities: &[f64]) -> Self {
        TransferSweep {
            net,
            attack,
            recipes: pruning_recipes(densities, false),
        }
    }

    /// One-shot pruning ablation.
    pub fn pruning_one_shot(net: NetKind, attack: AttackKind, densities: &[f64]) -> Self {
        TransferSweep {
            net,
            attack,
            recipes: pruning_recipes(densities, true),
        }
    }

    /// The Figure 5 quantisation sweep (32 = float32 baseline).
    pub fn quantisation(net: NetKind, attack: AttackKind, bitwidths: &[u32]) -> Self {
        TransferSweep {
            net,
            attack,
            recipes: quant_recipes(bitwidths, false),
        }
    }

    /// Weights-only quantisation ablation.
    pub fn quantisation_weights_only(net: NetKind, attack: AttackKind, bitwidths: &[u32]) -> Self {
        TransferSweep {
            net,
            attack,
            recipes: quant_recipes(bitwidths, true),
        }
    }

    /// Runs the sweep (see [`TransferMatrix::run`]).
    ///
    /// # Errors
    ///
    /// Propagates training, compression and attack errors.
    pub fn run(&self, scale: &ExperimentScale) -> Result<SweepResult> {
        let matrix = TransferMatrix {
            net: self.net,
            attacks: vec![self.attack],
            recipes: self.recipes.clone(),
        };
        let mut results = matrix.run(scale)?;
        Ok(results.remove(0))
    }
}

fn eval_count(attack: AttackKind, scale: &ExperimentScale, test_len: usize) -> usize {
    let want = match attack {
        AttackKind::DeepFool => scale.deepfool_eval,
        _ => scale.attack_eval,
    };
    want.min(test_len).max(1)
}

/// One point of the Figure 3 grid: white-box attack strength versus (ε,
/// iterations) on the uncompressed model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpsilonPoint {
    /// Attack step size.
    pub epsilon: f32,
    /// Attack iteration count.
    pub iterations: usize,
    /// Accuracy of the attacked model on the adversarial samples.
    pub adversarial_accuracy: f64,
}

/// Runs the Figure 3 grid: the white-box attack on `trained` for every
/// (ε, iterations) combination. The points run as [`run_supervised`] jobs
/// without retries.
///
/// # Errors
///
/// Rejects empty grids and non-FGM attacks; the first point that fails
/// or panics is returned as [`CoreError::Job`].
pub fn epsilon_grid(
    trained: &TrainedModel,
    setup: &TaskSetup,
    attack: AttackKind,
    epsilons: &[f32],
    iterations: &[usize],
    scale: &ExperimentScale,
) -> Result<Vec<EpsilonPoint>> {
    if epsilons.is_empty() || iterations.is_empty() {
        return Err(CoreError::InvalidConfig(
            "empty epsilon/iteration grid".into(),
        ));
    }
    if attack == AttackKind::DeepFool {
        return Err(CoreError::InvalidConfig(
            "Figure 3 sweeps IFGSM/IFGM, not DeepFool".into(),
        ));
    }
    let eval_n = scale.attack_eval.min(setup.test.len()).max(1);
    let (x, y) = setup.test.slice(0, eval_n)?;
    let grid: Vec<(f32, usize)> = epsilons
        .iter()
        .flat_map(|&eps| iterations.iter().map(move |&it| (eps, it)))
        .collect();
    let (x, y) = (&x, &y);
    let jobs: Vec<_> = grid
        .iter()
        .map(|&(eps, it)| {
            move || -> Result<EpsilonPoint> {
                let attack_obj: Box<dyn advcomp_attacks::Attack> = match attack {
                    AttackKind::Ifgsm => {
                        Box::new(advcomp_attacks::Ifgsm::new(eps, it).map_err(CoreError::Attack)?)
                    }
                    AttackKind::Ifgm => {
                        Box::new(advcomp_attacks::Ifgm::new(eps, it).map_err(CoreError::Attack)?)
                    }
                    AttackKind::DeepFool => unreachable!("rejected above"),
                };
                let mut model = trained.instantiate()?;
                let adv = attack_obj.generate(&mut model, x, y)?;
                let acc = PlannedEval::compile(&model, &x.shape()[1..])?.accuracy(&adv, y)?;
                Ok(EpsilonPoint {
                    epsilon: eps,
                    iterations: it,
                    adversarial_accuracy: acc,
                })
            }
        })
        .collect();
    run_supervised(jobs, scale.workers(), &RetryPolicy::none())
        .into_iter()
        .zip(&grid)
        .map(|(slot, (eps, it))| {
            slot.map(|(point, _)| point).map_err(|f| {
                CoreError::Job(format!("epsilon point eps={eps} iterations={it}: {f}"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn densities() -> Vec<f64> {
        vec![1.0, 0.5, 0.1]
    }

    #[test]
    fn pruning_sweep_shapes() {
        let sweep = TransferSweep::pruning(NetKind::LeNet5, AttackKind::Ifgsm, &densities());
        assert_eq!(sweep.recipes.len(), 3);
        assert_eq!(sweep.recipes[0].1, Compression::None);
        assert!(matches!(sweep.recipes[1].1, Compression::DnsPrune { .. }));
        let os = TransferSweep::pruning_one_shot(NetKind::LeNet5, AttackKind::Ifgsm, &[0.5]);
        assert!(matches!(os.recipes[0].1, Compression::OneShotPrune { .. }));
    }

    #[test]
    fn quant_sweep_baseline_at_32() {
        let sweep = TransferSweep::quantisation(NetKind::CifarNet, AttackKind::Ifgm, &[4, 8, 32]);
        assert_eq!(sweep.recipes[2].1, Compression::None);
        assert!(matches!(
            sweep.recipes[0].1,
            Compression::Quant {
                bitwidth: 4,
                weights_only: false
            }
        ));
        let wo =
            TransferSweep::quantisation_weights_only(NetKind::CifarNet, AttackKind::Ifgm, &[8]);
        assert!(matches!(
            wo.recipes[0].1,
            Compression::Quant {
                bitwidth: 8,
                weights_only: true
            }
        ));
    }

    #[test]
    fn empty_sweep_rejected() {
        let sweep = TransferSweep {
            net: NetKind::LeNet5,
            attack: AttackKind::Ifgsm,
            recipes: vec![],
        };
        assert!(sweep.run(&ExperimentScale::tiny()).is_err());
        let matrix = TransferMatrix {
            net: NetKind::LeNet5,
            attacks: vec![],
            recipes: pruning_recipes(&[1.0], false),
        };
        assert!(matrix.run(&ExperimentScale::tiny()).is_err());
    }

    /// Holds the process-wide fault lock with nothing installed, so a
    /// fault another test arms at `sweep_point` cannot fire in this one.
    fn no_faults() -> advcomp_nn::faults::FaultGuard {
        advcomp_nn::faults::install(Vec::new())
    }

    #[test]
    fn tiny_pruning_sweep_end_to_end() {
        let _serial = no_faults();
        let scale = ExperimentScale::tiny();
        let sweep = TransferSweep::pruning(NetKind::LeNet5, AttackKind::Ifgsm, &[1.0, 0.3]);
        let result = sweep.run(&scale).unwrap();
        assert_eq!(result.points.len(), 2);
        assert!(result.baseline_accuracy > 0.8);
        let p0 = &result.points[0]; // density 1.0 = identity compression
                                    // At identity compression, Scenario 1 (generate on comp, apply to
                                    // comp) and Scenario 3 (apply to baseline) see identical weights so
                                    // must agree exactly; Scenario 2's samples come from the same model.
        assert!((p0.comp_to_comp - p0.comp_to_full).abs() < 1e-9);
        assert!((p0.comp_to_comp - p0.full_to_comp).abs() < 1e-9);
        assert!((p0.base_accuracy - result.baseline_accuracy).abs() < 1e-9);
        // White-box attack hurts.
        assert!(p0.comp_to_comp < p0.base_accuracy - 0.15);
        for p in &result.points {
            for v in [
                p.base_accuracy,
                p.comp_to_comp,
                p.full_to_comp,
                p.comp_to_full,
            ] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn matrix_shares_baseline_across_attacks() {
        let _serial = no_faults();
        let scale = ExperimentScale::tiny();
        let matrix = TransferMatrix::pruning(
            NetKind::LeNet5,
            vec![AttackKind::Ifgsm, AttackKind::Ifgm],
            &[1.0, 0.3],
        );
        let results = matrix.run(&scale).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].attack, "ifgsm");
        assert_eq!(results[1].attack, "ifgm");
        // Same baseline, same compressed models → identical base accuracy
        // columns.
        assert_eq!(results[0].baseline_accuracy, results[1].baseline_accuracy);
        for (a, b) in results[0].points.iter().zip(&results[1].points) {
            assert_eq!(a.base_accuracy, b.base_accuracy);
            assert_eq!(a.compression, b.compression);
        }
    }

    #[test]
    fn resilient_run_records_failures_without_dropping_the_sweep() {
        use advcomp_nn::faults::{install, FaultKind, FaultSpec};
        let mut scale = ExperimentScale::tiny();
        scale.max_workers = 1; // deterministic fault-site hit order
                               // Point 0 computes (hit 0); point 1 fails on its first attempt
                               // (hit 1) and on its retry (sticky).
        let _g = install(vec![FaultSpec::sticky(FaultKind::Error, "sweep_point", 1)]);
        let matrix = TransferMatrix::pruning(NetKind::LeNet5, vec![AttackKind::Ifgsm], &[1.0, 0.3]);
        let cfg = RunConfig {
            seed: 7,
            run_dir: None,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_ms: 0,
            },
        };
        let run = matrix.run_resilient(&scale, &cfg).unwrap();
        assert_eq!(run.computed, 2);
        assert_eq!(run.resumed, 0);
        assert_eq!(run.failed.len(), 1);
        assert_eq!(run.failed[0].x, 0.3);
        assert_eq!(run.failed[0].attempts, 2);
        assert!(run.failed[0].error.contains("sweep_point"));
        // The surviving point still made it onto the curve.
        assert_eq!(run.results[0].points.len(), 1);
        assert_eq!(run.results[0].points[0].x, 1.0);
    }

    #[test]
    fn fail_fast_run_surfaces_injected_panic_as_error() {
        use advcomp_nn::faults::{install, FaultKind, FaultSpec};
        let mut scale = ExperimentScale::tiny();
        scale.max_workers = 1;
        let _g = install(vec![FaultSpec::once(FaultKind::Panic, "sweep_point", 0)]);
        let sweep = TransferSweep::pruning(NetKind::LeNet5, AttackKind::Ifgsm, &[1.0]);
        let err = sweep.run(&scale).unwrap_err();
        match err {
            CoreError::Job(msg) => assert!(msg.contains("panic"), "{msg}"),
            other => panic!("expected Job error, got {other:?}"),
        }
    }

    #[test]
    fn journalled_rerun_resumes_every_point_bit_identically() {
        let _serial = no_faults();
        let run_dir = std::env::temp_dir().join(format!(
            "advcomp-sweep-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&run_dir);
        let scale = ExperimentScale::tiny();
        let matrix = TransferMatrix::pruning(NetKind::LeNet5, vec![AttackKind::Ifgsm], &[1.0, 0.3]);
        let cfg = RunConfig {
            seed: 7,
            run_dir: Some(run_dir.clone()),
            retry: RetryPolicy::none(),
        };
        let first = matrix.run_resilient(&scale, &cfg).unwrap();
        assert_eq!((first.resumed, first.computed), (0, 2));
        let second = matrix.run_resilient(&scale, &cfg).unwrap();
        assert_eq!((second.resumed, second.computed), (2, 0));
        // Journal reload must be bit-exact: SweepResult's f64 equality.
        assert_eq!(first.results, second.results);
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    #[test]
    fn epsilon_grid_monotone_in_epsilon() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 3).unwrap();
        let pts = epsilon_grid(
            &trained,
            &setup,
            AttackKind::Ifgsm,
            &[0.005, 0.1],
            &[4],
            &scale,
        )
        .unwrap();
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].adversarial_accuracy <= pts[0].adversarial_accuracy + 0.05,
            "bigger epsilon should hurt at least as much: {pts:?}"
        );
    }

    #[test]
    fn epsilon_grid_validation() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 3).unwrap();
        assert!(epsilon_grid(&trained, &setup, AttackKind::Ifgsm, &[], &[1], &scale).is_err());
        assert!(
            epsilon_grid(&trained, &setup, AttackKind::DeepFool, &[0.1], &[1], &scale).is_err()
        );
    }
}
