//! Policies and guards that keep long experiment grids alive.
//!
//! Every Figure 2/5 point is an independent train→compress→attack pipeline,
//! and a full grid runs for hours; one panicking worker, one NaN blow-up or
//! one truncated results file used to cost the whole run. This module holds
//! the recovery half of the resilience story (the injection half lives in
//! [`advcomp_nn::faults`]):
//!
//! * [`RetryPolicy`] — how often and how patiently the supervised runner
//!   ([`crate::runner::run_supervised`]) re-attempts a failed or panicked
//!   job before recording it as a [`crate::runner::JobFailure`];
//! * [`HealthPolicy`] / [`train_guarded`] — a numerical-health supervisor
//!   around the epoch loop that detects NaN/Inf losses and divergence and
//!   recovers by rolling the model back to the last good epoch checkpoint
//!   with a reduced learning rate (bounded attempts), instead of letting a
//!   poisoned model surface as a silently-garbage accuracy number.

use crate::{CoreError, Result};
use advcomp_compress::{train_epoch, validate_train_config, TrainConfig, TrainStats};
use advcomp_data::Dataset;
use advcomp_models::Checkpoint;
use advcomp_nn::{health, LrSchedule, NnError, Sequential, Sgd};

/// Retry budget for supervised job execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (1 = no retries).
    pub max_attempts: u32,
    /// Base backoff between attempts; attempt `n` sleeps `base * 2^(n-1)`.
    pub backoff_ms: u64,
}

impl RetryPolicy {
    /// No retries: every failure is recorded on the first attempt.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_ms: 0,
        }
    }

    /// The default sweep budget: three attempts with a short exponential
    /// backoff. Sweep jobs are deterministic CPU work, so the backoff is
    /// about letting a transiently-starved machine (memory pressure,
    /// co-tenant load) breathe, not about network-style jitter.
    pub fn sweep_default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 50,
        }
    }

    /// Backoff before retry attempt `attempt` (1-based attempt that just
    /// failed); exponential in the number of failures so far.
    pub fn backoff_before(&self, attempt: u32) -> std::time::Duration {
        let factor = 1u64 << attempt.saturating_sub(1).min(10);
        std::time::Duration::from_millis(self.backoff_ms.saturating_mul(factor))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::sweep_default()
    }
}

/// Bounds for the numerical-health supervisor in [`train_guarded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Maximum rollback-and-retry recoveries before giving up.
    pub max_rollbacks: u32,
    /// Learning-rate multiplier applied at each rollback (compounding).
    pub lr_backoff: f32,
    /// An epoch whose mean loss exceeds `divergence_factor ×` the best
    /// mean loss seen so far counts as diverged.
    pub divergence_factor: f32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            max_rollbacks: 3,
            lr_backoff: 0.5,
            // Generous on purpose: epoch-to-epoch noise at tiny scales can
            // double the loss without anything being wrong; a real blow-up
            // overshoots this by orders of magnitude.
            divergence_factor: 10.0,
        }
    }
}

/// What the health supervisor had to do during a training run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainHealth {
    /// Rollback-and-retry recoveries performed.
    pub rollbacks: u32,
    /// Human-readable log of each incident (also recorded in the
    /// thread-local [`advcomp_nn::health`] sink for sweep metadata).
    pub events: Vec<String>,
}

impl TrainHealth {
    /// `true` when training never needed intervention.
    pub fn clean(&self) -> bool {
        self.rollbacks == 0 && self.events.is_empty()
    }
}

/// Is this error a numerical blow-up the supervisor should absorb (as
/// opposed to a structural bug — shape mismatch, bad label — that rollback
/// cannot fix and must propagate)?
fn is_numerical(err: &advcomp_compress::CompressError) -> bool {
    matches!(
        err,
        advcomp_compress::CompressError::Nn(NnError::NonFinite { .. })
    )
}

/// Trains `model` epoch by epoch under a numerical-health supervisor.
///
/// Healthy runs are **bit-identical** to [`advcomp_compress::train_baseline`]:
/// same optimiser lifetime, same per-epoch learning rate, same shuffle
/// seeds, same epoch body (the shared [`train_epoch`]). The supervisor only
/// acts when an epoch goes bad — a NaN/Inf loss (including one injected at
/// the `train_step` fault site) or a mean loss diverging past
/// [`HealthPolicy::divergence_factor`] × the best epoch so far. Recovery
/// restores the last good end-of-epoch checkpoint, resets the optimiser
/// (stale momentum would re-diverge immediately), scales the learning rate
/// down by [`HealthPolicy::lr_backoff`], and retries the same epoch; after
/// [`HealthPolicy::max_rollbacks`] recoveries it returns
/// [`CoreError::Health`] rather than emitting garbage numbers.
///
/// # Errors
///
/// Returns [`CoreError::Health`] when the rollback budget is exhausted and
/// propagates structural training errors unchanged.
pub fn train_guarded(
    model: &mut Sequential,
    data: &Dataset,
    cfg: &TrainConfig,
    policy: &HealthPolicy,
) -> Result<(TrainStats, TrainHealth)> {
    validate_train_config(cfg, data).map_err(CoreError::Compress)?;
    let mut opt =
        Sgd::new(cfg.schedule.lr_at(0), cfg.momentum, cfg.weight_decay).map_err(CoreError::Nn)?;
    let mut report = TrainHealth::default();
    let mut lr_scale = 1.0f32;
    let mut best_loss = f32::INFINITY;
    let mut last_good = Checkpoint::capture(model);
    let mut final_loss = 0.0f32;
    let mut final_acc = 0.0f64;
    let mut epoch = 0usize;
    while epoch < cfg.epochs {
        opt.set_lr(cfg.schedule.lr_at(epoch) * lr_scale);
        let incident: String = match train_epoch(model, data, cfg, &mut opt, epoch) {
            Ok(stats) if !stats.mean_loss.is_finite() => {
                format!("epoch {epoch}: non-finite mean loss {}", stats.mean_loss)
            }
            Ok(stats)
                if best_loss.is_finite()
                    && stats.mean_loss > policy.divergence_factor * best_loss =>
            {
                format!(
                    "epoch {epoch}: loss diverged to {} (best was {best_loss})",
                    stats.mean_loss
                )
            }
            Ok(stats) => {
                final_loss = stats.mean_loss;
                final_acc = stats.train_accuracy;
                best_loss = best_loss.min(stats.mean_loss);
                last_good = Checkpoint::capture(model);
                epoch += 1;
                continue;
            }
            Err(e) if is_numerical(&e) => format!("epoch {epoch}: {e}"),
            Err(e) => return Err(CoreError::Compress(e)),
        };
        report.rollbacks += 1;
        if report.rollbacks > policy.max_rollbacks {
            return Err(CoreError::Health(format!(
                "{incident}; rollback budget ({}) exhausted",
                policy.max_rollbacks
            )));
        }
        last_good
            .restore(model)
            .map_err(|e| CoreError::Checkpoint(e.to_string()))?;
        lr_scale *= policy.lr_backoff;
        opt = Sgd::new(
            cfg.schedule.lr_at(epoch) * lr_scale,
            cfg.momentum,
            cfg.weight_decay,
        )
        .map_err(CoreError::Nn)?;
        let detail =
            format!("{incident}; rolled back to last good checkpoint, lr scaled to {lr_scale}");
        health::record("train", detail.clone());
        report.events.push(detail);
    }
    Ok((
        TrainStats {
            final_loss,
            final_train_accuracy: final_acc,
            epochs: cfg.epochs,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_compress::train_baseline;
    use advcomp_data::{DatasetConfig, SynthDigits};
    use advcomp_nn::faults::{install, FaultKind, FaultSpec};
    use advcomp_nn::{Dense, Flatten, Relu, StepDecay};
    use rand::SeedableRng;

    fn small_mlp() -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Dense::with_name("fc1", 28 * 28, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::with_name("fc2", 16, 10, &mut rng)),
        ])
    }

    fn digits() -> Dataset {
        SynthDigits::generate(&DatasetConfig {
            train: 160,
            test: 40,
            seed: 7,
            noise: 0.05,
        })
        .0
    }

    fn cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 32,
            schedule: StepDecay::new(0.05, 0.1, vec![epochs.max(2) - 1]),
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 3,
        }
    }

    #[test]
    fn healthy_run_matches_train_baseline_bitwise() {
        // Holds the process-wide fault lock with nothing installed, so the
        // `train_step` fault another test arms cannot fire in this run.
        let _serial = install(Vec::new());
        let data = digits();
        let mut plain = small_mlp();
        let plain_stats = train_baseline(&mut plain, &data, &cfg(3)).unwrap();
        let mut guarded = small_mlp();
        let (stats, hea) =
            train_guarded(&mut guarded, &data, &cfg(3), &HealthPolicy::default()).unwrap();
        assert!(hea.clean());
        assert_eq!(stats.final_loss.to_bits(), plain_stats.final_loss.to_bits());
        assert_eq!(
            plain.param("fc1.weight").unwrap().value.data(),
            guarded.param("fc1.weight").unwrap().value.data()
        );
    }

    #[test]
    fn injected_nan_rolls_back_and_recovers() {
        let data = digits();
        // Epoch 1, batch 2 (the 7th train_step overall at 5 batches/epoch).
        let _g = install(vec![FaultSpec::once(FaultKind::Nan, "train_step", 6)]);
        let mut model = small_mlp();
        let ((result, hea), events) = advcomp_nn::health::scope(|| {
            let (stats, hea) =
                train_guarded(&mut model, &data, &cfg(3), &HealthPolicy::default()).unwrap();
            (stats, hea)
        });
        assert_eq!(hea.rollbacks, 1);
        assert!(hea.events[0].contains("non-finite"), "{:?}", hea.events);
        assert_eq!(events.len(), 1, "sink: {events:?}");
        assert!(result.final_loss.is_finite());
        assert!(!model.param("fc1.weight").unwrap().value.has_non_finite());
    }

    #[test]
    fn sticky_nan_exhausts_rollback_budget() {
        let data = digits();
        let _g = install(vec![FaultSpec::sticky(FaultKind::Nan, "train_step", 0)]);
        let mut model = small_mlp();
        let err = train_guarded(&mut model, &data, &cfg(2), &HealthPolicy::default()).unwrap_err();
        match err {
            CoreError::Health(msg) => assert!(msg.contains("budget"), "{msg}"),
            other => panic!("expected Health error, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_backoff_is_exponential() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff_ms: 10,
        };
        assert_eq!(p.backoff_before(1).as_millis(), 10);
        assert_eq!(p.backoff_before(2).as_millis(), 20);
        assert_eq!(p.backoff_before(3).as_millis(), 40);
        assert_eq!(RetryPolicy::none().backoff_before(1).as_millis(), 0);
    }
}
