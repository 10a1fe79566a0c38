//! Task setup and baseline-model training.

use crate::resilience::{train_guarded, HealthPolicy, TrainHealth};
use crate::scale::ExperimentScale;
use crate::{CoreError, Result};
use advcomp_attacks::{NetKind, PlannedEval};
use advcomp_compress::TrainConfig;
use advcomp_data::{Batches, Dataset, DatasetConfig, SynthDigits, SynthObjects};
use advcomp_models::{cifarnet, lenet5, Checkpoint};
use advcomp_nn::{Sequential, StepDecay};

/// A network kind bound to its train/test data at a given scale.
#[derive(Debug)]
pub struct TaskSetup {
    /// Which reference network this task trains.
    pub net: NetKind,
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
    width: f32,
}

impl TaskSetup {
    /// Builds the task for `net` at `scale` (synthetic data; deterministic).
    pub fn new(net: NetKind, scale: &ExperimentScale) -> Self {
        let (train, test, width) = match net {
            NetKind::LeNet5 => {
                let cfg = DatasetConfig {
                    train: scale.train_size,
                    test: scale.test_size,
                    seed: 100,
                    noise: scale.digits_noise,
                };
                let (tr, te) = SynthDigits::generate(&cfg);
                (tr, te, scale.lenet5_width)
            }
            NetKind::CifarNet => {
                let cfg = DatasetConfig {
                    train: scale.train_size,
                    test: scale.test_size,
                    seed: 200,
                    noise: scale.objects_noise,
                };
                let (tr, te) = SynthObjects::generate(&cfg);
                (tr, te, scale.cifarnet_width)
            }
        };
        TaskSetup {
            net,
            train,
            test,
            width,
        }
    }

    /// Instantiates an untrained network of this task's architecture.
    pub fn fresh_model(&self, seed: u64) -> Sequential {
        match self.net {
            NetKind::LeNet5 => lenet5(self.width, seed),
            NetKind::CifarNet => cifarnet(self.width, seed),
        }
    }

    /// The paper-shaped fine-tuning config at this scale.
    pub fn finetune_config(&self, scale: &ExperimentScale) -> TrainConfig {
        TrainConfig {
            epochs: scale.finetune_epochs,
            batch_size: scale.batch_size,
            // Fine-tuning starts one decade below the initial rate, as the
            // paper's retraining schedule effectively does.
            schedule: StepDecay::new(0.005, 0.1, vec![scale.finetune_epochs.max(2) - 1]),
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 1,
        }
    }
}

/// A trained baseline model plus everything needed to clone it: fresh
/// instances are rebuilt from the architecture and a parameter checkpoint,
/// so sweep workers can each own an independent copy.
#[derive(Debug)]
pub struct TrainedModel {
    /// Which network this is.
    pub net: NetKind,
    /// Held-out test accuracy after training.
    pub test_accuracy: f64,
    /// Mean training loss over the final epoch (the paper's §4.1 argument
    /// keys off how small this is for LeNet5).
    pub final_loss: f32,
    /// What the numerical-health supervisor had to do (empty on a clean
    /// run; rollback/LR-reduction incidents otherwise).
    pub health: TrainHealth,
    width: f32,
    init_seed: u64,
    checkpoint: Checkpoint,
}

impl TrainedModel {
    /// Trains a fresh model for `setup` and captures it, under the default
    /// numerical-health supervisor (see [`TrainedModel::train_with_health`]).
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn train(setup: &TaskSetup, scale: &ExperimentScale, seed: u64) -> Result<Self> {
        Self::train_with_health(setup, scale, seed, &HealthPolicy::default())
    }

    /// [`TrainedModel::train`] with an explicit [`HealthPolicy`]. A healthy
    /// run produces bit-identical weights to the unguarded baseline loop;
    /// NaN/Inf or divergent epochs roll back to the last good checkpoint
    /// with a reduced learning rate and are reported in
    /// [`TrainedModel::health`].
    ///
    /// # Errors
    ///
    /// Propagates training errors; returns [`CoreError::Health`] when the
    /// supervisor's rollback budget is exhausted.
    pub fn train_with_health(
        setup: &TaskSetup,
        scale: &ExperimentScale,
        seed: u64,
        policy: &HealthPolicy,
    ) -> Result<Self> {
        let mut model = setup.fresh_model(seed);
        let cfg = TrainConfig {
            epochs: scale.baseline_epochs,
            batch_size: scale.batch_size,
            schedule: StepDecay::new(
                match setup.net {
                    // Narrow CPU-scale models tolerate (and need) a hotter
                    // start than the paper's 0.01 to converge in few epochs.
                    NetKind::LeNet5 => 0.05,
                    NetKind::CifarNet => 0.02,
                },
                0.1,
                vec![scale.baseline_epochs * 2 / 4, scale.baseline_epochs * 3 / 4],
            ),
            momentum: 0.9,
            weight_decay: 1e-4,
            seed,
        };
        let (stats, health) = train_guarded(&mut model, &setup.train, &cfg, policy)?;
        let test_accuracy = evaluate_model(&model, &setup.test, scale.batch_size)?;
        Ok(TrainedModel {
            net: setup.net,
            test_accuracy,
            final_loss: stats.final_loss,
            health,
            width: setup_width(setup),
            init_seed: seed,
            checkpoint: Checkpoint::capture(&model),
        })
    }

    /// Convenience: build the LeNet5 task and train it.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn train_lenet5(scale: &ExperimentScale, seed: u64) -> Result<Self> {
        let setup = TaskSetup::new(NetKind::LeNet5, scale);
        Self::train(&setup, scale, seed)
    }

    /// Convenience: build the CifarNet task and train it.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn train_cifarnet(scale: &ExperimentScale, seed: u64) -> Result<Self> {
        let setup = TaskSetup::new(NetKind::CifarNet, scale);
        Self::train(&setup, scale, seed)
    }

    /// Instantiates an independent copy of the trained network.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] if restoration fails (indicating an
    /// architecture drift bug).
    pub fn instantiate(&self) -> Result<Sequential> {
        let mut model = match self.net {
            NetKind::LeNet5 => lenet5(self.width, self.init_seed),
            NetKind::CifarNet => cifarnet(self.width, self.init_seed),
        };
        self.checkpoint
            .restore(&mut model)
            .map_err(|e| CoreError::Checkpoint(e.to_string()))?;
        Ok(model)
    }

    /// The captured parameter checkpoint.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }
}

fn setup_width(setup: &TaskSetup) -> f32 {
    setup.width
}

/// Test accuracy of `model` over `data`, batched, through a compiled eval
/// plan ([`PlannedEval`]).
///
/// # Errors
///
/// Propagates compile and network errors.
pub fn evaluate_model(model: &Sequential, data: &Dataset, batch_size: usize) -> Result<f64> {
    let mut eval = PlannedEval::compile(model, data.sample_shape())?;
    evaluate_planned(&mut eval, data, batch_size)
}

/// [`evaluate_model`] over an already compiled plan.
pub(crate) fn evaluate_planned(
    eval: &mut PlannedEval,
    data: &Dataset,
    batch_size: usize,
) -> Result<f64> {
    if data.is_empty() {
        return Ok(0.0);
    }
    let plan = Batches::sequential(data.len(), batch_size.max(1));
    let mut correct = 0.0f64;
    for (x, y) in plan.iter(data) {
        correct += eval.accuracy(&x, &y)? * y.len() as f64;
    }
    Ok(correct / data.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet5_learns_digits_at_tiny_scale() {
        let scale = ExperimentScale::tiny();
        let trained = TrainedModel::train_lenet5(&scale, 42).unwrap();
        assert!(
            trained.test_accuracy > 0.8,
            "LeNet5 tiny accuracy {}",
            trained.test_accuracy
        );
    }

    #[test]
    fn instantiate_reproduces_accuracy() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 1).unwrap();
        let copy = trained.instantiate().unwrap();
        let acc = evaluate_model(&copy, &setup.test, 64).unwrap();
        assert!((acc - trained.test_accuracy).abs() < 1e-9);
    }

    #[test]
    fn copies_are_independent() {
        let scale = ExperimentScale::tiny();
        let trained = TrainedModel::train_lenet5(&scale, 2).unwrap();
        let mut a = trained.instantiate().unwrap();
        let b = trained.instantiate().unwrap();
        a.param_mut("fc3.weight").unwrap().value.data_mut()[0] = 999.0;
        assert_ne!(
            a.param("fc3.weight").unwrap().value.data()[0],
            b.param("fc3.weight").unwrap().value.data()[0]
        );
    }

    #[test]
    fn setup_is_deterministic() {
        let scale = ExperimentScale::tiny();
        let a = TaskSetup::new(NetKind::CifarNet, &scale);
        let b = TaskSetup::new(NetKind::CifarNet, &scale);
        assert_eq!(a.train.images().data(), b.train.images().data());
    }
}
