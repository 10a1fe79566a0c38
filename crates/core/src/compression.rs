//! Uniform handle over the compression methods a sweep can apply.

use crate::Result;
use advcomp_compress::{DnsPruner, OneShotPruner, Quantizer, TrainConfig};
use advcomp_data::Dataset;
use advcomp_nn::Sequential;

/// A compression recipe applied to a trained model (with fine-tuning),
/// producing the "compressed model" of the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Compression {
    /// No compression: the identity recipe. Sweeps use this for the
    /// density-1.0 / float32 end of the axis, where every scenario must
    /// degenerate to the plain white-box attack.
    None,
    /// Dynamic Network Surgery pruning to the given density (the paper's
    /// pruning method).
    DnsPrune {
        /// Target weight density in `[0, 1]`.
        density: f64,
    },
    /// One-shot magnitude pruning to the given density (Han et al.;
    /// ablation baseline).
    OneShotPrune {
        /// Target weight density in `[0, 1]`.
        density: f64,
    },
    /// Fixed-point quantisation of weights and activations at a bitwidth
    /// (paper §3.2 integer-bit schedule).
    Quant {
        /// Total bitwidth.
        bitwidth: u32,
        /// `true` to quantise weights only (the activation-clipping
        /// ablation).
        weights_only: bool,
    },
}

impl Compression {
    /// Stable identifier for file names and CSV cells.
    pub fn id(&self) -> String {
        match self {
            Compression::None => "none".into(),
            Compression::DnsPrune { density } => format!("dns-d{density:.3}"),
            Compression::OneShotPrune { density } => format!("oneshot-d{density:.3}"),
            Compression::Quant {
                bitwidth,
                weights_only,
            } => {
                if *weights_only {
                    format!("quant-w{bitwidth}")
                } else {
                    format!("quant-wa{bitwidth}")
                }
            }
        }
    }

    /// Applies the recipe to `model`, fine-tuning on `train` with `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates compression and training errors.
    pub fn apply(&self, model: &mut Sequential, train: &Dataset, cfg: &TrainConfig) -> Result<()> {
        match *self {
            Compression::None => Ok(()),
            Compression::DnsPrune { density } => {
                DnsPruner::new(density).prune_and_finetune(model, train, cfg)?;
                Ok(())
            }
            Compression::OneShotPrune { density } => {
                OneShotPruner::new(density).prune_and_finetune(model, train, cfg)?;
                Ok(())
            }
            Compression::Quant {
                bitwidth,
                weights_only,
            } => {
                let quantizer = if weights_only {
                    Quantizer::new(advcomp_compress::QuantConfig::weights_only(bitwidth)?)
                } else {
                    Quantizer::for_bitwidth(bitwidth)?
                };
                quantizer.quantize_and_finetune(model, train, cfg)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentScale, TaskSetup, TrainedModel};
    use advcomp_attacks::NetKind;

    #[test]
    fn ids_stable() {
        assert_eq!(Compression::None.id(), "none");
        assert_eq!(Compression::DnsPrune { density: 0.5 }.id(), "dns-d0.500");
        assert_eq!(
            Compression::Quant {
                bitwidth: 8,
                weights_only: false
            }
            .id(),
            "quant-wa8"
        );
        assert_eq!(
            Compression::Quant {
                bitwidth: 4,
                weights_only: true
            }
            .id(),
            "quant-w4"
        );
    }

    #[test]
    fn apply_each_recipe_preserves_usability() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let trained = TrainedModel::train(&setup, &scale, 3).unwrap();
        let cfg = setup.finetune_config(&scale);
        for recipe in [
            Compression::None,
            Compression::DnsPrune { density: 0.5 },
            Compression::OneShotPrune { density: 0.5 },
            Compression::Quant {
                bitwidth: 8,
                weights_only: false,
            },
            Compression::Quant {
                bitwidth: 8,
                weights_only: true,
            },
        ] {
            let mut model = trained.instantiate().unwrap();
            recipe.apply(&mut model, &setup.train, &cfg).unwrap();
            let acc = crate::trainer::evaluate_model(&model, &setup.test, 64).unwrap();
            assert!(
                acc > trained.test_accuracy - 0.25,
                "{} collapsed accuracy {} -> {acc}",
                recipe.id(),
                trained.test_accuracy
            );
        }
    }

    #[test]
    fn invalid_recipes_error() {
        let scale = ExperimentScale::tiny();
        let setup = TaskSetup::new(NetKind::LeNet5, &scale);
        let mut model = setup.fresh_model(0);
        let cfg = setup.finetune_config(&scale);
        assert!(Compression::DnsPrune { density: 2.0 }
            .apply(&mut model, &setup.train, &cfg)
            .is_err());
        assert!(Compression::Quant {
            bitwidth: 1,
            weights_only: false
        }
        .apply(&mut model, &setup.train, &cfg)
        .is_err());
    }
}
