//! Fixed-point quantisation of weights and activations (§2.2, §3.2).

use crate::finetune::TrainConfig;
use crate::{CompressError, Result};
use advcomp_data::{Batches, Dataset};
use advcomp_nn::{softmax_cross_entropy, LrSchedule, Mode, Param, ParamKind, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{fake_quantize_in_place, simd, Tensor};
use std::collections::HashMap;

/// Formats used for a quantised model.
///
/// The paper quantises weights and activations to the *same* bitwidth with
/// the §3.2 integer-bit schedule; [`QuantConfig::for_bitwidth`] reproduces
/// that, while the struct stays open to asymmetric configurations for
/// ablations (e.g. weights-only quantisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// Format applied to weight tensors (biases stay full-precision).
    pub weight_format: QFormat,
    /// Format applied to activations via `FakeQuant` layers; `None` leaves
    /// activations in float32 (the weights-only ablation).
    pub activation_format: Option<QFormat>,
}

impl QuantConfig {
    /// The paper's symmetric weight+activation configuration for a bitwidth.
    ///
    /// # Errors
    ///
    /// Propagates invalid-bitwidth errors from [`QFormat::for_bitwidth`].
    pub fn for_bitwidth(bitwidth: u32) -> Result<Self> {
        let fmt = QFormat::for_bitwidth(bitwidth)?;
        Ok(QuantConfig {
            weight_format: fmt,
            activation_format: Some(fmt),
        })
    }

    /// Weights-only variant (ablation: isolates the activation-clipping
    /// effect the paper credits with the low-bitwidth defence).
    ///
    /// # Errors
    ///
    /// Propagates invalid-bitwidth errors from [`QFormat::for_bitwidth`].
    pub fn weights_only(bitwidth: u32) -> Result<Self> {
        let fmt = QFormat::for_bitwidth(bitwidth)?;
        Ok(QuantConfig {
            weight_format: fmt,
            activation_format: None,
        })
    }
}

/// Applies fixed-point quantisation to a model, with optional
/// quantisation-aware fine-tuning.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    cfg: QuantConfig,
}

impl Quantizer {
    /// Creates a quantiser from an explicit configuration.
    pub fn new(cfg: QuantConfig) -> Self {
        Quantizer { cfg }
    }

    /// Creates the paper's symmetric quantiser for a bitwidth.
    ///
    /// # Errors
    ///
    /// Propagates invalid-bitwidth errors.
    pub fn for_bitwidth(bitwidth: u32) -> Result<Self> {
        Ok(Quantizer::new(QuantConfig::for_bitwidth(bitwidth)?))
    }

    /// The configuration in use.
    pub fn config(&self) -> QuantConfig {
        self.cfg
    }

    /// Rounds every weight tensor to the weight format, in place (biases
    /// are left in full precision). Post-training quantisation.
    pub fn quantize_weights(&self, model: &mut Sequential) {
        let (backend, format) = (simd::backend(), self.cfg.weight_format);
        for p in model.params_mut() {
            if p.kind == ParamKind::Weight {
                fake_quantize_in_place(backend, format, p.value.data_mut(), None)
                    .expect("a maskless fake-quantise cannot fail");
            }
        }
    }

    /// Installs the activation format on every `FakeQuant` point, returning
    /// how many points were enabled.
    pub fn enable_activations(&self, model: &mut Sequential) -> usize {
        model.set_activation_format(self.cfg.activation_format)
    }

    /// Post-training quantisation: weights rounded, activations enabled.
    /// No fine-tuning.
    pub fn quantize(&self, model: &mut Sequential) {
        self.quantize_weights(model);
        self.enable_activations(model);
    }

    /// Post-training quantisation into **packed integer execution**:
    /// applies [`Quantizer::quantize`], then freezes every `Dense`/`Conv2d`
    /// into block-quantised form so forward passes run the fused int8 GEMM
    /// instead of dense f32 on rounded values. Returns how many layers were
    /// frozen.
    ///
    /// Because the packed codes are exactly the `QFormat` codes of the
    /// rounded weights, the frozen forward is bit-exact with the simulated
    /// path on the scalar backend (see `tensor::quant`). The int8 kernels
    /// quantise activations on entry using the configured activation
    /// format, or the weight format in the weights-only configuration.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (already frozen, or a weight format wider
    /// than the 8-bit packed ceiling).
    pub fn quantize_frozen(&self, model: &mut Sequential) -> Result<usize> {
        self.quantize(model);
        let act = self.cfg.activation_format.unwrap_or(self.cfg.weight_format);
        Ok(model.freeze_quantized(self.cfg.weight_format, act)?)
    }

    /// Quantisation-aware fine-tuning, the pipeline the paper uses:
    /// activations run through their fixed-point format with an STE, weight
    /// forward passes see quantised values while full-precision master
    /// copies accumulate the (straight-through) gradients. Finishes with
    /// quantised weights installed.
    ///
    /// # Errors
    ///
    /// Propagates data and network errors.
    pub fn quantize_and_finetune(
        &self,
        model: &mut Sequential,
        data: &Dataset,
        cfg: &TrainConfig,
    ) -> Result<()> {
        if data.is_empty() {
            return Err(CompressError::Data("empty fine-tuning set".into()));
        }
        if cfg.batch_size == 0 {
            return Err(CompressError::InvalidConfig(
                "batch_size must be >= 1".into(),
            ));
        }
        self.enable_activations(model);

        // Full-precision master weights and momentum buffers.
        let mut master: HashMap<String, Tensor> = HashMap::new();
        let mut velocity: HashMap<String, Tensor> = HashMap::new();
        for p in model.params() {
            master.insert(p.name.clone(), p.value.clone());
            velocity.insert(p.name.clone(), Tensor::zeros(p.value.shape()));
        }

        let wf = self.cfg.weight_format;
        let (lo, hi) = (wf.min_value(), wf.max_value());
        for epoch in 0..cfg.epochs {
            let lr = cfg.schedule.lr_at(epoch);
            let plan = Batches::shuffled(
                data.len(),
                cfg.batch_size,
                cfg.seed.wrapping_add(epoch as u64),
            );
            for (x, y) in plan.iter(data) {
                // Install quantised weights from masters.
                for p in model.params_mut() {
                    install(p, master.get(&p.name).expect("captured"), wf)?;
                }
                let logits = model.forward(&x, Mode::Train)?;
                let loss = softmax_cross_entropy(&logits, &y)?;
                model.zero_grad();
                model.backward(&loss.grad)?;
                // Clipped STE into the masters.
                for p in model.params_mut() {
                    let m = master.get_mut(&p.name).expect("captured");
                    let v = velocity.get_mut(&p.name).expect("captured");
                    let decay = match p.kind {
                        ParamKind::Weight => cfg.weight_decay,
                        ParamKind::Bias => 0.0,
                    };
                    let is_weight = p.kind == ParamKind::Weight;
                    let md = m.data_mut();
                    let vd = v.data_mut();
                    let gd = p.grad.data();
                    for i in 0..md.len() {
                        let mut g = gd[i] + decay * md[i];
                        if is_weight && !(lo..=hi).contains(&md[i]) {
                            // Master saturated: stop pushing it further out.
                            g = 0.0;
                        }
                        vd[i] = cfg.momentum * vd[i] + g;
                        md[i] -= lr * vd[i];
                    }
                }
            }
        }
        // Final install: quantised weights, full-precision biases.
        for p in model.params_mut() {
            install(p, master.get(&p.name).expect("captured"), wf)?;
        }
        Ok(())
    }
}

/// Installs a master copy into its parameter, in the parameter's own
/// storage (the master was cloned from it, so the shapes agree): weights
/// rounded to `wf` (`QFormat::quantize`'s bits, by
/// [`fake_quantize_in_place`]), biases as they are.
fn install(p: &mut Param, master: &Tensor, wf: QFormat) -> Result<()> {
    p.value.data_mut().copy_from_slice(master.data());
    if p.kind == ParamKind::Weight {
        fake_quantize_in_place(simd::backend(), wf, p.value.data_mut(), None)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finetune::evaluate;
    use crate::TrainConfig;
    use advcomp_data::{DatasetConfig, SynthDigits};
    use advcomp_nn::{Dense, FakeQuant, Flatten, Relu, StepDecay};
    use rand::SeedableRng;

    fn mlp_with_fq(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(FakeQuant::new()),
            Box::new(Dense::with_name("fc1", 28 * 28, 24, &mut rng)),
            Box::new(Relu::new()),
            Box::new(FakeQuant::new()),
            Box::new(Dense::with_name("fc2", 24, 10, &mut rng)),
        ])
    }

    fn digits() -> (advcomp_data::Dataset, advcomp_data::Dataset) {
        SynthDigits::generate(&DatasetConfig {
            train: 200,
            test: 100,
            seed: 13,
            noise: 0.05,
        })
    }

    fn quick_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 32,
            schedule: StepDecay::new(0.02, 0.1, vec![epochs.max(2) - 1]),
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
        }
    }

    #[test]
    fn config_schedules() {
        let c = QuantConfig::for_bitwidth(4).unwrap();
        assert_eq!(c.weight_format.int_bits(), 1);
        assert_eq!(c.activation_format.unwrap().int_bits(), 1);
        let w = QuantConfig::weights_only(8).unwrap();
        assert!(w.activation_format.is_none());
        assert!(QuantConfig::for_bitwidth(1).is_err());
    }

    #[test]
    fn quantize_weights_rounds_to_levels() {
        let mut model = mlp_with_fq(1);
        let q = Quantizer::for_bitwidth(4).unwrap();
        q.quantize_weights(&mut model);
        let fmt = QFormat::for_bitwidth(4).unwrap();
        let w = &model.param("fc1.weight").unwrap().value;
        assert!(w.data().iter().all(|&v| fmt.is_representable(v)));
    }

    #[test]
    fn enable_activations_counts_points() {
        let mut model = mlp_with_fq(2);
        let q = Quantizer::for_bitwidth(8).unwrap();
        assert_eq!(q.enable_activations(&mut model), 2);
        // Weights-only config installs None — still 2 points touched.
        let q = Quantizer::new(QuantConfig::weights_only(8).unwrap());
        assert_eq!(q.enable_activations(&mut model), 2);
        assert!(model.layers()[1].activation_format().is_none());
    }

    #[test]
    fn qat_preserves_accuracy_at_moderate_bitwidth() {
        let (train, test) = digits();
        let mut model = mlp_with_fq(3);
        crate::train_baseline(&mut model, &train, &quick_cfg(6)).unwrap();
        let base = evaluate(&mut model, &test, 64).unwrap();

        let q = Quantizer::for_bitwidth(8).unwrap();
        q.quantize_and_finetune(&mut model, &train, &quick_cfg(3))
            .unwrap();
        let quant = evaluate(&mut model, &test, 64).unwrap();
        assert!(
            quant > base - 0.1,
            "8-bit quantisation collapsed accuracy {base} -> {quant}"
        );
        // Weights really are on the grid.
        let fmt = QFormat::for_bitwidth(8).unwrap();
        let w = &model.param("fc2.weight").unwrap().value;
        assert!(w.data().iter().all(|&v| fmt.is_representable(v)));
    }

    #[test]
    fn four_bit_has_more_zeros_than_sixteen_bit() {
        // The Figure 6 observation: the 4-bit model has many more exact
        // zeros because of its coarse step.
        let (train, _) = digits();
        let mut model = mlp_with_fq(4);
        crate::train_baseline(&mut model, &train, &quick_cfg(4)).unwrap();
        let mut m4 = mlp_with_fq(4);
        m4.import_params(&model.export_params()).unwrap();
        let mut m16 = mlp_with_fq(4);
        m16.import_params(&model.export_params()).unwrap();
        Quantizer::for_bitwidth(4)
            .unwrap()
            .quantize_weights(&mut m4);
        Quantizer::for_bitwidth(16)
            .unwrap()
            .quantize_weights(&mut m16);
        let z4 = m4.param("fc1.weight").unwrap().value.len()
            - m4.param("fc1.weight").unwrap().value.l0_norm();
        let z16 = m16.param("fc1.weight").unwrap().value.len()
            - m16.param("fc1.weight").unwrap().value.l0_norm();
        assert!(z4 > z16, "zeros at 4-bit {z4} vs 16-bit {z16}");
    }

    #[test]
    fn empty_data_rejected() {
        let (train, _) = digits();
        let empty = train.take(0).unwrap();
        let mut model = mlp_with_fq(5);
        let q = Quantizer::for_bitwidth(8).unwrap();
        assert!(q
            .quantize_and_finetune(&mut model, &empty, &quick_cfg(1))
            .is_err());
    }
}
