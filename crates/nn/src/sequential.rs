//! Layer container.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::{NnError, Result};
use advcomp_tensor::Tensor;

/// A feed-forward network: an ordered chain of boxed [`Layer`]s.
///
/// `forward` threads the input through every layer; `backward` runs the
/// reverse chain and returns the gradient **with respect to the network
/// input** — the quantity every adversarial attack in the paper consumes.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Builds a network from layers, first to last.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layer chain.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer chain (used by compression passes to
    /// enable `FakeQuant` points).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Runs the network on a batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an empty network or any layer
    /// error (shape mismatches and the like).
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidConfig("empty network".into()));
        }
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Backpropagates a gradient seeded at the network output, accumulating
    /// parameter gradients and returning the input gradient.
    ///
    /// May be called several times after one `forward` with different seed
    /// gradients (DeepFool differentiates each logit separately).
    ///
    /// # Errors
    ///
    /// Returns layer errors; in particular
    /// [`NnError::BackwardBeforeForward`] when `forward` has not run.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidConfig("empty network".into()));
        }
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// All parameters, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All parameters, mutably, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Zeroes every accumulated parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Looks up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params().into_iter().find(|p| p.name == name)
    }

    /// Looks up a parameter by name, mutably.
    pub fn param_mut(&mut self, name: &str) -> Option<&mut Param> {
        self.params_mut().into_iter().find(|p| p.name == name)
    }

    /// Installs `format` on every activation-quantisation point
    /// (`FakeQuant` layer), returning how many points were updated.
    ///
    /// Passing `None` restores full-precision activations.
    pub fn set_activation_format(&mut self, format: Option<advcomp_qformat::QFormat>) -> usize {
        self.layers
            .iter_mut()
            .map(|l| l.set_activation_format(format))
            .filter(|&updated| updated)
            .count()
    }

    /// Renders a human-readable layer table: kind, parameter names, shapes
    /// and per-layer parameter counts.
    pub fn summary(&self) -> String {
        let mut out = String::from("layer  kind         params\n");
        for (i, layer) in self.layers.iter().enumerate() {
            let params = layer.params();
            let detail = if params.is_empty() {
                "-".to_string()
            } else {
                params
                    .iter()
                    .map(|p| format!("{} {:?}", p.name, p.value.shape()))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let count: usize = params.iter().map(|p| p.len()).sum();
            out.push_str(&format!("{i:<6} {:<12} {detail} ({count})\n", layer.kind()));
        }
        out.push_str(&format!("total parameters: {}\n", self.num_params()));
        out
    }

    /// Exports all parameter values as `(name, tensor)` pairs — the
    /// serialisation boundary used by model checkpoints.
    pub fn export_params(&self) -> Vec<(String, Tensor)> {
        self.params()
            .into_iter()
            .map(|p| (p.name.clone(), p.value.clone()))
            .collect()
    }

    /// Freezes every packable layer's weights into block-quantised form
    /// for integer-GEMM inference (see [`Layer::freeze_quantized`]),
    /// returning how many layers were frozen. Frozen weights leave
    /// `params()`/`export_params()`; serialise them with
    /// [`Sequential::export_quantized`].
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (already frozen, or a weight
    /// format with no packed representation).
    pub fn freeze_quantized(
        &mut self,
        weight_format: advcomp_qformat::QFormat,
        act_format: advcomp_qformat::QFormat,
    ) -> Result<usize> {
        let mut frozen = 0;
        for layer in &mut self.layers {
            if layer.freeze_quantized(weight_format, act_format)? {
                frozen += 1;
            }
        }
        Ok(frozen)
    }

    /// Exports every frozen layer's packed weights as `(name, handle)`
    /// pairs in layer order — the checkpoint-v3 serialisation boundary,
    /// complementing [`Sequential::export_params`] (which now carries only
    /// the remaining f32 parameters).
    pub fn export_quantized(&self) -> Vec<(String, crate::QuantizedWeights)> {
        self.layers
            .iter()
            .filter_map(|l| l.quantized_weights())
            .map(|(name, q)| (name.to_string(), q.clone()))
            .collect()
    }

    /// Installs packed weights on the layer owning the named weight
    /// parameter, freezing it if it was dense. Returns `false` when no
    /// layer claims the name.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when a layer claims the name but
    /// the packed shape is incompatible.
    pub fn install_quantized(
        &mut self,
        name: &str,
        weights: &crate::QuantizedWeights,
    ) -> Result<bool> {
        for layer in &mut self.layers {
            if layer.install_quantized_weights(name, weights)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Imports parameter values by name.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if a name is unknown or a shape
    /// differs from the existing parameter.
    pub fn import_params(&mut self, values: &[(String, Tensor)]) -> Result<()> {
        for (name, value) in values {
            let p = self
                .param_mut(name)
                .ok_or_else(|| NnError::InvalidConfig(format!("unknown parameter {name}")))?;
            if p.value.shape() != value.shape() {
                return Err(NnError::InvalidConfig(format!(
                    "shape mismatch for {name}: {:?} vs {:?}",
                    p.value.shape(),
                    value.shape()
                )));
            }
            p.value = value.clone();
        }
        Ok(())
    }
}

impl Clone for Sequential {
    /// Clones the network into an independent replica via
    /// [`Layer::clone_layer`]: identical persistent state (parameter
    /// values, dropout RNG position, quantisation formats), fresh backward
    /// caches.
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.iter().map(|l| l.clone_layer()).collect(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<&str> = self.layers.iter().map(|l| l.kind()).collect();
        f.debug_struct("Sequential")
            .field("layers", &kinds)
            .field("num_params", &self.num_params())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use rand::SeedableRng;

    fn net() -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        Sequential::new(vec![
            Box::new(Dense::with_name("fc1", 4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::with_name("fc2", 8, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut n = net();
        let x = Tensor::zeros(&[5, 4]);
        let y = n.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[5, 3]);
        let gx = n.backward(&Tensor::ones(&[5, 3])).unwrap();
        assert_eq!(gx.shape(), &[5, 4]);
    }

    #[test]
    fn empty_network_errors() {
        let mut n = Sequential::new(vec![]);
        assert!(n.forward(&Tensor::zeros(&[1, 1]), Mode::Eval).is_err());
        assert!(n.backward(&Tensor::zeros(&[1, 1])).is_err());
    }

    #[test]
    fn param_accounting() {
        let n = net();
        assert_eq!(n.params().len(), 4);
        assert_eq!(n.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert!(n.param("fc1.weight").is_some());
        assert!(n.param("nope").is_none());
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut n = net();
        let x = Tensor::ones(&[2, 4]);
        n.forward(&x, Mode::Train).unwrap();
        n.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert!(n.params().iter().any(|p| p.grad.l0_norm() > 0));
        n.zero_grad();
        assert!(n.params().iter().all(|p| p.grad.l0_norm() == 0));
    }

    #[test]
    fn export_import_roundtrip() {
        let mut a = net();
        let mut b = net();
        a.param_mut("fc1.weight").unwrap().value.data_mut()[0] = 123.0;
        let exported = a.export_params();
        b.import_params(&exported).unwrap();
        assert_eq!(b.param("fc1.weight").unwrap().value.data()[0], 123.0);
    }

    #[test]
    fn import_rejects_unknown_and_mismatched() {
        let mut n = net();
        assert!(n
            .import_params(&[("ghost".into(), Tensor::zeros(&[1]))])
            .is_err());
        assert!(n
            .import_params(&[("fc1.weight".into(), Tensor::zeros(&[1, 1]))])
            .is_err());
    }

    #[test]
    fn repeated_backward_after_one_forward() {
        // DeepFool relies on this: several seed gradients per forward.
        let mut n = net();
        let x = Tensor::ones(&[1, 4]);
        n.forward(&x, Mode::Eval).unwrap();
        let g1 = n
            .backward(&Tensor::new(&[1, 3], vec![1.0, 0.0, 0.0]).unwrap())
            .unwrap();
        let g2 = n
            .backward(&Tensor::new(&[1, 3], vec![1.0, 0.0, 0.0]).unwrap())
            .unwrap();
        assert!(g1.allclose(&g2, 1e-6));
    }

    #[test]
    fn summary_lists_layers_and_counts() {
        let n = net();
        let s = n.summary();
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
        assert!(s.contains("fc1.weight"));
        assert!(s.contains(&format!("total parameters: {}", n.num_params())));
    }

    #[test]
    fn clone_is_independent_replica() {
        let mut a = net();
        let x = Tensor::ones(&[2, 4]);
        a.forward(&x, Mode::Eval).unwrap();
        let mut b = a.clone();
        // Same persistent state → identical outputs.
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya.data(), yb.data());
        // Mutating the clone's parameters must not touch the original.
        b.param_mut("fc1.weight").unwrap().value.data_mut()[0] += 1.0;
        let ya2 = a.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya.data(), ya2.data());
    }

    #[test]
    fn clone_starts_cache_free() {
        let mut a = net();
        a.forward(&Tensor::ones(&[1, 4]), Mode::Eval).unwrap();
        let mut b = a.clone();
        // The original can backpropagate; the replica has no cache yet.
        assert!(a.backward(&Tensor::ones(&[1, 3])).is_ok());
        assert!(b.backward(&Tensor::ones(&[1, 3])).is_err());
    }

    #[test]
    fn debug_lists_layer_kinds() {
        let n = net();
        let s = format!("{n:?}");
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
    }
}
