//! Model registry: named, validated, compiled, hot-swappable model sets.
//!
//! The registry holds one **baseline** (the full-precision reference model)
//! and any number of **compressed variants** (pruned / quantised copies of
//! the same task). Models enter the registry either in-memory or from
//! checkpoint files — file loads go through the CRC-verified checkpoint
//! path (v2 float or v3 packed-quantised), so a torn or bit-flipped model
//! file is rejected at load time with
//! [`CheckpointError::Corrupt`](advcomp_models::CheckpointError) instead of
//! serving garbage predictions.
//!
//! Every registered model is compiled to an [`ExecPlan`] for the
//! registry's input shape when it is registered or swapped in. A model
//! that does not lower is rejected there, the same way a corrupt
//! checkpoint is, and nothing is published. The plan is then
//! probe-forwarded once on a zero sample to pin down its output arity;
//! variants must agree with the baseline's class count.
//!
//! # Snapshots and hot swap
//!
//! The registry publishes its models as immutable [`ModelSet`] snapshots
//! behind an [`Arc`], stamped with a monotonically increasing
//! **generation**. Engines take a [`RegistryHandle`] at start; each worker
//! clones its own copies of the set's plans and re-clones only when the
//! generation moves — a relaxed integer compare per batch, no lock on the
//! forward path.
//!
//! [`ModelRegistry::swap`] atomically replaces one named model with a
//! freshly CRC-validated, compiled and probe-validated checkpoint load:
//! the new [`ModelSet`] is built off to the side and published in one
//! pointer store, so a swap never blocks or drains in-flight batches — workers
//! finish the current batch on the old weights and pick up the new set at
//! the next batch boundary. A swap that fails validation leaves the
//! published set untouched.

use crate::ServeError;
use advcomp_detect::{detector_by_name, DetectorCalibration};
use advcomp_graph::ExecPlan;
use advcomp_models::Checkpoint;
use advcomp_nn::Sequential;
use advcomp_tensor::Tensor;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One immutable published snapshot of every registered model, each
/// compiled for the registry's input shape.
#[derive(Debug, Clone)]
pub struct ModelSet {
    baseline: (String, ExecPlan),
    variants: Vec<(String, ExecPlan)>,
    classes: usize,
}

impl ModelSet {
    /// `(name, plan)` of the baseline. Workers clone the plan, so
    /// concurrent forwards never share an arena.
    pub fn baseline(&self) -> &(String, ExecPlan) {
        &self.baseline
    }

    /// `(name, plan)` of each compressed variant, registry order.
    pub fn variants(&self) -> &[(String, ExecPlan)] {
        &self.variants
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Names of all models, baseline first.
    pub fn names(&self) -> Vec<String> {
        std::iter::once(self.baseline.0.clone())
            .chain(self.variants.iter().map(|(n, _)| n.clone()))
            .collect()
    }
}

/// Shared swap cell: the published snapshot plus its generation stamp.
#[derive(Debug)]
struct SwapCell {
    current: Mutex<Option<Arc<ModelSet>>>,
    generation: AtomicU64,
    swaps: AtomicU64,
}

/// Named model set for one serving task.
#[derive(Debug)]
pub struct ModelRegistry {
    input_shape: Vec<usize>,
    cell: Arc<SwapCell>,
    calibration: Option<DetectorCalibration>,
}

/// Cheap cloneable view of the registry's published snapshot, held by
/// running engines. Stays live across [`ModelRegistry::swap`] calls.
#[derive(Debug, Clone)]
pub struct RegistryHandle {
    cell: Arc<SwapCell>,
}

impl RegistryHandle {
    /// Current generation stamp; changes exactly when a swap publishes.
    /// A relaxed load — cheap enough to check once per batch.
    pub fn generation(&self) -> u64 {
        self.cell.generation.load(Ordering::Relaxed)
    }

    /// The current `(generation, snapshot)` pair. The generation is read
    /// under the same lock that guards the snapshot pointer, so the pair
    /// is always mutually consistent.
    pub fn snapshot(&self) -> (u64, Arc<ModelSet>) {
        let guard = self.cell.current.lock().unwrap_or_else(|p| p.into_inner());
        let set = guard
            .as_ref()
            .expect("handle only exists with a published baseline")
            .clone();
        (self.cell.generation.load(Ordering::Relaxed), set)
    }

    /// Number of successful swaps since registry creation.
    pub fn swaps(&self) -> u64 {
        self.cell.swaps.load(Ordering::Relaxed)
    }
}

impl ModelRegistry {
    /// Creates an empty registry for inputs of `input_shape` (one sample,
    /// without the batch axis — e.g. `[1, 28, 28]`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an empty or zero-sized shape.
    pub fn new(input_shape: &[usize]) -> Result<Self, ServeError> {
        if input_shape.is_empty() || input_shape.contains(&0) {
            return Err(ServeError::Config(format!(
                "input shape {input_shape:?} must be non-empty with positive dims"
            )));
        }
        Ok(ModelRegistry {
            input_shape: input_shape.to_vec(),
            cell: Arc::new(SwapCell {
                current: Mutex::new(None),
                generation: AtomicU64::new(0),
                swaps: AtomicU64::new(0),
            }),
            calibration: None,
        })
    }

    /// Attaches a detector calibration, making the engine's guard flag at
    /// the calibrated threshold with the calibrated detector instead of
    /// the manually configured ones.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the calibration names a detector this
    /// build does not provide.
    pub fn set_calibration(&mut self, cal: DetectorCalibration) -> Result<(), ServeError> {
        if detector_by_name(&cal.detector).is_none() {
            return Err(ServeError::Config(format!(
                "calibration artifact names unknown detector {:?}",
                cal.detector
            )));
        }
        self.calibration = Some(cal);
        Ok(())
    }

    /// Loads a CRC-verified calibration artifact (`.advd`, written by
    /// `DetectorCalibration::save`) from disk and attaches it — the serve
    /// counterpart of loading model checkpoints. A corrupt artifact is
    /// rejected at load time, never deployed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Detect`] on I/O failure or artifact corruption,
    /// [`ServeError::Config`] for an unknown detector name.
    pub fn load_calibration(&mut self, path: &Path) -> Result<(), ServeError> {
        let cal = DetectorCalibration::load(path)?;
        self.set_calibration(cal)
    }

    /// The attached detector calibration, if any.
    pub fn calibration(&self) -> Option<&DetectorCalibration> {
        self.calibration.as_ref()
    }

    fn current(&self) -> Option<Arc<ModelSet>> {
        self.cell
            .current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    fn publish(&self, set: ModelSet, is_swap: bool) {
        let mut guard = self.cell.current.lock().unwrap_or_else(|p| p.into_inner());
        *guard = Some(Arc::new(set));
        self.cell.generation.fetch_add(1, Ordering::Relaxed);
        if is_swap {
            self.cell.swaps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Registers the baseline model, compiling it and validating the plan
    /// on a zero probe sample.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when a baseline is already set or the model
    /// does not compile for the registry's input shape.
    pub fn set_baseline(
        &mut self,
        name: impl Into<String>,
        model: Sequential,
    ) -> Result<(), ServeError> {
        if self.current().is_some() {
            return Err(ServeError::Config("baseline already registered".into()));
        }
        let name = name.into();
        let (plan, classes) = self.compile(&name, &model)?;
        self.publish(
            ModelSet {
                baseline: (name, plan),
                variants: Vec::new(),
                classes,
            },
            false,
        );
        Ok(())
    }

    /// Registers a compressed variant, validating shape and class count
    /// against the baseline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] without a baseline, on duplicate names, on a
    /// model that does not compile, or on a class mismatch.
    pub fn add_variant(
        &mut self,
        name: impl Into<String>,
        model: Sequential,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let Some(old) = self.current() else {
            return Err(ServeError::Config(
                "register the baseline before variants".into(),
            ));
        };
        if old.names().contains(&name) {
            return Err(ServeError::Config(format!("duplicate model name {name}")));
        }
        let (plan, classes) = self.compile(&name, &model)?;
        if classes != old.classes {
            return Err(ServeError::Config(format!(
                "variant {name} has {classes} classes, baseline has {}",
                old.classes
            )));
        }
        let mut next = (*old).clone();
        next.variants.push((name, plan));
        self.publish(next, false);
        Ok(())
    }

    /// Loads checkpoint `path` into `arch` and registers it as baseline.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O / corruption (CRC mismatch ⇒
    /// `CheckpointError::Corrupt`) or config errors.
    pub fn load_baseline(
        &mut self,
        name: impl Into<String>,
        mut arch: Sequential,
        path: &Path,
    ) -> Result<(), ServeError> {
        Checkpoint::load(path)?.restore(&mut arch)?;
        self.set_baseline(name, arch)
    }

    /// Loads checkpoint `path` into `arch` and registers it as a variant.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O / corruption or config errors, as
    /// [`ModelRegistry::load_baseline`].
    pub fn load_variant(
        &mut self,
        name: impl Into<String>,
        mut arch: Sequential,
        path: &Path,
    ) -> Result<(), ServeError> {
        Checkpoint::load(path)?.restore(&mut arch)?;
        self.add_variant(name, arch)
    }

    /// Atomically replaces the model registered under `name` (baseline or
    /// variant) with a CRC-validated checkpoint load of `path` into
    /// `arch`, then publishes a new snapshot with a bumped generation.
    ///
    /// The swap takes effect at each worker's next batch boundary;
    /// in-flight batches complete on the old weights and are never
    /// drained or errored. Validation failures leave the published set
    /// untouched.
    ///
    /// Takes `&self`: swapping is safe while engines are serving.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O / corruption, [`ServeError::Config`] for an unknown
    /// `name`, a model that does not compile, or a class-count mismatch.
    pub fn swap(&self, name: &str, mut arch: Sequential, path: &Path) -> Result<(), ServeError> {
        Checkpoint::load(path)?.restore(&mut arch)?;
        let Some(old) = self.current() else {
            return Err(ServeError::Config("no baseline registered".into()));
        };
        let (plan, classes) = self.compile(name, &arch)?;
        if classes != old.classes {
            return Err(ServeError::Config(format!(
                "swap for {name} has {classes} classes, registry has {}",
                old.classes
            )));
        }
        let mut next = (*old).clone();
        let slot = if next.baseline.0 == name {
            &mut next.baseline.1
        } else if let Some((_, p)) = next.variants.iter_mut().find(|(n, _)| n == name) {
            p
        } else {
            return Err(ServeError::Config(format!(
                "no model named {name} to swap (have {:?})",
                old.names()
            )));
        };
        *slot = plan;
        self.publish(next, true);
        Ok(())
    }

    /// Number of successful swaps published since registry creation.
    pub fn swaps(&self) -> u64 {
        self.cell.swaps.load(Ordering::Relaxed)
    }

    /// A cloneable handle for engines: grants access to `(generation,
    /// snapshot)` pairs that stay current across later swaps.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when no baseline is registered yet.
    pub fn handle(&self) -> Result<RegistryHandle, ServeError> {
        if self.current().is_none() {
            return Err(ServeError::Config("no baseline registered".into()));
        }
        Ok(RegistryHandle {
            cell: Arc::clone(&self.cell),
        })
    }

    /// Shape of one input sample (no batch axis).
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Scalar element count of one input sample.
    pub fn sample_len(&self) -> usize {
        self.input_shape.iter().product()
    }

    /// Number of output classes (0 until a baseline is registered).
    pub fn num_classes(&self) -> usize {
        self.current().map_or(0, |s| s.classes)
    }

    /// Name of the baseline model, if registered.
    pub fn baseline_name(&self) -> Option<String> {
        self.current().map(|s| s.baseline.0.clone())
    }

    /// Names of all registered models, baseline first.
    pub fn names(&self) -> Vec<String> {
        self.current().map_or_else(Vec::new, |s| s.names())
    }

    /// Compiles `model` for the registry's input shape and probe-forwards a
    /// zero sample through the plan, returning the plan and the model's
    /// class count.
    fn compile(&self, name: &str, model: &Sequential) -> Result<(ExecPlan, usize), ServeError> {
        let mut plan = ExecPlan::compile(model, &self.input_shape)
            .map_err(|e| ServeError::Config(format!("model {name} does not compile: {e}")))?;
        let mut shape = vec![1];
        shape.extend_from_slice(&self.input_shape);
        let logits = plan
            .forward(&Tensor::zeros(&shape))
            .map_err(|e| ServeError::Config(format!("model {name} probe failed: {e}")))?;
        if logits.ndim() != 2 {
            return Err(ServeError::Config(format!(
                "model {name} produced logits of shape {:?}, expected [1, classes]",
                logits.shape()
            )));
        }
        Ok((plan, logits.shape()[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_models::mlp;
    use advcomp_nn::Mode;

    fn shape() -> [usize; 3] {
        [1, 28, 28]
    }

    fn probe_input() -> Tensor {
        Tensor::full(&[2, 1, 28, 28], 0.3)
    }

    /// Logits of a published plan (cloned, as a worker would).
    fn plan_logits(entry: &(String, ExecPlan)) -> Vec<f32> {
        entry.1.clone().forward(&probe_input()).unwrap().into_data()
    }

    /// Logits of the `Sequential` reference.
    fn model_logits(mut model: Sequential) -> Vec<f32> {
        model
            .forward(&probe_input(), Mode::Eval)
            .unwrap()
            .into_data()
    }

    #[test]
    fn baseline_then_variants() {
        let mut reg = ModelRegistry::new(&shape()).unwrap();
        assert!(reg.handle().is_err());
        reg.set_baseline("dense", mlp(8, 0)).unwrap();
        reg.add_variant("quant8", mlp(8, 1)).unwrap();
        reg.add_variant("pruned", mlp(6, 2)).unwrap();
        assert_eq!(reg.num_classes(), 10);
        assert_eq!(reg.baseline_name().as_deref(), Some("dense"));
        assert_eq!(reg.names(), vec!["dense", "quant8", "pruned"]);
        let (_, set) = reg.handle().unwrap().snapshot();
        assert_eq!(set.baseline().0, "dense");
        assert_eq!(set.variants().len(), 2);
        // Each published plan answers exactly as its source model.
        assert_eq!(plan_logits(set.baseline()), model_logits(mlp(8, 0)));
        assert_eq!(plan_logits(&set.variants()[1]), model_logits(mlp(6, 2)));
    }

    #[test]
    fn rejects_misconfiguration() {
        assert!(ModelRegistry::new(&[]).is_err());
        assert!(ModelRegistry::new(&[1, 0, 4]).is_err());
        let mut reg = ModelRegistry::new(&shape()).unwrap();
        // Variant before baseline.
        assert!(reg.add_variant("v", mlp(4, 0)).is_err());
        reg.set_baseline("dense", mlp(4, 0)).unwrap();
        assert!(reg.set_baseline("again", mlp(4, 1)).is_err());
        // Duplicate name.
        assert!(reg.add_variant("dense", mlp(4, 2)).is_err());
    }

    #[test]
    fn rejects_a_model_that_does_not_compile() {
        // An MLP flattens anything, so use a shape whose element count
        // mismatches the dense layer input: lowering fails, and the
        // registry rejects the model before publishing anything.
        let mut reg = ModelRegistry::new(&[1, 3, 3]).unwrap();
        match reg.set_baseline("dense", mlp(4, 0)) {
            Err(ServeError::Config(msg)) => assert!(msg.contains("does not compile"), "{msg}"),
            other => panic!("expected a compile rejection, got {other:?}"),
        }
        assert!(reg.handle().is_err(), "a rejected model publishes nothing");
    }

    #[test]
    fn load_from_checkpoint_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join("advcomp_serve_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.advc");
        let trained = mlp(8, 42);
        Checkpoint::capture(&trained).save(&path).unwrap();

        let mut reg = ModelRegistry::new(&shape()).unwrap();
        reg.load_baseline("dense", mlp(8, 0), &path).unwrap();
        let (_, set) = reg.handle().unwrap().snapshot();
        assert_eq!(plan_logits(set.baseline()), model_logits(trained));

        // Flip one byte in the middle of the file: load must fail with a
        // corruption error, not restore garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let bad = dir.join("model_bad.advc");
        std::fs::write(&bad, &bytes).unwrap();
        let mut reg2 = ModelRegistry::new(&shape()).unwrap();
        match reg2.load_baseline("dense", mlp(8, 0), &bad) {
            Err(ServeError::Checkpoint(e)) => {
                assert!(e.to_string().contains("corrupt"), "{e}");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn swap_bumps_generation_and_replaces_weights() {
        let dir = std::env::temp_dir().join("advcomp_serve_registry_swap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.advc");
        let next = mlp(8, 7);
        Checkpoint::capture(&next).save(&path).unwrap();

        let mut reg = ModelRegistry::new(&shape()).unwrap();
        reg.set_baseline("dense", mlp(8, 0)).unwrap();
        reg.add_variant("quant8", mlp(8, 1)).unwrap();
        let handle = reg.handle().unwrap();
        let (g0, s0) = handle.snapshot();
        let before = plan_logits(&s0.variants()[0]);

        reg.swap("quant8", mlp(8, 0), &path).unwrap();
        let (g1, s1) = handle.snapshot();
        assert!(g1 > g0, "generation must move: {g0} -> {g1}");
        assert_eq!(handle.swaps(), 1);
        // Names and order are unchanged; the plan is the new model's.
        assert_eq!(s1.names(), vec!["dense", "quant8"]);
        let after = plan_logits(&s1.variants()[0]);
        assert_ne!(before, after);
        assert_eq!(after, model_logits(next));
        // The old snapshot is untouched (in-flight batches keep working).
        assert_eq!(before, plan_logits(&s0.variants()[0]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn swap_rejects_unknown_name_and_corrupt_file_without_publishing() {
        let dir = std::env::temp_dir().join("advcomp_serve_registry_swapfail_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.advc");
        Checkpoint::capture(&mlp(8, 7)).save(&path).unwrap();

        let mut reg = ModelRegistry::new(&shape()).unwrap();
        reg.set_baseline("dense", mlp(8, 0)).unwrap();
        let handle = reg.handle().unwrap();
        let g0 = handle.generation();

        assert!(reg.swap("nope", mlp(8, 0), &path).is_err());

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let bad = dir.join("bad.advc");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(reg.swap("dense", mlp(8, 0), &bad).is_err());

        assert_eq!(handle.generation(), g0, "failed swaps publish nothing");
        assert_eq!(handle.swaps(), 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }
}
