//! Detector scores over a compression ensemble.
//!
//! A [`Detector`] turns one batch of logits — the dense baseline's plus
//! each compressed variant's, for the same inputs — into one per-sample
//! suspicion score in `[0, 1]`. Scoring is a pure function of logits, so
//! the same detector runs online inside the serve engine (which already
//! has every ensemble member's logits in hand) and offline over a
//! [`VariantEnsemble`] whose forwards go through compiled `advcomp-graph`
//! plans.
//!
//! Three scores are provided:
//!
//! * [`DisagreementDetector`] — the fraction of variants whose top-1 label
//!   disagrees with the baseline's (the serve guard's historical score:
//!   adversarial samples transfer imperfectly across compression levels,
//!   so disagreement is a cheap attack signal);
//! * [`DivergenceDetector`] — mean symmetric KL divergence between the
//!   baseline's and each variant's softmax, squashed to `[0, 1)`; unlike
//!   disagreement it moves *before* the top-1 label flips, so it separates
//!   borderline adversarial traffic at finer granularity;
//! * [`MarginDetector`] — one minus the baseline's top-1/top-2 softmax
//!   margin; a baseline-only energy score that needs no variants at all.

use crate::{DetectError, Result};
use advcomp_attacks::PlannedEval;
use advcomp_nn::{softmax, Sequential};
use advcomp_tensor::Tensor;

/// A per-sample adversarial-suspicion score over ensemble logits.
///
/// `baseline` is `[N, C]` logits of the dense model; `variants` holds the
/// same-shape logits of each compressed variant, in ensemble order.
/// Implementations return one score in `[0, 1]` per row (higher = more
/// suspect) and must be deterministic functions of their inputs.
pub trait Detector: Send + Sync {
    /// Short identifier, e.g. `"disagreement"` — recorded in calibration
    /// artifacts so a serve deployment can verify it loaded the score it
    /// was calibrated for.
    fn name(&self) -> &'static str;

    /// Scores one batch.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] on shape mismatches or (for scores
    /// that need them) an empty variant list.
    fn score(&self, baseline: &Tensor, variants: &[Tensor]) -> Result<Vec<f64>>;
}

fn check_shapes(baseline: &Tensor, variants: &[Tensor]) -> Result<(usize, usize)> {
    if baseline.ndim() != 2 {
        return Err(DetectError::InvalidConfig(format!(
            "detector expects [N, C] logits, got shape {:?}",
            baseline.shape()
        )));
    }
    for v in variants {
        if v.shape() != baseline.shape() {
            return Err(DetectError::InvalidConfig(format!(
                "variant logits shape {:?} does not match baseline {:?}",
                v.shape(),
                baseline.shape()
            )));
        }
    }
    Ok((baseline.shape()[0], baseline.shape()[1]))
}

/// Fraction of variants whose top-1 label disagrees with the baseline's.
///
/// This is the serve engine's ensemble-guard score, factored out so the
/// online guard and the offline calibration pipeline share one
/// implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct DisagreementDetector;

impl Detector for DisagreementDetector {
    fn name(&self) -> &'static str {
        "disagreement"
    }

    fn score(&self, baseline: &Tensor, variants: &[Tensor]) -> Result<Vec<f64>> {
        let (n, _) = check_shapes(baseline, variants)?;
        if variants.is_empty() {
            return Err(DetectError::InvalidConfig(
                "disagreement score needs at least one variant".into(),
            ));
        }
        let base = baseline.argmax_rows()?;
        let mut disagree = vec![0usize; n];
        for v in variants {
            for (d, (vl, bl)) in disagree.iter_mut().zip(v.argmax_rows()?.iter().zip(&base)) {
                if vl != bl {
                    *d += 1;
                }
            }
        }
        Ok(disagree
            .into_iter()
            .map(|d| d as f64 / variants.len() as f64)
            .collect())
    }
}

/// Mean symmetric KL divergence between baseline and variant softmax
/// distributions, mapped to `[0, 1)` via `1 - exp(-skl)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DivergenceDetector;

impl Detector for DivergenceDetector {
    fn name(&self) -> &'static str {
        "divergence"
    }

    fn score(&self, baseline: &Tensor, variants: &[Tensor]) -> Result<Vec<f64>> {
        let (n, c) = check_shapes(baseline, variants)?;
        if variants.is_empty() {
            return Err(DetectError::InvalidConfig(
                "divergence score needs at least one variant".into(),
            ));
        }
        let p = softmax(baseline)?;
        let mut acc = vec![0.0f64; n];
        for v in variants {
            let q = softmax(v)?;
            for (row, acc_row) in acc.iter_mut().enumerate() {
                let mut skl = 0.0f64;
                for k in 0..c {
                    // Softmax outputs are strictly positive, but clamp
                    // anyway so a degenerate distribution cannot emit NaN.
                    let pv = f64::from(p.data()[row * c + k]).max(1e-12);
                    let qv = f64::from(q.data()[row * c + k]).max(1e-12);
                    skl += (pv - qv) * (pv / qv).ln();
                }
                *acc_row += skl;
            }
        }
        Ok(acc
            .into_iter()
            .map(|skl| 1.0 - (-(skl / variants.len() as f64)).exp())
            .collect())
    }
}

/// One minus the baseline's top-1/top-2 softmax margin — a baseline-only
/// confidence-energy score (adversarial iterates sit near decision
/// boundaries, where the margin collapses). Ignores variants.
#[derive(Debug, Clone, Copy, Default)]
pub struct MarginDetector;

impl Detector for MarginDetector {
    fn name(&self) -> &'static str {
        "margin"
    }

    fn score(&self, baseline: &Tensor, variants: &[Tensor]) -> Result<Vec<f64>> {
        let (n, c) = check_shapes(baseline, variants)?;
        if c < 2 {
            return Err(DetectError::InvalidConfig(
                "margin score needs at least two classes".into(),
            ));
        }
        let p = softmax(baseline)?;
        let mut out = Vec::with_capacity(n);
        for row in p.data().chunks(c) {
            let (mut top1, mut top2) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
            for &v in row {
                if v > top1 {
                    top2 = top1;
                    top1 = v;
                } else if v > top2 {
                    top2 = v;
                }
            }
            out.push(f64::from(1.0 - (top1 - top2)).clamp(0.0, 1.0));
        }
        Ok(out)
    }
}

/// Returns the built-in detector with `name`, for wiring a calibration
/// artifact back to its score implementation.
pub fn detector_by_name(name: &str) -> Option<Box<dyn Detector>> {
    match name {
        "disagreement" => Some(Box::new(DisagreementDetector)),
        "divergence" => Some(Box::new(DivergenceDetector)),
        "margin" => Some(Box::new(MarginDetector)),
        _ => None,
    }
}

/// A compression ensemble for offline scoring: the dense baseline plus its
/// compressed variants, each compiled to an `advcomp-graph` eval plan
/// ([`PlannedEval`]).
pub struct VariantEnsemble {
    baseline: (String, PlannedEval),
    variants: Vec<(String, PlannedEval)>,
    sample_shape: Vec<usize>,
}

impl VariantEnsemble {
    /// Builds the ensemble around `baseline`, compiling its eval plan for
    /// per-sample inputs of `sample_shape` (no batch axis).
    ///
    /// # Errors
    ///
    /// Propagates compile errors.
    pub fn new(
        name: impl Into<String>,
        baseline: &Sequential,
        sample_shape: &[usize],
    ) -> Result<Self> {
        Ok(VariantEnsemble {
            baseline: (name.into(), PlannedEval::compile(baseline, sample_shape)?),
            variants: Vec::new(),
            sample_shape: sample_shape.to_vec(),
        })
    }

    /// Adds one compressed variant (compiled on insertion).
    ///
    /// # Errors
    ///
    /// Propagates compile errors.
    pub fn push_variant(&mut self, name: impl Into<String>, model: &Sequential) -> Result<()> {
        let plan = PlannedEval::compile(model, &self.sample_shape)?;
        self.variants.push((name.into(), plan));
        Ok(())
    }

    /// Ensemble member names, baseline first.
    pub fn names(&self) -> Vec<&str> {
        std::iter::once(self.baseline.0.as_str())
            .chain(self.variants.iter().map(|(n, _)| n.as_str()))
            .collect()
    }

    /// Eval logits of every member for `x`: `(baseline, variants)`.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn logits(&mut self, x: &Tensor) -> Result<(Tensor, Vec<Tensor>)> {
        let base = self.baseline.1.logits(x)?;
        let mut variants = Vec::with_capacity(self.variants.len());
        for (_, plan) in &mut self.variants {
            variants.push(plan.logits(x)?);
        }
        Ok((base, variants))
    }

    /// Per-sample scores of `detector` over the full ensemble for `x`.
    ///
    /// # Errors
    ///
    /// Propagates forward and detector errors.
    pub fn score(&mut self, detector: &dyn Detector, x: &Tensor) -> Result<Vec<f64>> {
        let (base, variants) = self.logits(x)?;
        detector.score(&base, &variants)
    }

    /// Baseline top-1 accuracy on `(x, labels)` (eval plan path).
    ///
    /// # Errors
    ///
    /// Propagates forward errors and label/batch mismatches.
    pub fn baseline_accuracy(&mut self, x: &Tensor, labels: &[usize]) -> Result<f64> {
        Ok(self.baseline.1.accuracy(x, labels)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{Dense, Relu};
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(6, 12, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(12, 4, &mut rng)),
        ])
    }

    fn logits(rows: &[[f32; 4]]) -> Tensor {
        Tensor::new(
            &[rows.len(), 4],
            rows.iter().flatten().copied().collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn disagreement_counts_label_flips() {
        let base = logits(&[[5.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0]]);
        let agree = logits(&[[9.0, 0.0, 0.0, 0.0], [0.0, 9.0, 0.0, 0.0]]);
        let flip_first = logits(&[[0.0, 9.0, 0.0, 0.0], [0.0, 9.0, 0.0, 0.0]]);
        let scores = DisagreementDetector
            .score(&base, &[agree.clone(), flip_first])
            .unwrap();
        assert_eq!(scores, vec![0.5, 0.0]);
        let scores = DisagreementDetector.score(&base, &[agree]).unwrap();
        assert_eq!(scores, vec![0.0, 0.0]);
    }

    #[test]
    fn divergence_orders_by_distribution_shift() {
        let base = logits(&[[3.0, 0.0, 0.0, 0.0]]);
        let near = logits(&[[2.9, 0.1, 0.0, 0.0]]);
        let far = logits(&[[0.0, 3.0, 0.0, 0.0]]);
        let near_s = DivergenceDetector.score(&base, &[near]).unwrap()[0];
        let far_s = DivergenceDetector.score(&base, &[far]).unwrap()[0];
        assert!(far_s > near_s, "{far_s} vs {near_s}");
        for s in [near_s, far_s] {
            assert!((0.0..1.0).contains(&s));
        }
        // Identical distributions score ~0.
        let same = DivergenceDetector
            .score(&base, std::slice::from_ref(&base))
            .unwrap()[0];
        assert!(same.abs() < 1e-9);
    }

    #[test]
    fn margin_scores_confidence_energy() {
        let confident = logits(&[[9.0, 0.0, 0.0, 0.0]]);
        let boundary = logits(&[[1.0, 1.0, 0.0, 0.0]]);
        let hi = MarginDetector.score(&confident, &[]).unwrap()[0];
        let lo = MarginDetector.score(&boundary, &[]).unwrap()[0];
        assert!(lo > hi, "boundary sample must score higher: {lo} vs {hi}");
    }

    #[test]
    fn detectors_reject_bad_shapes_and_empty_ensembles() {
        let base = logits(&[[1.0, 0.0, 0.0, 0.0]]);
        let wrong = Tensor::zeros(&[2, 4]);
        for det in [&DisagreementDetector as &dyn Detector, &DivergenceDetector] {
            assert!(det.score(&base, &[]).is_err(), "{}", det.name());
            assert!(det.score(&base, std::slice::from_ref(&wrong)).is_err());
        }
        assert!(MarginDetector.score(&Tensor::zeros(&[2]), &[]).is_err());
        assert!(MarginDetector.score(&Tensor::zeros(&[2, 1]), &[]).is_err());
    }

    #[test]
    fn detector_by_name_round_trips() {
        for name in ["disagreement", "divergence", "margin"] {
            assert_eq!(detector_by_name(name).unwrap().name(), name);
        }
        assert!(detector_by_name("nope").is_none());
    }

    #[test]
    fn ensemble_scores_through_compiled_plans() {
        let mut dense = net(1);
        let mut ens = VariantEnsemble::new("dense", &dense, &[6]).unwrap();
        ens.push_variant("v0", &net(2)).unwrap();
        ens.push_variant("v1", &net(3)).unwrap();
        assert_eq!(ens.names(), vec!["dense", "v0", "v1"]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let x = advcomp_tensor::Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[5, 6], &mut rng);
        let scores = ens.score(&DisagreementDetector, &x).unwrap();
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        // Plan output must match the direct Sequential forward: the scores
        // of a manually-assembled logits set are identical.
        let (base, variants) = ens.logits(&x).unwrap();
        let direct = dense.forward(&x, advcomp_nn::Mode::Eval).unwrap();
        assert_eq!(base.data(), direct.data());
        assert_eq!(
            DisagreementDetector.score(&base, &variants).unwrap(),
            scores
        );
        // Accuracy helper runs.
        let labels = vec![0usize; 5];
        let acc = ens.baseline_accuracy(&x, &labels).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
