//! ROC calibration of detector scores and the serialised calibration
//! artifact serve loads next to its checkpoints.
//!
//! Given labelled traffic — detector scores on known-clean and
//! known-adversarial batches — [`RocCurve::from_scores`] sweeps every
//! distinct score as a threshold to produce the full ROC curve, its
//! trapezoid [`RocCurve::auc`], and a chosen operating point
//! ([`RocCurve::operating_point`]: the highest-TPR threshold whose false
//! positive rate stays at or under a target). The result is frozen into a
//! versioned [`DetectorCalibration`] artifact (magic `ADVD`, CRC-32
//! footer, same corruption discipline as model checkpoints) that the
//! serve registry loads to turn raw guard scores into calibrated
//! verdicts.

use crate::{DetectError, Result};
use advcomp_models::crc32;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// One ROC point: the rates achieved by flagging `score >= threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// False positive rate: fraction of clean traffic flagged.
    pub fpr: f64,
    /// True positive rate: fraction of adversarial traffic flagged.
    pub tpr: f64,
}

/// A full ROC curve over one detector's scores.
#[derive(Debug, Clone)]
pub struct RocCurve {
    points: Vec<RocPoint>,
    clean: usize,
    adversarial: usize,
}

impl RocCurve {
    /// Builds the curve from labelled score samples.
    ///
    /// Thresholds sweep descending over the distinct observed scores, so
    /// the curve starts at `(0, 0)` (threshold `+inf`: nothing flagged)
    /// and ends at `(1, 1)` (threshold at the minimum score: everything
    /// flagged). Ties between clean and adversarial samples at the same
    /// score land on a single point, which is what makes the trapezoid
    /// [`Self::auc`] equal the Mann-Whitney statistic with ties counted
    /// one-half.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] if either class is empty or any
    /// score is non-finite.
    pub fn from_scores(clean: &[f64], adversarial: &[f64]) -> Result<Self> {
        if clean.is_empty() || adversarial.is_empty() {
            return Err(DetectError::InvalidConfig(
                "ROC needs at least one clean and one adversarial score".into(),
            ));
        }
        if clean.iter().chain(adversarial).any(|s| !s.is_finite()) {
            return Err(DetectError::InvalidConfig(
                "ROC scores must be finite".into(),
            ));
        }
        // (score, is_adversarial), descending by score.
        let mut samples: Vec<(f64, bool)> = clean
            .iter()
            .map(|&s| (s, false))
            .chain(adversarial.iter().map(|&s| (s, true)))
            .collect();
        samples.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));

        let (nc, na) = (clean.len() as f64, adversarial.len() as f64);
        let mut points = vec![RocPoint {
            threshold: f64::INFINITY,
            fpr: 0.0,
            tpr: 0.0,
        }];
        let (mut fp, mut tp) = (0usize, 0usize);
        let mut i = 0;
        while i < samples.len() {
            let threshold = samples[i].0;
            // Consume the whole tie group before emitting a point.
            while i < samples.len() && samples[i].0 == threshold {
                if samples[i].1 {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            points.push(RocPoint {
                threshold,
                fpr: fp as f64 / nc,
                tpr: tp as f64 / na,
            });
        }
        Ok(RocCurve {
            points,
            clean: clean.len(),
            adversarial: adversarial.len(),
        })
    }

    /// The curve's points, in threshold-descending (rate-ascending) order.
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Number of clean samples the curve was built from.
    pub fn clean_count(&self) -> usize {
        self.clean
    }

    /// Number of adversarial samples the curve was built from.
    pub fn adversarial_count(&self) -> usize {
        self.adversarial
    }

    /// Area under the curve by trapezoid rule — equivalently the
    /// probability a random adversarial sample outscores a random clean
    /// one, ties counted one-half.
    pub fn auc(&self) -> f64 {
        let mut area = 0.0;
        for w in self.points.windows(2) {
            area += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
        }
        area
    }

    /// The operating point for a target false-positive rate: the last
    /// curve point (highest TPR) with `fpr <= target_fpr`.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] if `target_fpr` is not in `[0, 1]`.
    pub fn operating_point(&self, target_fpr: f64) -> Result<RocPoint> {
        if !(0.0..=1.0).contains(&target_fpr) {
            return Err(DetectError::InvalidConfig(format!(
                "target FPR must be in [0, 1], got {target_fpr}"
            )));
        }
        Ok(*self
            .points
            .iter()
            .rev()
            .find(|p| p.fpr <= target_fpr)
            .expect("curve starts at fpr 0"))
    }
}

/// Rank-based AUC in pure f64 — the Mann-Whitney U statistic computed
/// independently of the trapezoid path, used as the differential-test
/// reference for [`RocCurve::auc`].
///
/// # Errors
///
/// Same validation as [`RocCurve::from_scores`].
pub fn reference_auc(clean: &[f64], adversarial: &[f64]) -> Result<f64> {
    if clean.is_empty() || adversarial.is_empty() {
        return Err(DetectError::InvalidConfig(
            "ROC needs at least one clean and one adversarial score".into(),
        ));
    }
    if clean.iter().chain(adversarial).any(|s| !s.is_finite()) {
        return Err(DetectError::InvalidConfig(
            "ROC scores must be finite".into(),
        ));
    }
    let mut u = 0.0f64;
    for &a in adversarial {
        for &c in clean {
            if a > c {
                u += 1.0;
            } else if a == c {
                u += 0.5;
            }
        }
    }
    Ok(u / (clean.len() as f64 * adversarial.len() as f64))
}

const ARTIFACT_MAGIC: &[u8; 4] = b"ADVD";
const ARTIFACT_VERSION: u32 = 1;

/// A frozen detector operating point, ready to deploy.
///
/// Produced by [`DetectorCalibration::calibrate`] from labelled traffic
/// and shipped to serve as a small binary artifact so the online guard
/// flags at exactly the threshold the ROC sweep chose.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorCalibration {
    /// Name of the detector the calibration applies to (must match
    /// [`crate::Detector::name`] at load time).
    pub detector: String,
    /// Deployed decision threshold: flag when `score >= threshold`.
    pub threshold: f64,
    /// The false-positive-rate budget the operating point was chosen for.
    pub target_fpr: f64,
    /// FPR actually achieved on the calibration set.
    pub observed_fpr: f64,
    /// TPR actually achieved on the calibration set.
    pub observed_tpr: f64,
    /// Full-curve AUC on the calibration set.
    pub auc: f64,
    /// Clean calibration samples.
    pub clean_count: u32,
    /// Adversarial calibration samples.
    pub adversarial_count: u32,
}

impl DetectorCalibration {
    /// Calibrates `detector_name` from labelled scores: builds the ROC
    /// curve, picks the `target_fpr` operating point, and freezes it.
    ///
    /// # Errors
    ///
    /// Propagates ROC construction/operating-point errors.
    pub fn calibrate(
        detector_name: &str,
        clean: &[f64],
        adversarial: &[f64],
        target_fpr: f64,
    ) -> Result<Self> {
        let curve = RocCurve::from_scores(clean, adversarial)?;
        let op = curve.operating_point(target_fpr)?;
        Ok(DetectorCalibration {
            detector: detector_name.to_string(),
            threshold: op.threshold,
            target_fpr,
            observed_fpr: op.fpr,
            observed_tpr: op.tpr,
            auc: curve.auc(),
            clean_count: curve.clean_count() as u32,
            adversarial_count: curve.adversarial_count() as u32,
        })
    }

    /// Serialises to the versioned binary artifact format.
    ///
    /// Layout (all little-endian): magic `ADVD`, version `u32`, detector
    /// name (`u16` length + UTF-8 bytes), five `f64` fields (threshold,
    /// target/observed FPR, observed TPR, AUC), two `u32` sample counts,
    /// CRC-32 of everything preceding the footer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.detector.len());
        buf.extend_from_slice(ARTIFACT_MAGIC);
        buf.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        let name = self.detector.as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        for v in [
            self.threshold,
            self.target_fpr,
            self.observed_fpr,
            self.observed_tpr,
            self.auc,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&self.clean_count.to_le_bytes());
        buf.extend_from_slice(&self.adversarial_count.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes an artifact, verifying magic, version, and CRC.
    ///
    /// # Errors
    ///
    /// [`DetectError::Artifact`] on any structural defect — bad magic,
    /// unknown version, truncation, trailing bytes, or CRC mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != ARTIFACT_MAGIC {
            return Err(DetectError::Artifact(format!(
                "bad magic {magic:02x?}, expected {ARTIFACT_MAGIC:02x?}"
            )));
        }
        let version = r.u32()?;
        if version != ARTIFACT_VERSION {
            return Err(DetectError::Artifact(format!(
                "unsupported artifact version {version} (expected {ARTIFACT_VERSION})"
            )));
        }
        let name_len = r.u16()? as usize;
        let detector = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| DetectError::Artifact("detector name is not UTF-8".into()))?;
        let threshold = r.f64()?;
        let target_fpr = r.f64()?;
        let observed_fpr = r.f64()?;
        let observed_tpr = r.f64()?;
        let auc = r.f64()?;
        let clean_count = r.u32()?;
        let adversarial_count = r.u32()?;
        let body_end = r.pos;
        let stored = r.u32()?;
        if r.pos != bytes.len() {
            return Err(DetectError::Artifact(format!(
                "{} trailing bytes after footer",
                bytes.len() - r.pos
            )));
        }
        let actual = crc32(&bytes[..body_end]);
        if stored != actual {
            return Err(DetectError::Artifact(format!(
                "CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        Ok(DetectorCalibration {
            detector,
            threshold,
            target_fpr,
            observed_fpr,
            observed_tpr,
            auc,
            clean_count,
            adversarial_count,
        })
    }

    /// Writes the artifact atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// [`DetectError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and verifies an artifact from disk.
    ///
    /// # Errors
    ///
    /// [`DetectError::Io`] on read failure, [`DetectError::Artifact`] on
    /// corruption.
    pub fn load(path: &Path) -> Result<Self> {
        Self::from_bytes(&fs::read(path)?)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(DetectError::Artifact(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_gives_auc_one() {
        let curve = RocCurve::from_scores(&[0.0, 0.1, 0.2], &[0.8, 0.9]).unwrap();
        assert_eq!(curve.auc(), 1.0);
        let op = curve.operating_point(0.0).unwrap();
        assert_eq!(op.tpr, 1.0);
        assert_eq!(op.fpr, 0.0);
        assert!(op.threshold > 0.2 && op.threshold <= 0.8);
    }

    #[test]
    fn identical_distributions_give_auc_half() {
        let s = [0.3, 0.5, 0.7];
        let curve = RocCurve::from_scores(&s, &s).unwrap();
        assert!((curve.auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_and_spans_unit_square() {
        let clean = [0.1, 0.2, 0.2, 0.35, 0.5];
        let adv = [0.2, 0.4, 0.6, 0.6, 0.9];
        let curve = RocCurve::from_scores(&clean, &adv).unwrap();
        let pts = curve.points();
        assert_eq!((pts[0].fpr, pts[0].tpr), (0.0, 0.0));
        let last = pts.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        for w in pts.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
            assert!(w[1].threshold < w[0].threshold);
        }
    }

    #[test]
    fn auc_matches_rank_reference() {
        // Deterministic pseudo-random scores with ties.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f64 / (1u64 << 24) as f64 * 20.0).round() / 20.0
        };
        let clean: Vec<f64> = (0..40).map(|_| next()).collect();
        let adv: Vec<f64> = (0..30).map(|_| (next() + 0.2).min(1.0)).collect();
        let curve = RocCurve::from_scores(&clean, &adv).unwrap();
        let reference = reference_auc(&clean, &adv).unwrap();
        assert!(
            (curve.auc() - reference).abs() < 1e-12,
            "trapezoid {} vs rank {}",
            curve.auc(),
            reference
        );
    }

    #[test]
    fn operating_point_respects_fpr_budget() {
        let clean = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        let adv = [0.55, 0.65, 0.75, 0.85, 0.95];
        let curve = RocCurve::from_scores(&clean, &adv).unwrap();
        let op = curve.operating_point(0.2).unwrap();
        assert!(op.fpr <= 0.2);
        // Every point with a lower threshold must overshoot the budget.
        for p in curve.points() {
            if p.threshold < op.threshold {
                assert!(p.fpr > 0.2);
            }
        }
        assert!(curve.operating_point(1.5).is_err());
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(RocCurve::from_scores(&[], &[0.5]).is_err());
        assert!(RocCurve::from_scores(&[0.5], &[]).is_err());
        assert!(RocCurve::from_scores(&[f64::NAN], &[0.5]).is_err());
        assert!(reference_auc(&[0.5], &[f64::INFINITY]).is_err());
    }

    fn sample_calibration() -> DetectorCalibration {
        let clean = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45];
        let adv = [0.3, 0.5, 0.6, 0.7, 0.8];
        DetectorCalibration::calibrate("disagreement", &clean, &adv, 0.1).unwrap()
    }

    #[test]
    fn artifact_round_trips_bit_exactly() {
        let cal = sample_calibration();
        assert!(cal.observed_fpr <= 0.1);
        let bytes = cal.to_bytes();
        let back = DetectorCalibration::from_bytes(&bytes).unwrap();
        assert_eq!(cal, back);
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn artifact_rejects_corruption() {
        let cal = sample_calibration();
        let good = cal.to_bytes();
        // Every single-byte flip must be caught (magic, version, fields,
        // or CRC itself).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(
                DetectorCalibration::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // Truncation and trailing garbage.
        assert!(DetectorCalibration::from_bytes(&good[..good.len() - 1]).is_err());
        let mut extended = good.clone();
        extended.push(0);
        assert!(DetectorCalibration::from_bytes(&extended).is_err());
        assert!(DetectorCalibration::from_bytes(b"").is_err());
    }

    #[test]
    fn artifact_save_load_round_trip() {
        let dir = std::env::temp_dir().join("advcomp_detect_cal_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guard.advd");
        let cal = sample_calibration();
        cal.save(&path).unwrap();
        assert_eq!(DetectorCalibration::load(&path).unwrap(), cal);
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            DetectorCalibration::load(&path),
            Err(DetectError::Io(_))
        ));
    }
}
