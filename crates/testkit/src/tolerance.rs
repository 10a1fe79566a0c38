//! Comparison policy for numerical test evidence.
//!
//! Three regimes, picked by what the comparison is supposed to prove:
//!
//! * [`Tolerance::BitExact`] — determinism and golden-vector conformance.
//!   The pipeline is deterministic by construction, so any drift — down to
//!   a single ulp — is a real behaviour change and must fail loudly.
//! * [`Tolerance::AbsRel`] — cross-kernel agreement. Different summation
//!   orders (the FMA chain vs the scalar 4-step body vs the triple loop)
//!   legitimately differ in the last few ulps; the differential fuzzer allows
//!   `|a − b| ≤ abs + rel · max(|a|, |b|)` per element.
//! * [`rel_l2_error`] — gradient checks. Finite differences of a piecewise
//!   smooth loss (ReLU kinks, max-pool argmax flips) can be badly wrong in
//!   isolated elements while the field as a whole is right; aggregate
//!   relative L2 error is the robust statistic.

use std::fmt;

/// Elementwise comparison policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bitwise equality (`f32::to_bits`), no exceptions.
    BitExact,
    /// `|a − b| ≤ abs + rel · max(|a|, |b|)` per element.
    AbsRel {
        /// Absolute slack.
        abs: f32,
        /// Relative slack.
        rel: f32,
    },
}

impl Tolerance {
    /// The differential fuzzer's default: the ISSUE-mandated `1e-4`
    /// absolute agreement, with a matching relative term for large values.
    pub fn kernel_default() -> Self {
        Tolerance::AbsRel {
            abs: 1e-4,
            rel: 1e-4,
        }
    }

    /// `true` when `a` and `b` agree under this policy.
    pub fn matches(&self, a: f32, b: f32) -> bool {
        match *self {
            Tolerance::BitExact => a.to_bits() == b.to_bits(),
            Tolerance::AbsRel { abs, rel } => {
                let diff = (a - b).abs();
                diff <= abs + rel * a.abs().max(b.abs())
            }
        }
    }
}

/// A single failed element, reported with enough context to debug.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Flat element index.
    pub index: usize,
    /// Expected (golden / reference) value.
    pub expected: f32,
    /// Actual (production) value.
    pub actual: f32,
}

/// Comparison failure: shape disagreement or per-element mismatches.
#[derive(Debug, Clone)]
pub enum CompareError {
    /// Lengths differ — nothing elementwise to report.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// Elementwise failures under the policy.
    Mismatches {
        /// Total number of failing elements.
        count: usize,
        /// Largest absolute difference observed.
        max_abs_diff: f32,
        /// First few failing elements.
        first: Vec<Mismatch>,
    },
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            CompareError::Mismatches {
                count,
                max_abs_diff,
                first,
            } => {
                write!(
                    f,
                    "{count} mismatched elements (max |diff| {max_abs_diff:e});"
                )?;
                for m in first {
                    write!(
                        f,
                        " [{}] expected {:?} got {:?};",
                        m.index, m.expected, m.actual
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Number of example mismatches carried in a [`CompareError`].
const REPORTED_MISMATCHES: usize = 4;

/// Compares two slices under `tol`.
///
/// # Errors
///
/// Returns [`CompareError`] describing the divergence when lengths differ
/// or any element fails the policy.
pub fn compare_slices(
    expected: &[f32],
    actual: &[f32],
    tol: Tolerance,
) -> Result<(), CompareError> {
    if expected.len() != actual.len() {
        return Err(CompareError::LengthMismatch {
            expected: expected.len(),
            actual: actual.len(),
        });
    }
    let mut count = 0usize;
    let mut max_abs_diff = 0.0f32;
    let mut first = Vec::new();
    for (i, (&e, &a)) in expected.iter().zip(actual.iter()).enumerate() {
        if !tol.matches(e, a) {
            count += 1;
            max_abs_diff = max_abs_diff.max((e - a).abs());
            if first.len() < REPORTED_MISMATCHES {
                first.push(Mismatch {
                    index: i,
                    expected: e,
                    actual: a,
                });
            }
        }
    }
    if count > 0 {
        return Err(CompareError::Mismatches {
            count,
            max_abs_diff,
            first,
        });
    }
    Ok(())
}

/// Aggregate relative L2 error `‖a − b‖₂ / max(‖b‖₂, floor)` — the
/// gradcheck statistic. `b` is the reference (numeric) side.
pub fn rel_l2_error(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "rel_l2_error: length mismatch");
    let mut diff2 = 0.0f64;
    let mut ref2 = 0.0f64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        diff2 += f64::from(x - y) * f64::from(x - y);
        ref2 += f64::from(y) * f64::from(y);
    }
    (diff2.sqrt() / ref2.sqrt().max(1e-6)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_exact_rejects_one_ulp() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1);
        assert!(Tolerance::BitExact.matches(a, a));
        assert!(!Tolerance::BitExact.matches(a, b));
    }

    #[test]
    fn absrel_scales_with_magnitude() {
        let tol = Tolerance::AbsRel {
            abs: 1e-4,
            rel: 1e-4,
        };
        assert!(tol.matches(0.0, 5e-5));
        assert!(!tol.matches(0.0, 5e-4));
        assert!(tol.matches(1000.0, 1000.05));
        assert!(!tol.matches(1000.0, 1001.0));
    }

    #[test]
    fn compare_reports_first_mismatches() {
        let e = vec![1.0f32, 2.0, 3.0, 4.0];
        let a = vec![1.0f32, 2.5, 3.0, 4.5];
        match compare_slices(&e, &a, Tolerance::kernel_default()) {
            Err(CompareError::Mismatches { count, first, .. }) => {
                assert_eq!(count, 2);
                assert_eq!(first[0].index, 1);
            }
            other => panic!("expected mismatches, got {other:?}"),
        }
    }

    #[test]
    fn rel_l2_is_zero_for_identical() {
        let v = vec![0.5f32, -2.0, 7.0];
        assert_eq!(rel_l2_error(&v, &v), 0.0);
        let w = vec![0.5f32, -2.0, 7.1];
        assert!(rel_l2_error(&v, &w) > 0.0);
    }
}
