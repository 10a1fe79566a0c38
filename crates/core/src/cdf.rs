//! Weight and activation distribution extraction (Figure 6).
//!
//! Figure 6 of the paper plots cumulative distribution functions of all
//! weights (a) and all activations (b) of quantised CifarNet at several
//! bitwidths, sampled over ten validation images. These helpers extract the
//! raw values and reduce them to plot-ready CDF points.

use crate::Result;
use advcomp_nn::{Mode, ParamKind, Sequential};
use advcomp_tensor::Tensor;

/// Reduces raw values to at most `resolution` CDF points
/// `(value, cumulative fraction)`, evenly spaced in rank.
///
/// Returns an empty vector for empty input.
pub fn cdf_points(values: &[f32], resolution: usize) -> Vec<(f32, f64)> {
    if values.is_empty() || resolution == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<f32> = values.to_vec();
    sorted.sort_by(f32::total_cmp);
    let n = sorted.len();
    let steps = resolution.min(n);
    let mut out = Vec::with_capacity(steps);
    for k in 0..steps {
        // Last rank hits the maximum with cumulative fraction 1.0.
        let rank = if steps == 1 {
            n - 1
        } else {
            k * (n - 1) / (steps - 1)
        };
        out.push((sorted[rank], (rank + 1) as f64 / n as f64));
    }
    out
}

/// All weight values of a model (biases excluded, matching Figure 6a which
/// plots the quantised weight tensors).
pub fn weight_values(model: &Sequential) -> Vec<f32> {
    model
        .params()
        .into_iter()
        .filter(|p| p.kind == ParamKind::Weight)
        .flat_map(|p| p.value.data().iter().copied())
        .collect()
}

/// All activation values the model produces on `images` — the outputs of
/// every ReLU and FakeQuant point, in layer order, from
/// [`Sequential::forward_outputs`], matching the paper's "ten randomly
/// chosen input images" methodology.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn activation_values(model: &mut Sequential, images: &Tensor) -> Result<Vec<f32>> {
    let outputs = model.forward_outputs(images, Mode::Eval)?;
    let mut out = Vec::new();
    for (layer, t) in model.layers().iter().zip(&outputs) {
        if matches!(layer.kind(), "relu" | "fakequant") {
            out.extend_from_slice(t.data());
        }
    }
    Ok(out)
}

/// Fraction of `values` that are exactly zero — the headline statistic the
/// paper reads off Figure 6 ("cumulative density reaches around 0.9 when
/// value is at 0" for the 4-bit model).
pub fn zero_fraction(values: &[f32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v == 0.0).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_models::mlp;

    #[test]
    fn cdf_points_basic() {
        let vals = vec![3.0, 1.0, 2.0, 4.0];
        let pts = cdf_points(&vals, 4);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (1.0, 0.25));
        assert_eq!(pts[3], (4.0, 1.0));
        // Monotone in both coordinates.
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn cdf_points_downsamples() {
        let vals: Vec<f32> = (0..1000).map(|v| v as f32).collect();
        let pts = cdf_points(&vals, 10);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[9].1, 1.0);
        assert_eq!(pts[0].0, 0.0);
    }

    #[test]
    fn cdf_points_edge_cases() {
        assert!(cdf_points(&[], 10).is_empty());
        assert!(cdf_points(&[1.0], 0).is_empty());
        let single = cdf_points(&[5.0], 10);
        assert_eq!(single, vec![(5.0, 1.0)]);
    }

    #[test]
    fn weight_values_exclude_biases() {
        let model = mlp(4, 0);
        let n = weight_values(&model).len();
        assert_eq!(n, 28 * 28 * 4 + 4 * 10); // weights only, no biases
    }

    #[test]
    fn activation_values_collected() {
        let mut model = mlp(4, 0);
        let x = Tensor::ones(&[2, 1, 28, 28]);
        let acts = activation_values(&mut model, &x).unwrap();
        // Two FakeQuant points (784 + 4 values per sample) and one ReLU (4).
        assert_eq!(acts.len(), 2 * (784 + 4 + 4));
    }

    #[test]
    fn zero_fraction_counts() {
        assert_eq!(zero_fraction(&[0.0, 1.0, 0.0, 2.0]), 0.5);
        assert_eq!(zero_fraction(&[]), 0.0);
    }
}
