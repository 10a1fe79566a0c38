//! Obviously-correct reference implementations for differential fuzzing.
//!
//! The production kernels (`Tensor::matmul`'s packed dense GEMM and
//! `Conv2d`'s lowering and direct kernels) are optimised for speed; these
//! references are optimised for being trivially auditable. Sums accumulate
//! in `f64`, so the reference is strictly more accurate than any f32
//! production path and the fuzz comparison tolerance
//! ([`crate::Tolerance::kernel_default`]) bounds the production kernels'
//! true rounding error, not reference noise.

use crate::det::DetRng;
use advcomp_tensor::Tensor;

/// Direct (quadruple-loop) 2-D convolution over NCHW input.
///
/// `input` is `[n, c, h, w]`, `weight` is `[oc, c, k, k]`, `bias` has
/// length `oc`; `stride`/`padding` match `advcomp_nn::Conv2d` semantics
/// (zero padding, floor output size). Accumulates in `f64`.
///
/// # Panics
///
/// Panics on inconsistent shapes — fuzz inputs are generated consistent.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    stride: usize,
    padding: usize,
) -> Tensor {
    let (n, c, h, w) = match *input.shape() {
        [n, c, h, w] => (n, c, h, w),
        ref s => panic!("conv2d_direct: input must be NCHW, got {s:?}"),
    };
    let (oc, wc, k) = match *weight.shape() {
        [oc, wc, kh, kw] if kh == kw => (oc, wc, kh),
        ref s => panic!("conv2d_direct: weight must be [oc, c, k, k], got {s:?}"),
    };
    assert_eq!(c, wc, "channel mismatch");
    assert_eq!(bias.len(), oc, "bias length mismatch");
    assert!(stride > 0, "stride must be >= 1");
    let oh = (h + 2 * padding - k) / stride + 1;
    let ow = (w + 2 * padding - k) / stride + 1;

    let x = input.data();
    let wt = weight.data();
    let mut out = vec![0.0f32; n * oc * oh * ow];
    for img in 0..n {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = f64::from(bias[o]);
                    for ch in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - padding as isize;
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                    continue; // zero padding
                                }
                                let xi = ((img * c + ch) * h + iy as usize) * w + ix as usize;
                                let wi = ((o * c + ch) * k + ky) * k + kx;
                                acc += f64::from(x[xi]) * f64::from(wt[wi]);
                            }
                        }
                    }
                    out[((img * oc + o) * oh + oy) * ow + ox] = acc as f32;
                }
            }
        }
    }
    Tensor::new(&[n, oc, oh, ow], out).expect("output shape consistent by construction")
}

/// Triple-loop GEMM with `f64` accumulation — the cross-check for both the
/// production kernels *and* `Tensor::matmul_naive` (which accumulates in
/// f32).
///
/// # Panics
///
/// Panics when the operands are not matmul-compatible 2-D tensors.
pub fn matmul_f64(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = match *a.shape() {
        [m, k] => (m, k),
        ref s => panic!("matmul_f64: lhs must be 2-D, got {s:?}"),
    };
    let (k2, n) = match *b.shape() {
        [k2, n] => (k2, n),
        ref s => panic!("matmul_f64: rhs must be 2-D, got {s:?}"),
    };
    assert_eq!(k, k2, "inner dimension mismatch");
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += f64::from(ad[i * k + kk]) * f64::from(bd[kk * n + j]);
            }
            out[i * n + j] = acc as f32;
        }
    }
    Tensor::new(&[m, n], out).expect("output shape consistent by construction")
}

/// One randomized GEMM case: shapes, density, operands.
#[derive(Debug, Clone)]
pub struct GemmCase {
    /// Case ordinal within a sweep (for failure messages).
    pub index: usize,
    /// Left operand, `[m, k]`.
    pub a: Tensor,
    /// Right operand, `[k, n]`.
    pub b: Tensor,
    /// Fraction of `a`'s entries forced to zero.
    pub zero_prob: f32,
}

/// Generates `count` randomized GEMM cases from `seed`.
///
/// Shapes sweep `[1, max_dim]` per axis and the left operand's density
/// sweeps the full range, from dense to almost all zeros, as do sizes on
/// either side of the parallel threshold when `max_dim` is large enough.
pub fn gemm_cases(seed: u64, count: usize, max_dim: usize) -> Vec<GemmCase> {
    let mut rng = DetRng::new(seed);
    (0..count)
        .map(|index| {
            let m = rng.range_usize(1, max_dim + 1);
            let k = rng.range_usize(1, max_dim + 1);
            let n = rng.range_usize(1, max_dim + 1);
            let zero_prob = rng.unit_f32();
            let a = Tensor::new(&[m, k], rng.sparse_vec_f32(m * k, -1.0, 1.0, zero_prob))
                .expect("generated shape is consistent");
            let b = Tensor::new(&[k, n], rng.vec_f32(k * n, -1.0, 1.0))
                .expect("generated shape is consistent");
            GemmCase {
                index,
                a,
                b,
                zero_prob,
            }
        })
        .collect()
}

/// One randomized convolution case.
#[derive(Debug, Clone)]
pub struct ConvCase {
    /// Case ordinal within a sweep.
    pub index: usize,
    /// Input, `[n, c, h, w]`.
    pub input: Tensor,
    /// Weights, `[oc, c, k, k]`.
    pub weight: Tensor,
    /// Bias, length `oc`.
    pub bias: Vec<f32>,
    /// Convolution stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
}

/// Generates `count` randomized convolution cases from `seed`, with
/// kernel/stride/padding combinations constrained so the output is always
/// at least 1×1.
pub fn conv_cases(seed: u64, count: usize) -> Vec<ConvCase> {
    let mut rng = DetRng::new(seed);
    (0..count)
        .map(|index| {
            let n = rng.range_usize(1, 4);
            let c = rng.range_usize(1, 5);
            let oc = rng.range_usize(1, 7);
            let k = rng.range_usize(1, 5);
            let stride = rng.range_usize(1, 3);
            let padding = rng.range_usize(0, k); // padding < k keeps geometry sane
                                                 // Spatial size large enough for one output position.
            let min_hw = k.saturating_sub(2 * padding).max(1);
            let h = rng.range_usize(min_hw, min_hw + 9);
            let w = rng.range_usize(min_hw, min_hw + 9);
            let input = Tensor::new(&[n, c, h, w], rng.vec_f32(n * c * h * w, -1.0, 1.0))
                .expect("generated shape is consistent");
            let weight = Tensor::new(&[oc, c, k, k], rng.vec_f32(oc * c * k * k, -1.0, 1.0))
                .expect("generated shape is consistent");
            let bias = rng.vec_f32(oc, -0.5, 0.5);
            ConvCase {
                index,
                input,
                weight,
                bias,
                stride,
                padding,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_f64_identity() {
        let a = Tensor::new(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let eye = Tensor::new(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(matmul_f64(&a, &eye).data(), a.data());
    }

    #[test]
    fn conv_direct_known_answer() {
        // 1×1×2×2 input, single 2×2 all-ones filter, no padding: the
        // output is the sum of the input plus bias.
        let input = Tensor::new(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let out = conv2d_direct(&input, &weight, &[0.5], 1, 0);
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.data(), &[10.5]);
    }

    #[test]
    fn conv_direct_padding_shifts_window() {
        // Identity 1×1 kernel with stride 2 subsamples the input.
        let input = Tensor::new(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d_direct(&input, &weight, &[0.0], 2, 0);
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.data(), &[1.0]);
    }

    #[test]
    fn case_generators_are_deterministic() {
        let a = gemm_cases(3, 5, 32);
        let b = gemm_cases(3, 5, 32);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.a.data(), y.a.data());
            assert_eq!(x.b.data(), y.b.data());
        }
        let c = conv_cases(4, 5);
        let d = conv_cases(4, 5);
        for (x, y) in c.iter().zip(d.iter()) {
            assert_eq!(x.input.data(), y.input.data());
            assert_eq!(x.stride, y.stride);
        }
    }
}
