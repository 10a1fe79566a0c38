//! `im2col`/`col2im` lowering for 2-D convolution.
//!
//! Convolution layers in `advcomp-nn` lower to matrix multiplication:
//! an NCHW input batch is unrolled into a `[n·oh·ow, c·kh·kw]` patch matrix
//! ([`im2col`]), multiplied against the `[c·kh·kw, oc]` reshaped kernel, and
//! the backward pass folds patch gradients back with [`col2im`]. This is the
//! standard GEMM formulation used by most CPU deep-learning runtimes.
//!
//! Every transform here touches each batch sample independently, and each
//! sample occupies a contiguous region of the output buffer, so all of them
//! parallelise over the batch on the persistent worker pool
//! ([`crate::pool`]). The layer-facing [`im2col_into`] variant additionally
//! reuses a caller-owned scratch tensor, so the (large) patch matrix is
//! allocated once per layer rather than once per training/attack step.

use crate::{pool, Result, Tensor, TensorError};

/// Static geometry of a 2-D convolution or pooling window over NCHW input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding applied to all four edges.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a square-kernel geometry.
    pub fn square(
        in_channels: usize,
        in_hw: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dGeometry {
            in_channels,
            in_h: in_hw,
            in_w: in_hw,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Validates the geometry and returns `(out_h, out_w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when stride is zero, a kernel
    /// dimension is zero, or the padded input is smaller than the kernel.
    pub fn output_hw(&self) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry("stride must be >= 1".into()));
        }
        if self.kernel_h == 0 || self.kernel_w == 0 || self.in_channels == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel dims and channels must be >= 1".into(),
            ));
        }
        let padded_h = self.in_h + 2 * self.padding;
        let padded_w = self.in_w + 2 * self.padding;
        if padded_h < self.kernel_h || padded_w < self.kernel_w {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kernel_h, self.kernel_w, padded_h, padded_w
            )));
        }
        Ok((
            (padded_h - self.kernel_h) / self.stride + 1,
            (padded_w - self.kernel_w) / self.stride + 1,
        ))
    }

    /// Number of elements in one unrolled patch: `c · kh · kw`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

/// The kernel columns `kx_lo..kx_hi` of a patch whose left edge sits at
/// image column `ix0` (negative inside the left padding) that land inside
/// an image `w` columns wide; an empty range when none does. When it is
/// not empty, `ix0 + kx_lo >= 0` and `ix0 + kx_hi <= w`.
fn inside_columns(ix0: isize, kernel_w: usize, w: usize) -> (usize, usize) {
    let lo = (-ix0).clamp(0, kernel_w as isize);
    let hi = (w as isize - ix0).clamp(lo, kernel_w as isize);
    (lo as usize, hi as usize)
}

/// Fills the patch rows of one batch sample. `chunk` is that sample's
/// contiguous `oh·ow·patch` slice of the column matrix, already zeroed.
fn im2col_sample(
    input: &[f32],
    chunk: &mut [f32],
    b: usize,
    geom: &Conv2dGeometry,
    oh: usize,
    ow: usize,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let patch = geom.patch_len();
    let pad = geom.padding as isize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride) as isize - pad;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride) as isize - pad;
            let (kx_lo, kx_hi) = inside_columns(ix0, geom.kernel_w, w);
            if kx_lo == kx_hi {
                continue; // the whole patch lies in the padding: stays zero
            }
            let row = (oy * ow + ox) * patch;
            for ch in 0..c {
                let ch_base = (b * c + ch) * h * w;
                for ky in 0..geom.kernel_h {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // padding row: stays zero
                    }
                    let dst = row + (ch * geom.kernel_h + ky) * geom.kernel_w;
                    let src = (ch_base + iy as usize * w) as isize + ix0;
                    let src =
                        &input[(src + kx_lo as isize) as usize..(src + kx_hi as isize) as usize];
                    chunk[dst + kx_lo..dst + kx_hi].copy_from_slice(src);
                }
            }
        }
    }
}

/// Unrolls an NCHW batch into a patch matrix of shape `[n·oh·ow, c·kh·kw]`.
///
/// Row `(b, oy, ox)` contains the receptive field of output pixel `(oy, ox)`
/// in sample `b`, channels-major then kernel-row-major. Out-of-bounds
/// (padding) positions read as zero. Samples are unrolled in parallel on the
/// worker pool.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `input` is 4-D, a
/// [`TensorError::ShapeMismatch`] when channel/height/width disagree with
/// `geom`, or geometry errors from [`Conv2dGeometry::output_hw`].
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Tensor::default();
    im2col_into(input, geom, &mut out)?;
    Ok(out)
}

/// [`im2col`] into a caller-owned scratch tensor.
///
/// `out` is reshaped to `[n·oh·ow, c·kh·kw]`, reusing its allocation when
/// the element count already matches — convolution layers call this every
/// forward pass with a persistent buffer, eliminating the per-step
/// allocation of the largest intermediate in the network.
///
/// # Errors
///
/// Same conditions as [`im2col`]; on error `out` is left untouched.
pub fn im2col_into(input: &Tensor, geom: &Conv2dGeometry, out: &mut Tensor) -> Result<()> {
    if input.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.ndim(),
            op: "im2col",
        });
    }
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if c != geom.in_channels || h != geom.in_h || w != geom.in_w {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: vec![n, geom.in_channels, geom.in_h, geom.in_w],
            op: "im2col",
        });
    }
    let (oh, ow) = geom.output_hw()?;
    let patch = geom.patch_len();
    out.reset_scratch(&[n * oh * ow, patch]);
    let data = input.data();
    pool::for_each_chunk(out.data_mut(), oh * ow * patch, |b, chunk| {
        chunk.fill(0.0);
        im2col_sample(data, chunk, b, geom, oh, ow);
    });
    Ok(())
}

/// [`im2col`] over raw slices: `input` is an NCHW batch of `n` samples
/// matching `geom`, `out` the `n·oh·ow × patch` column matrix, fully
/// overwritten. Identical per-sample core and pool chunking as
/// [`im2col_into`] — the graph executor's arena-resident variant.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when either slice disagrees
/// with the geometry, or geometry errors from
/// [`Conv2dGeometry::output_hw`].
pub fn im2col_slice(input: &[f32], n: usize, geom: &Conv2dGeometry, out: &mut [f32]) -> Result<()> {
    let (oh, ow) = geom.output_hw()?;
    let patch = geom.patch_len();
    let in_len = n * geom.in_channels * geom.in_h * geom.in_w;
    if input.len() != in_len {
        return Err(TensorError::LengthMismatch {
            expected: in_len,
            actual: input.len(),
        });
    }
    if out.len() != n * oh * ow * patch {
        return Err(TensorError::LengthMismatch {
            expected: n * oh * ow * patch,
            actual: out.len(),
        });
    }
    pool::for_each_chunk(out, oh * ow * patch, |b, chunk| {
        chunk.fill(0.0);
        im2col_sample(input, chunk, b, geom, oh, ow);
    });
    Ok(())
}

/// Accumulates the patch gradients of one batch sample. `chunk` is that
/// sample's contiguous `c·h·w` slice of the input gradient.
fn col2im_sample(
    cols: &[f32],
    chunk: &mut [f32],
    b: usize,
    geom: &Conv2dGeometry,
    oh: usize,
    ow: usize,
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let patch = geom.patch_len();
    let pad = geom.padding as isize;
    for oy in 0..oh {
        let iy0 = (oy * geom.stride) as isize - pad;
        for ox in 0..ow {
            let ix0 = (ox * geom.stride) as isize - pad;
            let (kx_lo, kx_hi) = inside_columns(ix0, geom.kernel_w, w);
            if kx_lo == kx_hi {
                continue; // the whole patch lies in the padding
            }
            let row = ((b * oh + oy) * ow + ox) * patch;
            for ch in 0..c {
                let ch_base = ch * h * w;
                for ky in 0..geom.kernel_h {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst = (ch_base + iy as usize * w) as isize + ix0;
                    let src = row + (ch * geom.kernel_h + ky) * geom.kernel_w;
                    // Each kernel column adds into its own pixel, so every
                    // pixel still takes its terms in patch order.
                    let dst = &mut chunk
                        [(dst + kx_lo as isize) as usize..(dst + kx_hi as isize) as usize];
                    for (d, &v) in dst.iter_mut().zip(&cols[src + kx_lo..src + kx_hi]) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Folds a patch-matrix gradient back into an NCHW input gradient —
/// the adjoint of [`im2col`]. Overlapping patches accumulate. Samples are
/// folded in parallel on the worker pool (patches never cross samples, so
/// the per-sample accumulations are independent).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not have shape
/// `[n·oh·ow, c·kh·kw]` for the given geometry and batch size.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry, batch: usize) -> Result<Tensor> {
    let (oh, ow) = geom.output_hw()?;
    let patch = geom.patch_len();
    if cols.shape() != [batch * oh * ow, patch] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.shape().to_vec(),
            rhs: vec![batch * oh * ow, patch],
            op: "col2im",
        });
    }
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let mut out = Tensor::zeros(&[batch, c, h, w]);
    let data = cols.data();
    pool::for_each_chunk(out.data_mut(), c * h * w, |b, chunk| {
        col2im_sample(data, chunk, b, geom, oh, ow);
    });
    Ok(out)
}

/// Reorders a `[n·oh·ow, oc]` GEMM output into NCHW `[n, oc, oh, ow]`,
/// one batch sample per pool task.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `rows` has shape
/// `[n·oh·ow, oc]`.
pub fn rows_to_nchw(rows: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Result<Tensor> {
    if rows.shape() != [n * oh * ow, oc] {
        return Err(TensorError::ShapeMismatch {
            lhs: rows.shape().to_vec(),
            rhs: vec![n * oh * ow, oc],
            op: "rows_to_nchw",
        });
    }
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let src = rows.data();
    pool::for_each_chunk(out.data_mut(), oc * oh * ow, |b, chunk| {
        for y in 0..oh {
            for x in 0..ow {
                let row = ((b * oh + y) * ow + x) * oc;
                for o in 0..oc {
                    chunk[(o * oh + y) * ow + x] = src[row + o];
                }
            }
        }
    });
    Ok(out)
}

/// [`rows_to_nchw`] over raw slices: reorders `n·oh·ow × oc` GEMM rows
/// into an NCHW `n × oc × oh × ow` destination, fully overwritten. Same
/// per-sample transpose and pool chunking as the `Tensor` variant.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when either slice disagrees
/// with `n·oc·oh·ow`.
pub fn rows_to_nchw_slice(
    rows: &[f32],
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) -> Result<()> {
    let len = n * oc * oh * ow;
    if rows.len() != len {
        return Err(TensorError::LengthMismatch {
            expected: len,
            actual: rows.len(),
        });
    }
    if out.len() != len {
        return Err(TensorError::LengthMismatch {
            expected: len,
            actual: out.len(),
        });
    }
    pool::for_each_chunk(out, oc * oh * ow, |b, chunk| {
        for y in 0..oh {
            for x in 0..ow {
                let row = ((b * oh + y) * ow + x) * oc;
                for o in 0..oc {
                    chunk[(o * oh + y) * ow + x] = rows[row + o];
                }
            }
        }
    });
    Ok(())
}

/// Inverse of [`rows_to_nchw`]: NCHW tensor back to GEMM row layout,
/// one batch sample per pool task.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `t` has shape
/// `[n, oc, oh, ow]`.
pub fn nchw_to_rows(t: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Result<Tensor> {
    if t.shape() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: t.shape().to_vec(),
            rhs: vec![n, oc, oh, ow],
            op: "nchw_to_rows",
        });
    }
    let mut out = Tensor::zeros(&[n * oh * ow, oc]);
    let src = t.data();
    pool::for_each_chunk(out.data_mut(), oh * ow * oc, |b, chunk| {
        for o in 0..oc {
            for y in 0..oh {
                for x in 0..ow {
                    chunk[(y * ow + x) * oc + o] = src[((b * oc + o) * oh + y) * ow + x];
                }
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hw_basic() {
        let g = Conv2dGeometry::square(1, 5, 3, 1, 0);
        assert_eq!(g.output_hw().unwrap(), (3, 3));
        let g = Conv2dGeometry::square(1, 5, 3, 1, 1);
        assert_eq!(g.output_hw().unwrap(), (5, 5));
        let g = Conv2dGeometry::square(1, 6, 2, 2, 0);
        assert_eq!(g.output_hw().unwrap(), (3, 3));
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(Conv2dGeometry::square(1, 5, 3, 0, 0).output_hw().is_err());
        assert!(Conv2dGeometry::square(1, 2, 3, 1, 0).output_hw().is_err());
        assert!(Conv2dGeometry::square(0, 5, 3, 1, 0).output_hw().is_err());
        // Padding can rescue a small input.
        assert!(Conv2dGeometry::square(1, 2, 3, 1, 1).output_hw().is_ok());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is just a reshape.
        let x = Tensor::new(&[1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 1]);
        assert_eq!(cols.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn im2col_3x3_patch_layout() {
        let x = Tensor::new(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let g = Conv2dGeometry::square(1, 3, 3, 1, 0);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[1, 9]);
        assert_eq!(cols.data(), &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeros() {
        let x = Tensor::new(&[1, 1, 1, 1], vec![5.0]).unwrap();
        let g = Conv2dGeometry::square(1, 1, 3, 1, 1);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[1, 9]);
        // Only the centre of the 3x3 patch is inside the image.
        let mut expected = vec![0.0; 9];
        expected[4] = 5.0;
        assert_eq!(cols.data(), expected.as_slice());
    }

    #[test]
    fn im2col_multi_channel_order() {
        // Two channels: patch must be channel-major.
        let x = Tensor::new(&[1, 2, 1, 1], vec![1.0, 2.0]).unwrap();
        let g = Conv2dGeometry::square(2, 1, 1, 1, 0);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.data(), &[1.0, 2.0]);
    }

    #[test]
    fn im2col_shape_validation() {
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let g = Conv2dGeometry::square(2, 4, 3, 1, 0);
        assert!(im2col(&x, &g).is_err());
        assert!(im2col(&Tensor::zeros(&[4, 4]), &g).is_err());
    }

    #[test]
    fn im2col_into_reuses_and_overwrites_scratch() {
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        let x1 = Tensor::new(&[1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let x2 = Tensor::new(&[1, 1, 2, 2], vec![5., 6., 7., 8.]).unwrap();
        let mut scratch = Tensor::default();
        im2col_into(&x1, &g, &mut scratch).unwrap();
        assert_eq!(scratch.data(), &[1., 2., 3., 4.]);
        // Second call must fully overwrite, not blend with, the first.
        im2col_into(&x2, &g, &mut scratch).unwrap();
        assert_eq!(scratch.data(), &[5., 6., 7., 8.]);
        assert_eq!(scratch.shape(), &[4, 1]);
    }

    #[test]
    fn im2col_into_matches_im2col_across_batches() {
        use crate::Init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = Conv2dGeometry::square(3, 6, 3, 1, 1);
        let mut scratch = Tensor::default();
        // Growing then shrinking batch sizes exercise the reallocation path.
        for &n in &[1usize, 4, 2] {
            let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[n, 3, 6, 6], &mut rng);
            let fresh = im2col(&x, &g).unwrap();
            im2col_into(&x, &g, &mut scratch).unwrap();
            assert_eq!(scratch.data(), fresh.data());
            assert_eq!(scratch.shape(), fresh.shape());
        }
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // 2x2 input, 1x1 kernel stride 1: col2im is the inverse reshape.
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        let cols = Tensor::new(&[4, 1], vec![1., 2., 3., 4.]).unwrap();
        let x = col2im(&cols, &g, 1).unwrap();
        assert_eq!(x.shape(), &[1, 1, 2, 2]);
        assert_eq!(x.data(), &[1., 2., 3., 4.]);

        // Overlapping 2x2 kernels on 3x3 input: centre pixel appears in all
        // four patches and must accumulate.
        let g = Conv2dGeometry::square(1, 3, 2, 1, 0);
        let cols = Tensor::ones(&[4, 4]);
        let x = col2im(&cols, &g, 1).unwrap();
        assert_eq!(x.get(&[0, 0, 1, 1]).unwrap(), 4.0);
        assert_eq!(x.get(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(x.get(&[0, 0, 0, 1]).unwrap(), 2.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // checked on random data.
        use crate::Init;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = Conv2dGeometry::square(2, 5, 3, 2, 1);
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[2, 2, 5, 5], &mut rng);
        let (oh, ow) = g.output_hw().unwrap();
        let y = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&[2 * oh * ow, g.patch_len()], &mut rng);
        let ax = im2col(&x, &g).unwrap();
        let aty = col2im(&y, &g, 2).unwrap();
        let lhs: f32 = ax.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(aty.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_validates_shape() {
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        assert!(col2im(&Tensor::zeros(&[3, 1]), &g, 1).is_err());
    }

    #[test]
    fn rows_nchw_roundtrip() {
        let rows = Tensor::new(&[4, 3], (0..12).map(|v| v as f32).collect()).unwrap();
        let nchw = rows_to_nchw(&rows, 1, 3, 2, 2).unwrap();
        let back = nchw_to_rows(&nchw, 1, 3, 2, 2).unwrap();
        assert_eq!(back.data(), rows.data());
    }

    #[test]
    fn rows_to_nchw_layout_and_validation() {
        // Two samples, two channels, 1x2 spatial: row-major GEMM rows are
        // (b, y, x) ordered with channels innermost.
        let rows = Tensor::new(&[4, 2], vec![1., 10., 2., 20., 3., 30., 4., 40.]).unwrap();
        let nchw = rows_to_nchw(&rows, 2, 2, 1, 2).unwrap();
        assert_eq!(nchw.shape(), &[2, 2, 1, 2]);
        assert_eq!(nchw.data(), &[1., 2., 10., 20., 3., 4., 30., 40.]);
        assert!(rows_to_nchw(&rows, 2, 3, 1, 2).is_err());
        assert!(nchw_to_rows(&rows, 2, 2, 1, 2).is_err());
    }
}
