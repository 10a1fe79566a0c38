//! The core owned, contiguous, row-major `f32` tensor type.

use crate::shape::{numel, Shape};
use crate::simd;
use crate::{pool, Result, TensorError};

/// Minimum element count before elementwise ops are split across the worker
/// pool; below this the dispatch overhead exceeds the arithmetic. Sized so
/// the batched image tensors mutated every step of an iterative attack take
/// the parallel path while layer biases and logits stay serial.
const PAR_ELEMENTWISE_MIN: usize = 32 * 1024;

/// Band length that splits `len` elements evenly across the pool.
fn par_chunk_len(len: usize) -> usize {
    len.div_ceil(pool::global().effective_threads()).max(1)
}

/// A dense, owned, row-major tensor of `f32` values.
///
/// All data is contiguous; reshapes are metadata-only on the owned buffer and
/// transposes copy. This trades a little memory traffic for a drastically
/// simpler (and easily verified) implementation — the right call for a
/// CPU-scale research substrate.
///
/// # Example
///
/// ```
/// use advcomp_tensor::Tensor;
///
/// # fn main() -> Result<(), advcomp_tensor::TensorError> {
/// let x = Tensor::new(&[2, 2], vec![1.0, -2.0, 3.0, -4.0])?;
/// let relu = x.map(|v| v.max(0.0));
/// assert_eq!(relu.data(), &[1.0, 0.0, 3.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the element count implied by `shape`.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let expected = numel(shape);
        if expected != data.len() {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel(shape)],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel(shape)],
        }
    }

    /// Creates a 1-D tensor that owns `data`.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Tensor {
            shape: vec![data.len()],
            data,
        }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The shape (axis extents, outermost first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The shape as a [`Shape`] value.
    pub fn shape_obj(&self) -> Shape {
        Shape::new(&self.shape)
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index/rank errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        let off = self.shape_obj().offset(index)?;
        Ok(self.data[off])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index/rank errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape_obj().offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        Tensor::new(shape, self.data.clone())
    }

    /// Reshapes in place (no data movement).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape_inplace(&mut self, shape: &[usize]) -> Result<()> {
        if numel(shape) != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: numel(shape),
                actual: self.data.len(),
            });
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Reshapes `self` to `shape`, reusing the existing allocation when the
    /// element count already matches; contents are left unspecified. Used by
    /// kernels that fully overwrite a persistent scratch tensor.
    pub(crate) fn reset_scratch(&mut self, shape: &[usize]) {
        self.data.resize(numel(shape), 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Room, in elements, the backing buffer holds without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Grows the backing buffer to hold `len` elements without
    /// reallocating; shape and contents are unchanged.
    pub(crate) fn reserve_scratch(&mut self, len: usize) {
        self.data.reserve(len.saturating_sub(self.data.len()));
    }

    /// Overwrites `self` with `data` reshaped to `shape`, reusing the
    /// existing data and shape allocations when they are large enough. The
    /// graph executor uses this to publish its arena-resident output into a
    /// caller-owned tensor without a per-forward allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data` does not fill
    /// `shape`.
    pub fn assign_from(&mut self, shape: &[usize], data: &[f32]) -> Result<()> {
        if data.len() != numel(shape) {
            return Err(TensorError::LengthMismatch {
                expected: numel(shape),
                actual: data.len(),
            });
        }
        self.data.clear();
        self.data.extend_from_slice(data);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Flattens to 1-D, preserving row-major order.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: vec![self.data.len()],
            data: self.data.clone(),
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    ///
    /// Large tensors (the batched images an iterative attack perturbs every
    /// step) are split into bands on the worker pool.
    pub fn map<F: Fn(f32) -> f32 + Sync>(&self, f: F) -> Tensor {
        let len = self.data.len();
        if len < PAR_ELEMENTWISE_MIN {
            return Tensor {
                shape: self.shape.clone(),
                data: self.data.iter().map(|&v| f(v)).collect(),
            };
        }
        let mut data = vec![0.0f32; len];
        let chunk = par_chunk_len(len);
        let src = &self.data;
        pool::for_each_chunk(&mut data, chunk, |i, out| {
            let base = i * chunk;
            let band = &src[base..base + out.len()];
            for (o, &v) in out.iter_mut().zip(band) {
                *o = f(v);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element in place (parallel for large tensors).
    pub fn map_inplace<F: Fn(f32) -> f32 + Sync>(&mut self, f: F) {
        if self.data.len() < PAR_ELEMENTWISE_MIN {
            for v in &mut self.data {
                *v = f(*v);
            }
            return;
        }
        let chunk = par_chunk_len(self.data.len());
        pool::for_each_chunk(&mut self.data, chunk, |_, out| {
            for v in out {
                *v = f(*v);
            }
        });
    }

    /// Combines two same-shape tensors elementwise (parallel for large
    /// tensors).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32 + Sync>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "zip_map",
            });
        }
        let len = self.data.len();
        if len < PAR_ELEMENTWISE_MIN {
            return Ok(Tensor {
                shape: self.shape.clone(),
                data: self
                    .data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            });
        }
        let mut data = vec![0.0f32; len];
        let chunk = par_chunk_len(len);
        let (lhs, rhs) = (&self.data, &other.data);
        pool::for_each_chunk(&mut data, chunk, |i, out| {
            // Slice the input bands once so the inner loop zips bounds-check
            // free iterators (per-element `lhs[base + j]` indexing defeated
            // autovectorisation and cost the two-input path ~2× vs `map`).
            let base = i * chunk;
            let a = &lhs[base..base + out.len()];
            let b = &rhs[base..base + out.len()];
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        });
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Combines with another same-shape tensor elementwise, in place
    /// (parallel for large tensors).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map_inplace<F: Fn(f32, f32) -> f32 + Sync>(
        &mut self,
        other: &Tensor,
        f: F,
    ) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op: "zip_map_inplace",
            });
        }
        if self.data.len() < PAR_ELEMENTWISE_MIN {
            for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
                *a = f(*a, b);
            }
            return Ok(());
        }
        let chunk = par_chunk_len(self.data.len());
        let rhs = &other.data;
        pool::for_each_chunk(&mut self.data, chunk, |i, out| {
            // Sliced band + zipped iterators for the same reason as
            // `zip_map`: the indexed form left bounds checks in the loop.
            let base = i * chunk;
            let b = &rhs[base..base + out.len()];
            for (a, &y) in out.iter_mut().zip(b) {
                *a = f(*a, y);
            }
        });
        Ok(())
    }

    /// Runs a two-input slice kernel over `self` and `other` into a fresh
    /// tensor, splitting large inputs into pool bands. All the named binary
    /// arithmetic ops funnel through here so they hit the backend-dispatched
    /// kernels in [`crate::simd`] instead of a per-element closure.
    fn binary_kernel(
        &self,
        other: &Tensor,
        op: &'static str,
        k: impl Fn(&[f32], &[f32], &mut [f32]) + Sync,
    ) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op,
            });
        }
        let len = self.data.len();
        let mut data = vec![0.0f32; len];
        if len < PAR_ELEMENTWISE_MIN {
            k(&self.data, &other.data, &mut data);
        } else {
            let chunk = par_chunk_len(len);
            let (lhs, rhs) = (&self.data, &other.data);
            pool::for_each_chunk(&mut data, chunk, |i, out| {
                let base = i * chunk;
                k(
                    &lhs[base..base + out.len()],
                    &rhs[base..base + out.len()],
                    out,
                );
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// In-place counterpart of [`Tensor::binary_kernel`]: mutates `self`
    /// band-by-band against the matching band of `other`.
    fn binary_kernel_inplace(
        &mut self,
        other: &Tensor,
        op: &'static str,
        k: impl Fn(&mut [f32], &[f32]) + Sync,
    ) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op,
            });
        }
        if self.data.len() < PAR_ELEMENTWISE_MIN {
            k(&mut self.data, &other.data);
            return Ok(());
        }
        let chunk = par_chunk_len(self.data.len());
        let rhs = &other.data;
        pool::for_each_chunk(&mut self.data, chunk, |i, out| {
            let base = i * chunk;
            k(out, &rhs[base..base + out.len()]);
        });
        Ok(())
    }

    /// Runs a one-input slice kernel into a fresh tensor (pool bands above
    /// the elementwise threshold).
    fn unary_kernel(&self, k: impl Fn(&[f32], &mut [f32]) + Sync) -> Tensor {
        let len = self.data.len();
        let mut data = vec![0.0f32; len];
        if len < PAR_ELEMENTWISE_MIN {
            k(&self.data, &mut data);
        } else {
            let chunk = par_chunk_len(len);
            let src = &self.data;
            pool::for_each_chunk(&mut data, chunk, |i, out| {
                let base = i * chunk;
                k(&src[base..base + out.len()], out);
            });
        }
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place counterpart of [`Tensor::unary_kernel`].
    fn unary_kernel_inplace(&mut self, k: impl Fn(&mut [f32]) + Sync) {
        if self.data.len() < PAR_ELEMENTWISE_MIN {
            k(&mut self.data);
            return;
        }
        let chunk = par_chunk_len(self.data.len());
        pool::for_each_chunk(&mut self.data, chunk, |_, out| k(out));
    }

    /// Elementwise sum. See [`Tensor::zip_map`] for shape requirements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        let be = simd::backend();
        self.binary_kernel(other, "add", move |a, b, o| simd::add_slices(be, a, b, o))
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        let be = simd::backend();
        self.binary_kernel(other, "sub", move |a, b, o| simd::sub_slices(be, a, b, o))
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        let be = simd::backend();
        self.binary_kernel(other, "mul", move |a, b, o| simd::mul_slices(be, a, b, o))
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        let be = simd::backend();
        self.binary_kernel_inplace(other, "add_assign", move |a, b| {
            simd::add_assign_slices(be, a, b)
        })
    }

    /// Adds `scale * other` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        let be = simd::backend();
        self.binary_kernel_inplace(other, "add_scaled", move |a, b| {
            simd::axpy_slices(be, a, b, scale)
        })
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let be = simd::backend();
        self.unary_kernel(move |a, o| simd::scale_slices(be, a, s, o))
    }

    /// Multiplies every element by `s` in place (no allocation).
    pub fn scale_inplace(&mut self, s: f32) {
        let be = simd::backend();
        self.unary_kernel_inplace(move |a| simd::scale_assign_slices(be, a, s));
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let be = simd::backend();
        self.unary_kernel(move |a, o| simd::add_scalar_slices(be, a, s, o))
    }

    /// Clamps every element into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp requires lo <= hi, got {lo} > {hi}");
        let be = simd::backend();
        self.unary_kernel(move |a, o| simd::clamp_slices(be, a, lo, hi, o))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        let be = simd::backend();
        self.unary_kernel(move |a, o| simd::abs_slices(be, a, o))
    }

    /// Elementwise rectifier: `max(v, 0)` — the ReLU forward pass.
    pub fn relu(&self) -> Tensor {
        let be = simd::backend();
        self.unary_kernel(move |a, o| simd::relu_slices(be, a, o))
    }

    /// Elementwise sign: -1, 0 or +1 (0 for NaN, matching the paper's FGSM
    /// convention that an undefined gradient contributes no perturbation).
    pub fn sign(&self) -> Tensor {
        let be = simd::backend();
        self.unary_kernel(move |a, o| simd::sign_slices(be, a, o))
    }

    /// Fused FGSM/IFGSM update, in place:
    /// `self = clamp(self + step * sign(g), lo, hi)`.
    ///
    /// One pass over the data with zero allocations, replacing the
    /// historical `sign` → `scale` → `add` → `clamp` chain (four traversals
    /// and three temporaries) with per-element float ops in exactly the same
    /// order — results are bitwise identical to the unfused chain within a
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn fused_sign_step_clamp(&mut self, g: &Tensor, step: f32, lo: f32, hi: f32) -> Result<()> {
        let be = simd::backend();
        self.binary_kernel_inplace(g, "fused_sign_step_clamp", move |x, gg| {
            simd::fused_sign_step_clamp(be, x, gg, step, lo, hi)
        })
    }

    /// Fused FGM/IFGM update, in place:
    /// `self = clamp(self + clamp(scale * g, -ball, ball), lo, hi)`.
    /// Pass `ball = f32::INFINITY` for an unclipped gradient step.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn fused_grad_step_clamp(
        &mut self,
        g: &Tensor,
        scale: f32,
        ball: f32,
        lo: f32,
        hi: f32,
    ) -> Result<()> {
        let be = simd::backend();
        self.binary_kernel_inplace(g, "fused_grad_step_clamp", move |x, gg| {
            simd::fused_grad_step_clamp(be, x, gg, scale, ball, lo, hi)
        })
    }

    /// Fused PGD update, in place: a sign step followed by projection onto
    /// the `eps`-ball around `origin` and then the `[lo, hi]` data range:
    /// `self = clamp(clamp(self + step * sign(g), origin - eps, origin + eps), lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn fused_project_step_clamp(
        &mut self,
        g: &Tensor,
        origin: &Tensor,
        step: f32,
        eps: f32,
        lo: f32,
        hi: f32,
    ) -> Result<()> {
        if self.shape != g.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: g.shape.clone(),
                op: "fused_project_step_clamp",
            });
        }
        if self.shape != origin.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: origin.shape.clone(),
                op: "fused_project_step_clamp",
            });
        }
        let be = simd::backend();
        if self.data.len() < PAR_ELEMENTWISE_MIN {
            simd::fused_project_step_clamp(
                be,
                &mut self.data,
                &g.data,
                &origin.data,
                step,
                eps,
                lo,
                hi,
            );
            return Ok(());
        }
        let chunk = par_chunk_len(self.data.len());
        let (gd, od) = (&g.data, &origin.data);
        pool::for_each_chunk(&mut self.data, chunk, |i, out| {
            let base = i * chunk;
            simd::fused_project_step_clamp(
                be,
                out,
                &gd[base..base + out.len()],
                &od[base..base + out.len()],
                step,
                eps,
                lo,
                hi,
            );
        });
        Ok(())
    }

    /// Adds a 1-D bias of length `n` to each row of a 2-D `[m, n]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is 2-D and `bias`
    /// is 1-D, or [`TensorError::ShapeMismatch`] when lengths disagree.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.ndim(),
                op: "add_row_broadcast",
            });
        }
        if bias.ndim() != 1 || bias.len() != self.shape[1] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: bias.shape.clone(),
                op: "add_row_broadcast",
            });
        }
        let n = self.shape[1];
        let mut out = self.clone();
        let be = simd::backend();
        for row in out.data.chunks_mut(n) {
            simd::add_assign_slices(be, row, &bias.data);
        }
        Ok(out)
    }

    /// Copies rows `[start, start + len)` of the outermost axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the range exceeds the
    /// axis, or [`TensorError::RankMismatch`] on a scalar tensor.
    pub fn narrow(&self, start: usize, len: usize) -> Result<Tensor> {
        if self.shape.is_empty() {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "narrow",
            });
        }
        let outer = self.shape[0];
        if start + len > outer {
            return Err(TensorError::IndexOutOfBounds {
                index: start + len,
                bound: outer,
            });
        }
        let inner: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = len;
        Ok(Tensor {
            shape,
            data: self.data[start * inner..(start + len) * inner].to_vec(),
        })
    }

    /// Copies a single slice of the outermost axis, dropping that axis.
    ///
    /// For a `[n, c, h, w]` batch, `index_axis0(i)` yields sample `i` with
    /// shape `[c, h, w]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] or rank errors as
    /// [`Tensor::narrow`] does.
    pub fn index_axis0(&self, i: usize) -> Result<Tensor> {
        let row = self.narrow(i, 1)?;
        Ok(Tensor {
            shape: self.shape[1..].to_vec(),
            data: row.data,
        })
    }

    /// Stacks tensors of identical shape along a new outermost axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty slice and
    /// [`TensorError::ShapeMismatch`] when element shapes disagree.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or(TensorError::Empty("stack"))?;
        let mut data = Vec::with_capacity(first.len() * items.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: item.shape.clone(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&item.data);
        }
        let mut shape = vec![items.len()];
        shape.extend_from_slice(&first.shape);
        Ok(Tensor { shape, data })
    }

    /// Concatenates tensors along the outermost axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty slice and
    /// [`TensorError::ShapeMismatch`] when trailing shapes disagree.
    pub fn concat0(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or(TensorError::Empty("concat0"))?;
        let mut outer = 0usize;
        let mut data = Vec::new();
        for item in items {
            if item.shape.len() != first.shape.len() || item.shape[1..] != first.shape[1..] {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.shape.clone(),
                    rhs: item.shape.clone(),
                    op: "concat0",
                });
            }
            outer += item.shape[0];
            data.extend_from_slice(&item.data);
        }
        let mut shape = first.shape.clone();
        shape[0] = outer;
        Ok(Tensor { shape, data })
    }

    /// 2-D transpose (copies).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is 2-D.
    pub fn t(&self) -> Result<Tensor> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.ndim(),
                op: "transpose",
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(out)
    }

    /// `true` when every pairwise difference is within `tol` (and shapes
    /// match). Intended for tests and gradient checking.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl std::ops::Index<usize> for Tensor {
    type Output = f32;

    /// Linear (row-major) element access.
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_length() {
        assert!(Tensor::new(&[2, 3], vec![0.0; 6]).is_ok());
        assert!(matches!(
            Tensor::new(&[2, 3], vec![0.0; 5]),
            Err(TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn constructors_fill() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.0).data(), &[7.0, 7.0]);
        assert_eq!(Tensor::scalar(3.0).ndim(), 0);
        assert_eq!(Tensor::scalar(3.0).len(), 1);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(i.get(&[0, 1]).unwrap(), 0.0);
        assert_eq!(i.data().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::new(&[2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0]);
        let b = Tensor::from_vec(vec![3.0, 4.0]);
        assert_eq!(a.map(|v| v * 2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).unwrap().data(), &[4.0, 2.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.zip_map(&c, |x, _| x).is_err());
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 2.0).unwrap();
        assert_eq!(c.data(), &[7.0, 12.0]);
    }

    #[test]
    fn sign_handles_zero_and_nan() {
        let t = Tensor::from_vec(vec![-3.0, 0.0, 2.0, f32::NAN]);
        assert_eq!(t.sign().data(), &[-1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn clamp_bounds() {
        let t = Tensor::from_vec(vec![-2.0, 0.5, 2.0]);
        assert_eq!(t.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn clamp_invalid_range_panics() {
        Tensor::from_vec(vec![0.0]).clamp(1.0, 0.0);
    }

    #[test]
    fn add_row_broadcast_bias() {
        let x = Tensor::new(&[2, 3], vec![0.0; 6]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let y = x.add_row_broadcast(&b).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(x.add_row_broadcast(&Tensor::from_vec(vec![1.0])).is_err());
    }

    #[test]
    fn narrow_and_index_axis0() {
        let t = Tensor::new(&[3, 2], (0..6).map(|v| v as f32).collect()).unwrap();
        let mid = t.narrow(1, 2).unwrap();
        assert_eq!(mid.shape(), &[2, 2]);
        assert_eq!(mid.data(), &[2.0, 3.0, 4.0, 5.0]);
        let row = t.index_axis0(2).unwrap();
        assert_eq!(row.shape(), &[2]);
        assert_eq!(row.data(), &[4.0, 5.0]);
        assert!(t.narrow(2, 2).is_err());
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, 4.0]);
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        let c = Tensor::concat0(&[s.clone(), s.clone()]).unwrap();
        assert_eq!(c.shape(), &[4, 2]);
        assert!(Tensor::stack(&[]).is_err());
        assert!(Tensor::stack(&[a, Tensor::from_vec(vec![1.0])]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::new(&[2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        let tt = t.t().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]).unwrap(), t.get(&[1, 2]).unwrap());
        assert!(Tensor::from_vec(vec![1.0]).t().is_err());
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![1.0 + 1e-6, 2.0 - 1e-6]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-8));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1.0));
    }

    #[test]
    fn large_elementwise_matches_serial() {
        // Above PAR_ELEMENTWISE_MIN, so the pooled bands run; results must
        // be bitwise identical to the serial path.
        let n = super::PAR_ELEMENTWISE_MIN + 123;
        let a = Tensor::from_vec((0..n).map(|i| (i % 7) as f32 - 3.0).collect());
        let b = Tensor::from_vec((0..n).map(|i| (i % 5) as f32 - 2.0).collect());
        let sum = a.add(&b).unwrap();
        assert!(sum
            .data()
            .iter()
            .zip(a.data().iter().zip(b.data()))
            .all(|(&s, (&av, &bv))| s == av + bv));
        let doubled = a.map(|v| v * 2.0);
        assert!(doubled
            .data()
            .iter()
            .zip(a.data())
            .all(|(&d, &v)| d == v * 2.0));
        let mut c = a.clone();
        c.add_scaled(&b, 0.5).unwrap();
        assert!(c
            .data()
            .iter()
            .zip(a.data().iter().zip(b.data()))
            .all(|(&cv, (&av, &bv))| cv == av + 0.5 * bv));
        let mut d = a.clone();
        d.map_inplace(|v| v + 1.0);
        assert!(d
            .data()
            .iter()
            .zip(a.data())
            .all(|(&dv, &av)| dv == av + 1.0));
    }

    #[test]
    fn non_finite_detection() {
        assert!(!Tensor::zeros(&[4]).has_non_finite());
        assert!(Tensor::from_vec(vec![0.0, f32::NAN]).has_non_finite());
        assert!(Tensor::from_vec(vec![f32::INFINITY]).has_non_finite());
    }
}
