//! Dense `f32` tensor library underpinning the `advcomp` workspace.
//!
//! The paper's pipeline (train → compress → attack → transfer) was built on
//! TensorFlow; this crate is the from-scratch substitute. It provides a
//! row-major, contiguous, owned tensor type with:
//!
//! * shape bookkeeping and reshape/transpose/slice operations,
//! * elementwise arithmetic with scalar and same-shape operands,
//! * reductions (sums, means, extrema, `argmax`, vector norms),
//! * one f32 matrix multiply (a packed dense microkernel whose output rows
//!   ignore each other) run on a persistent worker pool ([`pool`]),
//! * runtime-dispatched AVX2+FMA slice kernels with scalar fallbacks for
//!   the GEMM microkernel, elementwise ops and reductions ([`simd`],
//!   selected once per process by `ADVCOMP_KERNEL=scalar|simd|auto`),
//! * convolution for the `nn` layers: the `im2col`/`col2im` lowering and
//!   direct stride-1 AVX2 kernels bit-identical to it ([`conv_impl`]),
//! * max pooling with one-byte window offsets for the backward
//!   ([`max_pool2d`], with an AVX2 body for the 2×2 stride-2 window), and
//! * random initialisers (uniform, Gaussian, Kaiming/Xavier fan-scaled).
//!
//! # Example
//!
//! ```
//! use advcomp_tensor::Tensor;
//!
//! # fn main() -> Result<(), advcomp_tensor::TensorError> {
//! let a = Tensor::new(&[2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::new(&[3, 2], vec![1., 0., 0., 1., 1., 1.])?;
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[4., 5., 10., 11.]);
//! # Ok(())
//! # }
//! ```

mod conv;
mod error;
mod init;
mod ops;
pub mod pool;
pub mod quant;
mod reduce;
mod shape;
pub mod simd;
mod tensor;

pub use conv::{
    col2im, conv2d_forward, conv2d_input_grad, conv2d_weight_grad, conv_impl, im2col, im2col_into,
    max_pool2d, max_pool2d_backward, nchw_to_rows, quantize_patches_into, rows_to_nchw,
    rows_to_nchw_slice, Conv2dGeometry, ConvImpl, ConvScratch,
};
pub use error::TensorError;
pub use init::{FanMode, Init};
pub use ops::{gemm_prepacked, PackedGemmB};
pub use quant::{
    fake_quantize_in_place, qmatmul, qmatmul_f32, quantize_activations, quantize_activations_into,
    QActivations, QTensor, QuantKind, QK,
};
pub use shape::{broadcast_shapes, numel, Shape};
pub use simd::KernelBackend;
pub use tensor::Tensor;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
