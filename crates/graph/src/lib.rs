//! Graph IR and fusing forward compiler with static memory planning.
//!
//! `Sequential` executes layer-at-a-time: every layer allocates its output
//! tensor, activation quantisation runs as two extra full passes
//! (`FakeQuant`), bias addition clones the whole GEMM output, and dense
//! weights are re-transposed and re-packed on every call. None of that is
//! inherent to inference — it is the price of a representation that also
//! supports training. This crate compiles the *inference* forward into a
//! shape-specialised program:
//!
//! * [`ir`] — a typed straight-line IR lowered from
//!   [`Sequential`](advcomp_nn::Sequential) via
//!   [`LayerSpec`](advcomp_nn::LayerSpec), with per-sample shape
//!   inference;
//! * [`fuse`] — pattern fusion (`Conv2d+bias+activation`,
//!   `Dense+bias+activation`), quant→dequant elision, and int8 chaining
//!   so adjacent packed layers exchange i8 codes without an f32 round
//!   trip;
//! * [`plan`] — liveness analysis and greedy first-fit arena planning
//!   over the step schedule;
//! * [`exec`] — the [`ExecPlan`] executor: pre-packed weights, plan-owned
//!   scratch, zero per-layer heap allocation in steady state, dispatching
//!   into the exact `advcomp-tensor` kernels the layers use so results
//!   are bit-identical to `Sequential::forward`.
//!
//! Backward is deliberately out of scope: training needs per-layer
//! caches, parameter gradients and stochastic layers, which defeat static
//! planning. Every eval-only forward — serving, accuracy evaluation,
//! transfer measurement, detection scoring — runs a compiled plan;
//! training and gradient-based crafting keep the `Sequential` path.
//!
//! # Example
//!
//! ```
//! use advcomp_graph::ExecPlan;
//! use advcomp_nn::{Dense, Mode, Relu, Sequential};
//! use advcomp_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 2, &mut rng)),
//! ]);
//! let mut plan = ExecPlan::compile(&net, &[4])?;
//! let x = Tensor::zeros(&[3, 4]);
//! let compiled = plan.forward(&x)?;
//! let reference = net.forward(&x, Mode::Eval)?;
//! assert_eq!(compiled.data(), reference.data());
//! # Ok(())
//! # }
//! ```

pub mod exec;
pub mod fuse;
pub mod ir;
pub mod plan;

pub use exec::ExecPlan;
pub use fuse::{fuse, BnFold, FusedGraph, FusedOp, FusionStats, GemmUnit};
pub use ir::{infer_shape, lower, Act, GemmWeight, Graph, Node, Op};
pub use plan::{plan_arena, validate_no_alias, BufferLife, MemoryPlan};

use advcomp_tensor::TensorError;

/// Errors from lowering, planning or executing a graph.
#[derive(Debug)]
pub enum GraphError {
    /// The model contains a construct the compiler has no lowering for.
    Unsupported(String),
    /// Shapes are inconsistent (at compile or forward time).
    Shape(String),
    /// A tensor kernel failed.
    Tensor(TensorError),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Unsupported(msg) => write!(f, "unsupported model construct: {msg}"),
            GraphError::Shape(msg) => write!(f, "shape error: {msg}"),
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
