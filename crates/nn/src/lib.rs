//! Layer-based neural-network framework with reverse-mode differentiation.
//!
//! This crate replaces the TensorFlow/Mayo training stack the paper used.
//! Networks are [`Sequential`] chains of [`Layer`]s; each layer implements
//! `forward` (taking its input by value and caching what it needs),
//! `backward_params` (accumulating parameter gradients) and
//! `backward_input` (consuming an output gradient and returning the **input
//! gradient**). Tensors move down the chain: elementwise layers work in
//! their input's buffer. Input gradients are first-class because every
//! attack in the paper — FGM, FGSM, their iterative variants and DeepFool —
//! differentiates the network with respect to its *input*, not its weights
//! ([`Sequential::backward_input`]); training's [`Sequential::backward`]
//! accumulates parameter gradients and carries no gradient below the first
//! layer with parameters.
//!
//! Provided layers — the paper's layer vocabulary and nothing more:
//! [`Dense`], [`Conv2d`], [`Relu`], [`MaxPool2d`], [`Flatten`], [`Dropout`],
//! and [`FakeQuant`] (fixed-point activation quantisation with a
//! straight-through estimator, the mechanism behind the paper's "quantising
//! both weights and activations").
//!
//! Training utilities: [`softmax_cross_entropy`] loss, [`Sgd`] with momentum
//! and weight decay, and [`StepDecay`] mirroring the paper's learning-rate
//! schedule (start 0.01, three 10× decays).
//!
//! # Example
//!
//! ```
//! use advcomp_nn::{Dense, Relu, Sequential, Mode};
//! use advcomp_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), advcomp_nn::NnError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Dense::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 2, &mut rng)),
//! ]);
//! let x = Tensor::zeros(&[3, 4]);
//! let logits = net.forward(&x, Mode::Eval)?;
//! assert_eq!(logits.shape(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

mod error;
pub mod faults;
mod gradcheck;
pub mod health;
mod layer;
mod layers;
mod loss;
mod optim;
mod param;
mod qweights;
mod sequential;

pub use error::NnError;
pub use gradcheck::{finite_diff_input_grad, finite_diff_param_grad};
pub use layer::{Layer, LayerSpec, Mode, WeightRepr};
pub use layers::{Conv2d, Dense, Dropout, FakeQuant, Flatten, MaxPool2d, Relu};
pub use loss::{accuracy, softmax, softmax_cross_entropy, LossOutput};
pub use optim::{LrSchedule, Sgd, StepDecay};
pub use param::{Param, ParamKind};
pub use qweights::QuantizedWeights;
pub use sequential::Sequential;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
