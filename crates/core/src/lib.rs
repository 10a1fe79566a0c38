//! The paper's contribution: a compression-aware adversarial-attack
//! taxonomy and the transfer-evaluation harness built on it.
//!
//! §3.1 of the paper defines three attack scenarios over a *baseline*
//! (dense, float32) model and its compressed derivatives:
//!
//! * **Scenario 1 (`Comp→Comp`)** — adversarial samples generated on each
//!   compressed model and applied to the same model (white-box on the
//!   deployed artefact);
//! * **Scenario 2 (`Full→Comp`)** — samples generated on the baseline,
//!   applied to each compressed model (public model → proprietary edge
//!   derivative);
//! * **Scenario 3 (`Comp→Full`)** — samples generated on a compressed
//!   model, applied to the hidden baseline (edge device → vendor's master
//!   model).
//!
//! [`scenario`] implements the taxonomy, [`sweep`] the density/bitwidth
//! sweeps behind Figures 2–5, [`cdf`] the weight/activation CDFs of
//! Figure 6, and [`report`] the CSV/Markdown outputs. [`ExperimentScale`]
//! scales every experiment between a CPU-friendly `quick` profile and the
//! full `paper` profile.

pub mod advtrain;
pub mod blackbox;
pub mod cdf;
mod compression;
pub mod dist;
mod error;
pub mod journal;
pub mod plot;
pub mod report;
pub mod resilience;
mod runner;
mod scale;
pub mod scenario;
pub mod sweep;
mod trainer;

pub use compression::Compression;
pub use error::CoreError;
pub use resilience::{HealthPolicy, RetryPolicy, TrainHealth};
pub use runner::{run_supervised, JobFailure};
pub use scale::ExperimentScale;
pub use trainer::{evaluate_model, TaskSetup, TrainedModel};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
