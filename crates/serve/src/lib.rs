//! advcomp-serve: batched inference serving with compression-ensemble
//! adversarial detection.
//!
//! This crate turns the repository's trained models into a small
//! production-style serving stack:
//!
//! * [`ModelRegistry`] — loads checkpoints (CRC-verified v2 float / v3
//!   packed-quantised formats) into a named baseline plus compressed
//!   variants, publishes them as generation-stamped immutable snapshots,
//!   and supports [`ModelRegistry::swap`]: an atomic hot swap picked up
//!   by workers at their next batch boundary, without draining in-flight
//!   work. Every model is compiled to an `ExecPlan` when it is registered
//!   or swapped in, and one that does not lower is rejected. Workers
//!   forward on their own clones of the plans, so concurrent forwards
//!   never share an arena.
//! * [`Engine`] — a dynamic batcher: every worker pops from one bounded
//!   FIFO, coalescing requests until `max_batch` or `max_delay` before one
//!   batched eval forward. Submission is either blocking ([`Engine::submit`]) or
//!   non-blocking ([`Engine::submit_async`], completions over a channel
//!   with exactly-once delivery even across worker panics). A full queue
//!   rejects with [`ServeError::Overloaded`] — explicit backpressure,
//!   never a hang.
//! * the **ensemble guard** — scores each request with a detector from
//!   `advcomp-detect` over the compressed-variant ensemble. Adversarial
//!   examples transfer imperfectly across compression levels (the source
//!   paper's key interaction), so cross-variant disagreement is a cheap
//!   attack signal. When the registry carries a
//!   [`ModelRegistry::load_calibration`] artifact, the guard runs the
//!   calibrated detector at its ROC-chosen threshold and the metrics
//!   snapshot reports the deployment; otherwise it falls back to the raw
//!   disagreement score at [`GuardConfig`]'s threshold.
//! * [`Server`]/[`Client`] — length-prefixed JSON frames over TCP served
//!   by non-blocking event loops (readiness-polled via `poll(2)`), with
//!   per-client token-bucket admission control ([`RateLimitConfig`],
//!   distinct `rate_limited` status), pipelined in-order responses, and
//!   graceful shutdown.
//! * [`ServeMetrics`] — lock-free per-stage latency histograms
//!   (p50/p99/p999), batch-size distribution, guard rates, and
//!   connection/swap counters, snapshotted to JSON.
//!
//! ```no_run
//! use advcomp_serve::{Engine, ModelRegistry, ServeConfig, Server};
//!
//! let mut registry = ModelRegistry::new(&[1, 28, 28])?;
//! registry.set_baseline("dense", advcomp_models::mlp(32, 0))?;
//! registry.add_variant("quant8", advcomp_models::mlp(32, 0))?;
//! let engine = Engine::start(&registry, ServeConfig::default())?;
//! let server = Server::bind(engine, "127.0.0.1:7878")?;
//! server.serve_forever();
//! # Ok::<(), advcomp_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

mod admission;
mod engine;
mod error;
pub mod loadgen;
mod metrics;
mod netpoll;
pub mod protocol;
mod queue;
mod registry;
mod server;
mod wake;

/// The JSON codec of request and response frames, from `advcomp-wire`.
pub use advcomp_wire::json;
pub use engine::{
    Completion, CompletionSender, CompletionWaker, Engine, GuardConfig, Prediction, ServeConfig,
};
pub use error::ServeError;
pub use metrics::{BatchSizeDistribution, GuardDeployment, LatencyHistogram, ServeMetrics};
pub use registry::{ModelRegistry, ModelSet, RegistryHandle};
pub use server::{Client, RateLimitConfig, Server, ServerConfig};
