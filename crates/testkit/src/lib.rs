//! Verification subsystem for the `advcomp` workspace.
//!
//! The paper's claims are empirical transfer numbers, so the reproduction is
//! only as trustworthy as its ability to prove the pipeline computes the
//! same thing run-to-run, kernel-to-kernel, and PR-to-PR. This crate is that
//! safety net, built on four pillars:
//!
//! 1. **Golden-vector conformance** ([`golden`]): fixed tiny models built
//!    from the crate's own deterministic generator ([`det`]) — so the
//!    vectors do not depend on which `rand` backs the workspace — whose
//!    forward logits, attack perturbations, pruning masks and quantised
//!    weights are serialized to checked-in JSON files under the top-level
//!    `tests/goldens/`. Comparison is bit-exact by default (a 1-ulp drift
//!    anywhere in the pipeline fails the suite); `REGEN_GOLDENS=1`
//!    regenerates the files after an intentional numerical change.
//! 2. **Differential kernel fuzzing** ([`diffref`]): obviously-correct
//!    reference implementations (triple-loop GEMM lives in
//!    `advcomp_tensor`, direct convolution lives here) that randomized
//!    shape/density sweeps compare against the production packed-dense,
//!    zero-skip-sparse and `im2col` kernels.
//! 3. **Determinism harness** ([`determinism`]): runs an operation under
//!    kernel-parallelism caps `{1, 2, 8}` and repeated invocations,
//!    asserting bit-exact equality of every output — the property that
//!    makes `ADVCOMP_THREADS` a pure performance knob.
//! 4. **Gradcheck expansion**: tolerance machinery ([`tolerance`]) for the
//!    finite-difference drivers in `advcomp_nn::gradcheck`, applied over
//!    every layer (including FakeQuant's STE) by this crate's integration
//!    tests.
//!
//! The integration tests under `crates/testkit/tests/` are the contract
//! every future perf or refactor PR must pass; `TESTING.md` at the repo
//! root documents the workflow and tolerance policy.

pub mod det;
pub mod determinism;
pub mod diffref;
pub mod fixtures;
pub mod golden;
pub mod json;
pub mod tolerance;

pub use det::DetRng;
pub use tolerance::Tolerance;

/// Pins the tensor kernel backend for the current test **process** and
/// forces the one-shot `ADVCOMP_KERNEL` cache, so every later tensor op in
/// the process uses `backend` regardless of environment or CPU features.
///
/// The golden vectors are defined by the scalar kernels: SIMD sum/GEMM
/// reassociate accumulation and differ by a few ULPs, which bit-exact
/// conformance would flag as drift. Every test in a goldens/determinism
/// test binary must call `pin_kernel("scalar")` before its first tensor op
/// (libtest runs tests concurrently; the `Once` makes the first pin win and
/// the eager `backend()` call below freezes it before any race matters).
pub fn pin_kernel(backend: &'static str) {
    static PIN: std::sync::Once = std::sync::Once::new();
    PIN.call_once(|| std::env::set_var("ADVCOMP_KERNEL", backend));
    // Resolve (and thereby freeze) the process-wide backend cache now.
    let _ = advcomp_tensor::simd::backend();
}
