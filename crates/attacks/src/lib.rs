//! White-box adversarial attacks (§2.3, §3.3 of the paper).
//!
//! All five attacks the paper defines are implemented against
//! [`advcomp_nn::Sequential`] networks:
//!
//! * [`Fgm`] — fast gradient method, `η = ε · ∇X J(θ, X, y)` (Equation 4);
//! * [`Fgsm`] — fast gradient *sign* method, `η = ε · sign(∇X J)`
//!   (Equation 5);
//! * [`Ifgsm`] — iterative FGSM (Algorithm 1): per-iteration sign step,
//!   clipped to stay within `ε` of the previous iterate and inside the valid
//!   pixel range `[0, 1]`;
//! * [`Ifgm`] — iterative FGM: identical loop but the step uses raw gradient
//!   amplitudes, `N = ∇X J`;
//! * [`DeepFool`] — Moosavi-Dezfooli et al.'s L2 multi-class boundary
//!   attack, iteratively projecting onto the nearest linearised decision
//!   boundary;
//! * [`Pgd`] — projected gradient descent with random start (extension:
//!   the stronger first-order adversary a follow-up study would use).
//!
//! [`PaperParams`] carries the exact Table 1 hyper-parameters. Every attack
//! implements the [`Attack`] trait so the transfer harness in
//! `advcomp-core` treats them uniformly. [`craft_all`] crafts several
//! attacks against one model with what serial [`Attack::generate`] calls
//! return, running DeepFool's samples on idle pool workers beside the batch
//! attacks.
//!
//! Every eval-only forward (accuracy, transfer accuracy, black-box oracle
//! queries, UAP fool rates) runs through a compiled [`PlannedEval`] plan;
//! gradient crafting stays on the `Sequential` forward/backward path.
//!
//! # Example
//!
//! ```no_run
//! use advcomp_attacks::{Attack, Ifgsm};
//! # fn demo(model: &mut advcomp_nn::Sequential,
//! #         x: &advcomp_tensor::Tensor, y: &[usize])
//! #         -> Result<(), advcomp_attacks::AttackError> {
//! let attack = Ifgsm::new(0.02, 12)?;
//! let x_adv = attack.generate(model, x, y)?;
//! # Ok(())
//! # }
//! ```

mod craft;
mod deepfool;
mod error;
mod fgm;
mod grad;
mod iterative;
mod params;
mod pgd;
mod planned;
mod stats;
pub mod step;
mod universal;

pub use craft::{craft_all, CraftJob};
pub use deepfool::DeepFool;
pub use error::AttackError;
pub use fgm::{Fgm, Fgsm};
pub use grad::loss_input_grad;
pub use iterative::{Ifgm, Ifgsm};
pub use params::{AttackKind, AttackParams, NetKind, PaperParams};
pub use pgd::Pgd;
pub use planned::PlannedEval;
pub use stats::PerturbationStats;
pub use universal::{craft_uap, Uap, UapConfig};

use advcomp_nn::Sequential;
use advcomp_tensor::Tensor;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AttackError>;

/// A white-box adversarial attack.
///
/// Implementations consume a batch of clean inputs in `[0, 1]` with their
/// true labels and return adversarial inputs of the same shape, also in
/// `[0, 1]`. The model is taken mutably because computing input gradients
/// requires running its forward/backward machinery; attacks must leave
/// parameter *values* untouched.
pub trait Attack: Send + Sync {
    /// Short identifier, e.g. `"ifgsm"`.
    fn name(&self) -> &'static str;

    /// Crafts adversarial examples for `(x, labels)` against `model`.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError`] on shape/label mismatches or network errors.
    fn generate(&self, model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<Tensor>;

    /// Whether `generate` crafts each sample on its own: its output on a
    /// batch is the concatenation of its outputs on each sample alone,
    /// bit for bit, on any replica of the model, with the health events
    /// in sample order. [`craft_all`] runs such an attack's samples as
    /// separate pool chunks. `false` unless an attack says otherwise.
    fn independent_samples(&self) -> bool {
        false
    }
}
