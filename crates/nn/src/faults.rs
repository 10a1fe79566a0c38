//! Deterministic fault injection for resilience testing.
//!
//! Long experiment grids die in three characteristic ways: a worker panics,
//! a numeric blow-up poisons an iteration with NaN, or an interrupted write
//! truncates a results file. This module provides the *injection* half of
//! the resilience story: named **sites** placed at those exact spots fire
//! configured faults deterministically, so the recovery machinery (the
//! supervised runner, health guards and journal in `advcomp-core`) can be
//! proven end to end rather than trusted.
//!
//! Faults come from two sources, merged into one process-global registry:
//!
//! * the `ADVCOMP_FAULTS` environment variable, parsed once on first use —
//!   a `;`/`,`-separated list of `kind:site:hit[:sticky]` specs, e.g.
//!   `ADVCOMP_FAULTS="panic:sweep_point:1;nan:train_step:5"` panics the
//!   second invocation of the `sweep_point` site and poisons the sixth
//!   `train_step` with NaN. `kind` is one of `panic`, `nan`, `io`, `error`;
//!   `hit` is the 0-based invocation index; a trailing `:sticky` makes the
//!   fault fire on every invocation from `hit` onwards instead of once.
//! * programmatic [`install`]/[`FaultGuard`] for tests, which also
//!   serialises fault-using tests against each other (the registry is
//!   process-global, so concurrent tests would otherwise race).
//!
//! Sites live where the failure would naturally occur: this crate only
//! defines the registry; `advcomp-attacks`, `advcomp-compress` and
//! `advcomp-core` query it at their loop bodies and write paths. Probing a
//! site is two atomic loads when no fault targets it, so production runs
//! (no `ADVCOMP_FAULTS`, nothing installed) pay essentially nothing.
//!
//! Hit indices count invocations process-wide, in the order threads reach
//! the site. `advcomp_attacks::craft_all` crafts DeepFool's samples on pool
//! workers beside the batch attacks, so inside one call the `attack_iter`
//! hits follow that schedule. A sticky fault from hit 0 fires on every hit
//! whatever the order, and with `ADVCOMP_THREADS=1` the order is fixed, so
//! both stay deterministic; a one-shot fault at a later hit may land on a
//! different sample from run to run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What an armed fault does when its site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a recognisable message (exercises `catch_unwind` paths).
    Panic,
    /// Poison the site's tensor/loss with NaN (exercises health guards).
    Nan,
    /// Fail the site's I/O operation (exercises atomic-write recovery).
    Io,
    /// Return a plain error (exercises retry/partial-result paths).
    Error,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "nan" => Some(FaultKind::Nan),
            "io" => Some(FaultKind::Io),
            "error" => Some(FaultKind::Error),
            _ => None,
        }
    }
}

/// One armed fault: fire `kind` at the `hit`-th invocation of `site`
/// (0-based); with `sticky`, keep firing on every later invocation too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to do.
    pub kind: FaultKind,
    /// Which injection point to target.
    pub site: String,
    /// 0-based invocation index at which to fire.
    pub hit: u64,
    /// Fire on every invocation `>= hit` instead of exactly once.
    pub sticky: bool,
}

impl FaultSpec {
    /// A one-shot fault at the `hit`-th invocation of `site`.
    pub fn once(kind: FaultKind, site: &str, hit: u64) -> Self {
        FaultSpec {
            kind,
            site: site.into(),
            hit,
            sticky: false,
        }
    }

    /// A fault that fires at `hit` and every invocation after it.
    pub fn sticky(kind: FaultKind, site: &str, hit: u64) -> Self {
        FaultSpec {
            kind,
            site: site.into(),
            hit,
            sticky: true,
        }
    }

    /// Parses one `kind:site:hit[:sticky]` spec. Returns `None` (after a
    /// stderr warning) on malformed input rather than failing the run.
    fn parse(spec: &str) -> Option<FaultSpec> {
        let parts: Vec<&str> = spec.split(':').collect();
        let ok = match parts.as_slice() {
            [kind, site, hit] => FaultKind::parse(kind)
                .and_then(|k| hit.parse().ok().map(|h| FaultSpec::once(k, site, h))),
            [kind, site, hit, "sticky"] => FaultKind::parse(kind)
                .and_then(|k| hit.parse().ok().map(|h| FaultSpec::sticky(k, site, h))),
            _ => None,
        };
        if ok.is_none() {
            eprintln!(
                "warning: ignoring malformed ADVCOMP_FAULTS spec '{spec}' \
                 (expected kind:site:hit[:sticky] with kind in panic|nan|io|error)"
            );
        }
        ok
    }
}

#[derive(Debug, Default)]
struct Registry {
    specs: Vec<FaultSpec>,
    /// Invocation counters, one per site name.
    counters: HashMap<String, u64>,
}

impl Registry {
    /// Counts one invocation of `site` and reports the fault to fire, if any.
    fn fire(&mut self, site: &str) -> Option<FaultKind> {
        let n = self.counters.entry(site.to_string()).or_insert(0);
        let count = *n;
        *n += 1;
        self.specs
            .iter()
            .find(|s| s.site == site && (count == s.hit || (s.sticky && count > s.hit)))
            .map(|s| s.kind)
    }
}

/// Fast path: set iff any fault is armed (env or installed). Lets every
/// site probe bail with one relaxed load when injection is off.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let specs = parse_env(std::env::var("ADVCOMP_FAULTS").ok().as_deref());
        if !specs.is_empty() {
            ARMED.store(true, Ordering::Relaxed);
        }
        Mutex::new(Registry {
            specs,
            counters: HashMap::new(),
        })
    })
}

fn parse_env(value: Option<&str>) -> Vec<FaultSpec> {
    value
        .unwrap_or("")
        .split([';', ','])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(FaultSpec::parse)
        .collect()
}

fn lock() -> MutexGuard<'static, Registry> {
    // A panicking fault site poisons the mutex by design; the registry
    // state is still coherent (the counter was bumped before the panic).
    match registry().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Counts one invocation of `site` and returns the fault to apply, if any.
///
/// This is the generic probe; most call sites want one of the typed
/// helpers ([`maybe_panic`], [`corrupt`], [`io_error`], [`should_error`])
/// which apply the fault as well.
pub fn fire(site: &str) -> Option<FaultKind> {
    // Force one registry init so env-armed faults set ARMED before the
    // fast-path load ever reads it.
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        let _ = registry();
    });
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    lock().fire(site)
}

/// Panics (with a recognisable message) if a `panic` fault fires at `site`.
pub fn maybe_panic(site: &str) {
    if fire(site) == Some(FaultKind::Panic) {
        panic!("injected fault: panic at site '{site}'");
    }
}

/// Poisons `data[0]` with NaN if a `nan` fault fires at `site`. Returns
/// whether the fault fired.
pub fn corrupt(site: &str, data: &mut [f32]) -> bool {
    if fire(site) == Some(FaultKind::Nan) {
        if let Some(v) = data.first_mut() {
            *v = f32::NAN;
        }
        true
    } else {
        false
    }
}

/// Returns an injected I/O error if an `io` fault fires at `site`.
pub fn io_error(site: &str) -> Option<std::io::Error> {
    if fire(site) == Some(FaultKind::Io) {
        Some(std::io::Error::other(format!(
            "injected fault: io error at site '{site}'"
        )))
    } else {
        None
    }
}

/// `true` if an `error` fault fires at `site` (caller builds its own error).
pub fn should_error(site: &str) -> bool {
    fire(site) == Some(FaultKind::Error)
}

/// Serialises tests that install faults; held (transitively) by
/// [`FaultGuard`] so two fault-driven tests never interleave.
fn test_lock() -> &'static Mutex<()> {
    static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    TEST_LOCK.get_or_init(|| Mutex::new(()))
}

/// Exclusive hold on the fault registry for the lifetime of a test. The
/// installed specs are cleared (and invocation counters reset) on drop.
#[must_use = "faults are cleared when the guard drops"]
pub struct FaultGuard {
    _exclusive: MutexGuard<'static, ()>,
}

/// Installs `specs` for the duration of the returned guard, replacing any
/// environment-armed faults, and resets all invocation counters. Tests use
/// this instead of `ADVCOMP_FAULTS` so they compose under the parallel
/// test runner; the guard serialises fault-using tests process-wide.
pub fn install(specs: Vec<FaultSpec>) -> FaultGuard {
    let exclusive = match test_lock().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    {
        let mut reg = lock();
        reg.specs = specs;
        reg.counters.clear();
    }
    ARMED.store(true, Ordering::Relaxed);
    FaultGuard {
        _exclusive: exclusive,
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut reg = lock();
        reg.specs.clear();
        reg.counters.clear();
        // Leave ARMED set only if the environment armed faults at startup;
        // re-deriving it from the env keeps a dropped guard from disabling
        // env-driven injection in the same process.
        let env_specs = parse_env(std::env::var("ADVCOMP_FAULTS").ok().as_deref());
        let still_armed = !env_specs.is_empty();
        reg.specs = env_specs;
        ARMED.store(still_armed, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_specs() {
        let specs = parse_env(Some("panic:sweep_point:1; nan:train_step:5,io:w:0:sticky"));
        assert_eq!(
            specs,
            vec![
                FaultSpec::once(FaultKind::Panic, "sweep_point", 1),
                FaultSpec::once(FaultKind::Nan, "train_step", 5),
                FaultSpec::sticky(FaultKind::Io, "w", 0),
            ]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse_env(Some("explode:x:1")).is_empty());
        assert!(parse_env(Some("panic:x")).is_empty());
        assert!(parse_env(Some("panic:x:notanumber")).is_empty());
        assert!(parse_env(Some("")).is_empty());
        assert!(parse_env(None).is_empty());
    }

    #[test]
    fn one_shot_fires_exactly_once_at_hit() {
        let _g = install(vec![FaultSpec::once(FaultKind::Error, "site_a", 2)]);
        assert_eq!(fire("site_a"), None); // hit 0
        assert_eq!(fire("site_b"), None); // other sites independent
        assert_eq!(fire("site_a"), None); // hit 1
        assert_eq!(fire("site_a"), Some(FaultKind::Error)); // hit 2
        assert_eq!(fire("site_a"), None); // hit 3
    }

    #[test]
    fn sticky_fires_from_hit_onwards() {
        let _g = install(vec![FaultSpec::sticky(FaultKind::Error, "s", 1)]);
        assert!(!should_error("s"));
        assert!(should_error("s"));
        assert!(should_error("s"));
    }

    #[test]
    fn corrupt_poisons_first_element() {
        let _g = install(vec![FaultSpec::once(FaultKind::Nan, "c", 0)]);
        let mut data = [1.0f32, 2.0];
        assert!(corrupt("c", &mut data));
        assert!(data[0].is_nan());
        assert_eq!(data[1], 2.0);
        // Second invocation: no fault, data untouched.
        let mut clean = [3.0f32];
        assert!(!corrupt("c", &mut clean));
        assert_eq!(clean[0], 3.0);
    }

    #[test]
    fn io_and_panic_helpers() {
        let _g = install(vec![
            FaultSpec::once(FaultKind::Io, "w", 0),
            FaultSpec::once(FaultKind::Panic, "p", 0),
        ]);
        assert!(io_error("w").is_some());
        assert!(io_error("w").is_none());
        let caught = std::panic::catch_unwind(|| maybe_panic("p"));
        assert!(caught.is_err());
        maybe_panic("p"); // second invocation: no panic
    }

    #[test]
    fn guard_clears_on_drop() {
        {
            let _g = install(vec![FaultSpec::sticky(FaultKind::Error, "g", 0)]);
            assert!(should_error("g"));
        }
        let _g2 = install(vec![]);
        assert!(!should_error("g"));
    }
}
