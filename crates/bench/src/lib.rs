//! Shared plumbing for the exhibit binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it: `table1`, `fig2`, `fig3`, `fig4`, `fig5`, `fig6` and
//! `crossseed`. Each prints the paper's rows/series as a Markdown table and
//! writes a CSV under `results/`. The measurement binaries
//! (`kernel_bench`, `quant_bench`, `graph_bench`, `detect_bench`,
//! `serve_bench`) write `BENCH_*.json` files through [`record`], which
//! also holds their one regression gate.
//!
//! Run e.g.:
//!
//! ```text
//! cargo run --release -p advcomp-bench --bin fig2 -- --scale quick
//! ADVCOMP_SCALE=paper cargo run --release -p advcomp-bench --bin fig5
//! ```

pub mod record;

use advcomp_core::resilience::RetryPolicy;
use advcomp_core::sweep::{MatrixRun, PointFailure, RunConfig, TransferMatrix};
use advcomp_core::ExperimentScale;
use serde::Serialize;
use std::num::NonZeroUsize;
use std::path::PathBuf;

/// Command-line synopsis shared by the exhibit binaries.
const USAGE: &str = "usage: <exhibit> [--scale tiny|quick|paper] [--results <dir>] \
                     [--run-dir <dir>] [--dist <workers>] [exhibit flags]";

/// Parsed command-line options shared by all exhibit binaries.
#[derive(Debug, Clone)]
pub struct ExhibitOptions {
    /// Scaling profile.
    pub scale: ExperimentScale,
    /// Name of the selected profile (for logging).
    pub scale_name: String,
    /// Output directory for CSV files.
    pub results_dir: PathBuf,
    /// Checkpoint/resume journal directory (`--run-dir`); sweep exhibits
    /// persist each completed point here and skip it on re-runs.
    pub run_dir: Option<PathBuf>,
    /// Worker count from `--dist N`; `None` runs single-process.
    pub dist_workers: Option<usize>,
    /// Extra flags (exhibit-specific, e.g. `--weights-only`).
    pub flags: Vec<String>,
}

impl ExhibitOptions {
    /// Parses the process arguments with [`ExhibitOptions::parse`]. On a
    /// bad argument it prints the error and the usage and exits with
    /// status 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses `--scale tiny|quick|paper` (default: env `ADVCOMP_SCALE`,
    /// then `quick`), `--results <dir>`, `--run-dir <dir>` and
    /// `--dist <workers>`, and collects the remaining flags. An unknown
    /// scale name warns on stderr and falls back to `quick`.
    ///
    /// # Errors
    ///
    /// A value flag at the end of `args`, a value that starts with `--`,
    /// or a `--dist` that is not a positive integer.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut scale_name = std::env::var("ADVCOMP_SCALE").unwrap_or_else(|_| "quick".into());
        let mut results_dir = PathBuf::from("results");
        let mut run_dir = None;
        let mut dist_workers = None;
        let mut flags = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => scale_name = flag_value(&arg, &mut it)?,
                "--results" => results_dir = PathBuf::from(flag_value(&arg, &mut it)?),
                "--run-dir" => run_dir = Some(PathBuf::from(flag_value(&arg, &mut it)?)),
                "--dist" => {
                    let v = flag_value(&arg, &mut it)?;
                    let n: NonZeroUsize = v.parse().map_err(|_| {
                        format!("--dist expects a positive worker count, got {v:?}")
                    })?;
                    dist_workers = Some(n.get());
                }
                _ => flags.push(arg),
            }
        }
        let scale = match scale_name.as_str() {
            "paper" => ExperimentScale::paper(),
            "tiny" => ExperimentScale::tiny(),
            "quick" => ExperimentScale::quick(),
            other => {
                eprintln!(
                    "warning: unrecognised scale profile '{other}' \
                     (expected tiny|quick|paper); falling back to 'quick'"
                );
                scale_name = "quick".into();
                ExperimentScale::quick()
            }
        };
        Ok(ExhibitOptions {
            scale,
            scale_name,
            results_dir,
            run_dir,
            dist_workers,
            flags,
        })
    }

    /// `true` when `flag` was passed on the command line.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Path for an exhibit's CSV output.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.results_dir.join(format!("{name}.csv"))
    }
}

/// The value that must follow `flag`: present, and not itself a flag.
fn flag_value(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<String, String> {
    match it.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        Some(v) => Err(format!("{flag} expects a value, got the flag {v}")),
        None => Err(format!("{flag} expects a value")),
    }
}

/// Runs `matrix` under the full resilience stack (supervised workers with
/// retries; journalled checkpoint/resume when `--run-dir` was given) and
/// prints the resilience bookkeeping — `resumed`/`computed` counts, failed
/// points, health incidents — before handing the curves back. With
/// `--dist N` (requires `--run-dir`), execution goes through the
/// lease-based coordinator with `N` local worker threads instead; the
/// curves are bit-identical either way.
///
/// # Errors
///
/// Propagates configuration, baseline-training and journal errors;
/// per-point failures are reported in the returned [`MatrixRun`] instead.
pub fn run_matrix(
    matrix: &TransferMatrix,
    opts: &ExhibitOptions,
) -> advcomp_core::Result<MatrixRun> {
    let run = if let Some(workers) = opts.dist_workers {
        // `--dist N`: run the same matrix through the lease-based
        // coordinator with N local worker threads. The journal is the
        // idempotency story, so a run directory is mandatory here.
        let Some(run_dir) = opts.run_dir.clone() else {
            return Err(advcomp_core::CoreError::InvalidConfig(
                "--dist requires --run-dir <dir> (the journal provides exactly-once results)"
                    .into(),
            ));
        };
        let cfg = advcomp_core::dist::DistRunConfig::new(run_dir);
        let outcome = advcomp_core::dist::run_local(matrix, &opts.scale, &cfg, workers)?;
        let r = &outcome.report;
        println!(
            "dist: {workers} worker(s) — remote {}, solo {}, leases {} \
             (expired {}, redispatched {}, speculative {}), workers lost {}",
            r.computed_remote,
            r.computed_solo,
            r.leases_granted,
            r.leases_expired,
            r.redispatches,
            r.speculative,
            r.workers_lost
        );
        outcome.run
    } else {
        let cfg = RunConfig {
            seed: 7,
            run_dir: opts.run_dir.clone(),
            retry: RetryPolicy::sweep_default(),
        };
        matrix.run_resilient(&opts.scale, &cfg)?
    };
    if opts.run_dir.is_some() {
        println!(
            "journal: resumed {} point(s), computed {}",
            run.resumed, run.computed
        );
    }
    for f in &run.failed {
        eprintln!(
            "warning: sweep point x={} ({}) failed after {} attempt(s): {}",
            f.x, f.compression, f.attempts, f.error
        );
    }
    for h in &run.health {
        eprintln!("health: {h}");
    }
    Ok(run)
}

/// Aggregated resilience summary across an exhibit's matrices, written as
/// JSON next to the CSV so re-runs document what was resumed, what was
/// recomputed and what failed.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Exhibit name (e.g. `fig2`).
    pub exhibit: String,
    /// Scale profile the run used.
    pub scale: String,
    /// Points loaded from the journal instead of recomputed.
    pub resumed: usize,
    /// Points executed this run.
    pub computed: usize,
    /// Permanently-failed points with their final error and attempt count.
    pub failed: Vec<PointFailure>,
    /// Resilience incidents (rollbacks, guard events, journal degradations).
    pub health: Vec<String>,
}

impl RunSummary {
    /// An empty summary for `exhibit`.
    pub fn new(exhibit: &str, opts: &ExhibitOptions) -> Self {
        RunSummary {
            exhibit: exhibit.into(),
            scale: opts.scale_name.clone(),
            resumed: 0,
            computed: 0,
            failed: Vec::new(),
            health: Vec::new(),
        }
    }

    /// Folds one matrix run's bookkeeping into the summary.
    pub fn absorb(&mut self, run: &MatrixRun) {
        self.resumed += run.resumed;
        self.computed += run.computed;
        self.failed.extend(run.failed.iter().cloned());
        self.health.extend(run.health.iter().cloned());
    }

    /// Writes the summary as `<results>/<exhibit>_run.json` (crash-safely)
    /// and reports the path.
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn write(&self, opts: &ExhibitOptions) -> advcomp_core::Result<PathBuf> {
        let path = opts.results_dir.join(format!("{}_run.json", self.exhibit));
        advcomp_core::report::write_json(self, &path)?;
        Ok(path)
    }
}

/// Prints a standard exhibit banner.
pub fn banner(exhibit: &str, what: &str, opts: &ExhibitOptions) {
    println!("=== {exhibit}: {what} ===");
    println!(
        "scale profile: {} (train={}, test={}, eval={}, epochs={}/{})",
        opts.scale_name,
        opts.scale.train_size,
        opts.scale.test_size,
        opts.scale.attack_eval,
        opts.scale.baseline_epochs,
        opts.scale.finetune_epochs
    );
    println!();
}

/// The density grid used by Figures 2 and 4 (paper sweeps densities from
/// 1.0 down to the low single-percent range).
pub fn density_grid() -> Vec<f64> {
    vec![1.0, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02]
}

/// The bitwidth grid used by Figure 5 (32 = float32 baseline).
pub fn bitwidth_grid() -> Vec<u32> {
    vec![4, 6, 8, 12, 16, 32]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_paper_ranges() {
        let d = density_grid();
        assert_eq!(d[0], 1.0);
        assert!(*d.last().unwrap() <= 0.02);
        let b = bitwidth_grid();
        assert!(b.contains(&4) && b.contains(&8) && b.contains(&32));
    }

    #[test]
    fn csv_path_joins() {
        let opts = ExhibitOptions {
            scale: ExperimentScale::tiny(),
            scale_name: "tiny".into(),
            results_dir: PathBuf::from("/tmp/r"),
            run_dir: None,
            dist_workers: None,
            flags: vec!["--weights-only".into()],
        };
        assert_eq!(opts.csv_path("fig2"), PathBuf::from("/tmp/r/fig2.csv"));
        assert!(opts.has_flag("--weights-only"));
        assert!(!opts.has_flag("--nope"));
    }

    fn parse(args: &[&str]) -> Result<ExhibitOptions, String> {
        ExhibitOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_every_option() {
        let opts = parse(&[
            "--scale",
            "tiny",
            "--results",
            "/tmp/r",
            "--run-dir",
            "/tmp/j",
            "--dist",
            "3",
            "--one-shot",
        ])
        .unwrap();
        assert_eq!(opts.scale_name, "tiny");
        assert_eq!(opts.results_dir, PathBuf::from("/tmp/r"));
        assert_eq!(opts.run_dir, Some(PathBuf::from("/tmp/j")));
        assert_eq!(opts.dist_workers, Some(3));
        assert_eq!(opts.flags, vec!["--one-shot".to_string()]);
    }

    #[test]
    fn value_flag_without_a_value_is_an_error() {
        for flag in ["--scale", "--results", "--run-dir", "--dist"] {
            let err = parse(&["--scale", "tiny", flag]).unwrap_err();
            assert!(err.contains("expects a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn value_flag_does_not_swallow_the_next_flag() {
        for flag in ["--scale", "--results", "--run-dir", "--dist"] {
            let err = parse(&[flag, "--results", "/tmp/x"]).unwrap_err();
            assert!(err.contains("got the flag --results"), "{flag}: {err}");
        }
    }

    #[test]
    fn dist_must_be_a_positive_integer() {
        for bad in ["0", "x", "-1", "2.5"] {
            let err = parse(&["--dist", bad]).unwrap_err();
            assert!(err.contains("positive worker count"), "{bad}: {err}");
        }
    }
}
