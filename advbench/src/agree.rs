//! `advbench --agree A B`: do two sets of untraced runs agree within the
//! bounds `BENCHMARK.json` fixes?
//!
//! Each set is a result file or a directory of them. For every
//! end-to-end metric and workload the verdict is
//!
//! * `unresolved` when either set's spread (quartile distance over
//!   median) is wider than the metric's bound;
//! * `agree` when the medians differ by at most the bound, as a share of
//!   the first set's median;
//! * `disagree` otherwise, and `missing` when a set has no value.

use crate::stats;
use advcomp_serve::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Values per (workload, metric) of one set of untraced runs.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read_json(path: &Path) -> Result<Json, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_set(path: &Path) -> Result<Set, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut set = Set::new();
    for file in files {
        let run = read_json(&file)?;
        if run.get("trace").and_then(Json::as_bool) != Some(false) {
            continue; // traced runs carry per-layer metrics only
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: not an advbench result", file.display()))?;
        if let Some(Json::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    set.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(set)
}

/// Prints one verdict per metric × workload; `Ok(true)` when all agree.
pub fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let bench = read_json(Path::new("BENCHMARK.json"))?;
    let bounds: Vec<(String, f64)> = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("malformed end_to_end entry {m}"))
        })
        .collect::<Result<_, String>>()?;
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    let mut workloads: Vec<&String> = sa.keys().chain(sb.keys()).map(|(w, _)| w).collect();
    workloads.sort();
    workloads.dedup();
    if workloads.is_empty() {
        return Err("no untraced results in either set".into());
    }
    println!("workload metric verdict median_a median_b change spread_a spread_b bound");
    let mut all = true;
    for w in workloads {
        for (metric, bound) in &bounds {
            let key = (w.clone(), metric.clone());
            let (va, vb) = (sa.get(&key), sb.get(&key));
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("{w} {metric} missing");
                all = false;
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let (da, db) = (stats::spread(va), stats::spread(vb));
            let change = (mb - ma) / ma.abs();
            let verdict = if da > *bound || db > *bound {
                "unresolved"
            } else if change.abs() <= *bound {
                "agree"
            } else {
                "disagree"
            };
            all &= verdict == "agree";
            println!(
                "{w} {metric} {verdict} {ma:.6} {mb:.6} {:+.2}% {:.2}% {:.2}% {:.0}%",
                100.0 * change,
                100.0 * da,
                100.0 * db,
                100.0 * bound
            );
        }
    }
    Ok(all)
}
