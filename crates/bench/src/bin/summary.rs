//! Digest of all generated exhibits: reads `results/*.csv` and prints one
//! compact paper-vs-reproduction verdict table (the machine-checkable
//! backbone of EXPERIMENTS.md). Exits 1, after printing the table, when
//! any verdict is ✗.

use advcomp_bench::ExhibitOptions;
use advcomp_core::report::Table;
use advcomp_qformat::QFormat;
use std::collections::HashMap;
use std::path::Path;

/// Reads one exhibit CSV; `None` when the exhibit has not been generated
/// (or, with a warning, when its file does not parse).
fn read_table(path: &Path) -> Option<Table> {
    let text = std::fs::read_to_string(path).ok()?;
    Table::from_csv(&text)
        .map_err(|e| eprintln!("warning: skipping {}: {e}", path.display()))
        .ok()
}

/// Pulls one named numeric column as f64, keyed by a composite of the other
/// selector columns.
fn column_map(table: &Table, keys: &[&str], value: &str) -> HashMap<String, f64> {
    let position = |name: &str| table.headers.iter().position(|h| h == name);
    let key_idx: Vec<usize> = keys.iter().filter_map(|k| position(k)).collect();
    let mut out = HashMap::new();
    if key_idx.len() != keys.len() {
        return out;
    }
    let Some(val_idx) = position(value) else {
        return out;
    };
    for row in &table.rows {
        let key = key_idx
            .iter()
            .map(|&i| row[i].as_str())
            .collect::<Vec<_>>()
            .join("/");
        if let Ok(v) = row[val_idx].parse::<f64>() {
            out.insert(key, v);
        }
    }
    out
}

fn verdict(ok: bool) -> String {
    if ok {
        "✓".into()
    } else {
        "✗ (check data)".into()
    }
}

/// Figure 6's verdict row: 4-bit weights sit on the 4-bit fixed-point
/// grid, and more of them are exactly zero than at 16 bits. The CSV holds
/// rank-spaced CDF points per kind and bitwidth.
fn fig6_row(t: &Table) -> Vec<String> {
    let column = |name: &str| t.headers.iter().position(|h| h == name);
    let series = |bits: &str| -> Vec<f64> {
        let (Some(k), Some(b), Some(v)) = (column("kind"), column("bitwidth"), column("value"))
        else {
            return Vec::new();
        };
        let rows = t.rows.iter().filter(|r| r[k] == "weights" && r[b] == bits);
        rows.filter_map(|r| r[v].parse().ok()).collect()
    };
    let (w4, w16) = (series("4"), series("16"));
    let q4 = QFormat::for_bitwidth(4).expect("4 bits is a paper bitwidth");
    let (lo, hi) = (f64::from(q4.min_value()), f64::from(q4.max_value()));
    let step = f64::from(q4.resolution());
    let on_grid = w4
        .iter()
        .all(|&v| (lo..=hi).contains(&v) && (v / step).fract() == 0.0);
    let min = w4.iter().copied().fold(f64::INFINITY, f64::min);
    let max = w4.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let zero_share = |s: &[f64]| s.iter().filter(|&&v| v == 0.0).count() as f64 / s.len() as f64;
    let (z4, z16) = (zero_share(&w4), zero_share(&w16));
    vec![
        "fig6".into(),
        format!("4-bit weights on the {q4} grid, zero mass far above 16-bit"),
        format!(
            "4-bit in [{min}, {max}] step {step}; zeros {:.0}% (4-bit) vs {:.0}% (16-bit)",
            100.0 * z4,
            100.0 * z16
        ),
        verdict(!w4.is_empty() && !w16.is_empty() && on_grid && z4 > z16),
    ]
}

fn main() {
    let opts = ExhibitOptions::from_args();
    let dir = &opts.results_dir;
    let mut table = Table::new(
        "Paper-claim verdicts from generated CSVs",
        &["exhibit", "claim", "measured", "verdict"],
    );

    // Figure 2: attacks transfer at moderate density; sparse models stop
    // transferring to the baseline.
    if let Some(t) = read_table(&dir.join("fig2.csv")) {
        let s3 = column_map(&t, &["net", "attack", "density"], "comp_to_full");
        if let (Some(&dense), Some(&sparse)) =
            (s3.get("lenet5/ifgsm/1"), s3.get("lenet5/ifgsm/0.02"))
        {
            table.push_row(vec![
                "fig2".into(),
                "sparse models' samples stop working on baseline".into(),
                format!(
                    "comp→full adv acc {:.0}% (d=1.0) vs {:.0}% (d=0.02)",
                    100.0 * dense,
                    100.0 * sparse
                ),
                verdict(sparse > dense + 0.3),
            ]);
        }
    }

    // Figure 5: 4-bit clipping defence exists for weights+activations...
    let wa4 = read_table(&dir.join("fig5.csv"))
        .map(|t| column_map(&t, &["net", "attack", "bitwidth"], "comp_to_full"));
    if let Some(wa) = &wa4 {
        if let (Some(&b4), Some(&b32)) = (wa.get("lenet5/ifgsm/4"), wa.get("lenet5/ifgsm/32")) {
            table.push_row(vec![
                "fig5".into(),
                "low integer precision marginally limits transfer".into(),
                format!(
                    "comp→full adv acc {:.0}% (4-bit) vs {:.0}% (float32)",
                    100.0 * b4,
                    100.0 * b32
                ),
                verdict(b4 > b32 + 0.1),
            ]);
        }
    }
    // ... and vanishes when only weights are quantised.
    if let (Some(wa), Some(t)) = (&wa4, read_table(&dir.join("fig5_weights_only.csv"))) {
        let wo = column_map(&t, &["net", "attack", "bitwidth"], "comp_to_full");
        if let (Some(&full), Some(&weights_only)) =
            (wa.get("lenet5/ifgsm/4"), wo.get("lenet5/ifgsm/4"))
        {
            table.push_row(vec![
                "fig5 ablation".into(),
                "defence comes from activation clipping".into(),
                format!(
                    "4-bit comp→full: {:.0}% (w+a) vs {:.0}% (weights only)",
                    100.0 * full,
                    100.0 * weights_only
                ),
                verdict(full > weights_only + 0.2),
            ]);
        }
    }

    // Cross-seed: LeNet5 transfer << CifarNet transfer.
    if let Some(t) = read_table(&dir.join("crossseed.csv")) {
        let tr = column_map(&t, &["net"], "transfer_rate");
        if let (Some(&l), Some(&c)) = (tr.get("lenet5"), tr.get("cifarnet")) {
            table.push_row(vec![
                "crossseed".into(),
                "DeepFool cross-seed transfer: LeNet5 ≪ CifarNet".into(),
                format!("{l}% vs {c}%"),
                verdict(l < c),
            ]);
        }
    }

    if let Some(t) = read_table(&dir.join("fig6.csv")) {
        table.push_row(fig6_row(&t));
    }

    if table.rows.is_empty() {
        println!(
            "no CSVs found under {} — run the exhibit binaries first",
            dir.display()
        );
        return;
    }
    print!("{}", table.to_markdown());
    let failed = table.rows.iter().filter(|row| row[3] != "✓").count();
    if failed > 0 {
        eprintln!("error: {failed} paper claim(s) failed their verdict");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 6 verdict for 4-bit and 16-bit weight series.
    fn fig6(w4: &[&str], w16: &[&str]) -> String {
        let rows = [("4", w4), ("16", w16)].map(|(bits, values)| {
            values
                .iter()
                .map(|v| format!("weights,{bits},{v},0.5\n"))
                .collect::<String>()
        });
        let csv = format!("kind,bitwidth,value,cumulative_fraction\n{}", rows.concat());
        fig6_row(&Table::from_csv(&csv).unwrap()).swap_remove(3)
    }

    #[test]
    fn fig6_verdict_checks_the_grid_and_the_zero_mass() {
        let w16 = ["-0.3", "0", "0.01"];
        assert_eq!(fig6(&["-0.875", "0", "0", "0.75"], &w16), "✓");
        assert_ne!(fig6(&["-0.875", "0", "0", "0.3"], &w16), "✓", "off grid");
        assert_ne!(fig6(&["-1.125", "0", "0", "0.5"], &w16), "✓", "below min");
        assert_ne!(fig6(&["-0.875", "0", "0", "1"], &w16), "✓", "above max");
        assert_ne!(fig6(&["-0.875", "0", "0.5"], &w16), "✓", "zero shares tie");
        assert_ne!(fig6(&[], &w16), "✓", "empty 4-bit series");
    }
}
