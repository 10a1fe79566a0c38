//! Digest of all generated exhibits: reads `results/*.csv` and prints one
//! compact paper-vs-reproduction verdict table (the machine-checkable
//! backbone of EXPERIMENTS.md).

use advcomp_bench::ExhibitOptions;
use advcomp_core::report::Table;
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

    // Figure 6: 4-bit zero mass far above 16-bit.
    // fig6.csv is a raw CDF table, covered qualitatively in EXPERIMENTS.md.
    if read_table(&dir.join("fig6.csv")).is_some() {
        table.push_row(vec![
            "fig6".into(),
            "CDF series generated (weights + activations × 4 bitwidths)".into(),
            "results/fig6.csv".into(),
            "✓".into(),
        ]);
    }

    if table.rows.is_empty() {
        println!(
            "no CSVs found under {} — run the exhibit binaries first",
            dir.display()
        );
        return;
    }
    print!("{}", table.to_markdown());
}
