//! Extension exhibit: deployment storage of compressed models.
//!
//! Not a figure in the paper, but the premise of its introduction — "pruned
//! and quantised models are becoming ubiquitous on edge devices" via
//! EIE/SCNN-style encodings. This binary compresses LeNet5 across the
//! Figure 2/5 grids and reports what actually ships: dense float32 vs CSR
//! sparse vs packed fixed-point vs Huffman-coded bytes, with compression
//! ratios in the 9–13× range Deep Compression reports for comparable
//! settings.

use advcomp_attacks::NetKind;
use advcomp_bench::{banner, ExhibitOptions};
use advcomp_core::report::Table;
use advcomp_core::{Compression, TaskSetup, TrainedModel};
use advcomp_qformat::QFormat;
use advcomp_sparse::ModelSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ExhibitOptions::from_args();
    banner(
        "Deployment",
        "storage of compressed LeNet5 artefacts",
        &opts,
    );

    let setup = TaskSetup::new(NetKind::LeNet5, &opts.scale);
    let baseline = TrainedModel::train(&setup, &opts.scale, 7)?;
    let finetune_cfg = setup.finetune_config(&opts.scale);
    println!(
        "baseline accuracy: {:.2}%\n",
        100.0 * baseline.test_accuracy
    );

    let mut table = Table::new(
        "Shipping sizes per compression recipe (weights only)",
        &[
            "recipe",
            "acc%",
            "density",
            "dense f32 B",
            "CSR B",
            "packed Qbits B",
            "huffman B",
            "entropy b/sym",
            "best ratio",
        ],
    );

    let mut recipes: Vec<(String, Option<Compression>, Option<u32>)> =
        vec![("float32 dense".into(), None, None)];
    for d in [0.3f64, 0.1, 0.05] {
        recipes.push((
            format!("DNS d={d}"),
            Some(Compression::DnsPrune { density: d }),
            None,
        ));
    }
    for bw in [8u32, 4] {
        recipes.push((
            format!("quant {bw}-bit"),
            Some(Compression::Quant {
                bitwidth: bw,
                weights_only: false,
            }),
            Some(bw),
        ));
    }
    // The full Deep-Compression-style pipeline: prune, then post-training
    // quantise (preserving zeros), then entropy-code.
    recipes.push((
        "DNS d=0.1 + 8-bit".into(),
        Some(Compression::DnsPrune { density: 0.1 }),
        Some(8),
    ));

    for (name, recipe, bitwidth) in recipes {
        let mut model = baseline.instantiate()?;
        if let Some(recipe) = &recipe {
            recipe.apply(&mut model, &setup.train, &finetune_cfg)?;
        }
        if let (Some(bw), Some(Compression::DnsPrune { .. })) = (bitwidth, &recipe) {
            // Stacked pipeline: quantise post-training to keep the mask.
            advcomp_compress::Quantizer::for_bitwidth(bw)?.quantize(&mut model);
        }
        let fmt = bitwidth.map(QFormat::for_bitwidth).transpose()?;
        let report = ModelSize::measure(&model, fmt)?;
        let acc = advcomp_core::evaluate_model(&model, &setup.test, 64)?;
        table.push_row(vec![
            name,
            format!("{:.2}", 100.0 * acc),
            format!(
                "{:.3}",
                report.nonzero as f64 / report.elements.max(1) as f64
            ),
            report.dense_f32_bytes.to_string(),
            report.csr_bytes.to_string(),
            report.quantized_bytes.map_or("-".into(), |v| v.to_string()),
            report.huffman_bytes.map_or("-".into(), |v| v.to_string()),
            report
                .code_entropy_bits
                .map_or("-".into(), |v| format!("{v:.2}")),
            format!("{:.1}x", report.best_ratio()),
        ]);
    }

    print!("{}", table.to_markdown());
    table.write_csv(&opts.csv_path("deployment"))?;
    println!("\nwrote {}", opts.csv_path("deployment").display());
    Ok(())
}
