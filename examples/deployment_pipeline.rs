//! The full edge-deployment pipeline end to end: train → prune (DNS) →
//! quantise → encode (CSR / packed codes / Huffman) → verify the deployed
//! artefact computes the same function → report what actually ships.
//!
//! This is the substrate the paper's introduction describes (EIE: "pruning,
//! quantisation and encoding"), exercised through `advcomp-sparse`.

use advcomp::attacks::NetKind;
use advcomp::compress::Quantizer;
use advcomp::core::report::{pct, Table};
use advcomp::core::{Compression, ExperimentScale, TaskSetup, TrainedModel};
use advcomp::qformat::QFormat;
use advcomp::sparse::{huffman, CsrMatrix, ModelSize, QuantizedTensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("1. training the baseline...");
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 42)?;
    println!("   accuracy: {}%\n", pct(baseline.test_accuracy));

    println!("2. compressing: DNS prune to 30% density, then 8-bit PTQ...");
    let mut model = baseline.instantiate()?;
    Compression::DnsPrune { density: 0.3 }.apply(
        &mut model,
        &setup.train,
        &setup.finetune_config(&scale),
    )?;
    let fmt = QFormat::for_bitwidth(8)?;
    Quantizer::for_bitwidth(8)?.quantize(&mut model);
    let acc = advcomp::core::evaluate_model(&model, &setup.test, 64)?;
    println!("   compressed accuracy: {}%\n", pct(acc));

    println!("3. encoding every weight tensor for shipment...");
    let mut table = Table::new(
        "Per-tensor shipping formats",
        &[
            "tensor",
            "shape",
            "density",
            "CSR B",
            "packed B",
            "huffman B",
        ],
    );
    for p in model.params() {
        if p.kind != advcomp::nn::ParamKind::Weight {
            continue;
        }
        let rows = p.value.shape()[0];
        let cols = p.value.len() / rows;
        let csr = CsrMatrix::from_dense(&p.value.reshape(&[rows, cols])?)?;
        let qt = QuantizedTensor::from_tensor(&p.value, fmt);
        let book = huffman::build_codebook(qt.codes())?;
        let encoded = huffman::encode(qt.codes(), &book)?;
        // Decode-verify before shipping: the artefact must be lossless.
        assert_eq!(huffman::decode(&encoded, &book)?, qt.codes());
        let unpacked = QuantizedTensor::unpack(&qt.pack(), p.value.shape(), fmt)?;
        assert_eq!(unpacked.to_tensor()?.data(), p.value.data());
        table.push_row(vec![
            p.name.clone(),
            format!("{:?}", p.value.shape()),
            format!("{:.2}", p.value.density()),
            csr.storage_bytes().to_string(),
            qt.storage_bytes().to_string(),
            (encoded.bits / 8 + 1).to_string(),
        ]);
    }
    print!("{}", table.to_markdown());

    let report = ModelSize::measure(&model, Some(fmt))?;
    println!(
        "\n4. totals: dense f32 {} B → best shipped {} B ({:.1}x compression)",
        report.dense_f32_bytes,
        report
            .huffman_bytes
            .unwrap_or(report.csr_bytes)
            .min(report.csr_bytes),
        report.best_ratio()
    );
    println!(
        "   code-stream entropy: {:.2} bits/symbol",
        report.code_entropy_bits.unwrap_or(f64::NAN)
    );
    Ok(())
}
