//! A deployment audit: before shipping a quantised model, measure what the
//! chosen bitwidth does to (a) clean accuracy, (b) white-box attackability,
//! and (c) the weight/activation distributions (the paper's Figure 6 view).
//!
//! Also runs the weights-only ablation, isolating the activation-clipping
//! effect the paper credits with the low-bitwidth defence.

use advcomp::attacks::{AttackKind, NetKind, PaperParams};
use advcomp::core::cdf::{activation_values, weight_values, zero_fraction};
use advcomp::core::report::{pct, Table};
use advcomp::core::scenario::attack_transfer;
use advcomp::core::{Compression, ExperimentScale, TaskSetup, TrainedModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("training the float32 reference model...");
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let reference = TrainedModel::train(&setup, &scale, 42)?;
    println!("reference accuracy: {}%\n", pct(reference.test_accuracy));

    let n = scale.attack_eval.min(setup.test.len());
    let (x, y) = setup.test.slice(0, n)?;
    let (probe, _) = setup.test.slice(0, 10.min(setup.test.len()))?;
    let finetune_cfg = setup.finetune_config(&scale);
    let attack = PaperParams::build_adapted(NetKind::LeNet5, AttackKind::Ifgsm);

    let mut table = Table::new(
        "Quantisation audit (IFGSM white-box per variant)",
        &[
            "variant",
            "clean acc%",
            "adv acc%",
            "weight zero-mass",
            "act zero-mass",
            "act max",
        ],
    );
    let mut variants: Vec<(String, Option<Compression>)> = vec![("float32".into(), None)];
    for bw in [16u32, 8, 4] {
        variants.push((
            format!("w+a {bw}-bit"),
            Some(Compression::Quant {
                bitwidth: bw,
                weights_only: false,
            }),
        ));
        variants.push((
            format!("w-only {bw}-bit"),
            Some(Compression::Quant {
                bitwidth: bw,
                weights_only: true,
            }),
        ));
    }

    for (name, recipe) in variants {
        let mut model = reference.instantiate()?;
        if let Some(recipe) = recipe {
            recipe.apply(&mut model, &setup.train, &finetune_cfg)?;
        }
        let mut target = reference.instantiate()?;
        target.import_params(&model.export_params())?;
        // Match activation formats on the target copy.
        if let Some(Compression::Quant {
            bitwidth,
            weights_only: false,
        }) = recipe
        {
            target.set_activation_format(Some(advcomp::qformat::QFormat::for_bitwidth(bitwidth)?));
        }
        let outcome = attack_transfer(&mut model, &target, attack.as_ref(), &x, &y)?;
        let weights = weight_values(&model);
        let acts = activation_values(&mut model, &probe)?;
        let act_max = acts.iter().fold(0.0f32, |a, v| a.max(*v));
        table.push_row(vec![
            name,
            pct(outcome.clean_accuracy),
            pct(outcome.adversarial_accuracy),
            format!("{:.3}", zero_fraction(&weights)),
            format!("{:.3}", zero_fraction(&acts)),
            format!("{act_max:.2}"),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\nReading: 4-bit weight+activation quantisation clips activations to\n\
         < 1.0 and drives most values to zero (Figure 6); the white-box\n\
         defence it buys is marginal (Figure 5) — do not rely on it."
    );
    Ok(())
}
