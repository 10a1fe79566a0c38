//! Scenario 2 (`Full → Comp`), the paper's CCTV story: an alarm company
//! takes a publicly-available model, prunes it for consumer CCTV hardware,
//! and ships it. The attacker never sees the device model — they craft
//! adversarial samples on the **public baseline** and replay them against
//! the pruned devices.
//!
//! This example prunes the baseline to several densities with Dynamic
//! Network Surgery and shows how well baseline-crafted IFGSM samples
//! transfer to each derivative.

use advcomp::attacks::{AttackKind, NetKind, PaperParams};
use advcomp::core::report::{pct, Table};
use advcomp::core::scenario::attack_transfer;
use advcomp::core::{Compression, ExperimentScale, TaskSetup, TrainedModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("training the 'public' LeNet5 baseline...");
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 42)?;
    println!("public model accuracy: {}%\n", pct(baseline.test_accuracy));

    let n = scale.attack_eval.min(setup.test.len());
    let (x, y) = setup.test.slice(0, n)?;
    let attack = PaperParams::build_adapted(NetKind::LeNet5, AttackKind::Ifgsm);
    let finetune_cfg = setup.finetune_config(&scale);

    let mut table = Table::new(
        "Attacker crafts on the public model; devices run pruned derivatives",
        &[
            "device density",
            "device clean acc%",
            "device acc% under transferred attack",
        ],
    );
    for density in [0.5f64, 0.3, 0.1] {
        // The vendor prunes + fine-tunes a device model.
        let mut device = baseline.instantiate()?;
        Compression::DnsPrune { density }.apply(&mut device, &setup.train, &finetune_cfg)?;
        // The attacker generates on their own copy of the public model.
        let mut public = baseline.instantiate()?;
        let outcome = attack_transfer(&mut public, &device, attack.as_ref(), &x, &y)?;
        table.push_row(vec![
            format!("{density:.1}"),
            pct(outcome.clean_accuracy),
            pct(outcome.adversarial_accuracy),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\nThe transferred attack degrades every derivative: shipping a pruned\n\
         model is not a defence (paper §4.1, cyan line of Figure 2)."
    );
    Ok(())
}
