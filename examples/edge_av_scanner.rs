//! Scenario 3 (`Comp → Full`), the paper's anti-virus story: a security
//! vendor deploys a *quantised* classifier in offline edge scanners; the
//! full-precision master model stays hidden in the cloud. An attacker buys
//! a scanner, extracts the 8-bit model, crafts adversarial samples against
//! it — do those samples also evade the hidden master model (and therefore
//! every other product derived from it)?

use advcomp::attacks::{AttackKind, NetKind, PaperParams};
use advcomp::core::report::{pct, Table};
use advcomp::core::scenario::attack_transfer;
use advcomp::core::{Compression, ExperimentScale, TaskSetup, TrainedModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("training the vendor's hidden full-precision model...");
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let master = TrainedModel::train(&setup, &scale, 42)?;
    println!("hidden master accuracy: {}%\n", pct(master.test_accuracy));

    let n = scale.attack_eval.min(setup.test.len());
    let (x, y) = setup.test.slice(0, n)?;
    let finetune_cfg = setup.finetune_config(&scale);

    let mut table = Table::new(
        "Samples crafted on the extracted edge model, applied to the hidden master",
        &[
            "edge bitwidth",
            "edge clean acc%",
            "edge acc% under own attack",
            "master acc% under same samples",
        ],
    );
    for bitwidth in [16u32, 8, 4] {
        // The vendor ships a quantised edge model (weights + activations).
        let mut edge = master.instantiate()?;
        Compression::Quant {
            bitwidth,
            weights_only: false,
        }
        .apply(&mut edge, &setup.train, &finetune_cfg)?;
        let edge_clean = advcomp::core::evaluate_model(&edge, &setup.test, 64)?;

        // Attacker white-boxes the edge model...
        let attack = PaperParams::build_adapted(NetKind::LeNet5, AttackKind::Ifgsm);
        let mut edge_target = master.instantiate()?;
        Compression::Quant {
            bitwidth,
            weights_only: false,
        }
        .apply(&mut edge_target, &setup.train, &finetune_cfg)?;
        let own = attack_transfer(&mut edge, &edge_target, attack.as_ref(), &x, &y)?;
        // ...and replays the same samples against the hidden master.
        let hidden = master.instantiate()?;
        let crossed = attack_transfer(&mut edge, &hidden, attack.as_ref(), &x, &y)?;

        table.push_row(vec![
            bitwidth.to_string(),
            pct(edge_clean),
            pct(own.adversarial_accuracy),
            pct(crossed.adversarial_accuracy),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\n'Break-once, run-anywhere': edge-crafted samples transfer to the\n\
         hidden master at moderate bitwidths; only aggressive (4-bit)\n\
         quantisation blunts them marginally (paper §4.2, Figure 5)."
    );
    Ok(())
}
