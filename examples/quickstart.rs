//! Quickstart: train a LeNet5 baseline on the synthetic digit task, craft
//! IFGSM adversarial samples against it, and measure the damage.
//!
//! ```text
//! cargo run --release --example quickstart            # quick profile
//! ADVCOMP_SCALE=tiny cargo run --release --example quickstart
//! ```

use advcomp::attacks::{Attack, Ifgsm, NetKind, PerturbationStats};
use advcomp::core::report::pct;
use advcomp::core::{evaluate_model, ExperimentScale, TaskSetup, TrainedModel};
use advcomp::nn::Mode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!(
        "training LeNet5 on SynthDigits ({} samples)...",
        scale.train_size
    );
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let trained = TrainedModel::train(&setup, &scale, 42)?;
    println!(
        "baseline test accuracy: {}% (paper's LeNet5: 99.36% on MNIST)",
        pct(trained.test_accuracy)
    );

    // White-box IFGSM at the paper's Table 1 parameters (ε=0.02, i=12).
    let mut model = trained.instantiate()?;
    let n = scale.attack_eval.min(setup.test.len());
    let (x, y) = setup.test.slice(0, n)?;
    let attack = Ifgsm::new(0.02, 12)?;
    let adv = attack.generate(&mut model, &x, &y)?;

    let clean_acc = evaluate_model(&model, &setup.test, 64)?;
    let logits = model.forward(&adv, Mode::Eval)?;
    let adv_acc = advcomp::nn::accuracy(&logits, &y)?;
    let stats = PerturbationStats::between(&x, &adv)?;

    println!("\nIFGSM (epsilon=0.02, 12 iterations), {n} samples:");
    println!("  clean accuracy:       {}%", pct(clean_acc));
    println!("  adversarial accuracy: {}%", pct(adv_acc));
    println!(
        "  perturbation: mean L2 {:.3}, Linf {:.3}, {:.1}% of pixels touched",
        stats.l2,
        stats.linf,
        100.0 * stats.l0_fraction
    );
    println!("\nNext: examples/cctv_transfer.rs and examples/edge_av_scanner.rs");
    Ok(())
}
