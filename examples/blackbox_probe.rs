//! Extension beyond the paper's taxonomy: a **black-box** attacker who
//! cannot read any deployed weights — compressed or not — and can only
//! query the product for labels (Papernot et al. 2017, cited in §2.3).
//!
//! The attacker distils a surrogate model from the target's answers on a
//! probe set, white-boxes the surrogate with IFGSM, and replays the samples
//! against the real target.

use advcomp::attacks::{Ifgsm, NetKind};
use advcomp::core::blackbox::{black_box_attack, SurrogateConfig};
use advcomp::core::report::pct;
use advcomp::core::{ExperimentScale, TaskSetup, TrainedModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    println!("training the victim model...");
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let victim = TrainedModel::train(&setup, &scale, 42)?;
    println!("victim accuracy: {}%\n", pct(victim.test_accuracy));

    let target = victim.instantiate()?;
    // Attacker's own architecture + initialisation; they never see the
    // victim's weights.
    let mut surrogate = setup.fresh_model(1234);
    let probe_n = (scale.train_size / 2).min(setup.train.len());
    let probe = setup.train.images().narrow(0, probe_n)?;
    let eval_n = scale.attack_eval.min(setup.test.len());
    let (x, y) = setup.test.slice(0, eval_n)?;

    println!("distilling a surrogate from {probe_n} label queries...");
    let attack = Ifgsm::new(0.05, 8)?;
    let (report, clean, adv) = black_box_attack(
        &mut surrogate,
        &target,
        &probe,
        (&x, &y),
        &attack,
        &SurrogateConfig::default(),
    )?;

    println!("surrogate/target agreement: {}%", pct(report.agreement));
    println!("oracle queries spent:       {}", report.queries);
    println!("\nvictim accuracy on clean samples:      {}%", pct(clean));
    println!("victim accuracy under black-box attack: {}%", pct(adv));
    println!(
        "\nEven with zero weight access, label queries alone are enough to\n\
         craft transferable samples — the paper's 'break-once, run-anywhere'\n\
         concern extends below its own weakest threat model."
    );
    Ok(())
}
