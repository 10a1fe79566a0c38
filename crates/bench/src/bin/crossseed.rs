//! Regenerates the §3.3 cross-seed transferability check: DeepFool samples
//! crafted on one model applied to an independently-initialised model of
//! the same architecture trained on the same data.
//!
//! The paper reports that only ≈7% of LeNet5 DeepFool samples transfer
//! across seeds, versus ≈60% for CifarNet — motivating its choice of
//! "least transferable" attacks as a lower bound.

use advcomp_attacks::{AttackKind, NetKind, PaperParams};
use advcomp_bench::{banner, ExhibitOptions};
use advcomp_core::report::{pct, Table};
use advcomp_core::scenario::cross_seed_transfer;
use advcomp_core::{TaskSetup, TrainedModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ExhibitOptions::from_args();
    banner("§3.3", "DeepFool cross-seed transferability", &opts);

    let mut table = Table::new(
        "Cross-seed DeepFool transfer (paper: LeNet5 ≈ 7%, CifarNet ≈ 60%)",
        &[
            "net",
            "acc_seed_a",
            "acc_seed_b",
            "fool_rate_on_source",
            "transfer_rate",
        ],
    );
    for net in [NetKind::LeNet5, NetKind::CifarNet] {
        let setup = TaskSetup::new(net, &opts.scale);
        let a = TrainedModel::train(&setup, &opts.scale, 11)?;
        let b = TrainedModel::train(&setup, &opts.scale, 22)?;
        let mut ma = a.instantiate()?;
        let mb = b.instantiate()?;
        let n = opts.scale.deepfool_eval.min(setup.test.len());
        let (x, y) = setup.test.slice(0, n)?;
        let attack = PaperParams::build(net, AttackKind::DeepFool);
        let result = cross_seed_transfer(&mut ma, &mb, attack.as_ref(), &x, &y)?;
        table.push_row(vec![
            net.id().into(),
            pct(a.test_accuracy),
            pct(b.test_accuracy),
            pct(result.source_fool_rate),
            pct(result.transfer_rate),
        ]);
    }
    print!("{}", table.to_markdown());
    table.write_csv(&opts.csv_path("crossseed"))?;
    println!("\nwrote {}", opts.csv_path("crossseed").display());
    Ok(())
}
