//! Consistency checks on the attack-scenario taxonomy: the structural
//! identities that must hold regardless of training quality.

use advcomp::attacks::{Attack, AttackKind, DeepFool, Ifgm, Ifgsm, NetKind, PaperParams};
use advcomp::core::scenario::{attack_transfer, Scenario};
use advcomp::core::sweep::{TransferMatrix, TransferSweep};
use advcomp::core::{Compression, ExperimentScale, TaskSetup, TrainedModel};
use advcomp::nn::Mode;

#[test]
fn identity_compression_collapses_scenarios() {
    // With Compression::None the "compressed" model *is* the baseline, so
    // S1, S2 and S3 must coincide exactly.
    let scale = ExperimentScale::tiny();
    let sweep = TransferSweep::pruning(NetKind::LeNet5, AttackKind::Ifgsm, &[1.0]);
    let result = sweep.run(&scale).unwrap();
    let p = &result.points[0];
    assert_eq!(p.comp_to_comp, p.full_to_comp);
    assert_eq!(p.comp_to_comp, p.comp_to_full);
}

#[test]
fn scenarios_have_paper_numbering() {
    assert_eq!(Scenario::CompToComp.number(), 1);
    assert_eq!(Scenario::FullToComp.number(), 2);
    assert_eq!(Scenario::CompToFull.number(), 3);
}

#[test]
fn attack_generation_does_not_move_weights() {
    // The entire taxonomy assumes attacks only *read* models.
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let trained = TrainedModel::train(&setup, &scale, 9).unwrap();
    let mut model = trained.instantiate().unwrap();
    let before = model.export_params();
    let (x, y) = setup.test.slice(0, 8).unwrap();
    for attack in [
        Box::new(Ifgsm::new(0.02, 4).unwrap()) as Box<dyn Attack>,
        Box::new(Ifgm::new(1.0, 4).unwrap()),
        Box::new(DeepFool::new(0.02, 4).unwrap()),
    ] {
        attack.generate(&mut model, &x, &y).unwrap();
    }
    for ((_, a), (_, b)) in before.iter().zip(model.export_params().iter()) {
        assert_eq!(a.data(), b.data());
    }
}

#[test]
fn transfer_is_direction_sensitive() {
    // S2 and S3 are different measurements: swapping source and target must
    // actually swap which model generates gradients. We verify by checking
    // the generated perturbations differ between directions.
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 12).unwrap();
    let cfg = setup.finetune_config(&scale);
    let mut comp = baseline.instantiate().unwrap();
    Compression::DnsPrune { density: 0.2 }
        .apply(&mut comp, &setup.train, &cfg)
        .unwrap();
    let (x, y) = setup.test.slice(0, 16).unwrap();
    let attack = Ifgsm::new(0.05, 4).unwrap();
    let mut full = baseline.instantiate().unwrap();
    let adv_from_comp = attack.generate(&mut comp, &x, &y).unwrap();
    let adv_from_full = attack.generate(&mut full, &x, &y).unwrap();
    assert_ne!(
        adv_from_comp.data(),
        adv_from_full.data(),
        "heavily pruned model produced identical gradients to the baseline"
    );
}

#[test]
fn matrix_and_sweep_agree() {
    // TransferSweep is documented as the single-attack view of
    // TransferMatrix; they must produce identical numbers.
    let scale = ExperimentScale::tiny();
    let densities = [1.0, 0.5];
    let sweep = TransferSweep::pruning(NetKind::LeNet5, AttackKind::Ifgm, &densities)
        .run(&scale)
        .unwrap();
    let matrix = TransferMatrix::pruning(NetKind::LeNet5, vec![AttackKind::Ifgm], &densities)
        .run(&scale)
        .unwrap();
    assert_eq!(sweep, matrix[0]);
}

#[test]
fn paper_attack_params_produce_valid_samples() {
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let trained = TrainedModel::train(&setup, &scale, 4).unwrap();
    let mut model = trained.instantiate().unwrap();
    let (x, y) = setup.test.slice(0, 6).unwrap();
    for kind in AttackKind::ALL {
        let attack = PaperParams::build(NetKind::LeNet5, kind);
        let adv = attack.generate(&mut model, &x, &y).unwrap();
        assert_eq!(adv.shape(), x.shape(), "{}", attack.name());
        assert!(
            adv.data().iter().all(|&v| (0.0..=1.0).contains(&v)),
            "{} left the pixel range",
            attack.name()
        );
        // Samples must actually differ from the input.
        assert_ne!(adv.data(), x.data(), "{} was a no-op", attack.name());
    }
}

#[test]
fn transfer_outcome_reports_clean_accuracy_of_target() {
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let trained = TrainedModel::train(&setup, &scale, 2).unwrap();
    let mut src = trained.instantiate().unwrap();
    let mut tgt = trained.instantiate().unwrap();
    let (x, y) = setup.test.slice(0, 32).unwrap();
    let attack = Ifgsm::new(0.02, 2).unwrap();
    let outcome = attack_transfer(&mut src, &tgt, &attack, &x, &y).unwrap();
    // Clean accuracy must match a direct evaluation on the same slice.
    let logits = tgt.forward(&x, Mode::Eval).unwrap();
    let direct = advcomp::nn::accuracy(&logits, &y).unwrap();
    assert_eq!(outcome.clean_accuracy, direct);
}
