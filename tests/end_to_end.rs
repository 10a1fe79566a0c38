//! End-to-end integration tests across the whole workspace: train →
//! compress → attack → transfer, exercised through the public facade.

use advcomp::attacks::{AttackKind, Ifgsm, NetKind, PaperParams};
use advcomp::compress::{DnsPruner, Quantizer};
use advcomp::core::scenario::{attack_transfer, cross_seed_transfer};
use advcomp::core::{evaluate_model, Compression, ExperimentScale, TaskSetup, TrainedModel};
use advcomp::models::Checkpoint;
use advcomp::nn::Mode;
use advcomp::qformat::QFormat;

fn scale() -> ExperimentScale {
    ExperimentScale::tiny()
}

#[test]
fn train_prune_attack_transfer_pipeline() {
    let scale = scale();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 42).unwrap();
    assert!(
        baseline.test_accuracy > 0.8,
        "baseline {}",
        baseline.test_accuracy
    );

    // Prune to 30% density with DNS.
    let mut compressed = baseline.instantiate().unwrap();
    let mask = DnsPruner::new(0.3)
        .prune_and_finetune(
            &mut compressed,
            &setup.train,
            &setup.finetune_config(&scale),
        )
        .unwrap();
    assert!((mask.overall_density() - 0.3).abs() < 0.05);
    let comp_acc = evaluate_model(&compressed, &setup.test, 64).unwrap();
    assert!(comp_acc > 0.5, "pruned accuracy collapsed: {comp_acc}");

    // Scenario 3: attack the hidden baseline from the compressed model.
    let (x, y) = setup.test.slice(0, 32).unwrap();
    let attack = Ifgsm::new(0.05, 8).unwrap();
    let full = baseline.instantiate().unwrap();
    let outcome = attack_transfer(&mut compressed, &full, &attack, &x, &y).unwrap();
    // Transferability: samples from the pruned model must hurt the baseline.
    assert!(
        outcome.adversarial_accuracy < outcome.clean_accuracy,
        "no transfer: clean {} adv {}",
        outcome.clean_accuracy,
        outcome.adversarial_accuracy
    );
}

#[test]
fn train_quantise_attack_pipeline() {
    let scale = scale();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 7).unwrap();

    let mut quantised = baseline.instantiate().unwrap();
    let quantizer = Quantizer::for_bitwidth(8).unwrap();
    quantizer
        .quantize_and_finetune(&mut quantised, &setup.train, &setup.finetune_config(&scale))
        .unwrap();
    let qacc = evaluate_model(&quantised, &setup.test, 64).unwrap();
    assert!(
        qacc > baseline.test_accuracy - 0.15,
        "8-bit QAT collapsed accuracy: {} -> {qacc}",
        baseline.test_accuracy
    );
    // Every weight is on the Q2.6 grid.
    let fmt = QFormat::for_bitwidth(8).unwrap();
    for p in quantised.params() {
        if p.kind == advcomp::nn::ParamKind::Weight {
            assert!(p.value.data().iter().all(|&v| fmt.is_representable(v)));
        }
    }
    // White-box attack still works on the quantised model.
    let (x, y) = setup.test.slice(0, 32).unwrap();
    let attack = PaperParams::build_adapted(NetKind::LeNet5, AttackKind::Ifgsm);
    let adv = attack.generate(&mut quantised, &x, &y).unwrap();
    let logits = quantised.forward(&adv, Mode::Eval).unwrap();
    let adv_acc = advcomp::nn::accuracy(&logits, &y).unwrap();
    assert!(adv_acc < qacc, "attack had no effect on quantised model");
}

#[test]
fn checkpoint_roundtrip_through_facade() {
    let scale = scale();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let trained = TrainedModel::train(&setup, &scale, 3).unwrap();
    let model = trained.instantiate().unwrap();

    let dir = std::env::temp_dir().join("advcomp_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lenet5.advc");
    Checkpoint::capture(&model).save(&path).unwrap();

    let mut restored = setup.fresh_model(999); // different init seed
    Checkpoint::load(&path)
        .unwrap()
        .restore(&mut restored)
        .unwrap();
    let acc = evaluate_model(&restored, &setup.test, 64).unwrap();
    assert!((acc - trained.test_accuracy).abs() < 1e-9);
    std::fs::remove_file(&path).ok();
}

#[test]
fn compression_recipes_compose_with_scenarios() {
    let scale = scale();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 5).unwrap();
    let cfg = setup.finetune_config(&scale);
    let (x, y) = setup.test.slice(0, 24).unwrap();
    let attack = Ifgsm::new(0.05, 6).unwrap();

    for recipe in [
        Compression::DnsPrune { density: 0.5 },
        Compression::Quant {
            bitwidth: 8,
            weights_only: false,
        },
    ] {
        let mut comp = baseline.instantiate().unwrap();
        recipe.apply(&mut comp, &setup.train, &cfg).unwrap();
        let full = baseline.instantiate().unwrap();
        // All three scenario directions produce accuracies in [0, 1].
        let s1_src = &mut comp;
        let o = attack_transfer(s1_src, &full, &attack, &x, &y).unwrap();
        assert!((0.0..=1.0).contains(&o.adversarial_accuracy));
        assert!(o.mean_l2 > 0.0, "{}: no perturbation applied", recipe.id());
    }
}

#[test]
fn cross_seed_models_differ_but_both_work() {
    let scale = scale();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let a = TrainedModel::train(&setup, &scale, 1).unwrap();
    let b = TrainedModel::train(&setup, &scale, 2).unwrap();
    let mut ma = a.instantiate().unwrap();
    let mb = b.instantiate().unwrap();
    assert_ne!(
        ma.param("conv1.weight").unwrap().value.data(),
        mb.param("conv1.weight").unwrap().value.data()
    );
    let (x, y) = setup.test.slice(0, 24).unwrap();
    let attack = Ifgsm::new(0.05, 8).unwrap();
    let ct = cross_seed_transfer(&mut ma, &mb, &attack, &x, &y).unwrap();
    assert!(ct.source_fool_rate > 0.0);
    assert!((0.0..=1.0).contains(&ct.transfer_rate));
}
