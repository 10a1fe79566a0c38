//! End-to-end acceptance for the calibrated detection pipeline: the full
//! offline→online story. Offline: train a baseline, build the compressed
//! ensemble (including an adversarially fine-tuned variant saved through
//! `finetune_to_checkpoint`), calibrate the disagreement detector on
//! labelled clean/adversarial traffic, and persist the calibration
//! artifact.
//! Online: load everything into the serving registry, then show that a
//! universal perturbation crafted *offline* against the baseline surrogate
//! is flagged at the calibrated threshold by the live engine — the serving
//! counterpart of the paper's transfer observation.

use advcomp::attacks::{craft_uap, Attack, DeepFool, Ifgsm, NetKind, UapConfig};
use advcomp::compress::Quantizer;
use advcomp::core::advtrain::{finetune_to_checkpoint, AdvTrainConfig};
use advcomp::core::{Compression, ExperimentScale, TaskSetup, TrainedModel};
use advcomp::detect::{detector_by_name, DetectorCalibration, VariantEnsemble};
use advcomp::models::Checkpoint;
use advcomp::serve::json::Json;
use advcomp::serve::protocol::Command;
use advcomp::serve::{Client, Engine, GuardConfig, ModelRegistry, ServeConfig, Server};
use std::time::Duration;

#[test]
fn offline_crafted_uap_is_flagged_at_the_calibrated_threshold() {
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 42).unwrap();
    assert!(baseline.test_accuracy > 0.8, "{}", baseline.test_accuracy);
    let dense = baseline.instantiate().unwrap();

    let dir = std::env::temp_dir().join(format!("advcomp_detect_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Ensemble: a frozen-int4 variant, a half-density pruned variant (the
    // compression levels whose decision boundaries move the most), and an
    // adversarially fine-tuned variant that reaches the registry only
    // through its checkpoint file.
    let mut quant4 = baseline.instantiate().unwrap();
    Quantizer::for_bitwidth(4)
        .unwrap()
        .quantize_frozen(&mut quant4)
        .unwrap();
    let mut pruned = baseline.instantiate().unwrap();
    Compression::OneShotPrune { density: 0.5 }
        .apply(&mut pruned, &setup.train, &setup.finetune_config(&scale))
        .unwrap();
    let attack = Ifgsm::new(0.05, 1).unwrap();
    let adv_cfg = AdvTrainConfig {
        epochs: 2,
        seed: 42,
        ..AdvTrainConfig::default()
    };
    let hardened_path = dir.join("hardened.advc");
    let (hardened, _) =
        finetune_to_checkpoint(&dense, &setup.train, &attack, &adv_cfg, &hardened_path).unwrap();

    let dense_path = dir.join("dense.advc");
    Checkpoint::capture(&dense).save(&dense_path).unwrap();
    let q4_path = dir.join("quant4.advc");
    Checkpoint::capture(&quant4).save(&q4_path).unwrap();
    let pruned_path = dir.join("pruned.advc");
    Checkpoint::capture(&pruned).save(&pruned_path).unwrap();

    // Offline calibration: disagreement scores over the same ensemble the
    // server will run, clean traffic vs minimal-perturbation DeepFool
    // traffic. DeepFool lands inputs just past the baseline's decision
    // boundary, exactly where the variants' shifted boundaries disagree —
    // the paper's transfer gap at its sharpest.
    let sample_shape = setup.test.sample_shape();
    let mut ensemble = VariantEnsemble::new("dense", &dense, sample_shape).unwrap();
    ensemble.push_variant("quant4", &quant4).unwrap();
    ensemble.push_variant("pruned", &pruned).unwrap();
    ensemble.push_variant("hardened", &hardened).unwrap();
    let detector = detector_by_name("disagreement").unwrap();
    let (x_cal, y_cal) = setup.test.slice(64, 64).unwrap();
    let clean_scores = ensemble.score(detector.as_ref(), &x_cal).unwrap();
    let mut surrogate = dense.clone();
    let adv_cal = DeepFool::new(0.02, 10)
        .unwrap()
        .generate(&mut surrogate, &x_cal, &y_cal)
        .unwrap();
    let adv_scores = ensemble.score(detector.as_ref(), &adv_cal).unwrap();
    let cal =
        DetectorCalibration::calibrate("disagreement", &clean_scores, &adv_scores, 0.1).unwrap();
    assert!(cal.auc > 0.8, "offline calibration AUC {}", cal.auc);
    let cal_path = dir.join("guard.advd");
    cal.save(&cal_path).unwrap();

    // Offline UAP crafting against the baseline surrogate: the online
    // attacker just adds this delta to every request.
    let (x_craft, y_craft) = setup.train.slice(0, 64).unwrap();
    let uap = craft_uap(
        &mut surrogate,
        &x_craft,
        &y_craft,
        &UapConfig {
            epsilon: 0.2,
            step: 0.04,
            epochs: 4,
            batch: 16,
            seed: 7,
        },
    )
    .unwrap();

    // Online: registry loads the checkpoints AND the calibration artifact.
    let mut registry = ModelRegistry::new(sample_shape).unwrap();
    let arch = || setup.fresh_model(42);
    registry
        .load_baseline("dense", arch(), &dense_path)
        .unwrap();
    registry.load_variant("quant4", arch(), &q4_path).unwrap();
    registry
        .load_variant("pruned", arch(), &pruned_path)
        .unwrap();
    registry
        .load_variant("hardened", arch(), &hardened_path)
        .unwrap();
    registry.load_calibration(&cal_path).unwrap();

    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_depth: 128,
            // Deliberately nonsensical ad-hoc threshold: the calibration
            // artifact must override it.
            guard: Some(GuardConfig { threshold: 0.999 }),
        },
    )
    .unwrap();
    let deployment = engine.metrics().guard_deployment().expect("guard on");
    assert!(deployment.calibrated, "artifact must win over GuardConfig");
    assert_eq!(deployment.detector, "disagreement");
    assert!((deployment.threshold - cal.threshold).abs() < 1e-12);

    let server = Server::bind(engine.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Serve clean and UAP traffic over real TCP, tagging the adversarial
    // requests so the per-attack counters pick them up.
    let n = 48;
    let (x_eval, _) = setup.test.slice(0, n).unwrap();
    let x_uap = uap.apply(&x_eval).unwrap();
    let sample_len: usize = sample_shape.iter().product();
    let mut client = Client::connect(addr).unwrap();
    let mut flag_fraction = |images: &advcomp::tensor::Tensor, tag: Option<&str>| -> f64 {
        let mut flagged = 0usize;
        for i in 0..n {
            let input = images.data()[i * sample_len..(i + 1) * sample_len].to_vec();
            let resp = client
                .predict_tagged(input, false, tag.map(str::to_string))
                .unwrap();
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
            let suspect = resp.get("suspect").and_then(Json::as_f64).unwrap();
            let is_flagged = resp.get("flagged").and_then(Json::as_bool).unwrap();
            // Every verdict is taken at the calibrated threshold.
            assert_eq!(is_flagged, suspect >= cal.threshold, "suspect {suspect}");
            flagged += usize::from(is_flagged);
        }
        flagged as f64 / n as f64
    };
    let clean_rate = flag_fraction(&x_eval, None);
    let uap_rate = flag_fraction(&x_uap, Some("uap"));
    assert!(
        uap_rate > clean_rate,
        "guard blind to the UAP: clean flag rate {clean_rate:.3} vs uap {uap_rate:.3}"
    );
    assert!(
        uap_rate >= 0.2,
        "offline-crafted UAP must be flagged online: rate {uap_rate:.3}"
    );
    assert!(
        clean_rate <= 0.15,
        "clean traffic must stay near the calibrated FPR budget: {clean_rate:.3}"
    );

    // The per-attack counters saw exactly the tagged traffic.
    let metrics = client.control(Command::Metrics).unwrap();
    let uap_stats = metrics
        .get("metrics")
        .and_then(|m| m.get("guard"))
        .and_then(|g| g.get("attacks"))
        .and_then(|a| a.get("uap"))
        .expect("per-attack guard section");
    assert_eq!(
        uap_stats.get("scored").and_then(Json::as_u64),
        Some(n as u64)
    );
    let online_rate = uap_stats
        .get("detection_rate")
        .and_then(Json::as_f64)
        .unwrap();
    assert!((online_rate - uap_rate).abs() < 1e-9);

    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
