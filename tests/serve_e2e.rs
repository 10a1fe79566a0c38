//! End-to-end acceptance test for the serving subsystem: train a digit
//! model, quantise variants, push everything through CRC-verified
//! checkpoints into the registry, serve over real TCP under concurrency,
//! and show the compression-ensemble guard scores IFGSM samples as more
//! suspect than clean ones — the paper's transfer gap, operationalised.

use advcomp::attacks::{Attack, Ifgsm, NetKind};
use advcomp::compress::Quantizer;
use advcomp::core::{ExperimentScale, TaskSetup, TrainedModel};
use advcomp::models::{mlp, Checkpoint};
use advcomp::serve::json::Json;
use advcomp::serve::protocol::Command;
use advcomp::serve::{Client, Engine, GuardConfig, ModelRegistry, ServeConfig, ServeError, Server};
use std::time::Duration;

#[test]
fn serve_trained_ensemble_end_to_end() {
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let baseline = TrainedModel::train(&setup, &scale, 42).unwrap();
    assert!(baseline.test_accuracy > 0.8, "{}", baseline.test_accuracy);

    // Packed integer-execution variants: quantise to the grid, then freeze
    // into block-quantised form so the guard's variant forwards run the
    // fused int8 GEMM. Their checkpoints carry the packed blocks (format
    // v3) and loading them freezes the fresh registry models in turn.
    let dense = baseline.instantiate().unwrap();
    let mut quant8 = baseline.instantiate().unwrap();
    let frozen8 = Quantizer::for_bitwidth(8)
        .unwrap()
        .quantize_frozen(&mut quant8)
        .unwrap();
    assert!(frozen8 > 0, "no layers froze");
    let mut quant5 = baseline.instantiate().unwrap();
    Quantizer::for_bitwidth(5)
        .unwrap()
        .quantize_frozen(&mut quant5)
        .unwrap();

    // Through checkpoint files: exercises the CRC footer on both ends —
    // v2 for the dense baseline, v3 (packed) for the frozen variants.
    let dir = std::env::temp_dir().join(format!("advcomp_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let save = |name: &str, model: &advcomp::nn::Sequential| {
        let path = dir.join(format!("{name}.advc"));
        Checkpoint::capture(model).save(&path).unwrap();
        path
    };
    let dense_path = save("dense", &dense);
    let q8_path = save("quant8", &quant8);
    let q5_path = save("quant5", &quant5);

    let mut registry = ModelRegistry::new(setup.test.sample_shape()).unwrap();
    let arch = || setup.fresh_model(42);
    registry
        .load_baseline("dense", arch(), &dense_path)
        .unwrap();
    registry.load_variant("quant8", arch(), &q8_path).unwrap();
    registry.load_variant("quant5", arch(), &q5_path).unwrap();

    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_delay: Duration::from_millis(3),
            queue_depth: 128,
            guard: Some(GuardConfig { threshold: 0.5 }),
        },
    )
    .unwrap();
    let server = Server::bind(engine.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // 64 concurrent TCP requests, one connection each: every single one
    // must be answered (queue depth 128 means none may be shed).
    let sample_len: usize = setup.test.sample_shape().iter().product();
    let (x, _) = setup.test.slice(0, 64).unwrap();
    let mut handles = Vec::new();
    for i in 0..64 {
        let input = x.data()[i * sample_len..(i + 1) * sample_len].to_vec();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.predict(input, false).unwrap()
        }));
    }
    let mut answered = 0;
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "{resp}"
        );
        assert!(resp.get("label").and_then(Json::as_u64).unwrap() < 10);
        assert!(resp.get("suspect").and_then(Json::as_f64).is_some());
        answered += 1;
    }
    assert_eq!(answered, 64);

    // The dynamic batcher must actually have coalesced under that load.
    let mut client = Client::connect(addr).unwrap();
    let metrics = client.control(Command::Metrics).unwrap();
    let max_batch = metrics
        .get("metrics")
        .and_then(|m| m.get("batch"))
        .and_then(|b| b.get("max"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        max_batch > 1,
        "no batching observed (max batch {max_batch})"
    );
    // Per-model forward histograms: baseline and both packed variants must
    // have recorded every batch, making the packed-vs-dense cost visible.
    let per_model = metrics
        .get("metrics")
        .and_then(|m| m.get("latency"))
        .and_then(|l| l.get("forward_per_model"))
        .expect("forward_per_model section");
    for name in ["dense", "quant8", "quant5"] {
        let count = per_model
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        assert!(count > 0, "no forward samples recorded for {name}");
    }

    // Guard: IFGSM samples crafted on the served baseline must score a
    // higher mean suspect rate than the same clean samples.
    let n = 48;
    let (x, y) = setup.test.slice(0, n).unwrap();
    let mut attacked = baseline.instantiate().unwrap();
    let adv = Ifgsm::new(0.03, 10)
        .unwrap()
        .generate(&mut attacked, &x, &y)
        .unwrap();
    let mean_suspect = |images: &advcomp::tensor::Tensor| -> f64 {
        let mut total = 0.0;
        for i in 0..n {
            let input = images.data()[i * sample_len..(i + 1) * sample_len].to_vec();
            let p = engine.submit(input, false).unwrap();
            total += p.suspect.expect("guard enabled");
        }
        total / n as f64
    };
    let clean_suspect = mean_suspect(&x);
    let adv_suspect = mean_suspect(&adv);
    assert!(
        adv_suspect > clean_suspect,
        "guard blind to IFGSM: clean {clean_suspect:.4} vs adversarial {adv_suspect:.4}"
    );

    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_returns_overloaded_not_a_hang() {
    // Deliberately starved engine: one worker, batch size one, a single
    // queue slot. A burst against the stalled worker must shed load with
    // explicit `overloaded` responses over the wire — and never deadlock.
    let mut registry = ModelRegistry::new(&[1, 28, 28]).unwrap();
    registry.set_baseline("dense", mlp(64, 0)).unwrap();
    registry.add_variant("alt", mlp(64, 1)).unwrap();
    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_depth: 1,
            guard: Some(GuardConfig { threshold: 0.5 }),
        },
    )
    .unwrap();
    let server = Server::bind(engine.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Stall the only worker, so the burst finds its one queue slot taken
    // and must shed load.
    engine.inject_stall(Duration::from_millis(500)).unwrap();
    let mut handles = Vec::new();
    for t in 0..16 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut ok = 0u64;
            let mut overloaded = 0u64;
            for i in 0..8 {
                let v = (t * 8 + i) as f32 / 128.0;
                let resp = client.predict(vec![v; 28 * 28], false).unwrap();
                match resp.get("status").and_then(Json::as_str) {
                    Some("ok") => ok += 1,
                    Some("overloaded") => overloaded += 1,
                    other => panic!("unexpected status {other:?}"),
                }
            }
            (ok, overloaded)
        }));
    }
    let (mut ok, mut overloaded) = (0, 0);
    for h in handles {
        let (o, v) = h.join().unwrap();
        ok += o;
        overloaded += v;
    }
    assert_eq!(ok + overloaded, 16 * 8, "every request got a response");
    // The stall is over and the queue has drained: a lone request is
    // served.
    let resp = Client::connect(addr)
        .unwrap()
        .predict(vec![0.5; 28 * 28], false)
        .unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp}"
    );
    assert!(
        overloaded > 0,
        "a 1-deep queue under a 16-way burst must shed load"
    );
    // The engine's own counter agrees with what clients saw on the wire.
    assert_eq!(
        engine
            .metrics()
            .overloaded
            .load(std::sync::atomic::Ordering::Relaxed),
        overloaded
    );
    server.join();

    // And after shutdown, submissions fail fast rather than hanging.
    assert!(matches!(
        engine.submit(vec![0.0; 28 * 28], false),
        Err(ServeError::ShuttingDown)
    ));
}
