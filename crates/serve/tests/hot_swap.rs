//! Hot-swap under load: atomically replacing a served model's v2 float
//! checkpoint with its packed v3 quantised form must (a) never error or
//! drop an in-flight request, (b) take effect at the next batch
//! boundary, and (c) produce responses bit-identical to a fresh engine
//! that loaded the v3 checkpoint from cold — the swap path may not
//! perturb weights in any way a forward pass can see.

use advcomp_compress::Quantizer;
use advcomp_models::{mlp, Checkpoint};
use advcomp_serve::{Engine, ModelRegistry, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SAMPLE: usize = 28 * 28;
const HIDDEN: usize = 24;
const SEED: u64 = 11;

fn input_for(i: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; SAMPLE];
    for (j, x) in v.iter_mut().enumerate() {
        *x = ((i * 37 + j * 13) % 101) as f32 / 101.0;
    }
    v
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 8,
        max_delay: Duration::from_millis(1),
        queue_depth: 64,
        guard: None, // bit-exactness is about the baseline forward
    }
}

#[test]
fn swap_v2_for_packed_v3_under_load_is_atomic_and_bit_exact() {
    // The same seeded architecture twice: one stays dense (v2), one is
    // frozen into block-quantised int8 form (v3 checkpoint).
    let dir = std::env::temp_dir().join(format!("advcomp_hot_swap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dense = mlp(HIDDEN, SEED);
    let mut quant = mlp(HIDDEN, SEED);
    let frozen = Quantizer::for_bitwidth(8)
        .unwrap()
        .quantize_frozen(&mut quant)
        .unwrap();
    assert!(frozen > 0, "no layers froze");
    let v2_path = dir.join("dense.advc");
    let v3_path = dir.join("dense_q8.advc");
    Checkpoint::capture(&dense).save(&v2_path).unwrap();
    Checkpoint::capture(&quant).save(&v3_path).unwrap();

    let mut registry = ModelRegistry::new(&[1, 28, 28]).unwrap();
    registry
        .load_baseline("dense", mlp(HIDDEN, 0), &v2_path)
        .unwrap();
    let engine = Engine::start(&registry, serve_config()).unwrap();

    // Reference probabilities before anything moves.
    let pre_swap = engine.submit(input_for(0), true).unwrap().probs.unwrap();

    // Load: four clients hammer the engine across the swap; every single
    // response must be a clean `Ok` — the swap drains nothing and errors
    // nothing.
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..4usize {
        let engine = engine.clone();
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut answered = 0u64;
            let mut i = t;
            while !stop.load(Ordering::Relaxed) {
                engine
                    .submit(input_for(i % 16), false)
                    .expect("request errored across the hot swap");
                answered += 1;
                i += 1;
            }
            answered
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    // The swap itself: CRC-validated v3 load, atomic publish, no drain.
    registry.swap("dense", mlp(HIDDEN, 0), &v3_path).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let mut answered = 0;
    for c in clients {
        answered += c.join().unwrap();
    }
    assert!(answered > 0, "load generator never ran");
    assert_eq!(registry.swaps(), 1);

    // Post-swap forwards run the packed int8 path: bit-identical to a
    // fresh engine cold-loading the same v3 checkpoint, and actually
    // different from the dense pre-swap weights.
    let mut fresh_registry = ModelRegistry::new(&[1, 28, 28]).unwrap();
    fresh_registry
        .load_baseline("dense", mlp(HIDDEN, 0), &v3_path)
        .unwrap();
    let fresh = Engine::start(&fresh_registry, serve_config()).unwrap();
    for i in 0..16 {
        let swapped = engine.submit(input_for(i), true).unwrap();
        let cold = fresh.submit(input_for(i), true).unwrap();
        assert_eq!(
            swapped.probs, cold.probs,
            "hot-swapped weights diverge from a cold v3 load on input {i}"
        );
        assert_eq!(swapped.label, cold.label);
    }
    let post_swap = engine.submit(input_for(0), true).unwrap().probs.unwrap();
    assert_ne!(
        pre_swap, post_swap,
        "quantised swap produced identical probabilities; swap not observable"
    );

    fresh.shutdown();
    engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The swap is also safe through the full server stack: live TCP
/// clients keep getting `ok` responses while the checkpoint underneath
/// them changes, and the metrics snapshot records the swap.
#[test]
fn swap_under_tcp_load_reports_in_metrics() {
    use advcomp_serve::json::Json;
    use advcomp_serve::protocol::Command;
    use advcomp_serve::Client;

    let dir = std::env::temp_dir().join(format!("advcomp_hot_swap_tcp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dense = mlp(HIDDEN, SEED);
    let mut quant = mlp(HIDDEN, SEED);
    Quantizer::for_bitwidth(8)
        .unwrap()
        .quantize_frozen(&mut quant)
        .unwrap();
    let v2_path = dir.join("dense.advc");
    let v3_path = dir.join("dense_q8.advc");
    Checkpoint::capture(&dense).save(&v2_path).unwrap();
    Checkpoint::capture(&quant).save(&v3_path).unwrap();

    let mut registry = ModelRegistry::new(&[1, 28, 28]).unwrap();
    registry
        .load_baseline("dense", mlp(HIDDEN, 0), &v2_path)
        .unwrap();
    let engine = Engine::start(&registry, serve_config()).unwrap();
    let server = Server::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..3usize {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut i = t;
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let resp = c.predict(input_for(i % 16), false).unwrap();
                assert_eq!(
                    resp.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "response errored across the hot swap: {resp}"
                );
                answered += 1;
                i += 1;
            }
            answered
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    registry.swap("dense", mlp(HIDDEN, 0), &v3_path).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        assert!(c.join().unwrap() > 0);
    }

    let mut c = Client::connect(addr).unwrap();
    let m = c.control(Command::Metrics).unwrap();
    let swaps = m
        .get("metrics")
        .and_then(|m| m.get("engine"))
        .and_then(|e| e.get("swaps"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(swaps, 1, "metrics must record the hot swap");

    let resp = c.control(Command::Shutdown).unwrap();
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
