//! Property tests for the batcher: its one queue must never drop,
//! duplicate, or reorder a request's response, and a stalled worker must
//! not strand queued requests.
//!
//! Everything here is message-passing only — the tests observe the
//! system exclusively through submitted requests and their responses
//! (wire frames or completion channels), never by poking at internal
//! locks — and worker counts are pinned so runs are reproducible.

use advcomp_models::mlp;
use advcomp_serve::json::Json;
use advcomp_serve::protocol::{read_frame, write_frame, Request};
use advcomp_serve::{Engine, GuardConfig, ModelRegistry, ServeConfig, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SAMPLE: usize = 28 * 28;

fn engine_with(workers: usize, queue_depth: usize) -> Engine {
    let mut registry = ModelRegistry::new(&[1, 28, 28]).unwrap();
    registry.set_baseline("dense", mlp(16, 7)).unwrap();
    registry.add_variant("alt", mlp(16, 8)).unwrap();
    Engine::start(
        &registry,
        ServeConfig {
            workers,
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            queue_depth,
            guard: Some(GuardConfig { threshold: 0.5 }),
        },
    )
    .unwrap()
}

/// A deterministic per-request input: unique per (client, seq) so a
/// misrouted response is detectable by its probabilities, not just its
/// id.
fn input_for(client: usize, seq: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; SAMPLE];
    for (i, x) in v.iter_mut().enumerate() {
        *x = ((client * 131 + seq * 17 + i) % 97) as f32 / 97.0;
    }
    v
}

/// 64 concurrent clients pipeline ids through servers with 1, 2, and 8
/// engine workers; every client must get exactly its own ids back, in
/// send order, with `ok` status — no drops, no duplicates, no
/// cross-client leaks, no reordering. The queue holds the whole burst, so
/// this checks ordering without overload (overload is answered by
/// `serve_e2e`'s `full_queue_returns_overloaded_not_a_hang`).
#[test]
fn response_ids_echo_exactly_once_in_order_across_worker_counts() {
    const CLIENTS: usize = 64;
    const PER_CLIENT: usize = 8;
    for &workers in &[1usize, 2, 8] {
        let engine = engine_with(workers, CLIENTS * PER_CLIENT);
        let server = Server::bind(engine.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            handles.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                // Pipeline all requests before reading anything: the
                // strongest ordering stress the protocol allows.
                let mut burst = Vec::new();
                for s in 0..PER_CLIENT {
                    let req = Request::Predict {
                        id: format!("c{c}s{s}"),
                        input: input_for(c, s),
                        probs: false,
                        attack: None,
                    };
                    write_frame(&mut burst, &req.to_payload()).unwrap();
                }
                stream.write_all(&burst).unwrap();
                let mut got = Vec::new();
                for _ in 0..PER_CLIENT {
                    let payload = read_frame(&mut stream).unwrap().expect("dropped response");
                    let resp = Json::parse(&payload).unwrap();
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "workers={workers} client={c}: {resp}"
                    );
                    got.push(
                        resp.get("id")
                            .and_then(Json::as_str)
                            .expect("response id")
                            .to_string(),
                    );
                }
                got
            }));
        }
        for (c, h) in handles.into_iter().enumerate() {
            let got = h.join().unwrap();
            let want: Vec<String> = (0..PER_CLIENT).map(|s| format!("c{c}s{s}")).collect();
            assert_eq!(
                got, want,
                "workers={workers}: client {c} saw dropped/duplicated/reordered ids"
            );
        }
        assert_eq!(
            engine.metrics().overloaded.load(Ordering::Relaxed),
            0,
            "workers={workers}: a queue sized for the burst must never overload"
        );
        server.request_shutdown();
        server.join();
    }
}

/// Responses computed under heavy concurrency are bit-identical to the
/// same inputs evaluated alone afterwards: batching may change *where* a
/// request runs, never *what* it computes: every f32 GEMM runs the one
/// dense kernel, whose rows do not depend on each other, so a sample's
/// logits do not depend on its batchmates.
#[test]
fn concurrent_responses_are_bit_identical_to_solo_forwards() {
    let engine = engine_with(4, 128);
    let mut handles = Vec::new();
    for c in 0..16 {
        let engine = engine.clone();
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for s in 0..6 {
                let input = input_for(c, s);
                let p = engine.submit(input.clone(), true).unwrap();
                out.push((input, p.probs.expect("probs requested")));
            }
            out
        }));
    }
    let mut seen = 0;
    for h in handles {
        for (input, probs_under_load) in h.join().unwrap() {
            let solo = engine.submit(input, true).unwrap();
            assert_eq!(
                probs_under_load,
                solo.probs.expect("probs requested"),
                "response depends on batch composition"
            );
            seen += 1;
        }
    }
    assert_eq!(seen, 16 * 6);
    engine.shutdown();
}

/// A stalled worker does not strand queued requests: with one of two
/// workers asleep, requests queued behind its stall are finished by the
/// other worker long before the stall ends.
#[test]
fn stalled_worker_does_not_strand_queued_requests() {
    let engine = engine_with(2, 64);
    let stall = Duration::from_secs(3);
    engine.inject_stall(stall).unwrap();
    // Wait for a worker to claim the stall job, then let its batch's
    // coalesce window (`max_delay`) close: requests pushed into that
    // window would join the stall's own batch and wait it out.
    let deadline = Instant::now() + Duration::from_secs(1);
    while engine.queued() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(engine.queued(), 0, "stall job was never picked up");
    std::thread::sleep(Duration::from_millis(50));

    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    const N: usize = 24;
    for k in 0..N {
        let engine = engine.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let r = engine.submit(input_for(9, k), false);
            tx.send(r).ok();
        });
    }
    drop(tx);
    let mut done = 0;
    while done < N {
        rx.recv_timeout(Duration::from_secs(5))
            .expect("queued requests were stranded")
            .expect("submit failed");
        done += 1;
    }
    let drained_in = t0.elapsed();
    assert!(
        drained_in < stall / 2,
        "requests waited out the stall ({drained_in:?})"
    );
    engine.shutdown();
}
