//! `serve_smoke` — self-contained smoke check for the serving stack,
//! wired into `scripts/check.sh`.
//!
//! Starts a real TCP server on an ephemeral port over checkpoint-loaded
//! models (exercising the CRC-verified v2 format end-to-end), then drives
//! it with a mix of traffic a hostile network could produce: concurrent
//! predictions, control commands, an oversized frame header, a malformed
//! JSON frame, and a truncated frame — finishing with a clean shutdown.
//!
//! A second phase checks the **open-loop load story** instead of a raw
//! rps number (raw rps is a closed-loop bias: it measures the client's
//! patience, not the server). Against an admission-capped server, the
//! goodput-vs-offered-load curve must have the right *shape*: goodput
//! tracks offered load below the cap, a saturation knee exists before
//! the highest swept rate, and goodput never exceeds offered load.
//!
//! Exits non-zero on the first violated expectation.

use advcomp_models::{mlp, Checkpoint};
use advcomp_serve::json::Json;
use advcomp_serve::loadgen::{self, find_knee, LoadPlan};
use advcomp_serve::protocol::{Command, MAX_FRAME};
use advcomp_serve::{
    Client, Engine, GuardConfig, ModelRegistry, RateLimitConfig, ServeConfig, Server, ServerConfig,
};
use std::process::ExitCode;
use std::time::Duration;

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        println!("smoke: OK   {what}");
        Ok(())
    } else {
        Err(format!("smoke: FAIL {what}"))
    }
}

fn run() -> Result<(), String> {
    fn err(stage: &'static str) -> impl Fn(advcomp_serve::ServeError) -> String {
        move |e| format!("{stage}: {e}")
    }

    // Registry via checkpoint files, so the smoke covers save -> CRC ->
    // load, not just in-memory registration.
    let dir = std::env::temp_dir().join(format!("advcomp_serve_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("tempdir: {e}"))?;
    let dense_path = dir.join("dense.advc");
    let alt_path = dir.join("alt.advc");
    Checkpoint::capture(&mlp(16, 3))
        .save(&dense_path)
        .map_err(|e| format!("save: {e}"))?;
    Checkpoint::capture(&mlp(16, 4))
        .save(&alt_path)
        .map_err(|e| format!("save: {e}"))?;

    let mut registry = ModelRegistry::new(&[1, 28, 28]).map_err(err("registry"))?;
    registry
        .load_baseline("dense", mlp(16, 0), &dense_path)
        .map_err(err("load baseline"))?;
    registry
        .load_variant("alt", mlp(16, 0), &alt_path)
        .map_err(err("load variant"))?;
    check(true, "checkpoints loaded through CRC-verified registry")?;

    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_depth: 64,
            guard: Some(GuardConfig { threshold: 0.5 }),
        },
    )
    .map_err(err("engine"))?;
    let server = Server::bind(engine, "127.0.0.1:0").map_err(err("bind"))?;
    let addr = server.local_addr();
    check(true, &format!("server bound on ephemeral port {addr}"))?;

    // Liveness.
    let mut client = Client::connect(addr).map_err(err("connect"))?;
    let pong = client.control(Command::Ping).map_err(err("ping"))?;
    check(
        pong.get("status").and_then(Json::as_str) == Some("ok"),
        "ping answered",
    )?;

    // Concurrent predictions from many connections.
    let mut handles = Vec::new();
    for t in 0..8 {
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            for i in 0..4 {
                let v = (t * 4 + i) as f32 / 32.0;
                let resp = c
                    .predict(vec![v; 28 * 28], i == 0)
                    .map_err(|e| format!("predict: {e}"))?;
                if resp.get("status").and_then(Json::as_str) != Some("ok") {
                    return Err(format!("prediction not ok: {resp}"));
                }
                if resp.get("suspect").and_then(Json::as_f64).is_none() {
                    return Err("missing guard score".into());
                }
            }
            Ok(())
        }));
    }
    for h in handles {
        h.join()
            .map_err(|_| "client thread panicked".to_string())??;
    }
    check(true, "32 predictions over 8 concurrent connections")?;

    // Bad input length: error response, connection stays usable.
    let resp = client.predict(vec![0.0; 3], false).map_err(err("short"))?;
    check(
        resp.get("status").and_then(Json::as_str) == Some("error"),
        "wrong-length input rejected with status=error",
    )?;
    let pong = client.control(Command::Ping).map_err(err("ping2"))?;
    check(
        pong.get("status").and_then(Json::as_str) == Some("ok"),
        "connection survives a bad request",
    )?;

    // Oversized frame header: answered once, then the server hangs up.
    let mut evil = Client::connect(addr).map_err(err("connect evil"))?;
    evil.send_raw(&(MAX_FRAME + 1).to_le_bytes())
        .map_err(err("oversized send"))?;
    let payload = evil
        .read_response()
        .map_err(err("oversized read"))?
        .ok_or("no error frame for oversized header")?;
    let resp = Json::parse(&payload).map_err(|e| format!("oversized parse: {e}"))?;
    check(
        resp.get("status").and_then(Json::as_str) == Some("error"),
        "oversized frame header rejected",
    )?;
    check(
        evil.read_response()
            .map_err(err("oversized eof"))?
            .is_none(),
        "connection closed after oversized frame",
    )?;

    // Malformed JSON inside a well-formed frame.
    let mut bad = Client::connect(addr).map_err(err("connect bad"))?;
    let mut frame = Vec::new();
    frame.extend_from_slice(&7u32.to_le_bytes());
    frame.extend_from_slice(b"{nope!}");
    bad.send_raw(&frame).map_err(err("malformed send"))?;
    let payload = bad
        .read_response()
        .map_err(err("malformed read"))?
        .ok_or("no error frame for malformed JSON")?;
    let resp = Json::parse(&payload).map_err(|e| format!("malformed parse: {e}"))?;
    check(
        resp.get("status").and_then(Json::as_str) == Some("error"),
        "malformed JSON rejected with status=error",
    )?;

    // Metrics must show the traffic and at least one coalesced batch.
    let metrics = client.control(Command::Metrics).map_err(err("metrics"))?;
    let m = metrics.get("metrics").ok_or("missing metrics object")?;
    let completed = m
        .get("requests")
        .and_then(|r| r.get("completed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    check(
        completed >= 32,
        &format!("metrics counted {completed} completions"),
    )?;

    // Graceful shutdown via the wire protocol.
    let resp = client.control(Command::Shutdown).map_err(err("shutdown"))?;
    check(
        resp.get("status").and_then(Json::as_str) == Some("ok"),
        "shutdown command acknowledged",
    )?;
    server.join();
    std::thread::sleep(Duration::from_millis(50));
    check(
        Client::connect(addr).is_err(),
        "listener is gone after shutdown",
    )?;

    // ---- Phase 2: open-loop goodput-vs-offered-load curve shape ----
    //
    // Capacity is pinned by per-client admission control (500 rps), not
    // by this host's compute, so the curve shape is deterministic on any
    // hardware: the low rates are fully admitted, the top rate is shed.
    let mut registry = ModelRegistry::new(&[1, 28, 28]).map_err(err("registry2"))?;
    registry
        .load_baseline("dense", mlp(16, 0), &dense_path)
        .map_err(err("load baseline 2"))?;
    let engine = Engine::start(
        &registry,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .map_err(err("engine2"))?;
    let server = Server::bind_with(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            rate_limit: Some(RateLimitConfig {
                rps: 500.0,
                burst: 50.0,
            }),
            ..ServerConfig::default()
        },
    )
    .map_err(err("bind2"))?;
    let addr = server.local_addr();
    let input = vec![0.5f32; 28 * 28];

    let rates = [100.0, 400.0, 1600.0];
    let mut points = Vec::new();
    let mut reports = Vec::new();
    for &rps in &rates {
        let plan = LoadPlan {
            connections: 4,
            drain_timeout: Duration::from_secs(2),
            ..LoadPlan::new(rps, Duration::from_secs(1), input.clone())
        };
        let report = loadgen::run(addr, &plan).map_err(err("loadgen"))?;
        println!(
            "smoke: open-loop offered {rps:7.0} rps -> goodput {:7.1} rps \
             (ok {} rate_limited {} overloaded {} lost {})",
            report.goodput_rps(),
            report.ok,
            report.rate_limited,
            report.overloaded,
            report.lost
        );
        points.push((rps, report.goodput_rps()));
        reports.push(report);
    }
    for &(offered, goodput) in &points {
        check(
            goodput <= offered * 1.05,
            &format!("goodput {goodput:.1} never exceeds offered {offered:.1}"),
        )?;
    }
    check(
        reports[0].goodput_rps() >= 0.9 * rates[0],
        "below the cap, goodput tracks offered load",
    )?;
    let knee = find_knee(&points);
    check(
        knee.is_some(),
        "a saturation knee exists (some offered rate is fully served)",
    )?;
    check(
        knee.unwrap_or(usize::MAX) < points.len() - 1,
        "the top offered rate saturates (knee is not the last point)",
    )?;
    check(
        reports[2].rate_limited > 0,
        "saturation shows up as explicit rate_limited responses",
    )?;
    check(
        reports.iter().map(|r| r.lost).sum::<u64>() == 0,
        "every request got a response (nothing lost under shed)",
    )?;
    server.request_shutdown();
    server.join();

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("smoke: all serve checks passed");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
