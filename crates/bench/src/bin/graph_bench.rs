//! Machine-readable graph-compiler ablation.
//!
//! Times the compiled [`ExecPlan`] forward against the layer-at-a-time
//! `Sequential` forward for both paper nets at f32, q8-frozen and
//! q4-frozen, and records what the compiler bought: fusion counts, plan
//! compile time, steady-state allocation events, and the static arena's
//! peak versus the sum of per-layer intermediates it replaced. Writes
//! `BENCH_graph.json`.
//!
//! Run via `scripts/bench_graph.sh`, or directly:
//!
//! ```text
//! cargo run --release -p advcomp-bench --bin graph_bench -- \
//!     [--out FILE] [--iters N] [--check-graph]
//! ```
//!
//! `--check-graph` exits non-zero when AVX2 is available but the compiled
//! q8-frozen LeNet-5 forward is not at least 1.3× faster than the unfused
//! layer path, or when the steady-state forward performed any heap
//! allocation — the regression gate `scripts/check.sh` relies on,
//! mirroring `kernel_bench --check-simd` and `quant_bench --check-quant`.

use advcomp_compress::Quantizer;
use advcomp_graph::ExecPlan;
use advcomp_models::{cifarnet, lenet5};
use advcomp_nn::{Mode, Sequential};
use advcomp_tensor::{pool, simd, Init, Tensor};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The gate `--check-graph` enforces on compiled q8 LeNet-5.
const GATE_SPEEDUP: f64 = 1.3;

#[derive(Serialize)]
struct FusionCounts {
    elided_quantize: usize,
    fused_conv_act: usize,
    fused_dense_act: usize,
    int8_chain_links: usize,
}

#[derive(Serialize)]
struct ModelRow {
    model: String,
    format: String,
    batch: usize,
    unfused_ns: u64,
    compiled_ns: u64,
    speedup: f64,
    compile_us: u64,
    steps: usize,
    /// Arena peak, per sample, in f32 elements.
    arena_elems_per_sample: usize,
    /// What separate per-layer allocations would hold (sum of all
    /// intermediate buffer sizes), per sample, in f32 elements.
    sum_intermediates_elems: usize,
    /// `sum_intermediates / arena` — how much the liveness planner folded.
    arena_saving: f64,
    /// Heap allocations observed during the timed (steady-state) forwards;
    /// must be 0.
    alloc_events_steady: u64,
    fusion: FusionCounts,
}

#[derive(Serialize)]
struct GraphReport {
    simd_available: bool,
    threads: usize,
    gate_speedup: f64,
    models: Vec<ModelRow>,
}

fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..iters.div_ceil(10).max(3) {
        f();
    }
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn freeze(model: &mut Sequential, bits: u32) {
    Quantizer::for_bitwidth(bits)
        .unwrap()
        .quantize_frozen(model)
        .expect("paper nets freeze at <= 8 bits");
}

fn bench_model(
    name: &str,
    format: &str,
    mut model: Sequential,
    sample_shape: &[usize],
    batch: usize,
    iters: usize,
    rng: &mut rand::rngs::StdRng,
) -> ModelRow {
    let mut shape = vec![batch];
    shape.extend_from_slice(sample_shape);
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&shape, rng);

    let unfused_ns = median_ns(iters, || {
        black_box(model.forward(&x, Mode::Eval).unwrap());
    });

    let mut plan = ExecPlan::compile(&model, sample_shape).expect("paper nets compile");
    plan.reserve_batch(batch);
    // Warm once so the timed region is pure steady state, then count any
    // allocation the timed forwards perform (there must be none).
    let mut out = Tensor::zeros(&[0]);
    plan.forward_into(&x, &mut out).unwrap();
    let allocs_before = plan.alloc_events();
    let compiled_ns = median_ns(iters, || {
        plan.forward_into(&x, &mut out).unwrap();
        black_box(out.data());
    });
    let alloc_events_steady = plan.alloc_events() - allocs_before;

    let stats = plan.stats();
    let row = ModelRow {
        model: name.into(),
        format: format.into(),
        batch,
        unfused_ns,
        compiled_ns,
        speedup: unfused_ns as f64 / compiled_ns.max(1) as f64,
        compile_us: plan.compile_us(),
        steps: plan.step_count(),
        arena_elems_per_sample: plan.arena_elems_per_sample(),
        sum_intermediates_elems: plan.unplanned_elems_per_sample(),
        arena_saving: plan.unplanned_elems_per_sample() as f64
            / plan.arena_elems_per_sample().max(1) as f64,
        alloc_events_steady,
        fusion: FusionCounts {
            elided_quantize: stats.elided_quantize,
            fused_conv_act: stats.fused_conv_act,
            fused_dense_act: stats.fused_dense_act,
            int8_chain_links: stats.int8_chain_links,
        },
    };
    println!(
        "{name}_{format}_b{batch}: unfused {unfused_ns} ns  compiled {compiled_ns} ns \
         ({:.2}x)  arena {} vs {} elems/sample ({:.2}x)  allocs {}",
        row.speedup,
        row.arena_elems_per_sample,
        row.sum_intermediates_elems,
        row.arena_saving,
        row.alloc_events_steady
    );
    row
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out_path = String::from("BENCH_graph.json");
    let mut iters = 60usize;
    let mut check_graph = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(v) = args.next() {
                    out_path = v;
                }
            }
            "--iters" => {
                if let Some(v) = args.next() {
                    iters = v.parse()?;
                }
            }
            "--check-graph" => check_graph = true,
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }

    const BATCH: usize = 8;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
    let mut models = Vec::new();
    // CifarNet runs at half width so the full grid stays in bench budget;
    // the overhead structure the compiler removes is width-independent.
    type Builder = fn(u64) -> Sequential;
    let builders: [(&str, &[usize], Builder); 2] = [
        ("lenet5", &[1, 28, 28], |seed| lenet5(1.0, seed)),
        ("cifarnet", &[3, 32, 32], |seed| cifarnet(0.5, seed)),
    ];
    for (name, sample_shape, build) in builders {
        for (format, bits) in [("f32", None), ("q8", Some(8)), ("q4", Some(4))] {
            let mut model = build(17);
            if let Some(bits) = bits {
                freeze(&mut model, bits);
            }
            models.push(bench_model(
                name,
                format,
                model,
                sample_shape,
                BATCH,
                iters,
                &mut rng,
            ));
        }
    }

    let report = GraphReport {
        simd_available: simd::simd_available(),
        threads: pool::available_threads(),
        gate_speedup: GATE_SPEEDUP,
        models,
    };
    std::fs::write(&out_path, serde_json::to_string_pretty(&report)?)?;
    println!("wrote {out_path}");

    if check_graph {
        for row in &report.models {
            if row.alloc_events_steady != 0 {
                return Err(format!(
                    "--check-graph: {} {} steady-state forward performed {} heap \
                     allocations (must be 0)",
                    row.model, row.format, row.alloc_events_steady
                )
                .into());
            }
        }
        if report.simd_available {
            let gate = report
                .models
                .iter()
                .find(|r| r.model == "lenet5" && r.format == "q8")
                .expect("q8 lenet5 row");
            if gate.speedup < GATE_SPEEDUP {
                return Err(format!(
                    "--check-graph: AVX2 is available but compiled q8 LeNet-5 is only \
                     {:.2}x over the unfused path (gate {GATE_SPEEDUP}x): {} ns vs {} ns",
                    gate.speedup, gate.compiled_ns, gate.unfused_ns
                )
                .into());
            }
        }
    }
    Ok(())
}
