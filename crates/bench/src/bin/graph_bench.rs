//! Machine-readable graph-compiler ablation; writes `BENCH_graph.json`.
//!
//! Times the compiled [`ExecPlan`] forward against the layer-at-a-time
//! `Sequential` forward for both paper nets at f32, q8-frozen and
//! q4-frozen, and records what the compiler bought: fusion counts, plan
//! compile time, steady-state allocation events, and the static arena's
//! peak versus the sum of per-layer intermediates it replaced.
//!
//! Gates: every row's `alloc_events_steady` is 0 (on every host), and on
//! an AVX2 host compiled q8-frozen LeNet-5 is at least 1.3× the unfused
//! layer path (`lenet5.q8.speedup`) and the compiled f32 forward of both
//! nets is not slower than the layer path (`lenet5.f32.speedup` and
//! `cifarnet.f32.speedup` ≥ 1: plan and layer run one convolution
//! forward, so the plan keeps only its savings). The two forwards of a
//! row are timed in alternating iterations, one median each, so a burst
//! of host noise cannot land on one side only.
//!
//! ```text
//! scripts/bench.sh graph [--out FILE] [--iters N]
//! ```

use advcomp_bench::record::{median_ns_pair, speedup, Flags, Report};
use advcomp_compress::Quantizer;
use advcomp_graph::ExecPlan;
use advcomp_models::{cifarnet, lenet5};
use advcomp_nn::{Mode, Sequential};
use advcomp_tensor::{pool, simd, Init, Tensor};
use std::hint::black_box;

/// The floor on compiled q8 LeNet-5's speedup over the unfused path.
const GATE_SPEEDUP: f64 = 1.3;
/// The floor on both nets' compiled f32 speedup over the layer path.
const GATE_F32_SPEEDUP: f64 = 1.0;
const BATCH: usize = 8;

fn freeze(model: &mut Sequential, bits: u32) {
    Quantizer::for_bitwidth(bits)
        .unwrap()
        .quantize_frozen(model)
        .expect("paper nets freeze at <= 8 bits");
}

/// Times one model × format and appends its `<name>.<format>.*` records.
fn bench_model(
    report: &mut Report,
    name: &str,
    format: &str,
    mut model: Sequential,
    sample_shape: &[usize],
    iters: usize,
    rng: &mut rand::rngs::StdRng,
) {
    let mut shape = vec![BATCH];
    shape.extend_from_slice(sample_shape);
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&shape, rng);

    let mut plan = ExecPlan::compile(&model, sample_shape).expect("paper nets compile");
    plan.reserve_batch(BATCH);
    // Warm once so the timed region is pure steady state, then count any
    // allocation the timed forwards perform (there must be none).
    let mut out = Tensor::zeros(&[0]);
    plan.forward_into(&x, &mut out).unwrap();
    let allocs_before = plan.alloc_events();
    let (unfused_ns, compiled_ns) = median_ns_pair(
        iters,
        || {
            black_box(model.forward(&x, Mode::Eval).unwrap());
        },
        || {
            plan.forward_into(&x, &mut out).unwrap();
            black_box(out.data());
        },
    );
    let allocs = plan.alloc_events() - allocs_before;

    let stats = plan.stats();
    // Arena peak and what separate per-layer allocations would hold (sum
    // of all intermediate buffer sizes), per sample, in f32 elements.
    let arena = plan.arena_elems_per_sample() as u64;
    let unplanned = plan.unplanned_elems_per_sample() as u64;
    let row = format!("{name}.{format}");
    for (key, unit, value) in [
        ("batch", "count", BATCH as f64),
        ("unfused_ns", "ns", unfused_ns as f64),
        ("compiled_ns", "ns", compiled_ns as f64),
        ("speedup", "x", speedup(unfused_ns, compiled_ns)),
        ("compile_us", "us", plan.compile_us() as f64),
        ("steps", "count", plan.step_count() as f64),
        ("arena_elems_per_sample", "elems", arena as f64),
        ("sum_intermediates_elems", "elems", unplanned as f64),
        ("arena_saving", "x", speedup(unplanned, arena)),
        ("alloc_events_steady", "count", allocs as f64),
        (
            "fusion.elided_quantize",
            "count",
            stats.elided_quantize as f64,
        ),
        (
            "fusion.fused_conv_act",
            "count",
            stats.fused_conv_act as f64,
        ),
        (
            "fusion.fused_dense_act",
            "count",
            stats.fused_dense_act as f64,
        ),
        (
            "fusion.int8_chain_links",
            "count",
            stats.int8_chain_links as f64,
        ),
    ] {
        let record = report.push(format!("{row}.{key}"), unit, value);
        if key == "alloc_events_steady" {
            record.max(0.0);
        } else if key == "speedup" && simd::simd_available() {
            let floor = match row.as_str() {
                "lenet5.q8" => Some(GATE_SPEEDUP),
                "lenet5.f32" | "cifarnet.f32" => Some(GATE_F32_SPEEDUP),
                _ => None,
            };
            if let Some(floor) = floor {
                record.min(floor);
            }
        }
    }
    println!(
        "{name}_{format}_b{BATCH}: unfused {unfused_ns} ns  compiled {compiled_ns} ns \
         ({:.2}x)  arena {arena} vs {unplanned} elems/sample ({:.2}x)  allocs {allocs}",
        speedup(unfused_ns, compiled_ns),
        speedup(unplanned, arena)
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(
        std::env::args().skip(1),
        &[("--out", "BENCH_graph.json"), ("--iters", "60")],
    )?;
    let iters: usize = flags.num("--iters")?;
    let mut report = Report::new("graph");
    report.push("threads", "count", pool::available_threads() as f64);
    report.push("gate_speedup", "x", GATE_SPEEDUP);

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
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
            bench_model(
                &mut report,
                name,
                format,
                model,
                sample_shape,
                iters,
                &mut rng,
            );
        }
    }
    report.finish(flags.get("--out"))?;
    Ok(())
}
