//! Machine-readable integer-execution ablation.
//!
//! Times the packed block-quantised paths against their dense f32
//! equivalents and writes `BENCH_quant.json`:
//!
//! * the fused int8 GEMM (`qmatmul_f32`, 8- and 4-bit weights with
//!   on-the-fly activation quantisation) vs the production dense f32 SIMD
//!   GEMM at the 128×128 hot-path shape;
//! * a full LeNet5 forward, dense vs frozen-packed at 8 and 4 bits, plus
//!   the same frozen forwards through a compiled `advcomp-graph`
//!   `ExecPlan` — the layer path and the plan run the same byte-code
//!   int8 kernels at both bitwidths (see the file's `note`);
//! * the compression-ensemble guard's per-batch cost: baseline + two dense
//!   variants vs baseline + two packed variants (the serving engine's
//!   `run_batch` shape);
//! * checkpoint bytes: the f32 (v2) file vs the packed (v3) files.
//!
//! On an AVX2 host `gemm.q8_speedup_vs_f32` is gated at ≥ 1: the packed
//! Q8 GEMM must not be slower than the dense f32 SIMD GEMM. The two are
//! timed in alternating iterations, as `kernel_bench` and `graph_bench`
//! time their gated pairs.
//!
//! ```text
//! scripts/bench.sh quant [--out FILE] [--iters N]
//! ```

use advcomp_bench::record::{median_ns, median_ns_pair, speedup, Flags, Report};
use advcomp_compress::Quantizer;
use advcomp_graph::ExecPlan;
use advcomp_models::{lenet5, Checkpoint};
use advcomp_nn::{Mode, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{pool, qmatmul_f32, simd, Init, KernelBackend, QTensor};
use std::hint::black_box;

fn frozen_lenet(bits: u32, seed: u64) -> Sequential {
    let mut model = lenet5(1.0, seed);
    Quantizer::for_bitwidth(bits)
        .unwrap()
        .quantize_frozen(&mut model)
        .expect("lenet5 freezes at <= 8 bits");
    model
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(
        std::env::args().skip(1),
        &[("--out", "BENCH_quant.json"), ("--iters", "200")],
    )?;
    let iters: usize = flags.num("--iters")?;
    let mut report = Report::new("quant");
    report.push("threads", "count", pool::available_threads() as f64);

    // --- GEMM: packed int8 vs dense f32 SIMD at the hot-path shape. ---
    const SIZE: usize = 128;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let a = init.tensor(&[SIZE, SIZE], &mut rng);
    let b = init.tensor(&[SIZE, SIZE], &mut rng);
    let q8 = QFormat::for_bitwidth(8).unwrap();
    let q4 = QFormat::for_bitwidth(4).unwrap();
    let w8 = QTensor::quantize(b.data(), &[SIZE, SIZE], q8).unwrap();
    let w4 = QTensor::quantize(b.data(), &[SIZE, SIZE], q4).unwrap();

    // The gated pair runs in alternating iterations, so a busy stretch of
    // the host slows both sides alike.
    let mut out = vec![0.0f32; SIZE * SIZE];
    let (f32_ns, q8_ns) = median_ns_pair(
        iters,
        || {
            black_box(a.matmul_with(&b, KernelBackend::Simd).unwrap());
        },
        || {
            qmatmul_f32(KernelBackend::Simd, a.data(), SIZE, q8, &w8, &mut out).unwrap();
            black_box(&out);
        },
    );
    let q4_ns = median_ns(iters, || {
        qmatmul_f32(KernelBackend::Simd, a.data(), SIZE, q4, &w4, &mut out).unwrap();
        black_box(&out);
    });
    report.push("gemm.size", "count", SIZE as f64);
    report.push("gemm.f32_simd_ns", "ns", f32_ns as f64);
    report.push("gemm.q8_ns", "ns", q8_ns as f64);
    report.push("gemm.q4_ns", "ns", q4_ns as f64);
    // Gate: on an AVX2 host the packed Q8 GEMM is not slower than dense
    // f32 SIMD (without AVX2 both fall back to scalar).
    let q8_gate = report.push("gemm.q8_speedup_vs_f32", "x", speedup(f32_ns, q8_ns));
    if simd::simd_available() {
        q8_gate.min(1.0);
    }
    report.push("gemm.q4_speedup_vs_f32", "x", speedup(f32_ns, q4_ns));
    println!(
        "gemm_{SIZE}: f32 {f32_ns} ns  q8 {q8_ns} ns ({:.2}x)  q4 {q4_ns} ns ({:.2}x)",
        speedup(f32_ns, q8_ns),
        speedup(f32_ns, q4_ns)
    );

    // --- Full-model forward: dense vs frozen-packed LeNet5. ---
    const BATCH: usize = 8;
    let mut dense = lenet5(1.0, 7);
    let mut frozen8 = frozen_lenet(8, 7);
    let mut frozen4 = frozen_lenet(4, 7);
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[BATCH, 1, 28, 28], &mut rng);
    let fwd_iters = (iters / 4).max(20);
    let dense_ns = median_ns(fwd_iters, || {
        black_box(dense.forward(&x, Mode::Eval).unwrap());
    });
    let q8_fwd_ns = median_ns(fwd_iters, || {
        black_box(frozen8.forward(&x, Mode::Eval).unwrap());
    });
    let q4_fwd_ns = median_ns(fwd_iters, || {
        black_box(frozen4.forward(&x, Mode::Eval).unwrap());
    });
    // The compiled plans share the layers' packed codes, so at 4 bits as
    // at 8 the layer path and the plan run the same byte-code kernels;
    // the gap between them is the plan's fusion and arena.
    let mut plan8 = ExecPlan::compile(&frozen8, &[1, 28, 28]).expect("q8 lenet5 compiles");
    let mut plan4 = ExecPlan::compile(&frozen4, &[1, 28, 28]).expect("q4 lenet5 compiles");
    plan8.reserve_batch(BATCH);
    plan4.reserve_batch(BATCH);
    let q8_plan_ns = median_ns(fwd_iters, || {
        black_box(plan8.forward(&x).unwrap());
    });
    let q4_plan_ns = median_ns(fwd_iters, || {
        black_box(plan4.forward(&x).unwrap());
    });
    for (key, unit, value) in [
        ("batch", "count", BATCH as f64),
        ("dense_f32_ns", "ns", dense_ns as f64),
        ("q8_frozen_ns", "ns", q8_fwd_ns as f64),
        ("q4_frozen_ns", "ns", q4_fwd_ns as f64),
        ("q8_speedup", "x", speedup(dense_ns, q8_fwd_ns)),
        ("q4_speedup", "x", speedup(dense_ns, q4_fwd_ns)),
        ("q8_planned_ns", "ns", q8_plan_ns as f64),
        ("q4_planned_ns", "ns", q4_plan_ns as f64),
        ("q8_planned_speedup", "x", speedup(dense_ns, q8_plan_ns)),
        ("q4_planned_speedup", "x", speedup(dense_ns, q4_plan_ns)),
    ] {
        report.push(format!("forward.lenet5.{key}"), unit, value);
    }
    report.note = Some(format!(
        "layer path and ExecPlan run the same byte-code int8 kernels at 4 and 8 bits: \
         q4 layer path {q4_fwd_ns} ns ({:.2}x vs dense), q4 plan {q4_plan_ns} ns \
         ({:.2}x vs dense)",
        speedup(dense_ns, q4_fwd_ns),
        speedup(dense_ns, q4_plan_ns),
    ));
    println!(
        "forward_lenet5_b{BATCH}: dense {dense_ns} ns  q8 {q8_fwd_ns} ns ({:.2}x)  \
         q4 {q4_fwd_ns} ns ({:.2}x)  planned q8 {q8_plan_ns} ns ({:.2}x)  \
         planned q4 {q4_plan_ns} ns ({:.2}x)",
        speedup(dense_ns, q8_fwd_ns),
        speedup(dense_ns, q4_fwd_ns),
        speedup(dense_ns, q8_plan_ns),
        speedup(dense_ns, q4_plan_ns)
    );

    // --- Guard request cost: the engine's run_batch shape, baseline plus
    // two variants, dense ensemble vs packed ensemble. ---
    let mut dense_v1 = lenet5(1.0, 8);
    let mut dense_v2 = lenet5(1.0, 9);
    let dense_guard_ns = median_ns(fwd_iters, || {
        black_box(dense.forward(&x, Mode::Eval).unwrap());
        black_box(dense_v1.forward(&x, Mode::Eval).unwrap());
        black_box(dense_v2.forward(&x, Mode::Eval).unwrap());
    });
    let mut packed_v1 = frozen_lenet(8, 8);
    let mut packed_v2 = frozen_lenet(4, 9);
    let packed_guard_ns = median_ns(fwd_iters, || {
        black_box(dense.forward(&x, Mode::Eval).unwrap());
        black_box(packed_v1.forward(&x, Mode::Eval).unwrap());
        black_box(packed_v2.forward(&x, Mode::Eval).unwrap());
    });
    let guard_speedup = speedup(dense_guard_ns, packed_guard_ns);
    report.push("guard.variants", "count", 2.0);
    report.push("guard.dense_ensemble_ns", "ns", dense_guard_ns as f64);
    report.push("guard.packed_ensemble_ns", "ns", packed_guard_ns as f64);
    report.push("guard.packed_speedup", "x", guard_speedup);
    println!(
        "guard_batch_b{BATCH}: dense ensemble {dense_guard_ns} ns  packed ensemble \
         {packed_guard_ns} ns ({guard_speedup:.2}x)"
    );

    // --- Checkpoint bytes: v2 f32 vs v3 packed. ---
    let v2 = Checkpoint::capture(&dense).to_bytes().len() as u64;
    let v3_q8 = Checkpoint::capture(&frozen8).to_bytes().len() as u64;
    let v3_q4 = Checkpoint::capture(&frozen4).to_bytes().len() as u64;
    report.push("checkpoint.f32_v2_bytes", "bytes", v2 as f64);
    report.push("checkpoint.packed_v3_q8_bytes", "bytes", v3_q8 as f64);
    report.push("checkpoint.packed_v3_q4_bytes", "bytes", v3_q4 as f64);
    report.push("checkpoint.q8_ratio_vs_f32", "x", speedup(v2, v3_q8));
    println!(
        "checkpoint: v2 {v2} B  v3 q8 {v3_q8} B ({:.2}x)  v3 q4 {v3_q4} B",
        speedup(v2, v3_q8)
    );

    report.finish(flags.get("--out"))?;
    Ok(())
}
