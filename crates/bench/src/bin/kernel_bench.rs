//! Machine-readable kernel ablation; writes `BENCH_kernels.json`.
//!
//! Times the tensor kernels on the hot-path shapes (repeated 128×128×128
//! GEMMs, a CIFAR-sized conv lowering, attack-sized elementwise ops) as
//! median nanoseconds per invocation. The headline is
//! `pooled_speedup_vs_spawn`: the same dense compute kernel and row
//! banding, run on the persistent worker pool versus spawning fresh OS
//! threads per call (the pre-pool behaviour).
//!
//! The `simd.*` records ablate the runtime-dispatched SIMD kernel layer:
//! the AVX2+FMA GEMM microkernel and elementwise/reduction kernels against
//! their scalar fallbacks (both backends timed explicitly in one process),
//! plus the fused single-pass attack-step kernels against the historical
//! allocating op chains. On an AVX2+FMA host
//! `simd.gemm_speedup_simd_vs_scalar` is gated at ≥ 1: the dispatched GEMM
//! must not be slower than the scalar one.
//!
//! The `simd.gemm_conv_*` records time the f32 GEMM on both backends at
//! conv-forward shapes, where the output width is a layer's channel count:
//! LeNet-5 conv1 at batch 48 (37632 × 25 × 3) and CifarNet conv2 at batch
//! 48 (49152 × 99 × 11). On an AVX2+FMA host each shape's `dense.speedup`
//! is gated at ≥ 1 as well.
//!
//! The `simd.conv_direct.*` records time each convolution pass of the six
//! sweep convs (LeNet-5 at width 0.5: conv1, conv2; CifarNet at width
//! 0.35: conv1–conv4) at batch 1 and 48, through the SIMD lowering and
//! through the direct kernels, the two sides timed in alternating
//! iterations. On an AVX2+FMA host every shape that
//! [`advcomp_tensor::conv_impl`] sends to the direct kernels has the
//! `speedup` of both passes gated at ≥ 1: the rule must not pick a loser.
//! The `simd.conv_wgrad.*` records do the same for the weight and bias
//! gradients at batch 32: the lowering's `im2col`, row transposes, GEMM
//! and `sum_axis0` against the direct kernel, gated alike.
//!
//! The `simd.fake_quantize.*` records time a copy and
//! `tensor::fake_quantize_in_place` with its pass mask (the `FakeQuant`
//! forward) on a LeNet-5 conv1-sized activation (batch 32 × 3 × 28 × 28
//! = 75,264 values) at Q1.3 and Q2.6, scalar body against AVX2 body, the
//! speedup gated at ≥ 1 on an AVX2+FMA host.
//!
//! The `simd.max_pool2d.*` records time `tensor::max_pool2d` with its
//! window offsets (the `MaxPool2d` forward) on the five pools of the sweep
//! nets (LeNet-5 at width 0.5: pool1, pool2; CifarNet at width 0.35:
//! pool1–pool3) at batch 48, the scalar window scan against the AVX2 2×2
//! stride-2 body in alternating iterations, the speedup gated at ≥ 1 on
//! an AVX2+FMA host.
//!
//! ```text
//! scripts/bench.sh kernel [--out FILE] [--iters N]
//! ```

use advcomp_attacks::step;
use advcomp_bench::record::{median_ns, median_ns_pair, speedup, Flags, Report};
use advcomp_qformat::QFormat;
use advcomp_tensor::{
    conv2d_forward, conv2d_input_grad, conv2d_weight_grad, conv_impl, fake_quantize_in_place,
    gemm_prepacked, im2col, max_pool2d, pool, simd, Conv2dGeometry, ConvImpl, ConvScratch, Init,
    KernelBackend, PackedGemmB, Tensor,
};
use std::hint::black_box;

/// Times the SIMD-dispatch ablations into the `simd.*` records.
fn simd_ablation(iters: usize, report: &mut Report) {
    const SIZE: usize = 128;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let a = init.tensor(&[SIZE, SIZE], &mut rng);
    let b = init.tensor(&[SIZE, SIZE], &mut rng);

    let mut pairs = Vec::new();
    let mut record_pair = |name: &'static str, scalar_ns: u64, simd_ns: u64| {
        let x = speedup(scalar_ns, simd_ns);
        println!("{name:>28}: scalar {scalar_ns:>10} ns  simd {simd_ns:>10} ns  ({x:.2}x)");
        pairs.push((name, scalar_ns, simd_ns));
    };

    // GEMM: the identical packed/banded path, explicit backend per call.
    let gemm_scalar = median_ns(iters, || {
        black_box(a.matmul_with(&b, KernelBackend::Scalar).unwrap());
    });
    let gemm_simd = median_ns(iters, || {
        black_box(a.matmul_with(&b, KernelBackend::Simd).unwrap());
    });
    record_pair("gemm_dense_128", gemm_scalar, gemm_simd);

    // Elementwise + reduction kernels on an attack-sized buffer (a batch of
    // 64 CIFAR images), through the slice kernels the Tensor ops dispatch
    // to, with the output buffer preallocated so only compute is timed.
    let n = 64 * 3 * 32 * 32;
    let x = init.tensor(&[n], &mut rng);
    let y = init.tensor(&[n], &mut rng);
    let mut out = vec![0.0f32; n];
    macro_rules! time_both {
        ($name:expr, $be:ident => $body:expr) => {{
            let scalar = median_ns(iters, || {
                let $be = KernelBackend::Scalar;
                black_box($body);
            });
            let simd_t = median_ns(iters, || {
                let $be = KernelBackend::Simd;
                black_box($body);
            });
            record_pair($name, scalar, simd_t);
        }};
    }
    time_both!("elementwise_add_196k", be => simd::add_slices(be, x.data(), y.data(), &mut out));
    time_both!("elementwise_sign_196k", be => simd::sign_slices(be, x.data(), &mut out));
    time_both!("elementwise_clamp_196k", be => simd::clamp_slices(be, x.data(), 0.0, 1.0, &mut out));
    time_both!("elementwise_axpy_196k", be => simd::axpy_slices(be, &mut out, y.data(), 0.01));
    time_both!("reduce_sum_196k", be => simd::sum_slice(be, x.data()));
    time_both!("reduce_sumsq_196k", be => simd::sumsq_slice(be, x.data()));
    time_both!("reduce_max_abs_196k", be => simd::max_abs_slice(be, x.data()));

    // Fused attack step vs the historical allocating chain, at whatever
    // backend ADVCOMP_KERNEL selected (the fusion win is orthogonal to the
    // SIMD win; the iterate stays in [0, 1] either way so drift between
    // timed iterations does not change the workload).
    let g = init.tensor(&[n], &mut rng);
    let mut adv = x.clamp(0.0, 1.0);
    let fused_sign = median_ns(iters, || {
        step::sign_step(black_box(&mut adv), &g, 0.01).unwrap();
    });
    let unfused_sign = median_ns(iters, || {
        black_box(step::sign_step_unfused(&adv, &g, 0.01).unwrap());
    });
    record_pair("attack_sign_step_196k*", unfused_sign, fused_sign);
    let origin = x.clamp(0.0, 1.0);
    let fused_pgd = median_ns(iters, || {
        step::projected_sign_step(black_box(&mut adv), &g, &origin, 0.01, 0.05).unwrap();
    });
    let unfused_pgd = median_ns(iters, || {
        black_box(step::projected_sign_step_unfused(&adv, &g, &origin, 0.01, 0.05).unwrap());
    });
    record_pair("attack_pgd_step_196k*", unfused_pgd, fused_pgd);
    println!("  (* fused-vs-unfused at the ambient backend, not scalar-vs-simd)");

    for (key, unit, value) in [
        ("gemm_size", "count", SIZE as f64),
        ("threads", "count", pool::available_threads() as f64),
        ("gemm_scalar_ns", "ns", gemm_scalar as f64),
        ("gemm_simd_ns", "ns", gemm_simd as f64),
        (
            "gemm_speedup_simd_vs_scalar",
            "x",
            speedup(gemm_scalar, gemm_simd),
        ),
        ("fused_sign_step_ns", "ns", fused_sign as f64),
        ("unfused_sign_step_ns", "ns", unfused_sign as f64),
        (
            "fused_speedup_vs_unfused",
            "x",
            speedup(unfused_sign, fused_sign),
        ),
    ] {
        let record = report.push(format!("simd.{key}"), unit, value);
        if key == "gemm_speedup_simd_vs_scalar" && simd::simd_available() {
            record.min(1.0);
        }
    }
    for (name, scalar, simd) in pairs {
        report.push(format!("simd.{name}.scalar_ns"), "ns", scalar as f64);
        report.push(format!("simd.{name}.simd_ns"), "ns", simd as f64);
        report.push(format!("simd.{name}.speedup"), "x", speedup(scalar, simd));
    }
    conv_width_gemms(iters.min(50), report);
    conv_direct(iters.min(50), report);
    conv_wgrad(iters.min(50), report);
    fake_quantize_rows(iters, report);
    max_pool_rows(iters.min(50), report);
}

/// The five pools of the sweep nets (LeNet-5 at width 0.5, CifarNet at
/// width 0.35), all 2×2 stride 2, as `(name, channels, input size)`.
const SWEEP_POOLS: [(&str, usize, usize); 5] = [
    ("lenet5_pool1", 3, 28),
    ("lenet5_pool2", 8, 10),
    ("cifarnet_pool1", 11, 32),
    ("cifarnet_pool2", 22, 16),
    ("cifarnet_pool3", 22, 8),
];

/// Times `max_pool2d` with its window offsets on the five sweep pools at
/// batch 48, scalar scan against AVX2 body in alternating iterations, into
/// the `simd.max_pool2d.*` records; the speedup is gated on AVX2+FMA.
fn max_pool_rows(iters: usize, report: &mut Report) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(31);
    const BATCH: usize = 48;
    for (name, c, hw) in SWEEP_POOLS {
        let dims = [BATCH, c, hw, hw];
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.tensor(&dims, &mut rng);
        let len = BATCH * c * (hw / 2) * (hw / 2);
        let mut scalar = (vec![0.0f32; len], vec![0u8; len]);
        let mut vector = scalar.clone();
        let pool = |be: KernelBackend, (out, offsets): &mut (Vec<f32>, Vec<u8>)| {
            max_pool2d(be, x.data(), dims, 2, 2, out, Some(offsets)).expect("sweep pool");
            black_box((out, offsets));
        };
        let (scalar_ns, simd_ns) = median_ns_pair(
            iters,
            || pool(KernelBackend::Scalar, &mut scalar),
            || pool(KernelBackend::Simd, &mut vector),
        );
        let x = speedup(scalar_ns, simd_ns);
        println!(
            "{:>28}: scalar {scalar_ns:>10} ns  simd {simd_ns:>10} ns  ({x:.2}x)",
            format!("max_pool2d.{name}.b{BATCH}")
        );
        let row = format!("simd.max_pool2d.{name}.b{BATCH}");
        report.push(format!("{row}.scalar_ns"), "ns", scalar_ns as f64);
        report.push(format!("{row}.simd_ns"), "ns", simd_ns as f64);
        let record = report.push(format!("{row}.speedup"), "x", x);
        if simd::simd_available() {
            record.min(1.0);
        }
    }
}

/// The six sweep convolutions (LeNet-5 at width 0.5, CifarNet at width
/// 0.35) as `(name, c, oc, kernel, padding, input size)`.
const SWEEP_CONVS: [(&str, usize, usize, usize, usize, usize); 6] = [
    ("lenet5_conv1", 1, 3, 5, 2, 28),
    ("lenet5_conv2", 3, 8, 5, 0, 14),
    ("cifarnet_conv1", 3, 11, 3, 1, 32),
    ("cifarnet_conv2", 11, 11, 3, 1, 32),
    ("cifarnet_conv3", 11, 22, 3, 1, 16),
    ("cifarnet_conv4", 22, 22, 3, 1, 8),
];

/// Times the weight and bias gradients of the six sweep convolutions at
/// batch 32 through the SIMD lowering and the direct kernel, in
/// alternating iterations, into the `simd.conv_wgrad.*` records, and gates
/// the speedup of every shape `conv_impl` routes to the direct kernel.
fn conv_wgrad(iters: usize, report: &mut Report) {
    if !simd::simd_available() {
        println!("  (no AVX2+FMA: simd.conv_wgrad.* not measured)");
        return;
    }
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let be = KernelBackend::Simd;
    const BATCH: usize = 32;
    for (name, c, oc, k, pad, hw) in SWEEP_CONVS {
        let geom = Conv2dGeometry::square(c, hw, k, 1, pad);
        let (oh, ow) = geom.output_hw().expect("sweep geometry");
        let x = init.tensor(&[BATCH, c, hw, hw], &mut rng);
        let dy = init.tensor(&[BATCH, oc, oh, ow], &mut rng);
        let grads = |imp| {
            let g = conv2d_weight_grad(be, &x, &dy, &geom, imp, None);
            black_box(g.expect("conv weight gradient"));
        };
        let (lowering_ns, direct_ns) = median_ns_pair(
            iters,
            || grads(ConvImpl::Lowering),
            || grads(ConvImpl::Direct),
        );
        let row = format!("simd.conv_wgrad.{name}.b{BATCH}");
        let x = speedup(lowering_ns, direct_ns);
        println!(
            "{:>28}: lowering {lowering_ns:>10} ns  direct {direct_ns:>10} ns  ({x:.2}x)",
            format!("{name}.b{BATCH}.dw")
        );
        report.push(format!("{row}.lowering_ns"), "ns", lowering_ns as f64);
        report.push(format!("{row}.direct_ns"), "ns", direct_ns as f64);
        let record = report.push(format!("{row}.speedup"), "x", x);
        if conv_impl(be, &geom) == ConvImpl::Direct {
            record.min(1.0);
        }
    }
}

/// Times a copy of the input and `fake_quantize_in_place` with its pass
/// mask over it (the `FakeQuant` forward), scalar body against AVX2 body,
/// on a LeNet-5 conv1-sized activation at Q1.3 and Q2.6 into the
/// `simd.fake_quantize.*` records; the speedup is gated on AVX2+FMA.
fn fake_quantize_rows(iters: usize, report: &mut Report) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(29);
    // Post-ReLU-like activations spanning both formats' ranges.
    let x = Init::Uniform { lo: -0.5, hi: 2.5 }.tensor(&[32 * 3 * 28 * 28], &mut rng);
    let (mut out, mut mask) = (vec![0.0f32; x.len()], vec![0.0f32; x.len()]);
    for (label, bits) in [("q1_3", 4), ("q2_6", 8)] {
        let fmt = QFormat::for_bitwidth(bits).expect("paper bitwidth");
        let mut time = |be: KernelBackend| {
            median_ns(iters, || {
                out.copy_from_slice(x.data());
                fake_quantize_in_place(be, fmt, &mut out, Some(&mut mask)).expect("lengths");
                black_box((&out, &mask));
            })
        };
        let scalar_ns = time(KernelBackend::Scalar);
        let simd_ns = time(KernelBackend::Simd);
        let x = speedup(scalar_ns, simd_ns);
        println!(
            "{:>28}: scalar {scalar_ns:>10} ns  simd {simd_ns:>10} ns  ({x:.2}x)",
            format!("fake_quantize.{label}")
        );
        let row = format!("simd.fake_quantize.{label}");
        report.push(format!("{row}.scalar_ns"), "ns", scalar_ns as f64);
        report.push(format!("{row}.simd_ns"), "ns", simd_ns as f64);
        let record = report.push(format!("{row}.speedup"), "x", x);
        if simd::simd_available() {
            record.min(1.0);
        }
    }
}

/// Times both passes of the six sweep convolutions through the SIMD
/// lowering and the direct kernels into the `simd.conv_direct.*` records,
/// and gates the speedup of every pass `conv_impl` routes to the direct
/// kernels. The direct kernels need AVX2+FMA, so other hosts write no
/// such record.
fn conv_direct(iters: usize, report: &mut Report) {
    if !simd::simd_available() {
        println!("  (no AVX2+FMA: simd.conv_direct.* not measured)");
        return;
    }
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let be = KernelBackend::Simd;
    for (name, c, oc, k, pad, hw) in SWEEP_CONVS {
        let geom = Conv2dGeometry::square(c, hw, k, 1, pad);
        let (oh, ow) = geom.output_hw().expect("sweep geometry");
        let weight = init.tensor(&[oc, c, k, k], &mut rng);
        let bias = init.tensor(&[oc], &mut rng);
        for batch in [1usize, 48] {
            let x = init.tensor(&[batch, c, hw, hw], &mut rng);
            let dy = init.tensor(&[batch, oc, oh, ow], &mut rng);
            // The direct forward leaves its scratch alone.
            let (mut scratch, mut untouched) = (ConvScratch::default(), ConvScratch::default());
            // What `Conv2d::forward` does per call: transpose the kernel,
            // then convolve into a fresh output.
            let forward = |imp, scratch: &mut ConvScratch| {
                let weight_t = weight.reshape(&[oc, geom.patch_len()]).and_then(|w| w.t());
                let weight_t = weight_t.expect("sweep kernel");
                let mut y = Tensor::zeros(&[batch, oc, oh, ow]);
                conv2d_forward(
                    be,
                    x.data(),
                    batch,
                    weight_t.data(),
                    bias.data(),
                    &geom,
                    imp,
                    scratch,
                    y.data_mut(),
                )
                .expect("conv forward");
                black_box(y);
            };
            let (fwd_lowering, fwd_direct) = median_ns_pair(
                iters,
                || forward(ConvImpl::Lowering, &mut scratch),
                || forward(ConvImpl::Direct, &mut untouched),
            );
            let input_grad = |imp| {
                let g = conv2d_input_grad(be, &dy, &weight, &geom, imp);
                black_box(g.expect("conv input gradient"));
            };
            let (dx_lowering, dx_direct) = median_ns_pair(
                iters,
                || input_grad(ConvImpl::Lowering),
                || input_grad(ConvImpl::Direct),
            );
            let gated = conv_impl(be, &geom) == ConvImpl::Direct;
            for (label, lowering_ns, direct_ns) in [
                ("fwd", fwd_lowering, fwd_direct),
                ("dx", dx_lowering, dx_direct),
            ] {
                let row = format!("simd.conv_direct.{name}.b{batch}.{label}");
                let x = speedup(lowering_ns, direct_ns);
                println!(
                    "{:>28}: lowering {lowering_ns:>10} ns  direct {direct_ns:>10} ns  ({x:.2}x)",
                    format!("{name}.b{batch}.{label}")
                );
                report.push(format!("{row}.lowering_ns"), "ns", lowering_ns as f64);
                report.push(format!("{row}.direct_ns"), "ns", direct_ns as f64);
                let record = report.push(format!("{row}.speedup"), "x", x);
                if gated {
                    record.min(1.0);
                }
            }
        }
    }
}

/// Times the f32 GEMM on both backends at two conv-forward shapes
/// (`cols · Wᵀ`: m = batch × output pixels, k = patch length, n = output
/// channels) into the `simd.gemm_conv_*` records.
fn conv_width_gemms(iters: usize, report: &mut Report) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    for (name, m, k, n) in [
        ("gemm_conv_lenet_conv1", 48 * 28 * 28, 25, 3),
        ("gemm_conv_cifar_conv2", 48 * 32 * 32, 99, 11),
    ] {
        let a = init.tensor(&[m, k], &mut rng);
        let b = init.tensor(&[k, n], &mut rng);
        let packed = PackedGemmB::pack(b.data(), k, n).expect("pack");
        let mut out = vec![0.0f32; m * n];
        let mut time = |be: KernelBackend| {
            median_ns(iters, || {
                gemm_prepacked(be, a.data(), m, &packed, &mut out).expect("gemm");
                black_box(&out);
            })
        };
        let scalar_ns = time(KernelBackend::Scalar);
        let simd_ns = time(KernelBackend::Simd);
        let x = speedup(scalar_ns, simd_ns);
        let row = format!("simd.{name}.dense");
        println!(
            "{:>28}: scalar {scalar_ns:>10} ns  simd {simd_ns:>10} ns  ({x:.2}x)",
            format!("{name}.dense")
        );
        report.push(format!("{row}.scalar_ns"), "ns", scalar_ns as f64);
        report.push(format!("{row}.simd_ns"), "ns", simd_ns as f64);
        let record = report.push(format!("{row}.speedup"), "x", x);
        if simd::simd_available() {
            record.min(1.0);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::parse(
        std::env::args().skip(1),
        &[("--out", "BENCH_kernels.json"), ("--iters", "200")],
    )?;
    let iters: usize = flags.num("--iters")?;

    const SIZE: usize = 128;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let a = init.tensor(&[SIZE, SIZE], &mut rng);
    let b = init.tensor(&[SIZE, SIZE], &mut rng);
    // Conv lowering at CIFAR-net geometry (batch 8, 3→, 32×32, 3×3 kernel).
    let geom = Conv2dGeometry::square(3, 32, 3, 1, 1);
    let x = init.tensor(&[8, 3, 32, 32], &mut rng);
    // Attack-step elementwise ops on a batch of CIFAR images.
    let g = init.tensor(&[64 * 3 * 32 * 32], &mut rng);
    let h = init.tensor(&[64 * 3 * 32 * 32], &mut rng);

    let mut kernels = Vec::new();
    let mut time = |name: &'static str, iters: usize, f: &mut dyn FnMut()| {
        let median = median_ns(iters, f);
        println!("{name:>28}: {median:>12} ns/iter  ({iters} iters)");
        kernels.push((name, iters, median));
        median
    };
    let pooled = time("matmul_pooled_128", iters, &mut || {
        black_box(a.matmul(&b).unwrap());
    });
    let spawned = time("matmul_spawn_per_call_128", iters, &mut || {
        black_box(a.matmul_spawn_per_call(&b).unwrap());
    });
    time("matmul_naive_128", iters.min(50), &mut || {
        black_box(a.matmul_naive(&b).unwrap());
    });
    time("im2col_cifar_b8", iters, &mut || {
        black_box(im2col(&x, &geom).unwrap());
    });
    time("elementwise_sign_196k", iters, &mut || {
        black_box(g.sign());
    });
    time("elementwise_add_196k", iters, &mut || {
        black_box(g.add(&h).unwrap());
    });

    let mut report = Report::new("kernels");
    let threads = pool::available_threads();
    report.push("gemm_size", "count", SIZE as f64);
    report.push("threads", "count", threads as f64);
    report.push("pooled_median_ns", "ns", pooled as f64);
    report.push("spawn_median_ns", "ns", spawned as f64);
    let pooled_speedup = speedup(spawned, pooled);
    report.push("pooled_speedup_vs_spawn", "x", pooled_speedup);
    for (name, iters, median) in kernels {
        report.push(format!("{name}.median_ns"), "ns", median as f64);
        report.push(format!("{name}.iters"), "count", iters as f64);
    }
    println!("\npooled speedup vs spawn-per-call: {pooled_speedup:.2}x  (threads={threads})\n");

    simd_ablation(iters, &mut report);
    report.finish(flags.get("--out"))?;
    Ok(())
}
