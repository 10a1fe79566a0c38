//! Graph-compiler parity: the compiled [`ExecPlan`] forward vs
//! `Sequential::forward`, pillar 8 of the verification strategy.
//!
//! The compiler's contract is *replication, not approximation*: the plan
//! dispatches into the same tensor kernels with the same operand order and
//! banding thresholds the layers use, so its forward must be
//! **bit-identical per logit** to the layer-at-a-time forward — for both
//! hard-coded paper nets, at f32, q8-frozen and q4-frozen, under whichever
//! backend the process pins (`scripts/check.sh` runs this suite under both
//! `ADVCOMP_KERNEL=scalar` and `simd`). Scalar-vs-SIMD *plans* are
//! additionally compared under a relative-L2 gate, since FMA reassociation
//! makes cross-backend equality approximate.
//!
//! Both forwards must also be **batch-invariant**: row `i` of a batch-B
//! forward is sample `i`'s batch-1 forward, bit for bit, at B ∈ {1, 3, 16,
//! 64} over the task's own test inputs, so a sample's logits never depend
//! on what it was batched with (no kernel may choose its arithmetic from
//! the whole batch).
//!
//! The DNS-pruned cases cover the sweep's pruned recipes, the trained
//! cases the sparse activations of the sweep's baselines, and batch 64 is
//! the batch `evaluate_model` runs. Plan and layer run one f32 convolution
//! forward (`tensor::conv2d_forward`), by the implementation `conv_impl`
//! picks: on AVX2 the paper nets' stride-1 convs all run the direct
//! kernels, so the `strided` fixture's stride-2 conv keeps the plan's
//! lowering branch pinned under `ADVCOMP_KERNEL=simd` too.
//!
//! Alongside end-to-end parity: per-pattern unit tests (a ReLU after a
//! non-GEMM layer through the standalone step, dense+bias+ReLU fusion,
//! quant→dequant elision, int8 chaining), the static memory plan's no-aliasing invariant
//! over every topological order of a branching schedule, and the
//! zero-allocation steady-state hook on frozen LeNet-5 and the `strided`
//! fixture.

use advcomp_attacks::NetKind;
use advcomp_compress::{DnsPruner, Quantizer, TrainConfig};
use advcomp_core::{ExperimentScale, TaskSetup, TrainedModel};
use advcomp_graph::{plan_arena, validate_no_alias, BufferLife, ExecPlan};
use advcomp_models::{cifarnet, lenet5, ModelKind};
use advcomp_nn::{Conv2d, Dense, Flatten, MaxPool2d, Mode, Relu, Sequential};
use advcomp_tensor::{simd, KernelBackend, Tensor};
use advcomp_testkit::fixtures::{strided, STRIDED_INPUT};
use advcomp_testkit::DetRng;
use rand::SeedableRng;

/// The batch sizes of every parity check; 64 is the batch `evaluate_model`
/// runs.
const BATCHES: [usize; 4] = [1, 3, 16, 64];

/// Relative L2 distance `|a - b|₂ / max(|b|₂, ε)`.
fn rel_l2(actual: &[f32], expected: &[f32]) -> f64 {
    assert_eq!(actual.len(), expected.len(), "length mismatch");
    let mut diff = 0.0f64;
    let mut norm = 0.0f64;
    for (&a, &e) in actual.iter().zip(expected) {
        diff += (f64::from(a) - f64::from(e)).powi(2);
        norm += f64::from(e).powi(2);
    }
    (diff / norm.max(1e-30)).sqrt()
}

/// Cross-backend (FMA-reassociation) gate, matching `quant_parity`.
const REL_L2_GATE: f64 = 1e-5;

/// A deterministic input batch of per-sample `shape`.
fn net_batch(shape: &[usize], seed: u64, batch: usize) -> Tensor {
    let mut rng = DetRng::new(seed);
    let numel: usize = shape.iter().product();
    let data = rng.vec_f32(batch * numel, 0.0, 1.0);
    let mut full = vec![batch];
    full.extend_from_slice(shape);
    Tensor::new(&full, data).expect("fixture shape is consistent")
}

/// The two paper nets, at reduced width so the suite stays fast while
/// covering every layer pattern.
fn paper_nets(seed: u64) -> Vec<(NetKind, &'static str, Sequential)> {
    vec![
        (NetKind::LeNet5, "lenet5", lenet5(0.5, seed)),
        (NetKind::CifarNet, "cifarnet", cifarnet(0.25, seed)),
    ]
}

/// The first 64 test inputs of `net`'s task at `tiny` scale.
fn task_rows(net: NetKind) -> Tensor {
    let setup = TaskSetup::new(net, &ExperimentScale::tiny());
    let (rows, _) = setup
        .test
        .slice(0, 64)
        .expect("the tiny test split holds 64");
    rows
}

/// Asserts, at every batch size of [`BATCHES`] over the leading rows of
/// `inputs`, that the compiled plan's logits equal the `Sequential`
/// forward's bit for bit, and that row `i` of each equals sample `i`'s
/// batch-1 `Sequential` forward bit for bit.
fn assert_bit_exact(name: &str, inputs: &Tensor, model: &mut Sequential) {
    let input_shape = &inputs.shape()[1..];
    let mut plan = ExecPlan::compile(model, input_shape).expect("plan compiles without hand edits");
    let alone: Vec<Tensor> = (0..BATCHES[BATCHES.len() - 1])
        .map(|i| {
            let x = inputs.narrow(i, 1).expect("inputs hold every batch");
            model.forward(&x, Mode::Eval).expect("batch-1 forward")
        })
        .collect();
    for batch in BATCHES {
        let x = inputs.narrow(0, batch).expect("inputs hold every batch");
        let want = model.forward(&x, Mode::Eval).expect("reference forward");
        let got = plan.forward(&x).expect("compiled forward");
        assert_eq!(want.shape(), got.shape(), "{name}: shape diverged");
        for (i, (w, g)) in want.data().iter().zip(got.data()).enumerate() {
            assert!(
                w.to_bits() == g.to_bits(),
                "{name}: logit {i} diverged at batch {batch}: {w} vs {g}"
            );
        }
        for (i, one) in alone[..batch].iter().enumerate() {
            let classes = one.len();
            for (path, logits) in [("Sequential", &want), ("plan", &got)] {
                let row = &logits.data()[i * classes..(i + 1) * classes];
                assert!(
                    row.iter()
                        .zip(one.data())
                        .all(|(r, o)| r.to_bits() == o.to_bits()),
                    "{name}: {path} row {i} at batch {batch} is {row:?}, its batch-1 forward {:?}",
                    one.data()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end parity: both nets × {f32, q8-frozen, q4-frozen}.
// ---------------------------------------------------------------------------

#[test]
fn compiled_forward_is_bit_exact_f32() {
    for (net, name, mut model) in paper_nets(21) {
        assert_bit_exact(name, &task_rows(net), &mut model);
    }
}

#[test]
fn compiled_forward_is_bit_exact_q8_frozen() {
    for (net, name, mut model) in paper_nets(22) {
        let frozen = Quantizer::for_bitwidth(8)
            .unwrap()
            .quantize_frozen(&mut model)
            .unwrap();
        assert!(frozen > 0, "{name}: nothing froze");
        assert_bit_exact(name, &task_rows(net), &mut model);
    }
}

#[test]
fn compiled_forward_is_bit_exact_q4_frozen() {
    // Q4 weights hold one byte per code like Q8, and the plan shares the
    // layer's blocks, so both paths run the same int8 kernel.
    for (net, name, mut model) in paper_nets(23) {
        let frozen = Quantizer::for_bitwidth(4)
            .unwrap()
            .quantize_frozen(&mut model)
            .unwrap();
        assert!(frozen > 0, "{name}: nothing froze");
        assert_bit_exact(name, &task_rows(net), &mut model);
    }
}

#[test]
fn compiled_forward_is_bit_exact_dns_pruned() {
    for density in [0.5, 0.1] {
        for (net, name, mut model) in paper_nets(26) {
            // A short DNS fine-tune on real task data, as the sweep's
            // `DnsPrune` recipe runs it, so the mask has moved off its
            // one-shot magnitude start.
            let setup = TaskSetup::new(net, &ExperimentScale::tiny());
            let train = setup.train.take(64).unwrap();
            let pruner = DnsPruner {
                update_every: 1,
                ..DnsPruner::new(density)
            };
            let mask = pruner
                .prune_and_finetune(&mut model, &train, &TrainConfig::paper(1))
                .unwrap();
            let kept = mask.overall_density();
            assert!(
                (kept - density).abs() < 0.05,
                "{name}: density {kept} off target {density}"
            );
            let (rows, _) = setup.test.slice(0, 64).unwrap();
            assert_bit_exact(name, &rows, &mut model);
        }
    }
}

/// Both nets trained at `tiny` scale (seed 11): their `Dense` layers see
/// the sparse activations a trained net makes, where a kernel picked by
/// the batch's density would make a sample's logits depend on its
/// batchmates.
#[test]
fn compiled_forward_is_bit_exact_trained() {
    let scale = ExperimentScale::tiny();
    for net in [NetKind::LeNet5, NetKind::CifarNet] {
        let setup = TaskSetup::new(net, &scale);
        let trained = TrainedModel::train(&setup, &scale, 11).expect("tiny baseline trains");
        let mut model = trained.instantiate().expect("checkpoint restores");
        let (rows, _) = setup.test.slice(0, 64).unwrap();
        assert_bit_exact(&format!("{net:?} trained"), &rows, &mut model);
    }
}

#[test]
fn compiled_forward_is_bit_exact_simulated_quant() {
    // Activation formats installed but weights not frozen: the Quantize
    // nodes stay in the graph (nothing elides them) and run as in-place
    // elementwise steps, at both of the paper's packed formats (Q1.3 and
    // Q2.6) — the fake-quantiser the plan and `FakeQuant` share.
    for bits in [4, 8] {
        for (net, name, mut model) in paper_nets(24) {
            Quantizer::for_bitwidth(bits).unwrap().quantize(&mut model);
            let rows = task_rows(net);
            let plan = ExecPlan::compile(&model, &rows.shape()[1..]).unwrap();
            let name = format!("{name} {bits}-bit");
            assert_eq!(
                plan.stats().elided_quantize,
                0,
                "{name}: simulated quantise must not elide"
            );
            assert_bit_exact(&name, &rows, &mut model);
        }
    }
}

/// The `strided` fixture's 3×3 stride-2 conv lowers on every backend and
/// its 1×1 conv runs direct on AVX2, at f32 and with FakeQuant formats
/// installed (Q1.3 and Q2.6).
#[test]
fn compiled_forward_is_bit_exact_strided() {
    let inputs = net_batch(&STRIDED_INPUT, 7, 64);
    assert_bit_exact("strided f32", &inputs, &mut strided(27));
    for bits in [4, 8] {
        let mut model = strided(28);
        Quantizer::for_bitwidth(bits).unwrap().quantize(&mut model);
        let name = format!("strided {bits}-bit");
        assert_bit_exact(&name, &inputs, &mut model);
    }
}

#[test]
fn scalar_and_simd_plans_agree_within_rel_l2() {
    if !simd::simd_available() {
        return;
    }
    for (net, name, mut model) in paper_nets(25) {
        let shape = match net {
            NetKind::LeNet5 => ModelKind::LeNet5,
            NetKind::CifarNet => ModelKind::CifarNet,
        }
        .input_shape();
        Quantizer::for_bitwidth(8)
            .unwrap()
            .quantize_frozen(&mut model)
            .unwrap();
        let mut scalar =
            ExecPlan::compile_with_backend(&model, shape, KernelBackend::Scalar).unwrap();
        let mut vector =
            ExecPlan::compile_with_backend(&model, shape, KernelBackend::Simd).unwrap();
        let x = net_batch(shape, 31, 4);
        let a = scalar.forward(&x).unwrap();
        let b = vector.forward(&x).unwrap();
        let err = rel_l2(b.data(), a.data());
        assert!(err <= REL_L2_GATE, "{name}: scalar vs simd rel-L2 {err}");
    }
}

// ---------------------------------------------------------------------------
// Pass-level unit tests: each fusion pattern in isolation.
// ---------------------------------------------------------------------------

/// A ReLU after max pooling has no GEMM to fuse into, so it runs as the
/// standalone in-place step.
#[test]
fn relu_after_pool_bit_exact_through_standalone_step() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(40);
    let mut model = Sequential::new(vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(4 * 4 * 4, 3, &mut rng)),
    ]);
    let mut plan = ExecPlan::compile(&model, &[1, 8, 8]).unwrap();
    // The ReLU follows the pool, not the conv, so nothing fuses.
    assert_eq!(plan.stats().fused_conv_act, 0);
    let data = DetRng::new(42).vec_f32(3 * 64, -1.0, 1.0);
    let x = Tensor::new(&[3, 1, 8, 8], data).unwrap();
    let want = model.forward(&x, Mode::Eval).unwrap();
    let got = plan.forward(&x).unwrap();
    assert_eq!(want.data(), got.data());
}

/// dense + bias + ReLU fuses into the GEMM epilogue.
#[test]
fn fuses_dense_activation_bit_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(50);
    let mut model = Sequential::new(vec![
        Box::new(Dense::new(16, 8, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(8, 3, &mut rng)),
    ]);
    let mut plan = ExecPlan::compile(&model, &[16]).unwrap();
    assert_eq!(plan.stats().fused_dense_act, 1);
    let data = DetRng::new(51).vec_f32(4 * 16, -1.0, 1.0);
    let x = Tensor::new(&[4, 16], data).unwrap();
    let want = model.forward(&x, Mode::Eval).unwrap();
    let got = plan.forward(&x).unwrap();
    assert_eq!(want.data(), got.data());
}

/// In a fully-frozen net every FakeQuant round trip elides into the
/// downstream packed GEMM, and the dense tail exchanges int8 codes.
#[test]
fn elides_quant_dequant_and_chains_int8() {
    let mut model = lenet5(0.5, 60);
    Quantizer::for_bitwidth(8)
        .unwrap()
        .quantize_frozen(&mut model)
        .unwrap();
    let fq_count = model
        .layers()
        .iter()
        .filter(|l| l.kind() == "fakequant")
        .count();
    let plan = ExecPlan::compile(&model, &[1, 28, 28]).unwrap();
    assert_eq!(
        plan.stats().elided_quantize,
        fq_count,
        "every FakeQuant must elide into a packed GEMM"
    );
    // fc1→fc2 and fc2→fc3 exchange codes directly.
    assert_eq!(plan.stats().int8_chain_links, 2);
}

/// A quantise point that does NOT feed a matching packed GEMM must stay.
#[test]
fn keeps_quantize_without_matching_consumer() {
    // Simulated path: formats installed, no packed weights downstream.
    let mut model = lenet5(0.5, 61);
    Quantizer::for_bitwidth(8).unwrap().quantize(&mut model);
    let plan = ExecPlan::compile(&model, &[1, 28, 28]).unwrap();
    assert_eq!(plan.stats().elided_quantize, 0);
    assert_eq!(plan.stats().int8_chain_links, 0);
}

// ---------------------------------------------------------------------------
// Memory plan: no aliasing under every topological order.
// ---------------------------------------------------------------------------

/// A small branching schedule: value 0 feeds 1 and 2 (a diamond), both
/// feed 3, plus an independent chain 4→5. Enumerate every topological
/// order of the consumers, derive buffer lifetimes from each order, and
/// assert the planner never aliases simultaneously-live buffers.
#[test]
fn memory_plan_never_aliases_under_any_topological_order() {
    // op -> (output buffer size, inputs)
    let ops: Vec<(usize, Vec<usize>)> = vec![
        (100, vec![]),    // 0: source a
        (60, vec![0]),    // 1: left branch
        (140, vec![0]),   // 2: right branch
        (80, vec![1, 2]), // 3: join
        (50, vec![]),     // 4: source b
        (70, vec![4]),    // 5: chain off b
    ];
    let orders = topological_orders(&ops);
    assert!(orders.len() > 1, "diamond must admit multiple orders");
    for order in &orders {
        // position[op] = schedule slot
        let mut position = vec![0usize; ops.len()];
        for (slot, &op) in order.iter().enumerate() {
            position[op] = slot;
        }
        let lives: Vec<BufferLife> = ops
            .iter()
            .enumerate()
            .map(|(op, (size, _))| {
                let def = position[op];
                let last_use = ops
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, ins))| ins.contains(&op))
                    .map(|(consumer, _)| position[consumer])
                    .max()
                    .unwrap_or(def);
                BufferLife {
                    size: *size,
                    def,
                    last_use,
                }
            })
            .collect();
        let plan = plan_arena(&lives);
        validate_no_alias(&lives, &plan).unwrap_or_else(|e| panic!("order {order:?} aliased: {e}"));
        // Sanity: reuse must actually happen in at least the chain case.
        assert!(plan.arena_len <= plan.total_len);
    }
}

/// All topological orders of a tiny DAG by exhaustive recursion.
fn topological_orders(ops: &[(usize, Vec<usize>)]) -> Vec<Vec<usize>> {
    fn recurse(
        ops: &[(usize, Vec<usize>)],
        done: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if done.len() == ops.len() {
            out.push(done.clone());
            return;
        }
        for op in 0..ops.len() {
            if used[op] {
                continue;
            }
            if ops[op].1.iter().all(|i| done.contains(i)) {
                used[op] = true;
                done.push(op);
                recurse(ops, done, used, out);
                done.pop();
                used[op] = false;
            }
        }
    }
    let mut out = Vec::new();
    recurse(ops, &mut Vec::new(), &mut vec![false; ops.len()], &mut out);
    out
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state on the real acceptance net.
// ---------------------------------------------------------------------------

/// After one warm-up forward, repeated forwards of `x` grow no plan-owned
/// buffer, and a plan pre-sized for the batch never allocates at all.
fn assert_steady_state_allocation_free(name: &str, model: &Sequential, x: &Tensor) {
    let shape = &x.shape()[1..];
    let mut plan = ExecPlan::compile(model, shape).unwrap();
    let mut out = Tensor::zeros(&[0]);
    plan.forward_into(x, &mut out).unwrap();
    let warm = plan.alloc_events();
    for _ in 0..8 {
        plan.forward_into(x, &mut out).unwrap();
    }
    assert_eq!(
        plan.alloc_events(),
        warm,
        "{name}: steady-state compiled forward must not grow plan-owned buffers"
    );
    let mut fresh = ExecPlan::compile(model, shape).unwrap();
    fresh.reserve_batch(x.shape()[0]);
    fresh.forward_into(x, &mut out).unwrap();
    assert_eq!(fresh.alloc_events(), 0, "{name}: reserved plan allocated");
}

#[test]
fn frozen_lenet5_steady_state_is_allocation_free() {
    let mut model = lenet5(0.5, 70);
    Quantizer::for_bitwidth(8)
        .unwrap()
        .quantize_frozen(&mut model)
        .unwrap();
    let x = net_batch(ModelKind::LeNet5.input_shape(), 71, 4);
    assert_steady_state_allocation_free("frozen lenet5", &model, &x);
}

/// The lowered conv's patch matrix and GEMM rows live in plan-owned
/// scratch, which the steady state must not grow either.
#[test]
fn strided_steady_state_is_allocation_free() {
    let x = net_batch(&STRIDED_INPUT, 72, 4);
    assert_steady_state_allocation_free("strided", &strided(29), &x);
}
