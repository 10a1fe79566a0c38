#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints (warnings are errors), then tests,
# then the conformance harness's golden-drift gate. Run before sending a
# PR; CI mirrors these steps. See TESTING.md for the harness layout.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: a deleted or renamed item must not leave a dangling
# intra-doc link behind, and public docs must not link private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

# Full workspace suite — includes the advcomp-testkit pillars (goldens,
# differential kernel fuzzing, determinism, gradcheck). --locked fails on a
# stale Cargo.lock instead of silently rewriting it.
cargo test --workspace -q --locked

# Pooled paths: `with_thread_cap(n)` is clamped to the pool size, so on a
# 1-core host every cap in the kernels suite runs serially. A pool of 8
# makes its 2- and 8-way caps split into real bands and run chunks on
# helper threads. It also gives `craft_all` seven helpers, so DeepFool's
# samples interleave across threads beside the batch attacks, and the
# crafts and health events must still equal serial `generate` calls bit
# for bit.
ADVCOMP_THREADS=8 cargo test -q --locked -p advcomp-tensor --test kernels >/dev/null
echo "kernels: pooled bands agree at ADVCOMP_THREADS=8"
ADVCOMP_THREADS=8 cargo test -q --locked -p advcomp-testkit --test craft_concurrency >/dev/null
echo "crafting: craft_all equals serial generate at ADVCOMP_THREADS=8"

# Golden-drift gate: regenerate the checked-in golden vectors in place and
# fail if they differ from HEAD. A stale golden already fails `cargo test`;
# this direction catches the opposite mistake — a regenerated golden that
# was never reviewed/committed. The quant_parity suite owns the packed
# LeNet forward golden, so regenerate under it too.
REGEN_GOLDENS=1 cargo test -q -p advcomp-testkit --test goldens >/dev/null
REGEN_GOLDENS=1 cargo test -q -p advcomp-testkit --test quant_parity >/dev/null
if ! git diff --exit-code --stat -- tests/goldens; then
    echo "error: golden vectors drifted; review the diff above and either" >&2
    echo "       fix the numeric regression or commit the regenerated goldens" >&2
    exit 1
fi
echo "goldens: no drift"

# Kernel parity: the scalar and SIMD backends must agree — bit-exact for
# the elementwise and fused attack-step kernels, 1e-5 relative L2 for the
# FMA GEMM and reassociated reductions. The suite compares explicit
# backends internally; running it under both ADVCOMP_KERNEL values also
# exercises the dispatch layer each way.
for kernel in scalar simd; do
    ADVCOMP_KERNEL="$kernel" \
        cargo test -q -p advcomp-testkit --test kernel_parity >/dev/null
done
echo "kernel parity: scalar and simd agree"

# Quantised-execution parity: packed 4- and 8-bit codes (one byte each,
# one scale per tensor) must round-trip the QFormat grid bit-exactly, the
# fused int8 GEMM and frozen conv must sit within 1e-5 relative L2 of an
# f64 reference, and the packed LeNet forward must be bit-identical to
# the simulated FakeQuant forward on the scalar backend. Run under both
# dispatch values like kernel_parity.
for kernel in scalar simd; do
    ADVCOMP_KERNEL="$kernel" \
        cargo test -q -p advcomp-testkit --test quant_parity >/dev/null
done
echo "quant parity: packed storage and int8 kernels agree"

# Graph-compiler parity: the compiled ExecPlan forward — the only eval
# forward — must be per-logit bit-identical to Sequential::forward for
# both paper nets at f32, q8-frozen, q4-frozen (plan and layer share the
# same packed codes and int8 kernels) and DNS-pruned (scalar-vs-SIMD
# plans additionally compared under the 1e-5 relative-L2 gate), and so
# must a stride-2 fixture whose conv lowers under either dispatch value
# (the paper nets' convs all run direct under simd), with its lowering
# scratch allocation-free in the steady state; the Dense+ReLU fusion must
# fire on its pattern, a ReLU after a non-GEMM layer must stay bit-exact
# as a standalone step, and the static memory plan must never alias
# simultaneously live buffers under any topological order. Run under
# both dispatch values like kernel_parity.
for kernel in scalar simd; do
    ADVCOMP_KERNEL="$kernel" \
        cargo test -q -p advcomp-testkit --test graph_parity >/dev/null
done
echo "graph parity: compiled plans bit-identical to Sequential"

# Paper-claim verdicts: `summary` reads the committed results/ CSVs (no
# retraining, seconds) and exits 1 when any claim's verdict is ✗ — Figure
# 6's included, which checks that 4-bit weights lie on the Q1.3 grid and
# carry more zero mass than 16-bit weights.
cargo run -q --locked -p advcomp-bench --bin summary
echo "summary: every paper-claim verdict holds over results/"

# Benchmark smoke: advbench is a separate package, so the workspace suite
# does not run its tests. Its traced sweep smoke checks that run_point's
# records equal a pipeline rebuilt from public calls, bit for bit — the
# eval path must stay bit-identical to the layer path it replaced.
cargo test -q --offline --locked --manifest-path advbench/Cargo.toml >/dev/null
echo "advbench: smoke runs and traced sweep bit-identity OK"

# Fault-injection smoke: a tiny sweep with a sticky panic injected at one
# point must still exit 0, keeping the surviving point and recording the
# failure with its retry count (the partial-result contract).
ADVCOMP_FAULTS="panic:sweep_point:1:sticky" \
    cargo run -q -p advcomp-bench --bin faultsmoke
echo "fault smoke: partial-result recovery OK"

# Distributed-sweep smoke: a 3-worker lease-coordinated sweep with a panic
# injected into one worker's heartbeat path must re-dispatch the dead
# worker's point (--expect-redispatch makes that an exit-code assertion)
# and still produce curves byte-identical to a single-process baseline;
# a re-run over the same journal must resume every point without
# recomputing. See DESIGN.md "Distributed execution".
cargo build -q -p advcomp-bench --bin dist_sweep
dist_tmp="$(mktemp -d)"
ADVCOMP_FAULTS="panic:dist_heartbeat:0" \
    ./target/debug/dist_sweep --workers 3 --run-dir "$dist_tmp/run" \
    --heartbeat-ms 50 --lease-ms 400 --slow-ms 300 \
    --expect-redispatch --out "$dist_tmp/dist.json" >/dev/null
./target/debug/dist_sweep --baseline --out "$dist_tmp/base.json" >/dev/null
cmp "$dist_tmp/dist.json" "$dist_tmp/base.json"
./target/debug/dist_sweep --workers 3 --run-dir "$dist_tmp/run" \
    --expect-resumed-all --out "$dist_tmp/resume.json" >/dev/null
cmp "$dist_tmp/resume.json" "$dist_tmp/base.json"
rm -rf "$dist_tmp"
echo "dist smoke: worker death re-dispatched; curves bit-identical; resume OK"

# Serve smoke: a real TCP server on an ephemeral port driven with mixed
# traffic — concurrent predictions, control commands, an oversized frame
# header, malformed JSON — ending in a clean protocol-level shutdown, then
# an open-loop goodput-vs-offered-load curve against an admission-capped
# server (the curve shape is asserted, not a host-specific rps number).
cargo run -q -p advcomp-serve --bin serve_smoke
echo "serve smoke: batching, backpressure, framing and open-loop curve OK"

# Serve soak: time-boxed chaos run — connection resets mid-frame, short
# reads, oversized frames from concurrent hostile clients, plus
# deterministic ADVCOMP_FAULTS injections at the serve_conn_read and
# serve_batch sites — the server must stay available, count every failure
# in its metrics, and shed rather than hang. The same suites run under
# `cargo test`; this stage pins them as an explicit gate (and `--ignored`
# runs the long soak).
cargo test -q -p advcomp-serve --test soak >/dev/null
cargo test -q -p advcomp-serve --test batching >/dev/null
cargo test -q -p advcomp-serve --test hot_swap >/dev/null
echo "serve soak: chaos, batching and hot-swap suites OK"

# Bench gates: every measurement bench writes one record schema and
# checks its own gates after writing, exiting 1 with every failed record
# listed. The fifteen gates: on AVX2+FMA the SIMD GEMM is not slower than
# scalar at 128³, the SIMD dense GEMM is not slower than scalar at the
# conv-width shapes (LeNet-5 conv1 and CifarNet conv2 forwards, whose
# output widths are channel counts), the direct convolution kernels are
# not slower than the SIMD im2col lowering on any pass conv_impl sends
# them (forward and input gradient of the six sweep convolutions, batch 1
# and 48) nor on their weight gradients (batch 32), the AVX2
# fake-quantiser is not slower than its scalar body (Q1.3 and Q2.6, a
# LeNet-5 conv1-sized activation), and the packed Q8 GEMM is not slower
# than dense f32; every
# graph row has zero steady-state allocations, and on AVX2 compiled q8
# LeNet-5 is >= 1.3x unfused and compiled f32 LeNet-5 and CifarNet are
# each >= 1x the layer path (all timed in alternating iterations, at the
# bench's default 60); the detect fixture AUC is >= 0.9, and a live
# guarded engine flags an offline-crafted UAP more often than clean
# traffic and at a rate >= 0.15; with the core count of the committed
# BENCH_serve.json the 8-worker knee is >= 0.6x the committed one, and on
# >= 8 cores the 8-worker knee is >= 3x the 1-worker knee. A gate whose
# hardware condition fails is not attached. Reports go to a scratch dir,
# so the checked-in BENCH_*.json files change only through
# scripts/bench.sh.
cargo build -q --release -p advcomp-bench --features bench-ablation
bench_tmp="$(mktemp -d)"
for run in "kernel --iters 25" "quant --iters 25" "graph" \
    "detect --iters 50" "serve --workers 1,8 --duration-ms 400"; do
    read -r bench flags <<<"$run"
    # shellcheck disable=SC2086 # $flags holds several words on purpose
    ./target/release/"${bench}_bench" --out "$bench_tmp/$bench.json" $flags >/dev/null
done
rm -rf "$bench_tmp"
echo "bench gates: kernel, quant, graph, detect and serve records within their gates"
