#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints (warnings are errors), then tests,
# then the conformance harness's golden-drift gate. Run before sending a
# PR; CI mirrors these steps. See TESTING.md for the harness layout.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

# Full workspace suite — includes the advcomp-testkit pillars (goldens,
# differential kernel fuzzing, determinism, gradcheck). --locked fails on a
# stale Cargo.lock instead of silently rewriting it.
cargo test --workspace -q --locked

# Pooled kernel paths: `with_thread_cap(n)` is clamped to the pool size,
# so on a 1-core host every cap in the kernels suite runs serially. A
# pool of 8 makes its 2- and 8-way caps split into real bands and run
# chunks on helper threads.
ADVCOMP_THREADS=8 cargo test -q --locked -p advcomp-tensor --test kernels >/dev/null
echo "kernels: pooled bands agree at ADVCOMP_THREADS=8"

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

# Quantised-execution parity: packed Q8/Q4 storage must round-trip the
# QFormat grid bit-exactly, the fused int8 GEMM and frozen conv must sit
# within 1e-5 relative L2 of an f64 reference, and the packed LeNet
# forward must be bit-identical to the simulated FakeQuant forward on the
# scalar backend. Run under both dispatch values like kernel_parity.
for kernel in scalar simd; do
    ADVCOMP_KERNEL="$kernel" \
        cargo test -q -p advcomp-testkit --test quant_parity >/dev/null
done
echo "quant parity: packed storage and int8 kernels agree"

# Graph-compiler parity: the compiled ExecPlan forward — the only eval
# forward — must be per-logit bit-identical to Sequential::forward for
# both paper nets at f32, q8-frozen, q4-frozen and DNS-pruned
# (scalar-vs-SIMD plans additionally compared under the 1e-5 relative-L2
# gate), the Dense+activation fusion must fire on its pattern, BatchNorm
# must stay bit-exact as a standalone step, and the static memory plan
# must never alias simultaneously live buffers under any topological
# order. Run under both dispatch values like kernel_parity.
for kernel in scalar simd; do
    ADVCOMP_KERNEL="$kernel" \
        cargo test -q -p advcomp-testkit --test graph_parity >/dev/null
done
echo "graph parity: compiled plans bit-identical to Sequential"

# SIMD regression gate: on an AVX2+FMA host the dispatched GEMM must not be
# slower than the scalar path (--check-simd is a no-op on hosts without
# AVX2). Reports go to a scratch dir so the checked-in BENCH_simd.json only
# changes when regenerated deliberately via scripts/bench_kernels.sh.
cargo build -q --release -p advcomp-bench --features bench-ablation --bin kernel_bench
simd_tmp="$(mktemp -d)"
./target/release/kernel_bench --iters 25 --out "$simd_tmp/kernels.json" \
    --simd-out "$simd_tmp/simd.json" --check-simd >/dev/null
rm -rf "$simd_tmp"
echo "simd gate: dispatched GEMM not slower than scalar"

# Integer-execution regression gate: on an AVX2 host the packed Q8 GEMM
# must not be slower than the dense f32 SIMD GEMM at the 128³ bench shape
# (a no-op without AVX2). Same scratch-dir convention as the simd gate so
# the checked-in BENCH_quant.json only changes via scripts/bench_quant.sh.
cargo build -q --release -p advcomp-bench --bin quant_bench
quant_tmp="$(mktemp -d)"
./target/release/quant_bench --iters 25 --out "$quant_tmp/quant.json" \
    --check-quant >/dev/null
rm -rf "$quant_tmp"
echo "quant gate: packed Q8 GEMM not slower than dense f32"

# Graph-compiler regression gate: on an AVX2 host the compiled q8-frozen
# LeNet-5 forward must be >= 1.3x the unfused layer path (the speedup
# clause is a no-op without AVX2), and the steady-state compiled forward
# must perform zero heap allocations on every model x format (asserted
# unconditionally). Same scratch-dir convention as the simd/quant gates
# so the checked-in BENCH_graph.json only changes via
# scripts/bench_graph.sh.
cargo build -q --release -p advcomp-bench --bin graph_bench
graph_tmp="$(mktemp -d)"
./target/release/graph_bench --iters 25 --out "$graph_tmp/graph.json" \
    --check-graph >/dev/null
rm -rf "$graph_tmp"
echo "graph gate: compiled q8 LeNet-5 >= 1.3x unfused, zero steady-state allocs"

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
cargo test -q -p advcomp-serve --test shard_stealing >/dev/null
cargo test -q -p advcomp-serve --test hot_swap >/dev/null
echo "serve soak: chaos, stealing and hot-swap suites OK"

# Detection regression gate: the disagreement detector must keep AUC >=
# 0.9 separating clean traffic from *successful* small-step IFGSM
# perturbations on the deterministic stub-RNG fixture, and an
# offline-crafted UAP must still be flagged online by a live guarded
# engine above the clean false-positive rate (at the calibrated
# threshold the artifact deploys). Same scratch-dir convention as the
# simd/quant/graph gates so the checked-in BENCH_detect.json only
# changes via scripts/bench_detect.sh.
cargo build -q --release -p advcomp-bench --bin detect_bench
detect_tmp="$(mktemp -d)"
./target/release/detect_bench --iters 50 --out "$detect_tmp/detect.json" \
    --check-detect >/dev/null
rm -rf "$detect_tmp"
echo "detect gate: fixture AUC >= 0.9; offline-crafted UAP flagged online"

# Serve regression gate: re-measure the saturation knee with the open-loop
# generator and compare against the committed BENCH_serve.json baseline
# (fails on >40% regression). Knee rps is host-specific, so the gate
# no-ops when the baseline was measured on a different core count, and the
# 8-vs-1-worker scaling assertion arms only on >= 8 cores — mirroring how
# --check-simd no-ops without AVX2.
cargo build -q --release -p advcomp-bench --bin serve_bench
./target/release/serve_bench --check-serve --duration-ms 400 >/dev/null
echo "serve gate: saturation knee within baseline"
