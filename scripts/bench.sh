#!/usr/bin/env bash
# Runs one measurement bench and writes its BENCH_*.json at the repo root
# (or wherever --out points). Every file has one schema — bench, host,
# note, and records of {name, unit, value, gate} — and every run checks
# its gates: the bench exits 1 listing each record outside its gate.
#
#   scripts/bench.sh kernel    # BENCH_kernels.json: kernel medians, simd.* ablation
#   scripts/bench.sh quant     # BENCH_quant.json: packed int8 vs dense f32
#   scripts/bench.sh graph     # BENCH_graph.json: compiled ExecPlan vs layer path
#   scripts/bench.sh detect    # BENCH_detect.json: detection grid, online flag rates
#   scripts/bench.sh serve     # BENCH_serve.json: open-loop saturation knees
#   scripts/bench.sh kernel --iters 5 --out /tmp/kernels.json   # quick smoke run
#   scripts/bench.sh serve --workers 1,8 --duration-ms 2000 --connections 16
#
# The worker pool reads ADVCOMP_THREADS once at startup. Every bench but
# serve defaults it to 8 rather than the detected core count: the
# pooled-vs-spawned kernel ablation measures thread provisioning, which
# only exists when a GEMM splits into bands, and the quant, graph and
# detect numbers are then taken in the same configuration. serve leaves
# it unpinned, since its engine workers are the parallelism it measures.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench.sh <kernel|quant|graph|detect|serve> [flags...]"
bench="${1:?$usage}"
shift
case "$bench" in
    kernel | quant | graph | detect) export ADVCOMP_THREADS="${ADVCOMP_THREADS:-8}" ;;
    serve) ;;
    *)
        echo "$usage" >&2
        exit 2
        ;;
esac

cargo build --release -p advcomp-bench --features bench-ablation --bin "${bench}_bench"
exec "./target/release/${bench}_bench" "$@"
