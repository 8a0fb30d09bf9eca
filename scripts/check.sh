#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: a broken or redundant intra-doc link fails here, so a
# rename cannot leave a dangling link behind (about 6 s warm).
echo "==> cargo doc --workspace --no-deps --document-private-items (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The end-to-end benchmark is a standalone package that builds the
# workspace crates through path dependencies: building it and running its
# tests catches a public-API break here rather than in a benchmark run,
# and --locked fails if a crate's dependency list would rewrite its
# lockfile.
echo "==> cargo test --release --locked --manifest-path e2e_bench/Cargo.toml"
cargo test --release --locked --manifest-path e2e_bench/Cargo.toml

# Chaos smoke gate: corrupted binaries + injected faults through the full
# serving path must yield a verdict per sample and zero process aborts,
# then 500 artifact-aware corruptions of the trained model's v3 binary
# artifact must each be rejected with a typed error or load into a
# verdict-identical model — never panic, never silently diverge.
# (clippy above already denies unwrap_used in non-test code via the
# per-crate cfg_attr warns escalated by -D warnings.)
# SOTERIA_METRICS=summary exercises the exit-time exposition path.
echo "==> chaos gate: soteria-exp chaos --seed 42 --samples 200 --artifact-cases 500"
SOTERIA_METRICS=summary cargo run -q --release -p soteria-eval --bin soteria-exp -- \
    chaos --seed 42 --samples 200 --artifact-cases 500

# Artifact smoke gate: the v3 zero-copy artifact must load into a system
# verdict-identical to the v2 JSON load on the f32 path, and a corruption
# mini-sweep must produce zero loader panics and zero silent divergences —
# all HARD failures. Cold-start speedup drift against the committed
# results/BENCH_artifact.json is a *note*, never fatal — wall-clock
# numbers are hardware-bound.
echo "==> artifact gate: soteria-exp artifact-bench --smoke"
tmpdir="$(mktemp -d)"
artifact_baseline=()
if [[ -f results/BENCH_artifact.json ]]; then
    artifact_baseline=(--baseline results/BENCH_artifact.json)
fi
cargo run -q --release -p soteria-eval --bin soteria-exp -- \
    artifact-bench --smoke --out "$tmpdir" "${artifact_baseline[@]}"
rm -rf "$tmpdir"

# Compute-backend smoke gate: a shrunk nn-bench run drives the GEMM /
# gemv / im2col-conv kernels, a real training loop, and the f32 inference
# path (the only one) end to end. The command itself HARD-FAILS on f32
# bit-identity drift — that is correctness, not throughput. Throughput
# drift against the committed baseline is a *note*, never fatal —
# wall-clock numbers are hardware-bound (the overlapping 64x256x256
# matmul shape is what gets compared). The golden-vector pins
# (tests/golden_vectors.rs) hard-fail inside the workspace test step
# above.
echo "==> nn bench gate: soteria-exp nn-bench --smoke"
tmpdir="$(mktemp -d)"
nn_baseline=()
if [[ -f results/BENCH_nn.json ]]; then
    nn_baseline=(--baseline results/BENCH_nn.json)
fi
cargo run -q --release -p soteria-eval --bin soteria-exp -- \
    nn-bench --smoke --out "$tmpdir" "${nn_baseline[@]}"
rm -rf "$tmpdir"

# Extraction smoke gate: a shrunk extract-bench run drives the parallel
# fast path (jumped RNG streams, interned counting, scratch arenas) against
# the sequential reference and FAILS if the outputs are not bit-identical.
# Speedup drift against the committed baseline is a *note*, never fatal.
echo "==> extract bench gate: soteria-exp extract-bench --smoke"
tmpdir="$(mktemp -d)"
extract_baseline=()
if [[ -f results/BENCH_extract.json ]]; then
    extract_baseline=(--baseline results/BENCH_extract.json)
fi
cargo run -q --release -p soteria-eval --bin soteria-exp -- \
    extract-bench --smoke --out "$tmpdir" "${extract_baseline[@]}"
rm -rf "$tmpdir"

# Overload smoke gate: a shrunk overload-bench run sweeps open-loop
# arrival rates at 0.5x-4x calibrated saturation with chaos armed and the
# full admission stack on. The command itself HARD-FAILS on any hung
# request, double outcome, or accepted verdict that is not bit-identical
# to the sequential replay; latency-curve drift against the committed
# baseline is a *note*, never fatal — wall-clock numbers are
# hardware-bound.
echo "==> overload gate: soteria-exp overload-bench --smoke"
tmpdir="$(mktemp -d)"
overload_baseline=()
if [[ -f results/BENCH_overload.json ]]; then
    overload_baseline=(--baseline results/BENCH_overload.json)
fi
cargo run -q --release -p soteria-eval --bin soteria-exp -- \
    overload-bench --smoke --out "$tmpdir" "${overload_baseline[@]}"
rm -rf "$tmpdir"

# Telemetry overhead gate: per-op cost of the metrics hot path plus the
# end-to-end overhead on a screening-shaped workload. Overhead above the
# 2% budget and drift against the committed baseline are *notes*, never
# fatal — wall-clock numbers are hardware-bound.
echo "==> telemetry bench gate: soteria-exp telemetry-bench --smoke"
tmpdir="$(mktemp -d)"
telemetry_baseline=()
if [[ -f results/BENCH_telemetry.json ]]; then
    telemetry_baseline=(--baseline results/BENCH_telemetry.json)
fi
cargo run -q --release -p soteria-eval --bin soteria-exp -- \
    telemetry-bench --smoke --out "$tmpdir" "${telemetry_baseline[@]}"
rm -rf "$tmpdir"

# Robustness smoke gate: the attack zoo (GEA, sub-CFG injection, feature
# mimicry, detector-aware adaptive) against the trained pipeline. The
# command itself HARD-FAILS if any crafted graph is structurally invalid
# (round-trip, reachability, vocabulary, budget), if crafting is
# nondeterministic, or if a cell's detection rate drops below the
# committed baseline floor — the run is fully seeded, so any drop is a
# real robustness regression, not noise. A detection-rate *improvement*
# only prints a note suggesting a baseline refresh.
echo "==> robustness gate: soteria-exp robustness-bench --smoke"
tmpdir="$(mktemp -d)"
robustness_baseline=()
if [[ -f results/BENCH_robustness.json ]]; then
    robustness_baseline=(--baseline results/BENCH_robustness.json)
fi
cargo run -q --release -p soteria-eval --bin soteria-exp -- \
    robustness-bench --smoke --out "$tmpdir" "${robustness_baseline[@]}"
rm -rf "$tmpdir"

echo "==> all checks passed"
