#!/usr/bin/env bash
# CI gate: formatting, lint, docs, tests, builds (workspace and perfbench),
# and smoke runs of the scoring, region-load, fault-matrix, multi-session,
# rescore, kd-tree layout, journal-recovery, sharded-index-plane, and
# telemetry benches.
#
#   ./scripts/ci.sh          # full gate
#   ./scripts/ci.sh --fast   # skip the release build (debug tests + lint only)
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# Formatting gate covers the uei packages only: the vendor stand-ins keep
# their upstream style and are not ours to reformat.
uei_pkgs=(-p uei -p uei-types -p uei-obs -p uei-storage -p uei-learn -p uei-index -p uei-dbms -p uei-explore -p uei-bench)
echo "==> cargo fmt --check (uei packages)"
cargo fmt "${uei_pkgs[@]}" --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo test -q --workspace"
cargo test -q --workspace

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release

    # perfbench is a package of its own, outside the workspace, so the
    # workspace steps above never compile it. Build it here so a public-API
    # change in crates/ cannot break the benchmark unnoticed.
    echo "==> cargo build --release (perfbench)"
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
fi

# Smoke-run the scoring bench: 1 sample, reduced matrix. The binary
# asserts batch scores are bit-identical to the sequential path and
# exits nonzero otherwise, so this doubles as a correctness check.
echo "==> scoring_bench --smoke"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -p uei-bench --release --bin scoring_bench -- --smoke --out "$tmp/BENCH_scoring.json"
test -s "$tmp/BENCH_scoring.json"

# Smoke-run the region-load bench: cold vs. warm-shared-cache vs. delta
# over a small fixture. The binary asserts all modes reconstruct identical
# rows and that warm/delta beat cold in both modeled bytes and wall time.
echo "==> region_load_bench --smoke"
cargo run -p uei-bench --release --bin region_load_bench -- --smoke --out "$tmp/BENCH_region_load.json"
test -s "$tmp/BENCH_region_load.json"

# Smoke-run the fault matrix: a seeded sweep of {transient, corrupt, slow}
# injection against {loader, prefetcher}. The binary asserts transients are
# absorbed by retries, corruption surfaces without being retried, latency
# spikes never fail a load, and clean-path checksum verification stays
# within noise.
echo "==> fault_matrix --smoke"
cargo run -p uei-bench --release --bin fault_matrix -- --smoke --out "$tmp/BENCH_fault_matrix.json"
test -s "$tmp/BENCH_fault_matrix.json"

# Smoke-run the multi-session bench: 1 vs. 4 concurrent sessions over one
# shared EngineCore. The binary asserts every session completes and that
# the 4-session aggregate cache hit ratio is at least the 1-session ratio.
echo "==> multi_session --smoke"
cargo run -p uei-bench --release --bin multi_session -- --smoke --out "$tmp/BENCH_multi_session.json"
test -s "$tmp/BENCH_multi_session.json"

# Smoke-run the rescore bench: incremental vs. full index-point rescoring
# on a small grid. The binary asserts the two paths hold bit-identical
# scores after every iteration, that no incremental pass rescores more
# than |P| points (cache accounting sanity), that rescored + cached
# covers every point every iteration, and that no kNN-family incremental
# pass fell back to a full kd-tree rescore.
echo "==> rescore_bench --smoke"
cargo run -p uei-bench --release --bin rescore_bench -- --smoke --out "$tmp/BENCH_rescore.json"
test -s "$tmp/BENCH_rescore.json"

# Smoke-run the kd-tree layout bench: flat SoA bucketed-leaf tree vs. the
# legacy recursive layout on a reduced grid. The binary asserts every
# query's neighbour list is bit-identical across layouts and fails if the
# flat layout's aggregate query throughput drops below the baseline's.
echo "==> kdtree_bench --smoke"
cargo run -p uei-bench --release --bin kdtree_bench -- --smoke --out "$tmp/BENCH_kdtree.json"
test -s "$tmp/BENCH_kdtree.json"

# Smoke-run the recovery bench: one fixed-seed session without and with
# the write-ahead journal, plus a crash injected at the middle journal
# write followed by recovery. The binary asserts clean-path journaling
# overhead stays at or under 5% of session wall time and that every
# recovered run reproduces the uninterrupted run's traces bit-identically.
echo "==> recovery_bench --smoke"
cargo run -p uei-bench --release --bin recovery_bench -- --smoke --out "$tmp/BENCH_recovery.json"
test -s "$tmp/BENCH_recovery.json"

# Smoke-run the shard bench: sharded vs. single-shard index plane over
# small fixed-seed sessions at 1/2/4/8 shards. The binary asserts every
# iteration's full top-θ selection is bit-identical to the single-shard
# reference at every shard count and grid size.
echo "==> shard_bench --smoke"
cargo run -p uei-bench --release --bin shard_bench -- --smoke --out "$tmp/BENCH_shard.json"
test -s "$tmp/BENCH_shard.json"

# Smoke-run the telemetry bench: one fixed-seed journaled session with
# telemetry disabled vs. enabled, plus a micro-benchmark pricing the
# disabled span() call. The binary asserts enabled overhead stays at or
# under 3% of session wall time, the disabled-path estimate under 1%,
# all seven phases are observed, and the modeled traces stay
# bit-identical either way.
echo "==> obs_bench --smoke"
cargo run -p uei-bench --release --bin obs_bench -- --smoke --out "$tmp/BENCH_obs.json"
test -s "$tmp/BENCH_obs.json"

echo "CI gate passed."
