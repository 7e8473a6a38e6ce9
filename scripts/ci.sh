#!/usr/bin/env bash
# Tier-1 verification for the instance-comparison workspace.
#
# The build environment is fully offline: every dependency is an in-tree
# path crate (see "Offline dependency policy" in README.md), so --offline
# must always succeed. Run from anywhere; the script cd's to the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

# The root package's suites at the default thread pool, among them:
# - signature-map repair under tuple-level deltas: repaired maps equal a
#   fresh build, and compares seeded with them are bit-identical to
#   from-scratch comparison (incremental_props also pins this internally
#   at 1 and 4 comparator threads);
# - constraint discovery (DESIGN.md §12): possible-world g3 intervals,
#   classical-g3 collapse on null-free data, and bit-identical lattice
#   output (discovery_props);
# - the search path, which must stay exact: topk over the whole catalog
#   reproduces the brute-force ranking bit-for-bit at 1 and 4 comparator
#   threads (search_props).
echo "==> cargo test -q --offline (default thread pool)"
cargo test -q --offline

# perf_guard's two timing guards (signature matching and gold scoring on
# 5k rows, each under 2 s) are ignored in debug builds, so run the suite
# once more in release, where they are armed.
echo "==> cargo test -q --offline --release --test perf_guard (timing guards armed)"
cargo test -q --offline --release --test perf_guard

# Every other crate's own tests, once each; ic-serve has a step of its own
# below. This covers the ic-store format/WAL unit tests of catalog
# durability (DESIGN.md §11).
echo "==> cargo test -q --offline --workspace --exclude ic-serve --exclude instance-comparison"
cargo test -q --offline --workspace --exclude ic-serve --exclude instance-comparison

# The parallel hot paths must be bit-identical in sequential mode; a second
# pass with the pool forced to one thread catches any divergence (and any
# code that only works when workers exist).
echo "==> cargo test -q --offline (IC_POOL_THREADS=1)"
IC_POOL_THREADS=1 cargo test -q --offline -p ic-core -p ic-pool

# The repair suite again with the pool forced to one thread, so repaired
# maps and seeded compares are bit-identical under both pool
# configurations.
echo "==> incremental property suite (IC_POOL_THREADS=1)"
IC_POOL_THREADS=1 cargo test -q --offline --test incremental_props

echo "==> bench_incremental (repair vs from-scratch speedup + >=5x repair saving)"
cargo run -q --offline --release -p ic-bench --bin bench_incremental
test -f target/ic-bench/BENCH_incremental.json
echo "    wrote target/ic-bench/BENCH_incremental.json"

# The serving layer: unit + e2e/error-path/wire-property tests (exact-score
# parity with the direct Comparator, snapshot isolation under concurrent
# loads, graceful drain, typed errors, admission control, pipelining,
# backpressure disconnects, and the 10k-idle-connection smoke) against
# the epoll event loop, the server's only connection runtime.
echo "==> cargo test -q --offline -p ic-serve"
cargo test -q --offline -p ic-serve

# Catalog durability (DESIGN.md §11): the recovery property suite — a WAL
# truncated at every byte boundary of its final record must recover the
# pre-crash catalog minus at most the torn op, with bit-identical compare
# scores — at 1 and 4 comparator threads. The durability e2e in the same
# file also runs the serve binary twice over one --data-dir (load + wire
# patch + restart + bit-identical re-compare).
echo "==> durability property + restart e2e suite (IC_POOL_THREADS=1)"
IC_POOL_THREADS=1 cargo test -q --offline -p ic-serve --test durability
echo "==> durability property + restart e2e suite (IC_POOL_THREADS=4)"
IC_POOL_THREADS=4 cargo test -q --offline -p ic-serve --test durability

# Cold-start cost of durability: restoring the 1000-instance lake from the
# snapshot vs re-parsing its CSVs; the >=5x assertion arms when cores > 1.
echo "==> bench_durability (snapshot vs CSV cold-start)"
cargo run -q --offline --release -p ic-bench --bin bench_durability
test -f target/ic-bench/BENCH_durability.json
echo "    wrote target/ic-bench/BENCH_durability.json"

# The discovery suite again with the pool forced to one thread, so the
# lattice output is bit-identical at both pool thread counts.
echo "==> discovery property suite (IC_POOL_THREADS=1)"
IC_POOL_THREADS=1 cargo test -q --offline --test discovery_props

# Discovery's acceptance bench: recall 1.0 of the planted constraints at
# the planted epsilon (asserted inside), precision/recall across an
# epsilon grid, and lattice rows/s as a JSON artifact.
echo "==> bench_discovery (planted-constraint recall + epsilon grid + rows/s)"
cargo run -q --offline --release -p ic-bench --bin bench_discovery
test -f target/ic-bench/BENCH_discovery.json
echo "    wrote target/ic-bench/BENCH_discovery.json"

# The index's point: recall@10 of 1.0 on a 10k-instance lake while
# passing <20% of the catalog through the prefilter and ranking <1% of it
# (`index.ranked`), with the prefilter's span time and query throughput as
# a JSON artifact.
echo "==> bench_search (recall@k vs brute force + prefilter rate + queries/s)"
cargo run -q --offline --release -p ic-bench --bin bench_search
test -f target/ic-bench/BENCH_search.json
echo "    wrote target/ic-bench/BENCH_search.json"

# The benchmark (BENCHMARK.json) is a package of its own that compiles
# against the ic-serve, ic-model and ic-store types; build it and run its
# unit tests so an API change cannot break it unnoticed.
echo "==> icbench build + unit tests"
CARGO_TARGET_DIR=target/icbench cargo build --release --offline \
    --manifest-path crates/bench/src/bin/icbench/Cargo.toml
CARGO_TARGET_DIR=target/icbench cargo test -q --offline \
    --manifest-path crates/bench/src/bin/icbench/Cargo.toml

# Public docs must build clean across the workspace (broken intra-doc links
# and malformed doc comments are errors, not warnings).
echo "==> cargo doc --workspace --no-deps --offline (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

if rustfmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

# Lints over every workspace target, tests included, with warnings denied.
# The icbench package is outside the workspace and not linted here.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint check"
fi

# The two timing gates run last: on a small shared host they can fail on
# a slow spell, and under `set -e` an earlier failure would hide every
# correctness step after it.
echo "==> bench_parallel_scaling (thread-scaling smoke + determinism check)"
cargo run -q --offline --release -p ic-bench --bin bench_parallel_scaling
test -f target/ic-bench/BENCH_parallel.json
echo "    wrote target/ic-bench/BENCH_parallel.json"

# Observability must be close to free: assert <2% wall-clock overhead on
# the signature workload even with a no-op sink installed, and leave a
# JSONL span-tree/metrics artifact from one fully observed run.
echo "==> bench_obs_overhead (no-op observability overhead + JSONL artifact)"
IC_OBS_JSONL=target/ic-bench/obs_report.jsonl \
    cargo run -q --offline --release -p ic-bench --bin bench_obs_overhead
test -s target/ic-bench/obs_report.jsonl
echo "    wrote target/ic-bench/obs_report.jsonl"

echo "==> ci.sh: all checks passed"
