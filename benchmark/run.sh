#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--check]
#       every workload, every metric by name with unit and clock
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the result JSON
#   benchmark/run.sh --contract
#       the text of BENCHMARK.json
#
# Build products and traces go under $CARGO_TARGET_DIR (default
# target/benchmark). Where the library crates are missing the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
BENCH_RUSTC="$(rustc --version)"
export BENCH_RUSTC
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/tesseract-benchmark" "$@"
