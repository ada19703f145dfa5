#!/usr/bin/env sh
# Tier-1 verification entry point (see ROADMAP.md). Everything runs
# --offline: the workspace has no registry dependencies by construction
# (DESIGN.md §5), so CI must prove it stays that way.
set -eu
cd "$(dirname "$0")/.."

echo "== fmt check =="
cargo fmt --check

# Lint debt fails here, not later: an `#[allow]` carries a one-line reason.
echo "== clippy (all targets, deny warnings) =="
cargo clippy -q --workspace --all-targets --offline -- -D warnings

echo "== build (release, offline, deny warnings) =="
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline

# Clippy only compiles the examples. Each drives the public crate API end to
# end and asserts its own claim (quickstart: the serial product exactly;
# hybrid_parallelism: the data-parallel replicas hold one summed gradient),
# so run them all; together they take well under a second optimized.
echo "== examples (release: each runs and asserts its claim) =="
for f in examples/*.rs; do
    e=$(basename "$f" .rs)
    cargo run -q --release --offline --example "$e" > "target/example.$e.txt" \
        || { echo "ci.sh: example $e failed"; exit 1; }
done

# Besides the unit, integration and property suites this runs the
# structural rules (tests/structure.rs: one row per design rule, naming
# file, line and reason) and the golden outputs
# (crates/bench/tests/golden.rs: the table bins' stdout against
# crates/bench/golden/*.txt, BENCH_comm.json and BENCH_overlap.json).
echo "== test (offline) =="
cargo test -q --workspace --offline

# Doc comments name the items they describe by intra-doc link; a link to an
# item that was deleted, renamed or made private must fail here, not rot.
echo "== doc-link gate (rustdoc, deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

# benchmark/ is its own workspace (BENCHMARK.json builds it from a bare
# checkout), so the workspace build above never compiles it: an API change
# that breaks it would stay invisible until the benchmark pipeline runs.
echo "== benchmark crate (own workspace): build + smoke tests =="
CARGO_TARGET_DIR=target/benchmark cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The sweep itself enforces cross-backend parity (every lane bitwise equal
# to the first) before accepting a timing.
echo "== gemm_sweep smoke (auto-detected path) =="
cargo run -q --release --offline -p tesseract-bench --bin gemm_sweep -- \
    --sizes 96,128 --reps 2 --out target/BENCH_kernels.smoke.json
grep -Eq '"kernel": "(scalar|avx2|avx512)"' target/BENCH_kernels.smoke.json \
    || { echo "ci.sh: auto-detect run reported no kernel path"; exit 1; }
# The elementwise block is accepted by the sweep only after GELU's matrix
# loops equal the scalar function, and the fused Adam direction its op
# chain, bit for bit under the release optimizer.
grep -q '"elementwise": \[' target/BENCH_kernels.smoke.json \
    && grep -q '"op": "adam_direction"' target/BENCH_kernels.smoke.json \
    || { echo "ci.sh: gemm_sweep wrote no elementwise block"; exit 1; }
# The serial block is accepted only after every backend width of the serial
# path equals the scalar loops bit for bit at the workloads' small shapes.
grep -q '"serial_shapes": \[' target/BENCH_kernels.smoke.json \
    && grep -q '"shape": "decode_scores_nt"' target/BENCH_kernels.smoke.json \
    || { echo "ci.sh: gemm_sweep wrote no serial_shapes block"; exit 1; }

# Every backend the host supports (the sweep's "lanes" line, i.e.
# MicroKernel::supported()) must honor being forced explicitly — keyed on
# support, not on being the auto choice, so the narrower paths stay
# exercised on hosts whose default is AVX-512 — and must reproduce
# golden_step's one set of Dense constants, blocked GEMMs included: each
# GEMM path has one numerics class on every backend, so no Dense bit
# depends on the CPU or TESSERACT_KERNEL.
for k in scalar avx2 avx512; do
    if grep -q "\"lanes\": .*\"$k\"" target/BENCH_kernels.smoke.json; then
        echo "== forced $k path: gemm_sweep smoke + golden_step =="
        TESSERACT_KERNEL=$k cargo run -q --release --offline -p tesseract-bench --bin gemm_sweep -- \
            --sizes 96 --reps 2 --out "target/BENCH_kernels.smoke.$k.json"
        grep -q "\"kernel\": \"$k\"" "target/BENCH_kernels.smoke.$k.json" \
            || { echo "ci.sh: forced $k kernel not reported in sweep JSON"; exit 1; }
        grep -q '"kernel_forced": true' "target/BENCH_kernels.smoke.$k.json" \
            || { echo "ci.sh: kernel_forced flag missing for forced $k run"; exit 1; }
        TESSERACT_KERNEL=$k cargo test -q --release --offline -p tesseract-train --test golden_step
    fi
done

# trace_dump reconciles the event trace exactly with each rank's report and
# comm ledger (`RunOutput::reconcile_trace`, panics on mismatch) and
# re-parses its own Chrome JSON before writing; serve_sweep makes the same
# check on its traced flood before writing TRACE_serving.json.
echo "== trace_dump smoke (tiny grid) =="
cargo run -q --release --offline -p tesseract-bench --bin trace_dump -- \
    --grid 2,2 --n 64 --out target/TRACE.smoke.json
test -s target/TRACE.smoke.json || { echo "trace_dump wrote no JSON"; exit 1; }

# The virtual clock is deterministic, so the BENCH files it alone fills
# are gated exactly: each bin, with default arguments, must regenerate its
# committed file byte for byte. The bins also assert their own claims
# before writing (plan_sweep: the planner re-derives the measured Table 1/2
# winners, dry-runs every candidate of every mode, and lists each
# arrangement once) — all of which the committed files record, so
# BENCH_plan.json pins all 25 makespans of the 128-GPU sweep, not a pruned
# subset. These two run in release: plan_sweep takes ≈ 7 s optimized and
# ≈ 22 s in a debug `cargo test`. (comm_cost_table and overlap_sweep are
# pinned by crates/bench/tests/golden.rs.) Their stdout is a golden too,
# crates/bench/golden/<bin>.txt, which EXPERIMENTS.md quotes. serve_sweep
# also writes the Chrome trace of its traced flood (6.8 MB), pinned by its
# digest.
echo "== BENCH regeneration gate (plan, serving: JSON and stdout byte-identical; serving trace digest) =="
for pair in plan_sweep:plan serve_sweep:serving; do
    bin=${pair%%:*}
    file=BENCH_${pair##*:}.json
    cargo run -q --release --offline -p tesseract-bench --bin "$bin" -- \
        --out "target/$file" > "target/$bin.txt"
    cmp "target/$file" "$file" \
        || { echo "ci.sh: $bin no longer regenerates the committed $file"; exit 1; }
    cmp "target/$bin.txt" "crates/bench/golden/$bin.txt" \
        || { echo "ci.sh: $bin's stdout differs from crates/bench/golden/$bin.txt"; exit 1; }
done
echo "128ec32aab63a053173f6889e0022b8487396b0107436eea060d587786435f10  target/TRACE_serving.json" \
    | sha256sum -c --quiet --strict \
    || { echo "ci.sh: serve_sweep's trace differs from its pinned digest"; exit 1; }

# serve_sweep re-checks the serving-engine invariants internally (identical
# results on every rank, meter/engine counter reconciliation, ordered
# percentiles, latency growth past the saturation knee, exactly 2·layers
# lane all-gathers, no all-reduce and 2·layers launches per busy step, and
# a weight fetch of q column broadcasts and one lane exchange per rank,
# read from the fetch run's own ledger) and panics on any violation; CI
# greps the invariant lines it prints only
# after those asserts held, then proves the whole open-loop sweep is
# deterministic by running it twice and byte-comparing both the bench JSON
# and the Chrome trace.
echo "== serve_sweep smoke (tiny grid, open-loop determinism) =="
cargo run -q --release --offline -p tesseract-bench --bin serve_sweep -- \
    --grids 2,1 --requests 8 --out target/BENCH_serving.smoke.json \
    --trace-out target/TRACE_serving.smoke.json > target/serve_sweep.smoke.log
grep -q 'invariant ok: p99 >= p50 at every load point' target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep p99 >= p50 invariant missing"; exit 1; }
grep -q 'invariant ok: nonzero throughput at every load point' target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep nonzero-throughput invariant missing"; exit 1; }
grep -q 'invariant ok: latency grows past the saturation knee' target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep saturation-knee invariant missing"; exit 1; }
grep -q 'invariant ok: a busy serving step is 8 lane all-gathers and 8 launches' \
    target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep all-gathers-and-launches-per-step invariant missing"; exit 1; }
grep -q 'invariant ok: the weight fetch is q column broadcasts and one lane exchange per rank' \
    target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep weight-fetch invariant missing"; exit 1; }
cargo run -q --release --offline -p tesseract-bench --bin serve_sweep -- \
    --grids 2,1 --requests 8 --out target/BENCH_serving.smoke2.json \
    --trace-out target/TRACE_serving.smoke2.json > /dev/null
cmp target/BENCH_serving.smoke.json target/BENCH_serving.smoke2.json \
    || { echo "ci.sh: serve_sweep reruns are not byte-identical"; exit 1; }
cmp target/TRACE_serving.smoke.json target/TRACE_serving.smoke2.json \
    || { echo "ci.sh: serve_sweep trace reruns are not byte-identical"; exit 1; }
test -s target/TRACE_serving.smoke.json \
    || { echo "ci.sh: serve_sweep wrote no trace"; exit 1; }
grep -q '"traceEvents"' target/TRACE_serving.smoke.json \
    || { echo "ci.sh: serve_sweep trace is not Chrome-trace JSON"; exit 1; }

# `cargo test` above runs the tensor tests unoptimized, where a loop is
# scalar anyway; lane independence (vectorized GELU == scalar GELU, every
# serial GEMM width == the scalar loops, bit for bit) only means something
# on the code the release build runs.
echo "== tensor unit + property tests (release: vectorized loops and GEMM widths) =="
cargo test -q --release --offline -p tesseract-tensor --lib --test proptests

# The fabric's publication-racing-registration stress test depends on
# timing; the optimized build is the one whose interleavings hit the race.
echo "== comm unit tests (release: fabric wait-path races) =="
cargo test -q --release --offline -p tesseract-comm --lib

echo "ci.sh: OK"
