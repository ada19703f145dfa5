#!/usr/bin/env sh
# Tier-1 verification entry point (see ROADMAP.md). Everything runs
# --offline: the workspace has no registry dependencies by construction
# (DESIGN.md §5), so CI must prove it stays that way.
set -eu
cd "$(dirname "$0")/.."

echo "== fmt check =="
cargo fmt --check

# Every TESSERACT_* environment knob is parsed in exactly one place —
# RunConfig::from_env — so configuration stays auditable. Any other
# env::var("TESSERACT_ read is a regression.
echo "== env-knob gate (TESSERACT_* reads live only in RunConfig) =="
stray=$(grep -rn 'env::var("TESSERACT_' crates src --include='*.rs' \
    | grep -v '^crates/comm/src/runconfig.rs:' || true)
if [ -n "$stray" ]; then
    echo "ci.sh: TESSERACT_* env reads outside crates/comm/src/runconfig.rs:"
    echo "$stray"
    exit 1
fi

# The only `unsafe` in the workspace is the call into (and the body of) the
# `#[target_feature]` intrinsic kernels: the blocked path's FMA micro-kernels
# and the serial path's mul+add tiles; a second file growing one is a
# regression.
echo "== unsafe gate (intrinsic micro-kernels in tensor/src/matmul.rs only) =="
unsafe_files=$(grep -rl unsafe crates src --include='*.rs' || true)
if [ "$unsafe_files" != "crates/tensor/src/matmul.rs" ]; then
    echo "ci.sh: unsafe outside crates/tensor/src/matmul.rs:"
    echo "$unsafe_files"
    exit 1
fi

# A fabric waiter yields its core, then parks; it never busy-waits. Every
# workload runs more rank threads than the host has cores, so a spinning
# waiter holds the core its peer needs to arrive: polling 4 000 times with
# spin_loop before parking made serve_open 166 -> 295 us/token and
# plan_paper64 1.07 -> 12.6 s per plan() (medians, EXPERIMENTS.md §K).
echo "== busy-wait gate (no spin_loop) =="
spins=$(grep -rn spin_loop crates src --include='*.rs' || true)
if [ -n "$spins" ]; then
    echo "ci.sh: spin_loop busy-wait (yield_now, then park, instead):"
    echo "$spins"
    exit 1
fi

# Every tensor op's shape rule, Meter charge and kernel is written once, as a
# provided method of `TensorLike`; a backend is storage. A charge or a shape
# assert inside an `impl TensorLike for` block is a second copy of the price
# list, and so is a `Meter::record` call anywhere but tensor.rs (meter.rs
# defines it; the only other `.record(` is the comm `StatsCollector`'s).
echo "== price-list gate (TensorLike impls are storage; Meter charged from tensor.rs only) =="
forked=$(awk '/^impl TensorLike for /{inside=1} /^}/{inside=0}
    inside && (/record/ || /(^|[^_])assert/) {print FILENAME ":" FNR ": " $0}' \
    crates/tensor/src/tensor.rs)
stray=$(grep -rnE '\.record(_gemm)?\(' crates src tests examples --include='*.rs' \
    | grep -vE '^crates/tensor/src/(tensor|meter)\.rs:|^crates/comm/src/stats\.rs:|stats\(\)\.record\(' \
    || true)
if [ -n "$forked$stray" ]; then
    echo "ci.sh: a Meter charge or shape assert outside TensorLike's provided methods:"
    echo "$forked$stray"
    exit 1
fi

# Traces are regenerated artifacts (serve_sweep writes them under target/);
# none may be committed.
echo "== trace-artifact gate (no committed TRACE_*.json) =="
if git ls-files | grep -q '^TRACE_.*\.json$'; then
    echo "ci.sh: TRACE_*.json artifacts must not be committed (write under target/)"
    exit 1
fi

echo "== build (release, offline, deny warnings) =="
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline

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

# The sweep itself enforces cross-backend parity before accepting a timing;
# CI additionally proves a TESSERACT_KERNEL override is honored end-to-end
# (forced run must report the forced path).
echo "== gemm_sweep smoke (tiny sizes, forced scalar path) =="
TESSERACT_KERNEL=scalar cargo run -q --release --offline -p tesseract-bench --bin gemm_sweep -- \
    --sizes 96,128 --reps 2 --out target/BENCH_kernels.smoke.scalar.json
grep -q '"kernel": "scalar"' target/BENCH_kernels.smoke.scalar.json \
    || { echo "ci.sh: forced scalar kernel not reported in sweep JSON"; exit 1; }
grep -q '"kernel_forced": true' target/BENCH_kernels.smoke.scalar.json \
    || { echo "ci.sh: kernel_forced flag missing for forced run"; exit 1; }

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

# Every vector backend the host supports (the sweep's "lanes" line, i.e.
# MicroKernel::supported()) must also honor being forced explicitly — keyed
# on support, not on being the auto choice, so the narrower AVX2 path stays
# exercised on hosts whose default is AVX-512.
for k in avx2 avx512; do
    if grep -q "\"lanes\": .*\"$k\"" target/BENCH_kernels.smoke.json; then
        echo "== gemm_sweep smoke (forced $k path) =="
        TESSERACT_KERNEL=$k cargo run -q --release --offline -p tesseract-bench --bin gemm_sweep -- \
            --sizes 96 --reps 2 --out "target/BENCH_kernels.smoke.$k.json"
        grep -q "\"kernel\": \"$k\"" "target/BENCH_kernels.smoke.$k.json" \
            || { echo "ci.sh: forced $k kernel not reported in sweep JSON"; exit 1; }
    fi
done

# trace_dump reconciles the event trace against Meter/CommStats internally
# (panics on mismatch) and re-parses its own Chrome JSON before writing.
echo "== trace_dump smoke (tiny grid) =="
cargo run -q --release --offline -p tesseract-bench --bin trace_dump -- \
    --grid 2,2 --n 64 --out target/TRACE.smoke.json
test -s target/TRACE.smoke.json || { echo "trace_dump wrote no JSON"; exit 1; }

# The virtual clock is deterministic, so the four BENCH files it alone
# fills are gated exactly: each bin, with default arguments, must
# regenerate its committed file byte for byte. The bins also assert their
# own claims before writing (comm_cost_table: hierarchical cost within
# [NVLink floor, flat charge] and a size crossover; plan_sweep: the planner
# re-derives the measured Table 1/2 winners and its JSON round-trips through
# the in-tree parser) — all of which the committed files record.
echo "== BENCH regeneration gate (plan, comm, serving, overlap: byte-identical) =="
for pair in plan_sweep:plan comm_cost_table:comm serve_sweep:serving overlap_sweep:overlap; do
    bin=${pair%%:*}
    file=BENCH_${pair##*:}.json
    cargo run -q --release --offline -p tesseract-bench --bin "$bin" -- \
        --out "target/$file" > /dev/null
    cmp "target/$file" "$file" \
        || { echo "ci.sh: $bin no longer regenerates the committed $file"; exit 1; }
done

# serve_sweep re-checks the serving-engine invariants internally (identical
# results on every rank, meter/engine counter reconciliation, ordered
# percentiles, latency growth past the saturation knee) and panics on any
# violation; CI greps the invariant lines it prints only after those asserts
# held, then proves the whole open-loop sweep is deterministic by running it
# twice and byte-comparing both the bench JSON and the Chrome trace.
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

# memory_table prints the measured tape high-water of a 4-layer stack, dense
# vs recomputation; the ratio itself is gated per rank by
# crates/core/tests/recompute.rs and plan::dryrun's tests.
echo "== memory_table smoke (measured-peak: dense vs recompute) =="
cargo run -q --release --offline -p tesseract-bench --bin memory_table > target/memory_table.smoke.log
for mode in 'dense' 'recompute k=1'; do
    sed -n '/^### measured-peak/,$p' target/memory_table.smoke.log \
        | grep -Eq "^\| \[[0-9],[0-9],[0-9]\] \| $mode \| [0-9]+ \|$" \
        || { echo "ci.sh: memory_table measured-peak section has no '$mode' row"; exit 1; }
done

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
