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

# A collective's wait is booked in integer nanoseconds, each charge rounded
# once by comm/src/stats.rs::to_nanos, so every report field is an exact
# integer sum of the per-op ledger. A second rounding site is a second copy
# of that rule (until one integer time type replaces both, ROADMAP item 14).
echo "== one-rounding-site gate (seconds -> nanos in comm/src/stats.rs only) =="
rounds=$(grep -rnF '1e9).round()' crates src tests examples --include='*.rs' \
    | grep -v '^crates/comm/src/stats\.rs:' || true)
if [ -n "$rounds" ]; then
    echo "ci.sh: seconds rounded to nanoseconds outside crates/comm/src/stats.rs:"
    echo "$rounds"
    exit 1
fi

# Every tensor op's shape rule, Meter charge and kernel is written once, as a
# provided method of `TensorLike`; a backend is storage. A charge or a shape
# assert inside an `impl TensorLike for` block is a second copy of the price
# list, and so is a `Meter::record` / `record_gemm` / `record_fused` call
# anywhere but tensor.rs (meter.rs defines them; the only other `.record(` is
# a rank's comm ledger's, `CommStats::record`): a fused launch elsewhere is
# its op chain under `tesseract_tensor::fused`.
echo "== price-list gate (TensorLike impls are storage; Meter charged from tensor.rs only) =="
forked=$(awk '/^impl TensorLike for /{inside=1} /^}/{inside=0}
    inside && (/record/ || /(^|[^_])assert/) {print FILENAME ":" FNR ": " $0}' \
    crates/tensor/src/tensor.rs)
stray=$(grep -rnE '\.record(_gemm|_fused)?\(' crates src tests examples --include='*.rs' \
    | grep -vE '^crates/tensor/src/(tensor|meter)\.rs:|^crates/comm/src/stats\.rs:|comm\.record\(' \
    || true)
if [ -n "$forked$stray" ]; then
    echo "ci.sh: a Meter charge or shape assert outside TensorLike's provided methods:"
    echo "$forked$stray"
    exit 1
fi

# Every parameter set — distributed, hybrid or the serial oracle — is walked
# through Module::visit_params; optimizers, clipping and gradient sync take
# `&mut dyn Module`. A closure that hands out a parameter visitor is a
# second entry point beside the trait.
echo "== parameter-path gate (no closure-visitor side channel) =="
side=$(grep -rnF -e 'FnOnce(&mut dyn FnMut(ParamRef' -e 'FnMut(&mut dyn FnMut(' \
    crates src tests examples --include='*.rs' || true)
if [ -n "$side" ]; then
    echo "ci.sh: parameter visitor passed as a closure (implement Module::visit_params instead):"
    echo "$side"
    exit 1
fi

# The layer list is built in one place: Transformer's constructor. Training,
# recomputation, pipeline stages and serving all run that stack, so a second
# builder of layers in library code is a second stack. (The serial oracle's
# SerialTransformerLayer is the reference, not a stack, and is exempt.)
echo "== one-stack gate (layers built only by core's Transformer) =="
stacks=$(grep -rnE '(^|[^A-Za-z_])(Tesseract|Megatron)?TransformerLayer(::<[^>]*>)?::new\(' \
    crates/*/src src --include='*.rs' \
    | grep -v '^crates/core/src/layers/transformer\.rs:' || true)
if [ -n "$stacks" ]; then
    echo "ci.sh: Transformer layers built outside core/src/layers/transformer.rs:"
    echo "$stacks"
    exit 1
fi

# The planner prices the schedule that trains: every pipeline step is
# hybrid::gpipe_step_module, and every recompute is the Transformer stack's
# own checkpointing. A stage recv outside pipeline.rs is a second GPipe
# loop (the stage's send/recv methods are private to pipeline.rs, so the
# compiler rejects one too); a tape reset outside core is a second
# checkpoint implementation.
echo "== one-schedule gate (GPipe loop in hybrid/src/pipeline.rs, tape resets in core) =="
resets=$(grep -rnF '.reset_tape(' crates/*/src src --include='*.rs' \
    | grep -v '^crates/core/src/' || true)
loops=$(grep -rnE '\.recv_(forward|backward)\(' crates/*/src src --include='*.rs' \
    | grep -v '^crates/hybrid/src/pipeline\.rs:' || true)
if [ -n "$resets$loops" ]; then
    echo "ci.sh: a second pipeline schedule or checkpoint implementation:"
    echo "$resets$loops"
    exit 1
fi

# SUMMA is written once: core::mm's Algorithm 3, which at d = 1 is 2-D
# SUMMA (Algorithm 2) with its Eq. 3 backward rules. A row-panel broadcast
# elsewhere is a second SUMMA loop. Solomonik's 2.5-D matmul is exempt: it
# replicates A across depth and splits the step range over the layers, a
# different algorithm from Tesseract's. Serving's weight-stationary linear
# multiplies a row all-gather of the activation panels (`mm::row_panels`),
# so a row all-gather elsewhere is a second one; the ViT head's logits
# gather (the loss needs whole rows) is exempt. Inside mm.rs the loop is
# written once too: the blocking schedule is the grid's `overlap = false`,
# not a second loop, so mm.rs begins a row panel broadcast on exactly one
# line and a column panel broadcast on exactly one line.
echo "== one-SUMMA gate (row-panel broadcasts and all-gathers in core/src/mm.rs; 2.5-D, ViT logits exempt) =="
summas=$(grep -rn '\.row\.broadcast_shared' crates src tests examples --include='*.rs' \
    | grep -vE '^crates/(core/src/mm|baselines/src/solomonik)\.rs:' || true)
gathers=$(grep -rn '\.row\.all_gather_shared' crates src tests examples --include='*.rs' \
    | grep -vE '^crates/(core/src/mm|train/src/vit)\.rs:' || true)
if [ -n "$summas$gathers" ]; then
    echo "ci.sh: a SUMMA loop outside core/src/mm.rs (use tesseract_matmul* on GridShape::new(q, 1)"
    echo "or mm::row_panels):"
    echo "$summas$gathers"
    exit 1
fi
for axis in row col; do
    n=$(grep -c "\\.$axis\\.broadcast_shared" crates/core/src/mm.rs || true)
    if [ "$n" != 1 ]; then
        echo "ci.sh: crates/core/src/mm.rs has $n lines broadcasting a $axis panel, not 1:"
        echo "a second Algorithm-3 loop (set TesseractGrid::overlap instead):"
        grep -n "\\.$axis\\.broadcast_shared" crates/core/src/mm.rs
        exit 1
    fi
done

# The GEMM has one signature: `matmul::gemm(orient, a, b)` runs the planned
# path on the active backend, and `matmul::gemm_on(orient, path, kernel, a,
# b)` forces both. `matmul::Orient` owns the orientation's shape rule (the
# paper's §3.1 A·B, A·Bᵀ, Aᵀ·B), so a second `enum Orient` is a second
# copy of that rule, and a `pub fn matmul…` in matmul.rs other than
# `matmul_flops` is a second entry point per orientation or path.
echo "== one-GEMM-signature gate (Orient declared in tensor/src/matmul.rs; gemm / gemm_on the only entry points) =="
orients=$(grep -rnE '\benum Orient\b' crates src tests examples --include='*.rs' \
    | grep -v '^crates/tensor/src/matmul\.rs:' || true)
entries=$(grep -HnE '^ *pub fn matmul' crates/tensor/src/matmul.rs \
    | grep -v 'pub fn matmul_flops(' || true)
if [ -n "$orients$entries" ]; then
    echo "ci.sh: a second GEMM orientation type or entry point (use matmul::{gemm, gemm_on, Orient}):"
    printf '%s\n' "$orients" "$entries" | grep -v '^$'
    exit 1
fi

# JSON is written by one module: every document (the BENCH_*.json records,
# the Chrome trace) is a trace::json::Value tree serialized by json::write,
# which escapes every string and lays the document out from its shape. A
# hand-escaped key (`\"key\":`) in a string literal outside
# crates/tensor/src/trace/json.rs and #[cfg(test)] items is a second
# emitter. (benchmark/ is frozen and out of scope.)
echo "== one-JSON-writer gate (JSON syntax written by tensor/src/trace/json.rs only) =="
emitters=$(find crates/*/src src -name '*.rs' ! -path 'crates/tensor/src/trace/json.rs' | sort \
    | xargs awk 'FNR == 1 { pending = 0; test = 0 }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending { pending = 0; if (/\{$/) test = 1; next }
        test { if (/^}/) test = 0; next }
        /\\"[^" ]*\\" ?:/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$emitters" ]; then
    echo "ci.sh: JSON keys built by hand (build a trace::json::Value and call json::write):"
    printf '%s\n' "$emitters"
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

# The virtual clock is deterministic, so the four BENCH files it alone
# fills are gated exactly: each bin, with default arguments, must
# regenerate its committed file byte for byte. The bins also assert their
# own claims before writing (comm_cost_table: hierarchical cost within
# [NVLink floor, flat charge] and a size crossover; plan_sweep: the planner
# re-derives the measured Table 1/2 winners, dry-runs every candidate of
# every mode, and lists each arrangement once) — all of which the
# committed files record, so BENCH_plan.json pins all 25 makespans of the
# 128-GPU sweep, not a pruned subset.
# comm_cost_table's stdout (the C1 table that Cannon, Solomonik, SUMMA and
# Tesseract feed) is kept for the golden stdout gate below.
echo "== BENCH regeneration gate (plan, comm, serving, overlap: byte-identical) =="
mkdir -p target/golden
for pair in plan_sweep:plan comm_cost_table:comm serve_sweep:serving overlap_sweep:overlap; do
    bin=${pair%%:*}
    file=BENCH_${pair##*:}.json
    case $bin in
        comm_cost_table) stdout=target/golden/comm_cost_table.txt ;;
        *) stdout=/dev/null ;;
    esac
    cargo run -q --release --offline -p tesseract-bench --bin "$bin" -- \
        --out "target/$file" > "$stdout"
    cmp "target/$file" "$file" \
        || { echo "ci.sh: $bin no longer regenerates the committed $file"; exit 1; }
done

# The table bins print virtual-clock numbers only (Shadow runs), so their
# stdout is pinned byte for byte, and so are comm_cost_table's stdout and
# the Chrome trace that the BENCH loop above wrote under target/. An
# intended change edits scripts/golden.sha256 in the same diff.
# memory_table's measured-peak rows (dense vs recompute) are among the
# pinned bytes; the ratio itself is gated per rank by
# crates/core/tests/recompute.rs. fig7_training_accuracy trains
# on the Dense backend; its bits are pinned too, because no Dense bit
# depends on the host CPU's GEMM backend.
echo "== golden stdout gate (table bins + C1 table + serving trace, sha256) =="
for bin in fig6_hybrid memory_table table1_strong_scaling table2_weak_scaling \
    ablation_depth isoefficiency fig7_training_accuracy; do
    cargo run -q --release --offline -p tesseract-bench --bin "$bin" > "target/golden/$bin.txt"
done
sha256sum -c --quiet --strict scripts/golden.sha256 \
    || { echo "ci.sh: output differs from scripts/golden.sha256"; exit 1; }

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
