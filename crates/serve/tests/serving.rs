//! Integration tests for the serving path: KV-cache bitwise parity,
//! no-grad inference, engine determinism, and counter reconciliation.

use std::sync::Arc;

use tesseract_comm::{CollectiveOp, RankCtx, RunConfig};
use tesseract_core::partition::{a_block, combine_c};
use tesseract_core::{
    GridShape, InferBatch, Module, Stream, TesseractGrid, TesseractTransformer, TransformerConfig,
};
use tesseract_serve::{
    latency_stats, serve_on_cluster, RequestSpec, ServeConfig, ServeSummary, TrafficConfig,
};
use tesseract_tensor::{DenseTensor, Matrix, Meter, ShadowTensor, TensorLike, Xoshiro256StarStar};

fn test_model() -> TransformerConfig {
    // batch divides q·d for both [2,2,1] and [2,2,2]; everything small
    // enough that every GEMM stays on the serial (per-row bitwise) kernel.
    TransformerConfig { batch: 8, seq: 4, hidden: 16, heads: 4, mlp_ratio: 4, layers: 2, eps: 1e-5 }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        model: test_model(),
        with_bias: true,
        seed: 77,
        max_batch_tokens: 32,
        max_lane_requests: 4,
    }
}

/// Builds this rank's column block of a deterministic `[rows, h]` prompt.
fn prompt_block(
    grid: &TesseractGrid,
    hidden: usize,
    rows: usize,
    seed: u64,
    stream: u64,
) -> DenseTensor {
    let local_h = hidden / grid.shape.q;
    DenseTensor::init_xavier_block(rows, hidden, 0, grid.j() * local_h, rows, local_h, seed, stream)
}

/// Decodes `decode_tokens` greedily with the KV cache (one prefill + one
/// step per token) and, in lockstep, re-runs every prefix from scratch
/// through the same causal path. Returns (cached, recomputed) per-token
/// output rows; the two must match bitwise.
fn cached_vs_recompute(shape: GridShape, prompt_len: usize, decode_tokens: usize, seed: u64) {
    let cfg = test_model();
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, seed, 0);
        let prompt = prompt_block(&grid, cfg.hidden, prompt_len, seed ^ 0xABCD, 1);

        // Cached path: prefill once, then O(1)-row decode steps.
        let mut kv = model.new_kv(&grid);
        let mut cached_rows: Vec<Matrix> = Vec::new();
        let mut batch = InferBatch { new_rows: vec![prompt_len], kvs: vec![kv] };
        let y = model.forward_infer(&grid, ctx, &Arc::new(prompt.clone()), &mut batch);
        // Every prefill output row participates in parity, not just the
        // last: row t is "the model output for token t".
        for t in 0..prompt_len {
            cached_rows.push(y.slice_rows(t, t + 1, &mut ctx.meter).matrix().clone());
        }
        let mut next = y.slice_rows(prompt_len - 1, prompt_len, &mut ctx.meter);
        kv = batch.kvs.pop().expect("cache returned");
        for _ in 0..decode_tokens {
            let mut batch = InferBatch { new_rows: vec![1], kvs: vec![kv] };
            let y = model.forward_infer(&grid, ctx, &Arc::new(next), &mut batch);
            cached_rows.push(y.matrix().clone());
            next = y.slice_rows(0, 1, &mut ctx.meter);
            kv = batch.kvs.pop().expect("cache returned");
        }
        assert_eq!(kv.seq_len(), prompt_len + decode_tokens, "cache grew once per token");

        // Recompute path: for every prefix length L, a fresh cache and one
        // causal prefill over all L rows; its rows must equal the cached
        // path's rows bitwise.
        let mut inputs = prompt;
        let mut recomputed_rows: Vec<Matrix> = Vec::new();
        for step in 0..=decode_tokens {
            let rows = inputs.rows();
            let mut batch = InferBatch { new_rows: vec![rows], kvs: vec![model.new_kv(&grid)] };
            let y = model.forward_infer(&grid, ctx, &Arc::new(inputs.clone()), &mut batch);
            if step == 0 {
                for t in 0..rows {
                    recomputed_rows.push(y.slice_rows(t, t + 1, &mut ctx.meter).matrix().clone());
                }
            } else {
                recomputed_rows.push(y.slice_rows(rows - 1, rows, &mut ctx.meter).matrix().clone());
            }
            if step < decode_tokens {
                let last = y.slice_rows(rows - 1, rows, &mut ctx.meter);
                inputs = DenseTensor::concat_rows(&[inputs, last], &mut ctx.meter);
            }
        }
        (cached_rows, recomputed_rows)
    });
    for (rank, (cached, recomputed)) in out.results.iter().enumerate() {
        assert_eq!(cached.len(), prompt_len + decode_tokens);
        assert_eq!(cached.len(), recomputed.len());
        for (t, (c, r)) in cached.iter().zip(recomputed).enumerate() {
            assert_eq!(c, r, "rank {rank}: cached decode diverged from recompute at token {t}");
        }
    }
}

#[test]
fn cached_decode_matches_recompute_bitwise_on_2x2x1() {
    cached_vs_recompute(GridShape::new(2, 1), 5, 4, 11);
}

#[test]
fn cached_decode_matches_recompute_bitwise_on_2x2x2() {
    cached_vs_recompute(GridShape::new(2, 2), 6, 3, 13);
}

#[test]
fn single_token_prompt_decodes_consistently() {
    cached_vs_recompute(GridShape::new(2, 1), 1, 5, 17);
}

/// The whole serving stack against the whole training stack on `[q, q, 1]`
/// at `q = 2, 3, 4`. With one token per sample, causal serving attention is
/// training attention, so `forward_infer_rows` on the full rows must be
/// bitwise the gathered `Module::forward` output. At `q ≥ 3` a lane folds
/// three or more terms, so the fold order shows.
#[test]
fn serving_rows_are_bitwise_the_training_forward_at_q_2_3_4() {
    for q in [2, 3, 4] {
        let cfg = TransformerConfig {
            batch: 2 * q,
            seq: 1,
            hidden: 4 * q,
            heads: q,
            mlp_ratio: 4,
            layers: 2,
            eps: 1e-5,
        };
        let shape = GridShape::new(q, 1);
        let x = Matrix::seeded(cfg.batch, cfg.hidden, 31 + q as u64);
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let mut model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, 23, 0);
            let block = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
            let trained = model.forward(&grid, ctx, &block).matrix().clone();
            model.fetch_stationary(&grid, ctx);
            let kvs = (0..cfg.batch).map(|_| model.new_kv(&grid)).collect();
            let mut batch = InferBatch { new_rows: vec![1; cfg.batch], kvs };
            let rows = Stream::new(Arc::new(DenseTensor::from_matrix(x.clone())));
            let served = model.forward_infer_rows(&grid, ctx, rows, &mut batch).into_rows(ctx);
            (trained, served.matrix().clone())
        });
        let (trained, served): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
        let trained = combine_c(&trained, shape);
        for (rank, served) in served.iter().enumerate() {
            assert_eq!(*served, trained, "q = {q}, rank {rank}: serving differs from training");
        }
    }
}

/// The pending last row of each segment of a step's output `y`, whose
/// segments are `new_rows` long: what the engine carries into the next
/// step.
fn last_rows<T: TensorLike>(
    y: &Stream<T>,
    new_rows: &[usize],
    ctx: &mut RankCtx,
) -> Vec<Stream<T>> {
    let ends = new_rows.iter().scan(0, |end, n| {
        *end += n;
        Some(*end)
    });
    ends.map(|end| y.slice_rows(end - 1, end, &mut ctx.meter)).collect()
}

/// What one decode step on full rows over `segments` requests, each
/// prefilled first with a prompt of its own length, books on this rank:
/// its kernel launches, and the row all-reduces and all-gathers it led
/// (one member of each lane books the lane's collective). The decode step
/// carries the prefill's pending last rows, as the engine does.
fn decode_step(
    ctx: &mut RankCtx,
    grid: &TesseractGrid,
    model: &TesseractTransformer<DenseTensor>,
    segments: usize,
) -> [u64; 3] {
    let hidden = test_model().hidden;
    model.fetch_stationary(grid, ctx);
    let new_rows: Vec<usize> = (0..segments).map(|s| 2 + s % 3).collect();
    let rows = new_rows.iter().sum();
    let prompt = DenseTensor::init_xavier_block(rows, hidden, 0, 0, rows, hidden, 5, 1);
    let kvs = (0..segments).map(|_| model.new_kv(grid)).collect();
    let mut batch = InferBatch { new_rows, kvs };
    let y = model.forward_infer_rows(grid, ctx, Stream::new(Arc::new(prompt)), &mut batch);
    let carried = Stream::concat_rows(last_rows(&y, &batch.new_rows, ctx), &mut ctx.meter);
    batch.new_rows = vec![1; segments];
    let before = ctx.report();
    model.forward_infer_rows(grid, ctx, carried, &mut batch);
    let after = ctx.report();
    let led = |op| after.comm.get(op).calls - before.comm.get(op).calls;
    [after.kernels - before.kernels, led(CollectiveOp::AllReduce), led(CollectiveOp::AllGather)]
}

/// `Σ terms` in member order, then the bias, then the base, written out
/// op by op: the order in which training's `x + (X·W + b)` adds a row,
/// and in which a step's own last launch added its pending rows when a
/// step still ended with one. `None` on a backend without stored values.
fn fold_by_hand<T: TensorLike>(row: &Stream<T>) -> Option<Matrix> {
    let (base, terms, bias) = row.parts();
    let m = &mut Meter::new();
    let mut sum = T::clone(&terms[0]);
    for term in &terms[1..] {
        sum = sum.add(term, m);
    }
    let sum = match bias {
        Some(b) => sum.add_rowvec(b, m),
        None => sum,
    };
    base.add(&sum, m).try_matrix().cloned()
}

/// Per rank: its clock (f64 bits), the last step's rows and every
/// request's KV cache (stored values, `None` on Shadow).
type FoldRun = Vec<(u64, Option<Matrix>, Vec<Option<Matrix>>)>;

/// A prompt step (two requests, 3 and 2 rows), then two decode steps, the
/// second with a third request's 4-row prompt riding along, on every lane
/// of `shape`. Every weight and bias is moved off its initial value, so
/// every fold adds a nonzero bias. With `carry`, each continuing request's
/// pending last row goes into the next step, whose first launch folds it;
/// without, each is materialized by `Stream::into_rows` (checked against
/// [`fold_by_hand`]) and fed in as fresh rows.
fn prompt_then_two_decodes<T: TensorLike>(shape: GridShape, carry: bool) -> FoldRun {
    let (q, d) = (shape.q, shape.d);
    let cfg = TransformerConfig {
        batch: q * d,
        seq: 1,
        hidden: 8 * q,
        heads: 2 * q,
        mlp_ratio: 4,
        layers: 2,
        eps: 1e-5,
    };
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = TesseractTransformer::<T>::new(ctx, &grid, cfg, true, 29, 0);
        let mut stream = 0;
        model.visit_params(&mut |p| {
            let (r, c) = (p.weight.rows(), p.weight.cols());
            stream += 1;
            let nudge = T::init_xavier_block(r, c, 0, 0, r, c, 61, stream);
            p.weight.add_assign(&nudge, &mut Meter::new());
        });
        model.fetch_stationary(&grid, ctx);
        let (h, lane) = (cfg.hidden, 10 * grid.a_row_block() as u64);
        let prompt =
            |rows, id| Stream::new(Arc::new(T::init_xavier_block(rows, h, 0, 0, rows, h, 37, id)));
        let mut batch = InferBatch {
            new_rows: vec![3, 2],
            kvs: vec![model.new_kv(&grid), model.new_kv(&grid)],
        };
        let mut x = Stream::concat_rows(vec![prompt(3, lane), prompt(2, lane + 1)], &mut ctx.meter);
        for step in 1..=2 {
            let y = model.forward_infer_rows(&grid, ctx, x, &mut batch);
            let mut rows = last_rows(&y, &batch.new_rows, ctx);
            if !carry {
                rows = (rows.into_iter())
                    .map(|row| {
                        let by_hand = fold_by_hand(&row);
                        let folded = row.into_rows(ctx);
                        assert_eq!(
                            folded.try_matrix().cloned(),
                            by_hand,
                            "[{q},{q},{d}] rank {}: a pending row folds out of order",
                            ctx.rank
                        );
                        Stream::new(folded)
                    })
                    .collect();
            }
            batch.new_rows = vec![1; rows.len()];
            if step == 2 {
                rows.push(prompt(4, lane + 2));
                batch.new_rows.push(4);
                batch.kvs.push(model.new_kv(&grid));
            }
            x = Stream::concat_rows(rows, &mut ctx.meter);
        }
        let y = model.forward_infer_rows(&grid, ctx, x, &mut batch).into_rows(ctx);
        ctx.flush_compute();
        let kvs = (batch.kvs.iter())
            .flat_map(|kv| kv.layers.iter().flat_map(|l| [&l.k, &l.v]))
            .map(|t| t.try_matrix().cloned())
            .collect();
        (ctx.clock().to_bits(), y.try_matrix().cloned(), kvs)
    });
    out.results
}

/// A continuing request's pending last row, carried into the next step
/// and folded at the head of its first launch, reads bitwise what
/// materializing it with `Stream::into_rows` and feeding it in does: every
/// rank's outputs and KV caches agree, on `[2,2,1]`, `[3,3,1]` (three
/// terms to fold) and `[2,2,2]`, with a fresh prompt riding behind the
/// carried rows. Dense and Shadow book the same clock on every rank.
#[test]
fn a_carried_pending_row_folds_bitwise_as_its_materialized_row() {
    for (q, d) in [(2, 1), (3, 1), (2, 2)] {
        let shape = GridShape::new(q, d);
        let carried = prompt_then_two_decodes::<DenseTensor>(shape, true);
        let materialized = prompt_then_two_decodes::<DenseTensor>(shape, false);
        for (rank, (c, m)) in carried.iter().zip(&materialized).enumerate() {
            let what = format!("[{q},{q},{d}] rank {rank}");
            assert!(c.1.is_some(), "{what}: Dense stores values");
            assert_eq!(c.1, m.1, "{what}: the last step's rows differ");
            assert_eq!(c.2, m.2, "{what}: the KV caches differ");
        }
        for (carry, dense) in [(true, &carried), (false, &materialized)] {
            let shadow = prompt_then_two_decodes::<ShadowTensor>(shape, carry);
            for (rank, (dense, shadow)) in dense.iter().zip(&shadow).enumerate() {
                assert_eq!(
                    dense.0, shadow.0,
                    "[{q},{q},{d}] rank {rank}, carry = {carry}: Dense and Shadow clocks differ"
                );
            }
        }
    }
}

#[test]
fn a_decode_step_launches_the_same_kernels_for_one_segment_as_for_eight() {
    // Attention is one fused launch per layer, so a step's launch count
    // does not grow with its segments; an unfused per-(segment, head)
    // chain would add 4 launches per segment and head.
    let shape = GridShape::new(2, 2);
    let cfg = test_model();
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, 9, 0);
        (decode_step(ctx, &grid, &model, 1)[0], decode_step(ctx, &grid, &model, 8)[0])
    });
    for (rank, &(one, eight)) in out.results.iter().enumerate() {
        assert!(one > 0, "rank {rank}: a decode step launches kernels");
        assert_eq!(one, eight, "rank {rank}: launches per step grew with the segment count");
    }
}

#[test]
fn a_busy_decode_step_is_two_lane_all_gathers_and_two_launches_per_layer() {
    // Per layer two fused launches, each ending in one lane all-gather of
    // the row-parallel terms: fold → residual add → ln1 → wqkv → KV append
    // → attention → wo's term; then fold → residual add → ln2 → fc1 → GELU
    // → fc2's term. The step ends at its last gather: the next step's
    // first launch folds the carried rows at its head (a step that folded
    // its own last rows spent one launch more, 2·layers + 1). The terms
    // are gathered, not all-reduced.
    let cfg = test_model();
    let layers = cfg.layers as u64;
    for q in [2, 4] {
        let shape = GridShape::new(q, 1);
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, 9, 0);
            decode_step(ctx, &grid, &model, 3)
        });
        for (rank, &[launches, ..]) in out.results.iter().enumerate() {
            assert_eq!(launches, 2 * layers, "q = {q}, rank {rank}: launches per step");
        }
        let lane_of = lanes_of(shape);
        for lane in 0..q {
            let on_lane = out.results.iter().zip(&lane_of).filter(|&(_, &l)| l == lane);
            let led = |c: usize| on_lane.clone().map(|(r, _)| r[c]).sum::<u64>();
            assert_eq!(led(1), 0, "q = {q}, lane {lane}: all-reduces per step");
            assert_eq!(led(2), 2 * layers, "q = {q}, lane {lane}: lane all-gathers per step");
        }
    }
}

#[test]
fn inference_never_grows_tapes_and_drops_activation_arcs() {
    let shape = GridShape::new(2, 1);
    let cfg = test_model();
    RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, 5, 0);
        let prompt = Arc::new(prompt_block(&grid, cfg.hidden, 4, 99, 0));
        let weak_prompt = Arc::downgrade(&prompt);

        let mut kv = model.new_kv(&grid);
        let mut batch = InferBatch { new_rows: vec![4], kvs: vec![kv] };
        let y = model.forward_infer(&grid, ctx, &prompt, &mut batch);
        kv = batch.kvs.pop().expect("cache returned");
        let mut next = y.slice_rows(3, 4, &mut ctx.meter);
        assert_eq!(ctx.tape_bytes_now(), 0, "prefill must not tape activations");
        drop(y);
        drop(prompt);
        assert!(
            weak_prompt.upgrade().is_none(),
            "prompt activation must be freed right after the prefill step"
        );

        for _ in 0..3 {
            let x = Arc::new(next);
            let weak_x = Arc::downgrade(&x);
            let mut batch = InferBatch { new_rows: vec![1], kvs: vec![kv] };
            let y = model.forward_infer(&grid, ctx, &x, &mut batch);
            kv = batch.kvs.pop().expect("cache returned");
            next = y.slice_rows(0, 1, &mut ctx.meter);
            assert_eq!(ctx.tape_bytes_now(), 0, "decode must not tape activations");
            drop(y);
            drop(x);
            assert!(weak_x.upgrade().is_none(), "decode activations must be freed after each step");
        }
    });
}

#[test]
#[should_panic(expected = "backward without forward")]
fn backward_after_forward_infer_panics_on_the_empty_tape() {
    use tesseract_core::Module;
    let shape = GridShape::new(2, 1);
    let cfg = test_model();
    RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, 5, 0);
        let x = Arc::new(prompt_block(&grid, cfg.hidden, 4, 3, 0));
        let mut batch = InferBatch { new_rows: vec![4], kvs: vec![model.new_kv(&grid)] };
        let y = model.forward_infer(&grid, ctx, &x, &mut batch);
        // forward_infer taped nothing, so backward has nothing to unwind.
        let _ = model.layers[0].backward(&grid, ctx, &y);
    });
}

fn smoke_traffic() -> Vec<RequestSpec> {
    tesseract_serve::generate(&TrafficConfig {
        rate: 2_000.0,
        requests: 10,
        prompt_lens: (2, 6),
        output_lens: (1, 4),
        seed: 21,
    })
}

#[test]
fn engine_serves_all_requests_with_sane_latencies() {
    let shape = GridShape::new(2, 1);
    let traffic = smoke_traffic();
    let out = serve_on_cluster::<DenseTensor>(
        &RunConfig::from_env(shape.size()),
        shape,
        &serve_cfg(),
        &traffic,
    );
    let summary = &out.results[0];
    assert_eq!(summary.results.len(), traffic.len());
    for (r, spec) in summary.results.iter().zip(&traffic) {
        assert_eq!(r.id, spec.id);
        assert_eq!(r.prompt_len, spec.prompt_len);
        assert!(r.first_token_time > r.arrival, "prefill takes simulated time");
        assert!(r.finish_time >= r.first_token_time);
        if spec.output_len == 1 {
            assert_eq!(r.finish_time, r.first_token_time, "single-token requests finish at TTFT");
        }
    }
    let stats = latency_stats(summary.results.iter().map(|r| r.latency()).collect());
    assert!(stats.p99 >= stats.p50, "percentiles must be ordered");
    assert!(stats.p50 > 0.0);
    // serve_on_cluster folds every lane's results into one list per rank.
    for other in &out.results[1..] {
        assert_eq!(other.results, summary.results);
    }
    assert!(out.makespan() >= summary.results.iter().map(|r| r.finish_time).fold(0.0, f64::max));
}

#[test]
fn serving_ignores_the_training_batch_and_seq() {
    // `ServeConfig::model`'s batch and seq shape training only: a batch the
    // grid does not divide and a zero seq serve what a trainable shape does.
    let shape = GridShape::new(2, 1);
    let traffic = smoke_traffic();
    let serve = |batch, seq| {
        let model = TransformerConfig { batch, seq, ..test_model() };
        let cfg = ServeConfig { model, ..serve_cfg() };
        serve_on_cluster::<DenseTensor>(&RunConfig::from_env(shape.size()), shape, &cfg, &traffic)
            .results
    };
    let ignored = serve(1, 0);
    assert_eq!(ignored[0].results.len(), traffic.len(), "every request is served");
    assert_eq!(ignored, serve(16, 64), "batch and seq change no result");
}

#[test]
fn engine_reruns_are_bitwise_identical() {
    let shape = GridShape::new(2, 2);
    let traffic = smoke_traffic();
    let run = || {
        serve_on_cluster::<DenseTensor>(
            &RunConfig::from_env(shape.size()),
            shape,
            &serve_cfg(),
            &traffic,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results, "summaries must be deterministic");
    assert_eq!(a.reports, b.reports, "rank reports must be deterministic");
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn dense_and_shadow_serving_report_identical_virtual_time() {
    // The shadow backend charges byte-for-byte like the dense one, so the
    // sweep can run paper-scale serving on shapes alone. Latency results
    // and every rank report must agree bitwise across backends.
    let shape = GridShape::new(2, 1);
    let traffic = smoke_traffic();
    let cluster = RunConfig::from_env(shape.size());
    let dense = serve_on_cluster::<DenseTensor>(&cluster, shape, &serve_cfg(), &traffic);
    let shadow = serve_on_cluster::<ShadowTensor>(&cluster, shape, &serve_cfg(), &traffic);
    assert_eq!(dense.results, shadow.results);
    assert_eq!(dense.reports, shadow.reports);
}

#[test]
fn meter_counters_reconcile_with_the_engine_exactly() {
    let shape = GridShape::new(2, 2);
    let traffic = smoke_traffic();
    let out = serve_on_cluster::<DenseTensor>(
        &RunConfig::from_env(shape.size()),
        shape,
        &serve_cfg(),
        &traffic,
    );
    // Every rank holds `q` weight panels of each linear, `in·out/q` floats:
    // wqkv's and fc1's column with its bias block `[1, out/q]`, wo's and
    // fc2's row with the whole bias `[1, out]`.
    let m = test_model();
    let (h, f, q) = (m.hidden, m.mlp_hidden(), shape.q);
    let column = |i: usize, o: usize| (i + 1) * o / q;
    let row = |i: usize, o: usize| i * o / q + o;
    let per_layer = column(h, 3 * h) + row(h, h) + column(h, f) + row(f, h);
    let stationary_bytes = (4 * m.layers * per_layer) as u64;
    let mut total_prefills = 0u64;
    let mut total_decodes = 0u64;
    for (summary, report) in out.results.iter().zip(&out.reports) {
        assert_eq!(report.prefill_steps, summary.prefill_steps, "prefill counters reconcile");
        assert_eq!(report.decode_steps, summary.decode_steps, "decode counters reconcile");
        assert_eq!(report.kv_cache_bytes_peak, summary.kv_peak_bytes, "KV peaks reconcile");
        assert!(report.kv_cache_bytes_peak > 0, "serving must cache something");
        assert_eq!(report.weight_bytes, summary.weight_bytes, "weight bytes reconcile");
        assert_eq!(
            summary.weight_bytes, stationary_bytes,
            "q weight panels per linear, plus biases"
        );
        assert!(report.idle_time >= 0.0);
        total_prefills += report.prefill_steps;
        total_decodes += report.decode_steps;
    }
    // Each lane-step is counted by the q ranks of its row fiber (they all
    // execute it); fibers of the same lane agree.
    assert_eq!(total_prefills % (shape.q as u64), 0);
    assert!(total_prefills > 0);
    assert!(total_decodes > 0);
    // Decode outputs exactly the non-prefill tokens, globally.
    let expected_decode_tokens: usize = traffic.iter().map(|r| r.output_len - 1).sum();
    let decoded: usize = out.results[0].results.iter().map(|r| r.output_len - 1).sum();
    assert_eq!(decoded, expected_decode_tokens);
}

#[test]
fn traced_serving_reconciles_with_its_accounting_exactly() {
    // A trickle of requests on [2,2,2]: lanes idle until their own
    // arrivals, step only when they have work, and never barrier.
    let shape = GridShape::new(2, 2);
    let traffic = tesseract_serve::generate(&TrafficConfig {
        rate: 200.0,
        requests: 5,
        prompt_lens: (2, 6),
        output_lens: (1, 4),
        seed: 21,
    });
    let cluster = RunConfig::new(shape.size()).with_trace(true);
    let out = serve_on_cluster::<ShadowTensor>(&cluster, shape, &serve_cfg(), &traffic);
    for (summary, r) in out.results.iter().zip(&out.reports) {
        assert!(r.idle_time > 0.0, "rank {} never idled", r.rank);
        assert_eq!(
            r.prefill_steps + r.decode_steps,
            summary.steps_total,
            "rank {} ran a step that was neither prefill nor decode",
            r.rank
        );
    }
    assert_eq!(out.comm.get(CollectiveOp::Barrier).calls, 0);
    assert_eq!(out.reconcile_trace(), Ok(()));
}

/// The lane `(i + k·q)` of every rank of a `shape` grid, in rank order.
fn lanes_of(shape: GridShape) -> Vec<usize> {
    (0..shape.size())
        .map(|rank| {
            let (i, _, k) = shape.coords_of(rank);
            shape.a_row_block(i, k)
        })
        .collect()
}

#[test]
fn serving_lanes_run_independently() {
    // Random small traffic, some of it sparser than one request per lane:
    // (a) a lane's q ranks end on bitwise-equal clocks and step counts,
    // (b) another lane's output lengths change nothing on this lane, and
    // (c) no rank synchronizes with a barrier.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1A4E);
    for shape in [GridShape::new(2, 1), GridShape::new(2, 2)] {
        let lane_of = lanes_of(shape);
        let lanes = shape.q * shape.d;
        for case in 0..4 {
            let traffic = tesseract_serve::generate(&TrafficConfig {
                rate: [200.0, 2_000.0, 1e12][rng.next_usize(3)],
                requests: 1 + rng.next_usize(12),
                prompt_lens: (1, 1 + rng.next_usize(8)),
                output_lens: (1, 1 + rng.next_usize(5)),
                seed: case,
            });
            let serve = |traffic: &[RequestSpec]| {
                let cluster = RunConfig::from_env(shape.size());
                serve_on_cluster::<ShadowTensor>(&cluster, shape, &serve_cfg(), traffic)
            };
            let out = serve(&traffic);
            for (rank, (summary, report)) in out.results.iter().zip(&out.reports).enumerate() {
                let peer = lane_of.iter().position(|&l| l == lane_of[rank]).expect("own lane");
                let (head, head_report) = (&out.results[peer], &out.reports[peer]);
                assert_eq!(
                    report.virtual_time.to_bits(),
                    head_report.virtual_time.to_bits(),
                    "case {case}: rank {rank}'s clock left its lane's"
                );
                assert_eq!(
                    (summary.prefill_steps, summary.decode_steps, summary.steps_total),
                    (head.prefill_steps, head.decode_steps, head.steps_total),
                    "case {case}: rank {rank}'s step count left its lane's"
                );
                assert_eq!(report.comm.get(CollectiveOp::Barrier).calls, 0, "rank {rank}");
            }

            let lane = rng.next_usize(lanes);
            let mut other = traffic.clone();
            for r in other.iter_mut().filter(|r| r.id % lanes != lane) {
                r.output_len = 1 + (r.output_len + 2) % 6;
            }
            let perturbed = serve(&other);
            let on_lane = |results: &[tesseract_serve::RequestResult]| {
                results.iter().filter(|r| r.lane == lane).copied().collect::<Vec<_>>()
            };
            assert_eq!(
                on_lane(&out.results[0].results),
                on_lane(&perturbed.results[0].results),
                "case {case}: lane {lane}'s results moved with other lanes' traffic"
            );
            for rank in (0..shape.size()).filter(|&r| lane_of[r] == lane) {
                assert_eq!(out.reports[rank], perturbed.reports[rank], "case {case}: rank {rank}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "sit alike on nodes")]
fn a_grid_whose_columns_sit_unlike_on_nodes_is_refused() {
    // On 4-GPU nodes a [3,3,1] grid's column {0,3,6} spans two nodes and
    // {2,5,8} three, so its lanes' ranks would leave the weight fetch on
    // different clocks and could plan different batches.
    let shape = GridShape::new(3, 1);
    let cfg = ServeConfig {
        model: TransformerConfig { batch: 3, hidden: 12, heads: 3, ..test_model() },
        ..serve_cfg()
    };
    serve_on_cluster::<ShadowTensor>(
        &RunConfig::from_env(shape.size()),
        shape,
        &cfg,
        &smoke_traffic(),
    );
}

#[test]
fn offered_load_past_saturation_raises_latency() {
    // Same work, two arrival rates: a trickle vs everything-at-once. The
    // open-loop property the sweep reports — queueing delay past the
    // saturation knee — must be visible even at smoke scale.
    let shape = GridShape::new(2, 1);
    let base = TrafficConfig {
        rate: 1.0,
        requests: 8,
        prompt_lens: (3, 3),
        output_lens: (3, 3),
        seed: 55,
    };
    let run = |rate: f64| -> ServeSummary {
        let traffic = tesseract_serve::generate(&TrafficConfig { rate, ..base });
        let out = serve_on_cluster::<ShadowTensor>(
            &RunConfig::from_env(shape.size()),
            shape,
            &ServeConfig { max_lane_requests: 2, ..serve_cfg() },
            &traffic,
        );
        out.results[0].clone()
    };
    let trickle = run(0.5);
    let flood = run(50_000.0);
    let p50 = |s: &ServeSummary| latency_stats(s.results.iter().map(|r| r.latency()).collect()).p50;
    assert!(
        p50(&flood) > p50(&trickle),
        "saturated load must queue: p50 {} vs {}",
        p50(&flood),
        p50(&trickle)
    );
}
