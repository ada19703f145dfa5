//! Integration tests for the serving path: KV-cache bitwise parity,
//! no-grad inference, engine determinism, and counter reconciliation.

use std::sync::Arc;

use tesseract_comm::{CollectiveOp, RankCtx, RunConfig};
use tesseract_core::partition::{a_block, combine_c};
use tesseract_core::{
    GridShape, InferBatch, Module, TesseractGrid, TesseractTransformer, TransformerConfig,
};
use tesseract_serve::{
    latency_stats, serve_on_cluster, RequestSpec, ServeConfig, ServeSummary, TrafficConfig,
};
use tesseract_tensor::{DenseTensor, Matrix, ShadowTensor, TensorLike, Xoshiro256StarStar};

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
            let rows = Arc::new(DenseTensor::from_matrix(x.clone()));
            let served = model.forward_infer_rows(&grid, ctx, rows, &mut batch);
            (trained, served.matrix().clone())
        });
        let (trained, served): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
        let trained = combine_c(&trained, shape);
        for (rank, served) in served.iter().enumerate() {
            assert_eq!(*served, trained, "q = {q}, rank {rank}: serving differs from training");
        }
    }
}

/// What one decode step on full rows over `segments` requests, each
/// prefilled first with a prompt of its own length, books on this rank:
/// its kernel launches, and the row all-reduces and all-gathers it led
/// (one member of each lane books the lane's collective).
fn decode_step(
    ctx: &mut RankCtx,
    grid: &TesseractGrid,
    model: &TesseractTransformer<DenseTensor>,
    segments: usize,
) -> [u64; 3] {
    let hidden = test_model().hidden;
    let full = |rows, stream| {
        Arc::new(DenseTensor::init_xavier_block(rows, hidden, 0, 0, rows, hidden, 5, stream))
    };
    model.fetch_stationary(grid, ctx);
    let new_rows: Vec<usize> = (0..segments).map(|s| 2 + s % 3).collect();
    let prompt = full(new_rows.iter().sum(), segments as u64);
    let kvs = (0..segments).map(|_| model.new_kv(grid)).collect();
    let mut batch = InferBatch { new_rows, kvs };
    model.forward_infer_rows(grid, ctx, prompt, &mut batch);
    batch.new_rows = vec![1; segments];
    let before = ctx.report();
    model.forward_infer_rows(grid, ctx, full(segments, 100 + segments as u64), &mut batch);
    let after = ctx.report();
    let led = |op| after.comm.get(op).calls - before.comm.get(op).calls;
    [after.kernels - before.kernels, led(CollectiveOp::AllReduce), led(CollectiveOp::AllGather)]
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
fn a_busy_decode_step_is_two_lane_all_gathers_per_layer_and_one_launch_more() {
    // Per layer two fused launches, each ending in one lane all-gather of
    // the row-parallel terms: residual add → ln1 → wqkv → KV append →
    // attention → wo's term; then fold → residual add → ln2 → fc1 → GELU →
    // fc2's term. Then one launch for the last fold and residual add. The
    // terms are gathered, not all-reduced.
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
            assert_eq!(launches, 2 * layers + 1, "q = {q}, rank {rank}: launches per step");
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
