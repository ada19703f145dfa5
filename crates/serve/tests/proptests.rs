//! Property-based KV-cache parity: over random prompt and decode lengths,
//! cached incremental decode must be bitwise identical to recomputing every
//! prefix from scratch through the same causal prefill path.

use std::sync::Arc;

use proptest::prelude::*;
use tesseract_comm::Cluster;
use tesseract_core::{GridShape, InferBatch, InferModel, TesseractGrid, TransformerConfig};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike};

fn test_model() -> TransformerConfig {
    // Small enough that every GEMM stays on the serial (per-row bitwise)
    // kernel; batch divides q·d for [2,2,1].
    TransformerConfig { batch: 8, seq: 4, hidden: 16, heads: 4, mlp_ratio: 4, layers: 2, eps: 1e-5 }
}

/// One parity check: greedy cached decode vs full-prefix recompute, both
/// collected as per-token output rows that must match bitwise on every rank.
fn check_parity(prompt_len: usize, decode_tokens: usize, seed: u64) {
    let shape = GridShape::new(2, 1);
    let cfg = test_model();
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let model = InferModel::<DenseTensor>::new(ctx, &grid, cfg, true, seed, 0);
        let local_h = cfg.hidden / grid.shape.q;
        let prompt = DenseTensor::init_xavier_block(
            prompt_len,
            cfg.hidden,
            0,
            grid.j() * local_h,
            prompt_len,
            local_h,
            seed ^ 0xABCD,
            1,
        );

        // Cached path: one prefill, then one-row decode steps.
        let mut kv = model.new_kv(&grid);
        let mut cached_rows: Vec<Matrix> = Vec::new();
        let mut batch = InferBatch { new_rows: vec![prompt_len], kvs: vec![kv] };
        let y = model.forward_infer(&grid, ctx, &Arc::new(prompt.clone()), &mut batch);
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

        // Recompute path: fresh cache + causal prefill per prefix length.
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
        prop_assert_eq!(cached.len(), prompt_len + decode_tokens);
        prop_assert_eq!(cached.len(), recomputed.len());
        for (t, (c, r)) in cached.iter().zip(recomputed).enumerate() {
            prop_assert_eq!(c, r, "rank {rank}: cached decode diverged at token {t}");
        }
    }
}

proptest! {
    // Fewer cases: each spawns a simulated cluster and decodes token by token.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_decode_matches_recompute_on_random_lengths(
        prompt_len in 1usize..12,
        decode_tokens in 1usize..8,
        seed in 0u64..1000,
    ) {
        check_parity(prompt_len, decode_tokens, seed);
    }
}
