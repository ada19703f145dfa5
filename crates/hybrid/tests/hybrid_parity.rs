//! Hybrid-parallel parity: the dp × pp × Tesseract engine must compute the
//! same function and gradients as the serial oracle — Figure 6's
//! arrangement is still "no approximation".

use tesseract_baselines::serial::SerialTransformer;
use tesseract_comm::RunConfig;
use tesseract_core::layers::StackOptions;
use tesseract_core::partition::{a_block, combine_c};
use tesseract_core::{GridShape, Module, TransformerConfig};
use tesseract_hybrid::{HybridShape, HybridTransformer};
use tesseract_tensor::{assert_slices_close, DenseTensor, Matrix};

const SEED: u64 = 77;

#[test]
fn pipeline_only_matches_serial_stack() {
    // pp = 2 single-rank stages over a 2-layer stack.
    let cfg = TransformerConfig {
        batch: 2,
        seq: 3,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 2,
        eps: 1e-5,
    };
    let x = Matrix::seeded(cfg.rows(), cfg.hidden, 1);
    let dy = Matrix::seeded(cfg.rows(), cfg.hidden, 2);
    let mut serial = SerialTransformer::new(cfg, true, SEED, 0);
    let y_ser = serial.forward(&x);
    let _ = serial.backward(&dy);

    let shape = HybridShape::new(1, 2, GridShape::new(1, 1));
    let out = RunConfig::from_env(2).run(|ctx| {
        let mut engine = HybridTransformer::<DenseTensor>::new(
            ctx,
            shape,
            cfg,
            true,
            SEED,
            StackOptions::default(),
        );
        let x = x.clone();
        let dy = dy.clone();
        let (outputs, _) = engine.train_step(
            ctx,
            1,
            |_m| DenseTensor::from_matrix(x.clone()),
            |_ctx, _y, _m| DenseTensor::from_matrix(dy.clone()),
        );
        let mut grads = Vec::new();
        engine.model.visit_params(&mut |pr| grads.push(pr.grad.clone().into_matrix()));
        (outputs.iter().map(|o| o.matrix().clone()).collect::<Vec<_>>(), grads)
    });
    // Last stage holds the full output (grid is [1,1,1]).
    let (ref outputs, ref stage1_grads) = out.results[1];
    assert_eq!(outputs.len(), 1);
    assert_slices_close(outputs[0].data(), y_ser.data(), 3e-4);

    // Stage 1 holds layer 1's params; compare its attention Wq gradient.
    // Grad order in visit_params: wqkv (fused), wqkv bias, wo, wo bias, ...
    // The fused wqkv grad's first h columns are Wq's gradient.
    let wq_grad = stage1_grads[0].slice_cols(0, cfg.hidden);
    assert_slices_close(wq_grad.data(), serial.layers[1].attn.wq.dw.matrix().data(), 3e-4);
}

#[test]
fn data_parallel_sums_to_the_full_batch_gradient() {
    let cfg = TransformerConfig {
        batch: 2, // per replica
        seq: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 1,
        eps: 1e-5,
    };
    let full_cfg = TransformerConfig { batch: 4, ..cfg };
    let x_full = Matrix::seeded(full_cfg.rows(), cfg.hidden, 3);
    let dy_full = Matrix::seeded(full_cfg.rows(), cfg.hidden, 4);

    let mut serial = SerialTransformer::new(full_cfg, true, SEED, 0);
    let _ = serial.forward(&x_full);
    let _ = serial.backward(&dy_full);
    let serial_wq = serial.layers[0].attn.wq.dw.matrix();

    let shape = HybridShape::new(2, 1, GridShape::new(1, 1));
    let out = RunConfig::from_env(2).run(|ctx| {
        let mut engine = HybridTransformer::<DenseTensor>::new(
            ctx,
            shape,
            cfg,
            true,
            SEED,
            StackOptions::default(),
        );
        let rows_half = cfg.rows();
        let r0 = ctx.rank * rows_half;
        let x_half = x_full.slice_rows(r0, r0 + rows_half);
        let dy_half = dy_full.slice_rows(r0, r0 + rows_half);
        let _ = engine.train_step(
            ctx,
            1,
            |_m| DenseTensor::from_matrix(x_half.clone()),
            |_ctx, _y, _m| DenseTensor::from_matrix(dy_half.clone()),
        );
        let mut grads = Vec::new();
        engine.model.visit_params(&mut |pr| grads.push(pr.grad.clone().into_matrix()));
        grads
    });
    // Summed dp gradient = g_half0 + g_half1 = the full-batch gradient.
    let wq_dp = out.results[0][0].slice_cols(0, cfg.hidden);
    assert_slices_close(wq_dp.data(), serial_wq.data(), 3e-4);
    // Both replicas hold identical synced gradients.
    assert_eq!(out.results[0][0], out.results[1][0]);
}

#[test]
fn figure6_arrangement_matches_serial() {
    // The paper's full Figure 6: dp=2, pp=2, tesseract [2,2,2] → 32 ranks.
    let shape = HybridShape::figure6();
    let cfg = TransformerConfig {
        batch: 4, // per microbatch, divisible by q·d = 4
        seq: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 2,
        eps: 1e-5,
    };
    // Global batch = dp · microbatch = 8 samples.
    let full_cfg = TransformerConfig { batch: 8, ..cfg };
    let x_full = Matrix::seeded(full_cfg.rows(), cfg.hidden, 5);
    let dy_full = Matrix::seeded(full_cfg.rows(), cfg.hidden, 6);
    let mut serial = SerialTransformer::new(full_cfg, true, SEED, 0);
    let y_ser = serial.forward(&x_full);
    let _ = serial.backward(&dy_full);

    let grid = shape.grid();
    let out = RunConfig::from_env(shape.total()).run(|ctx| {
        let mut engine = HybridTransformer::<DenseTensor>::new(
            ctx,
            shape,
            cfg,
            true,
            SEED,
            StackOptions::default(),
        );
        let coords = engine.coords;
        // Replica r sees samples [r·4, r·4+4) → rows [r·8, r·8+8).
        let rows_per_replica = cfg.rows();
        let r0 = coords.dp_idx * rows_per_replica;
        let x_rep = x_full.slice_rows(r0, r0 + rows_per_replica);
        let dy_rep = dy_full.slice_rows(r0, r0 + rows_per_replica);
        let (i, j, k) = engine.grid.coords;
        let x_loc = a_block(&x_rep, grid, i, j, k);
        let dy_loc = a_block(&dy_rep, grid, i, j, k);
        let (outputs, _) = engine.train_step(
            ctx,
            1,
            |_m| DenseTensor::from_matrix(x_loc.clone()),
            |_ctx, _y, _m| DenseTensor::from_matrix(dy_loc.clone()),
        );
        let grad0 = {
            let mut g = None;
            engine.model.visit_params(&mut |pr| {
                if g.is_none() {
                    g = Some(pr.grad.clone().into_matrix());
                }
            });
            g.unwrap()
        };
        (coords, outputs.iter().map(|o| o.matrix().clone()).collect::<Vec<_>>(), grad0)
    });

    // Assemble last-stage outputs of each replica and compare to serial.
    for dp_idx in 0..shape.dp() {
        let mut blocks = vec![Matrix::zeros(1, 1); grid.size()];
        for (coords, outputs, _) in &out.results {
            if coords.dp_idx == dp_idx && coords.pp_idx == shape.pp() - 1 {
                blocks[coords.tess_offset] = outputs[0].clone();
            }
        }
        let y_rep = combine_c(&blocks, grid);
        let rows = cfg.rows();
        let expected = y_ser.slice_rows(dp_idx * rows, (dp_idx + 1) * rows);
        assert_slices_close(y_rep.data(), expected.data(), 5e-4);
    }

    // Data-parallel sync: the first parameter gradient must be identical
    // across replicas (same stage, same tess offset).
    for pp_idx in 0..shape.pp() {
        for off in 0..grid.size() {
            let mut seen: Option<&Matrix> = None;
            for (coords, _, grad) in &out.results {
                if coords.pp_idx == pp_idx && coords.tess_offset == off {
                    if let Some(prev) = seen {
                        assert_eq!(
                            prev, grad,
                            "dp replicas out of sync at stage {pp_idx} off {off}"
                        );
                    }
                    seen = Some(grad);
                }
            }
        }
    }
}

#[test]
fn checkpointed_stages_match_the_plain_pipeline_bitwise() {
    // pp = 2 stages of two layers on [2,2,1] grids; `recompute_every: Some(1)`
    // makes two segments per stage, replayed under a three-microbatch GPipe
    // order, with the replay of the last segment before the gradient recv.
    let shape = HybridShape::new(1, 2, GridShape::new(2, 1));
    let cfg = TransformerConfig {
        batch: 4, // per microbatch, divisible by q·d = 2
        seq: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 4,
        eps: 1e-5,
    };
    let microbatches = 3;
    let xs: Vec<Matrix> = (0..3).map(|m| Matrix::seeded(cfg.rows(), cfg.hidden, 10 + m)).collect();
    let dys: Vec<Matrix> = (0..3).map(|m| Matrix::seeded(cfg.rows(), cfg.hidden, 20 + m)).collect();
    let grid = shape.grid();
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let run = |opts: StackOptions| {
        RunConfig::from_env(shape.total())
            .run(|ctx| {
                let mut engine =
                    HybridTransformer::<DenseTensor>::new(ctx, shape, cfg, true, SEED, opts);
                let (i, j, k) = engine.grid.coords;
                let (outputs, _) = engine.train_step(
                    ctx,
                    microbatches,
                    |m| DenseTensor::from_matrix(a_block(&xs[m], grid, i, j, k)),
                    |_ctx, _y, m| DenseTensor::from_matrix(a_block(&dys[m], grid, i, j, k)),
                );
                let mut grads = Vec::new();
                engine.model.visit_params(&mut |pr| grads.push(bits(pr.grad.matrix())));
                let outputs: Vec<Vec<u32>> = outputs.iter().map(|o| bits(o.matrix())).collect();
                (outputs, grads, ctx.tape_bytes_now())
            })
            .results
    };
    let plain = run(StackOptions::default());
    let replayed = run(StackOptions { recompute_every: Some(1) });
    assert_eq!(replayed[shape.total() - 1].0.len(), microbatches);
    for (rank, (p, r)) in plain.iter().zip(&replayed).enumerate() {
        assert_eq!(p.0, r.0, "rank {rank}: last-stage outputs differ under recompute");
        assert_eq!(p.1, r.1, "rank {rank}: gradients differ under recompute");
        assert_eq!(r.2, 0, "rank {rank}: tape left resident after the step");
    }
}
