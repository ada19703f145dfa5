//! Figure 6 end-to-end: data parallelism × pipeline parallelism ×
//! Tesseract on 32 simulated GPUs, running a real (dense) training step
//! and verifying the data-parallel replicas stay synchronized. The sync
//! sums each gradient over the replicas, as the depth all-reduce sums over
//! depth and the GPipe step over microbatches: every replica axis adds up
//! its shares of the one global loss's gradient.
//!
//! Run: `cargo run --release --example hybrid_parallelism`

use tesseract_repro::comm::RunConfig;
use tesseract_repro::core::layers::StackOptions;
use tesseract_repro::core::partition::a_block;
use tesseract_repro::core::{Module, TransformerConfig};
use tesseract_repro::hybrid::{HybridShape, HybridTransformer};
use tesseract_repro::tensor::{DenseTensor, Matrix, TensorLike, Xoshiro256StarStar};

fn main() {
    let shape = HybridShape::figure6(); // dp=2 x pp=2 x [2,2,2] = 32 GPUs
    println!("{}", shape.describe());

    let cfg = TransformerConfig {
        batch: 4, // per microbatch
        seq: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 2, // one per pipeline stage
        eps: 1e-5,
    };
    let microbatches = 2;

    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    // One batch per (replica, microbatch).
    let inputs: Vec<Matrix> = (0..shape.dp() * microbatches)
        .map(|_| Matrix::random_uniform(cfg.rows(), cfg.hidden, -1.0, 1.0, &mut rng))
        .collect();

    let grid_shape = shape.grid();
    let out = RunConfig::from_env(shape.total()).run(|ctx| {
        let mut engine = HybridTransformer::new(ctx, shape, cfg, true, 7, StackOptions::default());
        let coords = engine.coords;
        let (i, j, k) = engine.grid.coords;
        let inputs = inputs.clone();
        let (outputs, _) = engine.train_step(
            ctx,
            microbatches,
            |m| {
                let global = &inputs[coords.dp_idx * microbatches + m];
                DenseTensor::from_matrix(a_block(global, grid_shape, i, j, k))
            },
            // Toy loss: L = sum(y) → dY = ones.
            |_ctx, y, _m| DenseTensor::from_matrix(Matrix::full(y.rows(), y.cols(), 1.0)),
        );
        // Expose the first parameter gradient for the sync check.
        let mut grad0 = None;
        engine.model.visit_params(&mut |pr| {
            if grad0.is_none() {
                grad0 = Some(pr.grad.clone().into_matrix());
            }
        });
        (coords, outputs.len(), grad0.unwrap())
    });

    println!("per-rank results (replica, stage, outputs produced):");
    for (coords, n_out, _) in &out.results {
        if coords.tess_offset == 0 {
            println!("  dp{} pp{}: {} last-stage outputs", coords.dp_idx, coords.pp_idx, n_out);
        }
    }

    // Verify the data-parallel all-reduce left every replica the same sum.
    let mut synced = true;
    for pp_idx in 0..shape.pp() {
        for off in 0..shape.grid().size() {
            let grads: Vec<&Matrix> = out
                .results
                .iter()
                .filter(|(c, _, _)| c.pp_idx == pp_idx && c.tess_offset == off)
                .map(|(_, _, g)| g)
                .collect();
            synced &= grads.windows(2).all(|w| w[0] == w[1]);
        }
    }
    println!("\ndata-parallel replicas hold identical synced gradients: {synced}");
    println!("simulated step makespan: {:.3} µs", out.makespan() * 1e6);
    assert!(synced);
}
