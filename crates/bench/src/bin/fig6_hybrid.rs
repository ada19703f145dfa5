//! Reproduces **Figure 6** (hybrid parallelism structure): dp = 2 × pp = 2
//! × Tesseract `[2,2,2]` = 32 GPUs. Prints the rank→(replica, stage, grid
//! position) map the figure illustrates, then runs one real GPipe training
//! step through the arrangement on the simulated cluster and reports the
//! timing decomposition.
//!
//! Run: `cargo run --release -p tesseract-bench --bin fig6_hybrid`

use tesseract_comm::RunConfig;
use tesseract_core::layers::StackOptions;
use tesseract_core::TransformerConfig;
use tesseract_hybrid::{HybridShape, HybridTransformer};
use tesseract_tensor::ShadowTensor;

fn main() {
    let shape = HybridShape::figure6();
    println!("Figure 6 — GPU structure for Tesseract + pipeline + data parallelism\n");
    println!("{}", shape.describe());
    println!("rank → (replica, stage, i, j, k):");
    for rank in 0..shape.total() {
        let c = shape.coords_of(rank);
        let (i, j, k) = shape.grid().coords_of(c.tess_offset);
        print!("  {rank:>2} → (dp{}, pp{}, {i},{j},{k})", c.dp_idx, c.pp_idx);
        if (rank + 1) % 4 == 0 {
            println!();
        }
    }

    // One paper-scale GPipe step (shadow backend): 4 microbatches.
    let cfg = TransformerConfig {
        batch: 8, // per microbatch; q·d = 4 divides it
        seq: 512,
        hidden: 3072,
        heads: 64,
        mlp_ratio: 4,
        layers: 8, // 4 per stage
        eps: 1e-5,
    };
    let microbatches = 4;
    let out = RunConfig::from_env(shape.total()).run(|ctx| {
        let mut engine = HybridTransformer::new(ctx, shape, cfg, true, 0, StackOptions::default());
        // A-type partitioning splits rows into q·d bands (Figure 4a).
        let rows_local = engine.cfg.rows() / (shape.grid().q * shape.grid().d);
        let cols_local = cfg.hidden / shape.grid().q;
        let _ = engine.train_step(
            ctx,
            microbatches,
            |_m| ShadowTensor::new(rows_local, cols_local),
            |_ctx, y, _m| *y,
        );
        ctx.flush_compute();
        (ctx.rank, ctx.clock())
    });

    println!(
        "\none GPipe step: {} microbatches x batch {} (global batch {})",
        microbatches,
        cfg.batch,
        microbatches * cfg.batch * shape.dp()
    );
    println!("simulated makespan: {:.4} s", out.makespan());
    println!("max compute time:   {:.4} s", out.max_compute_time());
    println!("max comm+wait time: {:.4} s (includes the pipeline bubble)", out.max_comm_time());
    println!("\ncollective traffic:\n{}", out.comm.render_table());
}
