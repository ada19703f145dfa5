//! Interactive-style sweep over Tesseract arrangements: for a fixed
//! Transformer problem, print every legal `[q, q, d]` decomposition of a
//! GPU budget with its simulated step time and communication breakdown —
//! the tool a user would reach for to pick an arrangement ("Tesseract
//! offers a flexible depth and dimension which could help users use their
//! GPUs in the most efficient way", §1).
//!
//! Run: `cargo run --release --example comm_cost_explorer [gpu_budget]`

use tesseract_repro::comm::RunConfig;
use tesseract_repro::core::{
    GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig,
};
use tesseract_repro::tensor::ShadowTensor;

fn main() {
    let budget: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let cfg = TransformerConfig {
        batch: 64,
        seq: 256,
        hidden: 2048,
        heads: 32,
        mlp_ratio: 4,
        layers: 4,
        eps: 1e-5,
    };
    println!(
        "arrangements of up to {budget} GPUs for a Transformer (b={}, s={}, h={}, n={}, N={}):\n",
        cfg.batch, cfg.seq, cfg.hidden, cfg.heads, cfg.layers
    );
    println!("| arrangement | p | step time (s) | compute (s) | comm (s) | wire GB |");
    println!("|---|---|---|---|---|---|");

    let mut best: Option<(String, f64)> = None;
    for q in 1..=8usize {
        for d in 1..=8usize {
            let (p, shape) = (q * q * d, GridShape::new(q, d));
            if p > budget || shape.check(&cfg).is_err() {
                continue;
            }
            let out = RunConfig::from_env(p).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let mut model =
                    TesseractTransformer::<ShadowTensor>::new(ctx, &grid, cfg, true, 0, 0);
                let x =
                    std::sync::Arc::new(ShadowTensor::new(cfg.rows() / (q * d), cfg.hidden / q));
                let y = model.forward(&grid, ctx, &x);
                let _ = model.backward(&grid, ctx, &y);
                ctx.flush_compute();
            });
            let label = format!("[{q},{q},{d}]");
            println!(
                "| {label} | {p} | {:.4} | {:.4} | {:.4} | {:.2} |",
                out.makespan(),
                out.max_compute_time(),
                out.max_comm_time(),
                out.comm.total_wire_bytes() as f64 / 1e9,
            );
            if best.as_ref().map(|(_, t)| out.makespan() < *t).unwrap_or(true) {
                best = Some((label, out.makespan()));
            }
        }
    }

    if let Some((label, t)) = best {
        println!("\nfastest arrangement within the budget: {label} at {t:.4} simulated s/step");
    }
}
