//! Pick an arrangement for a GPU budget: for a fixed Transformer problem,
//! run the planner (`plan::plan`) on exactly `gpu_budget` GPUs and print its
//! ranked table — every feasible Megatron, `[q, q, d]` and hybrid
//! arrangement with its simulated step time, beside every infeasible one
//! and why. This is the tool a user would reach for to pick an arrangement
//! ("Tesseract offers a flexible depth and dimension which could help users
//! use their GPUs in the most efficient way", §1).
//!
//! Run: `cargo run --release --example comm_cost_explorer [gpu_budget]`

use tesseract_repro::core::TransformerConfig;
use tesseract_repro::plan::{plan, PlanRequest};

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
    print!("{}", plan(&PlanRequest::new(budget, cfg)).describe());
}
