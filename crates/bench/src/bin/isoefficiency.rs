//! Experiment **A2 — isoefficiency** (§3.1, Eq. 11/12): how parallel
//! efficiency `E = 1 / (1 + T_comm·p / W)` behaves as processors are added,
//! per scheme, using *measured* simulated communication times, and how much
//! work each scheme needs to hold efficiency — the empirical counterpart of
//! the paper's isoefficiency functions (`W ~ p³` for Megatron-LM,
//! `W ~ (√p·log p)³` for Optimus/Tesseract-style broadcast schemes).
//!
//! Run: `cargo run --release -p tesseract-bench --bin isoefficiency`

use tesseract_bench::timing::{paper_config, time_megatron, time_tesseract};
use tesseract_core::analysis::{efficiency, isoefficiency_megatron, isoefficiency_optimus};
use tesseract_core::GridShape;

fn main() {
    println!("## A2 — measured parallel efficiency (Eq. 12) on the strong-scaling problem\n");
    let cfg = paper_config(16, 3072, 64);

    // Serial work proxy: compute-seconds of the p = 1 run.
    let serial = time_tesseract(GridShape::new(1, 1), cfg);
    let w = serial.forward_s + serial.backward_s;
    println!("serial step time W = {:.4} simulated s\n", w);

    println!("| scheme | p | step (s) | speedup | efficiency |");
    println!("|---|---|---|---|---|");
    for (label, p, t) in [
        ("Tesseract [2,2,1]", 4, time_tesseract(GridShape::new(2, 1), cfg)),
        ("Tesseract [2,2,2]", 8, time_tesseract(GridShape::new(2, 2), cfg)),
        ("Tesseract [4,4,1]", 16, time_tesseract(GridShape::new(4, 1), cfg)),
        ("Tesseract [4,4,2]", 32, time_tesseract(GridShape::new(4, 2), cfg)),
        ("Tesseract [4,4,4]", 64, time_tesseract(GridShape::new(4, 4), cfg)),
        ("Tesseract [8,8,1]", 64, time_tesseract(GridShape::new(8, 1), cfg)),
        ("Megatron [4]", 4, time_megatron(4, cfg)),
        ("Megatron [16]", 16, time_megatron(16, cfg)),
        ("Megatron [64]", 64, time_megatron(64, cfg)),
    ] {
        let step = t.forward_s + t.backward_s;
        let speedup = w / step;
        println!(
            "| {label} | {p} | {step:.4} | {speedup:.2}x | {:.1}% |",
            100.0 * speedup / p as f64
        );
    }

    println!("\n## closed-form isoefficiency growth (work needed to hold efficiency)\n");
    println!("| p | Megatron W ~ p^3 | Optimus/Tesseract W ~ (sqrt(p) log p)^3 | ratio |");
    println!("|---|---|---|---|");
    for p in [16usize, 64, 256, 1024, 4096] {
        let m = isoefficiency_megatron(p);
        let o = isoefficiency_optimus(p);
        println!("| {p} | {m:.3e} | {o:.3e} | {:.1} |", m / o);
    }

    println!("\n## Eq. 12 sensitivity: efficiency vs communication time (p = 64)\n");
    println!("| T_comm / (W/p) | efficiency |");
    println!("|---|---|");
    let w_abs = 1.0;
    for frac in [0.0f64, 0.25, 1.0, 4.0, 16.0] {
        let t_comm = frac * w_abs / 64.0;
        println!("| {frac} | {:.3} |", efficiency(w_abs, 64, t_comm));
    }

    println!("\nMegatron's required work grows like p³ while the broadcast-based 2-D/2.5-D");
    println!("schemes need only (√p·log p)³ — the asymptotic reason Tesseract scales to");
    println!("larger clusters (§3.1).");
}
