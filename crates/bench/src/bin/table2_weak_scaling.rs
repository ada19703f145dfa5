//! Reproduces **Table 2** (weak scaling): per-GPU problem size held at
//! `[b/(d·q), n/q, h/n] = [24, 16, 192]`, so batch/hidden/heads grow with
//! the arrangement exactly as in the paper's rows. Each `[q,q,d]` row with
//! `d > 1` is followed by its control, `dp=d × [q,q,1]`: Optimus with
//! `d`-way data parallelism on the same GPUs.
//!
//! Run: `cargo run --release -p tesseract-bench --bin table2_weak_scaling`

use tesseract_bench::tables::{control_row, render_rows, row, ResultRow};
use tesseract_bench::timing::{paper_config, time_data_parallel, time_megatron, time_tesseract};
use tesseract_core::GridShape;

fn main() {
    let mut rows = Vec::new();

    for (p, batch, hidden, heads) in
        [(4usize, 60usize, 2048usize, 32usize), (16, 60, 4096, 64), (64, 30, 8192, 128)]
    {
        let cfg = paper_config(batch, hidden, heads);
        let t = time_megatron(p, cfg);
        rows.push(ResultRow::measured("Megatron-LM", p, format!("[{p}]"), &cfg, &t, ""));
    }

    for (q, batch, hidden, heads) in
        [(2usize, 96usize, 2048usize, 32usize), (4, 192, 4096, 64), (8, 384, 8192, 128)]
    {
        let cfg = paper_config(batch, hidden, heads);
        let t = time_tesseract(GridShape::new(q, 1), cfg);
        rows.push(ResultRow::measured("Optimus", q * q, format!("[{q},{q}]"), &cfg, &t, ""));
    }

    for (q, d, batch, hidden, heads) in [
        (1usize, 1usize, 48usize, 1024usize, 16usize),
        (2, 1, 96, 2048, 32),
        (2, 2, 192, 2048, 32),
        (4, 1, 192, 4096, 64),
        (4, 2, 384, 4096, 64),
        (4, 4, 768, 4096, 64),
        (8, 1, 384, 8192, 128),
    ] {
        let cfg = paper_config(batch, hidden, heads);
        let t = time_tesseract(GridShape::new(q, d), cfg);
        rows.push(ResultRow::measured(
            "Tesseract",
            q * q * d,
            format!("[{q},{q},{d}]"),
            &cfg,
            &t,
            "",
        ));
        if d > 1 {
            rows.push(control_row(q * q * d, q, d, &cfg, &time_data_parallel(d, q, cfg)));
        }
    }

    println!("{}", render_rows("Table 2 — weak scaling (simulated A100 cluster)", &rows));

    let t444 = row(&rows, "[4,4,4]");
    let t881 = row(&rows, "[8,8,1]");
    let m64 = row(&rows, "[64]");
    let o88 = row(&rows, "[8,8]");
    println!("### §4.2 ratio checks (paper values in parentheses)\n");
    println!("- [8,8,1] fwd / [4,4,4] fwd = {:.4} (paper: 1.5576)", t881.forward / t444.forward);
    println!(
        "- Tesseract[4,4,4] throughput / Megatron[64] = {:.4} (paper: 3.3746)",
        t444.throughput / m64.throughput
    );
    println!(
        "- Tesseract[4,4,4] throughput / Optimus[8,8] = {:.4} (paper: 1.7144)",
        t444.throughput / o88.throughput
    );
    println!(
        "- Tesseract[4,4,4] inference / Megatron[64] = {:.4} (paper: 4.0156)",
        t444.inference / m64.inference
    );
    println!(
        "- Tesseract[4,4,4] inference / Optimus[8,8] = {:.4} (paper: 1.6987)",
        t444.inference / o88.inference
    );
    println!(
        "- [4,4,4] throughput / [8,8,1] throughput = {:.4} (paper: 1.5092)",
        t444.throughput / t881.throughput
    );
}
