//! Reproduces **Table 1** (strong scaling): fixed problem size
//! (hidden 3072, 64 attention heads, batch 12), schemes Megatron-LM
//! `[4]`/`[16]`/`[64]`, Optimus `[2,2]`/`[4,4]`/`[8,8]`, Tesseract `[2,2,1]` … `[8,8,1]`.
//! Each `[q,q,d]` row with `d > 1` is followed by its control,
//! `dp=d × [q,q,1]`: Optimus with `d`-way data parallelism on the same GPUs.
//!
//! Rows whose arrangement requires `q·d | batch` that 12 does not satisfy
//! (`[4,4,2]`, `[8,8,1]`, Optimus `[8,8]`) run with batch 16, as the paper itself
//! did for `[4,4,4]`; throughput/inference are per-sequence rates, so the
//! comparison is unaffected.
//!
//! Run: `cargo run --release -p tesseract-bench --bin table1_strong_scaling`

use tesseract_bench::tables::{control_row, render_rows, row, ResultRow};
use tesseract_bench::timing::{paper_config, time_data_parallel, time_megatron, time_tesseract};
use tesseract_core::GridShape;

fn main() {
    let hidden = 3072;
    let heads = 64;
    let mut rows = Vec::new();

    for p in [4usize, 16, 64] {
        let cfg = paper_config(12, hidden, heads);
        let t = time_megatron(p, cfg);
        rows.push(ResultRow::measured("Megatron-LM", p, format!("[{p}]"), &cfg, &t, ""));
    }

    // Optimus = Tesseract with d = 1, whose matmuls are 2-D SUMMA (Algorithm 2).
    for (q, batch, note) in [(2usize, 12usize, ""), (4, 12, ""), (8, 16, "batch 16: q∤12")] {
        let cfg = paper_config(batch, hidden, heads);
        let t = time_tesseract(GridShape::new(q, 1), cfg);
        rows.push(ResultRow::measured("Optimus", q * q, format!("[{q},{q}]"), &cfg, &t, note));
    }

    for (q, d, batch, note) in [
        (2usize, 1usize, 12usize, ""),
        (2, 2, 12, ""),
        (4, 1, 12, ""),
        (4, 2, 16, "batch 16: q·d∤12"),
        (4, 4, 16, "paper also used 16"),
        (8, 1, 16, "batch 16: q·d∤12"),
    ] {
        let cfg = paper_config(batch, hidden, heads);
        let t = time_tesseract(GridShape::new(q, d), cfg);
        rows.push(ResultRow::measured(
            "Tesseract",
            q * q * d,
            format!("[{q},{q},{d}]"),
            &cfg,
            &t,
            note,
        ));
        if d > 1 {
            rows.push(control_row(q * q * d, q, d, &cfg, &time_data_parallel(d, q, cfg)));
        }
    }

    println!("{}", render_rows("Table 1 — strong scaling (simulated A100 cluster)", &rows));

    // The ratio summaries §4.1 quotes.
    let t444 = row(&rows, "[4,4,4]");
    let t881 = row(&rows, "[8,8,1]");
    let m64 = row(&rows, "[64]");
    let o88 = row(&rows, "[8,8]");
    println!("### §4.1 ratio checks (paper values in parentheses)\n");
    println!("- [8,8,1] fwd / [4,4,4] fwd = {:.4} (paper: 2.0702)", t881.forward / t444.forward);
    println!(
        "- Megatron[64] fwd / Tesseract[4,4,4] fwd = {:.4} (paper: 1.3751)",
        m64.forward / t444.forward
    );
    println!(
        "- Optimus[8,8] fwd / Tesseract[4,4,4] fwd = {:.4} (paper: 1.5293)",
        o88.forward / t444.forward
    );
}
