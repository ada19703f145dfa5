//! Overlap sweep: SUMMA's double-buffered schedule vs its blocking
//! broadcast-then-compute schedule, measured in **simulated** (virtual)
//! seconds.
//!
//! One full training matmul step — forward `C = A·B` plus both backward
//! rules `A' = C'·Bᵀ` and `B' = Aᵀ·C'` (with the depth all-reduce) — runs
//! on the `[2, 2, 2]` cube with global `A [64, n]` against the `n×n`
//! weight, through `tesseract_matmul*` once with `TesseractGrid::overlap`
//! on (the shipped default) and once with it off (the "serial" column).
//! Both runs use `DenseTensor`, so the sweep doubles as a bitwise-parity
//! check at every size.
//!
//! Columns: virtual step seconds per variant, the pipeline's speedup, the
//! collective wait it hid under compute, and the fraction of the total
//! wait that was hidden (`hidden / (hidden + still-paid)`).
//!
//! Run: `cargo run --release -p tesseract-bench --bin overlap_sweep -- \
//!           [--out BENCH_overlap.json]`

use tesseract_bench::cli::Args;
use tesseract_bench::step::matmul_step;
use tesseract_comm::RunConfig;
use tesseract_core::GridShape;
use tesseract_tensor::json;
use tesseract_tensor::trace::json::{self, Value};

/// The 2.5-D cube the acceptance criterion names.
const SHAPE: (usize, usize) = (2, 2); // [2, 2, 2]

/// Global activation rows: skinny against the `n×n` weight, the
/// transformer linear-layer regime where panel broadcasts dominate.
const STEP_ROWS: usize = 64;

/// Weight sizes `n`, each a multiple of the cube's `q·q·d = 8` ranks.
const SIZES: [usize; 3] = [256, 512, 1024];

fn main() {
    let out_path = Args::parse(&["--out"]).value("--out", String::from("BENCH_overlap.json"));
    let (q, d) = SHAPE;

    println!(
        "overlap_sweep: [{q},{q},{d}] grid, global A {STEP_ROWS} x n, B n x n, \
sizes {SIZES:?} (virtual seconds; both runs bitwise-checked)\n"
    );
    println!(
        "| n | serial step (s) | pipelined step (s) | speedup | hidden wait (s) | hidden frac |"
    );
    println!("|---|---|---|---|---|---|");
    let (shape, cluster) = (GridShape::new(q, d), RunConfig::from_env(q * q * d));
    let mut steps = Vec::new();
    for n in SIZES {
        let serial = matmul_step(&cluster, shape, STEP_ROWS, n, false);
        let pipelined = matmul_step(&cluster, shape, STEP_ROWS, n, true);
        assert_eq!(
            serial.results, pipelined.results,
            "n = {n}: pipelined step diverged from serial bitwise"
        );
        let serial_s = serial.makespan();
        let pipelined_s = pipelined.makespan();
        // Fraction of the pipelined run's total collective wait that was
        // hidden under compute (summed over ranks, like the stats table).
        let hidden_s = pipelined.comm.total_hidden_time();
        let paid_s: f64 = pipelined.reports.iter().map(|r| r.comm_wait_nanos as f64 * 1e-9).sum();
        let hidden_frac = hidden_s / (hidden_s + paid_s);
        println!(
            "| {n} | {serial_s:.6} | {pipelined_s:.6} | {:.3}x | {hidden_s:.6} | {hidden_frac:.3} |",
            serial_s / pipelined_s,
        );
        steps.push(json!({
            "n": n, "serial_s": Value::fixed(serial_s, 9),
            "pipelined_s": Value::fixed(pipelined_s, 9),
            "speedup": Value::fixed(serial_s / pipelined_s, 4),
            "hidden_s": Value::fixed(hidden_s, 9), "hidden_frac": Value::fixed(hidden_frac, 4)
        }));
    }

    let json = json::write(&json!({
        "bench": "overlap_sweep",
        "units": {
            "time": "simulated seconds (max over ranks)",
            "hidden": "simulated seconds summed over ranks"
        },
        "grid": format!("[{q},{q},{d}]"),
        "step_rows": STEP_ROWS,
        "steps": steps
    }));
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
