//! Per-rank event-trace dump: runs one fwd+bwd training matmul step on a
//! configurable Tesseract grid with tracing enabled, writes the per-rank
//! timelines as Chrome-trace / Perfetto JSON (load the file at
//! `ui.perfetto.dev` or `chrome://tracing`), and prints the critical-path
//! report naming the ops that bound the simulated makespan.
//!
//! SUMMA runs under both schedules — the shipped double-buffered one and
//! the blocking one (`TesseractGrid::overlap = false`, written to the
//! `.serial.json` file) — so the two timelines can be diffed side by side
//! (the pipelined one shows the hidden-wait flow arrows).
//!
//! Before writing anything the dump *reconciles* the trace against the
//! run's own accounting ([`RunOutput::reconcile_trace`]) and panics on any
//! mismatch: per rank, the compute and comm events must rebuild the
//! [`RankReport`] counters and the rank's comm ledger exactly, `f64` sums
//! included (same values, same fold order).
//!
//! Run: `cargo run --release -p tesseract-bench --bin trace_dump -- \
//!           [--grid 2,2] [--n 256] [--out TRACE.json]`
//!
//! [`RankReport`]: tesseract_comm::RankReport
//! [`RunOutput::reconcile_trace`]: tesseract_comm::RunOutput::reconcile_trace

use tesseract_bench::cli::Args;
use tesseract_bench::step::matmul_step;
use tesseract_bench::write_chrome_trace;
use tesseract_comm::{RunConfig, RunOutput};
use tesseract_core::GridShape;
use tesseract_tensor::trace::critical;

/// Critical-path ops printed per schedule.
const TOP_K: usize = 5;

/// Panics unless the trace reconciles with the run's own accounting.
fn reconcile<R>(what: &str, run: &RunOutput<R>) {
    run.reconcile_trace().unwrap_or_else(|e| panic!("{what}: {e}"));
    println!("{what}: reconciled {} ranks exactly against the run accounting", run.reports.len());
}

fn main() {
    let args = Args::parse(&["--grid", "--n", "--out"]);
    let [(q, d)] = args.pairs("--grid", &[(2, 2)])[..] else {
        panic!("--grid wants exactly one q,d pair")
    };
    let n: usize = args.value("--n", 256);
    let out_path = args.value("--out", String::from("TRACE.json"));
    let shape = GridShape::new(q, d);
    assert!(n.is_multiple_of(q * q * d), "--n must be divisible by q*q*d = {}", q * q * d);
    let serial_path = match out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.serial.json"),
        None => format!("{out_path}.serial"),
    };

    let rows = 8 * q * d;
    println!(
        "trace_dump: [{q},{q},{d}] grid ({} ranks), global A {rows} x {n}, B {n} x {n}\n",
        shape.size()
    );

    let cluster = RunConfig::from_env(shape.size()).with_trace(true);
    let serial = matmul_step(&cluster, shape, rows, n, false);
    let pipelined = matmul_step(&cluster, shape, rows, n, true);
    assert_eq!(serial.results, pipelined.results, "pipelined step diverged from serial bitwise");
    reconcile("serial", &serial);
    reconcile("pipelined", &pipelined);

    let wrote = write_chrome_trace(&out_path, &pipelined.traces);
    let wrote_serial = write_chrome_trace(&serial_path, &serial.traces);
    println!("wrote {out_path} ({wrote} trace events, pipelined)");
    println!("wrote {serial_path} ({wrote_serial} trace events, serial)");
    println!("open either file at https://ui.perfetto.dev or chrome://tracing\n");

    for (what, run) in [("serial", &serial), ("pipelined", &pipelined)] {
        let cp = critical::critical_path(&run.traces);
        println!("[{what}] makespan {:.9} s", run.makespan());
        println!("{}", cp.render_top_k(TOP_K));
    }
}
