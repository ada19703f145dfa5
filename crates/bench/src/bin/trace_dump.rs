//! Per-rank event-trace dump: runs one fwd+bwd training matmul step on a
//! configurable Tesseract grid with tracing enabled, writes the per-rank
//! timelines as Chrome-trace / Perfetto JSON (load the file at
//! `ui.perfetto.dev` or `chrome://tracing`), and prints the critical-path
//! report naming the ops that bound the simulated makespan.
//!
//! Both the shipped double-buffered pipeline and the serial blocking
//! reference are traced, so the two timelines can be diffed side by side
//! (the pipelined one shows the hidden-wait flow arrows).
//!
//! Before writing anything the dump *reconciles* the trace against the
//! run's own accounting and panics on any mismatch:
//!
//! * per rank, the summed compute-event flops / kernels / allocated bytes
//!   and the summed comm-event blocked/hidden nanoseconds must equal the
//!   [`RankReport`] counters **exactly** (same values, same fold order);
//! * per collective op, the recorded event count, wire bytes and copy
//!   counts must equal the global [`CommStats`] exactly, and the f64
//!   time/hidden totals must agree to float-sum tolerance.
//!
//! Run: `cargo run --release -p tesseract-bench --bin trace_dump -- \
//!           [--grid 2,2] [--n 256] [--out TRACE.json] [--top 5]`
//!
//! [`RankReport`]: tesseract_comm::RankReport
//! [`CommStats`]: tesseract_comm::CommStats

use std::sync::Arc;

use tesseract_comm::{RunConfig, RunOutput};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_nt_serial, tesseract_matmul_serial,
    tesseract_matmul_tn, tesseract_matmul_tn_serial, GridShape, TesseractGrid,
};
use tesseract_tensor::trace::{chrome, critical, json};
use tesseract_tensor::{DenseTensor, Matrix, TraceKind, Xoshiro256StarStar};

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// One fwd+bwd matmul step on the `[q, q, d]` grid with tracing on;
/// returns each rank's gradient blocks for the bitwise parity check.
fn step_round(pipelined: bool, shape: GridShape, n: usize) -> RunOutput<(Matrix, Matrix)> {
    let rows = 8 * shape.q * shape.d;
    let a = random(rows, n, 71);
    let b = random(n, n, 72);
    RunConfig::from_env(shape.size()).with_trace(true).cluster().run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let (dx, dw) = if pipelined {
            let dy = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
            let dx = tesseract_matmul_nt(&grid, ctx, &dy, &b_loc);
            let dw = tesseract_matmul_tn(&grid, ctx, &a_loc, &dy, true);
            (dx, dw)
        } else {
            let dy = tesseract_matmul_serial(&grid, ctx, &a_loc, &b_loc);
            let dx = tesseract_matmul_nt_serial(&grid, ctx, &dy, &b_loc);
            let dw = tesseract_matmul_tn_serial(&grid, ctx, &a_loc, &dy, true);
            (dx, dw)
        };
        ctx.flush_compute();
        (dx.matrix().clone(), dw.matrix().clone())
    })
}

/// Per-op aggregate rebuilt from trace events, mirroring `OpStats`.
#[derive(Default)]
struct OpAgg {
    calls: u64,
    wire_bytes: u64,
    time: f64,
    copies: u64,
    copy_bytes: u64,
    hidden_time: f64,
}

/// Panics unless the trace reconciles with the run's own accounting.
fn reconcile<R>(what: &str, run: &RunOutput<R>) {
    assert_eq!(run.traces.len(), run.reports.len(), "{what}: one trace per rank");
    // Per rank: integer counters and the rank-local f64 flop fold are
    // exact — compute events carry the very values the report folded, in
    // the same order.
    for (report, events) in run.reports.iter().zip(&run.traces) {
        assert!(!events.is_empty(), "{what}: rank {} traced no events", report.rank);
        let (mut flops, mut kernels, mut bytes) = (0.0f64, 0u64, 0u64);
        let (mut blocked, mut hidden) = (0u64, 0u64);
        for ev in events {
            match &ev.kind {
                TraceKind::Compute { flops: f, kernels: k, bytes_allocated: b } => {
                    flops += f;
                    kernels += k;
                    bytes += b;
                }
                TraceKind::Comm { blocked_nanos, hidden_nanos, .. } => {
                    blocked += blocked_nanos;
                    hidden += hidden_nanos;
                }
                _ => {}
            }
        }
        let r = report.rank;
        assert_eq!(flops, report.flops, "{what}: rank {r} trace flops != report");
        assert_eq!(kernels, report.kernels, "{what}: rank {r} trace kernels != report");
        assert_eq!(bytes, report.bytes_allocated, "{what}: rank {r} trace bytes != report");
        assert_eq!(blocked, report.comm_wait_nanos, "{what}: rank {r} blocked nanos != report");
        assert_eq!(hidden, report.overlap_hidden_nanos, "{what}: rank {r} hidden nanos != report");
    }
    // Per op across ranks: rebuild the stats table from the events.
    let mut agg: std::collections::HashMap<&'static str, OpAgg> = Default::default();
    for ev in run.traces.iter().flatten() {
        match &ev.kind {
            TraceKind::Comm { op, wire_bytes, stats_time, hidden_time, recorded, .. } => {
                let e = agg.entry(op).or_default();
                if *recorded {
                    e.calls += 1;
                }
                e.wire_bytes += wire_bytes;
                e.time += stats_time;
                e.hidden_time += hidden_time;
            }
            TraceKind::Copy { op, bytes } => {
                let e = agg.entry(op).or_default();
                e.copies += 1;
                e.copy_bytes += bytes;
            }
            _ => {}
        }
    }
    // The collector folds f64 time in cross-rank completion order, which
    // the trace cannot replay — integers must match exactly, floats to
    // accumulated-rounding tolerance.
    let tol = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-9);
    let mut checked = 0;
    for (op, stats) in &run.comm.per_op {
        let name = op.name();
        let got = agg.remove(name).unwrap_or_default();
        assert_eq!(got.calls, stats.calls, "{what}: {name} calls mismatch");
        assert_eq!(got.wire_bytes, stats.wire_bytes, "{what}: {name} wire bytes mismatch");
        assert_eq!(got.copies, stats.copies, "{what}: {name} copies mismatch");
        assert_eq!(got.copy_bytes, stats.copy_bytes, "{what}: {name} copy bytes mismatch");
        assert!(tol(got.time, stats.time), "{what}: {name} time {} != {}", got.time, stats.time);
        assert!(
            tol(got.hidden_time, stats.hidden_time),
            "{what}: {name} hidden {} != {}",
            got.hidden_time,
            stats.hidden_time
        );
        checked += 1;
    }
    assert!(agg.is_empty(), "{what}: trace has ops the stats never saw: {:?}", agg.keys());
    println!(
        "{what}: reconciled {} ranks and {checked} collective op(s) against the run accounting",
        run.reports.len()
    );
}

/// Writes the Chrome-trace JSON, re-parses it as a schema check, and
/// returns the number of `traceEvents` entries written.
fn write_chrome(path: &str, run: &RunOutput<(Matrix, Matrix)>) -> usize {
    let payload = chrome::chrome_trace_json(&run.traces);
    let doc = json::parse(&payload)
        .unwrap_or_else(|e| panic!("{path}: emitted chrome trace does not parse: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("{path}: traceEvents array missing"));
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("dur").and_then(|d| d.as_f64()).is_some()
        }),
        "{path}: no complete (ph: X) spans emitted"
    );
    std::fs::write(path, &payload).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    events.len()
}

fn main() {
    let mut grid = (2usize, 2usize);
    let mut n = 256usize;
    let mut out_path = String::from("TRACE.json");
    let mut top_k = 5usize;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value")).clone();
        match arg.as_str() {
            "--grid" => {
                let v = value("--grid");
                let mut parts = v
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().expect("--grid wants q,d (two integers)"));
                grid = (
                    parts.next().expect("--grid wants q,d"),
                    parts.next().expect("--grid wants q,d"),
                );
                assert!(parts.next().is_none(), "--grid wants exactly q,d");
            }
            "--n" => n = value("--n").parse().expect("--n wants an integer"),
            "--out" => out_path = value("--out"),
            "--top" => top_k = value("--top").parse().expect("--top wants an integer"),
            other => panic!("unknown argument {other:?} (known: --grid --n --out --top)"),
        }
    }
    let (q, d) = grid;
    let shape = GridShape::new(q, d);
    assert!(n % (q * q * d) == 0, "--n must be divisible by q*q*d = {}", q * q * d);
    let serial_path = match out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.serial.json"),
        None => format!("{out_path}.serial"),
    };

    println!(
        "trace_dump: [{q},{q},{d}] grid ({} ranks), global A {} x {n}, B {n} x {n}\n",
        shape.size(),
        8 * q * d
    );

    let serial = step_round(false, shape, n);
    let pipelined = step_round(true, shape, n);
    assert_eq!(serial.results, pipelined.results, "pipelined step diverged from serial bitwise");
    reconcile("serial", &serial);
    reconcile("pipelined", &pipelined);

    let wrote = write_chrome(&out_path, &pipelined);
    let wrote_serial = write_chrome(&serial_path, &serial);
    println!("wrote {out_path} ({wrote} trace events, pipelined)");
    println!("wrote {serial_path} ({wrote_serial} trace events, serial)");
    println!("open either file at https://ui.perfetto.dev or chrome://tracing\n");

    for (what, run) in [("serial", &serial), ("pipelined", &pipelined)] {
        let cp = critical::critical_path(&run.traces);
        println!("[{what}] makespan {:.9} s", run.makespan());
        println!("{}", cp.render_top_k(top_k));
    }
}
