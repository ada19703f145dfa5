//! # tesseract-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index):
//!
//! * [`timing`] — runs the paper-scale Transformer configurations through
//!   the planner's shadow-backend dry-run on the simulated cluster; its
//!   `DryRun` holds the per-batch forward/backward virtual times behind
//!   Tables 1 and 2.
//! * [`tables`] — the row structures and renderers shared by the binaries.
//! * [`step`] — one Dense fwd+bwd Tesseract matmul step under either SUMMA
//!   schedule (pipelined or blocking), which `overlap_sweep` and
//!   `trace_dump` run.
//! * [`cli`] — the one `--flag value` parser of the binaries that take
//!   arguments.
//!
//! Binaries (one per table, figure or sweep): `table1_strong_scaling`,
//! `table2_weak_scaling`, `fig7_training_accuracy`, `fig6_hybrid`,
//! `comm_cost_table`, `memory_table`, `ablation_depth`, `isoefficiency`,
//! `plan_sweep`, `serve_sweep`, `overlap_sweep`, `gemm_sweep` and
//! `trace_dump`. Those that write JSON build a `trace::json::Value` and
//! serialize it with `json::write`; the two that write Chrome traces
//! (`trace_dump`, `serve_sweep`) call [`write_chrome_trace`].

pub mod cli;
pub mod step;
pub mod tables;
pub mod timing;

pub use tables::{render_rows, ResultRow};
pub use timing::{time_megatron, time_tesseract};

use tesseract_tensor::trace::{chrome, json};
use tesseract_tensor::TraceEvent;

/// Writes per-rank `traces` to `path` as Chrome-trace JSON (load it at
/// `ui.perfetto.dev` or `chrome://tracing`), creating the parent directory,
/// and returns the number of `traceEvents` entries written. The text is
/// re-parsed first as a schema check: it must hold a `traceEvents` array
/// with at least one complete (`ph: X`) span carrying a `dur`.
pub fn write_chrome_trace(path: &str, traces: &[Vec<TraceEvent>]) -> usize {
    let payload = chrome::chrome_trace_json(traces);
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
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| panic!("creating {parent:?}: {e}"));
        }
    }
    std::fs::write(path, &payload).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    events.len()
}
