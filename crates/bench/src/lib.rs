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
//!
//! Binaries (one per table, figure or sweep): `table1_strong_scaling`,
//! `table2_weak_scaling`, `fig7_training_accuracy`, `fig6_hybrid`,
//! `comm_cost_table`, `memory_table`, `ablation_depth`, `isoefficiency`,
//! `plan_sweep`, `serve_sweep`, `overlap_sweep`, `gemm_sweep` and
//! `trace_dump`. Those that write JSON build a `trace::json::Value` and
//! serialize it with `json::write`.

pub mod step;
pub mod tables;
pub mod timing;

pub use tables::{render_rows, ResultRow};
pub use timing::{time_megatron, time_tesseract};
