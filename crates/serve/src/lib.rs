//! # tesseract-serve
//!
//! Batched inference serving on the Tesseract `[q, q, d]` grid (ROADMAP
//! item 1): a forward-only, KV-cached decode path driven by a
//! continuous-batching scheduler under synthetic open-loop traffic, all on
//! the simulated cluster's virtual clock.
//!
//! * [`traffic`] — deterministic Poisson arrival traces with mixed
//!   prompt/output lengths.
//! * [`engine`] — request lifecycle, per-lane admission/eviction at step
//!   granularity, one mixed decode + FIFO-prefill batch per lane per step
//!   under a token budget, and the step loop in which every lane runs as
//!   an independent `q`-rank replica on its own clock.
//! * [`metrics`] — nearest-rank latency percentiles and summaries.
//!
//! Correctness rests on `tesseract_core::infer`: cached decode is bitwise
//! identical per token to a full-prefix causal recompute while both runs'
//! GEMMs take the same `matmul::planned_path` kernel. A recompute's larger
//! GEMMs can cross onto the blocked (fused multiply-add) path, so this
//! crate's tests keep every GEMM serial; ROADMAP item 7(b) would lift the
//! condition. The whole run — results, rank reports, traces — is
//! byte-identical across reruns with the same seed.

pub mod engine;
pub mod metrics;
pub mod traffic;

pub use engine::{
    run_serve, serve_on_cluster, served_model, RequestResult, ServeConfig, ServeSummary,
};
pub use metrics::{latency_stats, percentile, LatencyStats};
pub use traffic::{generate, RequestSpec, TrafficConfig};
