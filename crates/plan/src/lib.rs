//! Arrangement auto-tuner for the simulated Tesseract cluster.
//!
//! Given a GPU budget, a workload ([`TransformerConfig`]) and a node
//! topology, the planner answers the question the paper answers by hand in
//! Tables 1–2: *which processor arrangement should these GPUs form?* It
//! enumerates every structural decomposition once — Megatron-LM 1-D and
//! 5-axis `[dp, pp, depth, row, col]` hybrids, whose `dp = pp = 1` case is
//! a bare Tesseract `[q, q, d]` grid with `1 ≤ d ≤ q` — rejects infeasible
//! ones, and ranks the rest:
//!
//! - **Dry-run** ([`dry_run`]): every feasible candidate executes
//!   one real (shape-only, [`ShadowTensor`]-metered) training step on the
//!   simulated cluster; the ranking is by simulated makespan, backed by the
//!   same deterministic virtual clocks as the paper-table benches.
//! - **Analytic** ([`analytic_score`]): a cheap α–β estimate per candidate,
//!   priced on the candidate's actual fiber placements over the topology
//!   (so NVLink vs InfiniBand boundaries are visible). It is reported
//!   beside the dry-run and decides nothing.
//!
//! Entry point: build a [`PlanRequest`] and call [`plan`]; the returned
//! [`Plan`] carries the winner, the full ranked table with per-candidate
//! cost breakdowns, and every infeasible candidate with its [`ShapeError`]
//! reason.
//!
//! [`TransformerConfig`]: tesseract_core::TransformerConfig
//! [`ShapeError`]: tesseract_core::ShapeError
//! [`ShadowTensor`]: tesseract_tensor::ShadowTensor

pub mod analytic;
pub mod candidate;
pub mod dryrun;
pub mod planner;

pub use analytic::{analytic_score, AnalyticScore};
pub use candidate::{enumerate, Candidate, CandidateMenu};
pub use dryrun::{dry_run, DryRun};
pub use planner::{plan, EntryStatus, Plan, PlanEntry, PlanRequest};
