//! # tesseract-comm
//!
//! The simulated multi-GPU cluster that substitutes for the paper's
//! 64xA100 testbed (see DESIGN.md §2 for the substitution argument).
//!
//! * One OS thread per rank executes an SPMD closure ([`RunConfig::run`]).
//! * [`CommGroup`] provides NCCL-style collectives over arbitrary rank
//!   subsets (grid rows / columns / depth fibers).
//! * Timing is **virtual**: tensor ops charge a [`tesseract_tensor::Meter`],
//!   collectives synchronize clocks and add α–β costs from [`CostParams`]
//!   over the [`Topology`]'s NVLink/InfiniBand links. Results are therefore
//!   deterministic and independent of host load — a single-core laptop
//!   reproduces the same Table 1/Table 2 numbers as a large workstation.
//! * Each rank's [`CommStats`] ledger captures exact per-collective call
//!   counts and wire bytes; their rank-order fold is what the analysis
//!   binaries compare against the paper's closed-form communication claims.

pub mod cluster;
pub mod cost;
pub mod ctx;
pub mod fabric;
pub mod group;
pub mod mesh;
pub mod runconfig;
pub mod stats;
pub mod topology;

pub use cluster::RunOutput;
pub use cost::{CollectiveOp, CostParams, PhasedCost};
pub use ctx::{RankCtx, RankReport};
pub use group::{CommGroup, PendingCollective};
pub use mesh::{Mesh, MeshAxis};
pub use runconfig::RunConfig;
pub use stats::{CommStats, OpStats};
pub use tesseract_tensor::Payload;
pub use topology::{GroupPlacement, Link, Topology};
