//! # tesseract-repro
//!
//! Root facade for the reproduction of *Tesseract: Parallelize the Tensor
//! Parallelism Efficiently* (ICPP '22). Re-exports the workspace crates so
//! examples and integration tests can use a single dependency:
//!
//! * [`tensor`] — dense/shadow tensor substrate.
//! * [`comm`] — simulated multi-GPU cluster with collectives and cost model.
//! * [`core`] — the Tesseract 2.5-D algorithm, layers and analysis.
//! * [`baselines`] — Cannon/SUMMA/2.5-D matmuls, Megatron-LM 1-D, serial oracle.
//! * [`hybrid`] — data/pipeline parallelism composition (Figure 6).
//! * [`plan`] — the arrangement planner: ranks every arrangement of a GPU
//!   budget by its simulated step.
//! * [`train`] — optimizers, synthetic dataset, ViT, trainer (Figure 7).

pub use tesseract_baselines as baselines;
pub use tesseract_comm as comm;
pub use tesseract_core as core;
pub use tesseract_hybrid as hybrid;
pub use tesseract_plan as plan;
pub use tesseract_tensor as tensor;
pub use tesseract_train as train;
