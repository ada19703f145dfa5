//! # tesseract-hybrid
//!
//! Hybrid parallelism (paper §3.4, Figure 6): Tesseract tensor parallelism
//! composed with data parallelism (gradient all-reduce across replicas) and
//! GPipe-style pipeline parallelism (microbatched stage-to-stage
//! activations), with the Figure-6 rank mapping
//! `total = dp · pp · q²·d`.

pub mod data_parallel;
pub mod engine;
pub mod mapping;
pub mod pipeline;

pub use data_parallel::DataParallel;
pub use engine::HybridTransformer;
pub use mapping::{HybridCoords, HybridShape};
pub use pipeline::{gpipe_step_module, PipelineStage};
