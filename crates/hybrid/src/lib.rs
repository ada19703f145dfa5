//! # tesseract-hybrid
//!
//! Hybrid parallelism (paper §3.4, Figure 6): Tesseract tensor parallelism
//! composed with data parallelism (a gradient all-reduce across replicas
//! that sums, as the depth all-reduce and the microbatches do) and
//! GPipe-style pipeline parallelism (microbatched stage-to-stage
//! activations), with the Figure-6 rank mapping
//! `total = dp · pp · q²·d`.

pub mod engine;
pub mod mapping;
pub mod pipeline;

pub use engine::HybridTransformer;
pub use mapping::{HybridCoords, HybridShape};
pub use pipeline::{gpipe_step_module, PipelineStage};
