//! # tesseract-core
//!
//! The paper's primary contribution: **Tesseract**, a 2.5-D tensor-parallel
//! scheme arranging `p = q²·d` processors as `d` layers of `q×q` meshes.
//!
//! * [`grid`] — the `[q, q, d]` processor grid and its row/column/depth
//!   communication fibers (Figure 3).
//! * [`partition`] — Figure 4's split/combine rules for input (A-type) and
//!   weight (B-type) matrices.
//! * [`mm`] — Algorithm 3 (`C = A·B`) plus the `A·Bᵀ` / `Aᵀ·B` variants
//!   implementing the backward rules of Eq. 3, including the depth
//!   all-reduce of weight gradients.
//! * [`module`] — the [`module::Module`] trait every layer implements, the
//!   shared [`module::Tape`] activation stack and the [`module::Sequential`]
//!   container pipeline stages and layer lists are built from.
//! * [`layers`] — the Transformer of §3.2: MLP, multi-head attention,
//!   residual layer and stack written once over the [`layers::World`] seam,
//!   plus the grid's parallel linear and distributed layer norm.
//! * [`infer`] — the forward-only serving path: per-request KV caches
//!   sharded with the `[q, q, d]` layout and a no-tape `forward_infer`
//!   stack with causal KV-cached attention.
//! * [`analysis`] — closed-form communication/memory formulas (Eq. 7–12 and
//!   the §1/§3.1 transmission-count claims).
//!
//! Everything is generic over [`tesseract_tensor::TensorLike`], so the same
//! code runs real math (`DenseTensor`) for correctness and shape-only math
//! (`ShadowTensor`) for paper-scale timing reproduction.

pub mod analysis;
pub mod config;
pub mod grid;
pub mod infer;
pub mod layers;
pub mod mm;
pub mod module;
pub mod partition;

pub use config::{ShapeError, TransformerConfig};
pub use grid::{GridShape, TesseractGrid};
pub use infer::{HeadKv, InferBatch, InferModel, LayerKv, RequestKv};
pub use layers::{
    TesseractAttention, TesseractLayerNorm, TesseractLinear, TesseractMlp, TesseractTransformer,
    TesseractTransformerLayer,
};
pub use mm::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_nt_serial, tesseract_matmul_serial,
    tesseract_matmul_tn, tesseract_matmul_tn_serial,
};
pub use module::{CheckpointSegment, Module, ParamRef, Sequential, Tape};
