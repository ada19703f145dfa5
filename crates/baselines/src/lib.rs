//! # tesseract-baselines
//!
//! Everything the paper compares Tesseract against, implemented from the
//! published algorithms:
//!
//! * [`serial`] — independent single-device Transformer oracle (used to
//!   verify every distributed scheme's forward and backward numerics).
//! * [`megatron`] — Megatron-LM 1-D tensor parallelism (§2.5, Figure 2).
//! * Optimus 2-D tensor parallelism is not a type: it is
//!   `tesseract_core::TesseractTransformer` on `GridShape::new(q, 1)`.
//! * SUMMA 2-D matmul (§2.2, Algorithm 2) plus the Eq. 3 backward rules is
//!   not a function here either: it is `tesseract_core::mm::tesseract_matmul*`
//!   on `GridShape::new(q, 1)` (Algorithm 3 at `d = 1`); the grid's
//!   blocking schedule (`TesseractGrid::overlap = false`) is Algorithm 2's
//!   step order.
//! * [`cannon`] — Cannon's 2-D matmul (§2.1, Algorithm 1).
//! * [`solomonik`] — Solomonik's 2.5-D matmul (§2.3).

pub mod cannon;
pub mod megatron;
pub mod serial;
pub mod solomonik;

pub use cannon::cannon_matmul;
pub use megatron::{MegatronLinear, MegatronTransformer, MegatronTransformerLayer, MegatronWorld};
pub use serial::{
    SerialAttention, SerialLayerNorm, SerialLinear, SerialMlp, SerialTransformer,
    SerialTransformerLayer,
};
pub use solomonik::solomonik_matmul;
