//! # tesseract-baselines
//!
//! Everything the paper compares Tesseract against, implemented from the
//! published algorithms:
//!
//! * [`serial`] — independent single-device Transformer oracle (used to
//!   verify every distributed scheme's forward and backward numerics).
//! * [`megatron`] — Megatron-LM 1-D tensor parallelism (§2.5, Figure 2).
//! * Optimus 2-D tensor parallelism is not a type: it is
//!   `tesseract_core::TesseractTransformer` on `GridShape::new(q, 1)`, whose
//!   matmuls are tested bitwise equal to [`summa`].
//! * [`cannon`] — Cannon's 2-D matmul (§2.1, Algorithm 1).
//! * [`summa`] — SUMMA 2-D matmul (§2.2, Algorithm 2) plus Eq. 3 backward.
//! * [`solomonik`] — Solomonik's 2.5-D matmul (§2.3).

pub mod cannon;
pub mod megatron;
pub mod serial;
pub mod solomonik;
pub mod summa;

pub use cannon::cannon_matmul;
pub use megatron::{
    MegatronLayerNorm, MegatronLinear, MegatronTransformer, MegatronTransformerLayer,
    MegatronWorld, Split,
};
pub use serial::{
    SerialAttention, SerialLayerNorm, SerialLinear, SerialMlp, SerialTransformer,
    SerialTransformerLayer,
};
pub use solomonik::solomonik_matmul;
pub use summa::{summa_matmul, summa_matmul_nt, summa_matmul_tn};
