//! Tesseract-parallel Transformer layers (paper §3.2).

pub mod attention;
pub mod layernorm;
pub mod linear;
pub mod mlp;
pub mod transformer;

pub use attention::TesseractAttention;
pub use layernorm::TesseractLayerNorm;
pub use linear::TesseractLinear;
pub use mlp::TesseractMlp;
pub use transformer::{
    StackOptions, TesseractTransformer, TesseractTransformerLayer, PARAM_IDS_PER_LAYER,
};

// Re-exported for the many call sites that historically imported `ParamRef`
// from the linear layer; it now lives in [`crate::module`].
pub use crate::module::ParamRef;
