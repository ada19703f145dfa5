//! The Transformer of paper §3.2: one block ([`Mlp`], [`Attention`],
//! [`TransformerLayer`], [`Transformer`]) written against the [`World`]
//! seam, plus the `[q, q, d]` grid's own linear and layer norm.

pub mod attention;
pub mod layernorm;
pub mod linear;
pub mod mlp;
pub mod transformer;
pub mod world;

pub use attention::{Attention, TesseractAttention};
pub use layernorm::TesseractLayerNorm;
pub use linear::TesseractLinear;
pub use mlp::{Mlp, TesseractMlp};
pub use transformer::{
    StackOptions, TesseractTransformer, TesseractTransformerLayer, Transformer, TransformerLayer,
    PARAM_IDS_PER_LAYER,
};
pub use world::{Half, World};
