//! The Transformer of paper §3.2: one block ([`Mlp`], [`Attention`],
//! [`LayerNorm`], [`TransformerLayer`], [`Transformer`]) written against
//! the [`World`] seam, plus the `[q, q, d]` grid's own linear.

pub mod attention;
pub mod layernorm;
pub mod linear;
pub mod mlp;
pub mod transformer;
pub mod world;

pub use attention::{Attention, TesseractAttention};
pub use layernorm::LayerNorm;
pub use linear::{Parallel, TesseractLinear};
pub use mlp::{Mlp, TesseractMlp};
pub use transformer::{
    StackOptions, Stream, TesseractTransformer, TesseractTransformerLayer, Transformer,
    TransformerLayer, PARAM_IDS_PER_LAYER,
};
pub use world::World;
