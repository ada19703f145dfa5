//! The one seam between the Transformer block and a tensor-parallel scheme.
//!
//! Attention is local to whoever holds whole samples and whole heads
//! (paper §3.2.1), GELU and the residual adds are elementwise, so a scheme
//! is fully described by how its linear layers multiply, how its layer
//! norm sums a row, and how many samples and heads a rank holds. [`World`]
//! names exactly that; [`Mlp`](super::Mlp), [`Attention`](super::Attention),
//! [`TransformerLayer`](super::TransformerLayer) and
//! [`Transformer`](super::Transformer) are written once against it.

use tesseract_comm::RankCtx;
use tesseract_tensor::TensorLike;

use crate::config::{ShapeError, TransformerConfig};
use crate::grid::TesseractGrid;
use crate::layers::layernorm::TesseractLayerNorm;
use crate::layers::linear::TesseractLinear;
use crate::module::Module;

/// Which linear of a block's pair (`fc1`/`fc2`, `wqkv`/`wo`) is being built.
/// 1-D schemes split the first by columns and the second by rows; a
/// `[q, q, d]` grid blocks both the same way and ignores it.
#[derive(Clone, Copy, Debug)]
pub enum Half {
    First,
    Second,
}

/// What a parallel scheme supplies to run the shared Transformer block.
pub trait World<T: TensorLike>: Sized + 'static {
    type Linear: Module<T, Self> + Send + 'static;
    type Norm: Module<T, Self> + Send + 'static;

    /// Builds the linear `[in_features, Σ outs]` whose column groups are the
    /// independently initialized `(width, param_id)` weights of `outs` (one
    /// entry for a plain layer, three for the fused QKV projection).
    fn linear(
        &self,
        ctx: &RankCtx,
        half: Half,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> Self::Linear;

    fn norm(&self, hidden: usize, eps: f32) -> Self::Norm;

    /// Whether `cfg` divides evenly over this world: the arrangement's one
    /// feasibility rule, which the planner also checks.
    fn check(&self, cfg: &TransformerConfig) -> Result<(), ShapeError>;

    /// Whole samples in one rank's activation block.
    fn local_samples(&self, batch: usize) -> usize;

    /// Whole heads in one rank's QKV columns.
    fn local_heads(&self, heads: usize) -> usize;
}

impl<T: TensorLike> World<T> for TesseractGrid {
    type Linear = TesseractLinear<T>;
    type Norm = TesseractLayerNorm<T>;

    fn linear(
        &self,
        ctx: &RankCtx,
        _half: Half,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> TesseractLinear<T> {
        TesseractLinear::new_fused(ctx, self, in_features, outs, with_bias, seed)
    }

    fn norm(&self, hidden: usize, eps: f32) -> TesseractLayerNorm<T> {
        TesseractLayerNorm::new(hidden, eps)
    }

    fn check(&self, cfg: &TransformerConfig) -> Result<(), ShapeError> {
        self.shape.check(cfg)
    }

    fn local_samples(&self, batch: usize) -> usize {
        batch / (self.shape.q * self.shape.d)
    }

    fn local_heads(&self, heads: usize) -> usize {
        heads / self.shape.q
    }
}
