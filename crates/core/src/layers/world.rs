//! The one seam between the Transformer block and a tensor-parallel scheme.
//!
//! Attention is local to whoever holds whole samples and whole heads
//! (paper §3.2.1), GELU and the residual adds are elementwise, and a layer
//! norm is a local row reduction completed over the hidden split (§3.2.2),
//! so a scheme is fully described by how its linear layers multiply, how it
//! completes a row's sums, and how many samples, heads and hidden columns a
//! rank holds. [`World`] names exactly that; [`Mlp`](super::Mlp),
//! [`Attention`](super::Attention), [`LayerNorm`](super::LayerNorm),
//! [`TransformerLayer`](super::TransformerLayer) and
//! [`Transformer`](super::Transformer) are written once against it.

use tesseract_comm::RankCtx;
use tesseract_tensor::TensorLike;

use crate::config::{ShapeError, TransformerConfig};
use crate::grid::TesseractGrid;
use crate::layers::linear::{Parallel, TesseractLinear};
use crate::module::Module;

/// What a parallel scheme supplies to run the shared Transformer block.
pub trait World<T: TensorLike>: Sized + 'static {
    type Linear: Module<T, Self> + Send + 'static;

    /// Builds the linear `[in_features, Σ outs]` whose column groups are the
    /// independently initialized `(width, param_id)` weights of `outs` (one
    /// entry for a plain layer, three for the fused QKV projection). The
    /// first linear of a block's pair (`wqkv`, `fc1`) is
    /// [`Parallel::Column`], the second (`wo`, `fc2`) [`Parallel::Row`]; a
    /// 1-D scheme splits its weight that way, a `[q, q, d]` grid blocks
    /// both the same way and ignores it.
    fn linear(
        &self,
        split: Parallel,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> Self::Linear;

    /// Completes per-row partial sums `(a, b)` (each `[rows, 1]`) over the
    /// ranks that split this rank's rows by hidden columns: the step that
    /// turns a local row reduction into the whole row's.
    fn complete_row_sums(&self, ctx: &mut RankCtx, a: T, b: T) -> (T, T);

    /// Whether `cfg` divides evenly over this world: the arrangement's one
    /// feasibility rule, which the planner also checks.
    fn check(&self, cfg: &TransformerConfig) -> Result<(), ShapeError>;

    /// Whole samples in one rank's activation block.
    fn local_samples(&self, batch: usize) -> usize;

    /// Whole heads in one rank's QKV columns.
    fn local_heads(&self, heads: usize) -> usize;

    /// Hidden columns of one rank's activation block.
    fn local_hidden(&self, hidden: usize) -> usize;
}

impl<T: TensorLike> World<T> for TesseractGrid {
    type Linear = TesseractLinear<T>;

    fn linear(
        &self,
        _split: Parallel,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> TesseractLinear<T> {
        TesseractLinear::new_fused(self, in_features, outs, with_bias, seed)
    }

    /// The hidden dimension is split over the row's `q` ranks: one row
    /// all-reduce of the two sums packed as `[rows, 2]`.
    fn complete_row_sums(&self, ctx: &mut RankCtx, a: T, b: T) -> (T, T) {
        let packed = T::concat_cols(&[a, b], &mut ctx.meter);
        let packed = self.row.all_reduce_shared(ctx, packed);
        (packed.slice_cols(0, 1, &mut ctx.meter), packed.slice_cols(1, 2, &mut ctx.meter))
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

    fn local_hidden(&self, hidden: usize) -> usize {
        hidden / self.shape.q
    }
}
