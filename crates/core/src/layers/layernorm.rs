//! Distributed layer normalization (paper §3.2.2, Eq. 13/14).
//!
//! The hidden dimension is split across the `q` columns of the grid, so the
//! per-row statistics `ΣX` and `ΣX²` are computed locally and **all-reduced
//! along the row** (one fused `[rows, 2]` all-reduce). The backward pass
//! all-reduces `Σ X̂ᵢ(δJ/δX̂)ᵢ` and `Σ(δJ/δX̂)ᵢ` the same way and applies
//! Eq. 14 with the taped `X̂` and `1/sqrt(Var+ε)`.

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_tensor::TensorLike;

use crate::grid::TesseractGrid;
use crate::module::{Module, Tape};

/// Parameter-free distributed layer norm over the (globally split) hidden
/// dimension.
pub struct TesseractLayerNorm<T> {
    /// Global hidden size `h` (local tensors have `h/q` columns).
    pub hidden_global: usize,
    pub eps: f32,
    /// Tape of (x̂ local block, inv_std column vector) per microbatch.
    /// `x̂` is the same allocation handed to the next layer, so taping it
    /// costs one `Arc` bump rather than a deep copy.
    tape: Tape<(Arc<T>, T)>,
}

impl<T: TensorLike + Payload> TesseractLayerNorm<T> {
    pub fn new(hidden_global: usize, eps: f32) -> Self {
        Self { hidden_global, eps, tape: Tape::new() }
    }

    /// `X̂ = (X − E[X]) / sqrt(Var[X] + ε)` and `1/sqrt(Var[X] + ε)`, with the
    /// packed per-row statistics all-reduced along the row fiber.
    fn normalize(&self, grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> (Arc<T>, T) {
        let n = self.hidden_global as f32;
        assert_eq!(
            x.cols() * grid.shape.q,
            self.hidden_global,
            "layernorm: local width times q must equal global hidden"
        );
        let s1 = x.row_sums(&mut ctx.meter);
        let s2 = x.row_sums_of_squares(&mut ctx.meter);
        let packed = T::concat_cols(&[s1, s2], &mut ctx.meter);
        let packed = grid.row.all_reduce_shared(ctx, packed);
        let s1 = packed.slice_cols(0, 1, &mut ctx.meter);
        let s2 = packed.slice_cols(1, 2, &mut ctx.meter);
        let mean = s1.scale(1.0 / n, &mut ctx.meter);
        let mean_sq = mean.hadamard(&mean, &mut ctx.meter);
        let var = s2.scale(1.0 / n, &mut ctx.meter).sub(&mean_sq, &mut ctx.meter);
        let inv_std = var.rsqrt_add(self.eps, &mut ctx.meter);
        let xhat = x.sub_colvec(&mean, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter);
        (Arc::new(xhat), inv_std)
    }

    /// Inference forward: `&self` and no tape push. [`Module::forward`] is
    /// this plus the push.
    pub fn forward_infer(&self, grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        self.normalize(grid, ctx, x).0
    }

    /// Activations currently queued on the tape (zero outside training).
    pub fn tape_depth(&self) -> usize {
        self.tape.depth()
    }
}

impl<T: TensorLike + Payload> Module<T> for TesseractLayerNorm<T> {
    fn name(&self) -> &'static str {
        "layernorm"
    }

    /// Normalizes and tapes `(X̂, inv_std)`.
    fn forward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let (xhat, inv_std) = self.normalize(grid, ctx, x);
        let bytes = (xhat.byte_size() + inv_std.byte_size()) as u64;
        self.tape.push_tracked(ctx, bytes, (Arc::clone(&xhat), inv_std));
        xhat
    }

    /// Backward (Eq. 14): `dX = (dY − (X̂·Σ(X̂∘dY) + Σ dY)/n) ∘ inv_std`.
    fn backward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let (xhat, inv_std) = self.tape.pop_tracked(ctx, "TesseractLayerNorm");
        let n = self.hidden_global as f32;
        let t1 = xhat.hadamard(dy, &mut ctx.meter).row_sums(&mut ctx.meter);
        let t2 = dy.row_sums(&mut ctx.meter);
        let packed = T::concat_cols(&[t1, t2], &mut ctx.meter);
        let packed = grid.row.all_reduce_shared(ctx, packed);
        let t1 = packed.slice_cols(0, 1, &mut ctx.meter);
        let t2 = packed.slice_cols(1, 2, &mut ctx.meter);
        let correction = xhat
            .mul_colvec(&t1, &mut ctx.meter)
            .add_colvec(&t2, &mut ctx.meter)
            .scale(1.0 / n, &mut ctx.meter);
        Arc::new(dy.sub(&correction, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter))
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("TesseractLayerNorm");
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.tape.clear_tracked(ctx);
    }
}
