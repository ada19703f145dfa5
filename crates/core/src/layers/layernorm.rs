//! Layer normalization over a hidden dimension that a [`World`] may split
//! (paper §3.2.2, Eq. 13/14): written once for every world.
//!
//! A row's statistics need `ΣX` and `ΣX²` over the whole row. Each rank
//! takes its block's row sums, and [`World::complete_row_sums`] completes
//! them over the hidden split: one fused `[rows, 2]` row all-reduce on the
//! `[q, q, d]` grid, nothing on the 1-D world (its activations are
//! replicated, so a rank's row is already whole). The backward pass
//! completes `Σ X̂ᵢ(δJ/δX̂)ᵢ` and `Σ(δJ/δX̂)ᵢ` the same way and applies
//! Eq. 14 with the taped `X̂` and `1/sqrt(Var+ε)`.
//!
//! Serving ([`layer_norm_rows`]) needs no all-reduce at all. A serving
//! layer's rows are full width on every rank of the lane, so each rank
//! normalizes them itself at the head of the fused launch that multiplies
//! them (a fused launch is its op chain under `tesseract_tensor::fused`),
//! panel by panel: every panel bitwise the one [`LayerNorm`] gives its
//! owner on the grid (the fold runs in the all-reduce's member order; both
//! finish with one statistics tail). Training keeps the all-reduce: its
//! activations are split by columns, and Eq. 14's backward all-reduces
//! along the row regardless.

use std::borrow::Borrow;
use std::sync::Arc;

use tesseract_comm::RankCtx;
use tesseract_tensor::{Meter, TensorLike};

use crate::layers::world::World;
use crate::module::{Module, Tape};

/// Parameter-free layer norm over the (possibly split) hidden dimension.
pub struct LayerNorm<T> {
    /// Global hidden size `h` (a rank's block has [`World::local_hidden`] columns).
    pub hidden: usize,
    pub eps: f32,
    /// Tape of (x̂ local block, inv_std column vector) per microbatch.
    /// `x̂` is the same allocation handed to the next layer, so taping it
    /// costs one `Arc` bump rather than a deep copy. That layer's linear
    /// tapes the same `Arc` and books its bytes, so this tape books only
    /// `inv_std`: the ledger books each buffer once.
    tape: Tape<(Arc<T>, T)>,
}

impl<T: TensorLike> LayerNorm<T> {
    pub fn new(hidden: usize, eps: f32) -> Self {
        Self { hidden, eps, tape: Tape::new() }
    }
}

/// The statistics tail of a layer norm over `n` columns, from the row sums
/// `s1 = ΣX` and `s2 = ΣX²`: `E[X]` and `1/sqrt(Var[X] + eps)`.
fn statistics<T: TensorLike>(s1: &T, s2: &T, n: f32, eps: f32, m: &mut Meter) -> (T, T) {
    let mean = s1.scale(1.0 / n, m);
    let mean_sq = mean.hadamard(&mean, m);
    let var = s2.scale(1.0 / n, m).sub(&mean_sq, m);
    (mean, var.rsqrt_add(eps, m))
}

/// Layer norm of rows whose hidden vector is split into column panels
/// `[X_0 … X_{q-1}]` (§3.2.2's blocks): every normalized panel
/// `X̂_t = (X_t − E[X]) ∘ 1/sqrt(Var[X] + eps)`, the statistics taken over
/// all `Σ_t cols(X_t)` columns. The per-panel sums fold in ascending panel
/// order, the member-order fold of the grid's row all-reduce, so each
/// panel is bitwise what the split layer norm gives the rank that owns it.
pub fn layer_norm_panels<T: TensorLike>(
    panels: &[impl Borrow<T>],
    eps: f32,
    m: &mut Meter,
) -> Vec<T> {
    let n = panels.iter().map(|p| p.borrow().cols()).sum::<usize>() as f32;
    let mut sums =
        panels.iter().map(|x| (x.borrow().row_sums(m), x.borrow().row_sums_of_squares(m)));
    let (mut s1, mut s2) = sums.next().expect("layer norm of no panels");
    for (t1, t2) in sums {
        s1.reduce_add_inplace(&t1);
        s2.reduce_add_inplace(&t2);
    }
    let (mean, inv_std) = statistics(&s1, &s2, n, eps, m);
    panels.iter().map(|x| x.borrow().sub_colvec(&mean, m).mul_colvec(&inv_std, m)).collect()
}

/// [`layer_norm_panels`] of full rows `x`, split into `panels` equal
/// column panels: the panels of `X̂` that a grid with `q = panels` gives
/// its row's ranks. A serving stretch runs it on the lane's full rows.
pub fn layer_norm_rows<T: TensorLike>(x: &T, panels: usize, eps: f32, m: &mut Meter) -> Vec<T> {
    assert_eq!(x.cols() % panels, 0, "layer norm: {} columns in {panels} panels", x.cols());
    let w = x.cols() / panels;
    let split: Vec<T> = (0..panels).map(|t| x.slice_cols(t * w, (t + 1) * w, m)).collect();
    layer_norm_panels(&split, eps, m)
}

impl<T: TensorLike, G: World<T>> Module<T, G> for LayerNorm<T> {
    fn name(&self) -> &'static str {
        "layernorm"
    }

    /// `X̂ = (X − E[X]) / sqrt(Var[X] + ε)`, the row sums completed by the
    /// world; tapes `(X̂, 1/sqrt(Var[X] + ε))` and books `1/sqrt(Var[X] + ε)`
    /// (the linear `X̂` feeds books `X̂`).
    fn forward(&mut self, world: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        assert_eq!(
            x.cols(),
            world.local_hidden(self.hidden),
            "layernorm: local width must be the world's share of hidden {}",
            self.hidden
        );
        let s1 = x.row_sums(&mut ctx.meter);
        let s2 = x.row_sums_of_squares(&mut ctx.meter);
        let (s1, s2) = world.complete_row_sums(ctx, s1, s2);
        let (mean, inv_std) = statistics(&s1, &s2, self.hidden as f32, self.eps, &mut ctx.meter);
        let xhat =
            Arc::new(x.sub_colvec(&mean, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter));
        let bytes = inv_std.byte_size() as u64;
        self.tape.push_tracked(ctx, bytes, (Arc::clone(&xhat), inv_std));
        xhat
    }

    /// Backward (Eq. 14): `dX = (dY − (X̂·Σ(X̂∘dY) + Σ dY)/n) ∘ inv_std`.
    fn backward(&mut self, world: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let (xhat, inv_std) = self.tape.pop_tracked(ctx, "LayerNorm");
        let t1 = xhat.hadamard(dy, &mut ctx.meter).row_sums(&mut ctx.meter);
        let t2 = dy.row_sums(&mut ctx.meter);
        let (t1, t2) = world.complete_row_sums(ctx, t1, t2);
        let correction = xhat
            .mul_colvec(&t1, &mut ctx.meter)
            .add_colvec(&t2, &mut ctx.meter)
            .scale(1.0 / self.hidden as f32, &mut ctx.meter);
        Arc::new(dy.sub(&correction, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter))
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("LayerNorm");
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.tape.clear_tracked(ctx);
    }
}
