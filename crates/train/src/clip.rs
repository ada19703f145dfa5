//! Gradient clipping by global norm, built on [`Module::visit_params`].
//!
//! Every rank owns a disjoint block of the global gradient (B-type weight
//! blocks over the `q×q` mesh; bias blocks on row 0), so the global squared
//! norm is the sum of local squared Frobenius norms all-reduced over the
//! grid's row and column fibers. Depth replicas hold *identical* gradients
//! (the backward's depth all-reduce already synchronized them), so the
//! depth fiber is deliberately **not** reduced — including it would count
//! every block `d` times. The resulting scale factor is identical on every
//! rank, so the clip itself needs no further communication.
//!
//! A clip is two launches around the two scalar all-reduces: one for the
//! local squared norm, one scaling every gradient by
//! `min(1, max_norm / norm)`. The scale runs whether or not the threshold
//! engages (scaling by 1 is exact), and a shadow run charges the same
//! launches and collectives, so a clip's clock depends on neither the
//! values nor the backend.
//!
//! This is the only clip: the serial oracle (`SerialViT`) is a [`Module`]
//! too and is clipped on a `[1,1,1]` grid, where both all-reduces have one
//! member and return the local sum unchanged.

use std::sync::Arc;

use tesseract_comm::RankCtx;
use tesseract_core::module::Module;
use tesseract_core::TesseractGrid;
use tesseract_tensor::{fused, Matrix, Meter, ShadowTensor, TensorLike};

/// Sum of squared Frobenius norms of a module's local gradient blocks, as
/// a `[1, 1]` tensor (a blank shape on the shadow backend), in one fused
/// launch. The value is summed in `f64` off the stored gradients; the
/// launch is charged as the op chain `G∘G`, column sums, row sum and the
/// add into the running sum, per gradient, run on shadow shapes.
fn local_grad_norm_sq<T: TensorLike, G>(model: &mut dyn Module<T, G>, m: &mut Meter) -> T {
    let mut sq = 0.0f64;
    let _ = fused(m, |m| {
        let mut sum = ShadowTensor::new(1, 1);
        model.visit_params(&mut |pr| {
            if let Some(n) = pr.grad.frobenius() {
                sq += (n as f64) * (n as f64);
            }
            let g = ShadowTensor::new(pr.grad.rows(), pr.grad.cols());
            sum = sum.add(&g.hadamard(&g, m).col_sums(m).row_sums(m), m);
        });
        sum
    });
    T::build(1, 1, || Matrix::from_vec(1, 1, vec![sq as f32]))
}

/// Scales every gradient by `min(1, max_norm / global_norm)`. Returns the
/// (pre-clip) global norm, or `None` on value-free backends, which charge
/// the same launches and collectives and scale by 1.
///
/// Collective: all grid ranks must call this together (it all-reduces one
/// scalar over the row and column fibers).
pub fn clip_grad_norm<T: TensorLike>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    model: &mut dyn Module<T>,
    max_norm: f32,
) -> Option<f32> {
    assert!(max_norm > 0.0, "clip threshold must be positive");
    let local_sq = local_grad_norm_sq(model, &mut ctx.meter);
    let packed = grid.row.all_reduce_shared(ctx, local_sq);
    let packed = grid.col.all_reduce_shared(ctx, Arc::unwrap_or_clone(packed));
    let norm = packed.try_matrix().map(|s| s[(0, 0)].sqrt());
    let scale = norm.map_or(1.0, |n| (max_norm / n).min(1.0));
    fused(&mut ctx.meter, |m| model.visit_params(&mut |pr| pr.grad.scale_assign(scale, m)));
    norm
}
