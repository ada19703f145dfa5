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
//! This is the only clip: the serial oracle (`SerialViT`) is a [`Module`]
//! too and is clipped on a `[1,1,1]` grid, where both all-reduces have one
//! member and return the local sum unchanged.

use std::sync::Arc;

use tesseract_comm::RankCtx;
use tesseract_core::module::Module;
use tesseract_core::TesseractGrid;
use tesseract_tensor::{DenseTensor, Matrix, TensorLike};

/// Sum of squared Frobenius norms of a module's local gradient blocks.
/// `None` when the backend carries no values (shadow tensors).
fn local_grad_norm_sq<T: TensorLike, G>(model: &mut dyn Module<T, G>) -> Option<f32> {
    let mut sq = 0.0f64;
    let mut measurable = true;
    model.visit_params(&mut |pr| match pr.grad.frobenius() {
        Some(n) => sq += (n as f64) * (n as f64),
        None => measurable = false,
    });
    measurable.then_some(sq as f32)
}

/// Scales every gradient by `max_norm / global_norm` when the global norm
/// exceeds `max_norm`. Returns the (pre-clip) global norm, or `None` on
/// value-free backends, where clipping is a no-op.
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
    let local_sq = local_grad_norm_sq(model);
    // The scalar rides in a 1×1 dense tensor so both backends share the
    // collective path; shadow runs skip the reduce entirely (all ranks
    // agree the norm is unmeasurable, so the collective stays aligned).
    let local_sq = local_sq?;
    let packed = DenseTensor::from_matrix(Matrix::from_vec(1, 1, vec![local_sq]));
    let packed = grid.row.all_reduce_shared(ctx, packed);
    let packed = grid.col.all_reduce_shared(ctx, Arc::unwrap_or_clone(packed));
    let norm = packed.matrix()[(0, 0)].sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        model.visit_params(&mut |pr| pr.grad.scale_assign(scale, &mut ctx.meter));
    }
    Some(norm)
}
