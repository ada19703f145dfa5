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

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_core::module::Module;
use tesseract_core::TesseractGrid;
use tesseract_tensor::{DenseTensor, Matrix, Meter, TensorLike};

/// Sum of squared Frobenius norms of a module's local gradient blocks.
/// `None` when the backend carries no values (shadow tensors).
fn local_grad_norm_sq<T: TensorLike + Payload, G>(model: &mut dyn Module<T, G>) -> Option<f32> {
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
pub fn clip_grad_norm<T: TensorLike + Payload>(
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

/// Serial-reference counterpart of [`clip_grad_norm`]: clips a parameter
/// set exposed through a `visit_params`-style closure (the [`SerialViT`]
/// path), no communication. Returns the pre-clip global norm.
///
/// [`SerialViT`]: crate::vit::SerialViT
pub fn clip_grad_norm_params(
    visit: &mut dyn FnMut(&mut dyn FnMut(tesseract_core::ParamRef<'_, DenseTensor>)),
    max_norm: f32,
) -> f32 {
    assert!(max_norm > 0.0, "clip threshold must be positive");
    let mut sq = 0.0f64;
    visit(&mut |pr| {
        let n = pr.grad.frobenius().expect("dense tensors always have values");
        sq += (n as f64) * (n as f64);
    });
    let norm = (sq as f32).sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        let mut scratch = Meter::new();
        visit(&mut |pr| pr.grad.scale_assign(scale, &mut scratch));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_core::ParamRef;

    #[test]
    fn serial_clip_scales_to_threshold() {
        // One 3-4-0 right triangle of gradients: global norm 5.
        let mut g1 = DenseTensor::from_matrix(Matrix::full(1, 1, 3.0));
        let mut g2 = DenseTensor::from_matrix(Matrix::full(1, 1, 4.0));
        let mut w1 = DenseTensor::from_matrix(Matrix::zeros(1, 1));
        let mut w2 = DenseTensor::from_matrix(Matrix::zeros(1, 1));
        let norm = clip_grad_norm_params(
            &mut |f| {
                f(ParamRef { weight: &mut w1, grad: &mut g1 });
                f(ParamRef { weight: &mut w2, grad: &mut g2 });
            },
            1.0,
        );
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((g1.matrix()[(0, 0)] - 0.6).abs() < 1e-6);
        assert!((g2.matrix()[(0, 0)] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn serial_clip_is_noop_below_threshold() {
        let mut g = DenseTensor::from_matrix(Matrix::full(1, 1, 0.5));
        let mut w = DenseTensor::from_matrix(Matrix::zeros(1, 1));
        let norm =
            clip_grad_norm_params(&mut |f| f(ParamRef { weight: &mut w, grad: &mut g }), 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(g.matrix()[(0, 0)], 0.5);
    }
}
