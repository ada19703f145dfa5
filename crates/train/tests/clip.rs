//! Gradient clipping by global norm on the grid: after one ViT backward on
//! `[2,2,1]` and `[2,2,2]`, `clip_grad_norm` reduces the same norm the
//! serial oracle's gradients have, every rank gets it, and clipping puts
//! the global norm on the threshold. The `[1,1,1]` cases pin the arithmetic
//! on hand-made gradients. A clip's clock depends on neither the backend
//! nor whether the threshold engages.

use std::sync::Arc;

use tesseract_comm::{RankCtx, RunConfig};
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, ParamRef, TesseractGrid, TransformerConfig};
use tesseract_tensor::{DenseTensor, Matrix, ShadowTensor, TensorLike};
use tesseract_train::clip_grad_norm;
use tesseract_train::vit::{SerialViT, TesseractViT, ViTConfig};

const SEED: u64 = 5;

fn vcfg() -> ViTConfig {
    ViTConfig {
        body: TransformerConfig {
            batch: 4,
            seq: 3,
            hidden: 8,
            heads: 2,
            mlp_ratio: 2,
            layers: 1,
            eps: 1e-5,
        },
        patch_dim: 4,
        classes: 8,
    }
}

/// The patch features and logit gradient every run backpropagates.
fn inputs() -> (Matrix, Matrix) {
    let v = vcfg();
    (Matrix::seeded(v.body.rows(), v.patch_dim, 1), Matrix::seeded(v.body.batch, v.classes, 2))
}

/// The serial oracle's global gradient norm after one backward, summed in
/// f64 straight off its `Matrix` gradients.
fn serial_grad_norm() -> f64 {
    let (x, dlogits) = inputs();
    let out = RunConfig::from_env(1).run(|ctx| {
        let grid = TesseractGrid::new(ctx, GridShape::new(1, 1), 0);
        let mut model = SerialViT::new(vcfg(), SEED);
        let _ = model.forward(&grid, ctx, &Arc::new(DenseTensor::from_matrix(x.clone())));
        let _ = model.backward(&grid, ctx, &Arc::new(DenseTensor::from_matrix(dlogits.clone())));
        let mut sq = 0.0f64;
        model.visit_params(&mut |pr| {
            sq += pr.grad.matrix().data().iter().map(|&g| g as f64 * g as f64).sum::<f64>();
        });
        sq.sqrt()
    });
    out.results[0]
}

/// Per rank, after one ViT backward on `shape`: the norm `clip_grad_norm`
/// reports, then (clipping to half of it) the threshold and the norm left.
fn grid_clip(shape: GridShape) -> Vec<(f32, f32, f32)> {
    let (x, dlogits) = inputs();
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut model = TesseractViT::<DenseTensor>::new(ctx, &grid, vcfg(), SEED);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let _ = model.forward(&grid, ctx, &x_loc);
        let dl = Arc::new(DenseTensor::from_matrix(a_block(&dlogits, shape, i, j, k)));
        let _ = model.backward(&grid, ctx, &dl);
        let norm = clip_grad_norm(&grid, ctx, &mut model, f32::MAX).expect("dense norm");
        let max_norm = norm / 2.0;
        clip_grad_norm(&grid, ctx, &mut model, max_norm);
        let after = clip_grad_norm(&grid, ctx, &mut model, f32::MAX).expect("dense norm");
        (norm, max_norm, after)
    });
    out.results
}

fn check_grid_clip(shape: GridShape) {
    let serial = serial_grad_norm();
    let ranks = grid_clip(shape);
    let (norm, max_norm, _) = ranks[0];
    let rel = (norm as f64 - serial).abs() / serial;
    assert!(rel < 1e-4, "{shape:?}: grid norm {norm} vs serial {serial} (rel {rel:e})");
    for (rank, &(n, _, after)) in ranks.iter().enumerate() {
        assert_eq!(n, norm, "{shape:?}: rank {rank} reduced a different norm");
        assert!(
            (after - max_norm).abs() <= 1e-5 * max_norm,
            "{shape:?}: rank {rank} clipped to {after}, threshold {max_norm}"
        );
    }
}

#[test]
fn grid_clip_matches_serial_norm_on_2x2x1() {
    check_grid_clip(GridShape::new(2, 1));
}

#[test]
fn grid_clip_matches_serial_norm_on_2x2x2() {
    check_grid_clip(GridShape::new(2, 2));
}

/// Per rank, after one ViT backward on `[2,2,1]` on backend `T`: the
/// virtual seconds (as f64 bits) that `clip_grad_norm(max_norm)` advances
/// the clock by, and the norm it reports.
fn clip_clock<T: TensorLike>(max_norm: f32) -> Vec<(u64, Option<f32>)> {
    let (x, dlogits) = inputs();
    let shape = GridShape::new(2, 1);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let block = |m: &Matrix| {
            let b = a_block(m, shape, i, j, k);
            Arc::new(T::build(b.rows(), b.cols(), || b))
        };
        let mut model = TesseractViT::<T>::new(ctx, &grid, vcfg(), SEED);
        let _ = model.forward(&grid, ctx, &block(&x));
        let _ = model.backward(&grid, ctx, &block(&dlogits));
        ctx.flush_compute();
        let before = ctx.clock();
        let norm = clip_grad_norm(&grid, ctx, &mut model, max_norm);
        ctx.flush_compute();
        ((ctx.clock() - before).to_bits(), norm)
    });
    out.results
}

#[test]
fn a_dense_and_a_shadow_clip_charge_the_same_clock() {
    let dense = clip_clock::<DenseTensor>(1e-6);
    let shadow = clip_clock::<ShadowTensor>(1e-6);
    for (rank, (&(d, norm), &(s, none))) in dense.iter().zip(&shadow).enumerate() {
        assert!(f64::from_bits(d) > 0.0, "rank {rank}: the clip charged nothing");
        assert!(norm.is_some() && none.is_none(), "rank {rank}: only Dense reports a norm");
        assert_eq!(
            d,
            s,
            "rank {rank}: Dense clip {} s, Shadow {} s",
            f64::from_bits(d),
            f64::from_bits(s)
        );
    }
}

#[test]
fn a_clips_clock_does_not_depend_on_whether_it_engages() {
    let engaged = clip_clock::<DenseTensor>(1e-6);
    let idle = clip_clock::<DenseTensor>(f32::MAX);
    for (rank, (&(e, norm), &(i, _))) in engaged.iter().zip(&idle).enumerate() {
        assert!(norm.expect("dense norm") > 1e-6, "rank {rank}: the threshold must engage");
        assert_eq!(
            e,
            i,
            "rank {rank}: engaged {} s, idle {} s",
            f64::from_bits(e),
            f64::from_bits(i)
        );
    }
}

/// A bare parameter set: borrowed `(weight, grad)` pairs, visited in
/// order. It has no layers, so nothing runs it forward or backward.
struct Params<'a>(Vec<(&'a mut DenseTensor, &'a mut DenseTensor)>);

impl Module<DenseTensor> for Params<'_> {
    fn forward(
        &mut self,
        _: &TesseractGrid,
        _: &mut RankCtx,
        _: &Arc<DenseTensor>,
    ) -> Arc<DenseTensor> {
        unreachable!("a parameter set has no forward")
    }

    fn backward(
        &mut self,
        _: &TesseractGrid,
        _: &mut RankCtx,
        _: &Arc<DenseTensor>,
    ) -> Arc<DenseTensor> {
        unreachable!("a parameter set has no backward")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, DenseTensor>)) {
        for (weight, grad) in &mut self.0 {
            f(ParamRef { weight, grad });
        }
    }
}

/// Clips `grads` (with zero weights) to `max_norm` on a `[1,1,1]` grid;
/// returns the reported norm and the gradients afterwards.
fn clip_on_one_rank(grads: &[f32], max_norm: f32) -> (f32, Vec<f32>) {
    let out = RunConfig::from_env(1).run(|ctx| {
        let grid = TesseractGrid::new(ctx, GridShape::new(1, 1), 0);
        let mut ws: Vec<_> =
            grads.iter().map(|_| DenseTensor::from_matrix(Matrix::zeros(1, 1))).collect();
        let mut gs: Vec<_> =
            grads.iter().map(|&g| DenseTensor::from_matrix(Matrix::full(1, 1, g))).collect();
        let mut params = Params(ws.iter_mut().zip(gs.iter_mut()).collect());
        let norm = clip_grad_norm(&grid, ctx, &mut params, max_norm).expect("dense norm");
        (norm, gs.iter().map(|g| g.matrix()[(0, 0)]).collect())
    });
    out.results.into_iter().next().expect("rank 0")
}

#[test]
fn clip_scales_to_threshold_on_1x1x1() {
    // One 3-4-0 right triangle of gradients: global norm 5.
    let (norm, g) = clip_on_one_rank(&[3.0, 4.0], 1.0);
    assert!((norm - 5.0).abs() < 1e-6);
    assert!((g[0] - 0.6).abs() < 1e-6);
    assert!((g[1] - 0.8).abs() < 1e-6);
}

#[test]
fn clip_is_noop_below_threshold_on_1x1x1() {
    let (norm, g) = clip_on_one_rank(&[0.5], 1.0);
    assert!((norm - 0.5).abs() < 1e-6);
    assert_eq!(g[0], 0.5);
}
