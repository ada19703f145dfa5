//! Data parallelism on top of Tesseract (paper §3.4).
//!
//! Each data-parallel replica runs the same model on a disjoint slice of the
//! global batch; after backward, gradients are all-reduced across replicas
//! and averaged, exactly like PyTorch DDP over NCCL.

use tesseract_comm::{CommGroup, RankCtx};
use tesseract_core::module::Module;
use tesseract_tensor::TensorLike;

/// One rank's handle on its data-parallel gradient-sync group (ranks that
/// hold the same model shard in different replicas).
pub struct DataParallel {
    pub group: CommGroup,
    pub replicas: usize,
}

impl DataParallel {
    pub fn new(ctx: &RankCtx, ranks: Vec<usize>) -> Self {
        let group = ctx.group("dp.grad", ranks);
        Self { replicas: group.size(), group }
    }

    /// All-reduces and averages every gradient the model exposes. Call once
    /// per step, after backward and before the optimizer.
    pub fn sync_gradients<T: TensorLike, G>(
        &self,
        ctx: &mut RankCtx,
        model: &mut dyn Module<T, G>,
    ) {
        let inv = 1.0 / self.replicas as f32;
        let group = &self.group;
        // SPMD: replicas expose parameters in identical order, so the
        // per-parameter all-reduces line up. Each gradient is moved into the
        // reduction (a placeholder takes its slot) so no rank clones its own
        // contribution; the combined sum comes back shared.
        model.visit_params(&mut |pr| {
            let g = std::mem::replace(pr.grad, T::zeros(1, 1));
            let summed = group.all_reduce_shared(ctx, g);
            *pr.grad = summed.scale(inv, &mut ctx.meter);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tesseract_comm::RunConfig;
    use tesseract_core::{ParamRef, TesseractGrid};
    use tesseract_tensor::{DenseTensor, Matrix};

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

    #[test]
    fn gradients_are_averaged_across_replicas() {
        let out = RunConfig::from_env(2).run(|ctx| {
            let dp = DataParallel::new(ctx, vec![0, 1]);
            let mut w = DenseTensor::from_matrix(Matrix::full(2, 2, 0.0));
            let mut g = DenseTensor::from_matrix(Matrix::full(2, 2, (ctx.rank as f32 + 1.0) * 2.0));
            dp.sync_gradients(ctx, &mut Params(vec![(&mut w, &mut g)]));
            g.matrix()[(0, 0)]
        });
        // (2 + 4) / 2 = 3 on both replicas.
        assert_eq!(out.results, vec![3.0, 3.0]);
    }

    #[test]
    fn sync_handles_multiple_params_in_order() {
        let out = RunConfig::from_env(2).run(|ctx| {
            let dp = DataParallel::new(ctx, vec![0, 1]);
            let mut w1 = DenseTensor::from_matrix(Matrix::zeros(1, 1));
            let mut g1 = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            let mut w2 = DenseTensor::from_matrix(Matrix::zeros(1, 2));
            let mut g2 = DenseTensor::from_matrix(Matrix::full(1, 2, 10.0 * ctx.rank as f32));
            dp.sync_gradients(ctx, &mut Params(vec![(&mut w1, &mut g1), (&mut w2, &mut g2)]));
            (g1.matrix()[(0, 0)], g2.matrix()[(0, 1)])
        });
        assert_eq!(out.results, vec![(0.5, 5.0), (0.5, 5.0)]);
    }
}
