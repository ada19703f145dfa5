//! The optimizer, operating on distributed parameter blocks.
//!
//! Because gradients are already synchronized by the tensor-parallel
//! backward (depth all-reduce) and the data-parallel sync, every rank can
//! update its blocks locally with no further communication — identical
//! inputs produce identical updates. State is keyed by visit order, which
//! the layers guarantee to be deterministic.
//!
//! The one optimizer is AdamW, the paper's Figure-7 setup (Adam, lr 3e-3,
//! weight decay 0.3 — decoupled decay as in ViT training practice). Its one
//! entry point is `step(&mut dyn Module)`: the distributed models, a hybrid
//! engine's stage and the serial oracle all expose their parameters
//! through [`Module::visit_params`].
//!
//! Note on epsilon: updates use `1/sqrt(v̂ + ε²)` (epsilon inside the root)
//! because the tensor trait exposes a fused `rsqrt_add`; for the ε = 1e-8
//! defaults the difference from `1/(sqrt(v̂)+ε)` is far below f32 noise.

use tesseract_core::module::Module;
use tesseract_tensor::{AdamCoeffs, Meter, TensorLike};

/// AdamW: Adam moments with decoupled weight decay.
pub struct AdamW<T> {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    t: i32,
    moments: Vec<(T, T)>,
}

impl<T: TensorLike> AdamW<T> {
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay, t: 0, moments: Vec::new() }
    }

    /// Updates every parameter of `model` (any world type `G`).
    pub fn step<G>(&mut self, m: &mut Meter, model: &mut dyn Module<T, G>) {
        self.t += 1;
        let (lr, wd) = (self.lr, self.weight_decay);
        let coeffs = AdamCoeffs::at_step(self.beta1, self.beta2, self.eps, self.t);
        let moments = &mut self.moments;
        let mut idx = 0;
        model.visit_params(&mut |pr| {
            let g = &*pr.grad;
            if moments.len() <= idx {
                moments.push((T::zeros(g.rows(), g.cols()), T::zeros(g.rows(), g.cols())));
            }
            // The Adam direction `m̂ ∘ 1/sqrt(v̂ + ε²)`, updating the moments.
            let (mom, vel) = &mut moments[idx];
            let dir = g.adam_direction(mom, vel, coeffs, m);
            let mut w = pr.weight.add_scaled(&dir, -lr, m);
            if wd != 0.0 {
                w = w.add_scaled(pr.weight, -(lr * wd), m);
            }
            *pr.weight = w;
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tesseract_comm::RankCtx;
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

    fn quadratic_step(w: &mut DenseTensor, update: impl FnOnce(&mut Params<'_>)) {
        // Loss = 0.5‖w‖² → grad = w.
        let mut g = w.clone();
        update(&mut Params(vec![(w, &mut g)]));
    }

    #[test]
    fn adamw_descends_quadratic() {
        let mut opt = AdamW::<DenseTensor>::new(0.05, 0.0);
        let mut w = DenseTensor::from_matrix(Matrix::full(2, 3, 2.0));
        let mut m = Meter::new();
        for _ in 0..200 {
            quadratic_step(&mut w, |p| opt.step(&mut m, p));
        }
        assert!(w.matrix().frobenius_norm() < 0.05, "norm {}", w.matrix().frobenius_norm());
    }

    #[test]
    fn adamw_weight_decay_shrinks_weights_without_gradient() {
        let mut opt = AdamW::<DenseTensor>::new(0.1, 0.5);
        let mut w = DenseTensor::from_matrix(Matrix::full(1, 1, 1.0));
        let mut g = DenseTensor::from_matrix(Matrix::zeros(1, 1));
        let mut m = Meter::new();
        let before = w.matrix()[(0, 0)];
        opt.step(&mut m, &mut Params(vec![(&mut w, &mut g)]));
        assert!(w.matrix()[(0, 0)] < before);
    }

    #[test]
    fn state_tracks_multiple_params_independently() {
        let mut opt = AdamW::<DenseTensor>::new(0.5, 0.0);
        let mut w1 = DenseTensor::from_matrix(Matrix::full(1, 1, 1.0));
        let mut w2 = DenseTensor::from_matrix(Matrix::full(2, 2, 2.0));
        let mut m = Meter::new();
        for _ in 0..3 {
            let mut g1 = w1.clone();
            let mut g2 = w2.clone();
            opt.step(&mut m, &mut Params(vec![(&mut w1, &mut g1), (&mut w2, &mut g2)]));
        }
        assert_eq!(opt.moments.len(), 2);
        for (i, shape) in [(1, 1), (2, 2)].into_iter().enumerate() {
            assert_eq!((opt.moments[i].0.shape(), opt.moments[i].1.shape()), (shape, shape));
        }
    }
}
