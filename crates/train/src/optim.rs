//! Optimizers operating on distributed parameter blocks.
//!
//! Because gradients are already synchronized by the tensor-parallel
//! backward (depth all-reduce) and the data-parallel sync, every rank can
//! update its blocks locally with no further communication — identical
//! inputs produce identical updates. State is keyed by visit order, which
//! the layers guarantee to be deterministic.
//!
//! Each optimizer has one entry point, `step(&mut dyn Module)`: the
//! distributed models, a hybrid engine's stage and the serial oracle all
//! expose their parameters through [`Module::visit_params`].
//!
//! Implemented: SGD (+momentum, weight decay), AdamW (the paper's Figure-7
//! setup: Adam, lr 3e-3, weight decay 0.3 — decoupled decay as in ViT
//! training practice), plus the large-batch optimizers the introduction
//! cites: LARS (You et al. 2017) and LAMB (You et al. 2020). LAMB/LARS use
//! per-block norms for the trust ratio; on the shadow backend (no values)
//! the ratio falls back to 1.
//!
//! Note on epsilon: updates use `1/sqrt(v̂ + ε²)` (epsilon inside the root)
//! because the tensor trait exposes a fused `rsqrt_add`; for the ε = 1e-8
//! defaults the difference from `1/(sqrt(v̂)+ε)` is far below f32 noise.

use tesseract_comm::Payload;
use tesseract_core::module::Module;
use tesseract_tensor::{AdamCoeffs, Meter, TensorLike};

/// Plain SGD with optional momentum and (coupled) weight decay.
pub struct Sgd<T> {
    pub lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    velocity: Vec<T>,
}

impl<T: TensorLike> Sgd<T> {
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self { lr, momentum, weight_decay, velocity: Vec::new() }
    }

    /// Updates every parameter of `model` (any world type `G`).
    pub fn step<G>(&mut self, m: &mut Meter, model: &mut dyn Module<T, G>)
    where
        T: Payload,
    {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        let mut idx = 0;
        model.visit_params(&mut |pr| {
            let mut g = pr.grad.clone();
            if wd != 0.0 {
                g = g.add_scaled(pr.weight, wd, m);
            }
            if mu != 0.0 {
                if velocity.len() <= idx {
                    velocity.push(T::zeros(g.rows(), g.cols()));
                }
                g = g.add_scaled(&velocity[idx], mu, m);
                velocity[idx] = g.clone();
            }
            *pr.weight = pr.weight.add_scaled(&g, -lr, m);
            idx += 1;
        });
    }
}

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

    /// The Adam direction `m̂ ∘ 1/sqrt(v̂ + ε²)` for one parameter,
    /// updating stored moments. Shared by AdamW and LAMB.
    fn direction(
        moments: &mut Vec<(T, T)>,
        idx: usize,
        g: &T,
        coeffs: AdamCoeffs,
        m: &mut Meter,
    ) -> T {
        if moments.len() <= idx {
            moments.push((T::zeros(g.rows(), g.cols()), T::zeros(g.rows(), g.cols())));
        }
        let (mom, vel) = &mut moments[idx];
        g.adam_direction(mom, vel, coeffs, m)
    }

    /// Updates every parameter of `model` (any world type `G`).
    pub fn step<G>(&mut self, m: &mut Meter, model: &mut dyn Module<T, G>)
    where
        T: Payload,
    {
        self.t += 1;
        let (lr, wd) = (self.lr, self.weight_decay);
        let coeffs = AdamCoeffs::at_step(self.beta1, self.beta2, self.eps, self.t);
        let moments = &mut self.moments;
        let mut idx = 0;
        model.visit_params(&mut |pr| {
            let dir = Self::direction(moments, idx, pr.grad, coeffs, m);
            let mut w = pr.weight.add_scaled(&dir, -lr, m);
            if wd != 0.0 {
                w = w.add_scaled(pr.weight, -(lr * wd), m);
            }
            *pr.weight = w;
            idx += 1;
        });
    }
}

/// LAMB (You et al. 2020): Adam direction with a per-block trust ratio
/// `‖w‖ / ‖r + wd·w‖`.
pub struct Lamb<T> {
    pub lr: f32,
    pub weight_decay: f32,
    pub eps: f32,
    beta1: f32,
    beta2: f32,
    t: i32,
    moments: Vec<(T, T)>,
}

impl<T: TensorLike> Lamb<T> {
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self { lr, weight_decay, eps: 1e-8, beta1: 0.9, beta2: 0.999, t: 0, moments: Vec::new() }
    }

    /// Updates every parameter of `model` (any world type `G`).
    pub fn step<G>(&mut self, m: &mut Meter, model: &mut dyn Module<T, G>)
    where
        T: Payload,
    {
        self.t += 1;
        let (lr, wd) = (self.lr, self.weight_decay);
        let coeffs = AdamCoeffs::at_step(self.beta1, self.beta2, self.eps, self.t);
        let moments = &mut self.moments;
        let mut idx = 0;
        model.visit_params(&mut |pr| {
            let mut r = AdamW::direction(moments, idx, pr.grad, coeffs, m);
            if wd != 0.0 {
                r = r.add_scaled(pr.weight, wd, m);
            }
            let trust = match (pr.weight.frobenius(), r.frobenius()) {
                (Some(wn), Some(rn)) if wn > 0.0 && rn > 0.0 => (wn / rn).clamp(0.0, 10.0),
                _ => 1.0,
            };
            *pr.weight = pr.weight.add_scaled(&r, -(lr * trust), m);
            idx += 1;
        });
    }
}

/// LARS (You et al. 2017): SGD-with-momentum direction scaled by the layer
/// trust ratio `η·‖w‖ / (‖g‖ + wd·‖w‖)`.
pub struct Lars<T> {
    pub lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub eta: f32,
    velocity: Vec<T>,
}

impl<T: TensorLike> Lars<T> {
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self { lr, momentum: 0.9, weight_decay, eta: 1e-3, velocity: Vec::new() }
    }

    /// Updates every parameter of `model` (any world type `G`).
    pub fn step<G>(&mut self, m: &mut Meter, model: &mut dyn Module<T, G>)
    where
        T: Payload,
    {
        let (lr, mu, wd, eta) = (self.lr, self.momentum, self.weight_decay, self.eta);
        let velocity = &mut self.velocity;
        let mut idx = 0;
        model.visit_params(&mut |pr| {
            let local_lr = match (pr.weight.frobenius(), pr.grad.frobenius()) {
                (Some(wn), Some(gn)) if wn > 0.0 && gn + wd * wn > 0.0 => eta * wn / (gn + wd * wn),
                _ => 1.0,
            };
            let mut g = pr.grad.clone();
            if wd != 0.0 {
                g = g.add_scaled(pr.weight, wd, m);
            }
            if velocity.len() <= idx {
                velocity.push(T::zeros(g.rows(), g.cols()));
            }
            let v = velocity[idx].scale(mu, m).add_scaled(&g, local_lr * lr, m);
            velocity[idx] = v.clone();
            *pr.weight = pr.weight.sub(&v, m);
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
    fn sgd_descends_quadratic() {
        let mut opt = Sgd::<DenseTensor>::new(0.1, 0.0, 0.0);
        let mut w = DenseTensor::from_matrix(Matrix::full(2, 2, 1.0));
        let mut m = Meter::new();
        for _ in 0..80 {
            quadratic_step(&mut w, |p| opt.step(&mut m, p));
        }
        // w shrinks by (1 - lr) per step: 2·0.9^80 ≈ 4.4e-4.
        assert!(w.matrix().frobenius_norm() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |mu: f32| {
            let mut opt = Sgd::<DenseTensor>::new(0.05, mu, 0.0);
            let mut w = DenseTensor::from_matrix(Matrix::full(1, 1, 1.0));
            let mut m = Meter::new();
            for _ in 0..10 {
                quadratic_step(&mut w, |p| opt.step(&mut m, p));
            }
            w.matrix()[(0, 0)].abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should reach lower |w| in 10 steps");
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
    fn lamb_descends_quadratic() {
        let mut opt = Lamb::<DenseTensor>::new(0.1, 0.0);
        let mut w = DenseTensor::from_matrix(Matrix::full(2, 2, 1.0));
        let mut m = Meter::new();
        let initial = w.matrix().frobenius_norm();
        for _ in 0..50 {
            quadratic_step(&mut w, |p| opt.step(&mut m, p));
        }
        assert!(w.matrix().frobenius_norm() < initial * 0.5);
    }

    #[test]
    fn lars_descends_quadratic() {
        let mut opt = Lars::<DenseTensor>::new(1.0, 0.0);
        let mut w = DenseTensor::from_matrix(Matrix::full(2, 2, 1.0));
        let mut m = Meter::new();
        let initial = w.matrix().frobenius_norm();
        for _ in 0..100 {
            quadratic_step(&mut w, |p| opt.step(&mut m, p));
        }
        assert!(w.matrix().frobenius_norm() < initial);
    }

    #[test]
    fn state_tracks_multiple_params_independently() {
        let mut opt = Sgd::<DenseTensor>::new(0.5, 0.9, 0.0);
        let mut w1 = DenseTensor::from_matrix(Matrix::full(1, 1, 1.0));
        let mut w2 = DenseTensor::from_matrix(Matrix::full(2, 2, 2.0));
        let mut m = Meter::new();
        for _ in 0..3 {
            let mut g1 = w1.clone();
            let mut g2 = w2.clone();
            opt.step(&mut m, &mut Params(vec![(&mut w1, &mut g1), (&mut w2, &mut g2)]));
        }
        assert_eq!(opt.velocity.len(), 2);
        assert_eq!(opt.velocity[0].shape(), (1, 1));
        assert_eq!(opt.velocity[1].shape(), (2, 2));
    }
}
