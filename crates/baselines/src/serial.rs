//! Serial (single-device) reference Transformer.
//!
//! This is an **independent oracle**: it is written directly against
//! [`Matrix`] and the `tesseract_tensor::nn` kernels, not against the
//! generic `TensorLike` layer code, so a bug shared by the distributed
//! layers cannot hide here. It consumes the *same* parameter-id scheme as
//! the distributed stacks (Wq, Wk, Wv, Wo, fc1, fc2 = `base..base+6` per
//! layer, biases zero-initialized), so for equal seeds every scheme
//! computes the same function and gradients up to f32 rounding — the
//! property behind the paper's Figure 7.
//!
//! Only the *parameters* are shared with the distributed stack: they are
//! stored as [`DenseTensor`]s and walked by `visit_params` in the same
//! [`ParamRef`] form, so optimizers, clipping and gradient sync have one
//! entry point for every model. The kernels read them through `.matrix()`
//! / `.0` and never call a `TensorLike` op.

use tesseract_tensor::init::global_xavier;
use tesseract_tensor::matmul::{gemm, Orient};
use tesseract_tensor::nn;
use tesseract_tensor::{DenseTensor, Matrix};

use tesseract_core::{ParamRef, TransformerConfig};

/// Serial linear layer `Y = X·W + b`.
pub struct SerialLinear {
    pub w: DenseTensor,
    pub dw: DenseTensor,
    pub bias: Option<DenseTensor>,
    pub dbias: Option<DenseTensor>,
    cached_x: Option<Matrix>,
}

impl SerialLinear {
    pub fn new(
        in_features: usize,
        out_features: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        let w = global_xavier(in_features, out_features, seed, param_id);
        let zeros = |rows, cols| DenseTensor(Matrix::zeros(rows, cols));
        Self {
            dw: zeros(in_features, out_features),
            bias: with_bias.then(|| zeros(1, out_features)),
            dbias: with_bias.then(|| zeros(1, out_features)),
            w: DenseTensor(w),
            cached_x: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = gemm(Orient::Nn, x, self.w.matrix());
        if let Some(b) = &self.bias {
            y = nn::bias_add(&y, b.matrix().row(0));
        }
        self.cached_x = Some(x.clone());
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        self.backward_params(dy);
        gemm(Orient::Nt, dy, self.w.matrix())
    }

    /// The parameter half of [`SerialLinear::backward`]: accumulates
    /// `dbias` and `dW = Xᵀ·dY`, and computes no `dX`.
    pub fn backward_params(&mut self, dy: &Matrix) {
        let x = self.cached_x.take().expect("backward without forward");
        if let Some(db) = self.dbias.as_mut() {
            for i in 0..dy.rows() {
                for (acc, &g) in db.0.row_mut(0).iter_mut().zip(dy.row(i).iter()) {
                    *acc += g;
                }
            }
        }
        self.dw.0.add_assign(&gemm(Orient::Tn, &x, dy));
    }

    /// Visits `(w, dw)`, then `(bias, dbias)` if the layer has a bias.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, DenseTensor>)) {
        f(ParamRef { weight: &mut self.w, grad: &mut self.dw });
        if let (Some(b), Some(db)) = (self.bias.as_mut(), self.dbias.as_mut()) {
            f(ParamRef { weight: b, grad: db });
        }
    }
}

/// Serial parameter-free layer norm.
pub struct SerialLayerNorm {
    pub eps: f32,
    cache: Option<nn::LayerNormCache>,
}

impl SerialLayerNorm {
    pub fn new(eps: f32) -> Self {
        Self { eps, cache: None }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let cache = nn::layernorm_rows(x, self.eps);
        let y = cache.y.clone();
        self.cache = Some(cache);
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("backward without forward");
        nn::layernorm_rows_backward(&cache, dy)
    }
}

struct SerialHeadCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attn: Matrix,
}

/// Serial multi-head self-attention with separate Q/K/V projections.
pub struct SerialAttention {
    pub wq: SerialLinear,
    pub wk: SerialLinear,
    pub wv: SerialLinear,
    pub wo: SerialLinear,
    cfg: TransformerConfig,
    cache: Vec<SerialHeadCache>,
}

impl SerialAttention {
    pub fn new(cfg: TransformerConfig, with_bias: bool, seed: u64, param_id: u64) -> Self {
        let h = cfg.hidden;
        Self {
            wq: SerialLinear::new(h, h, with_bias, seed, param_id),
            wk: SerialLinear::new(h, h, with_bias, seed, param_id + 1),
            wv: SerialLinear::new(h, h, with_bias, seed, param_id + 2),
            wo: SerialLinear::new(h, h, with_bias, seed, param_id + 3),
            cfg,
            cache: Vec::new(),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (s, hd, n) = (self.cfg.seq, self.cfg.head_dim(), self.cfg.heads);
        let b = x.rows() / s;
        let q_all = self.wq.forward(x);
        let k_all = self.wk.forward(x);
        let v_all = self.wv.forward(x);
        let scale = 1.0 / (hd as f32).sqrt();
        self.cache.clear();
        let mut out = Matrix::zeros(x.rows(), self.cfg.hidden);
        for si in 0..b {
            let (r0, r1) = (si * s, (si + 1) * s);
            for hi in 0..n {
                let (c0, c1) = (hi * hd, (hi + 1) * hd);
                let qh = q_all.block(r0, c0, r1 - r0, c1 - c0);
                let kh = k_all.block(r0, c0, r1 - r0, c1 - c0);
                let vh = v_all.block(r0, c0, r1 - r0, c1 - c0);
                let mut scores = gemm(Orient::Nt, &qh, &kh);
                scores.scale_assign(scale);
                let attn = nn::softmax_rows(&scores);
                let head_out = gemm(Orient::Nn, &attn, &vh);
                out.set_block(r0, c0, &head_out);
                self.cache.push(SerialHeadCache { q: qh, k: kh, v: vh, attn });
            }
        }
        self.wo.forward(&out)
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (s, hd, n) = (self.cfg.seq, self.cfg.head_dim(), self.cfg.heads);
        let d_merged = self.wo.backward(dy);
        let b = d_merged.rows() / s;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut dq_all = Matrix::zeros(d_merged.rows(), self.cfg.hidden);
        let mut dk_all = Matrix::zeros(d_merged.rows(), self.cfg.hidden);
        let mut dv_all = Matrix::zeros(d_merged.rows(), self.cfg.hidden);
        for si in 0..b {
            let (r0, _r1) = (si * s, (si + 1) * s);
            for hi in 0..n {
                let cache = &self.cache[si * n + hi];
                let c0 = hi * hd;
                let d_out = d_merged.block(r0, c0, s, hd);
                let d_attn = gemm(Orient::Nt, &d_out, &cache.v);
                let dv = gemm(Orient::Tn, &cache.attn, &d_out);
                let mut d_scores = nn::softmax_rows_backward(&cache.attn, &d_attn);
                d_scores.scale_assign(scale);
                let dq = gemm(Orient::Nn, &d_scores, &cache.k);
                let dk = gemm(Orient::Tn, &d_scores, &cache.q);
                dq_all.set_block(r0, c0, &dq);
                dk_all.set_block(r0, c0, &dk);
                dv_all.set_block(r0, c0, &dv);
            }
        }
        self.cache.clear();
        let mut dx = self.wq.backward(&dq_all);
        dx.add_assign(&self.wk.backward(&dk_all));
        dx.add_assign(&self.wv.backward(&dv_all));
        dx
    }
}

/// Serial MLP: `fc2(gelu(fc1(x)))`.
pub struct SerialMlp {
    pub fc1: SerialLinear,
    pub fc2: SerialLinear,
    cached_pre: Option<Matrix>,
}

impl SerialMlp {
    pub fn new(
        hidden: usize,
        mlp_hidden: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        Self {
            fc1: SerialLinear::new(hidden, mlp_hidden, with_bias, seed, param_id),
            fc2: SerialLinear::new(mlp_hidden, hidden, with_bias, seed, param_id + 1),
            cached_pre: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = self.fc1.forward(x);
        let act = nn::gelu_matrix(&pre);
        self.cached_pre = Some(pre);
        self.fc2.forward(&act)
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d_act = self.fc2.backward(dy);
        let pre = self.cached_pre.take().expect("backward without forward");
        let d_pre = nn::gelu_backward_matrix(&pre, &d_act);
        self.fc1.backward(&d_pre)
    }
}

/// One serial pre-norm Transformer layer.
pub struct SerialTransformerLayer {
    pub ln1: SerialLayerNorm,
    pub attn: SerialAttention,
    pub ln2: SerialLayerNorm,
    pub mlp: SerialMlp,
}

impl SerialTransformerLayer {
    pub fn new(cfg: TransformerConfig, with_bias: bool, seed: u64, param_id: u64) -> Self {
        Self {
            ln1: SerialLayerNorm::new(cfg.eps),
            attn: SerialAttention::new(cfg, with_bias, seed, param_id),
            ln2: SerialLayerNorm::new(cfg.eps),
            mlp: SerialMlp::new(cfg.hidden, cfg.mlp_hidden(), with_bias, seed, param_id + 4),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let a = self.ln1.forward(x);
        let b = self.attn.forward(&a);
        let mut x1 = x.clone();
        x1.add_assign(&b);
        let c = self.ln2.forward(&x1);
        let d = self.mlp.forward(&c);
        let mut y = x1;
        y.add_assign(&d);
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d_mlp_in = self.mlp.backward(dy);
        let d_x1_from_ln2 = self.ln2.backward(&d_mlp_in);
        let mut d_x1 = dy.clone();
        d_x1.add_assign(&d_x1_from_ln2);
        let d_attn_in = self.attn.backward(&d_x1);
        let d_x_from_ln1 = self.ln1.backward(&d_attn_in);
        let mut dx = d_x1;
        dx.add_assign(&d_x_from_ln1);
        dx
    }
}

/// A stack of serial Transformer layers (param-id layout identical to
/// `TesseractTransformer`).
pub struct SerialTransformer {
    pub layers: Vec<SerialTransformerLayer>,
    pub cfg: TransformerConfig,
}

impl SerialTransformer {
    pub fn new(cfg: TransformerConfig, with_bias: bool, seed: u64, base_param_id: u64) -> Self {
        let layers = (0..cfg.layers)
            .map(|l| {
                SerialTransformerLayer::new(
                    cfg,
                    with_bias,
                    seed,
                    base_param_id + l as u64 * tesseract_core::layers::PARAM_IDS_PER_LAYER,
                )
            })
            .collect();
        Self { layers, cfg }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let mut g = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Visits every linear's parameters: per layer `wq, wk, wv, wo, fc1,
    /// fc2`, each weight followed by its bias.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, DenseTensor>)) {
        for layer in &mut self.layers {
            let (attn, mlp) = (&mut layer.attn, &mut layer.mlp);
            for lin in
                [&mut attn.wq, &mut attn.wk, &mut attn.wv, &mut attn.wo, &mut mlp.fc1, &mut mlp.fc2]
            {
                lin.visit_params(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_backward_matches_finite_difference() {
        let mut lin = SerialLinear::new(4, 3, true, 7, 0);
        let x = Matrix::seeded(2, 4, 1);
        let dy = Matrix::seeded(2, 3, 2);
        let _ = lin.forward(&x);
        let dx = lin.backward(&dy);
        let h = 1e-2f32;
        // Check dx via loss L = sum(dy ∘ (xW + b)).
        for i in 0..2 {
            for j in 0..4 {
                let mut xp = x.clone();
                xp[(i, j)] += h;
                let mut xm = x.clone();
                xm[(i, j)] -= h;
                let mut l2 = SerialLinear::new(4, 3, true, 7, 0);
                let yp = l2.forward(&xp);
                let ym = l2.forward(&xm);
                let mut fd = 0.0;
                for r in 0..2 {
                    for c in 0..3 {
                        fd += dy[(r, c)] * (yp[(r, c)] - ym[(r, c)]) / (2.0 * h);
                    }
                }
                assert!((dx[(i, j)] - fd).abs() < 1e-2, "({i},{j}): {} vs {fd}", dx[(i, j)]);
            }
        }
    }

    #[test]
    fn transformer_layer_backward_matches_finite_difference() {
        let cfg = TransformerConfig {
            batch: 2,
            seq: 3,
            hidden: 8,
            heads: 2,
            mlp_ratio: 2,
            layers: 1,
            eps: 1e-5,
        };
        let x = Matrix::seeded(cfg.rows(), cfg.hidden, 3);
        let dy = Matrix::seeded(cfg.rows(), cfg.hidden, 4);
        let mut layer = SerialTransformerLayer::new(cfg, true, 11, 0);
        let _ = layer.forward(&x);
        let dx = layer.backward(&dy);
        let h = 3e-2f32;
        // Spot-check a few coordinates (full sweep is slow).
        for &(i, j) in &[(0usize, 0usize), (1, 3), (5, 7), (3, 2)] {
            let mut xp = x.clone();
            xp[(i, j)] += h;
            let mut xm = x.clone();
            xm[(i, j)] -= h;
            let mut lp = SerialTransformerLayer::new(cfg, true, 11, 0);
            let mut lm = SerialTransformerLayer::new(cfg, true, 11, 0);
            let yp = lp.forward(&xp);
            let ym = lm.forward(&xm);
            let mut fd = 0.0;
            for r in 0..cfg.rows() {
                for c in 0..cfg.hidden {
                    fd += dy[(r, c)] * (yp[(r, c)] - ym[(r, c)]) / (2.0 * h);
                }
            }
            assert!(
                (dx[(i, j)] - fd).abs() < 0.05 * dx[(i, j)].abs().max(1.0),
                "({i},{j}): {} vs {fd}",
                dx[(i, j)]
            );
        }
    }

    #[test]
    fn forward_is_deterministic_across_instances() {
        let cfg = TransformerConfig::tiny();
        let x = Matrix::seeded(cfg.rows(), cfg.hidden, 5);
        let mut a = SerialTransformer::new(cfg, true, 42, 0);
        let mut b = SerialTransformer::new(cfg, true, 42, 0);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn different_seeds_change_output() {
        let cfg = TransformerConfig::tiny();
        let x = Matrix::seeded(cfg.rows(), cfg.hidden, 5);
        let mut a = SerialTransformer::new(cfg, true, 42, 0);
        let mut b = SerialTransformer::new(cfg, true, 43, 0);
        assert_ne!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn attention_output_shape_is_input_shape() {
        let cfg = TransformerConfig::tiny();
        let x = Matrix::seeded(cfg.rows(), cfg.hidden, 6);
        let mut attn = SerialAttention::new(cfg, true, 1, 0);
        assert_eq!(attn.forward(&x).shape(), x.shape());
    }
}
