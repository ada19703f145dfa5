//! Multi-head self-attention (paper §3.2.1, Figure 5b), written once for
//! every [`World`].
//!
//! The fused QKV projection `[h, 3h]` and the output projection `[h, h]`
//! are the world's linears. Between them, attention itself is **fully
//! local**: a rank holds whole samples (rows) and whole heads (columns) —
//! `b/(d·q)` and `n/q` on a `[q, q, d]` grid, `b` and `n/p` on a 1-D group
//! — so `softmax(QKᵀ/√d̄)V` for its (sample, head) pairs needs no
//! communication — the property §3.2.1 emphasizes ("with no communication
//! with other position's tokens, the attention part is also
//! parallelizable").

use std::sync::Arc;

use tesseract_comm::RankCtx;
use tesseract_tensor::{Meter, TensorLike};

use crate::config::TransformerConfig;
use crate::grid::TesseractGrid;
use crate::infer::LayerKv;
use crate::layers::layernorm::layer_norm_rows;
use crate::layers::linear::{Parallel, Stationary};
use crate::layers::world::World;
use crate::module::{Module, ParamRef, Tape};

struct HeadCache<T> {
    q: T,
    k: T,
    v: T,
    attn: T,
}

/// Multi-head self-attention.
pub struct Attention<T: TensorLike, G: World<T>> {
    pub wqkv: G::Linear,
    pub wo: G::Linear,
    pub(crate) cfg: TransformerConfig,
    /// Tape of per-microbatch head caches (see [`Tape`] on pipelining).
    tape: Tape<Vec<HeadCache<T>>>,
}

/// [`Attention`] on the `[q, q, d]` grid.
pub type TesseractAttention<T> = Attention<T, TesseractGrid>;

impl<T: TensorLike, G: World<T>> Attention<T, G> {
    /// Builds the layer; consumes param ids `param_id .. param_id + 4`
    /// (Wq, Wk, Wv, Wo).
    pub fn new(
        world: &G,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        let h = cfg.hidden;
        // Three independent [h, h] projections fused column-wise so each
        // rank's slice holds Q/K/V for exactly its own heads.
        let qkv = [(h, param_id), (h, param_id + 1), (h, param_id + 2)];
        let wqkv = world.linear(Parallel::Column, h, &qkv, with_bias, seed);
        let wo = world.linear(Parallel::Row, h, &[(h, param_id + 3)], with_bias, seed);
        Self { wqkv, wo, cfg, tape: Tape::new() }
    }
}

/// KV-cached **causal** attention over a serving layer's full rows `x`
/// (no tape): [`layer_norm_rows`] of `x`, the fused QKV projection by
/// `wqkv`'s fetched column, the Q/K/V column slices of this rank's heads,
/// each segment's new K/V rows appended in place to its [`LayerKv`]
/// ([`TensorLike::append_rows`]), then [`ragged_causal_attention`] over
/// every segment and locally-owned head. The result is this rank's column
/// block of the attention output, the input of `wo`'s row-parallel
/// product. The layer runs it inside one fused launch, the way a KV-cache
/// attention kernel appends K/V in-kernel.
///
/// The rows of `x` stack each request's *new* tokens (`new_rows[r]` rows
/// for request `r`: the whole prompt during prefill, one row per decode
/// step), and new token `t` attends `cached + t + 1` positions. A decode
/// step is therefore O(L) per token instead of the O(L²) full-prefix
/// recompute, and bitwise identical to it **only while both runs' GEMMs
/// take the same `matmul::planned_path` kernel** (every op is then per-row
/// deterministic: dot products, masked row softmax). A recompute's GEMMs
/// have more rows than a one-row decode's, so past the path's size
/// threshold they run the blocked kernel (fused multiply-add) while the
/// decode stays serial (multiply, then add), and the bits differ; ROADMAP
/// item 7(b) would make the two paths bitwise equal.
pub fn norm_attention<T: TensorLike>(
    x: &T,
    eps: f32,
    wqkv: &Stationary<T>,
    new_rows: &[usize],
    kvs: &mut [&mut LayerKv<T>],
    head_dim: usize,
    m: &mut Meter,
) -> T {
    assert_eq!(new_rows.len(), kvs.len(), "one KV cache per request segment");
    let panels = wqkv.panels.len();
    let qkv = wqkv.matmul(&layer_norm_rows(x, panels, eps, m), m);
    let local_h = qkv.cols() / 3;
    assert_eq!(x.cols(), panels * local_h, "attention input width mismatch");
    let q_all = qkv.slice_cols(0, local_h, m);
    let k_all = qkv.slice_cols(local_h, 2 * local_h, m);
    let v_all = qkv.slice_cols(2 * local_h, 3 * local_h, m);

    let mut r0 = 0;
    for (kv, &t_new) in kvs.iter_mut().zip(new_rows) {
        kv.k.append_rows(&k_all.slice_rows(r0, r0 + t_new, m), m);
        kv.v.append_rows(&v_all.slice_rows(r0, r0 + t_new, m), m);
        r0 += t_new;
    }
    let caches: Vec<(&T, &T)> = kvs.iter().map(|kv| (&kv.k, &kv.v)).collect();
    ragged_causal_attention(&q_all, &caches, new_rows, head_dim, m)
}

/// Ragged causal attention of every segment and head of a serving step.
///
/// `q` is `[T, w]`: the new rows of every segment stacked, `w` a whole
/// number of `head_dim`-wide heads. Segment `s` owns the next
/// `new_rows[s]` rows and attends over its full cache `kv[s] = (K, V)`,
/// each `[L, w]` with the new rows last, so new row `t` sees
/// `L − new_rows[s] + t + 1` positions. Per segment and head it is the
/// chain `matmul_nt → scale(1/√head_dim) → softmax_rows_masked_inplace →
/// matmul`; [`norm_attention`] ends with it.
pub fn ragged_causal_attention<T: TensorLike>(
    q: &T,
    kv: &[(&T, &T)],
    new_rows: &[usize],
    head_dim: usize,
    m: &mut Meter,
) -> T {
    let (rows, w) = q.shape();
    assert_eq!(kv.len(), new_rows.len(), "attention: one KV cache per segment");
    assert_eq!(new_rows.iter().sum::<usize>(), rows, "attention: segment rows vs {rows}");
    assert!(head_dim > 0 && w % head_dim == 0, "attention: width {w} vs head {head_dim}");
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut segments = Vec::with_capacity(kv.len());
    let mut r0 = 0;
    for (&(k, v), &t) in kv.iter().zip(new_rows) {
        let len = k.rows();
        assert!(k.shape() == v.shape() && k.cols() == w, "attention: K/V caches vs query width");
        assert!(t >= 1 && t <= len, "attention: {t} new rows in a {len}-row cache");
        let limits: Vec<usize> = (len - t + 1..=len).collect();
        let q_seg = q.slice_rows(r0, r0 + t, m);
        let heads: Vec<T> = (0..w)
            .step_by(head_dim)
            .map(|c0| {
                let c1 = c0 + head_dim;
                let mut scores = q_seg.slice_cols(c0, c1, m).matmul_nt(&k.slice_cols(c0, c1, m), m);
                scores.scale_assign(scale, m);
                scores.softmax_rows_masked_inplace(&limits, m);
                scores.matmul(&v.slice_cols(c0, c1, m), m)
            })
            .collect();
        segments.push(T::concat_cols(&heads, m));
        r0 += t;
    }
    if segments.is_empty() {
        T::zeros(0, w)
    } else {
        T::concat_rows(&segments, m)
    }
}

impl<T: TensorLike, G: World<T>> Module<T, G> for Attention<T, G> {
    fn name(&self) -> &'static str {
        "attention"
    }

    /// Forward over the local activation block (`[b/(dq)·s, h/q]` on a
    /// grid, the replicated `[b·s, h]` on a 1-D group).
    fn forward(&mut self, world: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let s = self.cfg.seq;
        let hd = self.cfg.head_dim();
        let samples = world.local_samples(self.cfg.batch);
        let heads = world.local_heads(self.cfg.heads);
        let local_h = heads * hd;
        assert!(samples >= 1, "batch too small for this world");
        assert_eq!(x.rows(), samples * s, "attention input rows mismatch");

        let qkv = self.wqkv.forward(world, ctx, x);
        assert_eq!(qkv.cols(), 3 * local_h, "attention input width mismatch");
        let q_all = qkv.slice_cols(0, local_h, &mut ctx.meter);
        let k_all = qkv.slice_cols(local_h, 2 * local_h, &mut ctx.meter);
        let v_all = qkv.slice_cols(2 * local_h, 3 * local_h, &mut ctx.meter);

        let mut caches = Vec::with_capacity(samples * heads);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut sample_outs = Vec::with_capacity(samples);
        for si in 0..samples {
            let (r0, r1) = (si * s, (si + 1) * s);
            let qs = q_all.slice_rows(r0, r1, &mut ctx.meter);
            let ks = k_all.slice_rows(r0, r1, &mut ctx.meter);
            let vs = v_all.slice_rows(r0, r1, &mut ctx.meter);
            let mut head_outs = Vec::with_capacity(heads);
            for hi in 0..heads {
                let (c0, c1) = (hi * hd, (hi + 1) * hd);
                let qh = qs.slice_cols(c0, c1, &mut ctx.meter);
                let kh = ks.slice_cols(c0, c1, &mut ctx.meter);
                let vh = vs.slice_cols(c0, c1, &mut ctx.meter);
                let scores = qh.matmul_nt(&kh, &mut ctx.meter).scale(scale, &mut ctx.meter);
                let attn = scores.softmax_rows(&mut ctx.meter);
                let out = attn.matmul(&vh, &mut ctx.meter);
                caches.push(HeadCache { q: qh, k: kh, v: vh, attn });
                head_outs.push(out);
            }
            sample_outs.push(T::concat_cols(&head_outs, &mut ctx.meter));
        }
        let cache_bytes: u64 = caches
            .iter()
            .map(|c| {
                (c.q.byte_size() + c.k.byte_size() + c.v.byte_size() + c.attn.byte_size()) as u64
            })
            .sum();
        self.tape.push_tracked(ctx, cache_bytes, caches);
        let merged = Arc::new(T::concat_rows(&sample_outs, &mut ctx.meter));
        self.wo.forward(world, ctx, &merged)
    }

    /// Backward; returns `dX` and accumulates projection gradients.
    fn backward(&mut self, world: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let s = self.cfg.seq;
        let hd = self.cfg.head_dim();
        let samples = world.local_samples(self.cfg.batch);
        let heads = world.local_heads(self.cfg.heads);
        let scale = 1.0 / (hd as f32).sqrt();

        let d_merged = self.wo.backward(world, ctx, dy);
        let caches = self.tape.pop_tracked(ctx, "Attention");
        assert_eq!(caches.len(), samples * heads, "cache/shape mismatch in backward");

        let mut dq_rows = Vec::with_capacity(samples);
        let mut dk_rows = Vec::with_capacity(samples);
        let mut dv_rows = Vec::with_capacity(samples);
        for si in 0..samples {
            let (r0, r1) = (si * s, (si + 1) * s);
            let d_sample = d_merged.slice_rows(r0, r1, &mut ctx.meter);
            let mut dq_heads = Vec::with_capacity(heads);
            let mut dk_heads = Vec::with_capacity(heads);
            let mut dv_heads = Vec::with_capacity(heads);
            for hi in 0..heads {
                let cache = &caches[si * heads + hi];
                let (c0, c1) = (hi * hd, (hi + 1) * hd);
                let d_out = d_sample.slice_cols(c0, c1, &mut ctx.meter);
                // out = attn · V
                let d_attn = d_out.matmul_nt(&cache.v, &mut ctx.meter);
                let dv = cache.attn.matmul_tn(&d_out, &mut ctx.meter);
                // attn = softmax(scores), scores = scale · Q Kᵀ
                let d_scores = cache
                    .attn
                    .softmax_rows_backward(&d_attn, &mut ctx.meter)
                    .scale(scale, &mut ctx.meter);
                let dq = d_scores.matmul(&cache.k, &mut ctx.meter);
                let dk = d_scores.matmul_tn(&cache.q, &mut ctx.meter);
                dq_heads.push(dq);
                dk_heads.push(dk);
                dv_heads.push(dv);
            }
            dq_rows.push(T::concat_cols(&dq_heads, &mut ctx.meter));
            dk_rows.push(T::concat_cols(&dk_heads, &mut ctx.meter));
            dv_rows.push(T::concat_cols(&dv_heads, &mut ctx.meter));
        }
        let dq_all = T::concat_rows(&dq_rows, &mut ctx.meter);
        let dk_all = T::concat_rows(&dk_rows, &mut ctx.meter);
        let dv_all = T::concat_rows(&dv_rows, &mut ctx.meter);
        let d_qkv = Arc::new(T::concat_cols(&[dq_all, dk_all, dv_all], &mut ctx.meter));
        self.wqkv.backward(world, ctx, &d_qkv)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.wqkv.visit_params(f);
        self.wo.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("Attention");
        self.wqkv.zero_grad();
        self.wo.zero_grad();
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.tape.clear_tracked(ctx);
        self.wqkv.reset_tape(ctx);
        self.wo.reset_tape(ctx);
    }
}
