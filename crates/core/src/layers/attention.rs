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

use tesseract_comm::{Payload, RankCtx};
use tesseract_tensor::TensorLike;

use crate::config::TransformerConfig;
use crate::grid::TesseractGrid;
use crate::infer::LayerKv;
use crate::layers::world::{Half, World};
use crate::module::{Module, ParamRef, Tape};

struct HeadCache<T> {
    q: T,
    k: T,
    v: T,
    attn: T,
}

/// Multi-head self-attention.
pub struct Attention<T: TensorLike + Payload, G: World<T>> {
    pub wqkv: G::Linear,
    pub wo: G::Linear,
    cfg: TransformerConfig,
    /// Tape of per-microbatch head caches (see [`Tape`] on pipelining).
    tape: Tape<Vec<HeadCache<T>>>,
}

/// [`Attention`] on the `[q, q, d]` grid.
pub type TesseractAttention<T> = Attention<T, TesseractGrid>;

impl<T: TensorLike + Payload, G: World<T>> Attention<T, G> {
    /// Builds the layer; consumes param ids `param_id .. param_id + 4`
    /// (Wq, Wk, Wv, Wo).
    pub fn new(
        ctx: &RankCtx,
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
        let wqkv = world.linear(ctx, Half::First, h, &qkv, with_bias, seed);
        let wo = world.linear(ctx, Half::Second, h, &[(h, param_id + 3)], with_bias, seed);
        Self { wqkv, wo, cfg, tape: Tape::new() }
    }
}

impl<T: TensorLike + Payload> TesseractAttention<T> {
    /// KV-cached **causal** inference forward over a batch of request
    /// segments (no tape, `&self`).
    ///
    /// `x` is the row-concatenation of each request's *new* tokens
    /// (`new_rows[r]` rows for request `r`: the whole prompt during
    /// prefill, one row per decode step). For each request and each
    /// locally-owned head, the new K/V rows are appended to that request's
    /// [`LayerKv`] and attention runs over the full cached prefix with a
    /// causal mask (`softmax_rows_masked_inplace`): new token `t` attends
    /// `cached + t + 1` positions. A decode step is therefore O(L) per
    /// token instead of the O(L²) full-prefix recompute — and, because
    /// every op involved is per-row deterministic (serial-GEMM dot
    /// products, masked row softmax), bitwise identical to it.
    ///
    /// SPMD contract: ranks sharing an `(i, k)` lane see the same
    /// segments; ranks on other lanes may pass different (even empty)
    /// batches — the collective sequence (QKV matmul, output projection)
    /// is independent of the segment list.
    pub fn forward_infer(
        &self,
        grid: &TesseractGrid,
        ctx: &mut RankCtx,
        x: &Arc<T>,
        new_rows: &[usize],
        mut kvs: Vec<&mut LayerKv<T>>,
    ) -> Arc<T> {
        let hd = self.cfg.head_dim();
        let heads = self.cfg.heads / grid.shape.q;
        let local_h = x.cols();
        assert_eq!(local_h * grid.shape.q, self.cfg.hidden, "attention input width mismatch");
        assert_eq!(new_rows.len(), kvs.len(), "one KV cache per request segment");
        let total: usize = new_rows.iter().sum();
        assert_eq!(x.rows(), total, "attention input rows mismatch");

        let qkv = self.wqkv.forward_infer(grid, ctx, x);
        let q_all = qkv.slice_cols(0, local_h, &mut ctx.meter);
        let k_all = qkv.slice_cols(local_h, 2 * local_h, &mut ctx.meter);
        let v_all = qkv.slice_cols(2 * local_h, 3 * local_h, &mut ctx.meter);

        let scale = 1.0 / (hd as f32).sqrt();
        let mut seg_outs = Vec::with_capacity(kvs.len());
        let mut r0 = 0;
        for (ri, kv) in kvs.iter_mut().enumerate() {
            let t_new = new_rows[ri];
            assert!(t_new >= 1, "request segment must carry at least one new token");
            assert_eq!(kv.heads.len(), heads, "KV cache head count mismatch");
            let r1 = r0 + t_new;
            let qs = q_all.slice_rows(r0, r1, &mut ctx.meter);
            let ks = k_all.slice_rows(r0, r1, &mut ctx.meter);
            let vs = v_all.slice_rows(r0, r1, &mut ctx.meter);
            let cached = kv.seq_len();
            let limits: Vec<usize> = (0..t_new).map(|t| cached + t + 1).collect();
            let mut head_outs = Vec::with_capacity(heads);
            for hi in 0..heads {
                let (c0, c1) = (hi * hd, (hi + 1) * hd);
                let qh = qs.slice_cols(c0, c1, &mut ctx.meter);
                let kh = ks.slice_cols(c0, c1, &mut ctx.meter);
                let vh = vs.slice_cols(c0, c1, &mut ctx.meter);
                let slot = &mut kv.heads[hi];
                // Append the new K/V rows to the cache (metered as data
                // movement, like every concat), then attend over the full
                // prefix.
                let k_prev = std::mem::replace(&mut slot.k, T::zeros(0, hd));
                let v_prev = std::mem::replace(&mut slot.v, T::zeros(0, hd));
                let k_full = T::concat_rows(&[k_prev, kh], &mut ctx.meter);
                let v_full = T::concat_rows(&[v_prev, vh], &mut ctx.meter);
                let mut scores = qh.matmul_nt(&k_full, &mut ctx.meter).scale(scale, &mut ctx.meter);
                scores.softmax_rows_masked_inplace(&limits, &mut ctx.meter);
                let out = scores.matmul(&v_full, &mut ctx.meter);
                slot.k = k_full;
                slot.v = v_full;
                head_outs.push(out);
            }
            seg_outs.push(T::concat_cols(&head_outs, &mut ctx.meter));
            r0 = r1;
        }
        let merged = if seg_outs.is_empty() {
            // Empty lane this step: still a [0, h/q] block so the output
            // projection's collectives run in lockstep with busy lanes.
            Arc::new(T::zeros(0, local_h))
        } else {
            Arc::new(T::concat_rows(&seg_outs, &mut ctx.meter))
        };
        self.wo.forward_infer(grid, ctx, &merged)
    }

    /// Activations currently queued across this block's tapes.
    pub fn tape_depth(&self) -> usize {
        self.tape.depth() + self.wqkv.tape_depth() + self.wo.tape_depth()
    }
}

impl<T: TensorLike + Payload, G: World<T>> Module<T, G> for Attention<T, G> {
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
