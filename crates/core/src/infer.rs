//! Forward-only inference on the `[q, q, d]` grid: per-request KV caches
//! and a no-tape model stack for serving.
//!
//! Serving never backpropagates, so the training `Module::forward` path —
//! which tapes every activation for the matching backward — is the wrong
//! tool: each decode step would grow every layer's tape forever. This
//! module provides the `forward_infer` counterpart: `&self`, no tape
//! pushes, and **causal KV-cached attention** so a decode step costs O(L)
//! per token instead of the O(L²) full-prefix recompute.
//!
//! ## KV-cache sharding
//!
//! The cache follows the activation layout exactly. A request lives on one
//! `(i, k)` **lane** (the `q·d` row-block owners of Figure 4a); within
//! that lane, rank `(i, j, k)` computes — and therefore caches — the K/V
//! of *its own* `n/q` heads, the same columns its fused QKV slice
//! produces. Nothing is replicated: a request's cache is sharded across
//! the `q` ranks of its row fiber and absent everywhere else, and the
//! per-rank footprint (`2 · L · n/q · d̄ · 4` bytes per layer) is what
//! [`RequestKv::bytes`] reports and the serving engine feeds into
//! `Meter::note_kv_cache_bytes`.
//!
//! ## Bitwise parity with recompute
//!
//! Cached decode is bitwise identical to recomputing the full prefix
//! through the same causal path: every op involved is per-row
//! deterministic (serial-GEMM rows are independent dot products over a
//! fixed accumulation order, layer norm / masked softmax / GELU are
//! per-row), and the SUMMA stages fold partial products in the same `l`
//! order regardless of how many rows the local block carries. The parity
//! tests in `crates/serve` pin this property per token.

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_tensor::TensorLike;

use crate::config::TransformerConfig;
use crate::grid::TesseractGrid;
use crate::layers::transformer::{TesseractTransformerLayer, PARAM_IDS_PER_LAYER};

/// Bytes per cached element (the stack is f32 end to end).
const ELEM_BYTES: u64 = 4;

/// One locally-owned head's K/V blocks for one layer of one request:
/// `[seq_len, head_dim]` each, grown by row-append every step.
pub struct HeadKv<T> {
    pub k: T,
    pub v: T,
}

/// One attention layer's KV cache for one request: one [`HeadKv`] per
/// locally-owned head (`n/q` of them on every rank of the request's lane).
pub struct LayerKv<T> {
    pub heads: Vec<HeadKv<T>>,
}

impl<T: TensorLike> LayerKv<T> {
    /// An empty cache for `local_heads` heads of width `head_dim`.
    pub fn empty(local_heads: usize, head_dim: usize) -> Self {
        let heads = (0..local_heads)
            .map(|_| HeadKv { k: T::zeros(0, head_dim), v: T::zeros(0, head_dim) })
            .collect();
        Self { heads }
    }

    /// Cached sequence length (identical across heads by construction).
    pub fn seq_len(&self) -> usize {
        self.heads.first().map_or(0, |h| h.k.rows())
    }

    /// Resident bytes of this layer's cache on this rank.
    pub fn bytes(&self) -> u64 {
        self.heads.iter().map(|h| (h.k.elem_count() + h.v.elem_count()) as u64 * ELEM_BYTES).sum()
    }
}

/// Full per-request KV cache on this rank: one [`LayerKv`] per
/// transformer layer.
pub struct RequestKv<T> {
    pub layers: Vec<LayerKv<T>>,
}

impl<T: TensorLike> RequestKv<T> {
    /// An empty cache for a `layers`-deep stack.
    pub fn empty(layers: usize, local_heads: usize, head_dim: usize) -> Self {
        Self { layers: (0..layers).map(|_| LayerKv::empty(local_heads, head_dim)).collect() }
    }

    /// Tokens cached so far (prompt + generated).
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, |l| l.seq_len())
    }

    /// Total resident bytes of this request's cache on this rank.
    pub fn bytes(&self) -> u64 {
        self.layers.iter().map(LayerKv::bytes).sum()
    }
}

/// One inference step's worth of batched requests on this rank's lane.
///
/// `new_rows[r]` new tokens for request `r` (whole prompt during prefill,
/// one during decode), with `kvs[r]` its cache — typically `mem::take`n
/// out of the scheduler's slots for the step and returned afterwards. The
/// step input `x` is the row-concatenation of the segments in the same
/// order.
pub struct InferBatch<T> {
    pub new_rows: Vec<usize>,
    pub kvs: Vec<RequestKv<T>>,
}

impl<T: TensorLike> InferBatch<T> {
    /// An empty batch (lanes with nothing runnable still step the model so
    /// collectives stay in lockstep).
    pub fn empty() -> Self {
        Self { new_rows: Vec::new(), kvs: Vec::new() }
    }

    /// Total new tokens across segments — the row count `x` must have.
    pub fn total_rows(&self) -> usize {
        self.new_rows.iter().sum()
    }
}

/// A forward-only transformer stack for serving: the same layers, weights
/// (same seed / parameter ids) and collectives as
/// [`crate::TesseractTransformer`], but held as a typed `Vec` so each
/// layer can thread its slice of the per-request KV caches.
pub struct InferModel<T: TensorLike + Payload> {
    pub layers: Vec<TesseractTransformerLayer<T>>,
    pub cfg: TransformerConfig,
}

impl<T: TensorLike + Payload> InferModel<T> {
    /// Builds the stack; layer `l` uses param ids
    /// `base_param_id + l·PARAM_IDS_PER_LAYER ..`, matching
    /// `TesseractTransformer::new` bit for bit.
    pub fn new(
        ctx: &RankCtx,
        grid: &TesseractGrid,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        base_param_id: u64,
    ) -> Self {
        let layers = (0..cfg.layers)
            .map(|l| {
                TesseractTransformerLayer::new(
                    ctx,
                    grid,
                    cfg,
                    with_bias,
                    seed,
                    base_param_id + l as u64 * PARAM_IDS_PER_LAYER,
                )
            })
            .collect();
        Self { layers, cfg }
    }

    /// An empty KV cache shaped for this model on this grid.
    pub fn new_kv(&self, grid: &TesseractGrid) -> RequestKv<T> {
        RequestKv::empty(self.cfg.layers, self.cfg.heads / grid.shape.q, self.cfg.head_dim())
    }

    /// One inference step over the batch: `x` is `[batch.total_rows(),
    /// h/q]`, the output has the same shape, and every request's cache in
    /// `batch.kvs` has grown by its `new_rows`. No tape is touched.
    pub fn forward_infer(
        &self,
        grid: &TesseractGrid,
        ctx: &mut RankCtx,
        x: &Arc<T>,
        batch: &mut InferBatch<T>,
    ) -> Arc<T> {
        assert_eq!(x.rows(), batch.total_rows(), "batch rows mismatch");
        let mut h = Arc::clone(x);
        for (li, layer) in self.layers.iter().enumerate() {
            h = ctx.traced("transformer_layer", "infer", |ctx| {
                layer.forward_infer(grid, ctx, &h, li, batch)
            });
        }
        h
    }

    /// Activations queued across every tape in the stack — zero unless
    /// someone ran the training forward.
    pub fn tape_depth(&self) -> usize {
        self.layers.iter().map(TesseractTransformerLayer::tape_depth).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_tensor::DenseTensor;

    #[test]
    fn empty_kv_reports_zero_everything() {
        let kv: RequestKv<DenseTensor> = RequestKv::empty(3, 2, 8);
        assert_eq!(kv.layers.len(), 3);
        assert_eq!(kv.seq_len(), 0);
        assert_eq!(kv.bytes(), 0);
    }

    #[test]
    fn kv_bytes_count_k_and_v_across_heads_and_layers() {
        let mut kv: RequestKv<DenseTensor> = RequestKv::empty(2, 2, 4);
        for layer in &mut kv.layers {
            for h in &mut layer.heads {
                h.k = DenseTensor::zeros(5, 4);
                h.v = DenseTensor::zeros(5, 4);
            }
        }
        assert_eq!(kv.seq_len(), 5);
        // 2 layers × 2 heads × 2 (K and V) × 5×4 elems × 4 bytes.
        assert_eq!(kv.bytes(), 2 * 2 * 2 * 5 * 4 * 4);
    }

    #[test]
    fn empty_batch_has_no_rows() {
        let b: InferBatch<DenseTensor> = InferBatch::empty();
        assert_eq!(b.total_rows(), 0);
    }
}
