//! Forward-only inference on the `[q, q, d]` grid: per-request KV caches
//! and the batch a serving step runs.
//!
//! Serving never backpropagates, so the training `Module::forward` path —
//! which tapes every activation for the matching backward — is the wrong
//! tool: each decode step would grow every layer's tape forever. The
//! training stack itself carries the counterpart,
//! [`TesseractTransformer::forward_infer_rows`]: `&self`, no tape pushes, and
//! **causal KV-cached attention** so a decode step costs O(L) per token
//! instead of the O(L²) full-prefix recompute.
//!
//! ## KV-cache sharding
//!
//! The cache follows the attention heads' layout. A request lives on one
//! `(i, k)` **lane** (the `q·d` row-block owners of Figure 4a); within
//! that lane, rank `(i, j, k)` computes — and therefore caches — the K/V
//! of *its own* `n/q` heads, the same columns its fused QKV slice
//! produces. Nothing is replicated: a request's cache is sharded across
//! the `q` ranks of its row fiber and absent everywhere else, and the
//! per-rank footprint (`2 · L · n/q · d̄ · 4` bytes per layer) is what
//! [`RequestKv::bytes`] reports and the serving engine feeds into
//! [`RankCtx::note_kv_cache_bytes`](tesseract_comm::RankCtx::note_kv_cache_bytes).
//!
//! ## Bitwise parity with recompute
//!
//! Cached decode is bitwise identical to recomputing the full prefix
//! through the same causal path: every op involved is per-row
//! deterministic (serial-GEMM rows are independent dot products over a
//! fixed accumulation order, layer norm / masked softmax / GELU are
//! per-row), and each layer folds the members' gathered terms in the same
//! member order regardless of how many rows the step carries. The parity
//! tests in `crates/serve` pin this property per token.

use tesseract_tensor::TensorLike;

use crate::layers::transformer::TesseractTransformer;

/// One attention layer's KV cache for one request on this rank: K and V
/// of its `n/q` locally-owned heads, `[seq_len, h/q]` each — the column
/// layout of the fused QKV slice — grown in place every step
/// ([`TensorLike::append_rows`]).
pub struct LayerKv<T> {
    pub k: T,
    pub v: T,
}

impl<T: TensorLike> LayerKv<T> {
    /// An empty cache `width` (`h/q`) columns wide.
    pub fn empty(width: usize) -> Self {
        Self { k: T::zeros(0, width), v: T::zeros(0, width) }
    }

    /// Cached sequence length.
    pub fn seq_len(&self) -> usize {
        self.k.rows()
    }

    /// Resident bytes of this layer's cache on this rank.
    pub fn bytes(&self) -> u64 {
        (self.k.byte_size() + self.v.byte_size()) as u64
    }
}

/// Full per-request KV cache on this rank: one [`LayerKv`] per
/// transformer layer.
pub struct RequestKv<T> {
    pub layers: Vec<LayerKv<T>>,
}

impl<T: TensorLike> RequestKv<T> {
    /// An empty cache for a `layers`-deep stack, `width` (`h/q`) columns wide.
    pub fn empty(layers: usize, width: usize) -> Self {
        Self { layers: (0..layers).map(|_| LayerKv::empty(width)).collect() }
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
    /// Total new tokens across segments — the row count `x` must have.
    pub fn total_rows(&self) -> usize {
        self.new_rows.iter().sum()
    }
}

/// The serving stack is the training stack: [`TesseractTransformer`]'s
/// `new_kv` / `forward_infer` run the same layers and weights without
/// touching a tape, its linears weight-stationary (two lane all-gathers
/// per layer once each rank has fetched its weight panels). Kept solely
/// because the frozen `benchmark/` crate still names it; ROADMAP item
/// 1(d)'s `[benchmark]` PR removes that caller and this alias with it.
pub type InferModel<T> = TesseractTransformer<T>;

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_tensor::DenseTensor;

    #[test]
    fn empty_kv_reports_zero_everything() {
        let kv: RequestKv<DenseTensor> = RequestKv::empty(3, 16);
        assert_eq!(kv.layers.len(), 3);
        assert_eq!(kv.seq_len(), 0);
        assert_eq!(kv.bytes(), 0);
    }

    #[test]
    fn kv_bytes_count_k_and_v_across_layers() {
        let mut kv: RequestKv<DenseTensor> = RequestKv::empty(2, 8);
        for layer in &mut kv.layers {
            layer.k = DenseTensor::zeros(5, 8);
            layer.v = DenseTensor::zeros(5, 8);
        }
        assert_eq!(kv.seq_len(), 5);
        // 2 layers × 2 (K and V) × 5×8 elems × 4 bytes.
        assert_eq!(kv.bytes(), 2 * 2 * 5 * 8 * 4);
    }
}
