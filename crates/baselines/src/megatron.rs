//! Megatron-LM 1-D tensor parallelism (paper §2.5, Figure 2).
//!
//! Activations are **replicated** on all `p` ranks; weights are split along
//! one dimension. An MLP/attention block pairs a column-parallel linear
//! (no forward communication, all-reduce of `dX` in backward — Megatron's
//! `f` operator) with a row-parallel linear (all-reduce of `Y` in forward,
//! no backward communication — the `g` operator), giving the paper's
//! per-layer communication `2·β·(p−1)·b·s·h/p` in each direction.
//!
//! Weight blocks are carved from the same seeded global Xavier matrices as
//! the serial reference and the Tesseract layers, so outputs are comparable
//! across schemes.
//!
//! Only what is 1-D specific lives here: the world, its linear and its
//! (rank-local) layer norm. [`MegatronWorld`] implements
//! [`tesseract_core::layers::World`], so the MLP, attention, layer and stack
//! are the shared `tesseract_core::layers` block instantiated over it.

use std::sync::Arc;

use tesseract_comm::{CommGroup, Mesh, MeshAxis, Payload, RankCtx};
use tesseract_tensor::TensorLike;

use tesseract_core::layers::{Half, Transformer, TransformerLayer, World};
use tesseract_core::module::{Module, ParamRef, Tape};
use tesseract_core::TransformerConfig;

/// How a weight is split across the 1-D group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// `W = [W₁ | W₂ | …]`: output features split; input replicated.
    Column,
    /// `W = [W₁; W₂; …]`: input features split; output all-reduced.
    Row,
}

/// One rank's handle on the 1-D tensor-parallel world.
pub struct MegatronWorld {
    pub group: CommGroup,
    pub p: usize,
    pub index: usize,
}

impl MegatronWorld {
    /// Builds the 1-D group over `ranks` (must include `ctx.rank`).
    pub fn new(ctx: &RankCtx, ranks: Vec<usize>) -> Self {
        let group = ctx.group("megatron.tp", ranks);
        Self { p: group.size(), index: group.my_index(), group }
    }

    /// The canonical 1-D layout as a named-axis mesh: `p` contiguous ranks
    /// from `base` on a single `"tp"` axis.
    pub fn tp_mesh(p: usize, base: usize) -> Mesh {
        Mesh::new(base, vec![MeshAxis::new("tp", p)])
    }

    /// Builds the world as the `"tp"` fiber of a 1-axis mesh (the whole
    /// mesh) — the mesh-layout counterpart of [`MegatronWorld::new`].
    pub fn from_mesh(ctx: &RankCtx, mesh: &Mesh) -> Self {
        let group = mesh.fiber_group(ctx, "megatron.tp", "tp");
        Self { p: group.size(), index: group.my_index(), group }
    }
}

impl<T: TensorLike + Payload> World<T> for MegatronWorld {
    type Linear = MegatronLinear<T>;
    type Norm = MegatronLayerNorm<T>;

    /// Column-parallel first, row-parallel second: the pair needs one
    /// all-reduce per direction and each rank's QKV columns are whole heads.
    fn linear(
        &self,
        _ctx: &RankCtx,
        half: Half,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> MegatronLinear<T> {
        let split = match half {
            Half::First => Split::Column,
            Half::Second => Split::Row,
        };
        MegatronLinear::new_fused(self, split, in_features, outs, with_bias, seed)
    }

    fn norm(&self, hidden: usize, eps: f32) -> MegatronLayerNorm<T> {
        MegatronLayerNorm::new(hidden, eps)
    }

    fn validate(&self, cfg: &TransformerConfig) {
        assert_eq!(cfg.heads % self.p, 0, "megatron needs p | heads");
    }

    /// Activations are replicated: every rank holds the whole batch.
    fn local_samples(&self, batch: usize) -> usize {
        batch
    }

    fn local_heads(&self, heads: usize) -> usize {
        heads / self.p
    }
}

/// The shared layer on the 1-D world: column-parallel `fc1` / fused QKV
/// (each rank owns `n/p` heads over the full batch), row-parallel `fc2` /
/// output projection.
pub type MegatronTransformerLayer<T> = TransformerLayer<T, MegatronWorld>;
pub type MegatronTransformer<T> = Transformer<T, MegatronWorld>;

/// A 1-D tensor-parallel linear layer.
pub struct MegatronLinear<T> {
    pub split: Split,
    pub in_features: usize,
    pub out_features: usize,
    w: T,
    dw: T,
    bias: Option<T>,
    dbias: Option<T>,
    tape: Tape<Arc<T>>,
}

impl<T: TensorLike + Payload> MegatronLinear<T> {
    pub fn new(
        world: &MegatronWorld,
        split: Split,
        in_features: usize,
        out_features: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        Self::new_fused(world, split, in_features, &[(out_features, param_id)], with_bias, seed)
    }

    /// Fused column-parallel projection over several independent global
    /// weights (used for QKV so each rank owns whole heads).
    pub fn new_fused(
        world: &MegatronWorld,
        split: Split,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> Self {
        let p = world.p;
        let r = world.index;
        let mut scratch = tesseract_tensor::Meter::new();
        let mut blocks = Vec::with_capacity(outs.len());
        for &(out_i, pid) in outs {
            match split {
                Split::Column => {
                    assert_eq!(out_i % p, 0, "column split needs p | out");
                    let w = out_i / p;
                    blocks.push(T::init_xavier_block(
                        in_features,
                        out_i,
                        0,
                        r * w,
                        in_features,
                        w,
                        seed,
                        pid,
                    ));
                }
                Split::Row => {
                    assert_eq!(in_features % p, 0, "row split needs p | in");
                    let h = in_features / p;
                    blocks.push(T::init_xavier_block(
                        in_features,
                        out_i,
                        r * h,
                        0,
                        h,
                        out_i,
                        seed,
                        pid,
                    ));
                }
            }
        }
        let w = T::concat_cols(&blocks, &mut scratch);
        let out_features: usize = outs.iter().map(|&(o, _)| o).sum();
        let bias_cols = match split {
            Split::Column => out_features / p,
            Split::Row => out_features,
        };
        let (bias, dbias) = if with_bias {
            (Some(T::zeros(1, bias_cols)), Some(T::zeros(1, bias_cols)))
        } else {
            (None, None)
        };
        Self {
            split,
            in_features,
            out_features,
            dw: T::zeros(w.rows(), w.cols()),
            w,
            bias,
            dbias,
            tape: Tape::new(),
        }
    }

    pub fn weight(&self) -> &T {
        &self.w
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronLinear<T> {
    /// Column-parallel: `Y_local = X·W_local (+ b_local)`, no communication.
    /// Row-parallel: `Y = all_reduce(X_local·W_local) (+ b)`.
    fn forward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        self.tape.push_tracked(ctx, x.byte_size() as u64, Arc::clone(x));
        let y = x.matmul(&self.w, &mut ctx.meter);
        let mut y = match self.split {
            // The freshly computed partial is consumed by the in-place
            // reduction; every rank receives the shared sum uncopied.
            Split::Row => world.group.all_reduce_shared(ctx, y),
            Split::Column => Arc::new(y),
        };
        if let Some(b) = &self.bias {
            y = Arc::new(y.add_rowvec(b, &mut ctx.meter));
        }
        y
    }

    /// Column-parallel: `dX = all_reduce(dY_local·W_localᵀ)`.
    /// Row-parallel: `dX_local = dY·W_localᵀ`, no communication (dY is
    /// replicated after the forward all-reduce).
    fn backward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let x = self.tape.pop_tracked(ctx, "MegatronLinear");
        if let Some(db) = self.dbias.as_mut() {
            let local = dy.col_sums(&mut ctx.meter);
            db.add_assign(&local, &mut ctx.meter);
        }
        let dw = x.matmul_tn(dy, &mut ctx.meter);
        self.dw.add_assign(&dw, &mut ctx.meter);
        let dx = dy.matmul_nt(&self.w, &mut ctx.meter);
        match self.split {
            Split::Column => world.group.all_reduce_shared(ctx, dx),
            Split::Row => Arc::new(dx),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        f(ParamRef { weight: &mut self.w, grad: &mut self.dw });
        if let (Some(b), Some(db)) = (self.bias.as_mut(), self.dbias.as_mut()) {
            f(ParamRef { weight: b, grad: db });
        }
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("MegatronLinear");
        self.dw = T::zeros(self.dw.rows(), self.dw.cols());
        if let Some(db) = self.dbias.as_mut() {
            *db = T::zeros(db.rows(), db.cols());
        }
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.tape.clear_tracked(ctx);
    }
}

/// Serial layer norm on the replicated activation (Megatron keeps layer
/// norms unsharded), built from TensorLike primitives so the shadow backend
/// can run it too.
pub struct MegatronLayerNorm<T> {
    pub eps: f32,
    hidden: usize,
    tape: Tape<(Arc<T>, T)>,
}

impl<T: TensorLike + Payload> MegatronLayerNorm<T> {
    pub fn new(hidden: usize, eps: f32) -> Self {
        Self { eps, hidden, tape: Tape::new() }
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronLayerNorm<T> {
    /// The norm is rank-local (activations are replicated), so the world is
    /// unused — it is only here to satisfy the `Module` signature.
    fn forward(&mut self, _world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let n = self.hidden as f32;
        assert_eq!(x.cols(), self.hidden);
        let s1 = x.row_sums(&mut ctx.meter);
        let s2 = x.row_sums_of_squares(&mut ctx.meter);
        let mean = s1.scale(1.0 / n, &mut ctx.meter);
        let mean_sq = mean.hadamard(&mean, &mut ctx.meter);
        let var = s2.scale(1.0 / n, &mut ctx.meter).sub(&mean_sq, &mut ctx.meter);
        let inv_std = var.rsqrt_add(self.eps, &mut ctx.meter);
        let xhat =
            Arc::new(x.sub_colvec(&mean, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter));
        let bytes = (xhat.byte_size() + inv_std.byte_size()) as u64;
        self.tape.push_tracked(ctx, bytes, (Arc::clone(&xhat), inv_std));
        xhat
    }

    fn backward(&mut self, _world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let (xhat, inv_std) = self.tape.pop_tracked(ctx, "MegatronLayerNorm");
        let n = self.hidden as f32;
        let t1 = xhat.hadamard(dy, &mut ctx.meter).row_sums(&mut ctx.meter);
        let t2 = dy.row_sums(&mut ctx.meter);
        let correction = xhat
            .mul_colvec(&t1, &mut ctx.meter)
            .add_colvec(&t2, &mut ctx.meter)
            .scale(1.0 / n, &mut ctx.meter);
        Arc::new(dy.sub(&correction, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter))
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("MegatronLayerNorm");
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.tape.clear_tracked(ctx);
    }
}
