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
//! Only what is 1-D specific lives here: the world and its linear.
//! [`MegatronWorld`] implements [`tesseract_core::layers::World`], so the
//! MLP, attention, layer norm, layer and stack are the shared
//! `tesseract_core::layers` block instantiated over it; the layer norm is
//! rank-local, since the world leaves a row's sums as they are.

use std::sync::Arc;

use tesseract_comm::{CommGroup, Mesh, MeshAxis, RankCtx};
use tesseract_tensor::TensorLike;

use tesseract_core::layers::{Parallel, Transformer, TransformerLayer, World};
use tesseract_core::module::{Module, ParamRef, Tape};
use tesseract_core::{ShapeError, TransformerConfig};

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

    /// Whether `cfg` splits over a `p`-rank 1-D group: `cfg` must pass its
    /// own rule ([`TransformerConfig::check`]: `n | h`), `p` must be
    /// positive, and `p` must divide the heads (each rank owns whole heads),
    /// so it divides the hidden size and the MLP hidden size too (the
    /// column / row splits of the two linears).
    pub fn check_degree(p: usize, cfg: &TransformerConfig) -> Result<(), ShapeError> {
        cfg.check()?;
        if p == 0 {
            return Err(ShapeError::NonPositive { what: "megatron p" });
        }
        if !cfg.heads.is_multiple_of(p) {
            return Err(ShapeError::Indivisible {
                what: "heads",
                value: cfg.heads,
                by: "p",
                divisor: p,
            });
        }
        Ok(())
    }
}

impl<T: TensorLike> World<T> for MegatronWorld {
    type Linear = MegatronLinear<T>;

    /// Column-parallel first, row-parallel second: the pair needs one
    /// all-reduce per direction and each rank's QKV columns are whole heads.
    fn linear(
        &self,
        split: Parallel,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> MegatronLinear<T> {
        MegatronLinear::new_fused(self, split, in_features, outs, with_bias, seed)
    }

    /// Activations are replicated: a rank's rows, and so their sums, are whole.
    fn complete_row_sums(&self, _ctx: &mut RankCtx, a: T, b: T) -> (T, T) {
        (a, b)
    }

    fn check(&self, cfg: &TransformerConfig) -> Result<(), ShapeError> {
        Self::check_degree(self.p, cfg)
    }

    /// Activations are replicated: every rank holds the whole batch.
    fn local_samples(&self, batch: usize) -> usize {
        batch
    }

    fn local_heads(&self, heads: usize) -> usize {
        heads / self.p
    }

    fn local_hidden(&self, hidden: usize) -> usize {
        hidden
    }
}

/// The shared layer on the 1-D world: column-parallel `fc1` / fused QKV
/// (each rank owns `n/p` heads over the full batch), row-parallel `fc2` /
/// output projection.
pub type MegatronTransformerLayer<T> = TransformerLayer<T, MegatronWorld>;
pub type MegatronTransformer<T> = Transformer<T, MegatronWorld>;

/// A 1-D tensor-parallel linear layer: [`Parallel::Column`] splits
/// `W = [W₁ | W₂ | …]` by output features (input replicated),
/// [`Parallel::Row`] splits `W = [W₁; W₂; …]` by input features (output
/// all-reduced).
pub struct MegatronLinear<T> {
    pub split: Parallel,
    pub in_features: usize,
    pub out_features: usize,
    w: T,
    dw: T,
    bias: Option<T>,
    dbias: Option<T>,
    tape: Tape<Arc<T>>,
}

impl<T: TensorLike> MegatronLinear<T> {
    pub fn new(
        world: &MegatronWorld,
        split: Parallel,
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
        split: Parallel,
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
                Parallel::Column => {
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
                Parallel::Row => {
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
            Parallel::Column => out_features / p,
            Parallel::Row => out_features,
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

impl<T: TensorLike> Module<T, MegatronWorld> for MegatronLinear<T> {
    /// Column-parallel: `Y_local = X·W_local (+ b_local)`, no communication.
    /// Row-parallel: `Y = all_reduce(X_local·W_local) (+ b)`.
    fn forward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        self.tape.push_tracked(ctx, x.byte_size() as u64, Arc::clone(x));
        let y = x.matmul(&self.w, &mut ctx.meter);
        let mut y = match self.split {
            // The freshly computed partial is consumed by the in-place
            // reduction; every rank receives the shared sum uncopied.
            Parallel::Row => world.group.all_reduce_shared(ctx, y),
            Parallel::Column => Arc::new(y),
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
            Parallel::Column => world.group.all_reduce_shared(ctx, dx),
            Parallel::Row => Arc::new(dx),
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
