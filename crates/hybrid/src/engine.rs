//! The combined dp × pp × Tesseract engine (paper §3.4, Figure 6).
//!
//! Each rank determines its (replica, stage, grid position) from
//! [`HybridShape`], builds its pipeline stage — a [`TesseractTransformer`]
//! of the stage's `layers / pp` layers — on its module's Tesseract grid,
//! and exposes a GPipe `train_step` that finishes with the data-parallel
//! gradient all-reduce.
//!
//! Every replica axis sums: the depth all-reduce inside the backward
//! (Algorithm 3), the microbatches' accumulation, and the `dp.grad`
//! all-reduce here. Each rank's gradient is its share of the gradient of
//! the one global loss, whose `1/global_batch` mean the loss gradient
//! already carries, so the sum over every replica is that gradient and
//! `[q,q,d]`, `dp=d × [q,q,1]` and `d` microbatches on `[q,q,1]` agree.

use std::sync::Arc;

use tesseract_comm::{CommGroup, RankCtx};
use tesseract_core::layers::{StackOptions, Transformer, PARAM_IDS_PER_LAYER};
use tesseract_core::{Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::TensorLike;

use crate::mapping::{HybridCoords, HybridShape};
use crate::pipeline::{gpipe_step_module, PipelineStage};

/// One rank's slice of a hybrid-parallel Transformer.
pub struct HybridTransformer<T: TensorLike> {
    pub shape: HybridShape,
    pub coords: HybridCoords,
    pub grid: TesseractGrid,
    pub stage: PipelineStage,
    /// The gradient all-reduce group: the ranks that hold this rank's
    /// shard in the other replicas.
    pub dp: CommGroup,
    /// This pipeline stage's contiguous slice of the layer stack. Layer
    /// `l` of the global stack keeps its global parameter ids, so the
    /// stages jointly hold exactly the weights of the monolithic model.
    pub model: TesseractTransformer<T>,
    /// Configuration of one microbatch (`cfg.batch` = microbatch size).
    pub cfg: TransformerConfig,
}

impl<T: TensorLike> HybridTransformer<T> {
    /// `cfg.layers` is the *total* stack depth (must divide by `shape.pp()`);
    /// `cfg.batch` is the per-microbatch batch size; every stage's stack is
    /// built with `opts`.
    pub fn new(
        ctx: &RankCtx,
        shape: HybridShape,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        opts: StackOptions,
    ) -> Self {
        shape
            .check_world(ctx.world)
            .unwrap_or_else(|e| panic!("world size must match hybrid shape: {e}"));
        let coords = shape.coords_of(ctx.rank);
        let base = shape.module_base(coords.dp_idx, coords.pp_idx);
        let grid = TesseractGrid::new(ctx, shape.grid(), base);

        let layers = shape
            .check_carve(cfg.layers)
            .unwrap_or_else(|e| panic!("pp must divide the layer count: {e}"));
        let cfg = TransformerConfig { layers, ..cfg };
        let first_param_id = (coords.pp_idx * layers) as u64 * PARAM_IDS_PER_LAYER;
        let model =
            Transformer::new_with_options(ctx, &grid, cfg, with_bias, seed, first_param_id, opts);

        let prev_peer = (coords.pp_idx > 0)
            .then(|| shape.module_base(coords.dp_idx, coords.pp_idx - 1) + coords.tess_offset);
        let next_peer = (coords.pp_idx + 1 < shape.pp())
            .then(|| shape.module_base(coords.dp_idx, coords.pp_idx + 1) + coords.tess_offset);
        let stage = PipelineStage::new(ctx, shape.pp(), coords.pp_idx, prev_peer, next_peer);

        let dp = ctx.group("dp.grad", shape.dp_group_ranks(coords.pp_idx, coords.tess_offset));

        Self { shape, coords, grid, stage, dp, model, cfg }
    }

    /// One GPipe training step over `microbatches` inputs, followed by the
    /// data-parallel gradient sync: each gradient summed over `dp`,
    /// unscaled (see the module doc). `inputs(m)` supplies microbatch `m`'s
    /// local activation block on the first stage; `loss_grad` converts the
    /// last stage's output into the initial gradient. Returns last-stage
    /// outputs (empty on other stages) and the clock at the end of the
    /// forward phase, as [`gpipe_step_module`] does.
    pub fn train_step(
        &mut self,
        ctx: &mut RankCtx,
        microbatches: usize,
        inputs: impl FnMut(usize) -> T,
        loss_grad: impl FnMut(&mut RankCtx, &T, usize) -> T,
    ) -> (Vec<Arc<T>>, f64) {
        let step = gpipe_step_module(
            &self.stage,
            &self.grid,
            ctx,
            &mut self.model,
            microbatches,
            inputs,
            loss_grad,
        );
        if self.shape.dp() > 1 {
            // SPMD: replicas visit their parameters in the same order, so the
            // all-reduces line up. Each gradient moves into the reduction (a
            // placeholder takes its slot) and the shared sum moves back out.
            let dp = &self.dp;
            self.model.visit_params(&mut |pr| {
                let g = std::mem::replace(pr.grad, T::zeros(1, 1));
                *pr.grad = Arc::unwrap_or_clone(dp.all_reduce_shared(ctx, g));
            });
        }
        step
    }
}
