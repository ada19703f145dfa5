//! A full Transformer layer and stack (paper §3.2), written once for every
//! [`World`]: pre-norm residual blocks `x + Attn(LN(x))` and
//! `x + MLP(LN(x))`, the architecture Megatron-LM adapted ("the whole model
//! consists of multiple identical Transformer layers"). Residual adds are
//! local (§3.2.2).

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_tensor::TensorLike;

use crate::config::TransformerConfig;
use crate::grid::TesseractGrid;
use crate::infer::{InferBatch, LayerKv};
use crate::layers::attention::Attention;
use crate::layers::mlp::Mlp;
use crate::layers::world::World;
use crate::module::{CheckpointSegment, Module, ParamRef, Sequential};

/// Execution options of a [`Transformer`] stack (tape
/// recomputation); the default is the original no-recompute behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackOptions {
    /// Checkpoint every `k` layers: forward keeps only segment inputs,
    /// backward replays each segment before unwinding it. `None` disables
    /// recomputation. `k` need not divide the layer count — the last
    /// segment is simply shorter.
    pub recompute_every: Option<usize>,
}

/// Number of parameter ids one Transformer layer consumes (Wq, Wk, Wv, Wo,
/// fc1, fc2).
pub const PARAM_IDS_PER_LAYER: u64 = 6;

/// One Transformer layer.
pub struct TransformerLayer<T: TensorLike + Payload, G: World<T>> {
    pub ln1: G::Norm,
    pub attn: Attention<T, G>,
    pub ln2: G::Norm,
    pub mlp: Mlp<T, G>,
}

/// [`TransformerLayer`] on the `[q, q, d]` grid.
pub type TesseractTransformerLayer<T> = TransformerLayer<T, TesseractGrid>;

impl<T: TensorLike + Payload, G: World<T>> TransformerLayer<T, G> {
    pub fn new(
        ctx: &RankCtx,
        world: &G,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        world.validate(&cfg);
        let (h, mlp_h) = (cfg.hidden, cfg.mlp_hidden());
        Self {
            ln1: world.norm(h, cfg.eps),
            attn: Attention::new(ctx, world, cfg, with_bias, seed, param_id),
            ln2: world.norm(h, cfg.eps),
            mlp: Mlp::new(ctx, world, h, mlp_h, with_bias, seed, param_id + 4),
        }
    }
}

impl<T: TensorLike + Payload> TesseractTransformerLayer<T> {
    /// Inference forward with KV-cached causal attention: the same
    /// pre-norm residual wiring as [`Module::forward`], no tape pushes.
    /// `layer_idx` selects this layer's [`LayerKv`] slice out of each
    /// request's cache in `batch`.
    pub fn forward_infer(
        &self,
        grid: &TesseractGrid,
        ctx: &mut RankCtx,
        x: &Arc<T>,
        layer_idx: usize,
        batch: &mut InferBatch<T>,
    ) -> Arc<T> {
        let a = self.ln1.forward_infer(grid, ctx, x);
        let kvs: Vec<&mut LayerKv<T>> =
            batch.kvs.iter_mut().map(|rk| &mut rk.layers[layer_idx]).collect();
        let b = self.attn.forward_infer(grid, ctx, &a, &batch.new_rows, kvs);
        let x1 = Arc::new(x.add(&b, &mut ctx.meter));
        let c = self.ln2.forward_infer(grid, ctx, &x1);
        let d = self.mlp.forward_infer(grid, ctx, &c);
        Arc::new(x1.add(&d, &mut ctx.meter))
    }

    /// Activations currently queued across this layer's tapes.
    pub fn tape_depth(&self) -> usize {
        self.ln1.tape_depth()
            + self.attn.tape_depth()
            + self.ln2.tape_depth()
            + self.mlp.tape_depth()
    }
}

impl<T: TensorLike + Payload, G: World<T>> Module<T, G> for TransformerLayer<T, G> {
    fn name(&self) -> &'static str {
        "transformer_layer"
    }

    /// Forward over the local activation block.
    fn forward(&mut self, world: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let a = self.ln1.forward(world, ctx, x);
        let b = self.attn.forward(world, ctx, &a);
        let x1 = Arc::new(x.add(&b, &mut ctx.meter));
        let c = self.ln2.forward(world, ctx, &x1);
        let d = self.mlp.forward(world, ctx, &c);
        Arc::new(x1.add(&d, &mut ctx.meter))
    }

    /// Backward; returns `dX`.
    fn backward(&mut self, world: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        // y = x1 + mlp(ln2(x1)), so dy flows both directly and through mlp.
        let d_mlp_in = self.mlp.backward(world, ctx, dy);
        let d_x1_from_ln2 = self.ln2.backward(world, ctx, &d_mlp_in);
        let d_x1 = Arc::new(dy.add(&d_x1_from_ln2, &mut ctx.meter));
        // x1 = x + attn(ln1(x)).
        let d_attn_in = self.attn.backward(world, ctx, &d_x1);
        let d_x_from_ln1 = self.ln1.backward(world, ctx, &d_attn_in);
        Arc::new(d_x1.add(&d_x_from_ln1, &mut ctx.meter))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.attn.visit_params(f);
        self.mlp.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.ln1.zero_grad();
        self.attn.zero_grad();
        self.ln2.zero_grad();
        self.mlp.zero_grad();
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.ln1.reset_tape(ctx);
        self.attn.reset_tape(ctx);
        self.ln2.reset_tape(ctx);
        self.mlp.reset_tape(ctx);
    }
}

/// A stack of `cfg.layers` identical Transformer layers, composed as a
/// [`Sequential`] of [`TransformerLayer`] modules (each possibly wrapped in
/// a [`CheckpointSegment`] when recomputation is on).
pub struct Transformer<T, G> {
    pub layers: Sequential<T, G>,
    pub cfg: TransformerConfig,
}

/// [`Transformer`] on the `[q, q, d]` grid; with `d = 1` this is Optimus.
pub type TesseractTransformer<T> = Transformer<T, TesseractGrid>;

impl<T: TensorLike + Payload, G: World<T>> Transformer<T, G> {
    /// Builds the stack; layer `l` uses param ids
    /// `base_param_id + l·PARAM_IDS_PER_LAYER ..`.
    pub fn new(
        ctx: &RankCtx,
        world: &G,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        base_param_id: u64,
    ) -> Self {
        let opts = StackOptions::default();
        Self::new_with_options(ctx, world, cfg, with_bias, seed, base_param_id, opts)
    }

    /// [`Transformer::new`] with explicit [`StackOptions`].
    /// Parameter ids are assigned identically in every mode, so stacks
    /// built with different options hold bitwise-identical weights.
    pub fn new_with_options(
        ctx: &RankCtx,
        world: &G,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        base_param_id: u64,
        opts: StackOptions,
    ) -> Self {
        if let Some(k) = opts.recompute_every {
            assert!(k >= 1, "recompute_every must be at least 1");
        }
        let make_layer = |l: usize| {
            let param_id = base_param_id + l as u64 * PARAM_IDS_PER_LAYER;
            TransformerLayer::new(ctx, world, cfg, with_bias, seed, param_id)
        };
        let mut layers = Sequential::new();
        match opts.recompute_every {
            None => {
                for l in 0..cfg.layers {
                    layers.push_boxed(Box::new(make_layer(l)));
                }
            }
            Some(k) => {
                // Checkpoint every k layers; k need not divide the layer
                // count — the trailing segment is shorter.
                let mut l = 0;
                while l < cfg.layers {
                    let mut seg = Sequential::new();
                    for sl in l..cfg.layers.min(l + k) {
                        seg.push_boxed(Box::new(make_layer(sl)));
                    }
                    layers.push_boxed(Box::new(CheckpointSegment::new(seg)));
                    l += k;
                }
            }
        }
        Self { layers, cfg }
    }
}

impl<T: TensorLike + Payload, G> Module<T, G> for Transformer<T, G> {
    fn name(&self) -> &'static str {
        "transformer"
    }

    fn forward(&mut self, world: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        self.layers.forward(world, ctx, x)
    }

    fn backward(&mut self, world: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        self.layers.backward(world, ctx, dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.layers.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.layers.zero_grad();
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.layers.reset_tape(ctx);
    }
}
