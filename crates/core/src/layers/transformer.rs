//! A full Transformer layer and stack (paper §3.2), written once for every
//! [`World`]: pre-norm residual blocks `x + Attn(LN(x))` and
//! `x + MLP(LN(x))`, the architecture Megatron-LM adapted ("the whole model
//! consists of multiple identical Transformer layers"). Residual adds are
//! local (§3.2.2). [`Transformer`] is the only builder of the layer list:
//! training, checkpointed recomputation, pipeline stages and serving all
//! run it.

use std::borrow::Cow;
use std::sync::Arc;

use tesseract_comm::RankCtx;
use tesseract_tensor::{fused, Meter, TensorLike};

use crate::config::TransformerConfig;
use crate::grid::TesseractGrid;
use crate::infer::{InferBatch, LayerKv, RequestKv};
use crate::layers::attention::{norm_attention, Attention};
use crate::layers::layernorm::{layer_norm_rows, LayerNorm};
use crate::layers::linear::{Parallel, Stationary, TesseractLinear};
use crate::layers::mlp::Mlp;
use crate::layers::world::World;
use crate::mm::{fold_terms, lane_sum, row_panels};
use crate::module::{Module, ParamRef, Tape};

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
pub struct TransformerLayer<T: TensorLike, G: World<T>> {
    pub ln1: LayerNorm<T>,
    pub attn: Attention<T, G>,
    pub ln2: LayerNorm<T>,
    pub mlp: Mlp<T, G>,
}

/// [`TransformerLayer`] on the `[q, q, d]` grid.
pub type TesseractTransformerLayer<T> = TransformerLayer<T, TesseractGrid>;

impl<T: TensorLike, G: World<T>> TransformerLayer<T, G> {
    pub fn new(
        world: &G,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        let (h, mlp_h) = (cfg.hidden, cfg.mlp_hidden());
        Self {
            ln1: LayerNorm::new(h, cfg.eps),
            attn: Attention::new(world, cfg, with_bias, seed, param_id),
            ln2: LayerNorm::new(h, cfg.eps),
            mlp: Mlp::new(world, h, mlp_h, with_bias, seed, param_id + 4),
        }
    }
}

impl<T: TensorLike> TesseractTransformerLayer<T> {
    /// Inference forward with KV-cached causal attention: the same
    /// pre-norm residual wiring as [`Module::forward`], no tape pushes, on
    /// the weights [`TesseractTransformer::fetch_stationary`] fetched. Two
    /// stretches, each one fused launch ending in one lane all-gather of
    /// the row-parallel terms: the pending fold and residual add,
    /// [`norm_attention`] and `wo`'s term; then the fold and residual add,
    /// [`norm_mlp_up`] and `fc2`'s.
    /// `layer_idx` selects this layer's [`LayerKv`] slice out of each
    /// request's cache in `batch`.
    pub fn forward_infer(
        &self,
        grid: &TesseractGrid,
        ctx: &mut RankCtx,
        x: &Stream<T>,
        layer_idx: usize,
        batch: &mut InferBatch<T>,
    ) -> Stream<T> {
        let mut kvs: Vec<&mut LayerKv<T>> =
            batch.kvs.iter_mut().map(|rk| &mut rk.layers[layer_idx]).collect();
        let (attn, mlp) = (&self.attn, &self.mlp);
        let x1 = stretch(grid, ctx, x, "ln1_attention_wo", attn.wo.stationary(), |x, m| {
            let (wqkv, hd) = (attn.wqkv.stationary(), attn.cfg.head_dim());
            norm_attention(x, self.ln1.eps, wqkv, &batch.new_rows, &mut kvs, hd, m)
        });
        stretch(grid, ctx, &x1, "ln2_mlp_fc2", mlp.fc2.stationary(), |x, m| {
            norm_mlp_up(x, self.ln2.eps, mlp.fc1.stationary(), m)
        })
    }
}

/// A serving step's residual stream between stretches: full rows `[rows,
/// h]`, equal on every rank of the lane. It is `base`, plus, on its first
/// `pending` rows, the lane's terms of the row-parallel projection that
/// ended the last stretch (in member order) and that projection's bias,
/// not yet added: the next launch folds the terms and adds them at its
/// head, as training's `x + (X·W + b)`. A step returns its last stretch's
/// stream, every row pending; the engine carries a continuing request's
/// row ([`Stream::slice_rows`]) into the next step, whose first launch
/// folds it ([`Stream::concat_rows`]). [`Stream::into_rows`] folds in a
/// launch of its own, for a caller that reads the rows.
pub struct Stream<T> {
    base: Arc<T>,
    /// The lane's terms `[pending, h]`, in member order; empty when
    /// nothing is pending.
    terms: Vec<Arc<T>>,
    bias: Option<Arc<T>>,
}

impl<T: TensorLike> Stream<T> {
    /// Rows with nothing pending.
    pub fn new(rows: Arc<T>) -> Self {
        Self { base: rows, terms: Vec::new(), bias: None }
    }

    /// The stream's row count.
    pub fn rows(&self) -> usize {
        self.base.rows()
    }

    /// Leading rows that carry pending terms.
    fn pending(&self) -> usize {
        self.terms.first().map_or(0, |t| t.rows())
    }

    /// The parts the next fold adds: the base rows, the lane's terms in
    /// member order (over the first `pending` rows; none when nothing is
    /// pending) and the bias.
    pub fn parts(&self) -> (&Arc<T>, &[Arc<T>], Option<&Arc<T>>) {
        (&self.base, &self.terms, self.bias.as_ref())
    }

    /// Rows `r0..r1`, with the pending parts that fall inside them.
    /// Zero-flop data movement, no launch.
    pub fn slice_rows(&self, r0: usize, r1: usize, m: &mut Meter) -> Self {
        let (p0, p1) = (r0.min(self.pending()), r1.min(self.pending()));
        let base = Arc::new(self.base.slice_rows(r0, r1, m));
        if p0 == p1 {
            return Self::new(base);
        }
        let terms = self.terms.iter().map(|t| Arc::new(t.slice_rows(p0, p1, m))).collect();
        Self { base, terms, bias: self.bias.clone() }
    }

    /// `parts` stacked by rows, the pending ones first (carried rows ahead
    /// of fresh prompts): the pending parts' terms and their one bias stay
    /// pending, so the next launch folds them at its head, and every row it
    /// reads is the row [`Stream::into_rows`] would have given. Zero-flop
    /// data movement, no launch.
    pub fn concat_rows(parts: Vec<Self>, m: &mut Meter) -> Self {
        let held = parts.iter().take_while(|p| !p.terms.is_empty()).count();
        let (lanes, bias) = parts.first().map_or((0, None), |p| (p.terms.len(), p.bias.clone()));
        let same_bias =
            |p: &Self| p.bias.as_ref().map(Arc::as_ptr) == bias.as_ref().map(Arc::as_ptr);
        assert!(
            parts[held..].iter().all(|p| p.terms.is_empty())
                && parts[..held].iter().all(|p| p.terms.len() == lanes && same_bias(p)),
            "Stream::concat_rows: the pending parts come first, from one projection"
        );
        let mut bases = Vec::with_capacity(parts.len());
        let mut terms: Vec<Vec<T>> = (0..lanes).map(|_| Vec::with_capacity(held)).collect();
        for p in parts {
            bases.push(Arc::unwrap_or_clone(p.base));
            for (lane, t) in terms.iter_mut().zip(p.terms) {
                lane.push(Arc::unwrap_or_clone(t));
            }
        }
        let base = Arc::new(T::concat_rows(&bases, m));
        let terms = terms.iter().map(|t| Arc::new(T::concat_rows(t, m))).collect();
        Self { base, terms, bias }
    }

    /// `base + (Σ terms + bias)` on the pending rows, the terms folded by
    /// [`fold_terms`], and `base` on the rest; `None` when nothing is
    /// pending and the rows are `base` itself. The residual is added in
    /// place into the last intermediate it owns, so folding `q ≥ 2` terms
    /// allocates no more tensors than adding one shared sum would.
    fn add_pending(&self, m: &mut Meter) -> Option<T> {
        let (pending, rows) = (self.pending(), self.rows());
        if pending == 0 {
            return None;
        }
        let head;
        let base = if pending == rows {
            &*self.base
        } else {
            head = self.base.slice_rows(0, pending, m);
            &head
        };
        let y = match (fold_terms(&self.terms, m), &self.bias) {
            // `y + base` is `base + y` bit for bit: f32 addition commutes.
            (sum, Some(b)) => {
                let mut y = sum.add_rowvec(b, m);
                y.add_assign(base, m);
                y
            }
            (Cow::Owned(mut sum), None) => {
                sum.add_assign(base, m);
                sum
            }
            (Cow::Borrowed(term), None) => base.add(term, m),
        };
        if pending == rows {
            return Some(y);
        }
        Some(T::concat_rows(&[y, self.base.slice_rows(pending, rows, m)], m))
    }

    /// The stream's rows, the pending terms folded and added in one fused
    /// launch of their own. A serving step spends none: the next step's
    /// first launch folds a carried row at its head. Callers that read the
    /// rows (training parity, the column-block wrapper
    /// [`TesseractTransformer::forward_infer`]) pay it.
    pub fn into_rows(self, ctx: &mut RankCtx) -> Arc<T> {
        match fused(&mut ctx.meter.scope("residual"), |m| self.add_pending(m)) {
            Some(rows) => Arc::new(rows),
            None => self.base,
        }
    }
}

/// One collective-free stretch of a serving layer and the lane all-gather
/// that ends it. One fused launch, its compute span named `label` in the
/// trace: the stream's pending fold and residual add, `chain` over the
/// resulting rows `x`, and `proj`'s row-parallel term of `chain`'s output
/// ([`Stationary::partial`]). Then [`lane_sum`] gathers the lane's terms.
/// Returns `x` with those terms and `proj`'s bias pending.
fn stretch<T: TensorLike>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    input: &Stream<T>,
    label: &'static str,
    proj: &Stationary<T>,
    chain: impl FnOnce(&T, &mut Meter) -> T,
) -> Stream<T> {
    let (added, partial) = fused(&mut ctx.meter.scope(label), |m| {
        let added = input.add_pending(m);
        let a = chain(added.as_ref().unwrap_or(&input.base), m);
        (added, proj.partial(&a, m))
    });
    let base = added.map_or_else(|| Arc::clone(&input.base), Arc::new);
    let terms = lane_sum(grid, ctx, partial);
    Stream { base, terms, bias: proj.bias.clone() }
}

/// The MLP's column-parallel half, `LN₂ → fc1 (+ bias) → GELU`, over a
/// serving layer's full rows: this rank's column block of the MLP
/// activation, the input of `fc2`'s row-parallel product.
pub fn norm_mlp_up<T: TensorLike>(x: &T, eps: f32, fc1: &Stationary<T>, m: &mut Meter) -> T {
    fc1.matmul(&layer_norm_rows(x, fc1.panels.len(), eps, m), m).gelu(m)
}

impl<T: TensorLike, G: World<T>> Module<T, G> for TransformerLayer<T, G> {
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
        Module::<T, G>::zero_grad(&mut self.ln1);
        self.attn.zero_grad();
        Module::<T, G>::zero_grad(&mut self.ln2);
        self.mlp.zero_grad();
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        Module::<T, G>::reset_tape(&mut self.ln1, ctx);
        self.attn.reset_tape(ctx);
        Module::<T, G>::reset_tape(&mut self.ln2, ctx);
        self.mlp.reset_tape(ctx);
    }
}

/// A stack of `cfg.layers` identical Transformer layers. A pipeline stage
/// is a stack of its `layers / pp` layers, built from the global parameter
/// id of its first layer.
///
/// With [`StackOptions::recompute_every`] `= Some(k)` every run of `k`
/// layers is a checkpointed segment: forward drops the segment's tapes
/// ([`Module::reset_tape`]) and keeps only its input; backward replays the
/// segment's forward to rebuild them — bitwise deterministic and at the
/// same program point on every rank, so the replayed collective schedule
/// stays SPMD-aligned — then unwinds it. Peak tape residency drops from
/// "every layer" to "one input per segment plus the deepest segment", at
/// the cost of one extra forward per segment.
pub struct Transformer<T: TensorLike, G: World<T>> {
    pub layers: Vec<TransformerLayer<T, G>>,
    pub cfg: TransformerConfig,
    recompute_every: Option<usize>,
    /// Checkpointed segment inputs, one per segment per queued forward
    /// (LIFO, so GPipe's reversed backwards pop their own microbatch's).
    inputs: Tape<Arc<T>>,
}

/// [`Transformer`] on the `[q, q, d]` grid; with `d = 1` this is Optimus.
pub type TesseractTransformer<T> = Transformer<T, TesseractGrid>;

impl<T: TensorLike, G: World<T>> Transformer<T, G> {
    /// Builds the stack; layer `l` uses param ids
    /// `base_param_id + l·PARAM_IDS_PER_LAYER ..`. Every rank builds its
    /// weights from `world` alone: `ctx` is unread, kept solely because the
    /// frozen `benchmark/` crate calls both constructors with it.
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
        _ctx: &RankCtx,
        world: &G,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        base_param_id: u64,
        opts: StackOptions,
    ) -> Self {
        // The one execution-path site that turns an infeasible arrangement
        // into a panic, a zero-layer stack included; the text is the
        // `ShapeError`'s.
        world.check(&cfg).unwrap_or_else(|e| panic!("{e}"));
        if let Some(k) = opts.recompute_every {
            assert!(k >= 1, "recompute_every must be at least 1");
        }
        let layers = (0..cfg.layers)
            .map(|l| {
                let param_id = base_param_id + l as u64 * PARAM_IDS_PER_LAYER;
                TransformerLayer::new(world, cfg, with_bias, seed, param_id)
            })
            .collect();
        Self { layers, cfg, recompute_every: opts.recompute_every, inputs: Tape::new() }
    }
}

/// Runs `layers` left to right, one `transformer_layer.fwd` scope each.
fn forward_layers<T: TensorLike, G: World<T>>(
    layers: &mut [TransformerLayer<T, G>],
    world: &G,
    ctx: &mut RankCtx,
    x: &Arc<T>,
) -> Arc<T> {
    let mut h = Arc::clone(x);
    for layer in layers {
        h = ctx.traced("transformer_layer", "fwd", |ctx| layer.forward(world, ctx, &h));
    }
    h
}

/// Unwinds `layers` right to left, one `transformer_layer.bwd` scope each.
fn backward_layers<T: TensorLike, G: World<T>>(
    layers: &mut [TransformerLayer<T, G>],
    world: &G,
    ctx: &mut RankCtx,
    dy: &Arc<T>,
) -> Arc<T> {
    let mut g = Arc::clone(dy);
    for layer in layers.iter_mut().rev() {
        g = ctx.traced("transformer_layer", "bwd", |ctx| layer.backward(world, ctx, &g));
    }
    g
}

impl<T: TensorLike, G: World<T>> Module<T, G> for Transformer<T, G> {
    fn name(&self) -> &'static str {
        "transformer"
    }

    fn forward(&mut self, world: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let Some(k) = self.recompute_every else {
            return forward_layers(&mut self.layers, world, ctx, x);
        };
        let mut h = Arc::clone(x);
        for seg in self.layers.chunks_mut(k) {
            h = ctx.traced("checkpoint", "fwd", |ctx| {
                let y = forward_layers(seg, world, ctx, &h);
                // Everything the segment taped is recomputable from `h`:
                // release it now and keep only the input.
                seg.iter_mut().for_each(|layer| layer.reset_tape(ctx));
                self.inputs.push_tracked(ctx, h.byte_size() as u64, Arc::clone(&h));
                y
            });
        }
        h
    }

    fn backward(&mut self, world: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        self.backward_from(world, ctx, &mut |_| Arc::clone(dy))
    }

    /// Checkpointed, the last segment's replay runs before `dy(ctx)` is
    /// asked for, inside that segment's `checkpoint.bwd` scope.
    fn backward_from(
        &mut self,
        world: &G,
        ctx: &mut RankCtx,
        dy: &mut dyn FnMut(&mut RankCtx) -> Arc<T>,
    ) -> Arc<T> {
        let Some(k) = self.recompute_every else {
            let dy = dy(ctx);
            return backward_layers(&mut self.layers, world, ctx, &dy);
        };
        let mut g: Option<Arc<T>> = None;
        for seg in self.layers.chunks_mut(k).rev() {
            g = Some(ctx.traced("checkpoint", "bwd", |ctx| {
                let x = self.inputs.pop_tracked(ctx, "Transformer checkpoint");
                let _ = forward_layers(seg, world, ctx, &x);
                let g = g.take().unwrap_or_else(|| dy(ctx));
                backward_layers(seg, world, ctx, &g)
            }));
        }
        g.unwrap_or_else(|| dy(ctx))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.layers.iter_mut().for_each(|layer| layer.visit_params(f));
    }

    fn zero_grad(&mut self) {
        self.inputs.debug_assert_balanced("Transformer checkpoint");
        self.layers.iter_mut().for_each(|layer| layer.zero_grad());
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.inputs.clear_tracked(ctx);
        self.layers.iter_mut().for_each(|layer| layer.reset_tape(ctx));
    }
}

impl<T: TensorLike> TesseractTransformer<T> {
    /// An empty KV cache shaped for this stack on `grid`.
    pub fn new_kv(&self, grid: &TesseractGrid) -> RequestKv<T> {
        RequestKv::empty(self.cfg.layers, self.cfg.hidden / grid.shape.q)
    }

    /// One inference step over the batch in the grid's column-block
    /// layout: `x` is this rank's `[batch.total_rows(), h/q]` block, the
    /// output has the same shape, and every request's cache in
    /// `batch.kvs` has grown by its `new_rows`. No tape is touched. The
    /// first call fetches the stationary weights
    /// ([`TesseractTransformer::fetch_stationary`]; SPMD over the whole
    /// grid) unless the caller already did. A thin wrapper over
    /// [`TesseractTransformer::forward_infer_rows`]: one row all-gather
    /// in, the step's rows folded ([`Stream::into_rows`]), this rank's
    /// column block out.
    pub fn forward_infer(
        &self,
        grid: &TesseractGrid,
        ctx: &mut RankCtx,
        x: &Arc<T>,
        batch: &mut InferBatch<T>,
    ) -> Arc<T> {
        // Idempotent: a no-op once the weights are held, so a run that
        // fetched them up front pays no collective here.
        self.fetch_stationary(grid, ctx);
        let panels: Vec<T> = row_panels(grid, ctx, x).iter().map(|p| T::clone(p)).collect();
        let rows = Stream::new(Arc::new(T::concat_cols(&panels, &mut ctx.meter)));
        let y = self.forward_infer_rows(grid, ctx, rows, batch).into_rows(ctx);
        let w = x.cols();
        Arc::new(y.slice_cols(grid.j() * w, (grid.j() + 1) * w, &mut ctx.meter))
    }

    /// One inference step over the batch on full rows, the serving
    /// engine's layout: `x` is `[batch.total_rows(), h]`, equal on every
    /// rank of the lane, and so is the output. Per layer two fused
    /// launches, each ending in one lane all-gather of the row-parallel
    /// terms: `2·layers` collectives, no all-reduce, and `2·layers`
    /// launches. The step ends at its last gather: it returns that
    /// gather's [`Stream`], every row pending, and spends no launch on
    /// folding it. The first launch folds whatever `x` holds pending (the
    /// rows a previous step left) at its head. Runs on the weights
    /// [`TesseractTransformer::fetch_stationary`] fetched and panics
    /// before the fetch.
    pub fn forward_infer_rows(
        &self,
        grid: &TesseractGrid,
        ctx: &mut RankCtx,
        x: Stream<T>,
        batch: &mut InferBatch<T>,
    ) -> Stream<T> {
        assert_eq!(x.rows(), batch.total_rows(), "batch rows mismatch");
        assert_eq!(x.base.cols(), self.cfg.hidden, "serving rows are full width");
        let mut h = x;
        for (li, layer) in self.layers.iter().enumerate() {
            h = ctx.traced("transformer_layer", "infer", |ctx| {
                layer.forward_infer(grid, ctx, &h, li, batch)
            });
        }
        h
    }

    /// Fetches every linear's weight panels and bias in one bucket
    /// ([`TesseractLinear::fetch_stationary`]): `wqkv` and `fc1` as
    /// column-parallel linears, `wo` and `fc2`, the second of each pair,
    /// as row-parallel ones. The one-time collective work of serving, `q`
    /// column broadcasts and one lane exchange per rank at any depth,
    /// after which a grid row serves with row collectives alone. SPMD over
    /// the whole grid; a no-op once every linear holds its panels.
    pub fn fetch_stationary(&self, grid: &TesseractGrid, ctx: &mut RankCtx) {
        let set: Vec<_> = (self.layers.iter())
            .flat_map(|l| {
                [
                    (&l.attn.wqkv, Parallel::Column),
                    (&l.attn.wo, Parallel::Row),
                    (&l.mlp.fc1, Parallel::Column),
                    (&l.mlp.fc2, Parallel::Row),
                ]
            })
            .collect();
        TesseractLinear::fetch_stationary(grid, ctx, &set);
    }

    /// Bytes of weights [`TesseractTransformer::fetch_stationary`] fetched
    /// on this rank: every linear's panels and bias (zero before the fetch;
    /// [`TesseractLinear::stationary_bytes`]).
    pub fn stationary_bytes(&self) -> u64 {
        (self.layers.iter())
            .flat_map(|l| [&l.attn.wqkv, &l.attn.wo, &l.mlp.fc1, &l.mlp.fc2])
            .map(TesseractLinear::stationary_bytes)
            .sum()
    }
}
