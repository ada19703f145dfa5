//! The `Module` abstraction: one interface for every distributed layer.
//!
//! Every Tesseract layer used to re-implement the same duck-typed trio —
//! inherent `forward` / `backward` / `visit_params` — plus its own private
//! LIFO cache of forward activations. [`Module`] makes that contract a
//! first-class trait, [`Tape`] centralizes the microbatch activation
//! stacks (push-on-forward / pop-on-backward, with balance accounting so
//! GPipe-style schedules cannot silently desync), and [`Sequential`] turns
//! layer lists and pipeline-stage slices into ordinary `Module`
//! compositions.
//!
//! The trait is generic over the communication world `G` (default:
//! [`TesseractGrid`]): the Transformer block in [`crate::layers`] is written
//! once against it, and the Megatron baseline's 1-D `MegatronWorld` runs
//! that same block with its own linear and norm. Consumers that only need
//! parameters (optimizers, gradient sync, gradient clipping) take
//! `&mut dyn Module<T>` and call [`Module::visit_params`]; consumers that
//! drive computation (trainer, pipeline schedules, timing harnesses) call
//! [`Module::forward`] / [`Module::backward`].

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_tensor::TensorLike;

use crate::grid::TesseractGrid;

/// One (weight, gradient) pair exposed to optimizers and gradient sync.
pub struct ParamRef<'a, T> {
    pub weight: &'a mut T,
    pub grad: &'a mut T,
}

/// A distributed layer: forward/backward over local activation blocks on a
/// communication world `G`, plus deterministic parameter traversal.
///
/// SPMD contract: all ranks of a grid hold structurally identical modules
/// and must call the same methods in the same order; `visit_params` must
/// visit parameters in a deterministic order so per-parameter collectives
/// (data-parallel all-reduce, optimizer state) line up across ranks.
pub trait Module<T: TensorLike + Payload, G = TesseractGrid> {
    /// Short stable name used to label trace scopes (e.g. `linear`,
    /// `layernorm`). Purely observational: tracing-disabled runs never
    /// call it on a hot path.
    fn name(&self) -> &'static str {
        "module"
    }

    /// Forward over this rank's local activation block. Implementations
    /// that need activations in `backward` push them onto a [`Tape`].
    ///
    /// Activations flow as `Arc<T>` so layers can cache them, broadcast
    /// them, or hand them to the next layer without deep-copying; the
    /// borrowed kernel API is reached through deref coercion (`&Arc<T>`
    /// coerces to `&T` at call sites).
    fn forward(&mut self, grid: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T>;

    /// Backward; returns `dX` and accumulates parameter gradients. Pops
    /// the activations cached by the matching `forward` (LIFO, so several
    /// queued microbatch forwards are unwound in reverse order).
    fn backward(&mut self, grid: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T>;

    /// Visits every (weight, grad) pair in a deterministic order.
    /// Parameter-free modules use the default empty body.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        let _ = f;
    }

    /// Number of parameter tensors this module exposes.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_| n += 1);
        n
    }

    /// Total elements across this rank's parameter blocks.
    fn param_elems(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |pr| n += pr.weight.elem_count());
        n
    }

    /// Zeroes accumulated gradients. Called at step boundaries; modules
    /// that own a [`Tape`] also assert it is balanced here (every forward
    /// matched by a backward).
    fn zero_grad(&mut self) {
        self.visit_params(&mut |pr| {
            *pr.grad = T::zeros(pr.grad.rows(), pr.grad.cols());
        });
    }

    /// Drops every queued forward activation and releases its tracked
    /// bytes, as if the matching backwards had run. Checkpointed
    /// recomputation calls this after a segment's forward so only the
    /// segment *input* stays resident; the tape is rebuilt by the replay
    /// inside backward. Modules without tapes use the default no-op.
    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        let _ = ctx;
    }
}

// ---------------------------------------------------------------------------
// Tape
// ---------------------------------------------------------------------------

/// A LIFO stack of per-microbatch forward activations.
///
/// GPipe-style pipelining runs several microbatch forwards before the
/// matching backwards (in reverse order), so entries push on forward and
/// pop on backward. The tape counts pushes and pops so a desynchronized
/// schedule fails loudly: popping an empty tape panics, and
/// [`Tape::debug_assert_balanced`] (called by `zero_grad` at step
/// boundaries) catches forwards that were never unwound.
/// Every entry carries its byte size, which feeds the per-rank activation
/// high-water mark in [`tesseract_tensor::Meter::activation_bytes_peak`];
/// the matching pop (or a checkpoint [`Tape::clear_tracked`]) releases
/// exactly what the push charged.
#[derive(Debug)]
pub struct Tape<V> {
    items: Vec<V>,
    /// Byte size per entry, parallel to `items`.
    bytes: Vec<u64>,
    pushes: u64,
    pops: u64,
}

impl<V> Default for Tape<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Tape<V> {
    pub fn new() -> Self {
        Self { items: Vec::new(), bytes: Vec::new(), pushes: 0, pops: 0 }
    }

    /// Caches one microbatch's forward state and books `bytes` of tape
    /// residency against the rank's activation high-water mark.
    pub fn push_tracked(&mut self, ctx: &mut RankCtx, bytes: u64, v: V) {
        ctx.charge_tape_push(bytes);
        self.pushes += 1;
        self.items.push(v);
        self.bytes.push(bytes);
    }

    /// Retrieves the most recent unconsumed forward state and releases the
    /// bytes the matching [`Tape::push_tracked`] charged.
    ///
    /// Panics when the tape is empty: a backward was issued without a
    /// matching forward (`what` names the offending module).
    pub fn pop_tracked(&mut self, ctx: &mut RankCtx, what: &str) -> V {
        self.pops += 1;
        if let Some(b) = self.bytes.pop() {
            ctx.charge_tape_pop(b);
        }
        self.items.pop().unwrap_or_else(|| {
            panic!(
                "{what}: backward without forward (activation tape empty after \
                 {} forwards / {} backwards)",
                self.pushes, self.pops
            )
        })
    }

    /// Drops every queued entry and releases all tracked bytes, counting
    /// the drops as pops so the balance invariant holds. The checkpoint
    /// wrapper calls this through [`Module::reset_tape`] after a segment's
    /// forward.
    pub fn clear_tracked(&mut self, ctx: &mut RankCtx) {
        self.pops += self.items.len() as u64;
        self.items.clear();
        ctx.charge_tape_pop(self.bytes.drain(..).sum());
    }

    /// Microbatches currently queued (forwards not yet unwound).
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Lifetime push/pop counters (for schedule diagnostics).
    pub fn counts(&self) -> (u64, u64) {
        (self.pushes, self.pops)
    }

    /// Debug-asserts that every forward has been consumed by a backward —
    /// the step-boundary invariant GPipe schedules must maintain.
    pub fn debug_assert_balanced(&self, what: &str) {
        debug_assert!(
            self.items.is_empty(),
            "{what}: activation tape unbalanced at step boundary \
             ({} forwards vs {} backwards; {} microbatch(es) never unwound)",
            self.pushes,
            self.pops,
            self.items.len()
        );
    }
}

/// Zeroes every gradient a module exposes (the body of the default
/// [`Module::zero_grad`], reusable from overrides that add tape asserts).
pub fn zero_params<T: TensorLike + Payload, G>(m: &mut dyn Module<T, G>) {
    m.visit_params(&mut |pr| {
        *pr.grad = T::zeros(pr.grad.rows(), pr.grad.cols());
    });
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

/// An ordered composition of modules: forward runs them left to right,
/// backward unwinds right to left. This is how the Transformer stack, the
/// ViT (embed → body → pool → head) and hybrid pipeline-stage slices are
/// all expressed.
pub struct Sequential<T, G = TesseractGrid> {
    mods: Vec<Box<dyn Module<T, G> + Send>>,
}

impl<T: TensorLike + Payload, G> Default for Sequential<T, G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: TensorLike + Payload, G> Sequential<T, G> {
    pub fn new() -> Self {
        Self { mods: Vec::new() }
    }

    pub fn from_modules(mods: Vec<Box<dyn Module<T, G> + Send>>) -> Self {
        Self { mods }
    }

    /// Appends a module; returns `self` for builder-style chaining.
    pub fn push(mut self, m: impl Module<T, G> + Send + 'static) -> Self {
        self.mods.push(Box::new(m));
        self
    }

    /// Appends a boxed module in place.
    pub fn push_boxed(&mut self, m: Box<dyn Module<T, G> + Send>) {
        self.mods.push(m);
    }

    pub fn len(&self) -> usize {
        self.mods.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mods.is_empty()
    }

    /// The boxed modules, for stage re-slicing and per-module inspection.
    pub fn modules_mut(&mut self) -> &mut Vec<Box<dyn Module<T, G> + Send>> {
        &mut self.mods
    }
}

impl<T: TensorLike + Payload, G> Module<T, G> for Sequential<T, G> {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, grid: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let mut h = Arc::clone(x);
        for m in &mut self.mods {
            h = ctx.traced(m.name(), "fwd", |ctx| m.forward(grid, ctx, &h));
        }
        h
    }

    fn backward(&mut self, grid: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let mut g = Arc::clone(dy);
        for m in self.mods.iter_mut().rev() {
            g = ctx.traced(m.name(), "bwd", |ctx| m.backward(grid, ctx, &g));
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        for m in &mut self.mods {
            m.visit_params(f);
        }
    }

    fn zero_grad(&mut self) {
        for m in &mut self.mods {
            m.zero_grad();
        }
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        for m in &mut self.mods {
            m.reset_tape(ctx);
        }
    }
}

// ---------------------------------------------------------------------------
// CheckpointSegment
// ---------------------------------------------------------------------------

/// Activation-checkpointing wrapper: runs a [`Sequential`] segment's
/// forward, then immediately drops the segment's internal activation tapes
/// ([`Module::reset_tape`]) and keeps only the segment *input* resident.
/// Backward replays the segment forward to rebuild the tapes — bitwise
/// deterministic (same data, same kernels) and issued at the same program
/// point on every rank, so the replayed collective schedule stays
/// SPMD-aligned — then unwinds it as usual.
///
/// Peak tape residency drops from "every layer of the stack" to "one
/// segment input per segment plus the deepest single segment", at the cost
/// of one extra forward per segment (the classic recompute trade).
pub struct CheckpointSegment<T, G = TesseractGrid> {
    inner: Sequential<T, G>,
    input_tape: Tape<Arc<T>>,
}

impl<T: TensorLike + Payload, G> CheckpointSegment<T, G> {
    pub fn new(inner: Sequential<T, G>) -> Self {
        Self { inner, input_tape: Tape::new() }
    }

    /// Number of modules inside the checkpointed segment.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<T: TensorLike + Payload, G> Module<T, G> for CheckpointSegment<T, G> {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn forward(&mut self, grid: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let y = self.inner.forward(grid, ctx, x);
        // Everything the segment taped is recomputable from `x`: release
        // it now and keep only the input.
        self.inner.reset_tape(ctx);
        self.input_tape.push_tracked(ctx, x.byte_size() as u64, Arc::clone(x));
        y
    }

    fn backward(&mut self, grid: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let x = self.input_tape.pop_tracked(ctx, "CheckpointSegment");
        let _ = self.inner.forward(grid, ctx, &x);
        self.inner.backward(grid, ctx, dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.inner.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.input_tape.debug_assert_balanced("CheckpointSegment");
        self.inner.zero_grad();
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.input_tape.clear_tracked(ctx);
        self.inner.reset_tape(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::Cluster;
    use tesseract_tensor::DenseTensor;

    #[test]
    fn tape_is_lifo_and_counts() {
        Cluster::a100(1).run(|ctx| {
            let mut t: Tape<u32> = Tape::new();
            for v in 0..4 {
                t.push_tracked(ctx, 8, v);
            }
            assert_eq!(t.depth(), 4);
            for v in (0..4).rev() {
                assert_eq!(t.pop_tracked(ctx, "test"), v);
            }
            assert!(t.is_empty());
            assert_eq!(t.counts(), (4, 4));
            t.debug_assert_balanced("test");
        });
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn tape_pop_on_empty_panics() {
        Cluster::a100(1).run(|ctx| {
            let mut t: Tape<DenseTensor> = Tape::new();
            let _ = t.pop_tracked(ctx, "test-module");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "activation tape unbalanced")]
    fn tape_imbalance_is_caught_at_step_boundary() {
        Cluster::a100(1).run(|ctx| {
            let mut t: Tape<u8> = Tape::new();
            t.push_tracked(ctx, 1, 1);
            t.push_tracked(ctx, 1, 2);
            let _ = t.pop_tracked(ctx, "test");
            t.debug_assert_balanced("test");
        });
    }
}
