//! The `Module` abstraction: one interface for every distributed layer.
//!
//! Every Tesseract layer used to re-implement the same duck-typed trio —
//! inherent `forward` / `backward` / `visit_params` — plus its own private
//! LIFO cache of forward activations. [`Module`] makes that contract a
//! first-class trait, [`Tape`] centralizes the microbatch activation
//! stacks (push-on-forward / pop-on-backward, with balance accounting so
//! GPipe-style schedules cannot silently desync). Layers are composed by
//! one typed stack, [`crate::layers::Transformer`], which also does its
//! own checkpointed recomputation; a pipeline stage is such a stack over
//! its slice of the layers.
//!
//! The trait is generic over the communication world `G` (default:
//! [`TesseractGrid`]): the Transformer block in [`crate::layers`] is written
//! once against it, and the Megatron baseline's 1-D `MegatronWorld` runs
//! that same block with its own linear and norm. Consumers that only need
//! parameters (optimizers, gradient sync, gradient clipping) take
//! `&mut dyn Module<T>` and call [`Module::visit_params`] — the only
//! parameter walk there is: the serial oracle (`SerialViT`) implements
//! `Module` on a `[1,1,1]` grid rather than offering a closure side
//! channel. Consumers that drive computation (trainer, pipeline schedules,
//! timing harnesses) call [`Module::forward`] / [`Module::backward`].

use std::sync::Arc;

use tesseract_comm::RankCtx;
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
pub trait Module<T: TensorLike, G = TesseractGrid> {
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

    /// [`Module::backward`] with `dY` fetched by `dy(ctx)`, called once and
    /// as late as the module allows: a checkpointed stack replays its last
    /// segment first, so a pipeline stage's replay runs before it waits on
    /// the downstream gradient. The default fetches `dY` first.
    fn backward_from(
        &mut self,
        grid: &G,
        ctx: &mut RankCtx,
        dy: &mut dyn FnMut(&mut RankCtx) -> Arc<T>,
    ) -> Arc<T> {
        let dy = dy(ctx);
        self.backward(grid, ctx, &dy)
    }

    /// Visits every (weight, grad) pair in a deterministic order.
    /// Parameter-free modules use the default empty body.
    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        let _ = f;
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
/// high-water mark in
/// [`RankReport::activation_bytes_peak`](tesseract_comm::RankReport::activation_bytes_peak);
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
    /// the drops as pops so the balance invariant holds. A checkpointed
    /// stack calls this through [`Module::reset_tape`] after a segment's
    /// forward.
    pub fn clear_tracked(&mut self, ctx: &mut RankCtx) {
        self.pops += self.items.len() as u64;
        self.items.clear();
        ctx.charge_tape_pop(self.bytes.drain(..).sum());
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

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::RunConfig;
    use tesseract_tensor::DenseTensor;

    #[test]
    fn tape_is_lifo_and_counts() {
        RunConfig::from_env(1).run(|ctx| {
            let mut t: Tape<u32> = Tape::new();
            for v in 0..4 {
                t.push_tracked(ctx, 8, v);
            }
            assert_eq!(ctx.tape_bytes_now(), 32);
            for v in (0..4).rev() {
                assert_eq!(t.pop_tracked(ctx, "test"), v);
            }
            assert_eq!(ctx.tape_bytes_now(), 0);
            t.debug_assert_balanced("test");
        });
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn tape_pop_on_empty_panics() {
        RunConfig::from_env(1).run(|ctx| {
            let mut t: Tape<DenseTensor> = Tape::new();
            let _ = t.pop_tracked(ctx, "test-module");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "activation tape unbalanced")]
    fn tape_imbalance_is_caught_at_step_boundary() {
        RunConfig::from_env(1).run(|ctx| {
            let mut t: Tape<u8> = Tape::new();
            t.push_tracked(ctx, 1, 1);
            t.push_tracked(ctx, 1, 2);
            let _ = t.pop_tracked(ctx, "test");
            t.debug_assert_balanced("test");
        });
    }
}
