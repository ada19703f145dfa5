//! Feed-forward (MLP) layer (paper §3.2.1, Figure 5a), written once for
//! every [`World`].
//!
//! Two linear layers `[h, 4h]` and `[4h, h]` with a GELU in between.
//! Parameter matrices stay resident in their owning processors between
//! steps ("store the parameter matrices inside each processor for the next
//! computation to avoid waste of communication").

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_tensor::TensorLike;

use crate::grid::TesseractGrid;
use crate::layers::world::{Half, World};
use crate::module::{Module, ParamRef, Tape};

/// Feed-forward block: `fc2(gelu(fc1(x)))`.
pub struct Mlp<T: TensorLike + Payload, G: World<T>> {
    pub fc1: G::Linear,
    pub fc2: G::Linear,
    /// Tape of pre-activation blocks (GELU backward needs the input).
    tape: Tape<Arc<T>>,
}

/// [`Mlp`] on the `[q, q, d]` grid.
pub type TesseractMlp<T> = Mlp<T, TesseractGrid>;

impl<T: TensorLike + Payload, G: World<T>> Mlp<T, G> {
    /// `hidden → mlp_hidden → hidden`, weights at `param_id` and
    /// `param_id + 1` (biases are zero-initialized).
    pub fn new(
        ctx: &RankCtx,
        world: &G,
        hidden: usize,
        mlp_hidden: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        let fc1 =
            world.linear(ctx, Half::First, hidden, &[(mlp_hidden, param_id)], with_bias, seed);
        let fc2 =
            world.linear(ctx, Half::Second, mlp_hidden, &[(hidden, param_id + 1)], with_bias, seed);
        Self { fc1, fc2, tape: Tape::new() }
    }
}

impl<T: TensorLike + Payload> TesseractMlp<T> {
    /// Inference forward: `fc2(gelu(fc1(x)))` with no tape pushes.
    pub fn forward_infer(&self, grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let pre = self.fc1.forward_infer(grid, ctx, x);
        let act = Arc::new(pre.gelu(&mut ctx.meter));
        self.fc2.forward_infer(grid, ctx, &act)
    }

    /// Activations currently queued across this block's tapes.
    pub fn tape_depth(&self) -> usize {
        self.tape.depth() + self.fc1.tape_depth() + self.fc2.tape_depth()
    }
}

impl<T: TensorLike + Payload, G: World<T>> Module<T, G> for Mlp<T, G> {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn forward(&mut self, world: &G, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let pre = self.fc1.forward(world, ctx, x);
        let act = Arc::new(pre.gelu(&mut ctx.meter));
        let bytes = pre.byte_size() as u64;
        self.tape.push_tracked(ctx, bytes, pre);
        self.fc2.forward(world, ctx, &act)
    }

    fn backward(&mut self, world: &G, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let d_act = self.fc2.backward(world, ctx, dy);
        let pre = self.tape.pop_tracked(ctx, "Mlp");
        let d_pre = Arc::new(pre.gelu_backward(&d_act, &mut ctx.meter));
        self.fc1.backward(world, ctx, &d_pre)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("Mlp");
        self.fc1.zero_grad();
        self.fc2.zero_grad();
    }

    fn reset_tape(&mut self, ctx: &mut RankCtx) {
        self.tape.clear_tracked(ctx);
        self.fc1.reset_tape(ctx);
        self.fc2.reset_tape(ctx);
    }
}
