//! Pipeline parallelism (paper §3.4): GPipe-style microbatched schedule
//! between Tesseract modules.
//!
//! Each pipeline stage hosts a contiguous slice of the Transformer stack on
//! its own Tesseract grid. A step runs all microbatch forwards (activations
//! flow stage → stage through point-to-point sends between corresponding
//! ranks), then all backwards in reverse microbatch order — which is
//! exactly the order the layers' LIFO activation caches expect. The
//! simulated clocks naturally expose the pipeline bubble: a stage's `recv`
//! cannot complete before the sender produced the tensor.

use std::sync::Arc;

use tesseract_comm::{CommGroup, Payload, RankCtx};
use tesseract_core::{Module, TesseractGrid};
use tesseract_tensor::TensorLike;

const TAG_FWD: u64 = 0;
const TAG_BWD: u64 = 1;

/// One rank's handle on its pipeline position.
pub struct PipelineStage {
    pub pp: usize,
    pub pp_idx: usize,
    /// Pair group `[prev_peer, me]` (absent on the first stage).
    prev: Option<CommGroup>,
    /// Pair group `[me, next_peer]` (absent on the last stage).
    next: Option<CommGroup>,
}

impl PipelineStage {
    /// `prev_peer` / `next_peer` are the global ranks holding the same
    /// Tesseract position in the adjacent stages.
    pub fn new(
        ctx: &RankCtx,
        pp: usize,
        pp_idx: usize,
        prev_peer: Option<usize>,
        next_peer: Option<usize>,
    ) -> Self {
        assert_eq!(pp_idx == 0, prev_peer.is_none(), "first stage has no predecessor");
        assert_eq!(pp_idx == pp - 1, next_peer.is_none(), "last stage has no successor");
        let prev = prev_peer.map(|p| ctx.group("pipe", vec![p, ctx.rank]));
        let next = next_peer.map(|n| ctx.group("pipe", vec![ctx.rank, n]));
        Self { pp, pp_idx, prev, next }
    }

    pub fn is_first(&self) -> bool {
        self.pp_idx == 0
    }

    pub fn is_last(&self) -> bool {
        self.pp_idx == self.pp - 1
    }

    pub fn send_forward<P: Payload>(&self, ctx: &mut RankCtx, activation: P) {
        self.next
            .as_ref()
            .expect("last stage cannot send forward")
            .send(ctx, 1, TAG_FWD, activation);
    }

    pub fn recv_forward<P: Payload>(&self, ctx: &mut RankCtx) -> P {
        self.prev.as_ref().expect("first stage cannot recv forward").recv(ctx, 0, TAG_FWD)
    }

    pub fn send_backward<P: Payload>(&self, ctx: &mut RankCtx, grad: P) {
        self.prev.as_ref().expect("first stage cannot send backward").send(ctx, 0, TAG_BWD, grad);
    }

    pub fn recv_backward<P: Payload>(&self, ctx: &mut RankCtx) -> P {
        self.next.as_ref().expect("last stage cannot recv backward").recv(ctx, 1, TAG_BWD)
    }
}

/// Runs one GPipe step of a [`Module`] stage slice on a Tesseract grid: all
/// microbatch forwards push onto the module's activation tapes, then all
/// backwards pop them in reverse microbatch order — the schedule the tapes'
/// LIFO ordering exists for.
///
/// * `inputs(m)` — the stage-0 input for microbatch `m` (ignored elsewhere).
/// * `loss_grad(ctx, y, m)` — on the *last* stage, converts output `y` of
///   microbatch `m` into the initial gradient (ignored elsewhere).
///
/// Returns the last stage's outputs, in microbatch order (empty elsewhere).
///
/// Activations flow between stages as `Arc<T>`: within a simulated node the
/// point-to-point send hands the receiver a reference to the same buffer
/// (the wire cost is still charged on the virtual clocks), so no microbatch
/// activation is ever deep-copied by the schedule itself.
pub fn gpipe_step_module<T>(
    stage: &PipelineStage,
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    model: &mut dyn Module<T>,
    microbatches: usize,
    mut inputs: impl FnMut(usize) -> T,
    mut loss_grad: impl FnMut(&mut RankCtx, &T, usize) -> T,
) -> Vec<Arc<T>>
where
    T: TensorLike + Payload,
{
    assert!(microbatches >= 1);
    let mut outputs: Vec<Arc<T>> = Vec::new();
    for m in 0..microbatches {
        let x: Arc<T> =
            if stage.is_first() { Arc::new(inputs(m)) } else { stage.recv_forward(ctx) };
        let y = ctx.traced("stage", "fwd", |ctx| model.forward(grid, ctx, &x));
        if stage.is_last() {
            outputs.push(y);
        } else {
            stage.send_forward(ctx, y);
        }
    }
    for m in (0..microbatches).rev() {
        let dy: Arc<T> = if stage.is_last() {
            Arc::new(loss_grad(ctx, &outputs[m], m))
        } else {
            stage.recv_backward(ctx)
        };
        let dx = ctx.traced("stage", "bwd", |ctx| model.backward(grid, ctx, &dy));
        if !stage.is_first() {
            stage.send_backward(ctx, dx);
        }
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::Cluster;
    use tesseract_core::GridShape;
    use tesseract_tensor::{DenseTensor, Matrix};

    /// `y = factor · x`; records the `dx` of every backward it runs.
    struct Scale {
        factor: f32,
        dxs: Vec<f32>,
    }

    impl Module<DenseTensor> for Scale {
        fn forward(
            &mut self,
            _: &TesseractGrid,
            ctx: &mut RankCtx,
            x: &Arc<DenseTensor>,
        ) -> Arc<DenseTensor> {
            Arc::new(x.scale(self.factor, &mut ctx.meter))
        }

        fn backward(
            &mut self,
            _: &TesseractGrid,
            ctx: &mut RankCtx,
            dy: &Arc<DenseTensor>,
        ) -> Arc<DenseTensor> {
            let dx = dy.scale(self.factor, &mut ctx.meter);
            self.dxs.push(dx.matrix()[(0, 0)]);
            Arc::new(dx)
        }
    }

    /// A chain of single-rank stages, stage `r` scaling by `factors[r]` on
    /// its own `[1,1,1]` grid; returns each rank's last-stage outputs, the
    /// `dx` it produced per backward, and its final clock.
    fn run_chain(
        factors: &'static [f32],
        microbatches: usize,
        input: impl Fn(usize) -> Matrix + Send + Sync + 'static,
    ) -> Vec<(Vec<f32>, Vec<f32>, f64)> {
        let pp = factors.len();
        let out = Cluster::a100(pp).run(move |ctx| {
            let prev = ctx.rank.checked_sub(1);
            let next = (ctx.rank + 1 < pp).then_some(ctx.rank + 1);
            let stage = PipelineStage::new(ctx, pp, ctx.rank, prev, next);
            let grid = TesseractGrid::new(ctx, GridShape::new(1, 1), ctx.rank);
            let mut model = Scale { factor: factors[ctx.rank], dxs: Vec::new() };
            let outputs = gpipe_step_module(
                &stage,
                &grid,
                ctx,
                &mut model,
                microbatches,
                |m| DenseTensor::from_matrix(input(m)),
                |_ctx, y, _m| DenseTensor::from_matrix(Matrix::full(y.rows(), y.cols(), 1.0)),
            );
            ctx.flush_compute();
            (outputs.iter().map(|o| o.matrix()[(0, 0)]).collect(), model.dxs, ctx.clock())
        });
        out.results
    }

    /// Two single-rank stages computing y = (x·2)·3 with gradient flowing
    /// back as dy = 1 → dx should be 6 at stage 0.
    #[test]
    fn two_stage_pipeline_matches_serial_composition() {
        let results = run_chain(&[2.0, 3.0], 3, |m| Matrix::full(1, 1, m as f32 + 1.0));
        // Last stage sees 1·2·3, 2·2·3, 3·2·3.
        assert_eq!(results[1].0, vec![6.0, 12.0, 18.0]);
        assert!(results[0].0.is_empty());
        // Backward: dy=1 → stage1 dx=3 → stage0 dx=3·2=6 for each microbatch.
        assert_eq!(results[1].1, vec![3.0, 3.0, 3.0]);
        assert_eq!(results[0].1, vec![6.0, 6.0, 6.0]);
    }

    /// The receiver's virtual clock must lag the sender's: the pipeline
    /// bubble exists in simulated time.
    #[test]
    fn pipeline_bubble_appears_in_virtual_time() {
        let results = run_chain(&[1.0, 1.0], 2, |_| Matrix::full(64, 64, 1.0));
        let (first, last) = (results[0].2, results[1].2);
        assert!(last > 0.0);
        // Stage 1 cannot have finished before stage 0 produced anything.
        assert!(last >= first * 0.5);
    }

    /// Three stages, one microbatch: data flows through the whole chain.
    #[test]
    fn three_stage_chain() {
        let results = run_chain(&[1.0, 2.0, 2.0], 1, |_| Matrix::full(1, 1, 1.0));
        assert_eq!(results[2].0, vec![4.0]); // 1 · 1 · 2 · 2
        assert!(results[0].0.is_empty());
    }
}
