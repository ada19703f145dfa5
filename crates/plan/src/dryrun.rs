//! The planner's ranking: ShadowTensor dry-runs on the simulated cluster.
//!
//! Each candidate is executed for one real training step — shapes and exact
//! flop/byte metering, no data — by a [`RunConfig`] that carries the
//! *target* topology and cost constants. The returned numbers come from the same
//! Meter/RankReport machinery the benches publish, so a planner decision is
//! backed by the same virtual clocks as the paper-table reproductions, and
//! re-running the winning arrangement reproduces the reported makespan
//! bitwise (the runs are deterministic; tracing does not perturb clocks).
//!
//! Step convention, uniform across schemes so ranks are comparable:
//! **checkpointed backward**, done by the stack's own checkpointing
//! (`StackOptions::recompute_every`). The forward keeps only each
//! segment's input; the backward replays the segment, then unwinds it.
//! With the replay, a backward costs ≈ 3× its forward, the paper's ratio.
//! Megatron runs its whole stack as one segment. Every other candidate is
//! a hybrid, a bare `[q, q, d]` grid included (its one stage, one replica
//! and one microbatch), and runs `HybridTransformer::train_step` with one
//! segment per stage: the GPipe schedule that trains, followed by the
//! data-parallel gradient sync.

use std::sync::Arc;

use tesseract_baselines::megatron::{MegatronTransformer, MegatronWorld};
use tesseract_comm::{CostParams, RunConfig, RunOutput, Topology};
use tesseract_core::layers::StackOptions;
use tesseract_core::{Module, TransformerConfig};
use tesseract_hybrid::HybridTransformer;
use tesseract_tensor::ShadowTensor;

use crate::candidate::Candidate;

/// What one simulated training step of a candidate measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DryRun {
    /// Simulated step seconds — max virtual time over ranks, what a
    /// host-side `time` of one iteration sees.
    pub makespan_s: f64,
    /// Simulated seconds of the forward phase (max over ranks; for hybrids
    /// this includes the pipeline fill).
    pub forward_s: f64,
    /// `makespan_s − forward_s`: recompute + backward (+ drain + grad sync).
    pub backward_s: f64,
    /// Allocation traffic: max over ranks of the cumulative bytes the
    /// step's ops materialized. Not a high-water mark; that is
    /// `activation_peak_bytes`.
    pub alloc_bytes: u64,
    /// Measured peak of tape-held activation bytes: max over ranks of the
    /// [`RankReport::activation_bytes_peak`](tesseract_comm::RankReport::activation_bytes_peak)
    /// high-water mark: one segment's tape plus the segment inputs queued
    /// beside it (one per in-flight microbatch on a pipeline stage).
    pub activation_peak_bytes: u64,
    /// Fraction of collective wait the split-phase pipelines hid under
    /// compute: Σ hidden / (Σ hidden + Σ blocked) over all ranks, in [0, 1].
    pub hidden_wait_frac: f64,
    /// Max over ranks of seconds of collective wait the split-phase
    /// pipelines hid under compute (0 when every collective was blocking).
    pub hidden_wait_s: f64,
    /// Max over ranks of seconds blocked in collectives.
    pub comm_s: f64,
}

/// Runs one simulated training step of `cand` on `topo`/`params`. The
/// candidate must be feasible ([`Candidate::check`]); infeasible shapes
/// panic inside the construction paths. `trace` forwards to
/// [`RunConfig::with_trace`] — traced runs are bitwise identical to untraced
/// ones, so the planner's reported numbers can be re-derived alongside a
/// full event trace.
pub fn dry_run(
    topo: &Topology,
    params: &CostParams,
    cand: &Candidate,
    cfg: &TransformerConfig,
    trace: bool,
) -> DryRun {
    let run_cfg =
        RunConfig::from_env(0).with_topology(*topo).with_params(*params).with_trace(trace);
    DryRun::of_step(&step(&run_cfg, cand, cfg))
}

impl DryRun {
    /// Summarizes one [`step`] run: the per-rank clocks and reports folded
    /// into the step's makespan, phases, bytes and wait.
    pub fn of_step(out: &RunOutput<(f64, f64)>) -> Self {
        let makespan = out.makespan();
        let reports = &out.reports;
        let forward = out.results.iter().map(|&(f, _)| f).fold(0.0, f64::max);
        let hidden: u64 = reports.iter().map(|r| r.overlap_hidden_nanos).sum();
        let blocked: u64 = reports.iter().map(|r| r.comm_wait_nanos).sum();
        let denom = hidden + blocked;
        DryRun {
            makespan_s: makespan,
            forward_s: forward,
            backward_s: makespan - forward,
            alloc_bytes: reports.iter().map(|r| r.bytes_allocated).max().unwrap_or(0),
            activation_peak_bytes: reports
                .iter()
                .map(|r| r.activation_bytes_peak)
                .max()
                .unwrap_or(0),
            hidden_wait_frac: if denom == 0 { 0.0 } else { hidden as f64 / denom as f64 },
            hidden_wait_s: reports.iter().map(|r| r.overlap_hidden_nanos).max().unwrap_or(0) as f64
                * 1e-9,
            comm_s: reports.iter().map(|r| r.comm_time).fold(0.0, f64::max),
        }
    }
}

/// The one step harness: runs one checkpointed training step of `cand`
/// under `run_cfg` and returns the raw run — per rank `(clock after the
/// forward phase, clock after the step)`, plus every rank's report and the
/// comm stats. [`dry_run`] summarizes this into a [`DryRun`], the one
/// step summary (`bench::timing` returns it too). The world size comes
/// from the candidate; `run_cfg.world` is ignored. `cand` must pass
/// [`Candidate::check`].
pub fn step(
    run_cfg: &RunConfig,
    cand: &Candidate,
    cfg: &TransformerConfig,
) -> RunOutput<(f64, f64)> {
    let cfg = *cfg;
    let mut rc = *run_cfg;
    match cand {
        Candidate::Megatron { p } => {
            let p = *p;
            rc.world = p;
            rc.run(|ctx| {
                let world = MegatronWorld::from_mesh(ctx, &MegatronWorld::tp_mesh(p, 0));
                // The whole stack is one segment.
                let opts = StackOptions { recompute_every: Some(cfg.layers) };
                let mut model = MegatronTransformer::<ShadowTensor>::new_with_options(
                    ctx, &world, cfg, true, 0, 0, opts,
                );
                // Activations are replicated: every rank sees the full batch.
                let x = Arc::new(ShadowTensor::new(cfg.rows(), cfg.hidden));
                let y = model.forward(&world, ctx, &x);
                ctx.flush_compute();
                let t_fwd = ctx.clock();
                let _ = model.backward(&world, ctx, &y);
                ctx.flush_compute();
                (t_fwd, ctx.clock())
            })
        }
        Candidate::Hybrid { shape, microbatches } => {
            let shape = *shape;
            let mb = *microbatches;
            // The engine wants the per-microbatch batch size; the planner's
            // cfg.batch is global.
            let engine_cfg = shape
                .micro_config(&cfg, mb)
                .unwrap_or_else(|e| panic!("dry-run of an infeasible candidate: {e}"));
            // `layers` is at least a stage's depth: one segment per stage.
            let opts = StackOptions { recompute_every: Some(engine_cfg.layers) };
            rc.world = shape.total();
            rc.run(|ctx| {
                let mut eng =
                    HybridTransformer::<ShadowTensor>::new(ctx, shape, engine_cfg, true, 0, opts);
                let rows_local = eng.cfg.rows() / (shape.grid().q * shape.grid().d);
                let cols_local = engine_cfg.hidden / shape.grid().q;
                // The loss gradient is modelled as the output itself.
                let (_, t_fwd) = eng.train_step(
                    ctx,
                    mb,
                    |_| ShadowTensor::new(rows_local, cols_local),
                    |_, y, _| *y,
                );
                ctx.flush_compute();
                (t_fwd, ctx.clock())
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_core::GridShape;
    use tesseract_hybrid::HybridShape;

    fn cfg() -> TransformerConfig {
        TransformerConfig {
            batch: 8,
            seq: 16,
            hidden: 64,
            heads: 8,
            mlp_ratio: 4,
            layers: 2,
            eps: 1e-5,
        }
    }

    #[test]
    fn dry_runs_are_deterministic_and_trace_invariant() {
        let topo = Topology::meluxina();
        let params = CostParams::a100_cluster();
        let cand = Candidate::tesseract(GridShape::new(2, 2));
        let a = dry_run(&topo, &params, &cand, &cfg(), false);
        let b = dry_run(&topo, &params, &cand, &cfg(), false);
        assert_eq!(a, b);
        let traced = dry_run(&topo, &params, &cand, &cfg(), true);
        assert_eq!(a, traced, "tracing must not perturb the virtual clocks");
    }

    #[test]
    fn megatron_dry_run_reports_a_measured_activation_peak() {
        let (topo, params) = (Topology::meluxina(), CostParams::a100_cluster());
        let r = dry_run(&topo, &params, &Candidate::Megatron { p: 4 }, &cfg(), false);
        assert!(r.activation_peak_bytes > 0, "megatron tapes are not byte-tracked");
    }

    #[test]
    fn megatron_checkpointed_step_leaves_no_tape() {
        use tesseract_tensor::{DenseTensor, TensorLike};
        let cfg = cfg();
        let out = RunConfig::new(2).run(|ctx| {
            let world = MegatronWorld::from_mesh(ctx, &MegatronWorld::tp_mesh(2, 0));
            let opts = StackOptions { recompute_every: Some(cfg.layers) };
            let mut model = MegatronTransformer::<DenseTensor>::new_with_options(
                ctx, &world, cfg, true, 0, 0, opts,
            );
            let x = Arc::new(DenseTensor::zeros(cfg.rows(), cfg.hidden));
            // The harness sequence of `step`'s Megatron arm.
            let y = model.forward(&world, ctx, &x);
            let _ = model.backward(&world, ctx, &y);
            // Debug builds assert every tape is balanced here.
            model.zero_grad();
            ctx.tape_bytes_now()
        });
        assert_eq!(out.results, vec![0, 0], "tape bytes left resident after the step");
    }

    #[test]
    fn hybrid_dry_run_peak_is_one_stage_tape_plus_queued_inputs() {
        // Each queued microbatch holds only its stage input; one stage's
        // tape is live at a time, and a microbatch's tape shrinks with it.
        let (topo, params) = (Topology::meluxina(), CostParams::a100_cluster());
        let cfg = TransformerConfig { batch: 16, layers: 4, ..cfg() };
        let shape = HybridShape::new(1, 2, GridShape::new(2, 1));
        let peak = |mb: u64| {
            let cand = Candidate::Hybrid { shape, microbatches: mb as usize };
            dry_run(&topo, &params, &cand, &cfg, false).activation_peak_bytes
        };
        let one = peak(1);
        for mb in [1, 2, 4] {
            // A stage input is `[128/mb, 32]` f32 per rank.
            let input_block = 16384 / mb;
            assert_eq!(peak(mb), one / mb + (mb - 1) * input_block, "mb = {mb}");
        }
    }

    #[test]
    fn hybrid_dry_run_covers_pipeline_and_dp() {
        let topo = Topology::meluxina();
        let params = CostParams::a100_cluster();
        let cand = Candidate::Hybrid {
            shape: HybridShape::new(2, 2, GridShape::new(1, 1)),
            microbatches: 2,
        };
        let r = dry_run(&topo, &params, &cand, &cfg(), false);
        assert!(r.makespan_s > 0.0);
        assert!(r.forward_s > 0.0 && r.backward_s > 0.0);
        assert!(r.alloc_bytes > 0);
    }
}
