//! Stage 2 of the search: ShadowTensor dry-runs on the simulated cluster.
//!
//! Each candidate is executed for one real training step — shapes and exact
//! flop/byte metering, no data — on a [`Cluster`] built from the *target*
//! topology and cost constants. The returned numbers come from the same
//! Meter/RankReport machinery the benches publish, so a planner decision is
//! backed by the same virtual clocks as the paper-table reproductions, and
//! re-running the winning arrangement reproduces the reported makespan
//! bitwise (the runs are deterministic; tracing does not perturb clocks).
//!
//! Step convention, uniform across schemes so ranks are comparable:
//! **checkpointed backward** (forward; then recompute-forward + true
//! backward), the convention of `bench::timing` and the paper's ≈3×
//! backward/forward ratio. The hybrid GPipe schedule runs all microbatch
//! forwards, then per-microbatch recompute + backward in reverse order,
//! then the data-parallel gradient sync.
//!
//! [`Cluster`]: tesseract_comm::Cluster

use std::sync::Arc;

use tesseract_baselines::megatron::MegatronWorld;
use tesseract_comm::{CostParams, RankCtx, RankReport, RunConfig, RunOutput, Topology};
use tesseract_core::layers::{StackOptions, Transformer, World};
use tesseract_core::{Module, TesseractGrid, TransformerConfig};
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
    /// Peak activation-traffic proxy: max over ranks of bytes the step
    /// materialized.
    pub peak_bytes: u64,
    /// Measured peak of tape-held activation bytes: max over ranks of the
    /// [`RankReport::activation_bytes_peak`] high-water mark. This is the
    /// number recomputation actually shrinks.
    pub activation_peak_bytes: u64,
    /// Fraction of collective wait the split-phase pipelines hid under
    /// compute: Σ hidden / (Σ hidden + Σ blocked) over all ranks, in [0, 1].
    pub hidden_wait_frac: f64,
    /// Max over ranks of seconds blocked in collectives.
    pub comm_s: f64,
}

fn collect(results: &[(f64, f64)], reports: &[RankReport], makespan: f64) -> DryRun {
    let forward = results.iter().map(|&(f, _)| f).fold(0.0, f64::max);
    let peak_bytes = reports.iter().map(|r| r.bytes_allocated).max().unwrap_or(0);
    let activation_peak_bytes = reports.iter().map(|r| r.activation_bytes_peak).max().unwrap_or(0);
    let hidden: u64 = reports.iter().map(|r| r.overlap_hidden_nanos).sum();
    let blocked: u64 = reports.iter().map(|r| r.comm_wait_nanos).sum();
    let denom = hidden + blocked;
    let hidden_wait_frac = if denom == 0 { 0.0 } else { hidden as f64 / denom as f64 };
    let comm_s = reports.iter().map(|r| r.comm_time).fold(0.0, f64::max);
    DryRun {
        makespan_s: makespan,
        forward_s: forward,
        backward_s: makespan - forward,
        peak_bytes,
        activation_peak_bytes,
        hidden_wait_frac,
        comm_s,
    }
}

fn finish(out: RunOutput<(f64, f64)>) -> DryRun {
    let makespan = out.makespan();
    collect(&out.results, &out.reports, makespan)
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
    dry_run_with_config(&run_cfg, cand, cfg)
}

/// [`dry_run`] driven by a full [`RunConfig`]: the cluster's topology, cost
/// constants and trace toggle come from the config, and the recompute-every
/// execution option is applied to Tesseract-grid and Megatron candidates
/// (the hybrid schedule ignores it). `run_cfg.world` is ignored — each
/// candidate sets its own world size.
pub fn dry_run_with_config(
    run_cfg: &RunConfig,
    cand: &Candidate,
    cfg: &TransformerConfig,
) -> DryRun {
    finish(step(run_cfg, cand, cfg))
}

/// The one step harness: runs one checkpointed training step of `cand`
/// (forward; then recompute-forward + true backward) under `run_cfg` and
/// returns the raw run — per rank `(clock after the forward phase, clock
/// after the step)`, plus every rank's report and the comm stats.
/// [`dry_run_with_config`] and `bench::timing` both summarize this.
pub fn step(
    run_cfg: &RunConfig,
    cand: &Candidate,
    cfg: &TransformerConfig,
) -> RunOutput<(f64, f64)> {
    let opts = StackOptions { recompute_every: run_cfg.recompute_every };
    let cfg = *cfg;
    let mut rc = *run_cfg;
    match cand {
        Candidate::Tesseract { grid } => {
            let shape = *grid;
            rc.world = shape.size();
            rc.cluster().run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let rows_local = cfg.rows() / (shape.q * shape.d);
                stack_step(ctx, &grid, cfg, opts, rows_local, cfg.hidden / shape.q)
            })
        }
        Candidate::Megatron { p } => {
            let p = *p;
            rc.world = p;
            rc.cluster().run(|ctx| {
                let world = MegatronWorld::from_mesh(ctx, &MegatronWorld::tp_mesh(p, 0));
                // Activations are replicated: every rank sees the full batch.
                stack_step(ctx, &world, cfg, opts, cfg.rows(), cfg.hidden)
            })
        }
        Candidate::Hybrid { shape, microbatches } => {
            let shape = *shape;
            let mb = *microbatches;
            // The engine wants the per-microbatch batch size; the planner's
            // cfg.batch is global.
            let engine_cfg = TransformerConfig { batch: cfg.batch / (shape.dp * mb), ..cfg };
            rc.world = shape.total();
            rc.cluster().run(|ctx| {
                let mut eng =
                    HybridTransformer::<ShadowTensor>::new(ctx, shape, engine_cfg, true, 0);
                let rows_local = eng.cfg.rows() / (shape.grid.q * shape.grid.d);
                let cols_local = engine_cfg.hidden / shape.grid.q;
                // Not `gpipe_step_module`: this loop interleaves the recompute.
                // GPipe forward phase; stage inputs are stashed so the
                // checkpointed backward can recompute without resending
                // activations.
                let mut xs: Vec<Arc<ShadowTensor>> = Vec::with_capacity(mb);
                for _ in 0..mb {
                    let x: Arc<ShadowTensor> = if eng.stage.is_first() {
                        Arc::new(ShadowTensor::new(rows_local, cols_local))
                    } else {
                        eng.stage.recv_forward(ctx)
                    };
                    let y = eng.model.forward(&eng.grid, ctx, &x);
                    xs.push(x);
                    // The first forward's outputs are modelled as
                    // discarded (checkpointing); the backward phase
                    // recomputes them.
                    if !eng.stage.is_last() {
                        eng.stage.send_forward(ctx, y);
                    }
                }
                ctx.flush_compute();
                let t_fwd = ctx.clock();
                eng.model.reset_tape(ctx);
                // Backward phase in reverse microbatch order: recompute
                // this stage's forward from the stashed input, then run
                // the true backward on the recomputed tape.
                for m in (0..mb).rev() {
                    let y = eng.model.forward(&eng.grid, ctx, &xs[m]);
                    let dy: Arc<ShadowTensor> = if eng.stage.is_last() {
                        y // loss gradient modelled as the output itself
                    } else {
                        eng.stage.recv_backward(ctx)
                    };
                    let dx = eng.model.backward(&eng.grid, ctx, &dy);
                    if !eng.stage.is_first() {
                        eng.stage.send_backward(ctx, dx);
                    }
                }
                if shape.dp > 1 {
                    eng.dp.sync_gradients(ctx, &mut eng.model);
                }
                ctx.flush_compute();
                (t_fwd, ctx.clock())
            })
        }
    }
}

/// One checkpointed step of the shared stack on world `G`, from this
/// rank's `[rows, cols]` input block.
fn stack_step<G: World<ShadowTensor>>(
    ctx: &mut RankCtx,
    world: &G,
    cfg: TransformerConfig,
    opts: StackOptions,
    rows: usize,
    cols: usize,
) -> (f64, f64) {
    let mut model = Transformer::new_with_options(ctx, world, cfg, true, 0, 0, opts);
    let x = Arc::new(ShadowTensor::new(rows, cols));
    let _ = model.forward(world, ctx, &x);
    ctx.flush_compute();
    let t_fwd = ctx.clock();
    // Checkpointed backward: recompute forward + true backward. The first
    // forward's caches are discarded for real (`reset_tape`), so the
    // reported activation peak is the one the recompute convention
    // actually holds.
    model.reset_tape(ctx);
    let y = model.forward(world, ctx, &x);
    let _ = model.backward(world, ctx, &y);
    ctx.flush_compute();
    (t_fwd, ctx.clock())
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
        let cand = Candidate::Tesseract { grid: GridShape::new(2, 2) };
        let a = dry_run(&topo, &params, &cand, &cfg(), false);
        let b = dry_run(&topo, &params, &cand, &cfg(), false);
        assert_eq!(a, b);
        let traced = dry_run(&topo, &params, &cand, &cfg(), true);
        assert_eq!(a, traced, "tracing must not perturb the virtual clocks");
    }

    #[test]
    fn hybrid_trivial_wrapper_matches_tesseract_schedule() {
        // dp = pp = 1 with one microbatch executes the same
        // forward/recompute/backward schedule as the bare grid; the layer
        // stacks are built from the same layer modules, so the virtual
        // clocks agree bitwise.
        let topo = Topology::meluxina();
        let params = CostParams::a100_cluster();
        let grid = GridShape::new(2, 1);
        let tess = dry_run(&topo, &params, &Candidate::Tesseract { grid }, &cfg(), false);
        let hybrid = dry_run(
            &topo,
            &params,
            &Candidate::Hybrid { shape: HybridShape::new(1, 1, grid), microbatches: 1 },
            &cfg(),
            false,
        );
        assert_eq!(tess.makespan_s, hybrid.makespan_s);
        assert_eq!(tess.forward_s, hybrid.forward_s);
    }

    #[test]
    fn recompute_shrinks_the_measured_activation_peak() {
        // 2 layers checkpointed every layer: each rank measures
        // 156160 / 295936 = 0.528 of the dense tape peak (one live layer
        // plus the segment inputs). The gate is that ratio plus 10 % slack,
        // so it fails if recomputation stops dropping segments.
        const RHO: f64 = 0.58;
        let base = RunConfig::new(0);
        let cand = Candidate::Tesseract { grid: GridShape::new(2, 1) };
        let dense = step(&base, &cand, &cfg());
        let rec = step(&base.with_recompute_every(Some(1)), &cand, &cfg());
        for (r, (d, rc)) in dense.reports.iter().zip(&rec.reports).enumerate() {
            let (d, rc) = (d.activation_bytes_peak, rc.activation_bytes_peak);
            assert!(d > 0, "rank {r}: dense dry run tracked no activations");
            assert!(
                rc as f64 <= RHO * d as f64,
                "rank {r}: recompute peak {rc} above {RHO} x dense {d}"
            );
        }
    }

    #[test]
    fn megatron_dry_run_reports_a_measured_activation_peak() {
        let (topo, params) = (Topology::meluxina(), CostParams::a100_cluster());
        let r = dry_run(&topo, &params, &Candidate::Megatron { p: 4 }, &cfg(), false);
        assert!(r.activation_peak_bytes > 0, "megatron tapes are not byte-tracked");
    }

    #[test]
    fn megatron_reset_tape_discards_the_first_forward() {
        use tesseract_baselines::megatron::MegatronTransformer;
        use tesseract_tensor::{DenseTensor, TensorLike};
        let cfg = cfg();
        let out = RunConfig::new(2).cluster().run(|ctx| {
            let world = MegatronWorld::from_mesh(ctx, &MegatronWorld::tp_mesh(2, 0));
            let mut model = MegatronTransformer::<DenseTensor>::new(ctx, &world, cfg, true, 0, 0);
            let x = Arc::new(DenseTensor::zeros(cfg.rows(), cfg.hidden));
            // The harness sequence of `stack_step`.
            let _ = model.forward(&world, ctx, &x);
            model.reset_tape(ctx);
            let y = model.forward(&world, ctx, &x);
            let _ = model.backward(&world, ctx, &y);
            // Debug builds assert every tape is balanced here.
            model.zero_grad();
            ctx.tape_bytes_now()
        });
        assert_eq!(out.results, vec![0, 0], "tape bytes left resident after the step");
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
        assert!(r.peak_bytes > 0);
    }
}
