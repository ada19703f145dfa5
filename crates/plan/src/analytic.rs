//! A cheap analytic α–β estimate per candidate, reported beside its dry-run.
//!
//! The estimate prices one training step (forward + checkpointed backward,
//! the step convention of [`crate::dryrun`] and the paper's tables:
//! backward ≈ 3× forward) from the same [`CostParams`] the simulator charges, with every
//! collective priced by [`CostParams::phased_collective_time`] on the
//! *actual* fiber placements of the candidate's mesh on the target
//! [`Topology`] — so node packing (NVLink vs InfiniBand) shows up in the
//! estimate exactly as it does in the dry-run. The numbers are estimates,
//! not replays: SUMMA overlap, skew and pipeline fill are simplified. The
//! planner dry-runs every candidate and ranks by the dry-run alone; the
//! estimate filters nothing and is kept so its error can be measured.

use tesseract_comm::{CollectiveOp, CostParams, GroupPlacement, Mesh, Topology};
use tesseract_core::{GridShape, TransformerConfig};

use crate::candidate::Candidate;

/// Analytic step-time estimate, split into compute and everything else
/// (collectives, point-to-point, pipeline bubble).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyticScore {
    /// Seconds of per-rank GEMM/attention math on the critical path.
    pub compute_s: f64,
    /// Seconds of communication (plus pipeline bubble for hybrids).
    pub comm_s: f64,
}

impl AnalyticScore {
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }
}

/// Worst phased cost of one collective over all fibers of `mesh` along the
/// named axis — distinct [`GroupPlacement`]s are priced once; the max is
/// what the makespan sees (the slowest fiber gates the step).
fn worst_fiber_cost(
    topo: &Topology,
    params: &CostParams,
    mesh: &Mesh,
    axis: &str,
    op: CollectiveOp,
    bytes: usize,
) -> f64 {
    let idx = mesh.axis_index(axis);
    let mut seen: Vec<GroupPlacement> = Vec::new();
    let mut worst = 0.0f64;
    for off in 0..mesh.size() {
        let coords = mesh.coords_of(off);
        if coords[idx] != 0 {
            continue; // one representative per fiber
        }
        let ranks = mesh.fiber_ranks(axis, &coords);
        let placement = topo.placement(&ranks);
        if seen.contains(&placement) {
            continue;
        }
        seen.push(placement);
        worst = worst.max(params.phased_collective_time(op, bytes, placement).total);
    }
    worst
}

/// Cost of one *forward* pass of a `layers`-deep Transformer slice over
/// `rows` activation rows on a Tesseract module, plus the per-backward
/// depth-wise weight-gradient sync.
struct ModuleCost {
    /// Per-rank forward compute seconds.
    compute_fwd: f64,
    /// Forward collective seconds (SUMMA panel broadcasts + layer-norm
    /// reductions).
    comm_fwd: f64,
    /// Depth-axis weight-gradient all-reduce seconds charged once per
    /// backward (zero when `d = 1`).
    depth_sync: f64,
}

/// The four row-activation GEMMs of one Transformer layer as `(a, b, c)`
/// shapes of `[a,b]×[b,c]`: QKV projection, attention output projection,
/// MLP up, MLP down.
fn layer_gemms(rows: usize, cfg: &TransformerConfig) -> [(usize, usize, usize); 4] {
    let h = cfg.hidden;
    let m = cfg.mlp_hidden();
    [(rows, h, 3 * h), (rows, h, h), (rows, h, m), (rows, m, h)]
}

fn tesseract_module_cost(
    topo: &Topology,
    params: &CostParams,
    grid: GridShape,
    base: usize,
    rows: usize,
    layers: usize,
    cfg: &TransformerConfig,
) -> ModuleCost {
    let (q, d) = (grid.q, grid.d);
    let p = grid.size() as f64;
    let mesh = grid.mesh(base);
    let mut flops_fwd = 0.0f64;
    let mut comm_layer = 0.0f64;
    let mut depth_layer = 0.0f64;
    for (a, b, c) in layer_gemms(rows, cfg) {
        flops_fwd += 2.0 * a as f64 * b as f64 * c as f64;
        // SUMMA runs q steps; each broadcasts an A panel over the row group
        // (the fiber along "col") and a B panel over the column group (the
        // fiber along "row").
        let bytes_a = (a / (q * d)) * (b / q) * 4;
        let bytes_b = (b / q) * (c / q) * 4;
        comm_layer += q as f64
            * (worst_fiber_cost(topo, params, &mesh, "col", CollectiveOp::Broadcast, bytes_a)
                + worst_fiber_cost(topo, params, &mesh, "row", CollectiveOp::Broadcast, bytes_b));
        if d > 1 {
            // Weight gradients are replicated over depth: one all-reduce of
            // this rank's [b/q, c/q] block per backward.
            let bytes_w = (b / q) * (c / q) * 4;
            depth_layer +=
                worst_fiber_cost(topo, params, &mesh, "depth", CollectiveOp::AllReduce, bytes_w);
        }
    }
    // Attention scores/context (head-local, no extra collectives).
    flops_fwd += 4.0 * rows as f64 * cfg.seq as f64 * cfg.hidden as f64;
    // Two layer-norms per layer reduce statistics across the hidden axis
    // (the row group): small but latency-relevant at scale.
    let ln_bytes = (rows / (q * d)) * 8;
    comm_layer +=
        2.0 * worst_fiber_cost(topo, params, &mesh, "col", CollectiveOp::AllReduce, ln_bytes);
    // Kernel launches: ~q per SUMMA step per GEMM plus a fixed per-layer
    // tail of elementwise ops.
    let kernels = (layers * (4 * q + 12)) as u64;
    ModuleCost {
        compute_fwd: params.compute_time(layers as f64 * flops_fwd / p, kernels),
        comm_fwd: layers as f64 * comm_layer,
        depth_sync: layers as f64 * depth_layer,
    }
}

/// Analytic step-time estimate of one candidate on the target topology.
///
/// Conventions (matching the dry-run in [`crate::dryrun`]): every scheme
/// checkpoints activations, so a step is forward + recompute-forward + true
/// backward — 4× the forward compute and ~4× the forward collective volume
/// for SUMMA schemes (Megatron's backward re-runs its 2 all-reduces per
/// layer, giving 3× its forward comm), plus the depth-wise gradient sync.
/// A hybrid's `comm_s` is the sum of its terms, in this order: per-wave
/// collectives and depth sync, the pipeline bubble, the stage hand-offs,
/// the dp gradient sync. A bare grid (one wave, one stage, one replica) is
/// its first term alone.
pub fn analytic_score(
    topo: &Topology,
    params: &CostParams,
    cand: &Candidate,
    cfg: &TransformerConfig,
) -> AnalyticScore {
    match cand {
        Candidate::Megatron { p } => {
            let pf = *p as f64;
            let rows = cfg.rows();
            let mut flops_fwd = 0.0f64;
            for (a, b, c) in layer_gemms(rows, cfg) {
                flops_fwd += 2.0 * a as f64 * b as f64 * c as f64;
            }
            flops_fwd += 4.0 * rows as f64 * cfg.seq as f64 * cfg.hidden as f64;
            flops_fwd *= cfg.layers as f64;
            let kernels = (cfg.layers * 16) as u64;
            let compute_fwd = params.compute_time(flops_fwd / pf, kernels);
            // Two all-reduces of the full activation block per layer
            // (attention output + MLP output), over the whole tp group.
            let placement = topo.placement(&(0..*p).collect::<Vec<_>>());
            let ar = params
                .phased_collective_time(CollectiveOp::AllReduce, rows * cfg.hidden * 4, placement)
                .total;
            let comm_fwd = cfg.layers as f64 * 2.0 * ar;
            AnalyticScore { compute_s: 4.0 * compute_fwd, comm_s: 3.0 * comm_fwd }
        }
        Candidate::Hybrid { shape, microbatches } => {
            let mb = *microbatches as f64;
            let micro_rows = shape
                .micro_config(cfg, *microbatches)
                .unwrap_or_else(|e| panic!("analytic score of an infeasible candidate: {e}"))
                .rows();
            let stage_layers = cfg.layers / shape.pp();
            let m = tesseract_module_cost(
                topo,
                params,
                shape.grid(),
                shape.module_base(0, 0),
                micro_rows,
                stage_layers,
                cfg,
            );
            // One microbatch through one stage: forward, recompute-forward
            // and true backward (≈ 3× the forward), plus the depth sync.
            let wave_compute = 4.0 * m.compute_fwd;
            let wave_comm = 4.0 * m.comm_fwd + m.depth_sync;
            let mut comm_s = mb * wave_comm;
            if shape.pp() > 1 {
                // GPipe fill-and-drain: pp − 1 extra waves of forward then
                // backward, each a whole wave of idle time.
                comm_s += (shape.pp() - 1) as f64 * (wave_compute + wave_comm);
                // Activation/gradient hand-off between adjacent stages: the
                // corresponding ranks sit one module apart.
                let bytes_act = (micro_rows / (shape.grid().q * shape.grid().d))
                    * (cfg.hidden / shape.grid().q)
                    * 4;
                let peers = [shape.module_base(0, 0), shape.module_base(0, 1)];
                let p2p = params
                    .phased_collective_time(
                        CollectiveOp::SendRecv,
                        bytes_act,
                        topo.placement(&peers),
                    )
                    .total;
                comm_s += 2.0 * mb * p2p;
            }
            if shape.dp() > 1 {
                // Post-step gradient all-reduce over the dp fibers of the
                // 5-axis mesh: each rank holds its stage's 1/q² weight
                // shard.
                let bytes_dp =
                    (cfg.param_count() / (shape.pp() * shape.grid().q * shape.grid().q)) * 4;
                let mesh = shape.mesh();
                comm_s +=
                    worst_fiber_cost(topo, params, &mesh, "dp", CollectiveOp::AllReduce, bytes_dp);
            }
            AnalyticScore { compute_s: mb * wave_compute, comm_s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransformerConfig {
        TransformerConfig {
            batch: 16,
            seq: 32,
            hidden: 128,
            heads: 8,
            mlp_ratio: 4,
            layers: 4,
            eps: 1e-5,
        }
    }

    #[test]
    fn megatron_pays_more_comm_than_tesseract_at_scale() {
        // The paper's core claim in analytic form: at 64 GPUs the 1-D
        // scheme's full-activation all-reduces dwarf Tesseract's panel
        // broadcasts.
        let topo = Topology::meluxina();
        let params = CostParams::a100_cluster();
        let big = TransformerConfig {
            batch: 16,
            seq: 512,
            hidden: 3072,
            heads: 64,
            mlp_ratio: 4,
            layers: 8,
            eps: 1e-5,
        };
        let mega = analytic_score(&topo, &params, &Candidate::Megatron { p: 64 }, &big);
        let tess =
            analytic_score(&topo, &params, &Candidate::tesseract(GridShape::new(4, 4)), &big);
        assert!(tess.comm_s < mega.comm_s, "tess {tess:?} vs mega {mega:?}");
        assert!(tess.total_s() < mega.total_s());
    }

    #[test]
    fn free_comm_leaves_only_compute() {
        let topo = Topology::meluxina();
        let params = CostParams::a100_cluster().free_comm();
        let s = analytic_score(&topo, &params, &Candidate::tesseract(GridShape::new(2, 2)), &cfg());
        assert_eq!(s.comm_s, 0.0);
        assert!(s.compute_s > 0.0);
    }
}
