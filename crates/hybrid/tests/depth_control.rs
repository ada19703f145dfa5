//! The depth axis is data parallelism over a `[q,q,1]` grid. At pp = 1,
//! `[q,q,d]` and `dp=d × [q,q,1]` on the same global batch give every rank
//! bitwise the same output block (Dense) and bitwise the same forward clock
//! (Dense and Shadow, and Shadow at the Table-1 job's shapes); a whole
//! dry-run step allocates the same bytes and holds the same activation
//! peak, and their makespans agree to the fold order of the two gradient
//! all-reduces. Depth slice `k` of the grid and replica `k` hold the same
//! rows: the grid's row block `i + k·q` is row block `i` of replica `k`'s
//! contiguous batch slice, and both spellings number that rank
//! `k·q² + i·q + j`.
//!
//! Every replica axis sums the gradient of the one global loss: `[2,2,2]`,
//! `dp=2 × [2,2,1]` and two microbatches on `[2,2,1]` give every rank
//! bitwise the same gradient for every parameter.

use std::sync::Arc;

use tesseract_comm::{CostParams, RunConfig, Topology};
use tesseract_core::layers::StackOptions;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TransformerConfig};
use tesseract_hybrid::{HybridShape, HybridTransformer};
use tesseract_plan::{dry_run, Candidate, DryRun};
use tesseract_tensor::{DenseTensor, Matrix, ShadowTensor, TensorLike};

const SEED: u64 = 24;

/// Per rank: the forward output of the global input `x` (blank blocks
/// when `None`) and the clock after the forward (f64 bits), on `shape`
/// with `cfg.batch` the global batch, split `dp` ways. Runs the module's
/// forward only.
fn forward<T: TensorLike>(
    shape: HybridShape,
    cfg: TransformerConfig,
    x: Option<&Matrix>,
) -> Vec<(Option<Matrix>, u64)> {
    let dp = shape.dp();
    let replica = TransformerConfig { batch: cfg.batch / dp, ..cfg };
    let rows = replica.rows();
    let out = RunConfig::from_env(shape.total()).run(|ctx| {
        let mut engine =
            HybridTransformer::<T>::new(ctx, shape, replica, true, SEED, StackOptions::default());
        let (i, j, k) = engine.grid.coords;
        let r = engine.coords.dp_idx;
        let g = shape.grid();
        let x_loc = match x {
            Some(x) => {
                let b = a_block(&x.slice_rows(r * rows, (r + 1) * rows), g, i, j, k);
                T::build(b.rows(), b.cols(), || b)
            }
            None => T::zeros(rows / (g.q * g.d), cfg.hidden / g.q),
        };
        let y = engine.model.forward(&engine.grid, ctx, &Arc::new(x_loc));
        ctx.flush_compute();
        (y.try_matrix().cloned(), ctx.clock().to_bits())
    });
    out.results
}

/// The two spellings of `d` replicas of a `[q,q,1]` grid.
fn spellings(q: usize, d: usize) -> (HybridShape, HybridShape) {
    (HybridShape::new(1, 1, GridShape::new(q, d)), HybridShape::new(d, 1, GridShape::new(q, 1)))
}

fn assert_same_forward(
    what: &str,
    depth: &[(Option<Matrix>, u64)],
    data: &[(Option<Matrix>, u64)],
) {
    assert_eq!(depth.len(), data.len(), "{what}: rank counts");
    for (rank, ((y1, t1), (y2, t2))) in depth.iter().zip(data).enumerate() {
        assert_eq!(
            t1,
            t2,
            "{what}: rank {rank} forward clock {} vs {}",
            f64::from_bits(*t1),
            f64::from_bits(*t2)
        );
        if let (Some(y1), Some(y2)) = (y1, y2) {
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y1), bits(y2), "{what}: rank {rank} forward output");
        }
    }
}

/// The small `[q,q,d]` job: two samples per rank.
fn small_cfg(q: usize, d: usize) -> TransformerConfig {
    TransformerConfig {
        batch: 2 * q * d,
        seq: 3,
        hidden: 4 * q,
        heads: q,
        mlp_ratio: 2,
        layers: 2,
        eps: 1e-5,
    }
}

/// Table 1's 64-GPU job, run as `[4,4,4]` against `dp=4 × [4,4,1]`.
fn table1_cfg() -> TransformerConfig {
    TransformerConfig {
        batch: 16,
        seq: 512,
        hidden: 3072,
        heads: 64,
        mlp_ratio: 4,
        layers: 8,
        eps: 1e-5,
    }
}

#[test]
fn depth_and_data_parallel_forwards_are_bitwise_equal_at_small_shapes() {
    for (q, d) in [(2, 2), (3, 2), (2, 3)] {
        let cfg = small_cfg(q, d);
        let x = Matrix::seeded(cfg.rows(), cfg.hidden, 5);
        let (depth, data) = spellings(q, d);
        let dense = forward::<DenseTensor>(depth, cfg, Some(&x));
        assert!(dense.iter().all(|(y, _)| y.is_some()), "Dense runs return values");
        assert_same_forward(
            &format!("Dense [{q},{q},{d}]"),
            &dense,
            &forward::<DenseTensor>(data, cfg, Some(&x)),
        );
        let shadow = forward::<ShadowTensor>(depth, cfg, None);
        assert_same_forward(
            &format!("Shadow [{q},{q},{d}]"),
            &shadow,
            &forward::<ShadowTensor>(data, cfg, None),
        );
        let clocks = |runs: &[(Option<Matrix>, u64)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
        assert_eq!(clocks(&dense), clocks(&shadow), "[{q},{q},{d}]: Dense vs Shadow clocks");
    }
}

#[test]
fn depth_and_data_parallel_forward_clocks_are_bitwise_equal_at_table1_shapes() {
    let cfg = table1_cfg();
    let (depth, data) = spellings(4, 4);
    let depth = forward::<ShadowTensor>(depth, cfg, None);
    assert!(f64::from_bits(depth[0].1) > 0.0, "the forward charged nothing");
    assert_same_forward("Shadow T1", &depth, &forward::<ShadowTensor>(data, cfg, None));
}

/// The planner's dry-run of `shape` with one microbatch on the default
/// cluster model: what the Table 1/2 rows print.
fn step(shape: HybridShape, cfg: &TransformerConfig) -> DryRun {
    let cand = Candidate::Hybrid { shape, microbatches: 1 };
    dry_run(&Topology::meluxina(), &CostParams::a100_cluster(), &cand, cfg, false)
}

/// A whole step does the same work in both spellings: equal allocation
/// and activation peak, and a bitwise forward.
fn assert_same_work(what: &str, depth: &DryRun, data: &DryRun) {
    assert_eq!(depth.alloc_bytes, data.alloc_bytes, "{what}: alloc_bytes");
    assert_eq!(depth.activation_peak_bytes, data.activation_peak_bytes, "{what}: activation peak");
    assert_eq!(depth.forward_s.to_bits(), data.forward_s.to_bits(), "{what}: forward_s");
}

/// The makespans agree up to the fold order of the depth and `dp.grad`
/// all-reduces.
fn assert_same_makespan(what: &str, depth: &DryRun, data: &DryRun) {
    let rel = (depth.makespan_s - data.makespan_s).abs() / depth.makespan_s;
    assert!(
        rel <= 1e-12,
        "{what}: makespan {} vs {} (rel {rel:e})",
        depth.makespan_s,
        data.makespan_s
    );
}

#[test]
fn depth_and_data_parallel_steps_cost_the_same() {
    for (q, d) in [(2, 2), (3, 2), (2, 3)] {
        let cfg = small_cfg(q, d);
        let (depth, data) = spellings(q, d);
        let (depth, data) = (step(depth, &cfg), step(data, &cfg));
        let what = format!("[{q},{q},{d}]");
        assert_same_work(&what, &depth, &data);
        // A `[3,3]` slice's 9 ranks straddle the 4-GPU nodes, so the
        // slices' clocks drift apart between syncs, and a depth all-reduce
        // per linear waits differently from one `dp.grad` sync per step.
        if q * q % 4 == 0 {
            assert_same_makespan(&what, &depth, &data);
        }
    }
    let cfg = table1_cfg();
    let (depth, data) = spellings(4, 4);
    let (depth, data) = (step(depth, &cfg), step(data, &cfg));
    assert_same_work("T1 [4,4,4]", &depth, &data);
    assert_same_makespan("T1 [4,4,4]", &depth, &data);
}

/// Per rank: the bits of every parameter gradient after one `train_step`
/// of `shape` over `microbatches` waves, on the global input `x` and loss
/// gradient `dy` (`cfg.batch` is global). Batch slice `r·microbatches + m`
/// is microbatch `m` of replica `r`.
fn step_grads(
    shape: HybridShape,
    microbatches: usize,
    cfg: TransformerConfig,
    x: &Matrix,
    dy: &Matrix,
) -> Vec<Vec<Vec<u32>>> {
    let micro = shape.micro_config(&cfg, microbatches).expect("feasible spelling");
    let rows = micro.rows();
    let g = shape.grid();
    let out = RunConfig::from_env(shape.total()).run(|ctx| {
        let opts = StackOptions::default();
        let mut engine = HybridTransformer::<DenseTensor>::new(ctx, shape, micro, true, SEED, opts);
        let (i, j, k) = engine.grid.coords;
        let r = engine.coords.dp_idx;
        let block = |full: &Matrix, m: usize| {
            let s = r * microbatches + m;
            let slice = full.slice_rows(s * rows, (s + 1) * rows);
            DenseTensor::from_matrix(a_block(&slice, g, i, j, k))
        };
        let _ = engine.train_step(ctx, microbatches, |m| block(x, m), |_, _, m| block(dy, m));
        let mut grads = Vec::new();
        engine.model.visit_params(&mut |pr| {
            grads.push(pr.grad.matrix().data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
        });
        grads
    });
    out.results
}

#[test]
fn depth_data_parallel_and_microbatches_sum_the_same_gradients() {
    let cfg = TransformerConfig {
        batch: 8,
        seq: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 2,
        eps: 1e-5,
    };
    let x = Matrix::seeded(cfg.rows(), cfg.hidden, 7);
    let dy = Matrix::seeded(cfg.rows(), cfg.hidden, 8);
    let (depth, data) = spellings(2, 2);
    let depth = step_grads(depth, 1, cfg, &x, &dy);
    let data = step_grads(data, 1, cfg, &x, &dy);
    let micro = step_grads(HybridShape::new(1, 1, GridShape::new(2, 1)), 2, cfg, &x, &dy);
    assert_eq!(depth.len(), 8);
    for (rank, grads) in depth.iter().enumerate() {
        // Depth slice / replica `k` holds the shard of `[2,2,1]` rank `rank % 4`.
        for (what, other) in [("dp=2 × [2,2,1]", &data[rank]), ("2 microbatches", &micro[rank % 4])]
        {
            assert_eq!(grads.len(), other.len(), "rank {rank}: parameter counts vs {what}");
            for (p, (a, b)) in grads.iter().zip(other).enumerate() {
                assert_eq!(a, b, "rank {rank} parameter {p}: [2,2,2] vs {what}");
            }
        }
    }
}
