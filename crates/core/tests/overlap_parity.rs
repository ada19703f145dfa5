//! Parity suite for SUMMA's two schedules: the double-buffered loop
//! (`TesseractGrid::overlap = true`, the default) must be **bitwise**
//! identical to the blocking one (`overlap = false`) — forward, both
//! backward rules and a whole transformer stack — and the overlap must
//! never make the simulated step slower.

use std::sync::Arc;

use tesseract_comm::{RankCtx, RunConfig, RunOutput};
use tesseract_core::partition::a_block;
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, Module, TesseractGrid,
    TesseractTransformer, TransformerConfig,
};
use tesseract_tensor::{DenseTensor, Matrix, Xoshiro256StarStar};

/// Plain 2-D SUMMA, the 2.5-D cube, and a larger 2.5-D arrangement.
const SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (4, 2)];

fn block(rows: usize, cols: usize, seed: u64) -> DenseTensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
}

/// Every value's bit pattern: `==` on `f32` would let `-0.0` match `0.0`.
fn bits<'m>(blocks: impl IntoIterator<Item = &'m Matrix>) -> Vec<u32> {
    blocks.into_iter().flat_map(|m| m.data().iter().map(|v| v.to_bits())).collect()
}

/// Runs `step` on a grid with the given SUMMA schedule.
fn run<R: Send, F>(shape: GridShape, overlap: bool, step: F) -> RunOutput<R>
where
    F: Fn(&TesseractGrid, &mut RankCtx) -> R + Send + Sync,
{
    RunConfig::from_env(shape.size()).run(|ctx| {
        let mut grid = TesseractGrid::new(ctx, shape, 0);
        grid.overlap = overlap;
        step(&grid, ctx)
    })
}

/// Runs `step` under both schedules on identical per-rank inputs and
/// asserts bitwise-equal results plus a no-slower overlapped makespan.
fn assert_parity<F>(shape: GridShape, what: &str, step: F)
where
    F: Fn(&TesseractGrid, &mut RankCtx) -> Matrix + Send + Sync,
{
    let fast = run(shape, true, &step);
    let slow = run(shape, false, &step);
    assert!(
        bits(&fast.results) == bits(&slow.results),
        "{what} on {shape:?}: data must be bitwise identical"
    );
    assert!(
        fast.makespan() <= slow.makespan(),
        "{what} on {shape:?}: overlapped step must not be slower ({} vs {})",
        fast.makespan(),
        slow.makespan()
    );
}

#[test]
fn forward_pipeline_is_bitwise_identical_to_serial() {
    for (q, d) in SHAPES {
        assert_parity(GridShape::new(q, d), "forward", |grid, ctx| {
            let a = Arc::new(block(3, 4, 100 + ctx.rank as u64));
            let b = Arc::new(block(4, 5, 200 + ctx.rank as u64));
            tesseract_matmul(grid, ctx, &a, &b).matrix().clone()
        });
    }
}

#[test]
fn nt_backward_pipeline_is_bitwise_identical_to_serial() {
    for (q, d) in SHAPES {
        assert_parity(GridShape::new(q, d), "A' = C'·Bᵀ", |grid, ctx| {
            let a = block(3, 6, 300 + ctx.rank as u64);
            let b = Arc::new(block(4, 6, 400 + ctx.rank as u64));
            tesseract_matmul_nt(grid, ctx, &a, &b).matrix().clone()
        });
    }
}

#[test]
fn tn_backward_pipeline_is_bitwise_identical_to_serial() {
    for (q, d) in SHAPES {
        for depth_reduce in [true, false] {
            let what = if depth_reduce {
                "B' = Aᵀ·C' (depth all-reduce)"
            } else {
                "B' = Aᵀ·C' (partials)"
            };
            assert_parity(GridShape::new(q, d), what, |grid, ctx| {
                let a = Arc::new(block(5, 3, 500 + ctx.rank as u64));
                let b = block(5, 4, 600 + ctx.rank as u64);
                tesseract_matmul_tn(grid, ctx, &a, &b, depth_reduce).matrix().clone()
            });
        }
    }
}

/// On a real multi-step grid the pipeline must actually hide wait, not
/// just tie: the hidden-time counters are non-zero and the makespan is
/// strictly smaller than the blocking loop's.
#[test]
fn pipeline_strictly_beats_serial_on_the_cube() {
    let shape = GridShape::new(2, 2);
    let step = |grid: &TesseractGrid, ctx: &mut RankCtx| {
        let a = Arc::new(block(16, 16, 700 + ctx.rank as u64));
        let b = Arc::new(block(16, 16, 800 + ctx.rank as u64));
        let _ = tesseract_matmul(grid, ctx, &a, &b);
    };
    let fast = run(shape, true, step);
    let slow = run(shape, false, step);
    assert!(
        fast.makespan() < slow.makespan(),
        "double-buffered SUMMA must strictly beat the blocking loop: {} vs {}",
        fast.makespan(),
        slow.makespan()
    );
    assert!(fast.comm.total_hidden_time() > 0.0);
    assert_eq!(slow.comm.total_hidden_time(), 0.0);
    assert!(fast.reports.iter().all(|r| r.overlap_hidden_nanos > 0));
}

/// A whole `TesseractTransformer` forward and backward on the cube: the
/// two schedules give the same output, input gradient and weight
/// gradients bit for bit, every rank leads the same collectives at the
/// same size and cost, and the blocking run hides no wait anywhere.
#[test]
fn transformer_stack_is_bitwise_identical_under_both_schedules() {
    let shape = GridShape::new(2, 2);
    let cfg = TransformerConfig {
        batch: 4,
        seq: 4,
        hidden: 16,
        heads: 2,
        mlp_ratio: 2,
        layers: 2,
        eps: 1e-5,
    };
    let x = block(cfg.rows(), cfg.hidden, 900).into_matrix();
    let dy = block(cfg.rows(), cfg.hidden, 901).into_matrix();
    let step = |grid: &TesseractGrid, ctx: &mut RankCtx| {
        let (i, j, k) = grid.coords;
        let mut stack = TesseractTransformer::<DenseTensor>::new(ctx, grid, cfg, true, 902, 0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let y = stack.forward(grid, ctx, &x_loc);
        let dx = stack.backward(grid, ctx, &dy_loc);
        let mut grads = Vec::new();
        stack.visit_params(&mut |pr| grads.push(pr.grad.matrix().clone()));
        (y.matrix().clone(), dx.matrix().clone(), grads)
    };
    let fast = run(shape, true, step);
    let slow = run(shape, false, step);
    for (r, ((fy, fdx, fg), (sy, sdx, sg))) in fast.results.iter().zip(&slow.results).enumerate() {
        let (f, s) = ([fy, fdx].into_iter().chain(fg), [sy, sdx].into_iter().chain(sg));
        assert!(bits(f) == bits(s), "rank {r}: outputs and gradients must be bitwise identical");
    }
    for (f, s) in fast.reports.iter().zip(&slow.reports) {
        for (fo, so) in f.comm.per_op.iter().zip(&s.comm.per_op) {
            assert_eq!(
                (fo.calls, fo.wire_bytes, fo.time),
                (so.calls, so.wire_bytes, so.time),
                "rank {}: per-op ledger differs between schedules",
                f.rank
            );
        }
        assert!(s.comm.per_op.iter().all(|o| o.hidden_nanos == 0), "rank {}", s.rank);
    }
    assert!(fast.reports.iter().any(|r| r.overlap_hidden_nanos > 0));
}
