//! Copy-regression suite for the zero-copy collective path: the
//! `Arc`-shared broadcasts and in-place reductions under the three
//! Tesseract matmul variants, and the `Arc`-shared shifts Cannon rotates
//! its blocks with, must never deep-copy a payload — every panel is
//! materialized once per rendezvous regardless of group fan-out, and
//! reductions fold their by-value deposits in place.

use std::sync::Arc;

use tesseract_baselines::cannon::cannon_matmul;
use tesseract_comm::{Cluster, CollectiveOp, RankCtx};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, TesseractGrid,
};
use tesseract_tensor::{DenseTensor, Matrix, Xoshiro256StarStar};

/// The grids the issue names: 2-D, 2.5-D and the wide 2-D arrangement.
const SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (4, 1)];

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// Runs `step` on every rank of every grid in `shapes` and asserts the
/// whole run copied no payload, cluster-wide and per rank.
fn assert_copies_nothing(
    what: &str,
    shapes: &[(usize, usize)],
    step: impl Fn(&TesseractGrid, &mut RankCtx, GridShape) + Send + Sync,
) {
    for &(q, d) in shapes {
        let shape = GridShape::new(q, d);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            step(&grid, ctx, shape);
        });
        assert!(out.comm.total_calls() > 0, "[{q},{q},{d}]: {what} must communicate");
        assert_eq!(out.comm.total_copies(), 0, "[{q},{q},{d}]: {what} copied a payload");
        for (rank, report) in out.reports.iter().enumerate() {
            assert_eq!(report.payload_copies, 0, "[{q},{q},{d}]: {what} rank {rank}");
        }
    }
}

#[test]
fn matmul_copies_nothing() {
    assert_copies_nothing("matmul", &SHAPES, |grid, ctx, shape| {
        let (q, d) = (shape.q, shape.d);
        let (i, j, k) = grid.coords;
        let a = random(4 * q * d, 2 * q, 7);
        let b = random(2 * q, 3 * q, 8);
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let _ = tesseract_matmul(grid, ctx, &a_loc, &b_loc);
    });
}

#[test]
fn matmul_nt_copies_nothing() {
    assert_copies_nothing("matmul_nt", &SHAPES, |grid, ctx, shape| {
        let (q, d) = (shape.q, shape.d);
        let (i, j, k) = grid.coords;
        // Global: A [a, c], B [b, c] → C = A·Bᵀ is [a, b].
        let a = random(4 * q * d, 3 * q, 17);
        let b = random(2 * q, 3 * q, 18);
        let a_loc = DenseTensor::from_matrix(a_block(&a, shape, i, j, k));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let _ = tesseract_matmul_nt(grid, ctx, &a_loc, &b_loc);
    });
}

#[test]
fn matmul_tn_copies_nothing() {
    assert_copies_nothing("matmul_tn", &SHAPES, |grid, ctx, shape| {
        let (q, d) = (shape.q, shape.d);
        let (i, j, k) = grid.coords;
        // Global: A [a, b], B [a, c] → C = Aᵀ·B is [b, c].
        let a = random(4 * q * d, 2 * q, 27);
        let b = random(4 * q * d, 3 * q, 28);
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = DenseTensor::from_matrix(a_block(&b, shape, i, j, k));
        let _ = tesseract_matmul_tn(grid, ctx, &a_loc, &b_loc, true);
    });
}

/// Cannon (a `[q, q]` mesh only) rotates its blocks as shared `Arc`s.
#[test]
fn cannon_copies_nothing() {
    assert_copies_nothing("cannon", &[(2, 1), (4, 1)], |grid, ctx, shape| {
        let (i, j, _) = grid.coords;
        let a = random(4 * shape.q, 2 * shape.q, 47);
        let b = random(2 * shape.q, 3 * shape.q, 48);
        let a_loc = Arc::new(DenseTensor::from_matrix(b_block(&a, shape, i, j)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let _ = cannon_matmul(grid, ctx, &a_loc, &b_loc);
    });
}

/// The issue's acceptance gate (also the CI copy-regression gate, since
/// `scripts/ci.sh` runs this file under `cargo test`): one forward
/// `tesseract_matmul` on `[4, 4, 2]` must register **zero** per-receiver
/// payload clones on every rank — each broadcast panel is materialized
/// exactly once regardless of the 4-member group fan-out.
#[test]
fn forward_matmul_on_4x4x2_copies_nothing() {
    let shape = GridShape::new(4, 2); // [4, 4, 2] = 32 ranks
    let (a_rows, inner, b_cols) = (4 * 4 * 2 * 2, 4 * 2, 4 * 3);
    let a = random(a_rows, inner, 37);
    let b = random(inner, b_cols, 38);
    let out = Cluster::a100(shape.size()).run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        ctx.flush_compute();
    });
    let bcast = out.comm.get(CollectiveOp::Broadcast);
    assert!(bcast.calls > 0, "the forward must actually broadcast");
    assert_eq!(bcast.copies, 0, "broadcast panels must never be cloned per receiver");
    assert_eq!(out.comm.total_copies(), 0, "the whole forward must perform zero payload copies");
    for (rank, report) in out.reports.iter().enumerate() {
        assert_eq!(report.payload_copies, 0, "rank {rank} cloned a payload");
        assert_eq!(report.payload_copy_bytes, 0, "rank {rank} cloned payload bytes");
    }
}
