//! One Tesseract training matmul step on the Dense backend: forward
//! `C = A·B`, then both backward rules `A' = C'·Bᵀ` and `B' = Aᵀ·C'` (with
//! the depth all-reduce), through either the shipped double-buffered
//! `tesseract_matmul*` pipeline or the blocking `*_serial` reference loops.
//! `overlap_sweep` times the two variants against each other; `trace_dump`
//! traces and reconciles them.

use std::sync::Arc;

use tesseract_comm::{Cluster, RunOutput};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_nt_serial, tesseract_matmul_serial,
    tesseract_matmul_tn, tesseract_matmul_tn_serial, GridShape, TesseractGrid,
};
use tesseract_tensor::{DenseTensor, Matrix, Xoshiro256StarStar};

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// Runs one fwd+bwd step of global `A [rows, n]` against the `n×n` weight
/// on `cluster`, laid out as the `[q, q, d]` grid `shape`, pipelined or
/// serial. Returns each rank's gradient blocks `(A', B')`, so the two
/// variants can be compared bitwise.
pub fn matmul_step(
    cluster: &Cluster,
    shape: GridShape,
    rows: usize,
    n: usize,
    pipelined: bool,
) -> RunOutput<(Matrix, Matrix)> {
    let a = random(rows, n, 71);
    let b = random(n, n, 72);
    cluster.run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let (dx, dw) = if pipelined {
            let dy = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
            let dx = tesseract_matmul_nt(&grid, ctx, &dy, &b_loc);
            let dw = tesseract_matmul_tn(&grid, ctx, &a_loc, &dy, true);
            (dx, dw)
        } else {
            let dy = tesseract_matmul_serial(&grid, ctx, &a_loc, &b_loc);
            let dx = tesseract_matmul_nt_serial(&grid, ctx, &dy, &b_loc);
            let dw = tesseract_matmul_tn_serial(&grid, ctx, &a_loc, &dy, true);
            (dx, dw)
        };
        ctx.flush_compute();
        (dx.matrix().clone(), dw.matrix().clone())
    })
}
