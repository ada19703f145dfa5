//! One Tesseract training matmul step on the Dense backend: forward
//! `C = A·B`, then both backward rules `A' = C'·Bᵀ` and `B' = Aᵀ·C'` (with
//! the depth all-reduce), through `tesseract_matmul*` on a grid whose
//! SUMMA schedule is either double-buffered or blocking
//! (`TesseractGrid::overlap`). `overlap_sweep` times the two schedules
//! against each other; `trace_dump` traces and reconciles them.

use std::sync::Arc;

use tesseract_comm::{RunConfig, RunOutput};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, TesseractGrid,
};
use tesseract_tensor::{DenseTensor, Matrix};

/// Runs one fwd+bwd step of global `A [rows, n]` against the `n×n` weight
/// by `run_cfg`, laid out as the `[q, q, d]` grid `shape`, pipelined
/// (double-buffered) or blocking. Returns each rank's gradient blocks
/// `(A', B')`, so the two schedules can be compared bitwise.
pub fn matmul_step(
    run_cfg: &RunConfig,
    shape: GridShape,
    rows: usize,
    n: usize,
    pipelined: bool,
) -> RunOutput<(Matrix, Matrix)> {
    let a = Matrix::seeded(rows, n, 71);
    let b = Matrix::seeded(n, n, 72);
    run_cfg.run(move |ctx| {
        let mut grid = TesseractGrid::new(ctx, shape, 0);
        grid.overlap = pipelined;
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let dy = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        let dx = tesseract_matmul_nt(&grid, ctx, &dy, &b_loc);
        let dw = tesseract_matmul_tn(&grid, ctx, &a_loc, &dy, true);
        ctx.flush_compute();
        (dx.matrix().clone(), dw.matrix().clone())
    })
}
