//! Cannon's algorithm (paper §2.1, Figure 1, Algorithm 1): 2-D matmul by
//! cyclic shifts on a `[q, q]` mesh.
//!
//! Initialization skews `A` left by the row index and `B` up by the column
//! index; each of the `q` steps multiplies the resident blocks and shifts
//! `A` left / `B` up by one. The shift offsets are uniform within each
//! row/column group (every member of a row shares `i`), so the grid's
//! existing row/column fibers implement the permutation directly.
//!
//! Used as a communication-count baseline for the §1/§3.1 claims: Cannon
//! needs `2·p^{3/2} − 2·p^{1/2}` transfers per matmul versus Tesseract's
//! `2·p^{2/3}` (at `d = q`).

use std::sync::Arc;

use tesseract_comm::RankCtx;
use tesseract_core::TesseractGrid;
use tesseract_tensor::TensorLike;

/// `C = A·B` on a `[q, q]` mesh (a depth-1 grid) with `A` split into
/// `[a/q, b/q]` blocks and `B` into `[b/q, c/q]` blocks at their natural
/// `(i, j)` positions. Returns this rank's `[a/q, c/q]` block of `C`. The
/// blocks rotate as shared `Arc`s, so no shift copies a payload.
pub fn cannon_matmul<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &Arc<T>,
) -> T
where
    T: TensorLike,
{
    assert_eq!(grid.shape.d, 1, "Cannon runs on a [q, q] mesh");
    let q = grid.shape.q;
    let (i, j, _) = grid.coords;

    // Initial skew (Figure 1a): A_{i,j} → p_{i, j-i}; B_{i,j} → p_{i-j, j}.
    let mut a = grid.row.shift(ctx, -(i as isize), Arc::clone(a_local));
    let mut b = grid.col.shift(ctx, -(j as isize), Arc::clone(b_local));

    let mut c = a.matmul(&b, &mut ctx.meter);
    for _step in 1..q {
        // Figure 1b: shift A left by one, B up by one.
        a = grid.row.shift(ctx, -1, a);
        b = grid.col.shift(ctx, -1, b);
        let partial = a.matmul(&b, &mut ctx.meter);
        c.add_assign(&partial, &mut ctx.meter);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::{CollectiveOp, RunConfig};
    use tesseract_core::partition::{b_block, combine_b};
    use tesseract_core::GridShape;
    use tesseract_tensor::{assert_slices_close, matmul::gemm, DenseTensor, Matrix, Orient};

    fn run_cannon(q: usize, a: &Matrix, b: &Matrix) -> Matrix {
        let shape = GridShape::new(q, 1);
        let out = RunConfig::from_env(q * q).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, _) = grid.coords;
            // With d = 1, A/B/C all use plain q×q 2-D blocks.
            let a_loc = Arc::new(DenseTensor::from_matrix(b_block(a, shape, i, j)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(b, shape, i, j)));
            cannon_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        combine_b(&out.results, shape)
    }

    #[test]
    fn cannon_matches_serial_2x2() {
        let a = Matrix::seeded(4, 6, 1);
        let b = Matrix::seeded(6, 8, 2);
        let got = run_cannon(2, &a, &b);
        assert_slices_close(got.data(), gemm(Orient::Nn, &a, &b).data(), 1e-4);
    }

    #[test]
    fn cannon_matches_serial_3x3() {
        let a = Matrix::seeded(6, 9, 3);
        let b = Matrix::seeded(9, 6, 4);
        let got = run_cannon(3, &a, &b);
        assert_slices_close(got.data(), gemm(Orient::Nn, &a, &b).data(), 1e-4);
    }

    #[test]
    fn cannon_matches_serial_4x4() {
        let a = Matrix::seeded(8, 8, 5);
        let b = Matrix::seeded(8, 8, 6);
        let got = run_cannon(4, &a, &b);
        assert_slices_close(got.data(), gemm(Orient::Nn, &a, &b).data(), 1e-4);
    }

    #[test]
    fn cannon_uses_only_shifts() {
        let a = Matrix::seeded(4, 4, 7);
        let b = Matrix::seeded(4, 4, 8);
        let shape = GridShape::new(2, 1);
        let out = RunConfig::from_env(4).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, _) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(b_block(&a, shape, i, j)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
            let _ = cannon_matmul(&grid, ctx, &a_loc, &b_loc);
        });
        assert!(out.comm.get(CollectiveOp::Shift).calls > 0);
        assert_eq!(out.comm.get(CollectiveOp::Broadcast).calls, 0);
        // 2 skew shifts + 2 shifts per extra step, per row/col group:
        // q=2 → per group-pair: skew (2 groups * 2 rows... counted per call.
        // 2 rows + 2 cols skew = 4 calls, plus step 1: 4 calls = 8 total.
        assert_eq!(out.comm.get(CollectiveOp::Shift).calls, 8);
    }
}
