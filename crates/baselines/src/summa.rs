//! SUMMA (paper §2.2, Algorithm 2): 2-D matmul by row/column broadcasts on
//! a `[q, q]` mesh — the algorithm Optimus builds on and the `d = 1`
//! special case of Tesseract. Implemented standalone (not by delegating to
//! `tesseract_matmul`) so the equivalence `SUMMA ≡ Tesseract(d=1)` can be
//! *tested* rather than assumed.

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_core::{GridShape, TesseractGrid};
use tesseract_tensor::TensorLike;

/// Creates the `[q, q]` mesh SUMMA runs on.
pub fn summa_mesh(ctx: &RankCtx, q: usize, base: usize) -> TesseractGrid {
    TesseractGrid::new(ctx, GridShape::new(q, 1), base)
}

/// `C = A·B` with all matrices in natural `q×q` block layout.
pub fn summa_matmul<T>(grid: &TesseractGrid, ctx: &mut RankCtx, a_local: &T, b_local: &T) -> T
where
    T: TensorLike + Payload,
{
    assert_eq!(grid.shape.d, 1, "SUMMA runs on a [q, q] mesh");
    let q = grid.shape.q;
    let (i, j, _) = grid.coords;
    let mut c: Option<T> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast_shared(ctx, t, (j == t).then(|| Arc::new(a_local.clone())));
        let b_t = grid.col.broadcast_shared(ctx, t, (i == t).then(|| Arc::new(b_local.clone())));
        let partial = a_t.matmul(&b_t, &mut ctx.meter);
        match c.as_mut() {
            None => c = Some(partial),
            Some(acc) => acc.add_assign(&partial, &mut ctx.meter),
        }
    }
    c.expect("q >= 1")
}

/// SUMMA backward rules (Eq. 3): `A' = C'·Bᵀ`.
pub fn summa_matmul_nt<T>(grid: &TesseractGrid, ctx: &mut RankCtx, a_local: &T, b_local: &T) -> T
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    let (i, j, _) = grid.coords;
    let mut mine: Option<Arc<T>> = None;
    for t in 0..q {
        let b_t = grid.col.broadcast_shared(ctx, t, (i == t).then(|| Arc::new(b_local.clone())));
        let partial = a_local.matmul_nt(&b_t, &mut ctx.meter);
        let reduced = grid.row.reduce_shared(ctx, t, partial);
        if j == t {
            mine = Some(reduced.expect("root receives reduction"));
        }
    }
    Arc::unwrap_or_clone(mine.expect("every rank is root once"))
}

/// SUMMA backward rules (Eq. 3): `B' = Aᵀ·C'`.
pub fn summa_matmul_tn<T>(grid: &TesseractGrid, ctx: &mut RankCtx, a_local: &T, b_local: &T) -> T
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    let (i, j, _) = grid.coords;
    let mut mine: Option<Arc<T>> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast_shared(ctx, t, (j == t).then(|| Arc::new(a_local.clone())));
        let partial = a_t.matmul_tn(b_local, &mut ctx.meter);
        let reduced = grid.col.reduce_shared(ctx, t, partial);
        if i == t {
            mine = Some(reduced.expect("root receives reduction"));
        }
    }
    Arc::unwrap_or_clone(mine.expect("every rank is root once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::Cluster;
    use tesseract_core::mm::tesseract_matmul;
    use tesseract_core::partition::{b_block, combine_b};
    use tesseract_tensor::{assert_slices_close, matmul, DenseTensor, Matrix, Xoshiro256StarStar};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn summa_matches_serial() {
        for q in [2usize, 3] {
            let shape = GridShape::new(q, 1);
            let a = random(2 * q, 3 * q, 1);
            let b = random(3 * q, 2 * q, 2);
            let out = Cluster::a100(q * q).run(|ctx| {
                let grid = summa_mesh(ctx, q, 0);
                let (i, j, _) = grid.coords;
                let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
                let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
                summa_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
            });
            let got = combine_b(&out.results, shape);
            assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
        }
    }

    #[test]
    fn summa_equals_tesseract_depth_one_bitwise() {
        let q = 2;
        let shape = GridShape::new(q, 1);
        let a = random(4, 4, 3);
        let b = random(4, 4, 4);
        let out = Cluster::a100(q * q).run(|ctx| {
            let grid = summa_mesh(ctx, q, 0);
            let (i, j, _) = grid.coords;
            let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
            let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
            let summa = summa_matmul(&grid, ctx, &a_loc, &b_loc);
            let tess =
                tesseract_matmul(&grid, ctx, &Arc::new(a_loc.clone()), &Arc::new(b_loc.clone()));
            summa.matrix() == tess.matrix()
        });
        assert!(out.results.iter().all(|&same| same), "SUMMA must equal Tesseract(d=1) bitwise");
    }

    #[test]
    fn summa_nt_matches_serial() {
        let q = 2;
        let shape = GridShape::new(q, 1);
        let a = random(4, 6, 5); // [a, c]
        let b = random(4, 6, 6); // [b, c] → C = A·Bᵀ is [4, 4]
        let out = Cluster::a100(q * q).run(|ctx| {
            let grid = summa_mesh(ctx, q, 0);
            let (i, j, _) = grid.coords;
            let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
            let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
            summa_matmul_nt(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        let got = combine_b(&out.results, shape);
        assert_slices_close(got.data(), matmul::matmul_nt(&a, &b).data(), 1e-4);
    }

    #[test]
    fn summa_tn_matches_serial() {
        let q = 2;
        let shape = GridShape::new(q, 1);
        let a = random(4, 6, 7); // [a, b]
        let b = random(4, 8, 8); // [a, c] → C = Aᵀ·B is [6, 8]
        let out = Cluster::a100(q * q).run(|ctx| {
            let grid = summa_mesh(ctx, q, 0);
            let (i, j, _) = grid.coords;
            let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
            let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
            summa_matmul_tn(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        let got = combine_b(&out.results, shape);
        assert_slices_close(got.data(), matmul::matmul_tn(&a, &b).data(), 1e-4);
    }
}
