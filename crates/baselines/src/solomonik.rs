//! Solomonik & Demmel's 2.5-D matrix multiplication (paper §2.3):
//! replicate the inputs across `d` layers, split the reduction dimension
//! across layers, and combine partial results with a depth all-reduce.
//!
//! The original paper formulates the per-layer schedule with Cannon-style
//! shifts; we use the SUMMA-style broadcast schedule (each layer performs
//! `q/d` of the `q` broadcast steps), which moves the same asymptotic
//! volume `Θ(n²/√(d·p))` and keeps the comparison with Tesseract apples to
//! apples (both then differ only in *what* is replicated: 2.5-D replicates
//! `A`, `B` **and** accumulates `C` across layers, Tesseract replicates
//! only `B`). This substitution is recorded in DESIGN.md.
//!
//! Requires `d | q`.

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_core::{GridShape, TesseractGrid};
use tesseract_tensor::TensorLike;

/// Creates the `[q, q, d]` grid for the 2.5-D algorithm.
pub fn solomonik_grid(ctx: &RankCtx, q: usize, d: usize, base: usize) -> TesseractGrid {
    assert_eq!(q % d, 0, "2.5-D needs d | q");
    TesseractGrid::new(ctx, GridShape::new(q, d), base)
}

/// `C = A·B` on the 2.5-D grid.
///
/// Inputs live on layer 0 as natural `q×q` blocks (`[a/q, b/q]`,
/// `[b/q, c/q]`); the function returns this rank's `[a/q, c/q]` block of
/// `C`, valid on **every** layer (replicated by the final all-reduce).
/// Ranks on layers `k > 0` pass `None`.
pub fn solomonik_matmul<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: Option<T>,
    b_local: Option<T>,
) -> T
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    let d = grid.shape.d;
    assert_eq!(q % d, 0, "2.5-D needs d | q");
    let (i, j, k) = grid.coords;
    assert_eq!(a_local.is_some(), k == 0, "layer-0 ranks must provide A");
    assert_eq!(b_local.is_some(), k == 0, "layer-0 ranks must provide B");

    // Step 1: replicate A and B across the depth fiber.
    let a = grid.depth.broadcast_shared(ctx, 0, a_local.map(Arc::new));
    let b = grid.depth.broadcast_shared(ctx, 0, b_local.map(Arc::new));

    // Step 2: layer k performs SUMMA steps t ∈ [k·q/d, (k+1)·q/d).
    let steps = q / d;
    let mut c: Option<T> = None;
    for s in 0..steps {
        let t = k * steps + s;
        let a_t = grid.row.broadcast_shared(ctx, t, (j == t).then(|| Arc::clone(&a)));
        let b_t = grid.col.broadcast_shared(ctx, t, (i == t).then(|| Arc::clone(&b)));
        let partial = a_t.matmul(&b_t, &mut ctx.meter);
        match c.as_mut() {
            None => c = Some(partial),
            Some(acc) => acc.add_assign(&partial, &mut ctx.meter),
        }
    }
    let c = c.expect("q/d >= 1");

    // Step 3: sum the per-layer partial products across depth.
    if d > 1 {
        Arc::unwrap_or_clone(grid.depth.all_reduce_shared(ctx, c))
    } else {
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::Cluster;
    use tesseract_core::partition::{b_block, combine_b};
    use tesseract_tensor::{assert_slices_close, matmul, DenseTensor, Matrix, Xoshiro256StarStar};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    fn run(q: usize, d: usize, a: &Matrix, b: &Matrix) -> Vec<Matrix> {
        let shape2d = GridShape::new(q, 1);
        Cluster::a100(q * q * d)
            .run(|ctx| {
                let grid = solomonik_grid(ctx, q, d, 0);
                let (i, j, k) = grid.coords;
                let a_loc = (k == 0).then(|| DenseTensor::from_matrix(b_block(a, shape2d, i, j)));
                let b_loc = (k == 0).then(|| DenseTensor::from_matrix(b_block(b, shape2d, i, j)));
                solomonik_matmul(&grid, ctx, a_loc, b_loc).into_matrix()
            })
            .results
    }

    #[test]
    fn matches_serial_2x2x2() {
        let (q, d) = (2, 2);
        let a = random(4, 6, 1);
        let b = random(6, 4, 2);
        let results = run(q, d, &a, &b);
        // Layer 0's blocks assemble to the global product.
        let layer0: Vec<Matrix> = results[..q * q].to_vec();
        let got = combine_b(&layer0, GridShape::new(q, 1));
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matches_serial_4x4x2() {
        let (q, d) = (4, 2);
        let a = random(8, 8, 3);
        let b = random(8, 8, 4);
        let results = run(q, d, &a, &b);
        let layer0: Vec<Matrix> = results[..q * q].to_vec();
        let got = combine_b(&layer0, GridShape::new(q, 1));
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn result_is_replicated_across_layers() {
        let (q, d) = (2, 2);
        let a = random(4, 4, 5);
        let b = random(4, 4, 6);
        let results = run(q, d, &a, &b);
        for off in q * q..2 * q * q {
            assert_eq!(results[off], results[off - q * q], "layer 1 must mirror layer 0");
        }
    }

    #[test]
    fn d1_degenerates_to_summa() {
        // §2.3: "In special cases like d = 1, the 2.5-D algorithm
        // degenerates to [the 2-D algorithm]".
        let q = 2;
        let a = random(4, 4, 7);
        let b = random(4, 4, 8);
        let results = run(q, 1, &a, &b);
        let got = combine_b(&results, GridShape::new(q, 1));
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "d | q")]
    fn rejects_indivisible_depth() {
        let _ = run(3, 2, &random(6, 6, 9), &random(6, 6, 10));
    }
}
