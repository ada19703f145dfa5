//! Matrix partitioning per Figure 4.
//!
//! * **A-type** (inputs, activations, outputs): a global `[a, b]` matrix is
//!   split into `q·d` row blocks × `q` column blocks; rank `(i, j, k)` owns
//!   block `(h, j)` with `h = i + k·q`, of shape `[a/(q·d), b/q]`.
//! * **B-type** (weights): a global `[b, c]` matrix is split into `q×q`
//!   blocks; rank `(i, j, k)` owns block `(i, j)` of shape `[b/q, c/q]`,
//!   **replicated across depth** — this replication is the extra `d` factor
//!   in the paper's memory formula (Eq. 8) and what the depth all-reduce of
//!   `B'` synchronizes in backward.
//!
//! These helpers operate on dense [`Matrix`] values and are used by tests,
//! examples and the verification binaries to move between global and
//! per-rank views.

use tesseract_tensor::Matrix;

use crate::grid::GridShape;

/// Checks `[rows, cols]` divides evenly into the A-type partition grid.
pub fn validate_a_dims(shape: GridShape, rows: usize, cols: usize) {
    assert_eq!(rows % (shape.q * shape.d), 0, "rows {rows} not divisible by q*d");
    assert_eq!(cols % shape.q, 0, "cols {cols} not divisible by q");
}

/// Checks `[rows, cols]` divides evenly into the B-type partition grid.
pub fn validate_b_dims(shape: GridShape, rows: usize, cols: usize) {
    assert_eq!(rows % shape.q, 0, "rows {rows} not divisible by q");
    assert_eq!(cols % shape.q, 0, "cols {cols} not divisible by q");
}

/// Local A-type block shape for a global `[rows, cols]`.
pub fn a_block_shape(shape: GridShape, rows: usize, cols: usize) -> (usize, usize) {
    validate_a_dims(shape, rows, cols);
    (rows / (shape.q * shape.d), cols / shape.q)
}

/// Local B-type block shape for a global `[rows, cols]`.
pub fn b_block_shape(shape: GridShape, rows: usize, cols: usize) -> (usize, usize) {
    validate_b_dims(shape, rows, cols);
    (rows / shape.q, cols / shape.q)
}

/// The A-type block owned by rank `(i, j, k)` (Figure 4a).
pub fn a_block(global: &Matrix, shape: GridShape, i: usize, j: usize, k: usize) -> Matrix {
    let (br, bc) = a_block_shape(shape, global.rows(), global.cols());
    let h = shape.a_row_block(i, k);
    global.block(h * br, j * bc, br, bc)
}

/// The B-type block owned by rank `(i, j, ·)` (Figure 4b; depth-replicated).
pub fn b_block(global: &Matrix, shape: GridShape, i: usize, j: usize) -> Matrix {
    let (br, bc) = b_block_shape(shape, global.rows(), global.cols());
    global.block(i * br, j * bc, br, bc)
}

/// Splits a global A-type matrix into per-rank blocks indexed by grid
/// offset (`k·q² + i·q + j`).
pub fn split_a(global: &Matrix, shape: GridShape) -> Vec<Matrix> {
    (0..shape.size())
        .map(|off| {
            let (i, j, k) = shape.coords_of(off);
            a_block(global, shape, i, j, k)
        })
        .collect()
}

/// Splits a global B-type matrix into per-rank blocks indexed by grid
/// offset (each depth layer receives an identical copy).
pub fn split_b(global: &Matrix, shape: GridShape) -> Vec<Matrix> {
    (0..shape.size())
        .map(|off| {
            let (i, j, _k) = shape.coords_of(off);
            b_block(global, shape, i, j)
        })
        .collect()
}

/// Combines per-rank A/C-type blocks (indexed by grid offset) back into the
/// global matrix (Figure 4c). Blocks from different depth layers land in
/// different row bands; depth replicas of C do not exist (each layer owns
/// distinct rows `h = i + k·q`).
pub fn combine_c(parts: &[Matrix], shape: GridShape) -> Matrix {
    assert_eq!(parts.len(), shape.size(), "need one block per rank");
    let (br, bc) = parts[0].shape();
    assert!(parts.iter().all(|p| p.shape() == (br, bc)), "ragged C blocks");
    let mut global = Matrix::zeros(br * shape.q * shape.d, bc * shape.q);
    for (off, part) in parts.iter().enumerate() {
        let (i, j, k) = shape.coords_of(off);
        let h = shape.a_row_block(i, k);
        global.set_block(h * br, j * bc, part);
    }
    global
}

/// Combines B-type blocks from depth layer 0 back into the global matrix
/// (used to inspect weights after training).
pub fn combine_b(parts: &[Matrix], shape: GridShape) -> Matrix {
    assert_eq!(parts.len(), shape.size(), "need one block per rank");
    let (br, bc) = parts[0].shape();
    let mut global = Matrix::zeros(br * shape.q, bc * shape.q);
    for (off, part) in parts.iter().enumerate() {
        let (i, j, k) = shape.coords_of(off);
        if k == 0 {
            global.set_block(i * br, j * bc, part);
        }
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_split_combine_round_trip() {
        let shape = GridShape::new(2, 2);
        let global = Matrix::seeded(8, 6, 1);
        let parts = split_a(&global, shape);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts[0].shape(), (2, 3));
        assert_eq!(combine_c(&parts, shape), global);
    }

    #[test]
    fn b_split_is_depth_replicated() {
        let shape = GridShape::new(2, 3);
        let global = Matrix::seeded(4, 4, 2);
        let parts = split_b(&global, shape);
        // Same (i, j) across k must be identical.
        for i in 0..2 {
            for j in 0..2 {
                let p0 = &parts[shape.offset_of(i, j, 0)];
                for k in 1..3 {
                    assert_eq!(&parts[shape.offset_of(i, j, k)], p0);
                }
            }
        }
        assert_eq!(combine_b(&parts, shape), global);
    }

    #[test]
    fn a_block_uses_h_equals_i_plus_kq() {
        let shape = GridShape::new(2, 2);
        let global = Matrix::from_fn(8, 2, |i, _| i as f32);
        // Rank (0, 0, 1) owns row block h = 0 + 1*2 = 2 → global rows 4..6.
        let blk = a_block(&global, shape, 0, 0, 1);
        assert_eq!(blk.data(), &[4.0, 5.0]);
    }

    #[test]
    fn d1_reduces_to_summa_partitioning() {
        let shape = GridShape::new(2, 1);
        let global = Matrix::seeded(4, 4, 3);
        let a_parts = split_a(&global, shape);
        let b_parts = split_b(&global, shape);
        // With d = 1, A and B partitioning coincide (plain 2-D blocks).
        assert_eq!(a_parts, b_parts);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_dims_panic() {
        a_block_shape(GridShape::new(2, 2), 6, 4);
    }
}
