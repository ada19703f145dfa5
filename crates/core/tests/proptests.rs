//! Property tests for the Tesseract core: partitioning bijections, grid
//! coordinate bijections, the distributed matmul (under both SUMMA
//! schedules) against serial on randomized shapes, and the closed-form
//! analysis invariants. Each test loops over its cases and draws every
//! input from its own `Xoshiro256StarStar`, seeded with a constant.

use std::sync::Arc;

use tesseract_comm::RunConfig;
use tesseract_core::analysis;
use tesseract_core::mm::tesseract_matmul;
use tesseract_core::partition::{a_block, b_block, combine_c, split_a, split_b};
use tesseract_core::{GridShape, TesseractGrid};
use tesseract_tensor::matmul::{gemm, Orient};
use tesseract_tensor::{max_rel_diff, DenseTensor, Matrix, ShadowTensor, Xoshiro256StarStar};

/// `[q, q, d]` with `q` and `d` each in `1..4`.
fn grid(rng: &mut Xoshiro256StarStar) -> GridShape {
    GridShape::new(1 + rng.next_usize(3), 1 + rng.next_usize(3))
}

#[test]
fn grid_coords_are_a_bijection() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(301);
    for _ in 0..32 {
        let shape = grid(&mut rng);
        let mut seen = std::collections::HashSet::new();
        for off in 0..shape.size() {
            let (i, j, k) = shape.coords_of(off);
            assert!(i < shape.q && j < shape.q && k < shape.d);
            assert_eq!(shape.offset_of(i, j, k), off);
            assert!(seen.insert((i, j, k)));
        }
    }
}

#[test]
fn a_partition_round_trips() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(302);
    for _ in 0..32 {
        let shape = grid(&mut rng);
        let rows = shape.q * shape.d * (1 + rng.next_usize(2));
        let cols = shape.q * (1 + rng.next_usize(2));
        let global = Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng);
        let parts = split_a(&global, shape);
        assert_eq!(combine_c(&parts, shape), global);
    }
}

#[test]
fn b_partition_is_depth_replicated() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(303);
    for _ in 0..32 {
        let shape = grid(&mut rng);
        let n = shape.q * (1 + rng.next_usize(2));
        let global = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let parts = split_b(&global, shape);
        for off in 0..shape.size() {
            let (i, j, _) = shape.coords_of(off);
            assert_eq!(&parts[off], &parts[shape.offset_of(i, j, 0)]);
        }
    }
}

#[test]
fn blocks_cover_global_exactly_once() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(304);
    for _ in 0..32 {
        let shape = grid(&mut rng);
        // Sum of ones through the A partition covers each cell once.
        let rows = shape.q * shape.d * 2;
        let cols = shape.q * 2;
        let ones = Matrix::full(rows, cols, 1.0);
        let parts = split_a(&ones, shape);
        let total: f32 = parts.iter().map(|p| p.sum()).sum();
        assert!((total - (rows * cols) as f32).abs() < 1e-3);
    }
}

#[test]
fn analysis_formulas_are_positive_and_ordered() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(305);
    for _ in 0..32 {
        let q = 2 + rng.next_usize(6);
        let p = q * q * q;
        let cannon = analysis::transmissions_cannon(p);
        let d25 = analysis::transmissions_25d(p);
        let tess = analysis::transmissions_tesseract_cube(p);
        assert!(cannon > 0.0 && d25 > 0.0 && tess > 0.0);
        assert!(tess < d25);
        assert!(d25 < cannon);
    }
}

#[test]
fn memory_formula_matches_block_shapes() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(306);
    for _ in 0..32 {
        let shape = grid(&mut rng);
        let (mr, mc) = (1 + rng.next_usize(3), 1 + rng.next_usize(3));
        let a_rows = shape.q * shape.d * mr;
        let inner = shape.q * mc;
        let b_cols = shape.q * (mc + 1);
        let formula = analysis::memory_tesseract(a_rows, inner, b_cols, shape.q, shape.d);
        let a = (a_rows / (shape.q * shape.d)) * (inner / shape.q);
        let b = (inner / shape.q) * (b_cols / shape.q);
        let c = (a_rows / (shape.q * shape.d)) * (b_cols / shape.q);
        assert!((formula - (a + b + c) as f64).abs() < 1e-6);
    }
}

// Fewer cases below: each spawns a simulated cluster.

#[test]
fn tesseract_matmul_matches_serial_on_random_shapes() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(307);
    for _ in 0..8 {
        let (q, d) = (1 + rng.next_usize(3), 1 + rng.next_usize(2));
        let (mr, mk, mn) = (1 + rng.next_usize(2), 1 + rng.next_usize(2), 1 + rng.next_usize(2));
        let shape = GridShape::new(q, d);
        let (a_rows, inner, b_cols) = (q * d * mr, q * mk, q * mn);
        let a = Matrix::random_uniform(a_rows, inner, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(inner, b_cols, -1.0, 1.0, &mut rng);
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let mut grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
            let c = tesseract_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix();
            // The blocking schedule (2-D SUMMA at d = 1) gives the same
            // bits as the double-buffered one.
            grid.overlap = false;
            let reference = tesseract_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix();
            (c, reference)
        });
        for (c, reference) in &out.results {
            assert_eq!(c, reference);
        }
        let blocks: Vec<Matrix> = out.results.into_iter().map(|(c, _)| c).collect();
        let got = combine_c(&blocks, shape);
        let expected = gemm(Orient::Nn, &a, &b);
        assert!(max_rel_diff(got.data(), expected.data()) < 1e-4);
    }
}

#[test]
fn tesseract_matmul_wire_bytes_match_closed_form() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(308);
    for _ in 0..8 {
        let (q, d, mr) = (2 + rng.next_usize(2), 1 + rng.next_usize(2), 1 + rng.next_usize(2));
        // Broadcast volume of Algorithm 3: per step t there are q·d row
        // groups broadcasting an A block and q·d column groups broadcasting
        // a B block, each to q−1 peers.
        let shape = GridShape::new(q, d);
        let (a_rows, inner, b_cols) = (q * d * mr * 2, q * 2, q * 3);
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let a_loc = Arc::new(ShadowTensor::new(a_rows / (q * d), inner / q));
            let b_loc = Arc::new(ShadowTensor::new(inner / q, b_cols / q));
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        });
        let a_block_bytes = (a_rows / (q * d)) * (inner / q) * 4;
        let b_block_bytes = (inner / q) * (b_cols / q) * 4;
        let expected = q * q * d * (q - 1) * (a_block_bytes + b_block_bytes);
        assert_eq!(out.comm.total_wire_bytes(), expected as u64);
    }
}
