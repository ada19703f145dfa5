//! Property-based tests for the Tesseract core: partitioning bijections,
//! grid coordinate bijections, the distributed matmul against serial on
//! randomized shapes, and the closed-form analysis invariants.

use proptest::prelude::*;
use tesseract_comm::Cluster;
use tesseract_core::analysis;
use tesseract_core::mm::tesseract_matmul;
use tesseract_core::partition::{a_block, b_block, combine_c, split_a, split_b};
use tesseract_core::{GridShape, TesseractGrid};
use tesseract_tensor::{matmul::matmul, max_rel_diff, DenseTensor, Matrix, Xoshiro256StarStar};

fn grid_strategy() -> impl Strategy<Value = GridShape> {
    (1usize..4, 1usize..4).prop_map(|(q, d)| GridShape::new(q, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grid_coords_are_a_bijection(shape in grid_strategy()) {
        let mut seen = std::collections::HashSet::new();
        for off in 0..shape.size() {
            let (i, j, k) = shape.coords_of(off);
            prop_assert!(i < shape.q && j < shape.q && k < shape.d);
            prop_assert_eq!(shape.offset_of(i, j, k), off);
            prop_assert!(seen.insert((i, j, k)));
        }
    }

    #[test]
    fn a_partition_round_trips(shape in grid_strategy(), mult_r in 1usize..3, mult_c in 1usize..3, seed in 0u64..1000) {
        let rows = shape.q * shape.d * mult_r;
        let cols = shape.q * mult_c;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let global = Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng);
        let parts = split_a(&global, shape);
        prop_assert_eq!(combine_c(&parts, shape), global);
    }

    #[test]
    fn b_partition_is_depth_replicated(shape in grid_strategy(), mult in 1usize..3, seed in 0u64..1000) {
        let n = shape.q * mult;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let global = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let parts = split_b(&global, shape);
        for off in 0..shape.size() {
            let (i, j, _) = shape.coords_of(off);
            prop_assert_eq!(&parts[off], &parts[shape.offset_of(i, j, 0)]);
        }
    }

    #[test]
    fn blocks_cover_global_exactly_once(shape in grid_strategy(), seed in 0u64..1000) {
        // Sum of ones through the A partition covers each cell once.
        let rows = shape.q * shape.d * 2;
        let cols = shape.q * 2;
        let _ = seed;
        let ones = Matrix::full(rows, cols, 1.0);
        let parts = split_a(&ones, shape);
        let total: f32 = parts.iter().map(|p| p.sum()).sum();
        prop_assert!((total - (rows * cols) as f32).abs() < 1e-3);
    }

    #[test]
    fn analysis_formulas_are_positive_and_ordered(q in 2usize..8) {
        let p = q * q * q;
        let cannon = analysis::transmissions_cannon(p);
        let d25 = analysis::transmissions_25d(p);
        let tess = analysis::transmissions_tesseract_cube(p);
        prop_assert!(cannon > 0.0 && d25 > 0.0 && tess > 0.0);
        prop_assert!(tess < d25);
        prop_assert!(d25 < cannon);
    }

    #[test]
    fn memory_formula_matches_block_shapes(shape in grid_strategy(), mr in 1usize..4, mc in 1usize..4) {
        let a_rows = shape.q * shape.d * mr;
        let inner = shape.q * mc;
        let b_cols = shape.q * (mc + 1);
        let formula = analysis::memory_tesseract(a_rows, inner, b_cols, shape.q, shape.d);
        let a = (a_rows / (shape.q * shape.d)) * (inner / shape.q);
        let b = (inner / shape.q) * (b_cols / shape.q);
        let c = (a_rows / (shape.q * shape.d)) * (b_cols / shape.q);
        prop_assert!((formula - (a + b + c) as f64).abs() < 1e-6);
    }
}

proptest! {
    // Fewer cases: each spawns a simulated cluster.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tesseract_matmul_matches_serial_on_random_shapes(
        q in 1usize..3,
        d in 1usize..3,
        mr in 1usize..3,
        mk in 1usize..3,
        mn in 1usize..3,
        seed in 0u64..1000,
    ) {
        let shape = GridShape::new(q, d);
        let (a_rows, inner, b_cols) = (q * d * mr, q * mk, q * mn);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(a_rows, inner, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(inner, b_cols, -1.0, 1.0, &mut rng);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
            let b_loc = std::sync::Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
            tesseract_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        let got = combine_c(&out.results, shape);
        let expected = matmul(&a, &b);
        prop_assert!(max_rel_diff(got.data(), expected.data()) < 1e-4);
    }

    #[test]
    fn tesseract_matmul_wire_bytes_match_closed_form(
        q in 2usize..4,
        d in 1usize..3,
        mr in 1usize..3,
    ) {
        // Broadcast volume of Algorithm 3: per step t there are q·d row
        // groups broadcasting an A block and q·d column groups broadcasting
        // a B block, each to q−1 peers.
        let shape = GridShape::new(q, d);
        let (a_rows, inner, b_cols) = (q * d * mr * 2, q * 2, q * 3);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let a_loc =
                std::sync::Arc::new(tesseract_tensor::ShadowTensor::new(a_rows / (q * d), inner / q));
            let b_loc =
                std::sync::Arc::new(tesseract_tensor::ShadowTensor::new(inner / q, b_cols / q));
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        });
        let a_block_bytes = (a_rows / (q * d)) * (inner / q) * 4;
        let b_block_bytes = (inner / q) * (b_cols / q) * 4;
        let expected = q * q * d * (q - 1) * (a_block_bytes + b_block_bytes);
        prop_assert_eq!(out.comm.total_wire_bytes(), expected as u64);
    }
}
