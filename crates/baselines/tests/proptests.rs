//! Property-based tests for the baseline algorithms: Cannon and SUMMA must
//! match serial matmul for randomized mesh sizes and block contents, and
//! Megatron's column/row split must tile the global weights.

use proptest::prelude::*;
use tesseract_baselines::cannon::{cannon_matmul, cannon_mesh};
use tesseract_baselines::megatron::{MegatronLinear, MegatronWorld, Split};
use tesseract_baselines::summa::{summa_matmul, summa_mesh};
use tesseract_comm::Cluster;
use tesseract_core::partition::{b_block, combine_b};
use tesseract_core::{GridShape, Module};
use tesseract_tensor::{
    init::global_xavier, matmul::matmul, max_rel_diff, DenseTensor, Matrix, Xoshiro256StarStar,
};

proptest! {
    // Each case spawns a simulated cluster; keep counts small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cannon_matches_serial_for_random_meshes(q in 2usize..4, m in 1usize..3, seed in 0u64..1000) {
        let shape = GridShape::new(q, 1);
        let n = q * m * 2;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let out = Cluster::a100(q * q).run(|ctx| {
            let grid = cannon_mesh(ctx, q, 0);
            let (i, j, _) = grid.coords;
            let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
            let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
            cannon_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        let got = combine_b(&out.results, shape);
        prop_assert!(max_rel_diff(got.data(), matmul(&a, &b).data()) < 1e-4);
    }

    #[test]
    fn summa_matches_serial_for_random_meshes(q in 2usize..4, m in 1usize..3, seed in 0u64..1000) {
        let shape = GridShape::new(q, 1);
        let n = q * m * 2;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let a = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let out = Cluster::a100(q * q).run(|ctx| {
            let grid = summa_mesh(ctx, q, 0);
            let (i, j, _) = grid.coords;
            let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
            let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
            summa_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        let got = combine_b(&out.results, shape);
        prop_assert!(max_rel_diff(got.data(), matmul(&a, &b).data()) < 1e-4);
    }

    #[test]
    fn megatron_column_blocks_tile_the_global_weight(p in 2usize..5, seed in 0u64..1000) {
        let (inf, outf) = (4usize, 4 * p);
        let global = global_xavier(inf, outf, seed, 3);
        let out = Cluster::a100(p).run(|ctx| {
            let world = MegatronWorld::new(ctx, (0..p).collect());
            let lin = MegatronLinear::<DenseTensor>::new(
                &world, Split::Column, inf, outf, false, seed, 3,
            );
            lin.weight().clone().into_matrix()
        });
        let assembled = Matrix::concat_cols(&out.results);
        prop_assert_eq!(assembled, global);
    }

    #[test]
    fn megatron_row_linear_matches_serial(p in 2usize..5, seed in 0u64..1000) {
        let (inf, outf) = (4usize * p, 6usize);
        let rows = 5usize;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xabc);
        let x = Matrix::random_uniform(rows, inf, -1.0, 1.0, &mut rng);
        let w = global_xavier(inf, outf, seed, 9);
        let expected = matmul(&x, &w);
        let out = Cluster::a100(p).run(|ctx| {
            let world = MegatronWorld::new(ctx, (0..p).collect());
            let mut lin = MegatronLinear::<DenseTensor>::new(
                &world, Split::Row, inf, outf, false, seed, 9,
            );
            // Row-parallel input: this rank's column slice of x.
            let cols = inf / p;
            let r = world.index;
            let x_loc =
                std::sync::Arc::new(DenseTensor::from_matrix(x.slice_cols(r * cols, (r + 1) * cols)));
            lin.forward(&world, ctx, &x_loc).matrix().clone()
        });
        for y in &out.results {
            prop_assert!(max_rel_diff(y.data(), expected.data()) < 1e-4);
        }
    }
}
