//! Property tests for the baseline algorithms: Cannon must match serial
//! matmul for randomized mesh sizes and block contents, and Megatron's
//! column/row split must tile the global weights. (SUMMA is Tesseract at
//! `d = 1`; core's property tests cover it.) Each test loops over its cases
//! and draws every input from its own `Xoshiro256StarStar`, seeded with a
//! constant. Each case spawns a simulated cluster, so the counts are small.

use std::sync::Arc;

use tesseract_baselines::cannon::cannon_matmul;
use tesseract_baselines::megatron::{MegatronLinear, MegatronWorld};
use tesseract_comm::RunConfig;
use tesseract_core::layers::Parallel;
use tesseract_core::partition::{b_block, combine_b};
use tesseract_core::{GridShape, Module, TesseractGrid};
use tesseract_tensor::{
    init::global_xavier, matmul::gemm, max_rel_diff, DenseTensor, Matrix, Orient,
    Xoshiro256StarStar,
};

#[test]
fn cannon_matches_serial_for_random_meshes() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(401);
    for _ in 0..6 {
        let (q, m) = (2 + rng.next_usize(2), 1 + rng.next_usize(2));
        let shape = GridShape::new(q, 1);
        let n = q * m * 2;
        let a = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let out = RunConfig::from_env(q * q).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, _) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(b_block(&a, shape, i, j)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
            cannon_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        let got = combine_b(&out.results, shape);
        assert!(max_rel_diff(got.data(), gemm(Orient::Nn, &a, &b).data()) < 1e-4);
    }
}

#[test]
fn megatron_column_blocks_tile_the_global_weight() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(402);
    for _ in 0..6 {
        let (p, seed) = (2 + rng.next_usize(3), rng.next_usize(1000) as u64);
        let (inf, outf) = (4usize, 4 * p);
        let global = global_xavier(inf, outf, seed, 3);
        let out = RunConfig::from_env(p).run(|ctx| {
            let world = MegatronWorld::new(ctx, (0..p).collect());
            let lin = MegatronLinear::<DenseTensor>::new(
                &world,
                Parallel::Column,
                inf,
                outf,
                false,
                seed,
                3,
            );
            lin.weight().clone().into_matrix()
        });
        let assembled = Matrix::concat_cols(&out.results);
        assert_eq!(assembled, global);
    }
}

#[test]
fn megatron_row_linear_matches_serial() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(403);
    for _ in 0..6 {
        let (p, seed) = (2 + rng.next_usize(3), rng.next_usize(1000) as u64);
        let (inf, outf) = (4usize * p, 6usize);
        let rows = 5usize;
        let x = Matrix::random_uniform(rows, inf, -1.0, 1.0, &mut rng);
        let w = global_xavier(inf, outf, seed, 9);
        let expected = gemm(Orient::Nn, &x, &w);
        let out = RunConfig::from_env(p).run(|ctx| {
            let world = MegatronWorld::new(ctx, (0..p).collect());
            let mut lin = MegatronLinear::<DenseTensor>::new(
                &world,
                Parallel::Row,
                inf,
                outf,
                false,
                seed,
                9,
            );
            // Row-parallel input: this rank's column slice of x.
            let cols = inf / p;
            let r = world.index;
            let x_loc = Arc::new(DenseTensor::from_matrix(x.slice_cols(r * cols, (r + 1) * cols)));
            lin.forward(&world, ctx, &x_loc).matrix().clone()
        });
        for y in &out.results {
            assert!(max_rel_diff(y.data(), expected.data()) < 1e-4);
        }
    }
}
