//! Criterion benchmarks of the distributed matmul algorithms running real
//! dense math on the simulated cluster (small blocks; p = 4), comparing the
//! per-algorithm host cost of Tesseract, SUMMA, Cannon and 2.5-D.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tesseract_baselines::cannon::{cannon_matmul, cannon_mesh};
use tesseract_baselines::solomonik::{solomonik_grid, solomonik_matmul};
use tesseract_baselines::summa::{summa_matmul, summa_mesh};
use tesseract_comm::Cluster;
use tesseract_core::mm::tesseract_matmul;
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{GridShape, TesseractGrid};
use tesseract_tensor::{DenseTensor, Matrix, Xoshiro256StarStar};

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

fn bench_algorithms(c: &mut Criterion) {
    let n = 32usize;
    let a = random(n, n, 1);
    let b = random(n, n, 2);
    let mut group = c.benchmark_group("distributed_matmul_32");
    group.sample_size(10);

    group.bench_function("tesseract_2x2x2", |bench| {
        let shape = GridShape::new(2, 2);
        bench.iter(|| {
            Cluster::a100(8).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
                let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
                black_box(tesseract_matmul(&grid, ctx, &a_loc, &b_loc));
            })
        })
    });

    group.bench_function("summa_2x2", |bench| {
        let shape = GridShape::new(2, 1);
        bench.iter(|| {
            Cluster::a100(4).run(|ctx| {
                let grid = summa_mesh(ctx, 2, 0);
                let (i, j, _) = grid.coords;
                let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
                let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
                black_box(summa_matmul(&grid, ctx, &a_loc, &b_loc));
            })
        })
    });

    group.bench_function("cannon_2x2", |bench| {
        let shape = GridShape::new(2, 1);
        bench.iter(|| {
            Cluster::a100(4).run(|ctx| {
                let grid = cannon_mesh(ctx, 2, 0);
                let (i, j, _) = grid.coords;
                let a_loc = DenseTensor::from_matrix(b_block(&a, shape, i, j));
                let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
                black_box(cannon_matmul(&grid, ctx, &a_loc, &b_loc));
            })
        })
    });

    group.bench_function("solomonik_2x2x2", |bench| {
        let shape2d = GridShape::new(2, 1);
        bench.iter(|| {
            Cluster::a100(8).run(|ctx| {
                let grid = solomonik_grid(ctx, 2, 2, 0);
                let (i, j, k) = grid.coords;
                let a_loc = (k == 0).then(|| DenseTensor::from_matrix(b_block(&a, shape2d, i, j)));
                let b_loc = (k == 0).then(|| DenseTensor::from_matrix(b_block(&b, shape2d, i, j)));
                black_box(solomonik_matmul(&grid, ctx, a_loc, b_loc));
            })
        })
    });

    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
