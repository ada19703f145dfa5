//! Quickstart: run one Tesseract 2.5-D matrix multiplication on a simulated
//! 8-GPU cluster (`[q=2, q=2, d=2]`), verify it against serial matmul, and
//! inspect the communication statistics.
//!
//! Run: `cargo run --release --example quickstart`

use tesseract_repro::comm::RunConfig;
use tesseract_repro::core::mm::tesseract_matmul;
use tesseract_repro::core::partition::{a_block, b_block, combine_c};
use tesseract_repro::core::{GridShape, TesseractGrid};
use tesseract_repro::tensor::matmul::{gemm, Orient};
use tesseract_repro::tensor::{max_rel_diff, DenseTensor, Matrix, Xoshiro256StarStar};

fn main() {
    // The arrangement: p = q²·d = 8 processors as 2 layers of 2×2 meshes.
    let shape = GridShape::new(2, 2);
    println!(
        "Tesseract quickstart: C = A x B on a [{}, {}, {}] grid ({} simulated GPUs)\n",
        shape.q,
        shape.q,
        shape.d,
        shape.size()
    );

    // Global problem: A [16, 8] x B [8, 12].
    let mut rng = Xoshiro256StarStar::seed_from_u64(42);
    let a = Matrix::random_uniform(16, 8, -1.0, 1.0, &mut rng);
    let b = Matrix::random_uniform(8, 12, -1.0, 1.0, &mut rng);

    // SPMD: each rank takes its Figure-4 block and runs Algorithm 3.
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_local = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_local = std::sync::Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        tesseract_matmul(&grid, ctx, &a_local, &b_local).into_matrix()
    });

    // Combine the distributed C blocks and compare against serial matmul.
    let c_distributed = combine_c(&out.results, shape);
    let c_serial = gemm(Orient::Nn, &a, &b);
    let err = max_rel_diff(c_distributed.data(), c_serial.data());
    println!("max relative error vs serial matmul: {err:.3e}");
    assert!(err < 1e-5, "distributed result must match serial");

    println!("simulated time: {:.3} µs", out.makespan() * 1e6);
    println!("\ncollective traffic:\n{}", out.comm.render_table());
    println!("OK — Tesseract reproduced the serial product exactly.");
}
