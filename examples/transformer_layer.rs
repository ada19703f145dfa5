//! A full Tesseract-parallel Transformer layer (paper §3.2): forward and
//! backward on a `[2, 2, 2]` grid, verified against the independent serial
//! reference, with the per-scheme communication volumes compared against
//! Megatron-LM 1-D on the same problem.
//!
//! Run: `cargo run --release --example transformer_layer`

use tesseract_repro::baselines::megatron::{MegatronTransformerLayer, MegatronWorld};
use tesseract_repro::baselines::serial::SerialTransformerLayer;
use tesseract_repro::comm::RunConfig;
use tesseract_repro::core::partition::{a_block, combine_c};
use tesseract_repro::core::{
    GridShape, Module, TesseractGrid, TesseractTransformerLayer, TransformerConfig,
};
use tesseract_repro::tensor::{max_rel_diff, DenseTensor, Matrix, Xoshiro256StarStar};

fn main() {
    let cfg = TransformerConfig {
        batch: 4,
        seq: 6,
        hidden: 16,
        heads: 4,
        mlp_ratio: 4,
        layers: 1,
        eps: 1e-5,
    };
    let seed = 2022;
    let mut rng = Xoshiro256StarStar::seed_from_u64(9);
    let x = Matrix::random_uniform(cfg.rows(), cfg.hidden, -1.0, 1.0, &mut rng);
    let dy = Matrix::random_uniform(cfg.rows(), cfg.hidden, -1.0, 1.0, &mut rng);

    // Serial oracle.
    let mut serial = SerialTransformerLayer::new(cfg, true, seed, 0);
    let y_ser = serial.forward(&x);
    let dx_ser = serial.backward(&dy);

    // Tesseract [2,2,2].
    let shape = GridShape::new(2, 2);
    let tess = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut layer = TesseractTransformerLayer::<DenseTensor>::new(&grid, cfg, true, seed, 0);
        let x_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let y = layer.forward(&grid, ctx, &x_loc);
        let dx = layer.backward(&grid, ctx, &dy_loc);
        (y.matrix().clone(), dx.matrix().clone())
    });
    let y_tess = combine_c(&tess.results.iter().map(|(y, _)| y.clone()).collect::<Vec<_>>(), shape);
    let dx_tess =
        combine_c(&tess.results.iter().map(|(_, d)| d.clone()).collect::<Vec<_>>(), shape);

    println!("Tesseract [2,2,2] vs serial oracle:");
    println!("  forward  max rel err: {:.3e}", max_rel_diff(y_tess.data(), y_ser.data()));
    println!("  backward max rel err: {:.3e}", max_rel_diff(dx_tess.data(), dx_ser.data()));

    // Megatron-LM on 4 GPUs for comparison.
    let mega = RunConfig::from_env(4).run(|ctx| {
        let world = MegatronWorld::new(ctx, (0..4).collect());
        let mut layer = MegatronTransformerLayer::<DenseTensor>::new(&world, cfg, true, seed, 0);
        let x_full = std::sync::Arc::new(DenseTensor::from_matrix(x.clone()));
        let dy_full = std::sync::Arc::new(DenseTensor::from_matrix(dy.clone()));
        let y = layer.forward(&world, ctx, &x_full);
        let dx = layer.backward(&world, ctx, &dy_full);
        (y.matrix().clone(), dx.matrix().clone())
    });
    let (y_mega, dx_mega) = &mega.results[0];
    println!("\nMegatron-LM [4] vs serial oracle:");
    println!("  forward  max rel err: {:.3e}", max_rel_diff(y_mega.data(), y_ser.data()));
    println!("  backward max rel err: {:.3e}", max_rel_diff(dx_mega.data(), dx_ser.data()));

    println!("\ncommunication, one fwd+bwd of this layer:");
    println!(
        "  Tesseract [2,2,2] (8 GPUs): {} bytes over {} collectives",
        tess.comm.total_wire_bytes(),
        tess.comm.total_calls()
    );
    println!(
        "  Megatron  [4]     (4 GPUs): {} bytes over {} collectives",
        mega.comm.total_wire_bytes(),
        mega.comm.total_calls()
    );
    println!("\nAll schemes compute the same function — the difference is where the");
    println!("data lives and what must be communicated (paper §3).");
}
