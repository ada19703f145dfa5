//! Cross-scheme numerical parity: every distributed scheme (Tesseract on
//! several `[q, q, d]` arrangements, Megatron-LM 1-D, Optimus 2-D) must
//! compute the same Transformer function and the same gradients as the
//! independent serial oracle — the paper's §4 "we compute the matrix
//! multiplication result and the result using our Tesseract method
//! respectively, to guarantee outputs are the same", and the basis of the
//! Figure-7 accuracy-parity claim.

use std::sync::Arc;
use tesseract_baselines::megatron::{MegatronTransformerLayer, MegatronWorld};
use tesseract_baselines::serial::{SerialTransformer, SerialTransformerLayer};

use tesseract_comm::Cluster;
use tesseract_core::partition::{a_block, combine_c};
use tesseract_core::{
    GridShape, Module, TesseractGrid, TesseractTransformer, TesseractTransformerLayer,
    TransformerConfig,
};
use tesseract_tensor::{assert_slices_close, DenseTensor, Matrix, Xoshiro256StarStar};

const SEED: u64 = 20220829; // ICPP '22 conference date.

fn cfg() -> TransformerConfig {
    TransformerConfig { batch: 4, seq: 3, hidden: 8, heads: 4, mlp_ratio: 2, layers: 1, eps: 1e-5 }
}

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// Runs one Tesseract transformer layer fwd+bwd on `[q, q, d]`; returns
/// (global Y, global dX, global dW of attention's Wo block for spot-check).
fn run_tesseract(
    shape: GridShape,
    c: TransformerConfig,
    x: &Matrix,
    dy: &Matrix,
) -> (Matrix, Matrix, Matrix) {
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut layer = TesseractTransformerLayer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(dy, shape, i, j, k)));
        let y = layer.forward(&grid, ctx, &x_loc);
        let dx = layer.backward(&grid, ctx, &dy_loc);
        let wo_grad = layer.attn.wo.weight_grad().clone();
        (y.matrix().clone(), dx.matrix().clone(), wo_grad.into_matrix())
    });
    let ys: Vec<Matrix> = out.results.iter().map(|(y, _, _)| y.clone()).collect();
    let dxs: Vec<Matrix> = out.results.iter().map(|(_, dx, _)| dx.clone()).collect();
    let wo_grads: Vec<Matrix> = out.results.iter().map(|(_, _, g)| g.clone()).collect();
    (
        combine_c(&ys, shape),
        combine_c(&dxs, shape),
        tesseract_core::partition::combine_b(&wo_grads, shape),
    )
}

fn serial_reference(c: TransformerConfig, x: &Matrix, dy: &Matrix) -> (Matrix, Matrix, Matrix) {
    let mut layer = SerialTransformerLayer::new(c, true, SEED, 0);
    let y = layer.forward(x);
    let dx = layer.backward(dy);
    (y, dx, layer.attn.wo.dw.clone())
}

#[test]
fn tesseract_layer_matches_serial_on_2x2x1() {
    let c = cfg();
    let x = random(c.rows(), c.hidden, 1);
    let dy = random(c.rows(), c.hidden, 2);
    let (y_ser, dx_ser, dwo_ser) = serial_reference(c, &x, &dy);
    let (y, dx, dwo) = run_tesseract(GridShape::new(2, 1), c, &x, &dy);
    assert_slices_close(y.data(), y_ser.data(), 2e-4);
    assert_slices_close(dx.data(), dx_ser.data(), 2e-4);
    assert_slices_close(dwo.data(), dwo_ser.data(), 2e-4);
}

#[test]
fn tesseract_layer_matches_serial_on_2x2x2() {
    let c = cfg();
    let x = random(c.rows(), c.hidden, 1);
    let dy = random(c.rows(), c.hidden, 2);
    let (y_ser, dx_ser, dwo_ser) = serial_reference(c, &x, &dy);
    let (y, dx, dwo) = run_tesseract(GridShape::new(2, 2), c, &x, &dy);
    assert_slices_close(y.data(), y_ser.data(), 2e-4);
    assert_slices_close(dx.data(), dx_ser.data(), 2e-4);
    assert_slices_close(dwo.data(), dwo_ser.data(), 2e-4);
}

#[test]
fn tesseract_layer_matches_serial_on_1x1x1() {
    let c = cfg();
    let x = random(c.rows(), c.hidden, 1);
    let dy = random(c.rows(), c.hidden, 2);
    let (y_ser, dx_ser, dwo_ser) = serial_reference(c, &x, &dy);
    let (y, dx, dwo) = run_tesseract(GridShape::new(1, 1), c, &x, &dy);
    assert_slices_close(y.data(), y_ser.data(), 2e-4);
    assert_slices_close(dx.data(), dx_ser.data(), 2e-4);
    assert_slices_close(dwo.data(), dwo_ser.data(), 2e-4);
}

#[test]
fn tesseract_layer_matches_serial_on_4x4x1_and_2x2x4() {
    // Wider mesh and deeper-than-dimension grid both stay correct.
    let c = TransformerConfig {
        batch: 16,
        seq: 2,
        hidden: 16,
        heads: 4,
        mlp_ratio: 2,
        layers: 1,
        eps: 1e-5,
    };
    let x = random(c.rows(), c.hidden, 3);
    let dy = random(c.rows(), c.hidden, 4);
    let (y_ser, dx_ser, _) = serial_reference(c, &x, &dy);
    for shape in [GridShape::new(4, 1), GridShape::new(2, 4)] {
        let (y, dx, _) = run_tesseract(shape, c, &x, &dy);
        assert_slices_close(y.data(), y_ser.data(), 5e-4);
        assert_slices_close(dx.data(), dx_ser.data(), 5e-4);
    }
}

#[test]
fn megatron_layer_matches_serial() {
    let c = cfg();
    let x = random(c.rows(), c.hidden, 1);
    let dy = random(c.rows(), c.hidden, 2);
    let (y_ser, dx_ser, dwo_ser) = serial_reference(c, &x, &dy);
    for p in [2usize, 4] {
        let out = Cluster::a100(p).run(|ctx| {
            let world = MegatronWorld::new(ctx, (0..p).collect());
            let mut layer =
                MegatronTransformerLayer::<DenseTensor>::new(ctx, &world, c, true, SEED, 0);
            let x_full = Arc::new(DenseTensor::from_matrix(x.clone()));
            let dy_full = Arc::new(DenseTensor::from_matrix(dy.clone()));
            let y = layer.forward(&world, ctx, &x_full);
            let dx = layer.backward(&world, ctx, &dy_full);
            // Wo is row-split [h/p, h]: rank r holds rows r·h/p..(r+1)·h/p.
            let mut dwo_block = None;
            layer.attn.wo.visit_params(&mut |pr| {
                if dwo_block.is_none() {
                    dwo_block = Some(pr.grad.clone());
                }
            });
            (y.matrix().clone(), dx.matrix().clone(), dwo_block.unwrap().into_matrix())
        });
        // Activations are replicated: every rank must hold the full result.
        for (y, dx, _) in &out.results {
            assert_slices_close(y.data(), y_ser.data(), 2e-4);
            assert_slices_close(dx.data(), dx_ser.data(), 2e-4);
        }
        // Row-split Wo gradient blocks assemble to the serial gradient.
        let blocks: Vec<Matrix> = out.results.iter().map(|(_, _, g)| g.clone()).collect();
        let dwo = Matrix::concat_rows(&blocks);
        assert_slices_close(dwo.data(), dwo_ser.data(), 2e-4);
    }
}

#[test]
fn optimus_matches_serial_stack() {
    // Optimus is the d = 1 grid: the 2-D baseline is the shared stack on
    // [q, q, 1].
    let c = TransformerConfig { layers: 2, ..cfg() };
    let x = random(c.rows(), c.hidden, 5);
    let dy = random(c.rows(), c.hidden, 6);
    let mut serial = SerialTransformer::new(c, true, SEED, 0);
    let y_ser = serial.forward(&x);
    let dx_ser = serial.backward(&dy);
    let shape = GridShape::new(2, 1);
    let out = Cluster::a100(4).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let y = model.forward(&grid, ctx, &x_loc);
        let dx = model.backward(&grid, ctx, &dy_loc);
        (y.matrix().clone(), dx.matrix().clone())
    });
    let ys: Vec<Matrix> = out.results.iter().map(|(y, _)| y.clone()).collect();
    let dxs: Vec<Matrix> = out.results.iter().map(|(_, dx)| dx.clone()).collect();
    assert_slices_close(combine_c(&ys, shape).data(), y_ser.data(), 5e-4);
    assert_slices_close(combine_c(&dxs, shape).data(), dx_ser.data(), 5e-4);
}

#[test]
fn all_schemes_agree_with_each_other() {
    // The paper's central "no approximation" claim across arrangements:
    // [1,1,1], [2,2,1] and [2,2,2] produce the same outputs (Figure 7).
    let c = cfg();
    let x = random(c.rows(), c.hidden, 7);
    let dy = random(c.rows(), c.hidden, 8);
    let (y1, dx1, _) = run_tesseract(GridShape::new(1, 1), c, &x, &dy);
    let (y2, dx2, _) = run_tesseract(GridShape::new(2, 1), c, &x, &dy);
    let (y3, dx3, _) = run_tesseract(GridShape::new(2, 2), c, &x, &dy);
    assert_slices_close(y1.data(), y2.data(), 2e-4);
    assert_slices_close(y2.data(), y3.data(), 2e-4);
    assert_slices_close(dx1.data(), dx2.data(), 2e-4);
    assert_slices_close(dx2.data(), dx3.data(), 2e-4);
}

#[test]
fn weight_gradients_are_depth_synchronized() {
    // After backward, weight blocks at the same (i, j) but different k must
    // be identical (the §3.1 depth all-reduce of B').
    let c = cfg();
    let shape = GridShape::new(2, 2);
    let x = random(c.rows(), c.hidden, 9);
    let dy = random(c.rows(), c.hidden, 10);
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut layer = TesseractTransformerLayer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let _ = layer.forward(&grid, ctx, &x_loc);
        let _ = layer.backward(&grid, ctx, &dy_loc);
        let mut grads = Vec::new();
        layer.visit_params(&mut |pr| grads.push(pr.grad.clone().into_matrix()));
        grads
    });
    for i in 0..2 {
        for j in 0..2 {
            let k0 = &out.results[shape.offset_of(i, j, 0)];
            let k1 = &out.results[shape.offset_of(i, j, 1)];
            // Same number of non-bias params; biases exist only on row 0
            // but identically across depth, so the lists line up.
            assert_eq!(k0.len(), k1.len());
            for (g0, g1) in k0.iter().zip(k1.iter()) {
                assert_slices_close(g0.data(), g1.data(), 1e-6);
            }
        }
    }
}

#[test]
fn serial_weight_gradients_match_assembled_tesseract_gradients() {
    let c = cfg();
    let shape = GridShape::new(2, 2);
    let x = random(c.rows(), c.hidden, 11);
    let dy = random(c.rows(), c.hidden, 12);
    let mut serial = SerialTransformerLayer::new(c, true, SEED, 0);
    let _ = serial.forward(&x);
    let _ = serial.backward(&dy);

    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut layer = TesseractTransformerLayer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let _ = layer.forward(&grid, ctx, &x_loc);
        let _ = layer.backward(&grid, ctx, &dy_loc);
        (
            layer.mlp.fc1.weight_grad().clone().into_matrix(),
            layer.mlp.fc2.weight_grad().clone().into_matrix(),
        )
    });
    let fc1: Vec<Matrix> = out.results.iter().map(|(a, _)| a.clone()).collect();
    let fc2: Vec<Matrix> = out.results.iter().map(|(_, b)| b.clone()).collect();
    let fc1_global = tesseract_core::partition::combine_b(&fc1, shape);
    let fc2_global = tesseract_core::partition::combine_b(&fc2, shape);
    assert_slices_close(fc1_global.data(), serial.mlp.fc1.dw.data(), 3e-4);
    assert_slices_close(fc2_global.data(), serial.mlp.fc2.dw.data(), 3e-4);
}

#[test]
fn fused_qkv_blocks_match_separate_serial_projections() {
    // Spot-check the fused layout: each rank's Wqkv block columns must be
    // [Wq_j | Wk_j | Wv_j] of the global per-projection matrices.
    let c = cfg();
    let shape = GridShape::new(2, 1);
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let layer = TesseractTransformerLayer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
        (grid.coords, layer.attn.wqkv.weight().clone().into_matrix())
    });
    let wq = tesseract_tensor::init::global_xavier(c.hidden, c.hidden, SEED, 0);
    let wk = tesseract_tensor::init::global_xavier(c.hidden, c.hidden, SEED, 1);
    let local = c.hidden / 2;
    for ((i, j, _), block) in &out.results {
        let expect_q = wq.block(i * local, j * local, local, local);
        let got_q = block.slice_cols(0, local);
        assert_eq!(got_q, expect_q, "rank ({i},{j}) Q block");
        let expect_k = wk.block(i * local, j * local, local, local);
        let got_k = block.slice_cols(local, 2 * local);
        assert_eq!(got_k, expect_k, "rank ({i},{j}) K block");
    }
}
