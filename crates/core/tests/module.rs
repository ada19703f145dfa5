//! Integration tests of the `Module`/`Tape` abstractions and the layer stack
//! on the simulated cluster: GPipe-style microbatched schedules (all forwards,
//! then all backwards in reverse) against sequential per-microbatch
//! execution, plus the tape's failure modes.

use std::sync::Arc;

use tesseract_comm::RunConfig;
use tesseract_core::layers::TesseractLinear;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::{assert_slices_close, DenseTensor, Matrix};

const SEED: u64 = 2024;

/// A GPipe step queues every microbatch forward before any backward runs
/// (reverse order). The shared tape must hand each backward the activations
/// of *its own* microbatch, so gradients and dX must match running the
/// microbatches one at a time (forward immediately followed by backward).
#[test]
fn tape_survives_four_microbatch_gpipe_schedule() {
    let shape = GridShape::new(2, 2);
    let microbatches = 4;
    let xs: Vec<Matrix> = (0..microbatches).map(|m| Matrix::seeded(8, 8, 10 + m as u64)).collect();
    let dys: Vec<Matrix> = (0..microbatches).map(|m| Matrix::seeded(8, 8, 20 + m as u64)).collect();

    let run = |pipelined: bool| {
        let xs = xs.clone();
        let dys = dys.clone();
        RunConfig::from_env(shape.size()).run(move |ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let mut model = TesseractLinear::<DenseTensor>::new(&grid, 8, 8, true, SEED, 1);
            let x_loc: Vec<Arc<DenseTensor>> = xs
                .iter()
                .map(|x| Arc::new(DenseTensor::from_matrix(a_block(x, shape, i, j, k))))
                .collect();
            let dy_loc: Vec<Arc<DenseTensor>> = dys
                .iter()
                .map(|dy| Arc::new(DenseTensor::from_matrix(a_block(dy, shape, i, j, k))))
                .collect();
            let mut dxs = Vec::new();
            if pipelined {
                // GPipe: all forwards, then all backwards in reverse order.
                for x in &x_loc {
                    let _ = model.forward(&grid, ctx, x);
                }
                for dy in dy_loc.iter().rev() {
                    dxs.push(model.backward(&grid, ctx, dy).matrix().clone());
                }
                dxs.reverse();
            } else {
                for (x, dy) in x_loc.iter().zip(&dy_loc) {
                    let _ = model.forward(&grid, ctx, x);
                    dxs.push(model.backward(&grid, ctx, dy).matrix().clone());
                }
            }
            // zero_grad's tape-balance debug assertion must accept a clean
            // schedule.
            let dw = model.weight_grad().clone().into_matrix();
            model.zero_grad();
            (dxs, dw)
        })
    };

    let gpipe = run(true);
    let serial = run(false);
    for (rank, (g, s)) in gpipe.results.iter().zip(serial.results.iter()).enumerate() {
        // dW sums the microbatch contributions in reverse order under
        // GPipe, so it matches up to f32 summation-order noise only.
        assert_slices_close(g.1.data(), s.1.data(), 1e-5);
        for (m, (gx, sx)) in g.0.iter().zip(s.0.iter()).enumerate() {
            // dX touches no accumulated state: bitwise identical.
            assert_eq!(gx, sx, "rank {rank}, microbatch {m}: dX must match");
        }
    }
}

/// Issuing a backward with no queued forward is a schedule bug; the tape
/// fails fast naming the module (the panic propagates through the cluster).
#[test]
#[should_panic(expected = "backward without forward")]
fn backward_on_empty_tape_panics() {
    let shape = GridShape::new(1, 1);
    RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut lin = TesseractLinear::<DenseTensor>::new(&grid, 4, 4, false, SEED, 1);
        let dy = Arc::new(DenseTensor::from_matrix(Matrix::seeded(4, 4, 3)));
        let _ = lin.backward(&grid, ctx, &dy);
    });
}

/// The stack must behave exactly like calling its layers by hand: forward
/// left-to-right, backward right-to-left.
#[test]
fn stack_composition_matches_manual_chaining() {
    let shape = GridShape::new(2, 1);
    let cfg = TransformerConfig {
        batch: 2,
        seq: 4,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 2,
        eps: 1e-5,
    };
    let x = Matrix::seeded(8, 8, 40);
    let dy = Matrix::seeded(8, 8, 41);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));

        let mut stack = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, SEED, 2);
        let y_stack = stack.forward(&grid, ctx, &x_loc);
        let dx_stack = stack.backward(&grid, ctx, &dy_loc);
        let mut params = 0;
        stack.visit_params(&mut |_| params += 1);

        let mut man = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, SEED, 2);
        let [l0, l1] = &mut man.layers[..] else { unreachable!("a 2-layer stack") };
        let h = l0.forward(&grid, ctx, &x_loc);
        let y_man = l1.forward(&grid, ctx, &h);
        let d_h = l1.backward(&grid, ctx, &dy_loc);
        let dx_man = l0.backward(&grid, ctx, &d_h);
        let mut man_params = 0;
        for layer in &mut man.layers {
            layer.visit_params(&mut |_| man_params += 1);
        }
        assert_eq!(params, man_params);

        (
            y_stack.matrix().clone(),
            y_man.matrix().clone(),
            dx_stack.matrix().clone(),
            dx_man.matrix().clone(),
        )
    });
    for (rank, (ys, ym, ds, dm)) in out.results.iter().enumerate() {
        assert_eq!(ys, ym, "rank {rank}: sequential forward differs from manual");
        assert_eq!(ds, dm, "rank {rank}: sequential backward differs from manual");
    }
}
