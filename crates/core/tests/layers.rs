//! Direct unit tests of each distributed layer against the serial kernels
//! in `tesseract_tensor::nn` (finer-grained than the full-stack parity
//! tests in `tesseract-baselines`).

use std::sync::Arc;

use tesseract_baselines::{MegatronTransformerLayer, MegatronWorld};
use tesseract_comm::RunConfig;
use tesseract_core::layers::{LayerNorm, TesseractLinear, TesseractMlp};
use tesseract_core::partition::{a_block, combine_c};
use tesseract_core::{
    GridShape, Module, TesseractGrid, TesseractTransformerLayer, TransformerConfig,
};
use tesseract_tensor::{
    assert_slices_close, init::global_xavier, matmul::gemm, nn, DenseTensor, Matrix, Orient,
    ShadowTensor, TensorLike,
};

const SEED: u64 = 99;

/// A world `layernorm_matches_serial_kernel` runs the one [`LayerNorm`] on.
#[derive(Clone, Copy, Debug)]
enum NormWorld {
    /// The `[q, q, d]` grid: rows and hidden columns split.
    Grid(GridShape),
    /// Megatron's 1-D world of `p` ranks: every rank holds the whole rows.
    Megatron(usize),
}

#[test]
fn layernorm_matches_serial_kernel() {
    let x = Matrix::seeded(8, 8, 1);
    let dy = Matrix::seeded(8, 8, 2);
    let cache = nn::layernorm_rows(&x, 1e-5);
    let dx_ser = nn::layernorm_rows_backward(&cache, &dy);
    let worlds =
        [NormWorld::Grid(GridShape::new(2, 2)), NormWorld::Megatron(2), NormWorld::Megatron(4)];
    for world in worlds {
        // The whole (Y, dX) as each holder of whole rows sees it.
        let outs: Vec<(Matrix, Matrix)> = match world {
            NormWorld::Grid(shape) => {
                let out = RunConfig::from_env(shape.size()).run(|ctx| {
                    let grid = TesseractGrid::new(ctx, shape, 0);
                    let (i, j, k) = grid.coords;
                    let mut ln = LayerNorm::<DenseTensor>::new(8, 1e-5);
                    let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
                    let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
                    let y = ln.forward(&grid, ctx, &x_loc);
                    let dx = ln.backward(&grid, ctx, &dy_loc);
                    (y.matrix().clone(), dx.matrix().clone())
                });
                let (ys, dxs): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
                vec![(combine_c(&ys, shape), combine_c(&dxs, shape))]
            }
            NormWorld::Megatron(p) => {
                let out = RunConfig::from_env(p).run(|ctx| {
                    let world = MegatronWorld::new(ctx, (0..p).collect());
                    let mut ln = LayerNorm::<DenseTensor>::new(8, 1e-5);
                    let y = ln.forward(&world, ctx, &Arc::new(DenseTensor::from_matrix(x.clone())));
                    let dx =
                        ln.backward(&world, ctx, &Arc::new(DenseTensor::from_matrix(dy.clone())));
                    (y.matrix().clone(), dx.matrix().clone())
                });
                out.results
            }
        };
        for (y, dx) in &outs {
            assert_slices_close(y.data(), cache.y.data(), 1e-4);
            assert_slices_close(dx.data(), dx_ser.data(), 1e-4);
        }
    }
}

#[test]
fn linear_forward_matches_global_weight_product() {
    let shape = GridShape::new(2, 2);
    let (in_f, out_f) = (8, 12);
    let x = Matrix::seeded(16, in_f, 3);
    let w_global = global_xavier(in_f, out_f, SEED, 7);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut lin = TesseractLinear::<DenseTensor>::new(&grid, in_f, out_f, false, SEED, 7);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        lin.forward(&grid, ctx, &x_loc).matrix().clone()
    });
    let y = combine_c(&out.results, shape);
    assert_slices_close(y.data(), gemm(Orient::Nn, &x, &w_global).data(), 1e-4);
}

#[test]
fn linear_bias_lives_on_row_zero_and_broadcasts() {
    let shape = GridShape::new(2, 2);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let lin = TesseractLinear::<DenseTensor>::new(&grid, 4, 4, true, SEED, 0);
        (grid.coords, lin.bias().is_some())
    });
    for ((i, _j, _k), has_bias) in &out.results {
        assert_eq!(*has_bias, *i == 0, "bias must live exactly on row-0 ranks");
    }
}

#[test]
fn linear_bias_gradient_reduces_to_row_zero() {
    // §3.2.2: "the backward process drives the gradients to be reduced back
    // to the processor on row 0". With dY = ones, dbias = column sums over
    // the whole global batch = b·s rows of ones.
    let shape = GridShape::new(2, 2);
    let rows_global = 8;
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut lin = TesseractLinear::<DenseTensor>::new(&grid, 4, 4, true, SEED, 0);
        let x = Matrix::full(rows_global, 4, 1.0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let _ = lin.forward(&grid, ctx, &x_loc);
        let dy_loc = Arc::new(DenseTensor::from_matrix(Matrix::full(x_loc.rows(), 2, 1.0)));
        let _ = lin.backward(&grid, ctx, &dy_loc);
        lin.bias_grad().map(|g| g.clone().into_matrix())
    });
    for off in 0..shape.size() {
        let (i, _, _) = shape.coords_of(off);
        match &out.results[off] {
            Some(g) => {
                assert_eq!(i, 0);
                // Every global row contributed 1.0 to each bias column.
                assert!(g.data().iter().all(|&v| (v - rows_global as f32).abs() < 1e-4));
            }
            None => assert_ne!(i, 0),
        }
    }
}

#[test]
fn mlp_gradient_matches_finite_difference() {
    let shape = GridShape::new(2, 1);
    let x = Matrix::seeded(4, 4, 5);
    let dy = Matrix::seeded(4, 4, 6);
    let run = |input: &Matrix| -> Matrix {
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let mut mlp = TesseractMlp::<DenseTensor>::new(&grid, 4, 8, true, SEED, 0);
            let x_loc = Arc::new(DenseTensor::from_matrix(a_block(input, shape, i, j, k)));
            mlp.forward(&grid, ctx, &x_loc).matrix().clone()
        });
        combine_c(&out.results, shape)
    };
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut mlp = TesseractMlp::<DenseTensor>::new(&grid, 4, 8, true, SEED, 0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let _ = mlp.forward(&grid, ctx, &x_loc);
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        mlp.backward(&grid, ctx, &dy_loc).matrix().clone()
    });
    let dx = combine_c(&out.results, shape);
    let h = 1e-2f32;
    for &(r, c) in &[(0usize, 0usize), (1, 2), (3, 3)] {
        let mut xp = x.clone();
        xp[(r, c)] += h;
        let mut xm = x.clone();
        xm[(r, c)] -= h;
        let (yp, ym) = (run(&xp), run(&xm));
        let mut fd = 0.0f32;
        for i in 0..4 {
            for j in 0..4 {
                fd += dy[(i, j)] * (yp[(i, j)] - ym[(i, j)]) / (2.0 * h);
            }
        }
        assert!(
            (dx[(r, c)] - fd).abs() < 0.03 * dx[(r, c)].abs().max(1.0),
            "({r},{c}): {} vs {fd}",
            dx[(r, c)]
        );
    }
}

#[test]
fn forward_backward_can_repeat_across_steps() {
    // Regression for cache handling: two consecutive train-style steps must
    // work (caches push/pop in LIFO order and never leak).
    let shape = GridShape::new(2, 1);
    let cfg = TransformerConfig {
        batch: 4,
        seq: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 1,
        eps: 1e-5,
    };
    let x = Matrix::seeded(cfg.rows(), cfg.hidden, 7);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut layer = TesseractTransformerLayer::<DenseTensor>::new(&grid, cfg, true, SEED, 0);
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let mut outs = Vec::new();
        for _step in 0..3 {
            let y = layer.forward(&grid, ctx, &x_loc);
            let _ = layer.backward(&grid, ctx, &y);
            layer.zero_grad();
            outs.push(y.matrix().clone());
        }
        outs
    });
    // Weights unchanged between steps (no optimizer) → identical outputs.
    for outs in &out.results {
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }
}

#[test]
fn gpipe_style_multi_forward_then_backward_works() {
    // Two forwards queued before two backwards (reverse order), as the
    // pipeline scheduler does.
    let shape = GridShape::new(2, 1);
    let cfg = TransformerConfig {
        batch: 4,
        seq: 2,
        hidden: 8,
        heads: 2,
        mlp_ratio: 2,
        layers: 1,
        eps: 1e-5,
    };
    let x1 = Matrix::seeded(cfg.rows(), cfg.hidden, 8);
    let x2 = Matrix::seeded(cfg.rows(), cfg.hidden, 9);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut layer = TesseractTransformerLayer::<DenseTensor>::new(&grid, cfg, true, SEED, 0);
        let x1_loc = Arc::new(DenseTensor::from_matrix(a_block(&x1, shape, i, j, k)));
        let x2_loc = Arc::new(DenseTensor::from_matrix(a_block(&x2, shape, i, j, k)));
        let y1 = layer.forward(&grid, ctx, &x1_loc);
        let y2 = layer.forward(&grid, ctx, &x2_loc);
        // Backward in reverse microbatch order (LIFO caches).
        let d2 = layer.backward(&grid, ctx, &y2);
        let d1 = layer.backward(&grid, ctx, &y1);
        (d1.matrix().clone(), d2.matrix().clone())
    });
    // Cross-check against single-microbatch runs.
    let single = |x: &Matrix, seed_tag: u64| -> Matrix {
        let _ = seed_tag;
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let mut layer =
                TesseractTransformerLayer::<DenseTensor>::new(&grid, cfg, true, SEED, 0);
            let x_loc = Arc::new(DenseTensor::from_matrix(a_block(x, shape, i, j, k)));
            let y = layer.forward(&grid, ctx, &x_loc);
            layer.backward(&grid, ctx, &y).matrix().clone()
        });
        combine_c(&out.results, shape)
    };
    let d1 = combine_c(&out.results.iter().map(|(a, _)| a.clone()).collect::<Vec<_>>(), shape);
    let d2 = combine_c(&out.results.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>(), shape);
    assert_slices_close(d1.data(), single(&x1, 1).data(), 1e-5);
    assert_slices_close(d2.data(), single(&x2, 2).data(), 1e-5);
}

/// Bytes of the distinct buffers one Transformer layer's forward leaves on
/// its tapes, each counted once: per layer norm `X̂` `[rows, w]` (which
/// the linear it feeds tapes too) and `1/sqrt(Var+ε)` `[rows, 1]`; per
/// local (sample, head) the attention's Q, K, V `[s, hd]` and scores
/// `[s, s]`; the merged heads `[rows, heads·hd]` (`wo`'s input); the MLP's
/// pre-activation and activation `[rows, mlp_w]`.
fn distinct_layer_tape_bytes(
    cfg: TransformerConfig,
    (rows, w, samples, heads, mlp_w): (usize, usize, usize, usize, usize),
) -> u64 {
    let (s, hd) = (cfg.seq, cfg.head_dim());
    let elems = 2 * (rows * w + rows)
        + samples * heads * (3 * s * hd + s * s)
        + rows * heads * hd
        + 2 * rows * mlp_w;
    (elems * 4) as u64
}

#[test]
fn a_layers_tape_books_each_buffer_once() {
    // `train_gemm`'s layer shape.
    let cfg = TransformerConfig {
        batch: 8,
        seq: 64,
        hidden: 512,
        heads: 8,
        mlp_ratio: 4,
        layers: 1,
        eps: 1e-5,
    };
    let (h, mlp_h) = (cfg.hidden, cfg.mlp_hidden());
    // Per rank: the tape bytes after one layer forward, then after its
    // backward, against the distinct buffers the forward taped.
    let check = |world: &str, ranks: &[(u64, u64)], want: u64| {
        for (rank, &(taped, left)) in ranks.iter().enumerate() {
            assert_eq!(taped, want, "{world} rank {rank}: tape bytes after forward");
            assert_eq!(left, 0, "{world} rank {rank}: tape bytes after backward");
        }
    };
    for shape in [GridShape::new(2, 1), GridShape::new(2, 2)] {
        let (q, d) = (shape.q, shape.d);
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let mut layer =
                TesseractTransformerLayer::<ShadowTensor>::new(&grid, cfg, true, SEED, 0);
            let x = Arc::new(ShadowTensor::new(cfg.rows() / (q * d), h / q));
            let y = layer.forward(&grid, ctx, &x);
            let taped = ctx.tape_bytes_now();
            let _ = layer.backward(&grid, ctx, &y);
            (taped, ctx.tape_bytes_now())
        });
        let samples = cfg.batch / (q * d);
        let dims = (samples * cfg.seq, h / q, samples, cfg.heads / q, mlp_h / q);
        check(&format!("{shape:?}"), &out.results, distinct_layer_tape_bytes(cfg, dims));
    }
    for p in [2, 4] {
        let out = RunConfig::from_env(p).run(|ctx| {
            let world = MegatronWorld::new(ctx, (0..p).collect());
            let mut layer =
                MegatronTransformerLayer::<ShadowTensor>::new(&world, cfg, true, SEED, 0);
            let y = layer.forward(&world, ctx, &Arc::new(ShadowTensor::new(cfg.rows(), h)));
            let taped = ctx.tape_bytes_now();
            let _ = layer.backward(&world, ctx, &y);
            (taped, ctx.tape_bytes_now())
        });
        let dims = (cfg.rows(), h, cfg.batch, cfg.heads / p, mlp_h / p);
        check(&format!("megatron[{p}]"), &out.results, distinct_layer_tape_bytes(cfg, dims));
    }
}
