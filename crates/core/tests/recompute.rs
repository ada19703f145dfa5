//! Tape recomputation contract tests.
//!
//! A checkpointed stack replays each segment's forward inside backward, so
//! it promises *bitwise* identity with the plain stack — every comparison
//! here is on `f32::to_bits`, not a tolerance — and a per-rank tape peak
//! that holds one live segment plus the segment inputs.

use std::sync::Arc;

use tesseract_comm::RunConfig;
use tesseract_core::layers::StackOptions;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::{DenseTensor, Matrix, ShadowTensor, TensorLike, TraceKind};

const SEED: u64 = 321;

fn cfg_for(q: usize, d: usize, layers: usize) -> TransformerConfig {
    TransformerConfig {
        batch: q * d,
        seq: 2 * q,
        hidden: 8 * q,
        heads: q,
        mlp_ratio: 2,
        layers,
        eps: 1e-5,
    }
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (g, w) in got.data().iter().zip(want.data()) {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: bitwise mismatch ({g} vs {w})");
    }
}

/// Runs one forward + backward of a stack built with `opts` and returns
/// per-rank `(y, dx, grads)` matrices.
fn run_stack(
    shape: GridShape,
    cfg: TransformerConfig,
    opts: StackOptions,
) -> Vec<(Matrix, Matrix, Vec<Matrix>)> {
    let x = Matrix::seeded(cfg.rows(), cfg.hidden, 11);
    let dy = Matrix::seeded(cfg.rows(), cfg.hidden, 12);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut stack = TesseractTransformer::<DenseTensor>::new_with_options(
            ctx, &grid, cfg, true, SEED, 0, opts,
        );
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let y = stack.forward(&grid, ctx, &x_loc);
        let dx = stack.backward(&grid, ctx, &dy_loc);
        let mut grads = Vec::new();
        stack.visit_params(&mut |pr| grads.push(pr.grad.matrix().clone()));
        (y.matrix().clone(), dx.matrix().clone(), grads)
    });
    out.results
}

fn assert_runs_bitwise_equal(
    got: &[(Matrix, Matrix, Vec<Matrix>)],
    want: &[(Matrix, Matrix, Vec<Matrix>)],
    label: &str,
) {
    assert_eq!(got.len(), want.len());
    for (r, ((gy, gdx, gg), (wy, wdx, wg))) in got.iter().zip(want).enumerate() {
        assert_bits_eq(gy, wy, &format!("{label}: rank {r} forward output"));
        assert_bits_eq(gdx, wdx, &format!("{label}: rank {r} input gradient"));
        assert_eq!(gg.len(), wg.len(), "{label}: rank {r} gradient count");
        for (p, (g, w)) in gg.iter().zip(wg).enumerate() {
            assert_bits_eq(g, w, &format!("{label}: rank {r} grad {p}"));
        }
    }
}

#[test]
fn recompute_is_bitwise_identical_even_when_k_does_not_divide_layers() {
    // 3 layers, checkpoint every 2: segments of 2 + 1 (the trailing
    // segment is shorter). Replayed forwards must reproduce the same bits.
    let shape = GridShape::new(2, 1);
    let cfg = cfg_for(2, 1, 3);
    let plain = run_stack(shape, cfg, StackOptions::default());
    let rec = run_stack(shape, cfg, StackOptions { recompute_every: Some(2) });
    assert_runs_bitwise_equal(&rec, &plain, "recompute k=2");
}

/// Per-rank peak tape residency for a stack run on the shadow backend.
fn peak_activation_bytes(shape: GridShape, cfg: TransformerConfig, opts: StackOptions) -> Vec<u64> {
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut stack = TesseractTransformer::<ShadowTensor>::new_with_options(
            ctx, &grid, cfg, true, SEED, 0, opts,
        );
        let rows = cfg.rows() / (shape.q * shape.d);
        let x = Arc::new(ShadowTensor::new(rows, cfg.hidden / shape.q));
        let y = stack.forward(&grid, ctx, &x);
        let dy = Arc::new(ShadowTensor::new(y.rows(), y.cols()));
        let _ = stack.backward(&grid, ctx, &dy);
        ctx.flush_compute();
    });
    out.reports.iter().map(|r| r.activation_bytes_peak).collect()
}

#[test]
fn recompute_reduces_peak_activation_bytes() {
    // 4 layers checkpointed every layer: each rank measures
    // 43520 / 149504 = 0.291 of the dense peak (one live layer plus the four
    // segment inputs). The gate is that ratio plus under 10 % slack, so it
    // fails if recomputation stops dropping segments.
    const RHO: f64 = 0.31;
    let shape = GridShape::new(2, 1);
    let cfg = TransformerConfig {
        batch: 2,
        seq: 64,
        hidden: 16,
        heads: 2,
        mlp_ratio: 2,
        layers: 4,
        eps: 1e-5,
    };
    let dense = peak_activation_bytes(shape, cfg, StackOptions::default());
    let rec = peak_activation_bytes(shape, cfg, StackOptions { recompute_every: Some(1) });
    for r in 0..dense.len() {
        assert!(dense[r] > 0, "dense rank {r} tracked no activations");
        assert!(
            rec[r] as f64 <= RHO * dense[r] as f64,
            "rank {r}: recompute peak {} above {RHO} x dense {}",
            rec[r],
            dense[r]
        );
    }
}

/// Per rank: per microbatch `(y, dx)`, the accumulated gradients, and the
/// tape bytes still held after a GPipe schedule — three microbatch forwards,
/// then their backwards in reverse order.
type GpipeRun = (Vec<(Matrix, Matrix)>, Vec<Matrix>, u64);

fn run_gpipe(shape: GridShape, cfg: TransformerConfig, opts: StackOptions) -> Vec<GpipeRun> {
    let xs: Vec<Matrix> = (0..3).map(|m| Matrix::seeded(cfg.rows(), cfg.hidden, 20 + m)).collect();
    let dys: Vec<Matrix> = (0..3).map(|m| Matrix::seeded(cfg.rows(), cfg.hidden, 30 + m)).collect();
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let block = |m: &Matrix| Arc::new(DenseTensor::from_matrix(a_block(m, shape, i, j, k)));
        let mut stack = TesseractTransformer::<DenseTensor>::new_with_options(
            ctx, &grid, cfg, true, SEED, 0, opts,
        );
        let ys: Vec<Matrix> =
            xs.iter().map(|x| stack.forward(&grid, ctx, &block(x)).matrix().clone()).collect();
        let mut dxs: Vec<Matrix> = dys
            .iter()
            .rev()
            .map(|dy| stack.backward(&grid, ctx, &block(dy)).matrix().clone())
            .collect();
        dxs.reverse();
        let mut grads = Vec::new();
        stack.visit_params(&mut |pr| grads.push(pr.grad.matrix().clone()));
        stack.zero_grad();
        (ys.into_iter().zip(dxs).collect(), grads, ctx.tape_bytes_now())
    });
    out.results
}

#[test]
fn recompute_under_a_gpipe_schedule_is_bitwise_the_plain_stack() {
    // Every segment input of every microbatch sits on one LIFO tape; the
    // reversed backwards must each pop their own microbatch's inputs.
    let shape = GridShape::new(2, 1);
    let cfg = cfg_for(2, 1, 3);
    let plain = run_gpipe(shape, cfg, StackOptions::default());
    let rec = run_gpipe(shape, cfg, StackOptions { recompute_every: Some(2) });
    for (r, ((py, pg, _), (ry, rg, bytes))) in plain.iter().zip(&rec).enumerate() {
        for (m, ((y, dx), (wy, wdx))) in ry.iter().zip(py).enumerate() {
            assert_bits_eq(y, wy, &format!("rank {r} microbatch {m} forward output"));
            assert_bits_eq(dx, wdx, &format!("rank {r} microbatch {m} input gradient"));
        }
        assert_eq!(rg.len(), pg.len(), "rank {r} gradient count");
        for (p, (g, w)) in rg.iter().zip(pg).enumerate() {
            assert_bits_eq(g, w, &format!("rank {r} grad {p}"));
        }
        assert_eq!(*bytes, 0, "rank {r}: tape bytes left resident after the schedule");
    }
}

/// The scope names a checkpointed stack emits are read by trace roll-ups
/// (`transformer_layer` per layer, `checkpoint` per segment); pin them and
/// their order for a 3-layer stack checkpointed every 2 layers. A scope is
/// recorded when it closes, so a segment follows the layers it ran.
#[test]
fn checkpointed_stack_scopes_are_pinned() {
    const TL_FWD: &str = "transformer_layer.fwd";
    const TL_BWD: &str = "transformer_layer.bwd";
    const CKPT_FWD: &str = "checkpoint.fwd";
    const CKPT_BWD: &str = "checkpoint.bwd";
    let shape = GridShape::new(2, 1);
    let cfg = cfg_for(2, 1, 3);
    let out = RunConfig::new(shape.size()).with_trace(true).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let opts = StackOptions { recompute_every: Some(2) };
        let mut stack = TesseractTransformer::<ShadowTensor>::new_with_options(
            ctx, &grid, cfg, true, SEED, 0, opts,
        );
        let rows = cfg.rows() / (shape.q * shape.d);
        let x = Arc::new(ShadowTensor::new(rows, cfg.hidden / shape.q));
        let y = stack.forward(&grid, ctx, &x);
        let _ = stack.backward(&grid, ctx, &y);
    });
    let want = [
        [TL_FWD, TL_FWD, CKPT_FWD, TL_FWD, CKPT_FWD].as_slice(),
        &[TL_FWD, TL_BWD, CKPT_BWD],
        &[TL_FWD, TL_FWD, TL_BWD, TL_BWD, CKPT_BWD],
    ]
    .concat();
    for (r, events) in out.traces.iter().enumerate() {
        let scopes: Vec<&str> = events
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::Scope { .. }))
            .map(|ev| ev.name.as_str())
            .collect();
        assert_eq!(scopes, want, "rank {r}: scope sequence");
    }
}
