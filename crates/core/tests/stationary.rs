//! Weight-stationary serving: a column-parallel linear
//! (`TesseractLinear::fetch_stationary` on `Parallel::Column`) fetches its
//! column of weight panels and bias block once and `Stationary::matmul`
//! multiplies row panels by them; a row-parallel one (`Parallel::Row`)
//! holds its row of panels and the whole bias, and the lane's gathered terms
//! (`Stationary::partial`, `mm::lane_sum`), folded in member order
//! (`mm::fold_terms`), plus the bias is the product.
//! Both must be bitwise SUMMA's (`Module::forward`: `tesseract_matmul` plus
//! the bias broadcast) on every grid and row layout, and so must a serving
//! layer's pre-norm stretch (which normalizes the full rows itself); Dense
//! and Shadow must agree on the virtual clock, and a steady serving layer
//! must issue nothing but its two lane all-gathers.

use std::sync::Arc;

use tesseract_comm::{CollectiveOp, CommStats, RankCtx, RunConfig};
use tesseract_core::layers::layernorm::layer_norm_rows;
use tesseract_core::layers::transformer::norm_mlp_up;
use tesseract_core::mm::{fold_terms, lane_sum, row_panels};
use tesseract_core::{
    GridShape, InferBatch, LayerNorm, Module, Parallel, Stream, TesseractGrid, TesseractLinear,
    TesseractTransformer, TransformerConfig,
};
use tesseract_tensor::{fused, DenseTensor, Matrix, Meter, ShadowTensor, TensorLike};

/// The `(q, d)` arrangements the parity suite covers: 2-D and 2.5-D
/// (`d = 1, 2`) at `q = 2, 3, 4`, so an even and an odd lane width and a
/// four-rank lane.
const GRIDS: [(usize, usize); 6] = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)];

/// Row layouts of the activation blocks: every lane empty, one row each,
/// and ragged (lane-dependent counts, zero included).
#[derive(Clone, Copy, Debug)]
enum Rows {
    Empty,
    One,
    Ragged,
}

impl Rows {
    fn of_lane(self, lane: usize) -> usize {
        match self {
            Rows::Empty => 0,
            Rows::One => 1,
            Rows::Ragged => (lane * 5 + 2) % 7,
        }
    }
}

/// This rank's A-type block of a deterministic `[rows, in_f]` activation
/// for its lane; `stream` varies the values between calls.
fn input<T: TensorLike>(grid: &TesseractGrid, in_f: usize, rows: Rows, stream: u64) -> Arc<T> {
    let lane = grid.a_row_block();
    let (n, local) = (rows.of_lane(lane), in_f / grid.shape.q);
    let stream = stream * 1000 + lane as u64;
    Arc::new(T::init_xavier_block(n, in_f, 0, grid.j() * local, n, local, 31, stream))
}

/// A `[4q, 6q]` linear with a bias whose weight and bias are moved off
/// their initial values (the bias is zero-initialized), so the bias add
/// is exercised.
fn linear<T: TensorLike>(grid: &TesseractGrid) -> TesseractLinear<T> {
    let q = grid.shape.q;
    let mut lin = TesseractLinear::<T>::new(grid, 4 * q, 6 * q, true, 5, 0);
    let mut scratch = tesseract_tensor::Meter::new();
    let mut stream = 0;
    lin.visit_params(&mut |p| {
        let (r, c) = (p.weight.rows(), p.weight.cols());
        stream += 1;
        p.weight.add_assign(&T::init_xavier_block(r, c, 0, 0, r, c, 77, stream), &mut scratch);
    });
    lin
}

/// The full rows `[rows, in_f]` of this rank's lane: one row all-gather of
/// the column blocks `x`, placed side by side.
fn full_rows<T: TensorLike>(grid: &TesseractGrid, ctx: &mut RankCtx, x: &Arc<T>) -> T {
    let panels: Vec<T> = row_panels(grid, ctx, x).iter().map(|p| T::clone(p)).collect();
    T::concat_cols(&panels, &mut Meter::new())
}

/// Serves `x` through `lin` as a column-parallel linear: one row
/// all-gather, the weight fetch (a no-op once held), then the stationary
/// multiply as one fused launch. Returns this rank's column block.
fn serve_column<T: TensorLike>(
    lin: &TesseractLinear<T>,
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    x: &Arc<T>,
) -> Arc<T> {
    let rows = row_panels(grid, ctx, x);
    TesseractLinear::fetch_stationary(grid, ctx, &[(lin, Parallel::Column)]);
    Arc::new(fused(&mut ctx.meter, |m| lin.stationary().matmul(&rows, m)))
}

/// Serves `x` through `lin` as a row-parallel linear: the weight fetch (a
/// no-op once held), this rank's term as one fused launch, the lane
/// all-gather of the terms, their fold, then the bias. Returns the full
/// product.
fn serve_row<T: TensorLike>(
    lin: &TesseractLinear<T>,
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    x: &Arc<T>,
) -> T {
    TesseractLinear::fetch_stationary(grid, ctx, &[(lin, Parallel::Row)]);
    let st = lin.stationary();
    let partial = fused(&mut ctx.meter, |m| st.partial(x, m));
    let terms = lane_sum(grid, ctx, partial);
    let bias = st.bias.as_ref().expect("the test linear has a bias");
    fold_terms(&terms, &mut ctx.meter).add_rowvec(bias, &mut ctx.meter)
}

/// Serves two calls (the one that fetches the weights, then a steady
/// one) and runs SUMMA on the same inputs; returns both pairs per rank.
fn served_and_summa(shape: GridShape, rows: Rows) -> Vec<[Matrix; 4]> {
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut lin = linear::<DenseTensor>(&grid);
        let in_f = lin.in_features;
        let (x0, x1) = (input(&grid, in_f, rows, 0), input(&grid, in_f, rows, 1));
        let fetch = serve_column(&lin, &grid, ctx, &x0);
        let steady = serve_column(&lin, &grid, ctx, &x1);
        let summa0 = lin.forward(&grid, ctx, &x0);
        let summa1 = lin.forward(&grid, ctx, &x1);
        [fetch, summa0, steady, summa1].map(|y| y.matrix().clone())
    });
    out.results
}

#[test]
fn stationary_linear_is_bitwise_summa_on_every_grid_and_row_layout() {
    for (q, d) in GRIDS {
        for rows in [Rows::Empty, Rows::One, Rows::Ragged] {
            let shape = GridShape::new(q, d);
            for (rank, [fetch, summa0, steady, summa1]) in
                served_and_summa(shape, rows).iter().enumerate()
            {
                let what = format!("[{q},{q},{d}] {rows:?} rank {rank}");
                assert_eq!(fetch, summa0, "{what}: fetching call differs from SUMMA");
                assert_eq!(steady, summa1, "{what}: steady call differs from SUMMA");
            }
        }
    }
}

/// The row-parallel product at `(q, d)` over `rows` on backend `T`: per
/// rank, its column block of the served product (the folded lane terms
/// plus the bias), of `matmul_panels` plus the bias (a column-parallel
/// linear on the same weights) and of SUMMA, as stored values (`None` on
/// a backend without them); and the run's makespan and wire bytes.
fn lane_sum_run<T: TensorLike>(
    shape: GridShape,
    rows: Rows,
) -> (Vec<[Option<Matrix>; 3]>, f64, u64) {
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut lin = linear::<T>(&grid);
        let by_rows = linear::<T>(&grid);
        let x = input(&grid, lin.in_features, rows, 3);
        let full = serve_row(&by_rows, &grid, ctx, &x);
        let w = full.cols() / shape.q;
        let served = full.slice_cols(grid.j() * w, (grid.j() + 1) * w, &mut ctx.meter);
        let panels = serve_column(&lin, &grid, ctx, &x);
        let summa = lin.forward(&grid, ctx, &x);
        [&served, &*panels, &*summa].map(|t| t.try_matrix().cloned())
    });
    (out.results.clone(), out.makespan(), out.comm.total_wire_bytes())
}

/// The row-parallel product, the lane's gathered terms `A_j·W_jt` folded
/// plus the bias, against `matmul_panels` plus the bias and SUMMA. Each
/// rank checks its own column block of the full product; at q = 3 and 4 a
/// fold in any order but ascending member order would round differently.
/// Dense and Shadow must book the same virtual clock and wire bytes.
#[test]
fn the_lane_sum_of_row_parallel_terms_is_bitwise_matmul_panels_plus_bias() {
    for (q, d) in GRIDS {
        for rows in [Rows::Empty, Rows::One, Rows::Ragged] {
            let shape = GridShape::new(q, d);
            let (dense, dense_makespan, dense_bytes) = lane_sum_run::<DenseTensor>(shape, rows);
            let (_, shadow_makespan, shadow_bytes) = lane_sum_run::<ShadowTensor>(shape, rows);
            let grid = format!("[{q},{q},{d}] {rows:?}");
            assert_eq!(dense_makespan, shadow_makespan, "{grid}: Dense and Shadow clocks differ");
            assert_eq!(dense_bytes, shadow_bytes, "{grid}: Dense and Shadow wire bytes differ");
            for (rank, [served, panels, summa]) in dense.iter().enumerate() {
                let what = format!("{grid} rank {rank}");
                assert!(served.is_some(), "{what}: Dense stores values");
                assert_eq!(served, panels, "{what}: lane sum differs from matmul_panels");
                assert_eq!(served, summa, "{what}: lane sum differs from SUMMA");
            }
        }
    }
}

/// The pre-norm stretch a serving layer runs on its full rows
/// (`norm_mlp_up`: layer norm of the rows panel by panel, the stationary
/// linear, GELU) against training's norm, SUMMA and GELU on the same input.
#[test]
fn serving_pre_norm_then_linear_is_bitwise_the_training_norm_then_summa() {
    for (q, d) in GRIDS {
        for rows in [Rows::Empty, Rows::One, Rows::Ragged] {
            let shape = GridShape::new(q, d);
            let out = RunConfig::from_env(shape.size()).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let mut lin = linear::<DenseTensor>(&grid);
                let mut norm = LayerNorm::<DenseTensor>::new(lin.in_features, 1e-5);
                let x = input::<DenseTensor>(&grid, lin.in_features, rows, 2);
                let full = full_rows(&grid, ctx, &x);
                TesseractLinear::fetch_stationary(&grid, ctx, &[(&lin, Parallel::Column)]);
                let m = &mut ctx.meter;
                let normed = layer_norm_rows(&full, q, norm.eps, m);
                let served = norm_mlp_up(&full, norm.eps, lin.stationary(), m);
                let xhat = norm.forward(&grid, ctx, &x);
                let summa = lin.forward(&grid, ctx, &xhat).gelu(&mut ctx.meter);
                // Each member's training X̂ block, gathered for comparison.
                let xhats = row_panels(&grid, ctx, &xhat);
                let normed: Vec<Matrix> = normed.iter().map(|t| t.matrix().clone()).collect();
                let xhats: Vec<Matrix> = xhats.iter().map(|t| t.matrix().clone()).collect();
                (normed, xhats, served.matrix().clone(), summa.matrix().clone())
            });
            for (rank, (normed, xhats, served, summa)) in out.results.iter().enumerate() {
                let what = format!("[{q},{q},{d}] {rows:?} rank {rank}");
                assert_eq!(normed, xhats, "{what}: a panel of the rows differs from its owner's X̂");
                assert_eq!(
                    served, summa,
                    "{what}: norm + stationary linear + GELU differs from SUMMA"
                );
            }
        }
    }
}

#[test]
fn dense_and_shadow_serve_on_the_same_virtual_clock() {
    fn serve<T: TensorLike>(shape: GridShape) -> (f64, u64) {
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (lin, by_rows) = (linear::<T>(&grid), linear::<T>(&grid));
            for (stream, rows) in [Rows::Ragged, Rows::One, Rows::Ragged].into_iter().enumerate() {
                let x = input::<T>(&grid, lin.in_features, rows, stream as u64);
                let _ = serve_column(&lin, &grid, ctx, &x);
                let _ = serve_row(&by_rows, &grid, ctx, &x);
            }
        });
        (out.makespan(), out.comm.total_wire_bytes())
    }
    for (q, d) in GRIDS {
        let shape = GridShape::new(q, d);
        assert_eq!(serve::<DenseTensor>(shape), serve::<ShadowTensor>(shape), "[{q},{q},{d}]");
    }
}

/// Fetches a `layers`-deep stack's weights, then runs `steps` serving
/// steps on full rows (a prompt, then one decode row per step, each
/// carrying the last step's pending row); returns the run's collective
/// statistics.
fn serve_steps(shape: GridShape, layers: usize, steps: usize) -> CommStats {
    let cfg = TransformerConfig {
        batch: 16,
        seq: 4,
        hidden: 16,
        heads: 4,
        mlp_ratio: 4,
        layers,
        eps: 1e-5,
    };
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, 3, 0);
        model.fetch_stationary(&grid, ctx);
        let mut kvs = vec![model.new_kv(&grid)];
        let (h, prompt) = (cfg.hidden, 3);
        let x = DenseTensor::init_xavier_block(prompt, h, 0, 0, prompt, h, 9, 0);
        let mut x = Stream::new(Arc::new(x));
        for _ in 0..steps {
            let mut batch = InferBatch { new_rows: vec![x.rows()], kvs };
            let y = model.forward_infer_rows(&grid, ctx, x, &mut batch);
            x = y.slice_rows(y.rows() - 1, y.rows(), &mut ctx.meter);
            kvs = batch.kvs;
        }
    });
    out.comm
}

#[test]
fn a_steady_serving_layer_all_gathers_twice_and_broadcasts_nothing() {
    use CollectiveOp::{AllGather, AllReduce, Broadcast};
    for q in [2, 4] {
        let shape = GridShape::new(q, 1);
        // Every rank sits in exactly one row group and one column group, so
        // per-rank counts are group calls over the q·d groups of a kind.
        let groups = (shape.q * shape.d) as u64;
        for layers in [1, 3] {
            let what = format!("q = {q}, {layers} layers");
            let serve = |steps| serve_steps(shape, layers, steps);
            let (fetch, one, two) = (serve(0), serve(1), serve(2));
            let step = |op| two.get(op).calls - one.get(op).calls;
            let per_layer = 2 * layers as u64;
            assert_eq!(
                step(AllGather),
                per_layer * groups,
                "{what}: one lane all-gather of the terms per row-parallel linear"
            );
            assert_eq!(step(AllReduce), 0, "{what}: the terms are gathered and folded locally");
            assert_eq!(step(Broadcast), 0, "{what}: no weight or bias broadcast after the fetch");
            assert_eq!(two.total_calls() - one.total_calls(), per_layer * groups, "{what}");
            // The fetch itself, at any depth: one bucket down every column,
            // q broadcasts, then one lane exchange of every row-parallel
            // linear's column. (Fetched per linear, it was 4(q + 1)
            // broadcasts and 2 lane exchanges per layer.)
            assert_eq!(fetch.get(Broadcast).calls, q as u64 * groups, "{what}");
            assert_eq!(fetch.get(AllGather).calls, groups, "{what}");
            assert_eq!(fetch.total_calls(), (q as u64 + 1) * groups, "{what}");
        }
    }
}
