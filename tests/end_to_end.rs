//! Workspace-level integration tests spanning all crates: the full system
//! assembled the way a downstream user would use it.

use tesseract_repro::baselines::serial::SerialTransformer;
use tesseract_repro::comm::RunConfig;
use tesseract_repro::core::partition::{a_block, combine_c};
use tesseract_repro::core::{
    GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig,
};
use tesseract_repro::tensor::{assert_slices_close, DenseTensor, Matrix, Meter, ShadowTensor};
use tesseract_repro::train::{
    train_tesseract, AdamW, SyntheticVisionDataset, TrainSettings, ViTConfig,
};

const SEED: u64 = 314;

fn cfg() -> TransformerConfig {
    TransformerConfig { batch: 4, seq: 4, hidden: 8, heads: 2, mlp_ratio: 2, layers: 2, eps: 1e-5 }
}

#[test]
fn two_layer_stack_parity_across_all_grids() {
    let c = cfg();
    let x = Matrix::seeded(c.rows(), c.hidden, 1);
    let mut serial = SerialTransformer::new(c, true, SEED, 0);
    let y_ser = serial.forward(&x);
    for shape in
        [GridShape::new(1, 1), GridShape::new(2, 1), GridShape::new(2, 2), GridShape::new(1, 4)]
    {
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let mut model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
            let x_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
            model.forward(&grid, ctx, &x_loc).matrix().clone()
        });
        let y = combine_c(&out.results, shape);
        assert_slices_close(y.data(), y_ser.data(), 5e-4);
    }
}

#[test]
fn shadow_and_dense_runs_report_identical_simulated_time() {
    // The property that legitimizes paper-scale shadow timing: identical
    // clocks and identical wire bytes on the same configuration.
    let c = cfg();
    let shape = GridShape::new(2, 2);
    let x = Matrix::seeded(c.rows(), c.hidden, 2);
    let dense = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let y = model.forward(&grid, ctx, &x_loc);
        let _ = model.backward(&grid, ctx, &y);
        ctx.flush_compute();
    });
    let shadow = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = TesseractTransformer::<ShadowTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x_loc = std::sync::Arc::new(ShadowTensor::new(
            c.rows() / (shape.q * shape.d),
            c.hidden / shape.q,
        ));
        let y = model.forward(&grid, ctx, &x_loc);
        let _ = model.backward(&grid, ctx, &y);
        ctx.flush_compute();
    });
    assert!((dense.makespan() - shadow.makespan()).abs() < 1e-12);
    assert_eq!(dense.comm.total_wire_bytes(), shadow.comm.total_wire_bytes());
    assert_eq!(dense.comm.total_calls(), shadow.comm.total_calls());
}

#[test]
fn every_optimizer_trains_the_distributed_transformer() {
    // One AdamW step must change weights and keep depth replicas
    // synchronized.
    let c = cfg();
    let shape = GridShape::new(2, 2);
    let x = Matrix::seeded(c.rows(), c.hidden, 3);
    let dy = Matrix::seeded(c.rows(), c.hidden, 4);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let _ = model.forward(&grid, ctx, &x_loc);
        let _ = model.backward(&grid, ctx, &dy_loc);
        let first_w = |model: &mut TesseractTransformer<DenseTensor>| {
            let mut first = None;
            model.visit_params(&mut |pr| {
                first.get_or_insert_with(|| pr.weight.clone().into_matrix());
            });
            first.unwrap()
        };
        let before = first_w(&mut model);
        AdamW::<DenseTensor>::new(0.01, 0.1).step(&mut Meter::new(), &mut model);
        (before, first_w(&mut model))
    });
    for (before, after) in &out.results {
        assert_ne!(before, after, "the step left a weight unchanged");
    }
    // Updated weights must still be depth-replicated.
    for i in 0..2 {
        for j in 0..2 {
            assert_eq!(
                out.results[shape.offset_of(i, j, 0)].1,
                out.results[shape.offset_of(i, j, 1)].1,
                "depth replicas diverged"
            );
        }
    }
}

#[test]
fn vit_training_improves_under_every_grid() {
    let vcfg = ViTConfig {
        body: TransformerConfig {
            batch: 8,
            seq: 3,
            hidden: 8,
            heads: 2,
            mlp_ratio: 2,
            layers: 1,
            eps: 1e-5,
        },
        patch_dim: 4,
        classes: 4,
    };
    let s = TrainSettings {
        epochs: 3,
        steps_per_epoch: 6,
        lr: 3e-3,
        weight_decay: 0.1,
        seed: 11,
        data_seed: 22,
        clip_grad_norm: None,
    };
    let ds = SyntheticVisionDataset::new(vcfg.classes, vcfg.body.seq, vcfg.patch_dim, 0.2, 5);
    for shape in [GridShape::new(2, 1), GridShape::new(2, 2)] {
        let report = train_tesseract(shape, vcfg, &ds, s);
        let first = report.epochs.first().unwrap().loss;
        let last = report.epochs.last().unwrap().loss;
        assert!(last < first, "loss must drop on {shape:?}: {first} -> {last}");
    }
}

#[test]
fn makespan_accounting_is_consistent() {
    // compute + comm decomposition must bound the makespan.
    let c = cfg();
    let shape = GridShape::new(2, 1);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = TesseractTransformer::<ShadowTensor>::new(ctx, &grid, c, true, SEED, 0);
        let x = std::sync::Arc::new(ShadowTensor::new(c.rows() / shape.q, c.hidden / shape.q));
        let y = model.forward(&grid, ctx, &x);
        let _ = model.backward(&grid, ctx, &y);
        ctx.flush_compute();
    });
    let makespan = out.makespan();
    assert!(makespan > 0.0);
    for r in &out.reports {
        assert!(r.compute_time >= 0.0 && r.comm_time >= 0.0);
        assert!((r.compute_time + r.comm_time - r.virtual_time).abs() < 1e-9);
        assert!(r.flops > 0.0);
    }
}

#[test]
fn serving_after_an_optimizer_step_runs_on_the_updated_weights() {
    // Serving fetches each linear's weight panels once: a column for the
    // first linear of a pair, a row for the second. An optimizer step
    // changes the weights through `visit_params`, which must drop that copy
    // so the next (idempotent) fetch refetches. Served output must then be
    // the SUMMA forward's on the updated weights, bit for bit, in both
    // roles.
    use std::sync::Arc;
    use tesseract_repro::core::mm::{fold_terms, lane_sum, row_panels};
    use tesseract_repro::core::{Parallel, TesseractLinear};
    use tesseract_repro::tensor::TensorLike;
    let shape = GridShape::new(2, 2);
    let (in_f, out_f, rows) = (8, 12, 16);
    let x = Matrix::seeded(rows, in_f, 40);
    let dy = Matrix::seeded(rows, out_f, 41);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let new = || TesseractLinear::<DenseTensor>::new(&grid, in_f, out_f, true, SEED, 3);
        let (mut column, mut row) = (new(), new());
        let x = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let panels = row_panels(&grid, ctx, &x);
        let serve = |column: &TesseractLinear<DenseTensor>,
                     row: &TesseractLinear<DenseTensor>,
                     ctx: &mut _| {
            TesseractLinear::fetch_stationary(&grid, ctx, &[(column, Parallel::Column)]);
            let by_column = column.stationary().matmul(&panels, &mut Meter::new());
            TesseractLinear::fetch_stationary(&grid, ctx, &[(row, Parallel::Row)]);
            let st = row.stationary();
            let terms = lane_sum(&grid, ctx, st.partial(&x, &mut Meter::new()));
            let bias = st.bias.as_ref().expect("built with a bias");
            let full = fold_terms(&terms, &mut Meter::new()).add_rowvec(bias, &mut Meter::new());
            let w = out_f / shape.q;
            let by_row = full.slice_cols(j * w, (j + 1) * w, &mut Meter::new());
            [by_column, by_row].map(|y| y.matrix().clone())
        };
        let before = serve(&column, &row, ctx);
        for lin in [&mut column, &mut row] {
            let _ = lin.forward(&grid, ctx, &x);
            let _ = lin.backward(&grid, ctx, &dy);
            AdamW::new(1e-2, 0.1).step(&mut ctx.meter, lin);
        }
        let served = serve(&column, &row, ctx);
        let summa = column.forward(&grid, ctx, &x).matrix().clone();
        (before, served, summa)
    });
    for (rank, (before, served, summa)) in out.results.iter().enumerate() {
        for (role, (served, before)) in ["column", "row"].iter().zip(served.iter().zip(before)) {
            assert_eq!(served, summa, "rank {rank}: the {role}-parallel linear used stale weights");
            assert_ne!(served, before, "rank {rank}: the step must change the {role} output");
        }
    }
}
