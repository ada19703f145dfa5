//! The Figure-7 training loop: the same ViT trained (a) on a single device
//! and (b) on Tesseract `[q, q, d]` grids, with identical seeds, identical
//! data streams and identical AdamW hyperparameters — reproducing the
//! paper's finding that Tesseract "does not affect the model's accuracy".
//! Both curves come from one loop; the single device is the `[1,1,1]` grid
//! running the serial oracle [`SerialViT`].

use std::sync::Arc;

use tesseract_comm::{RankCtx, RunConfig};
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TesseractGrid};
use tesseract_tensor::{DenseTensor, Matrix, Meter};

use crate::data::SyntheticVisionDataset;
use crate::optim::AdamW;
use crate::vit::{distributed_cross_entropy, SerialViT, TesseractViT, ViTConfig};

/// Hyperparameters of one training run.
#[derive(Clone, Copy, Debug)]
pub struct TrainSettings {
    pub epochs: usize,
    pub steps_per_epoch: usize,
    /// Paper Figure 7: Adam, lr 3e-3, weight decay 0.3 (we scale the lr
    /// down for the tiny model; the *identical-curves* claim is what is
    /// being reproduced, not the absolute accuracy).
    pub lr: f32,
    pub weight_decay: f32,
    /// Model/optimizer seed (paper: "we fixed random seeds and
    /// initialization methods").
    pub seed: u64,
    /// Data stream seed (shared across all arrangements).
    pub data_seed: u64,
    /// Clip gradients to this global norm before each optimizer step
    /// (`None`: no clipping — the paper's Figure-7 setup).
    pub clip_grad_norm: Option<f32>,
}

impl Default for TrainSettings {
    fn default() -> Self {
        Self {
            epochs: 3,
            steps_per_epoch: 8,
            lr: 3e-3,
            weight_decay: 0.3,
            seed: 42,
            data_seed: 1234,
            clip_grad_norm: None,
        }
    }
}

/// Per-epoch metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochMetrics {
    pub loss: f32,
    pub accuracy: f32,
}

/// A full training trajectory (the data behind one Figure-7 curve).
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    pub epochs: Vec<EpochMetrics>,
}

impl TrainReport {
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map(|e| e.accuracy).unwrap_or(0.0)
    }

    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.loss).unwrap_or(f32::NAN)
    }
}

/// Trains the serial ViT — Figure 7's "single GPU" baseline curve — on a
/// one-rank `[1,1,1]` grid, through the same loop as [`train_tesseract`].
pub fn train_serial(vcfg: ViTConfig, ds: &SyntheticVisionDataset, s: TrainSettings) -> TrainReport {
    train(GridShape::new(1, 1), vcfg, ds, s, |_, _| SerialViT::new(vcfg, s.seed))
}

/// Trains the Tesseract ViT on a `[q, q, d]` grid (rank 0's metrics are
/// returned; all ranks agree by construction).
pub fn train_tesseract(
    shape: GridShape,
    vcfg: ViTConfig,
    ds: &SyntheticVisionDataset,
    s: TrainSettings,
) -> TrainReport {
    train(shape, vcfg, ds, s, |ctx, grid| TesseractViT::<DenseTensor>::new(ctx, grid, vcfg, s.seed))
}

/// The one Figure-7 training loop: every rank of a `shape` cluster builds
/// its model with `build`, then runs forward, the distributed loss,
/// backward, optional clipping and AdamW on the shared data stream. On
/// `[1,1,1]` the logits gather and the metric all-reduce have one member,
/// so the serial curve is the same f32 operations in the same order.
fn train<M: Module<DenseTensor>>(
    shape: GridShape,
    vcfg: ViTConfig,
    ds: &SyntheticVisionDataset,
    s: TrainSettings,
    build: impl Fn(&RankCtx, &TesseractGrid) -> M + Sync,
) -> TrainReport {
    let b = vcfg.body.batch;
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = build(ctx, &grid);
        let mut opt: AdamW<DenseTensor> = AdamW::new(s.lr, s.weight_decay);
        let mut scratch = Meter::new();
        let per = b / (shape.q * shape.d);
        let h = grid.a_row_block();
        let mut report = TrainReport::default();
        let mut step_idx = 0u64;
        for _epoch in 0..s.epochs {
            let mut loss_sum = 0.0f32;
            let mut correct_sum = 0usize;
            for _ in 0..s.steps_per_epoch {
                let (x, labels) = ds.batch_for_step(b, s.data_seed, step_idx);
                step_idx += 1;
                let x_loc = Arc::new(DenseTensor::from_matrix(a_block(
                    &x,
                    shape,
                    grid.i(),
                    grid.j(),
                    grid.k(),
                )));
                let my_labels = &labels[h * per..(h + 1) * per];
                let logits = ctx.traced("step", "fwd", |ctx| model.forward(&grid, ctx, &x_loc));
                let (loss_local, dlogits, correct_local) =
                    distributed_cross_entropy(&grid, ctx, &logits, my_labels, b);
                ctx.traced("step", "bwd", |ctx| model.backward(&grid, ctx, &Arc::new(dlogits)));
                if let Some(max_norm) = s.clip_grad_norm {
                    crate::clip::clip_grad_norm(&grid, ctx, &mut model, max_norm);
                }
                // Optimizer updates are local (grads already synchronized).
                opt.step(&mut scratch, &mut model);
                model.zero_grad();
                // Aggregate metrics over the distinct row bands: sum across
                // the column fiber (i) and across depth (k); members of a
                // row hold identical values so the row is not reduced.
                let packed = DenseTensor::from_matrix(Matrix::from_vec(
                    1,
                    2,
                    vec![loss_local, correct_local as f32],
                ));
                let mut packed = grid.col.all_reduce_shared(ctx, packed);
                if shape.d > 1 {
                    packed = grid.depth.all_reduce_shared(ctx, Arc::unwrap_or_clone(packed));
                }
                loss_sum += packed.matrix()[(0, 0)] / b as f32;
                correct_sum += packed.matrix()[(0, 1)] as usize;
            }
            report.epochs.push(EpochMetrics {
                loss: loss_sum / s.steps_per_epoch as f32,
                accuracy: correct_sum as f32 / (s.steps_per_epoch * b) as f32,
            });
        }
        report
    });
    out.results.into_iter().next().expect("rank 0 report")
}
