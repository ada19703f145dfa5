//! Training loops for the Figure-7 experiment: the same ViT trained (a) on
//! a single device and (b) on Tesseract `[q, q, d]` grids, with identical
//! seeds, identical data streams and identical AdamW hyperparameters —
//! reproducing the paper's finding that Tesseract "does not affect the
//! model's accuracy".

use std::sync::Arc;

use tesseract_comm::Cluster;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, ParamRef, TesseractGrid};
use tesseract_tensor::{nn, DenseTensor, Matrix, Meter};

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

/// Trains the serial ViT — Figure 7's "single GPU" baseline curve.
pub fn train_serial(vcfg: ViTConfig, ds: &SyntheticVisionDataset, s: TrainSettings) -> TrainReport {
    let b = vcfg.body.batch;
    let mut model = SerialViT::new(vcfg, s.seed);
    let mut opt: AdamW<DenseTensor> = AdamW::new(s.lr, s.weight_decay);
    let mut scratch = Meter::new();
    let mut report = TrainReport::default();
    let mut step_idx = 0u64;
    for _epoch in 0..s.epochs {
        let mut loss_sum = 0.0f32;
        let mut correct = 0usize;
        for _ in 0..s.steps_per_epoch {
            let (x, labels) = ds.batch_for_step(b, s.data_seed, step_idx);
            step_idx += 1;
            let logits = model.forward(&x);
            let (loss, dlogits) = nn::softmax_cross_entropy(&logits, &labels);
            correct += nn::count_correct(&logits, &labels);
            loss_sum += loss;
            model.backward(&dlogits);
            if let Some(max_norm) = s.clip_grad_norm {
                crate::clip::clip_grad_norm_params(
                    &mut |f| visit_serial_vit(&mut model, f),
                    max_norm,
                );
            }
            opt.step_params(&mut scratch, |f| visit_serial_vit(&mut model, f));
            model.zero_grad();
        }
        report.epochs.push(EpochMetrics {
            loss: loss_sum / s.steps_per_epoch as f32,
            accuracy: correct as f32 / (s.steps_per_epoch * b) as f32,
        });
    }
    report
}

/// Trains the Tesseract ViT on a `[q, q, d]` grid (rank 0's metrics are
/// returned; all ranks agree by construction).
pub fn train_tesseract(
    shape: GridShape,
    vcfg: ViTConfig,
    ds: &SyntheticVisionDataset,
    s: TrainSettings,
) -> TrainReport {
    let b = vcfg.body.batch;
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let _ = (i, j);
        let mut model = TesseractViT::<DenseTensor>::new(ctx, &grid, vcfg, s.seed);
        let mut opt: AdamW<DenseTensor> = AdamW::new(s.lr, s.weight_decay);
        let per = b / (shape.q * shape.d);
        let h = grid.a_row_block();
        let _ = k;
        let mut report = TrainReport::default();
        let mut step_idx = 0u64;
        for _epoch in 0..s.epochs {
            let mut loss_sum = 0.0f32;
            let mut correct_sum = 0usize;
            for _ in 0..s.steps_per_epoch {
                let (x, labels) = ds.batch_for_step(b, s.data_seed, step_idx);
                step_idx += 1;
                let x_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(
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
                ctx.traced("step", "bwd", |ctx| {
                    model.backward(&grid, ctx, &std::sync::Arc::new(dlogits))
                });
                if let Some(max_norm) = s.clip_grad_norm {
                    crate::clip::clip_grad_norm(&grid, ctx, &mut model, max_norm);
                }
                // Optimizer updates are local (grads already synchronized).
                let mut scratch = Meter::new();
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

/// Visits every (weight, grad) pair of a serial ViT as `DenseTensor`s so
/// the generic optimizers can update it. AdamW/SGD updates are elementwise,
/// so any consistent visit order yields the same trained weights as the
/// distributed runs (whose blocks partition the same matrices).
pub fn visit_serial_vit(model: &mut SerialViT, f: &mut dyn FnMut(ParamRef<'_, DenseTensor>)) {
    visit_serial_linear(&mut model.embed, f);
    for layer in &mut model.body.layers {
        visit_serial_linear(&mut layer.attn.wq, f);
        visit_serial_linear(&mut layer.attn.wk, f);
        visit_serial_linear(&mut layer.attn.wv, f);
        visit_serial_linear(&mut layer.attn.wo, f);
        visit_serial_linear(&mut layer.mlp.fc1, f);
        visit_serial_linear(&mut layer.mlp.fc2, f);
    }
    visit_serial_linear(&mut model.head, f);
}

/// Visits one serial linear layer's weight (and bias, if any).
pub fn visit_serial_linear(
    lin: &mut tesseract_baselines::serial::SerialLinear,
    f: &mut dyn FnMut(ParamRef<'_, DenseTensor>),
) {
    visit_matrix_pair(&mut lin.w, &mut lin.dw, f);
    if let (Some(b), Some(db)) = (lin.bias.as_mut(), lin.dbias.as_mut()) {
        visit_matrix_pair(b, db, f);
    }
}

fn visit_matrix_pair(w: &mut Matrix, g: &mut Matrix, f: &mut dyn FnMut(ParamRef<'_, DenseTensor>)) {
    let mut wt = DenseTensor::from_matrix(w.clone());
    let mut gt = DenseTensor::from_matrix(g.clone());
    f(ParamRef { weight: &mut wt, grad: &mut gt });
    *w = wt.into_matrix();
    *g = gt.into_matrix();
}
