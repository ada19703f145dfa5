//! Golden-value regression test for the Module refactor: one AdamW step of
//! the dense ViT on the `[2, 2, 2]` grid must stay **bitwise** identical to
//! the values captured when the test was written, and the shadow backend's
//! flop/byte accounting for a Transformer fwd+bwd must not drift. Any
//! refactor of the layer stack that changes numerics (or the metered cost
//! model) trips this immediately. The serial oracle's short training
//! trajectory, with and without gradient clipping, is pinned the same way.

use tesseract_comm::Cluster;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::{DenseTensor, Meter, ShadowTensor, TensorLike};
use tesseract_train::vit::{distributed_cross_entropy, TesseractViT, ViTConfig};
use tesseract_train::{train_serial, AdamW, TrainSettings};

fn vcfg() -> ViTConfig {
    ViTConfig {
        body: TransformerConfig {
            batch: 4,
            seq: 3,
            hidden: 8,
            heads: 2,
            mlp_ratio: 2,
            layers: 1,
            eps: 1e-5,
        },
        patch_dim: 4,
        classes: 8,
    }
}

/// Rank 0's fingerprint of one training step, as f32 bit patterns.
struct Fingerprint {
    logits_row0: Vec<u32>,
    loss: u32,
    embed_w00: u32,
    head_w00: u32,
    mlp_fc1_w00: u32,
}

fn run_step() -> Fingerprint {
    let v = vcfg();
    let shape = GridShape::new(2, 2);
    let ds =
        tesseract_train::SyntheticVisionDataset::new(v.classes, v.body.seq, v.patch_dim, 0.3, 7);
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut model = TesseractViT::<DenseTensor>::new(ctx, &grid, v, 42);
        let mut opt: AdamW<DenseTensor> = AdamW::new(3e-3, 0.3);
        let b = v.body.batch;
        let (x, labels) = ds.batch_for_step(b, 1234, 0);
        let x_loc = std::sync::Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let per = b / (shape.q * shape.d);
        let h = grid.a_row_block();
        let my_labels = &labels[h * per..(h + 1) * per];
        let logits = model.forward(&grid, ctx, &x_loc);
        let (loss_local, dlogits, _) = distributed_cross_entropy(&grid, ctx, &logits, my_labels, b);
        let _ = model.backward(&grid, ctx, &std::sync::Arc::new(dlogits));
        opt.step(&mut Meter::new(), &mut model);
        model.zero_grad();
        let logits_row0: Vec<u32> = logits.matrix().row(0).iter().map(|f| f.to_bits()).collect();
        let embed_w00 = model.embed.weight().matrix()[(0, 0)].to_bits();
        let head_w00 = model.head.weight().matrix()[(0, 0)].to_bits();
        let mut mlp_fc1_w00 = 0u32;
        let mut idx = 0;
        model.visit_params(&mut |pr| {
            // Visit order: embed(w,b), attn wqkv, wo, mlp fc1 (index 4 on
            // row-0 ranks carrying biases), …; grab fc1's [0,0] entry.
            if idx == 4 {
                mlp_fc1_w00 = pr.weight.matrix()[(0, 0)].to_bits();
            }
            idx += 1;
        });
        Fingerprint { logits_row0, loss: loss_local.to_bits(), embed_w00, head_w00, mlp_fc1_w00 }
    });
    out.results.into_iter().next().expect("rank 0 fingerprint")
}

mod golden {
    /// Rank 0's `[b/(dq), classes/q]` logits block, row 0, bit patterns.
    pub const LOGITS_ROW0: [u32; 4] = [3218465214, 1040834800, 984450560, 1071279441];
    /// Rank 0's local cross-entropy loss sum.
    pub const LOSS: u32 = 1081829981;
    /// Post-step `embed.weight()[(0, 0)]`.
    pub const EMBED_W00: u32 = 3198730879;
    /// Post-step `head.weight()[(0, 0)]`.
    pub const HEAD_W00: u32 = 1050329089;
    /// Post-step MLP fc1 weight `[(0, 0)]` (5th visited parameter).
    pub const MLP_FC1_W00: u32 = 3195770600;
    /// Shadow Transformer fwd+bwd on `[2, 2, 2]`: rank 0's metered flops
    /// (f64 bit pattern).
    pub const SHADOW_FLOPS: u64 = 4634766966517661696;
    /// …and metered bytes allocated.
    pub const SHADOW_BYTES: u64 = 312;
    /// `train_serial`, 2 epochs × 3 steps: per-epoch `(loss, accuracy)`
    /// bit patterns, unclipped…
    pub const SERIAL_TRAJECTORY: [(u32, u32); 2] = [(1079319488, 0), (1075177527, 1042983595)];
    /// …and clipped to [`SERIAL_CLIP`](super::SERIAL_CLIP).
    pub const SERIAL_TRAJECTORY_CLIPPED: [(u32, u32); 2] =
        [(1079319077, 0), (1075167161, 1042983595)];
}

/// A global-norm threshold small enough that clipping engages on this task.
const SERIAL_CLIP: f32 = 0.01;

/// The serial oracle's per-epoch `(loss, accuracy)` as f32 bit patterns.
fn serial_trajectory(clip_grad_norm: Option<f32>) -> Vec<(u32, u32)> {
    let v = vcfg();
    let ds =
        tesseract_train::SyntheticVisionDataset::new(v.classes, v.body.seq, v.patch_dim, 0.3, 7);
    let s = TrainSettings { epochs: 2, steps_per_epoch: 3, clip_grad_norm, ..Default::default() };
    let report = train_serial(v, &ds, s);
    report.epochs.iter().map(|e| (e.loss.to_bits(), e.accuracy.to_bits())).collect()
}

#[test]
fn serial_trajectory_is_bitwise_stable() {
    let plain = serial_trajectory(None);
    let clipped = serial_trajectory(Some(SERIAL_CLIP));
    assert_ne!(plain, clipped, "the clip threshold must engage");
    assert_eq!(plain.as_slice(), golden::SERIAL_TRAJECTORY.as_slice(), "serial run drifted");
    assert_eq!(
        clipped.as_slice(),
        golden::SERIAL_TRAJECTORY_CLIPPED.as_slice(),
        "clipped serial run drifted"
    );
}

#[test]
#[ignore = "generator: prints fresh golden values"]
fn print_goldens() {
    let fp = run_step();
    println!("LOGITS_ROW0: {:?}", fp.logits_row0);
    println!("LOSS: {}", fp.loss);
    println!("EMBED_W00: {}", fp.embed_w00);
    println!("HEAD_W00: {}", fp.head_w00);
    println!("MLP_FC1_W00: {}", fp.mlp_fc1_w00);
    let (flops, bytes) = shadow_counters();
    println!("SHADOW_FLOPS: {flops}");
    println!("SHADOW_BYTES: {bytes}");
    println!("SERIAL_TRAJECTORY: {:?}", serial_trajectory(None));
    println!("SERIAL_TRAJECTORY_CLIPPED: {:?}", serial_trajectory(Some(SERIAL_CLIP)));
}

#[test]
fn dense_vit_step_is_bitwise_stable() {
    let fp = run_step();
    assert_eq!(fp.logits_row0.as_slice(), golden::LOGITS_ROW0.as_slice(), "logits drifted");
    assert_eq!(fp.loss, golden::LOSS, "loss drifted");
    assert_eq!(fp.embed_w00, golden::EMBED_W00, "post-step embed weight drifted");
    assert_eq!(fp.head_w00, golden::HEAD_W00, "post-step head weight drifted");
    assert_eq!(fp.mlp_fc1_w00, golden::MLP_FC1_W00, "post-step fc1 weight drifted");
}

fn shadow_counters() -> (u64, u64) {
    let cfg = vcfg().body;
    let shape = GridShape::new(2, 2);
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = TesseractTransformer::<ShadowTensor>::new(ctx, &grid, cfg, true, 42, 0);
        let rows = cfg.rows() / (shape.q * shape.d);
        let x = std::sync::Arc::new(ShadowTensor::zeros(rows, cfg.hidden / shape.q));
        let y = model.forward(&grid, ctx, &x);
        let _ = model.backward(&grid, ctx, &y);
        (ctx.meter.flops.to_bits(), ctx.meter.bytes_allocated)
    });
    out.results.into_iter().next().expect("rank 0 counters")
}

#[test]
fn shadow_step_accounting_is_stable() {
    let (flops, bytes) = shadow_counters();
    assert_eq!(flops, golden::SHADOW_FLOPS, "shadow flop accounting drifted");
    assert_eq!(bytes, golden::SHADOW_BYTES, "shadow byte accounting drifted");
}
