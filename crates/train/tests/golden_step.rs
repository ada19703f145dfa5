//! Golden-value regression test for the Module refactor: one AdamW step of
//! the dense ViT on the `[2, 2, 2]` grid must stay **bitwise** identical to
//! the values captured when the test was written, and the shadow backend's
//! flop/byte accounting for a Transformer fwd+bwd must not drift. Any
//! refactor of the layer stack that changes numerics (or the metered cost
//! model) trips this immediately. The serial oracle's short training
//! trajectory, with and without gradient clipping, is pinned the same way.
//!
//! A second step, at hidden 256 on `[2, 2, 1]`, runs its local GEMMs on the
//! blocked path. Its constants hold under every `TESSERACT_KERNEL` the host
//! supports (`scripts/ci.sh` re-runs this file under each): every blocked
//! backend computes the same fused chain, so no Dense bit depends on the CPU.
//!
//! The small step's virtual clock is pinned too: every rank's virtual
//! seconds and the collectives per op.

use tesseract_comm::RunConfig;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::{DenseTensor, Meter, ShadowTensor, TensorLike};
use tesseract_train::vit::{distributed_cross_entropy, TesseractViT, ViTConfig};
use tesseract_train::{clip_grad_norm, train_serial, AdamW, TrainSettings};

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

/// [`vcfg`] widened until fc1, fc2, the QKV projection and their weight
/// gradients are `[8, 128]`-by-`[128, ≥ 384]` products on `[2, 2, 1]`:
/// above the blocked-GEMM threshold (64³).
fn vcfg_blocked() -> ViTConfig {
    let v = vcfg();
    ViTConfig {
        body: TransformerConfig { batch: 8, seq: 2, hidden: 256, heads: 4, mlp_ratio: 4, ..v.body },
        ..v
    }
}

/// The virtual clock of one step: every rank's virtual seconds (f64 bit
/// patterns, rank order) and the collectives the ranks led, per op in
/// `CollectiveOp::ALL` order.
#[derive(Debug, PartialEq)]
struct StepClock {
    virt_s: Vec<u64>,
    calls: Vec<u64>,
}

/// One AdamW step of the dense ViT on `shape`, clipped to `f32::MAX` (so
/// the clip's charges run and no value moves): rank 0's fingerprint, the
/// fewest GEMMs any rank ran on the blocked path, and the step's clock.
fn run_step(v: ViTConfig, shape: GridShape) -> (Fingerprint, u64, StepClock) {
    let ds =
        tesseract_train::SyntheticVisionDataset::new(v.classes, v.body.seq, v.patch_dim, 0.3, 7);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
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
        clip_grad_norm(&grid, ctx, &mut model, f32::MAX);
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
    let fewest_blocked = out.reports.iter().map(|r| r.gemms_blocked).min().expect("ranks");
    let clock = StepClock {
        virt_s: out.reports.iter().map(|r| r.virtual_time.to_bits()).collect(),
        calls: out.comm.per_op.iter().map(|op| op.calls).collect(),
    };
    (out.results.into_iter().next().expect("rank 0 fingerprint"), fewest_blocked, clock)
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
    /// The step's virtual seconds per rank (f64 bit patterns): 930.05 µs
    /// (rows `i = 0` and `i = 1` differ in the last bits). Before the patch
    /// embedding dropped its `dX` product and the pooling and the clip
    /// became one launch each, every rank read
    /// 4561901902106294984 (950.05 µs).
    pub const STEP_VIRT_S: [u64; 8] = [
        4561717430629686987,
        4561717430629686987,
        4561717430628026780,
        4561717430628026780,
        4561717430629686987,
        4561717430629686987,
        4561717430628026780,
        4561717430628026780,
    ];
    /// The step's collectives per op (`CollectiveOp::ALL` order:
    /// broadcast, reduce, all-reduce, all-gather, …). Before, the dropped
    /// `dX` product added 8 broadcasts and 8 reduces: `[216, 120, 60, 4,
    /// 0, 0, 0, 0, 0]`.
    pub const STEP_CALLS: [u64; 9] = [208, 112, 60, 4, 0, 0, 0, 0, 0];
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

    /// The same fingerprint of [`vcfg_blocked`](super::vcfg_blocked)'s step
    /// on `[2, 2, 1]`, whose local GEMMs run on the blocked path.
    pub mod blocked {
        pub const LOGITS_ROW0: [u32; 4] = [1023572176, 3214749507, 1040773104, 1036600960];
        pub const LOSS: u32 = 1093508889;
        pub const EMBED_W00: u32 = 3180081813;
        pub const HEAD_W00: u32 = 1033898807;
        pub const MLP_FC1_W00: u32 = 3173216444;
    }
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
    for (name, v, shape) in
        [("", vcfg(), GridShape::new(2, 2)), ("blocked::", vcfg_blocked(), GridShape::new(2, 1))]
    {
        let (fp, _, clock) = run_step(v, shape);
        if name.is_empty() {
            println!("STEP_VIRT_S: {:?}", clock.virt_s);
            println!("STEP_CALLS: {:?}", clock.calls);
        }
        println!("{name}LOGITS_ROW0: {:?}", fp.logits_row0);
        println!("{name}LOSS: {}", fp.loss);
        println!("{name}EMBED_W00: {}", fp.embed_w00);
        println!("{name}HEAD_W00: {}", fp.head_w00);
        println!("{name}MLP_FC1_W00: {}", fp.mlp_fc1_w00);
    }
    let (flops, bytes) = shadow_counters();
    println!("SHADOW_FLOPS: {flops}");
    println!("SHADOW_BYTES: {bytes}");
    println!("SERIAL_TRAJECTORY: {:?}", serial_trajectory(None));
    println!("SERIAL_TRAJECTORY_CLIPPED: {:?}", serial_trajectory(Some(SERIAL_CLIP)));
}

/// Asserts `fp` against one set of golden constants: logits row 0, loss,
/// and the post-step embed, head and fc1 weights.
fn assert_fingerprint(fp: &Fingerprint, want: (&[u32], u32, u32, u32, u32)) {
    assert_eq!(fp.logits_row0.as_slice(), want.0, "logits drifted");
    assert_eq!(fp.loss, want.1, "loss drifted");
    assert_eq!(fp.embed_w00, want.2, "post-step embed weight drifted");
    assert_eq!(fp.head_w00, want.3, "post-step head weight drifted");
    assert_eq!(fp.mlp_fc1_w00, want.4, "post-step fc1 weight drifted");
}

#[test]
fn dense_vit_step_is_bitwise_stable() {
    let (fp, _, _) = run_step(vcfg(), GridShape::new(2, 2));
    use golden::*;
    assert_fingerprint(&fp, (&LOGITS_ROW0, LOSS, EMBED_W00, HEAD_W00, MLP_FC1_W00));
}

#[test]
fn dense_vit_step_on_blocked_gemms_is_bitwise_stable() {
    let (fp, fewest_blocked, _) = run_step(vcfg_blocked(), GridShape::new(2, 1));
    assert!(fewest_blocked > 0, "a rank ran no GEMM on the blocked path");
    use golden::blocked::*;
    assert_fingerprint(&fp, (&LOGITS_ROW0, LOSS, EMBED_W00, HEAD_W00, MLP_FC1_W00));
}

fn shadow_counters() -> (u64, u64) {
    let cfg = vcfg().body;
    let shape = GridShape::new(2, 2);
    let out = RunConfig::from_env(shape.size()).run(|ctx| {
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

#[test]
fn dense_vit_step_clock_is_stable() {
    let (_, _, clock) = run_step(vcfg(), GridShape::new(2, 2));
    let want =
        StepClock { virt_s: golden::STEP_VIRT_S.to_vec(), calls: golden::STEP_CALLS.to_vec() };
    assert_eq!(clock, want, "the ViT step's virtual clock drifted");
}
