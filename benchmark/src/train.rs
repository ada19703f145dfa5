//! The two training workloads.
//!
//! `train_gemm`: a Dense `TesseractViT` with cross-entropy,
//! `clip_grad_norm` and `AdamW` on `[2,2,1]` at hidden 512 —
//! `tensor::matmul`'s blocked path does most of the host work and
//! collectives are few and large.
//!
//! `train_comm`: a Dense `TesseractTransformer` stack with `AdamW` on
//! `[2,2,2]` at hidden 64 with `recompute_every = 2` — GEMMs are tiny and
//! serial, so the fabric rendezvous, the split-phase bookkeeping, the
//! double-buffered SUMMA loop and the tape's checkpoint/replay do the
//! work. A GEMM win must not move it; a fabric win must.
//!
//! Both run one SPMD step loop inside a single `Cluster::run`, so set-up
//! (thread spawn, model build, warm-up) happens once and every timed step
//! sees warm caches. The loop is paced by a host-side barrier per step:
//! rank 0 reads the wall clock, publishes the step at which to stop, and
//! the time between two barrier exits is one whole step across all ranks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use tesseract_comm::{RankCtx, RankReport, RunConfig, RunOutput};
use tesseract_core::layers::StackOptions;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::{DenseTensor, Matrix, Meter, TensorLike, TraceEvent, Xoshiro256StarStar};
use tesseract_train::{
    clip_grad_norm, distributed_cross_entropy, train_serial, AdamW, SyntheticVisionDataset,
    TesseractViT, TrainSettings, ViTConfig,
};

use crate::cli::{Args, Phase, Workload};
use crate::rep::Rep;
use crate::reports;
use crate::spans::{self, Span, SpanLog};
use crate::stats;
use crate::POOL_THREADS;

const LR: f32 = 1e-4;
const WEIGHT_DECAY: f32 = 0.3;
const CLIP_NORM: f32 = 1.0;
const DATA_NOISE: f32 = 0.5;

/// Sizes of one training workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub shape: GridShape,
    pub body: TransformerConfig,
    /// `Some`: the ViT task (patch embedding, head, cross-entropy, clip).
    /// `None`: the bare Transformer stack with a squared-output loss.
    pub vit: Option<(usize, usize)>,
    pub recompute_every: Option<usize>,
    /// Untimed steps before the first timed one.
    pub warmup: usize,
    /// Timed steps every repetition runs whatever the clock says: the
    /// window virtual-clock metrics are computed over, so they do not
    /// depend on how many steps fit the measuring time.
    pub fixed: usize,
    /// Steps of the shortened traced/untraced pair (at least `fixed`).
    pub short: usize,
}

pub fn sizes(w: Workload, smoke: bool) -> Sizes {
    let cfg = |batch, seq, hidden, heads, layers| TransformerConfig {
        batch,
        seq,
        hidden,
        heads,
        mlp_ratio: 4,
        layers,
        eps: 1e-5,
    };
    match (w, smoke) {
        (Workload::TrainGemm, false) => Sizes {
            shape: GridShape::new(2, 1),
            body: cfg(8, 64, 512, 8, 4),
            vit: Some((64, 16)),
            recompute_every: None,
            warmup: 2,
            fixed: 3,
            short: 5,
        },
        (Workload::TrainGemm, true) => Sizes {
            shape: GridShape::new(2, 1),
            body: cfg(4, 8, 64, 4, 1),
            vit: Some((16, 8)),
            recompute_every: None,
            warmup: 1,
            fixed: 2,
            short: 2,
        },
        (Workload::TrainComm, false) => Sizes {
            shape: GridShape::new(2, 2),
            body: cfg(8, 16, 64, 8, 8),
            vit: None,
            recompute_every: Some(2),
            warmup: 10,
            fixed: 20,
            short: 20,
        },
        (Workload::TrainComm, true) => Sizes {
            shape: GridShape::new(2, 2),
            body: cfg(8, 4, 16, 2, 2),
            vit: None,
            recompute_every: Some(1),
            warmup: 1,
            fixed: 2,
            short: 3,
        },
        _ => unreachable!("not a training workload"),
    }
}

fn vit_config(sz: &Sizes) -> Option<ViTConfig> {
    sz.vit.map(|(patch_dim, classes)| ViTConfig { body: sz.body, patch_dim, classes })
}

/// When the step loop ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After exactly this many timed steps.
    Fixed(usize),
    /// After `fixed` timed steps and `seconds` of measuring time.
    Timed { fixed: usize, seconds: f64 },
}

/// What one rank saw.
struct RankLog {
    /// Host time at each step boundary (seconds since process start);
    /// `marks[s]` is the barrier exit before step `s`.
    marks: Vec<f64>,
    /// Virtual clock at the same boundaries.
    clocks: Vec<f64>,
    /// The step's global loss, as reduced on this rank.
    losses: Vec<f32>,
    /// Virtual seconds inside forward / backward over the timed steps.
    fwd_virt: f64,
    bwd_virt: f64,
    /// Reports at the first timed boundary and at the end.
    at_start: RankReport,
    at_end: RankReport,
    spans: Vec<Span>,
}

/// The model and task of one rank, behind the two calls the loop needs.
enum Task {
    Vit { ds: Arc<SyntheticVisionDataset>, vcfg: ViTConfig, seed: u64 },
    Stack { seed: u64 },
}

impl Task {
    /// This rank's input block for `step` and, for the ViT, its labels.
    fn data(&self, sz: &Sizes, grid: &TesseractGrid, step: u64) -> (Arc<DenseTensor>, Vec<usize>) {
        let (i, j, k) = grid.coords;
        match self {
            Task::Vit { ds, vcfg, seed } => {
                let b = vcfg.body.batch;
                let (x, labels) = ds.batch_for_step(b, *seed, step);
                let per = b / (sz.shape.q * sz.shape.d);
                let h = grid.a_row_block();
                let mine = labels[h * per..(h + 1) * per].to_vec();
                (Arc::new(DenseTensor::from_matrix(a_block(&x, sz.shape, i, j, k))), mine)
            }
            Task::Stack { seed } => {
                let mut rng = Xoshiro256StarStar::seed_from_u64(
                    seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let x = Matrix::random_uniform(sz.body.rows(), sz.body.hidden, -1.0, 1.0, &mut rng);
                (Arc::new(DenseTensor::from_matrix(a_block(&x, sz.shape, i, j, k))), Vec::new())
            }
        }
    }

    /// Loss and output gradient. Returns the global loss (identical on
    /// every rank: the reductions fold in ascending member order).
    fn loss(
        &self,
        sz: &Sizes,
        grid: &TesseractGrid,
        ctx: &mut RankCtx,
        y: &Arc<DenseTensor>,
        labels: &[usize],
    ) -> (f32, Arc<DenseTensor>) {
        let scalar = |v: f32| DenseTensor::from_matrix(Matrix::from_vec(1, 1, vec![v]));
        match self {
            Task::Vit { vcfg, .. } => {
                let b = vcfg.body.batch;
                let (loss_local, dlogits, _) = distributed_cross_entropy(grid, ctx, y, labels, b);
                // Row members hold identical sums; reduce over the bands.
                let mut sum = grid.col.all_reduce_shared(ctx, scalar(loss_local));
                if sz.shape.d > 1 {
                    sum = grid.depth.all_reduce_shared(ctx, (*sum).clone());
                }
                (sum.matrix()[(0, 0)] / b as f32, Arc::new(dlogits))
            }
            Task::Stack { .. } => {
                // L = ½·mean(y²) over the global output; dL/dy = y / N.
                let n = (sz.body.rows() * sz.body.hidden) as f32;
                let norm = y.frobenius().expect("dense tensors have values");
                let mut sum = grid.row.all_reduce_shared(ctx, scalar(norm * norm));
                sum = grid.col.all_reduce_shared(ctx, (*sum).clone());
                sum = grid.depth.all_reduce_shared(ctx, (*sum).clone());
                let dy = y.scale(1.0 / n, &mut ctx.meter);
                (0.5 * sum.matrix()[(0, 0)] / n, Arc::new(dy))
            }
        }
    }
}

/// Runs the SPMD step loop on a fresh cluster.
fn run_ranks(sz: &Sizes, seed: u64, traced: bool, stop: Stop, t0: Instant) -> RunOutput<RankLog> {
    let world = sz.shape.size();
    let cluster = RunConfig::new(world).with_threads(POOL_THREADS).with_trace(traced).cluster();
    let barrier = Barrier::new(world);
    let stop_at = AtomicUsize::new(usize::MAX);
    let vcfg = vit_config(sz);
    let ds = vcfg.map(|v| {
        Arc::new(SyntheticVisionDataset::new(v.classes, v.body.seq, v.patch_dim, DATA_NOISE, seed))
    });
    let sz = *sz;
    cluster.run(|ctx| {
        let mut log = SpanLog::new(traced, ctx.rank, t0);
        log.enter("setup");
        let grid = TesseractGrid::new(ctx, sz.shape, 0);
        let (task, mut model): (Task, Box<dyn Module<DenseTensor>>) = match (&ds, vcfg) {
            (Some(ds), Some(vcfg)) => (
                Task::Vit { ds: Arc::clone(ds), vcfg, seed },
                Box::new(TesseractViT::<DenseTensor>::new(ctx, &grid, vcfg, seed)),
            ),
            _ => (
                Task::Stack { seed },
                Box::new(TesseractTransformer::<DenseTensor>::new_with_options(
                    ctx,
                    &grid,
                    sz.body,
                    true,
                    seed,
                    0,
                    StackOptions { recompute_every: sz.recompute_every, ..Default::default() },
                )),
            ),
        };
        let mut opt: AdamW<DenseTensor> = AdamW::new(LR, WEIGHT_DECAY);
        log.exit();

        let (mut marks, mut clocks, mut losses) = (Vec::new(), Vec::new(), Vec::new());
        let (mut fwd_virt, mut bwd_virt) = (0.0, 0.0);
        let mut at_start = None;
        let mut step = 0usize;
        loop {
            // Rank 0 decides, before the barrier of boundary `step`,
            // whether the loop ends there. `stop_at` only ever moves from
            // MAX to one boundary, so a rank that reads it late still sees
            // a value that is correct for its own boundary.
            if ctx.rank == 0 && stop_at.load(Ordering::SeqCst) == usize::MAX {
                let timed = step.saturating_sub(sz.warmup);
                let done = match stop {
                    Stop::Fixed(n) => timed >= n,
                    Stop::Timed { fixed, seconds } => {
                        timed >= fixed && t0.elapsed().as_secs_f64() - marks[sz.warmup] >= seconds
                    }
                };
                if done {
                    stop_at.store(step, Ordering::SeqCst);
                }
            }
            barrier.wait();
            marks.push(t0.elapsed().as_secs_f64());
            clocks.push(ctx.clock());
            if step == sz.warmup {
                at_start = Some(ctx.report());
            }
            if step >= stop_at.load(Ordering::SeqCst) {
                break;
            }
            let timed = step >= sz.warmup;

            log.enter(if timed { "step" } else { "warmup_step" });
            let (x, labels) = log.within("data", || task.data(&sz, &grid, step as u64));
            let v0 = ctx.vt_now();
            let y = log.within("fwd", || model.forward(&grid, ctx, &x));
            let v1 = ctx.vt_now();
            let (loss, dy) = log.within("loss", || task.loss(&sz, &grid, ctx, &y, &labels));
            let v2 = ctx.vt_now();
            log.within("bwd", || model.backward(&grid, ctx, &dy));
            let v3 = ctx.vt_now();
            if sz.vit.is_some() {
                log.within("clip", || clip_grad_norm(&grid, ctx, model.as_mut(), CLIP_NORM));
            }
            log.within("optim", || {
                // The update is local and outside the α–β model, as in
                // `train::trainer`: its flops go to a scratch meter.
                let mut scratch = Meter::new();
                opt.step(&mut scratch, model.as_mut());
                model.zero_grad();
            });
            ctx.flush_compute();
            log.exit();

            if timed {
                fwd_virt += v1 - v0;
                bwd_virt += v3 - v2;
            }
            losses.push(loss);
            step += 1;
        }
        RankLog {
            marks,
            clocks,
            losses,
            fwd_virt,
            bwd_virt,
            at_start: at_start.expect("the loop passes the first timed boundary"),
            at_end: ctx.report(),
            spans: log.into_spans(),
        }
    })
}

fn max_clock(logs: &[RankLog], boundary: usize) -> f64 {
    logs.iter().map(|l| l.clocks[boundary]).fold(0.0, f64::max)
}

/// Fills the record shared by every phase: end-to-end metrics, exact
/// values, output checks, operation counts.
fn summarize(sz: &Sizes, out: &RunOutput<RankLog>, rep: &mut Rep) {
    let logs = &out.results;
    let head = &logs[0];
    let steps = head.losses.len();
    let timed = steps - sz.warmup;
    let w = sz.warmup;

    rep.set("setup_s", head.marks[w]);
    let host: Vec<f64> = head.marks[w..].windows(2).map(|m| m[1] - m[0]).collect();
    rep.samples.insert("host_op_s".into(), host);

    // Virtual step time over the fixed window, so it does not depend on
    // how many steps fit the measuring time.
    let virt_step = (max_clock(logs, w + sz.fixed) - max_clock(logs, w)) / sz.fixed as f64;
    rep.set("virt_ops_per_s", 1.0 / virt_step);
    let peak = out.reports.iter().map(|r| r.activation_bytes_peak).max().unwrap_or(0);
    rep.set("mem_peak_bytes", peak as f64);

    rep.set_exact("virt_step_s", virt_step);
    rep.set_exact("mem_peak_bytes", peak);
    // Loss bits over the steps every repetition has in common.
    let common: Vec<String> =
        head.losses[..w + sz.fixed].iter().map(|l| format!("{:08x}", l.to_bits())).collect();
    rep.set_exact("loss_bits", common.join(","));
    rep.set("train.loss_final", f64::from(head.losses[w + sz.fixed - 1]));

    for (rank, l) in logs.iter().enumerate() {
        rep.check(l.losses == head.losses, || {
            format!("rank {rank} disagrees with rank 0 on the loss")
        });
    }
    rep.check(head.losses.iter().all(|l| l.is_finite()), || "non-finite loss".to_string());
    rep.attempted = timed as u64;
}

/// Per-layer numbers read from the run's public reports ([R]), the
/// benchmark's spans ([S]) and the library's trace events ([T]).
fn per_layer(sz: &Sizes, out: &RunOutput<RankLog>, rep: &mut Rep) {
    let logs = &out.results;
    let steps = logs[0].losses.len();
    let timed = (steps - sz.warmup) as f64;
    let world = logs.len() as f64;

    // [R] rank reports over the timed window, mean over ranks per step.
    let delta = |f: reports::Field| -> f64 {
        logs.iter().map(|l| f(&l.at_end) - f(&l.at_start)).sum::<f64>() / world / timed
    };
    reports::rank_layers(&delta, rep);
    rep.set("core.fwd_virt_s", logs.iter().map(|l| l.fwd_virt).fold(0.0, f64::max) / timed);
    rep.set("core.bwd_virt_s", logs.iter().map(|l| l.bwd_virt).fold(0.0, f64::max) / timed);

    // [R] global collective statistics cover every step of the run (the
    // schedule is the same each step; set-up issues no collective).
    reports::comm_layers(&out.comm, steps as f64, rep);

    // Recompute share: flops of this step over the flops of a plain one.
    // Forward is replayed once per checkpointed segment, so a plain step
    // costs (fwd + bwd) and this one (2·fwd + bwd) inside the stack.
    if sz.recompute_every.is_some() {
        let plain = plain_step_flops(sz);
        rep.set("core.recompute_flops_frac", delta(&|r| r.flops) * world / plain);
    }

    // [S] host spans of the timed steps, max over ranks of the per-step mean.
    for (metric, span) in [
        ("train.data_host_s", "data"),
        ("core.fwd_host_s", "fwd"),
        ("train.loss_host_s", "loss"),
        ("core.bwd_host_s", "bwd"),
        ("train.clip_host_s", "clip"),
        ("train.optim_host_s", "optim"),
    ] {
        let worst = logs.iter().map(|l| timed_span_total(&l.spans, span)).fold(0.0, f64::max);
        rep.set(metric, worst / timed);
    }

    // [T] roll-up of the library's Scope/Comm events on rank 0.
    if let Some(events) = out.traces.first().filter(|e| !e.is_empty()) {
        let t_begin = logs[0].clocks[sz.warmup];
        let (layer_s, layer_blocked_s) = scope_rollup(events, "transformer_layer", t_begin);
        rep.set("core.scope_virt_s.transformer_layer", layer_s / timed);
        rep.set("core.scope_blocked_s.transformer_layer", layer_blocked_s / timed);
        let step_s = logs[0].clocks[steps] - t_begin;
        rep.set("core.scope_virt_s.embed_head", (step_s - layer_s) / timed);
    }
}

/// Sum of the `name` spans that sit under a timed `step` span.
fn timed_span_total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == "step"))
        .map(Span::duration)
        .sum()
}

/// Virtual seconds inside `scope` spans that begin at or after `t_begin`
/// on one rank, and the blocked collective wait inside them. Nested
/// `scope` spans (a checkpointed segment replays its layers inside the
/// outer backward) are counted once, by their outermost span.
fn scope_rollup(events: &[TraceEvent], scope: &str, t_begin: f64) -> (f64, f64) {
    use tesseract_tensor::TraceKind;
    let mut windows: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| {
            matches!(e.kind, TraceKind::Scope { .. })
                && e.name.starts_with(scope)
                && e.begin >= t_begin
        })
        .map(|e| (e.begin, e.end))
        .collect();
    windows.sort_by(|a, b| a.partial_cmp(b).expect("virtual times are finite"));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (b, e) in windows {
        match merged.last_mut() {
            Some(last) if b < last.1 => last.1 = last.1.max(e),
            _ => merged.push((b, e)),
        }
    }
    let total = merged.iter().map(|(b, e)| e - b).sum();
    let blocked: f64 = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Comm { blocked_nanos, .. }
                if merged.iter().any(|&(b, x)| e.begin >= b && e.end <= x) =>
            {
                Some(blocked_nanos as f64 * 1e-9)
            }
            _ => None,
        })
        .sum();
    (total, blocked)
}

/// Whole-cluster flops of one step of the same stack without
/// checkpointing. Flops are determined by shapes alone, so one
/// `ShadowTensor` step gives the exact count at no tensor cost.
fn plain_step_flops(sz: &Sizes) -> f64 {
    use tesseract_tensor::ShadowTensor;
    let sz = *sz;
    let out = RunConfig::new(sz.shape.size()).with_threads(POOL_THREADS).cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, sz.shape, 0);
        let mut model = TesseractTransformer::<ShadowTensor>::new(ctx, &grid, sz.body, true, 0, 0);
        let rows = sz.body.rows() / (sz.shape.q * sz.shape.d);
        let x = Arc::new(ShadowTensor::new(rows, sz.body.hidden / sz.shape.q));
        let before = ctx.report().flops;
        let y = model.forward(&grid, ctx, &x);
        // The benchmark's loss scales the output once before backward.
        let dy = Arc::new(y.scale(1.0, &mut ctx.meter));
        model.backward(&grid, ctx, &dy);
        ctx.report().flops - before
    });
    out.results.iter().sum()
}

/// Entry point of a training child.
pub fn run_child(args: &Args, phase: Phase, t0: Instant) -> Rep {
    let w = args.workload.expect("child has a workload");
    let sz = sizes(w, args.smoke);
    let mut rep = Rep::default();
    match phase {
        Phase::Timed => {
            let stop = Stop::Timed { fixed: sz.fixed, seconds: args.seconds };
            let out = run_ranks(&sz, args.seed, false, stop, t0);
            summarize(&sz, &out, &mut rep);
        }
        Phase::Short | Phase::Traced => {
            let traced = phase == Phase::Traced;
            let out = run_ranks(&sz, args.seed, traced, Stop::Fixed(sz.short), t0);
            summarize(&sz, &out, &mut rep);
            if traced {
                per_layer(&sz, &out, &mut rep);
                let per_rank: Vec<Vec<Span>> =
                    out.results.iter().map(|l| l.spans.clone()).collect();
                spans::save(args, &per_rank, &mut rep);
                if let Some(vcfg) = vit_config(&sz) {
                    serial_baseline(&sz, vcfg, args.seed, &out.results[0], &mut rep);
                }
            }
        }
        Phase::Probes | Phase::Shadow => unreachable!("not a training phase"),
    }
    let host = &rep.samples["host_op_s"];
    rep.set("host_op_s", stats::median(host));
    rep
}

/// The single-worker `SerialViT` on the same task: baseline step time and
/// the loss the distributed run must reproduce.
fn serial_baseline(sz: &Sizes, vcfg: ViTConfig, seed: u64, head: &RankLog, rep: &mut Rep) {
    let steps = head.losses.len();
    let ds =
        SyntheticVisionDataset::new(vcfg.classes, vcfg.body.seq, vcfg.patch_dim, DATA_NOISE, seed);
    let settings = TrainSettings {
        epochs: 1,
        steps_per_epoch: steps,
        lr: LR,
        weight_decay: WEIGHT_DECAY,
        seed,
        data_seed: seed,
        clip_grad_norm: Some(CLIP_NORM),
    };
    let begin = Instant::now();
    let report = train_serial(vcfg, &ds, settings);
    rep.set("train.serial_step_host_s", begin.elapsed().as_secs_f64() / steps as f64);
    // `train_serial` reports the epoch's mean loss; compare like for like.
    let serial = report.final_loss();
    let ours = head.losses.iter().sum::<f32>() / steps as f32;
    let rel = ((ours - serial) / serial).abs();
    rep.set("train.loss_rel_err_vs_serial", f64::from(rel));
    rep.check(rel <= 1e-4, || {
        format!(
            "mean loss over {steps} steps is {ours} on {:?} but {serial} on SerialViT (rel {rel:e})",
            sz.shape
        )
    });
}
