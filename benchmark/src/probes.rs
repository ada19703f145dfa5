//! Probes ([P]): the benchmark times one layer's public function directly,
//! at the shape that dominates the workload being traced. A probe answers
//! "how fast is this layer alone"; the traced run answers "how much of the
//! step is it". Each workload runs only the probes of layers it exercises;
//! the rest of the per-layer names read 0 for it.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use tesseract_comm::{RankCtx, RunConfig};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, InferBatch, InferModel, Module,
    TesseractGrid, TransformerConfig,
};
use tesseract_tensor::{DenseTensor, Matrix, Meter, TensorLike, Xoshiro256StarStar};

use crate::cli::{Args, Workload};
use crate::rep::Rep;
use crate::stats;
use crate::{serve, train, POOL_THREADS};

/// Repetitions of a single-thread kernel probe (median reported).
const KERNEL_REPS: usize = 7;

fn random(rows: usize, cols: usize, seed: u64) -> DenseTensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
}

/// Median host seconds of `f` over [`KERNEL_REPS`] calls after one
/// warm-up call.
fn time_kernel(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let begin = Instant::now();
            f();
            begin.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Host and virtual seconds per iteration of an SPMD body: `setup` builds
/// each rank's state, `body` runs `iters` times after one warm-up call.
/// Host time is rank 0's wall clock between two host barriers (so it
/// covers the slowest rank); virtual time is the largest clock advance.
fn time_spmd<S>(
    world: usize,
    iters: usize,
    setup: impl Fn(&mut RankCtx) -> S + Send + Sync,
    body: impl Fn(&mut RankCtx, &mut S) + Send + Sync,
) -> (f64, f64) {
    let barrier = Barrier::new(world);
    let out = RunConfig::new(world).with_threads(POOL_THREADS).cluster().run(|ctx| {
        let mut state = setup(ctx);
        body(ctx, &mut state);
        ctx.flush_compute();
        barrier.wait();
        let (begin, clock0) = (Instant::now(), ctx.clock());
        for _ in 0..iters {
            body(ctx, &mut state);
        }
        ctx.flush_compute();
        barrier.wait();
        (begin.elapsed().as_secs_f64(), ctx.clock() - clock0)
    });
    let virt = out.results.iter().map(|r| r.1).fold(0.0, f64::max);
    (out.results[0].0 / iters as f64, virt / iters as f64)
}

// ---------------------------------------------------------------------------
// tensor.*
// ---------------------------------------------------------------------------

/// GFLOP/s of the three GEMM orientations at `[m,k]·[k,n]`.
fn gemm_orientations(m: usize, k: usize, n: usize, rep: &mut Rep) {
    let flops = 2.0 * (m * k * n) as f64;
    let mut meter = Meter::new();
    let (a, b) = (random(m, k, 1), random(k, n, 2));
    let nn = time_kernel(|| drop(std::hint::black_box(a.matmul(&b, &mut meter))));
    // dX = dY · Wᵀ and dW = Xᵀ · dY at the same layer.
    let (dy, w) = (random(m, n, 3), random(k, n, 4));
    let nt = time_kernel(|| drop(std::hint::black_box(dy.matmul_nt(&w, &mut meter))));
    let tn = time_kernel(|| drop(std::hint::black_box(a.matmul_tn(&dy, &mut meter))));
    rep.set("tensor.gemm_host_gflops.nn", flops / nn * 1e-9);
    rep.set("tensor.gemm_host_gflops.nt", flops / nt * 1e-9);
    rep.set("tensor.gemm_host_gflops.tn", flops / tn * 1e-9);
}

/// The decode step's kernels: the skinny fc1 GEMM, the masked softmax and
/// the KV row-append.
fn decode_kernels(sz: &serve::Sizes, rep: &mut Rep) {
    let q = sz.shape.q;
    let (rows, k, n) = (sz.max_lane_requests, sz.model.hidden / q, sz.model.mlp_hidden() / q);
    let mut meter = Meter::new();
    let (a, b) = (random(rows, k, 5), random(k, n, 6));
    let t = time_kernel(|| drop(std::hint::black_box(a.matmul(&b, &mut meter))));
    rep.set("tensor.gemm_skinny_host_gflops", 2.0 * (rows * k * n) as f64 / t * 1e-9);

    // Causal scores of a longest-prompt prefill: row i sees i+1 keys.
    let len = sz.prompt_lens.1;
    let scores = random(len, len, 7);
    let limits: Vec<usize> = (1..=len).collect();
    let t = time_kernel(|| {
        let mut s = scores.clone();
        s.softmax_rows_masked_inplace(&limits, &mut meter);
        std::hint::black_box(s);
    });
    let clone = time_kernel(|| drop(std::hint::black_box(scores.clone())));
    let active: usize = limits.iter().sum();
    rep.set("tensor.softmax_masked_host_ns_per_elem", (t - clone).max(0.0) / active as f64 * 1e9);

    // One decode step's KV append for one head: [len, d̄] grows by a row.
    let hd = sz.model.head_dim();
    let parts = [random(len, hd, 8), random(1, hd, 9)];
    let t =
        time_kernel(|| drop(std::hint::black_box(DenseTensor::concat_rows(&parts, &mut meter))));
    rep.set("tensor.concat_rows_host_ns_per_byte", t / ((len + 1) * hd * 4) as f64 * 1e9);
}

// ---------------------------------------------------------------------------
// comm.*
// ---------------------------------------------------------------------------

/// Host µs of one small all-reduce on a `g`-rank world group.
fn allreduce_us(g: usize) -> f64 {
    let iters = if g >= 32 { 200 } else { 2000 };
    let (host, _) = time_spmd(
        g,
        iters,
        |ctx| ctx.world_group(),
        |ctx, world| {
            let t = DenseTensor::from_matrix(Matrix::full(1, 16, 1.0));
            std::hint::black_box(world.all_reduce_shared(ctx, t));
        },
    );
    host * 1e6
}

/// Host µs of one 1 MiB shared broadcast on a `g`-rank world group.
fn broadcast_1mib_us(g: usize) -> f64 {
    let (host, _) = time_spmd(
        g,
        200,
        |ctx| (ctx.world_group(), Arc::new(random(256, 1024, 10))),
        |ctx, (world, panel)| {
            let payload = (ctx.rank == 0).then(|| Arc::clone(panel));
            std::hint::black_box(world.broadcast_shared(ctx, 0, payload));
        },
    );
    host * 1e6
}

/// Host ms of `Cluster::run` with an empty closure on `w` ranks.
fn cluster_spawn_ms(w: usize) -> f64 {
    let cluster = RunConfig::new(w).with_threads(POOL_THREADS).cluster();
    let t = time_kernel(|| drop(std::hint::black_box(cluster.run(|ctx| ctx.rank))));
    t * 1e3
}

// ---------------------------------------------------------------------------
// core.*
// ---------------------------------------------------------------------------

/// One `tesseract_matmul` forward plus both backward rules at the
/// workload's widest linear (fc1: `[R, h] · [h, 4h]`), and one fwd+bwd of
/// each sublayer of a Transformer layer, on the workload's own grid.
fn core_train(sz: &train::Sizes, rep: &mut Rep) {
    let shape = sz.shape;
    let cfg = sz.body;
    let rows = cfg.rows() / (shape.q * shape.d);
    let (k, n) = (cfg.hidden / shape.q, cfg.mlp_hidden() / shape.q);
    let iters = if cfg.hidden >= 256 { 5 } else { 200 };

    let (host, virt) = time_spmd(
        shape.size(),
        iters,
        |ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let seed = 11 + ctx.rank as u64;
            (grid, Arc::new(random(rows, k, seed)), Arc::new(random(k, n, seed + 100)))
        },
        |ctx, (grid, x, w)| {
            let y = tesseract_matmul(grid, ctx, x, w);
            let dx = tesseract_matmul_nt(grid, ctx, &y, w);
            let dw = tesseract_matmul_tn(grid, ctx, x, &y, true);
            std::hint::black_box((dx, dw));
        },
    );
    rep.set("core.mm_host_us", host * 1e6);
    rep.set("core.mm_virt_us", virt * 1e6);

    type Layer = tesseract_core::TesseractTransformerLayer<DenseTensor>;
    type Pick = fn(&mut Layer) -> &mut dyn Module<DenseTensor>;
    let sublayers: [(&str, Pick); 3] =
        [("attention", |l| &mut l.attn), ("mlp", |l| &mut l.mlp), ("layernorm", |l| &mut l.ln1)];
    for (name, pick) in sublayers {
        let (host, virt) = time_spmd(
            shape.size(),
            iters,
            |ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let one = TransformerConfig { layers: 1, ..cfg };
                let model = InferModel::<DenseTensor>::new(ctx, &grid, one, true, 12, 0);
                let x = Arc::new(random(rows, k, 13 + ctx.rank as u64));
                (grid, model, x)
            },
            |ctx, (grid, model, x)| {
                let layer = pick(&mut model.layers[0]);
                let y = layer.forward(grid, ctx, x);
                std::hint::black_box(layer.backward(grid, ctx, &y));
            },
        );
        rep.set(&format!("core.sublayer_host_us.{name}"), host * 1e6);
        rep.set(&format!("core.sublayer_virt_us.{name}"), virt * 1e6);
    }
}

/// `InferModel::forward_infer` on the serving grid: a longest-prompt
/// prefill on every lane, then decode steps at full lane occupancy.
fn core_infer(sz: &serve::Sizes, rep: &mut Rep) {
    let shape = sz.shape;
    let cfg = sz.model;
    let local_h = cfg.hidden / shape.q;
    let lanes = shape.q * shape.d;
    let (plen, slots) = (sz.prompt_lens.1, sz.max_lane_requests);
    let decode_steps = sz.output_lens.1;
    let barrier = Barrier::new(shape.size());

    let out = RunConfig::new(shape.size()).with_threads(POOL_THREADS).cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let model = InferModel::<DenseTensor>::new(ctx, &grid, cfg, true, 14, 0);
        let prompt = Arc::new(random(plen, local_h, 15 + grid.a_row_block() as u64));
        let prefill = |ctx: &mut RankCtx| {
            let mut batch = InferBatch { new_rows: vec![plen], kvs: vec![model.new_kv(&grid)] };
            let y = model.forward_infer(&grid, ctx, &prompt, &mut batch);
            (y, batch.kvs.pop().expect("one request in the batch"))
        };
        // Warm-up, then fill every slot of the lane with a timed prefill.
        let _ = prefill(ctx);
        ctx.flush_compute();
        barrier.wait();
        let (begin, clock0) = (Instant::now(), ctx.clock());
        let mut kvs = Vec::with_capacity(slots);
        let mut last = None;
        for _ in 0..slots {
            let (y, kv) = prefill(ctx);
            kvs.push(kv);
            last = Some(y);
        }
        ctx.flush_compute();
        barrier.wait();
        let prefill_host = begin.elapsed().as_secs_f64();
        let prefill_virt = ctx.clock() - clock0;
        let kv_bytes_per_token = kvs[0].bytes() as f64 / kvs[0].seq_len() as f64;

        // Decode: every slot advances one token per step.
        let y = last.expect("at least one slot");
        let row = y.slice_rows(plen - 1, plen, &mut ctx.meter);
        let x = Arc::new(DenseTensor::concat_rows(&vec![row; slots], &mut ctx.meter));
        let mut batch = InferBatch { new_rows: vec![1; slots], kvs };
        ctx.flush_compute();
        barrier.wait();
        let (begin, clock0) = (Instant::now(), ctx.clock());
        for _ in 0..decode_steps {
            std::hint::black_box(model.forward_infer(&grid, ctx, &x, &mut batch));
        }
        ctx.flush_compute();
        barrier.wait();
        let decode_host = begin.elapsed().as_secs_f64();
        let decode_virt = ctx.clock() - clock0;
        (prefill_host, prefill_virt, decode_host, decode_virt, kv_bytes_per_token)
    });
    let head = out.results[0];
    let max =
        |f: fn(&(f64, f64, f64, f64, f64)) -> f64| out.results.iter().map(f).fold(0.0, f64::max);
    // Tokens the whole grid pushed through per phase: every lane works.
    let prefill_tokens = (lanes * slots * plen) as f64;
    let decode_tokens = (lanes * slots * decode_steps) as f64;
    rep.set("core.prefill_host_us_per_token", head.0 / prefill_tokens * 1e6);
    rep.set("core.decode_host_us_per_token", head.2 / decode_tokens * 1e6);
    // Lanes run side by side on the virtual clock: per token of one lane.
    rep.set("core.prefill_virt_us_per_token", max(|r| r.1) / (slots * plen) as f64 * 1e6);
    rep.set("core.decode_virt_us_per_token", max(|r| r.3) / (slots * decode_steps) as f64 * 1e6);
    rep.set("core.kv_bytes_per_token", head.4);
}

/// Entry point of a probes child.
pub fn run_child(args: &Args) -> Rep {
    let w = args.workload.expect("child has a workload");
    let mut rep = Rep::default();
    match w {
        Workload::TrainGemm | Workload::TrainComm => {
            let sz = train::sizes(w, args.smoke);
            let (q, d) = (sz.shape.q, sz.shape.d);
            let rows = sz.body.rows() / (q * d);
            if w == Workload::TrainGemm {
                // fc1's SUMMA step: [R, h/q] · [h/q, 4h/q].
                gemm_orientations(rows, sz.body.hidden / q, sz.body.mlp_hidden() / q, &mut rep);
                // Its fibers have q = 2 members; fc2's panel is 1 MiB.
                rep.set("comm.bcast_host_us_1mib.g2", broadcast_1mib_us(2));
            } else {
                rep.set("comm.cluster_spawn_host_ms.w8", cluster_spawn_ms(8));
            }
            rep.set("comm.allreduce_host_us.g2", allreduce_us(2));
            core_train(&sz, &mut rep);
        }
        Workload::ServeOpen => {
            let sz = serve::sizes(args.smoke);
            decode_kernels(&sz, &mut rep);
            rep.set("comm.allreduce_host_us.g2", allreduce_us(2));
            rep.set("comm.allreduce_host_us.g8", allreduce_us(8));
            rep.set("comm.cluster_spawn_host_ms.w8", cluster_spawn_ms(8));
            core_infer(&sz, &mut rep);
        }
        Workload::PlanPaper64 => {
            // The fibers of [4,4,4], [8,8,1] and megatron[64].
            let groups: &[usize] = if args.smoke { &[2, 4] } else { &[4, 8, 64] };
            for &g in groups {
                rep.set(&format!("comm.allreduce_host_us.g{g}"), allreduce_us(g));
            }
            let w = if args.smoke { 8 } else { 64 };
            rep.set(&format!("comm.cluster_spawn_host_ms.w{w}"), cluster_spawn_ms(w));
        }
    }
    rep
}
