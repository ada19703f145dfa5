//! The serving workload, `serve_open`: the same layers used the other way
//! round — tape-free forward, KV-cache growth, skinny decode GEMMs (1–8
//! rows), masked in-place softmax and the continuous-batching scheduler,
//! on `[2,2,2]` at hidden 256.
//!
//! **Open loop on the virtual clock.** Arrivals are a Poisson trace fixed
//! before the run; latency counts from each request's scheduled arrival,
//! so a stall is charged to every request queued behind it. The generator
//! cannot run late — arrivals are data, not wall-clock sends — and its
//! lateness is reported as the constant 0 it is.
//!
//! The Dense backend supplies the host-clock numbers (whole serving runs,
//! timed from outside); the Shadow backend, pinned bitwise-equal to Dense
//! on every virtual-clock result, supplies the saturated capacity and the
//! fixed-rate latency ladder at a sample size that carries a p99.

use std::time::Instant;

use tesseract_comm::{RunConfig, RunOutput};
use tesseract_core::{GridShape, TransformerConfig};
use tesseract_serve::{
    generate, serve_on_cluster, RequestResult, RequestSpec, ServeConfig, ServeSummary,
    TrafficConfig,
};
use tesseract_tensor::{DenseTensor, ShadowTensor};

use crate::cli::{Args, Phase};
use crate::frozen;
use crate::rep::Rep;
use crate::reports;
use crate::spans::{self, SpanLog};
use crate::stats;
use crate::POOL_THREADS;

/// Arrival rate that puts every request at t≈0: the saturated regime.
const FLOOD_RATE: f64 = 1e12;
/// Fixed offered loads of the latency ladder, requests per virtual second.
/// Absolute, not multiples of measured capacity, so a capacity gain moves
/// the metrics instead of moving the ladder.
pub const LADDER_RPS: [f64; 3] = [600.0, 900.0, 1200.0];
/// The ladder rate the headline latency percentiles are quoted at, and
/// the rate of the Dense run.
const QUOTED_RPS: f64 = 900.0;

/// Sizes of the serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub shape: GridShape,
    pub model: TransformerConfig,
    pub max_batch_tokens: usize,
    pub max_lane_requests: usize,
    pub prompt_lens: (usize, usize),
    pub output_lens: (usize, usize),
    /// Requests of one Dense run (timed from outside, repeated).
    pub dense_requests: usize,
    /// Requests of the Dense warm-up run.
    pub warmup_requests: usize,
    /// Requests of each Shadow run; 1 000 leaves ten samples beyond p99.
    pub shadow_requests: usize,
}

pub fn sizes(smoke: bool) -> Sizes {
    let model = |hidden, heads, layers| TransformerConfig {
        batch: 16,
        seq: 64,
        hidden,
        heads,
        mlp_ratio: 4,
        layers,
        eps: 1e-5,
    };
    if smoke {
        Sizes {
            shape: GridShape::new(2, 2),
            model: model(32, 2, 1),
            max_batch_tokens: 32,
            max_lane_requests: 4,
            prompt_lens: (4, 8),
            output_lens: (2, 4),
            dense_requests: 8,
            warmup_requests: 4,
            shadow_requests: 40,
        }
    } else {
        Sizes {
            shape: GridShape::new(2, 2),
            model: model(256, 8, 4),
            max_batch_tokens: 128,
            max_lane_requests: 8,
            prompt_lens: (16, 64),
            output_lens: (4, 16),
            dense_requests: 128,
            warmup_requests: 16,
            shadow_requests: 1000,
        }
    }
}

fn serve_cfg(sz: &Sizes, seed: u64) -> ServeConfig {
    ServeConfig {
        model: sz.model,
        with_bias: true,
        seed,
        max_batch_tokens: sz.max_batch_tokens,
        max_lane_requests: sz.max_lane_requests,
    }
}

fn traffic(sz: &Sizes, rate: f64, requests: usize, seed: u64) -> Vec<RequestSpec> {
    generate(&TrafficConfig {
        rate,
        requests,
        prompt_lens: sz.prompt_lens,
        output_lens: sz.output_lens,
        seed,
    })
}

/// Which tensor backend serves a run.
#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Dense,
    Shadow,
}

/// One serving run, timed from outside.
struct Served {
    out: RunOutput<ServeSummary>,
    host_s: f64,
}

fn serve(sz: &Sizes, seed: u64, backend: Backend, traced: bool, trace: &[RequestSpec]) -> Served {
    let cluster =
        RunConfig::new(sz.shape.size()).with_threads(POOL_THREADS).with_trace(traced).cluster();
    let cfg = serve_cfg(sz, seed);
    let begin = Instant::now();
    let out = match backend {
        Backend::Dense => serve_on_cluster::<DenseTensor>(&cluster, sz.shape, &cfg, trace),
        Backend::Shadow => serve_on_cluster::<ShadowTensor>(&cluster, sz.shape, &cfg, trace),
    };
    Served { out, host_s: begin.elapsed().as_secs_f64() }
}

/// Tokens a trace pushes through the model (prompt + generated).
fn tokens(trace: &[RequestSpec]) -> usize {
    trace.iter().map(RequestSpec::total_tokens).sum()
}

/// FNV-1a over every field of every result: two runs with equal digests
/// produced byte-identical results.
fn digest(results: &[RequestResult]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        eat(r.id as u64);
        eat(r.lane as u64);
        eat(r.arrival.to_bits());
        eat(r.first_token_time.to_bits());
        eat(r.finish_time.to_bits());
        eat(r.prompt_len as u64);
        eat(r.output_len as u64);
    }
    format!("{h:016x}")
}

/// Output checks of one run: every request completed, every rank agrees,
/// the engine's counters reconcile with the rank reports.
fn check_run(what: &str, run: &Served, requests: usize, rep: &mut Rep) {
    let head = &run.out.results[0];
    rep.check(head.results.len() == requests, || {
        format!("{what}: {} of {requests} requests completed", head.results.len())
    });
    for (rank, (summary, report)) in run.out.results.iter().zip(&run.out.reports).enumerate() {
        rep.check(summary.results == head.results, || {
            format!("{what}: rank {rank} disagrees with rank 0 on the results")
        });
        rep.check(
            report.prefill_steps == summary.prefill_steps
                && report.decode_steps == summary.decode_steps
                && report.kv_cache_bytes_peak == summary.kv_peak_bytes,
            || format!("{what}: rank {rank} engine counters do not reconcile with its report"),
        );
    }
    rep.check(
        head.results.iter().all(|r| r.finish_time >= r.first_token_time && r.ttft() >= 0.0),
        || format!("{what}: a request finished before it started"),
    );
}

/// Virtual time per output token after the first.
fn tpot(r: &RequestResult) -> Option<f64> {
    (r.output_len > 1).then(|| (r.finish_time - r.first_token_time) / (r.output_len - 1) as f64)
}

/// Latency percentiles of one Shadow ladder point.
struct LadderPoint {
    ttft_p50: f64,
    ttft_p99: f64,
    tpot_p50: f64,
    tpot_p99: f64,
    achieved_rps: f64,
}

fn ladder_point(run: &Served) -> LadderPoint {
    let results = &run.out.results[0].results;
    let ttft: Vec<f64> = results.iter().map(RequestResult::ttft).collect();
    let tpot: Vec<f64> = results.iter().filter_map(tpot).collect();
    LadderPoint {
        ttft_p50: stats::percentile(&ttft, 50.0),
        ttft_p99: stats::percentile(&ttft, 99.0),
        tpot_p50: stats::percentile(&tpot, 50.0),
        tpot_p99: stats::percentile(&tpot, 99.0),
        achieved_rps: results.len() as f64 / run.out.makespan(),
    }
}

/// The Shadow twin of the end-to-end run: the Dense trace again (results
/// must match Dense byte for byte — the parent compares the digests) and
/// the saturated 1 000-request run that gives capacity and peak KV, the
/// two virtual-clock end-to-end numbers.
fn shadow_phase(sz: &Sizes, seed: u64, rep: &mut Rep) {
    let twin_trace = traffic(sz, FLOOD_RATE, sz.dense_requests, seed);
    let twin = serve(sz, seed, Backend::Shadow, false, &twin_trace);
    check_run("shadow twin", &twin, twin_trace.len(), rep);
    rep.set_exact("results", digest(&twin.out.results[0].results));

    let trace = traffic(sz, FLOOD_RATE, sz.shadow_requests, seed);
    let run = serve(sz, seed, Backend::Shadow, false, &trace);
    check_run("shadow flood", &run, trace.len(), rep);
    let out_tokens: usize = trace.iter().map(|r| r.output_len).sum();
    let kv_peak = run.out.reports.iter().map(|r| r.kv_cache_bytes_peak).max().unwrap_or(0);
    rep.set("virt_ops_per_s", out_tokens as f64 / run.out.makespan());
    rep.set("mem_peak_bytes", kv_peak as f64);
    rep.attempted += (twin_trace.len() + trace.len()) as u64;
}

/// Entry point of a serving child.
pub fn run_child(args: &Args, phase: Phase, t0: Instant) -> Rep {
    let sz = sizes(args.smoke);
    let seed = args.seed;
    let mut rep = Rep::default();
    if phase == Phase::Shadow {
        shadow_phase(&sz, seed, &mut rep);
        return rep;
    }
    let traced = phase == Phase::Traced;
    let mut log = SpanLog::new(traced, 0, t0);

    // Set-up: traffic generation and a Dense warm-up run (thread spawn,
    // allocator and cache warm-up). The end-to-end run serves a saturated
    // trace: with every batch full, host time per token depends on the
    // seed only through the prompt/output mix, not through queueing luck.
    // The traced pair serves at the quoted rate, where batches are small.
    let rate = if phase == Phase::Timed { FLOOD_RATE } else { QUOTED_RPS };
    let trace = log.within("traffic.generate", || traffic(&sz, rate, sz.dense_requests, seed));
    let warm = traffic(&sz, rate, sz.warmup_requests, seed ^ 0x0057_A277);
    log.within("serve.warmup", || serve(&sz, seed, Backend::Dense, false, &warm));
    rep.set("setup_s", t0.elapsed().as_secs_f64());

    // Timed: whole Dense serving runs of the same trace, each including
    // its own thread spawn and model build, as a user of the engine pays.
    let toks = tokens(&trace) as f64;
    let begin = Instant::now();
    let mut host = Vec::new();
    let mut seen: Option<String> = None;
    while host.is_empty() || (phase == Phase::Timed && begin.elapsed().as_secs_f64() < args.seconds)
    {
        let run = log.within("serve.dense", || serve(&sz, seed, Backend::Dense, traced, &trace));
        check_run("dense", &run, trace.len(), &mut rep);
        host.push(run.host_s / toks);
        rep.attempted += trace.len() as u64;
        let d = digest(&run.out.results[0].results);
        rep.check(seen.as_ref().is_none_or(|prev| *prev == d), || {
            "dense reruns of one trace disagree".to_string()
        });
        seen = Some(d);
        if phase != Phase::Timed {
            dense_layers(&sz, &run, toks, &mut rep);
        }
    }
    rep.set("host_op_s", stats::median(&host));
    rep.samples.insert("host_op_s".into(), host);
    rep.set_exact("results", seen.expect("at least one dense run"));

    if traced {
        ladder(&sz, seed, &mut log, &mut rep);
        let all = log.into_spans();
        rep.set("serve.traffic_gen_host_ms", spans::total(&all, "traffic.generate") * 1e3);
        spans::save(args, &[all], &mut rep);
    }
    rep
}

/// Per-layer numbers of the Dense run ([R] reports, [S] outside timing).
fn dense_layers(sz: &Sizes, run: &Served, toks: f64, rep: &mut Rep) {
    let head = &run.out.results[0];
    let steps = head.steps_total as f64;
    let world = sz.shape.size() as f64;
    let mean =
        |f: reports::Field| -> f64 { run.out.reports.iter().map(f).sum::<f64>() / world / steps };
    rep.set("serve.dense_host_us_per_step", run.host_s / steps * 1e6);
    rep.set("serve.host_tokens_per_s", toks / run.host_s);
    reports::rank_layers(&mean, rep);
    reports::comm_layers(&run.out.comm, steps, rep);
    rep.set_exact("dense_makespan", run.out.makespan());
}

/// The Shadow ladder: fixed offered loads, latency percentiles at each,
/// and the highest load that meets the frozen SLO without a backlog.
fn ladder(sz: &Sizes, seed: u64, log: &mut SpanLog, rep: &mut Rep) {
    let mut goodput = 0.0;
    for rate in LADDER_RPS {
        let trace = traffic(sz, rate, sz.shadow_requests, seed);
        let run = log.within("serve.shadow", || serve(sz, seed, Backend::Shadow, false, &trace));
        check_run("shadow ladder", &run, trace.len(), rep);
        rep.attempted += trace.len() as u64;
        let p = ladder_point(&run);
        let meets = p.ttft_p99 <= frozen::SLO_TTFT_P99_S
            && p.tpot_p99 <= frozen::SLO_TPOT_P99_S
            && p.achieved_rps >= 0.95 * rate;
        if meets {
            goodput = rate;
        }
        rep.set(&format!("serve.virt_ttft_p99_s.r{rate}"), p.ttft_p99);
        rep.set(&format!("serve.virt_tpot_p99_s.r{rate}"), p.tpot_p99);
        if rate == QUOTED_RPS {
            let head = &run.out.results[0];
            let steps = head.steps_total as f64;
            rep.set("serve.virt_ttft_p50_s", p.ttft_p50);
            rep.set("serve.virt_tpot_p50_s", p.tpot_p50);
            rep.set("serve.steps_total", steps);
            rep.set("serve.prefill_steps", head.prefill_steps as f64);
            rep.set("serve.decode_steps", head.decode_steps as f64);
            rep.set("serve.tokens_per_step", tokens(&trace) as f64 / steps);
            let kv = run.out.reports.iter().map(|r| r.kv_cache_bytes_peak).max().unwrap_or(0);
            rep.set("serve.kv_peak_bytes", kv as f64);
            let idle = run.out.reports[0].idle_time / run.out.reports[0].virtual_time;
            rep.set("serve.idle_frac", idle);
            rep.set("serve.completed", head.results.len() as f64);
            rep.set("serve.failed", (trace.len() - head.results.len()) as f64);
            rep.set("serve.shadow_host_us_per_step", run.host_s / steps * 1e6);
        }
    }
    rep.set("serve.virt_goodput_rps", goodput);
    // Arrivals are data on the virtual clock: the generator cannot be late.
    rep.set("serve.generator_lateness_s", 0.0);
}
