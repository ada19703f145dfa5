//! Open-loop serving sweep: throughput and latency percentiles vs offered
//! load, per Tesseract arrangement, in **simulated** (virtual) seconds.
//!
//! Per arrangement the sweep first runs a *calibration flood* (every
//! request arrives at t≈0) to measure the engine's saturated capacity in
//! requests per simulated second, then replays the same request mix at
//! fixed multiples of that capacity under Poisson arrivals. Below the knee
//! (multiplier < 1) latency is dominated by service time; past it the
//! open-loop queue grows and the p50/p99 curve bends upward — the shape
//! `BENCH_serving.json` exists to show.
//!
//! Runs use [`ShadowTensor`]: the serving tests pin shadow and dense
//! backends to bitwise-identical latency results and rank reports, so the
//! sweep pays for shapes, not floats, and each load point drives 1 000
//! requests, so its p99 is a percentile rather than the maximum. A
//! [`TRACE_REQUESTS`]-request calibration flood of the first arrangement
//! runs with tracing on and is exported as a Chrome-trace JSON of the
//! saturated steady state.
//!
//! The committed sweep ([`GRIDS`]) sets each tensor-parallel arrangement
//! beside the `q = 1` arrangement on as many GPUs: `d` pure replicas, the
//! no-tensor-parallel baseline.
//!
//! Per arrangement it also runs the one-time weight fetch alone and
//! reports its virtual seconds and collectives per rank.
//!
//! Every run re-checks the engine's invariants (identical results on all
//! ranks, meter/engine counter reconciliation, ordered percentiles,
//! nonzero throughput, exactly two lane all-gathers and two launches per
//! layer and no all-reduce in every step of the flood's busiest lane, and
//! a weight fetch of `q` column broadcasts and one lane exchange per
//! rank) and the whole sweep is deterministic: same arguments, same bytes
//! out.
//!
//! Run: `cargo run --release -p tesseract-bench --bin serve_sweep -- \
//!           [--grids 2,1;1,4;2,2;1,8;4,1] [--requests 1000] [--out BENCH_serving.json] \
//!           [--trace-out target/TRACE_serving.json]`

use tesseract_bench::cli::Args;
use tesseract_bench::write_chrome_trace;
use tesseract_comm::{CollectiveOp, RunConfig, RunOutput};
use tesseract_core::{GridShape, TesseractGrid, TransformerConfig};
use tesseract_serve::{
    generate, latency_stats, serve_on_cluster, served_model, ServeConfig, ServeSummary,
    TrafficConfig,
};
use tesseract_tensor::json;
use tesseract_tensor::trace::json::{self, Value};
use tesseract_tensor::ShadowTensor;

/// Offered load as multiples of the measured saturated capacity; the knee
/// sits at 1.0 by construction.
const LOAD_MULTIPLIERS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// The committed `(q, d)` arrangements: `[2,2,1]`, `[2,2,2]` and `[4,4,1]`,
/// the first two each followed by the replicas on as many GPUs. The first
/// is the traced one.
const GRIDS: [(usize, usize); 5] = [(2, 1), (1, 4), (2, 2), (1, 8), (4, 1)];

/// Arrival rate that floods every request in at t≈0 for calibration.
const FLOOD_RATE: f64 = 1e12;

/// Requests of the traced flood (capped by `--requests`): enough for a
/// saturated steady state, small enough to keep the trace a few MB.
const TRACE_REQUESTS: usize = 48;

/// Seeds the weights and, per arrangement, the traffic.
const SEED: u64 = 42;

/// The served model: GPT-2-small-ish widths, scaled to stay honest on the
/// meter while every arrangement in the default sweep divides it evenly.
fn model() -> TransformerConfig {
    TransformerConfig {
        batch: 16,
        seq: 64,
        hidden: 256,
        heads: 8,
        mlp_ratio: 4,
        layers: 4,
        eps: 1e-5,
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        model: model(),
        with_bias: true,
        seed: SEED,
        max_batch_tokens: 128,
        max_lane_requests: 8,
    }
}

/// The traffic of `requests` requests arriving at `rate` on `shape`.
fn traffic_cfg(rate: f64, requests: usize, shape: GridShape) -> TrafficConfig {
    let seed = SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shape.size() as u64;
    TrafficConfig { rate, requests, prompt_lens: (16, 64), output_lens: (4, 16), seed }
}

/// One load point's measurements (virtual seconds / per-virtual-second).
struct Point {
    multiplier: f64,
    offered_rps: f64,
    achieved_rps: f64,
    tokens_per_s: f64,
    p50_s: f64,
    p99_s: f64,
    ttft_p50_s: f64,
    makespan_s: f64,
    kv_peak_bytes: u64,
}

/// Where a saturated step's virtual time goes: the calibration flood's
/// busiest rank (most compute time), per step of its own lane.
struct FloodCost {
    steps: u64,
    kernels_per_step: f64,
    compute_s_per_step: f64,
    comm_s_per_step: f64,
    /// Collectives the rank booked (`RankReport::comm`: those it led).
    collectives_per_step: f64,
    /// Row all-gathers of the rank's lane, net of the weight fetch's lane
    /// exchange; each is booked by one of the lane's ranks.
    all_gathers_per_step: f64,
    /// Row all-reduces of the rank's lane over the whole flood.
    all_reduces: u64,
}

impl FloodCost {
    fn of(flood: &RunOutput<ServeSummary>, shape: GridShape, fetch: &FetchCost) -> Self {
        let busiest = (flood.reports.iter())
            .reduce(|a, b| if b.compute_time > a.compute_time { b } else { a })
            .expect("a run has ranks");
        let steps = flood.results[busiest.rank].steps_total;
        let per_step = |x: f64| x / steps as f64;
        let lane = |rank| {
            let (i, _, k) = shape.coords_of(rank);
            (i, k)
        };
        let lane_calls = |op| -> u64 {
            (flood.reports.iter())
                .filter(|r| lane(r.rank) == lane(busiest.rank))
                .map(|r| r.comm.get(op).calls)
                .sum()
        };
        FloodCost {
            steps,
            kernels_per_step: per_step(busiest.kernels as f64),
            compute_s_per_step: per_step(busiest.compute_time),
            comm_s_per_step: per_step(busiest.comm_time),
            collectives_per_step: per_step(busiest.comm.total_calls() as f64),
            all_gathers_per_step: per_step(
                (lane_calls(CollectiveOp::AllGather) - fetch.lane_exchanges) as f64,
            ),
            all_reduces: lane_calls(CollectiveOp::AllReduce),
        }
    }
}

/// The one-time weight fetch (`TesseractTransformer::fetch_stationary`)
/// run alone on the served model, read from that run's own clocks and
/// ledger.
struct FetchCost {
    /// Max over ranks of the clock when the fetch returns.
    virt_s: f64,
    /// Column broadcasts and lane exchanges per rank. Every rank sits in
    /// exactly one row group and one column group, and there are `q·d` of
    /// each, so per-rank counts are group calls over `q·d`.
    broadcasts: u64,
    lane_exchanges: u64,
}

impl FetchCost {
    fn of(shape: GridShape, cfg: &ServeConfig) -> Self {
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            served_model::<ShadowTensor>(ctx, &grid, cfg).fetch_stationary(&grid, ctx);
            ctx.flush_compute();
            ctx.clock()
        });
        let groups = (shape.q * shape.d) as u64;
        let per_rank = |op| out.comm.get(op).calls / groups;
        let cost = FetchCost {
            virt_s: out.results.iter().copied().fold(0.0, f64::max),
            broadcasts: per_rank(CollectiveOp::Broadcast),
            lane_exchanges: per_rank(CollectiveOp::AllGather),
        };
        assert_eq!(
            (cost.broadcasts, cost.lane_exchanges, cost.collectives()),
            (shape.q as u64, 1, out.comm.total_calls() / groups),
            "{shape:?}: the weight fetch is q column broadcasts and one lane exchange per rank"
        );
        cost
    }

    fn collectives(&self) -> u64 {
        self.broadcasts + self.lane_exchanges
    }
}

struct ArrangementCurve {
    shape: GridShape,
    capacity_rps: f64,
    /// Weight bytes a rank holds for weight-stationary serving, max over
    /// ranks (from the calibration flood).
    weight_bytes: u64,
    fetch: FetchCost,
    flood: FloodCost,
    points: Vec<Point>,
}

/// Runs one serving experiment and re-checks the engine invariants the
/// test suite pins, so a sweep can never silently report nonsense.
fn run_point(
    shape: GridShape,
    cfg: &ServeConfig,
    traffic_rate: f64,
    requests: usize,
) -> (RunOutput<ServeSummary>, Vec<f64>) {
    let traffic = generate(&traffic_cfg(traffic_rate, requests, shape));
    let out =
        serve_on_cluster::<ShadowTensor>(&RunConfig::from_env(shape.size()), shape, cfg, &traffic);
    let head = &out.results[0];
    assert_eq!(head.results.len(), requests, "every request must complete");
    for (summary, report) in out.results.iter().zip(&out.reports) {
        assert_eq!(summary.results, head.results, "ranks must agree on results");
        assert_eq!(report.prefill_steps, summary.prefill_steps, "prefill counters reconcile");
        assert_eq!(report.decode_steps, summary.decode_steps, "decode counters reconcile");
        assert_eq!(report.kv_cache_bytes_peak, summary.kv_peak_bytes, "KV peaks reconcile");
        assert_eq!(report.weight_bytes, summary.weight_bytes, "weight bytes reconcile");
    }
    let latencies: Vec<f64> = head.results.iter().map(|r| r.latency()).collect();
    (out, latencies)
}

/// Lane all-gathers and launches of one busy serving step: two each per
/// layer.
fn step_counts(cfg: &ServeConfig) -> (usize, usize) {
    let layers = cfg.model.layers;
    (2 * layers, 2 * layers)
}

fn sweep_arrangement(shape: GridShape, requests: usize) -> ArrangementCurve {
    let cfg = serve_cfg();

    // Calibration: all-at-once arrivals measure the saturated service rate.
    let (flood, _) = run_point(shape, &cfg, FLOOD_RATE, requests);
    let capacity_rps = requests as f64 / flood.makespan();
    assert!(capacity_rps > 0.0 && capacity_rps.is_finite());
    let weight_bytes = flood.reports.iter().map(|r| r.weight_bytes).max().unwrap_or(0);
    let fetch = FetchCost::of(shape, &cfg);
    let flood = FloodCost::of(&flood, shape, &fetch);
    // Per layer, two fused launches that each end in one lane all-gather
    // of the row-parallel terms; the step ends at its last gather, and the
    // next step's first launch folds the carried rows.
    let (all_gathers, launches) = step_counts(&cfg);
    assert_eq!(flood.kernels_per_step, launches as f64, "{shape:?}: launches per busy step");
    assert_eq!(
        flood.all_gathers_per_step, all_gathers as f64,
        "{shape:?}: lane all-gathers per busy step"
    );
    assert_eq!(flood.all_reduces, 0, "{shape:?}: a serving lane all-reduces nothing");

    let mut points = Vec::new();
    for &mult in &LOAD_MULTIPLIERS {
        let offered_rps = capacity_rps * mult;
        let (out, latencies) = run_point(shape, &cfg, offered_rps, requests);
        let head = &out.results[0];
        let stats = latency_stats(latencies);
        let ttft = latency_stats(head.results.iter().map(|r| r.ttft()).collect());
        let makespan_s = out.makespan();
        let tokens: usize = head.results.iter().map(|r| r.output_len).sum();
        let point = Point {
            multiplier: mult,
            offered_rps,
            achieved_rps: requests as f64 / makespan_s,
            tokens_per_s: tokens as f64 / makespan_s,
            p50_s: stats.p50,
            p99_s: stats.p99,
            ttft_p50_s: ttft.p50,
            makespan_s,
            kv_peak_bytes: out.reports.iter().map(|r| r.kv_cache_bytes_peak).max().unwrap_or(0),
        };
        assert!(point.p99_s >= point.p50_s, "percentiles must be ordered");
        assert!(point.achieved_rps > 0.0, "throughput must be nonzero");
        points.push(point);
    }
    // The open-loop signature: offered load past the knee queues.
    let (first, last) = (&points[0], &points[points.len() - 1]);
    assert!(
        last.p50_s > first.p50_s,
        "[{q},{q},{d}]: p50 at {}x capacity ({}) must exceed p50 at {}x ({})",
        last.multiplier,
        last.p50_s,
        first.multiplier,
        first.p50_s,
        q = shape.q,
        d = shape.d,
    );
    ArrangementCurve { shape, capacity_rps, weight_bytes, fetch, flood, points }
}

/// Runs a `requests`-request calibration flood of the first arrangement
/// with tracing on, reconciles the trace exactly with the run's
/// accounting, and writes the saturated steady state as Chrome-trace JSON
/// ([`write_chrome_trace`]).
fn write_saturated_trace(path: &str, shape: GridShape, requests: usize) -> usize {
    let cfg = serve_cfg();
    let traffic = generate(&traffic_cfg(FLOOD_RATE, requests, shape));
    let cluster = RunConfig::from_env(shape.size()).with_trace(true);
    let out = serve_on_cluster::<ShadowTensor>(&cluster, shape, &cfg, &traffic);
    assert_eq!(out.traces.len(), shape.size(), "one trace per rank");
    out.reconcile_trace().unwrap_or_else(|e| panic!("{path}: {e}"));
    write_chrome_trace(path, &out.traces)
}

fn main() {
    let args = Args::parse(&["--grids", "--requests", "--out", "--trace-out"]);
    let grids = args.pairs("--grids", &GRIDS);
    let requests: usize = args.value("--requests", 1000);
    let out_path = args.value("--out", String::from("BENCH_serving.json"));
    // Traces are regenerated artifacts, not sources: they default under
    // target/ and are never committed (ci.sh proves one is generated and
    // parseable on every run).
    let trace_path = args.value("--trace-out", String::from("target/TRACE_serving.json"));
    assert!(!grids.is_empty(), "--grids must name at least one arrangement");
    assert!(requests >= 2, "--requests must be at least 2");
    let m = model();
    for &(q, d) in &grids {
        GridShape::new(q, d).check(&m).unwrap_or_else(|e| panic!("{e}"));
    }

    println!(
        "serve_sweep: {} requests per point, prompts 16-64, outputs 4-16 tokens, \
loads {LOAD_MULTIPLIERS:?} x measured capacity (virtual seconds)\n",
        requests
    );

    let mut curves = Vec::new();
    for &(q, d) in &grids {
        let shape = GridShape::new(q, d);
        let curve = sweep_arrangement(shape, requests);
        println!(
            "[{q},{q},{d}] ({} ranks): saturated capacity {:.3} req/s, {} weight bytes per rank",
            shape.size(),
            curve.capacity_rps,
            curve.weight_bytes
        );
        println!(
            "weight fetch: {:.1} us, {} collectives per rank",
            curve.fetch.virt_s * 1e6,
            curve.fetch.collectives()
        );
        let f = &curve.flood;
        println!(
            "flood, busiest rank: {} steps, {:.1} launches, {:.1} us compute, {:.1} us comm, \
             {:.1} collectives per step",
            f.steps,
            f.kernels_per_step,
            f.compute_s_per_step * 1e6,
            f.comm_s_per_step * 1e6,
            f.collectives_per_step
        );
        println!(
            "| load | offered (req/s) | achieved (req/s) | tokens/s | p50 (s) | p99 (s) | ttft p50 (s) |"
        );
        println!("|---|---|---|---|---|---|---|");
        for p in &curve.points {
            println!(
                "| {:.2}x | {:.3} | {:.3} | {:.3} | {:.6} | {:.6} | {:.6} |",
                p.multiplier,
                p.offered_rps,
                p.achieved_rps,
                p.tokens_per_s,
                p.p50_s,
                p.p99_s,
                p.ttft_p50_s
            );
        }
        println!();
        curves.push(curve);
    }

    // The invariant lines the CI smoke greps; they only print because the
    // asserts in `sweep_arrangement` already held for every arrangement.
    println!("invariant ok: p99 >= p50 at every load point");
    println!("invariant ok: nonzero throughput at every load point");
    println!("invariant ok: latency grows past the saturation knee");
    let (all_gathers, launches) = step_counts(&serve_cfg());
    println!(
        "invariant ok: a busy serving step is {all_gathers} lane all-gathers and {launches} launches"
    );
    println!(
        "invariant ok: the weight fetch is q column broadcasts and one lane exchange per rank"
    );

    let trace_shape = GridShape::new(grids[0].0, grids[0].1);
    let events = write_saturated_trace(&trace_path, trace_shape, requests.min(TRACE_REQUESTS));
    println!(
        "wrote {trace_path} ({events} trace events, saturated [{q},{q},{d}] steady state)",
        q = trace_shape.q,
        d = trace_shape.d
    );

    let arrangements = curves.iter().map(|curve| {
        let (q, d) = (curve.shape.q, curve.shape.d);
        let points = curve.points.iter().map(|p| {
            let s9 = |x: f64| Value::fixed(x, 9);
            json!({
                "load": Value::fixed(p.multiplier, 2), "offered_rps": s9(p.offered_rps),
                "achieved_rps": s9(p.achieved_rps), "tokens_per_s": s9(p.tokens_per_s),
                "p50_s": s9(p.p50_s), "p99_s": s9(p.p99_s), "ttft_p50_s": s9(p.ttft_p50_s),
                "makespan_s": s9(p.makespan_s), "kv_peak_bytes": p.kv_peak_bytes
            })
        });
        let f = &curve.flood;
        json!({
            "grid": format!("[{q},{q},{d}]"),
            "world": curve.shape.size(),
            "capacity_rps": Value::fixed(curve.capacity_rps, 9),
            "weight_bytes": curve.weight_bytes,
            "fetch": {
                "virt_s": Value::fixed(curve.fetch.virt_s, 9),
                "collectives_per_rank": curve.fetch.collectives()
            },
            "flood": {
                "steps": f.steps, "kernels_per_step": Value::fixed(f.kernels_per_step, 3),
                "compute_s_per_step": Value::fixed(f.compute_s_per_step, 9),
                "comm_s_per_step": Value::fixed(f.comm_s_per_step, 9),
                "collectives_per_step": Value::fixed(f.collectives_per_step, 3)
            },
            "points": Value::Arr(points.collect())
        })
    });
    let out = json::write(&json!({
        "bench": "serve_sweep",
        "units": {
            "time": "simulated seconds", "rates": "per simulated second",
            "kv_peak": "bytes, max over ranks", "weight": "bytes per rank, max over ranks",
            "fetch": "the one-time weight fetch alone: max over ranks, collectives per rank",
            "flood": "calibration flood, busiest rank (most compute), per step of its lane",
            "collectives": "calls the rank booked, i.e. led (RankReport::comm)"
        },
        "model": {
            "hidden": m.hidden, "heads": m.heads, "layers": m.layers, "mlp_ratio": m.mlp_ratio
        },
        "traffic": {
            "requests": requests, "prompt_lens": [16usize, 64usize],
            "output_lens": [4usize, 16usize], "seed": SEED
        },
        "arrangements": Value::Arr(arrangements.collect())
    }));
    std::fs::write(&out_path, &out).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::Payload;
    use tesseract_core::TesseractGrid;

    /// The lane all-gather of the row-parallel terms fits the traffic it
    /// serves: on every committed lane placement and at every row count a
    /// step can carry (1 to `max_batch_tokens` rows of the committed width),
    /// it costs at most what the all-reduce of the same terms would.
    #[test]
    fn a_lane_gather_of_the_terms_costs_at_most_their_all_reduce() {
        let cfg = serve_cfg();
        for (q, d) in GRIDS {
            let shape = GridShape::new(q, d);
            let run = RunConfig::from_env(shape.size());
            let lanes = run.run(|ctx| TesseractGrid::new(ctx, shape, 0).row.placement()).results;
            for (rank, &lane) in lanes.iter().enumerate() {
                for rows in 1..=cfg.max_batch_tokens {
                    let bytes = ShadowTensor::new(rows, cfg.model.hidden).wire_size();
                    let cost = |op| run.params.phased_collective_time(op, bytes, lane).total;
                    let (gather, reduce) =
                        (cost(CollectiveOp::AllGather), cost(CollectiveOp::AllReduce));
                    assert!(
                        gather <= reduce,
                        "[{q},{q},{d}] rank {rank} ({lane:?}), {rows} rows: \
                         gather {gather} s > all-reduce {reduce} s"
                    );
                }
            }
        }
    }
}
