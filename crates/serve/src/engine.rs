//! The continuous-batching serving engine.
//!
//! ## Request lifecycle
//!
//! `Pending → Active(unprefilled) → Active(decoding) → Done`. A request is
//! assigned to one `(i, k)` **lane** (round-robin by id over the `q·d` row
//! -block owners); the `q` ranks of that lane's row fiber hold its KV cache,
//! sharded by heads exactly like training, and its activations, as full
//! rows between the layer's lane all-gathers. At
//! every step boundary the scheduler may **admit** newly-arrived requests
//! (up to `max_lane_requests` concurrent per lane) and **evicts** finished
//! ones, freeing their KV immediately — batch membership changes at step
//! granularity, never mid-request-blocking, which is what keeps the
//! cluster saturated under open-loop load.
//!
//! ## Batching policy
//!
//! Each lane runs **one mixed batch per step**, built in two passes under
//! the per-lane token budget `max_batch_tokens`:
//!
//! 1. every prefilled active request advances one token (at most
//!    `max_batch_tokens` of them, in arrival order);
//! 2. then the lane's unprefilled prompts are prefilled whole, in arrival
//!    order, while they fit the remaining budget. The first prompt that
//!    does not fit ends the pass — a FIFO prefix, so a long prompt is
//!    never overtaken by shorter ones queued behind it. A prompt always
//!    runs when the batch is otherwise empty, even if it alone exceeds
//!    the budget.
//!
//! Decode rows, then prompt rows, are stacked into one `forward_infer_rows`
//! call. A decode row is the request's last row of the previous step,
//! carried still pending (its base row, the lane's `q` term rows and the
//! bias): a step ends at its last lane all-gather, and the next step's
//! first launch folds the carried rows at its head. A finishing request's
//! row is never folded. A step's collective count does not depend on its
//! row count, so an admission rides along with the lane's decoders instead
//! of stalling them for a prefill-only step. (This is not chunked prefill:
//! a prompt is never split across steps.)
//!
//! ## Independent lanes
//!
//! A lane is an independent `q`-rank tensor-parallel replica. Before
//! serving, every rank fetches its panels of the weights once, in one
//! bucket (`q` column broadcasts over the whole grid, then one row
//! all-gather of the row-parallel linears' columns); after that a lane's
//! only collectives are its own row all-gathers, two per layer, and lanes
//! exchange no data. Each of a layer's two stretches is one fused launch
//! that ends in one lane all-gather of the row-parallel terms; the next
//! launch folds them at its head, so a busy step is two launches per
//! layer. Each rank runs the metadata scheduler of its own lane only
//! (arrivals and lengths are in the shared traffic trace; generated token
//! values never influence scheduling) and decides on its **lane clock**,
//! `ctx.clock()` at the step boundary. The `q` members of a lane hold
//! bitwise-equal clocks at every boundary: they finish the weight fetch
//! together (every rank starts it on one clock, and `run_serve` asserts
//! that the grid columns they fetch over sit alike on nodes), run
//! symmetric compute, and every blocking row all-gather releases them
//! together. So they plan the same batch and execute the same collective
//! sequence without communicating to agree. A lane with nothing runnable `idle_until`s its
//! own next arrival, and leaves the loop when its own requests are done.
//! Latencies are measured on the lane clock, which makes whole runs —
//! results, reports, traces — reproducible byte for byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use tesseract_comm::{RankCtx, RunConfig, RunOutput};
use tesseract_core::TransformerConfig;
use tesseract_core::{
    GridShape, InferBatch, RequestKv, Stream, TesseractGrid, TesseractTransformer,
};
use tesseract_tensor::TensorLike;

use crate::traffic::RequestSpec;

/// Seed salt separating prompt-content streams from weight-init streams.
const PROMPT_SEED_SALT: u64 = 0x5E_ED0F_5E4E_D0D0;

/// Serving-engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Model hyperparameters (`batch`/`seq` are training-only and ignored
    /// here; lengths come from the traffic trace).
    pub model: TransformerConfig,
    /// Build layers with biases.
    pub with_bias: bool,
    /// Weight-init seed (prompts derive a salted stream from it).
    pub seed: u64,
    /// Per-lane token budget per step: caps the rows of one lane's batch
    /// (one per decoding request plus every prefilled prompt's), except
    /// that a lone prompt always runs.
    pub max_batch_tokens: usize,
    /// Concurrent requests admitted per lane (KV-slot budget).
    pub max_lane_requests: usize,
}

/// Outcome of one request, on the virtual clock of the lane that ran it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestResult {
    pub id: usize,
    /// Lane `(i + k·q)` the request ran on.
    pub lane: usize,
    pub arrival: f64,
    /// Lane clock when the step that prefilled it completed (the first
    /// output token exists here).
    pub first_token_time: f64,
    /// Lane clock when the step that produced its last token completed.
    pub finish_time: f64,
    pub prompt_len: usize,
    pub output_len: usize,
}

impl RequestResult {
    /// End-to-end completion latency.
    pub fn latency(&self) -> f64 {
        self.finish_time - self.arrival
    }

    /// Time to first token.
    pub fn ttft(&self) -> f64 {
        self.first_token_time - self.arrival
    }
}

/// Per-rank outcome of a serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSummary {
    /// All requests, id-ordered. [`run_serve`] returns its own lane's;
    /// [`serve_on_cluster`] folds every lane's into one list on the host
    /// and hands each rank that list.
    pub results: Vec<RequestResult>,
    /// Steps of this rank's lane that prefilled at least one prompt
    /// (decode tokens may ride along). This and the next three fields are
    /// copied from the rank's `RankReport` at the end of the run.
    pub prefill_steps: u64,
    /// Steps of this rank's lane that only decoded (mirrors `RankReport`).
    pub decode_steps: u64,
    /// This rank's KV-cache high-water mark in bytes (mirrors `RankReport`).
    pub kv_peak_bytes: u64,
    /// Bytes of weights this rank holds for weight-stationary serving: its
    /// column of every linear's weight panels plus the biases, `q×` its
    /// weight blocks (mirrors `RankReport`).
    pub weight_bytes: u64,
    /// Steps this rank's lane ran: `prefill_steps + decode_steps`.
    pub steps_total: u64,
}

// ---------------------------------------------------------------------------
// Metadata scheduler (one lane's)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum ReqState {
    Pending,
    Active { prefilled: bool, generated: usize },
    Done,
}

/// One lane's step: the prefilled requests that advance one token, then
/// the prompts prefilled whole (`run_serve` stacks their rows in that
/// order), and which of them finish when the step completes. Request ids
/// are global.
#[derive(Debug, Default)]
struct LaneBatch {
    decode: Vec<usize>,
    prefill: Vec<usize>,
    finishing: Vec<usize>,
}

impl LaneBatch {
    /// Request ids in row order: decoders first, then prompts.
    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.decode.iter().chain(&self.prefill).copied()
    }
}

enum Decision {
    AllDone,
    /// Nothing runnable; sleep until this arrival time.
    IdleUntil(f64),
    Step(LaneBatch),
}

/// The scheduler of one lane. It holds only the lane's requests (`id %
/// lanes == lane`), so a step costs work in the lane's active requests, not
/// in the whole trace.
struct Scheduler {
    lane: usize,
    lanes: usize,
    /// The lane's requests in arrival order; request `id` is
    /// `specs[id / lanes]`.
    specs: Vec<RequestSpec>,
    state: Vec<ReqState>,
    first_token: Vec<f64>,
    finish: Vec<f64>,
    /// Admission is FIFO, so the admitted requests are `specs[..admitted]`.
    admitted: usize,
    /// Indices into `specs` of the admitted, unfinished requests, in
    /// arrival order.
    active: Vec<usize>,
    max_lane_requests: usize,
    max_batch_tokens: usize,
}

impl Scheduler {
    fn new(traffic: &[RequestSpec], lane: usize, lanes: usize, cfg: &ServeConfig) -> Self {
        assert!(cfg.max_batch_tokens >= 1, "max_batch_tokens must be positive");
        assert!(cfg.max_lane_requests >= 1, "max_lane_requests must be positive");
        for (i, spec) in traffic.iter().enumerate() {
            assert_eq!(spec.id, i, "traffic ids must be dense and ordered");
            assert!(spec.output_len >= 1, "requests must produce at least one token");
        }
        assert!(
            traffic.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "traffic must be arrival-sorted"
        );
        let specs: Vec<RequestSpec> = traffic.iter().skip(lane).step_by(lanes).copied().collect();
        let n = specs.len();
        Self {
            lane,
            lanes,
            specs,
            state: vec![ReqState::Pending; n],
            first_token: vec![0.0; n],
            finish: vec![0.0; n],
            admitted: 0,
            active: Vec::new(),
            max_lane_requests: cfg.max_lane_requests,
            max_batch_tokens: cfg.max_batch_tokens,
        }
    }

    fn spec(&self, id: usize) -> &RequestSpec {
        &self.specs[id / self.lanes]
    }

    /// Admissions plus the lane's batch at lane time `now`. Mutates only
    /// Pending→Active (admission); step effects apply in
    /// [`Scheduler::complete`].
    fn plan(&mut self, now: f64) -> Decision {
        // Admission: arrival order, bounded by the lane's free KV slots.
        while self.admitted < self.specs.len()
            && self.specs[self.admitted].arrival <= now
            && self.active.len() < self.max_lane_requests
        {
            self.state[self.admitted] = ReqState::Active { prefilled: false, generated: 0 };
            self.active.push(self.admitted);
            self.admitted += 1;
        }

        // Pass 1: every prefilled request advances one token, up to the
        // budget. Pass 2: a FIFO prefix of the unprefilled prompts fills
        // what is left; the first prompt that does not fit closes the
        // pass, unless the batch is still empty.
        let mut batch = LaneBatch::default();
        let mut tokens = 0;
        for &n in &self.active {
            if matches!(self.state[n], ReqState::Active { prefilled: true, .. })
                && tokens < self.max_batch_tokens
            {
                batch.decode.push(self.specs[n].id);
                tokens += 1;
            }
        }
        for &n in &self.active {
            if self.state[n] != (ReqState::Active { prefilled: false, generated: 0 }) {
                continue;
            }
            let plen = self.specs[n].prompt_len;
            if !(batch.decode.is_empty() && batch.prefill.is_empty())
                && tokens + plen > self.max_batch_tokens
            {
                break;
            }
            batch.prefill.push(self.specs[n].id);
            tokens += plen;
        }
        batch.finishing = batch
            .ids()
            .filter(|&id| match self.state[id / self.lanes] {
                ReqState::Active { generated, .. } => generated + 1 == self.spec(id).output_len,
                _ => unreachable!("a batch holds active requests"),
            })
            .collect();

        // An active request always runs: a prefilled one decodes (the
        // budget is at least one token) and a lone prompt always fits.
        if !self.active.is_empty() {
            return Decision::Step(batch);
        }
        match self.specs.get(self.admitted) {
            None => Decision::AllDone,
            Some(next) => {
                assert!(next.arrival > now, "an arrival in the past implies a runnable lane");
                Decision::IdleUntil(next.arrival)
            }
        }
    }

    /// Applies a completed step's effects at lane time `now`.
    fn complete(&mut self, batch: &LaneBatch, now: f64) {
        for &id in &batch.decode {
            match &mut self.state[id / self.lanes] {
                ReqState::Active { generated, .. } => *generated += 1,
                _ => unreachable!("a batch holds active requests"),
            }
        }
        for &id in &batch.prefill {
            // Prefill yields the request's first output token.
            self.first_token[id / self.lanes] = now;
            self.state[id / self.lanes] = ReqState::Active { prefilled: true, generated: 1 };
        }
        for &id in &batch.finishing {
            self.finish[id / self.lanes] = now;
            self.state[id / self.lanes] = ReqState::Done;
        }
        let state = &self.state;
        self.active.retain(|&n| state[n] != ReqState::Done);
    }

    /// The lane's results, id-ordered.
    fn results(&self) -> Vec<RequestResult> {
        assert!(
            self.state.iter().all(|s| *s == ReqState::Done),
            "results requested before completion"
        );
        self.specs
            .iter()
            .enumerate()
            .map(|(n, spec)| RequestResult {
                id: spec.id,
                lane: self.lane,
                arrival: spec.arrival,
                first_token_time: self.first_token[n],
                finish_time: self.finish[n],
                prompt_len: spec.prompt_len,
                output_len: spec.output_len,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Tensor-side engine (per rank)
// ---------------------------------------------------------------------------

/// This rank's resident state for one admitted request on its lane.
struct LaneSlot<T> {
    kv: Option<RequestKv<T>>,
    /// Next decode input `[1, h]`: the model output row of the request's
    /// latest token, still pending (its base row, the lane's `q` term rows
    /// and the bias), which the next step's first launch folds. `None`
    /// once the request finishes: nothing reads its row.
    next_input: Option<Stream<T>>,
}

/// The stack [`run_serve`] serves on `grid`, before its weight fetch.
/// `cfg.model`'s `batch` and `seq` only shape training; the smallest batch
/// the grid accepts keeps the stack's one feasibility rule to the serving
/// widths.
pub fn served_model<T: TensorLike>(
    ctx: &RankCtx,
    grid: &TesseractGrid,
    cfg: &ServeConfig,
) -> TesseractTransformer<T> {
    let model_cfg = TransformerConfig { batch: grid.shape.q * grid.shape.d, seq: 1, ..cfg.model };
    TesseractTransformer::new(ctx, grid, model_cfg, cfg.with_bias, cfg.seed, 0)
}

/// Runs the serving engine on one rank (SPMD: call from every rank of the
/// grid, each entering on the same clock, with the same `cfg` and
/// `traffic`). Returns the per-rank summary, whose `results` are this
/// rank's lane's requests; the lane's `q` ranks return equal summaries.
pub fn run_serve<T: TensorLike>(
    ctx: &mut RankCtx,
    grid: &TesseractGrid,
    cfg: &ServeConfig,
    traffic: &[RequestSpec],
) -> ServeSummary {
    // The lane's ranks sit in different grid columns. They leave the weight
    // fetch on one clock only if every column costs the same to fetch over.
    let (q, (i, _, k)) = (grid.shape.q, grid.coords);
    assert!(
        (0..q).all(|j| {
            ctx.topology.placement(&grid.mesh.fiber_ranks("row", &[k, i, j]))
                == grid.col.placement()
        }),
        "serving needs every grid column of a depth layer to sit alike on nodes, so that a \
         lane's ranks finish the weight fetch on one clock"
    );
    let model = served_model::<T>(ctx, grid, cfg);
    model.fetch_stationary(grid, ctx);
    // Serving never drops the fetched weights, so this total is the peak.
    ctx.note_weight_bytes(model.stationary_bytes());

    let hidden = cfg.model.hidden;
    let prompt_seed = cfg.seed ^ PROMPT_SEED_SALT;
    let mut sched = Scheduler::new(traffic, grid.a_row_block(), q * grid.shape.d, cfg);
    let mut slots: BTreeMap<usize, LaneSlot<T>> = BTreeMap::new();

    loop {
        // Step boundary: the lane clock, equal on the lane's q ranks.
        ctx.flush_compute();
        let batch = match sched.plan(ctx.clock()) {
            Decision::AllDone => break,
            Decision::IdleUntil(t) => {
                // Open-loop lull: the lane sleeps to its next arrival.
                ctx.idle_until(t);
                continue;
            }
            Decision::Step(batch) => batch,
        };

        let segments = batch.decode.len() + batch.prefill.len();
        let mut parts: Vec<Stream<T>> = Vec::with_capacity(segments);
        let mut new_rows = Vec::with_capacity(segments);
        let mut kvs = Vec::with_capacity(segments);
        for &id in &batch.decode {
            let slot = slots.get_mut(&id).expect("decode before prefill");
            parts.push(slot.next_input.take().expect("decode input missing"));
            new_rows.push(1);
            kvs.push(slot.kv.take().expect("KV missing from slot"));
        }
        for &id in &batch.prefill {
            let plen = sched.spec(id).prompt_len;
            // The prompt is a deterministic function of (seed, id): every
            // rank of the lane generates the same full [plen, h] rows.
            parts.push(Stream::new(Arc::new(T::init_xavier_block(
                plen,
                hidden,
                0,
                0,
                plen,
                hidden,
                prompt_seed,
                id as u64,
            ))));
            new_rows.push(plen);
            kvs.push(model.new_kv(grid));
        }
        let x = Stream::concat_rows(parts, &mut ctx.meter);

        let mut infer = InferBatch { new_rows, kvs };
        let y = model.forward_infer_rows(grid, ctx, x, &mut infer);
        // A step that prefilled any prompt counts as a prefill step; one
        // that only decoded, as a decode step.
        ctx.count_serving_step(!batch.prefill.is_empty());

        // Scatter outputs back: the last row of each continuing segment,
        // still pending, is the next decode input; caches (now grown)
        // return to their slots.
        let mut r0 = 0;
        let kvs_back = std::mem::take(&mut infer.kvs);
        for (seg, (id, kv)) in batch.ids().zip(kvs_back).enumerate() {
            let r1 = r0 + infer.new_rows[seg];
            let next =
                (!batch.finishing.contains(&id)).then(|| y.slice_rows(r1 - 1, r1, &mut ctx.meter));
            slots.insert(id, LaneSlot { kv: Some(kv), next_input: next });
            r0 = r1;
        }

        // KV high-water mark after the append, before any eviction.
        let resident: u64 = slots.values().map(|s| s.kv.as_ref().map_or(0, RequestKv::bytes)).sum();
        ctx.note_kv_cache_bytes(resident);

        // The step completes on the lane clock; finished requests leave at
        // step granularity and their KV blocks drop here.
        ctx.flush_compute();
        sched.complete(&batch, ctx.clock());
        for id in &batch.finishing {
            slots.remove(id);
        }
    }

    assert!(slots.is_empty(), "all slots evicted at completion");
    assert_eq!(ctx.tape_bytes_now(), 0, "inference must never grow a tape");
    // The counters are read back from the rank's own booking. The last
    // step boundary flushed the meter, so this report moves no clock.
    let booked = ctx.report();
    ServeSummary {
        results: sched.results(),
        prefill_steps: booked.prefill_steps,
        decode_steps: booked.decode_steps,
        kv_peak_bytes: booked.kv_cache_bytes_peak,
        weight_bytes: booked.weight_bytes,
        steps_total: booked.prefill_steps + booked.decode_steps,
    }
}

/// Convenience driver: runs `run_cfg` as one `[q, q, d]` grid over all
/// its ranks, serves `traffic` on it, and folds every lane's results into
/// one id-ordered list that each rank's summary carries. The fold runs on the
/// host after the ranks finish (like `RunOutput::comm`) and charges no
/// virtual time; it panics if two ranks of a lane disagree on a result.
pub fn serve_on_cluster<T: TensorLike>(
    run_cfg: &RunConfig,
    shape: GridShape,
    cfg: &ServeConfig,
    traffic: &[RequestSpec],
) -> RunOutput<ServeSummary> {
    shape.check_world(run_cfg.world).unwrap_or_else(|e| panic!("{e}"));
    let mut out = run_cfg.run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        run_serve::<T>(ctx, &grid, cfg, traffic)
    });
    let mut all: Vec<RequestResult> =
        out.results.iter().flat_map(|s| s.results.iter().copied()).collect();
    all.sort_by_key(|r| r.id);
    all.dedup_by(|later, kept| {
        let same = later.id == kept.id;
        assert!(!same || later == kept, "a lane's ranks disagree: {kept:?} vs {later:?}");
        same
    });
    assert_eq!(all.len(), traffic.len(), "every request runs on one lane");
    for summary in &mut out.results {
        summary.results.clone_from(&all);
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::traffic::{generate, TrafficConfig};
    use tesseract_tensor::Xoshiro256StarStar;

    fn cfg(max_batch_tokens: usize, max_lane_requests: usize) -> ServeConfig {
        ServeConfig {
            model: TransformerConfig {
                batch: 1,
                seq: 1,
                hidden: 8,
                heads: 1,
                mlp_ratio: 1,
                layers: 1,
                eps: 1e-5,
            },
            with_bias: false,
            seed: 0,
            max_batch_tokens,
            max_lane_requests,
        }
    }

    /// Tokens the lane's `n`-th request has produced so far.
    fn produced(sched: &Scheduler, n: usize) -> usize {
        match sched.state[n] {
            ReqState::Pending => 0,
            ReqState::Active { generated, .. } => generated,
            ReqState::Done => sched.specs[n].output_len,
        }
    }

    /// Drives one lane's scheduler to completion on a synthetic clock
    /// (`step_s` per step), checking every step against the batching rules
    /// and mirroring `run_serve`'s slot bookkeeping. Returns the lane's
    /// prefill order.
    fn drive(
        traffic: &[RequestSpec],
        lane: usize,
        lanes: usize,
        cfg: &ServeConfig,
        step_s: f64,
    ) -> Vec<usize> {
        let budget = cfg.max_batch_tokens;
        let mut sched = Scheduler::new(traffic, lane, lanes, cfg);
        let mut slots = BTreeSet::new();
        let mut prefill_order = Vec::new();
        let max_steps: usize = traffic.iter().map(|r| r.output_len + 1).sum();
        let (mut now, mut steps) = (0.0, 0);
        loop {
            let batch = match sched.plan(now) {
                Decision::AllDone => break,
                Decision::IdleUntil(t) => {
                    now = t;
                    continue;
                }
                Decision::Step(batch) => batch,
            };
            steps += 1;
            assert!(steps <= max_steps, "no progress after {max_steps} steps");
            assert!(
                batch.ids().all(|id| id % lanes == lane),
                "lane {lane} batched another lane's request"
            );
            let decoding: Vec<usize> = (0..sched.specs.len())
                .filter(|&n| matches!(sched.state[n], ReqState::Active { prefilled: true, .. }))
                .map(|n| sched.specs[n].id)
                .collect();
            assert_eq!(
                batch.decode,
                decoding[..decoding.len().min(budget)],
                "lane {lane}: every prefilled request decodes, up to the budget"
            );
            let tokens: usize = batch.decode.len()
                + batch.prefill.iter().map(|&id| traffic[id].prompt_len).sum::<usize>();
            let lone_prompt = batch.decode.is_empty() && batch.prefill.len() == 1;
            assert!(tokens <= budget || lone_prompt, "lane {lane}: {tokens} tokens > {budget}");
            let active = sched.active.len();
            assert!(active <= cfg.max_lane_requests, "lane {lane}: {active} requests admitted");
            for &id in &batch.decode {
                assert!(slots.contains(&id), "request {id} decodes without a slot");
            }
            for &id in &batch.prefill {
                assert!(slots.insert(id), "request {id} prefilled twice");
            }
            prefill_order.extend(&batch.prefill);
            let before: Vec<usize> = (0..sched.specs.len()).map(|n| produced(&sched, n)).collect();
            now += step_s;
            sched.complete(&batch, now);
            for (n, &was) in before.iter().enumerate() {
                let id = sched.specs[n].id;
                assert_eq!(
                    produced(&sched, n),
                    was + usize::from(batch.ids().any(|b| b == id)),
                    "request {id}: a batched request advances exactly one token"
                );
            }
            for &id in &batch.finishing {
                assert!(slots.remove(&id), "request {id} finished without a slot");
            }
        }
        let results = sched.results();
        assert!(results
            .iter()
            .all(|r| r.arrival <= r.first_token_time && r.first_token_time <= r.finish_time));
        assert!(slots.is_empty(), "slots left at the end: {slots:?}");
        prefill_order
    }

    #[test]
    fn scheduler_properties_hold_on_random_traffic() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5C4E_D01E);
        for case in 0..300 {
            let lanes = 1 + rng.next_usize(4);
            let cfg = cfg(1 + rng.next_usize(64), 1 + rng.next_usize(8));
            let traffic = generate(&TrafficConfig {
                rate: [1e2, 1e3, 1e4, 1e12][rng.next_usize(4)],
                requests: 1 + rng.next_usize(60),
                prompt_lens: (1, 1 + rng.next_usize(80)),
                output_lens: (1, 1 + rng.next_usize(8)),
                seed: case,
            });
            for lane in 0..lanes {
                let prefilled = drive(&traffic, lane, lanes, &cfg, 1e-3);
                let fifo: Vec<usize> = (lane..traffic.len()).step_by(lanes).collect();
                assert_eq!(
                    prefilled, fifo,
                    "case {case}: lane {lane} prefills out of arrival order"
                );
            }
        }
    }

    #[test]
    fn a_short_prompt_never_overtakes_one_that_does_not_fit() {
        // Request 0 decodes while request 1's prompt (64) does not fit
        // beside it under a 64-token budget. Request 2's short prompt would
        // fit, but the FIFO prefix stops at request 1: both wait until
        // request 0 finishes, then request 1 runs alone.
        let spec = |id, arrival, prompt_len, output_len| RequestSpec {
            id,
            arrival,
            prompt_len,
            output_len,
        };
        let traffic = [spec(0, 0.0, 8, 3), spec(1, 0.5, 64, 1), spec(2, 0.5, 4, 1)];
        let mut sched = Scheduler::new(&traffic, 0, 1, &cfg(64, 4));
        let mut batches = Vec::new();
        let mut now = 0.0;
        while let Decision::Step(batch) = sched.plan(now) {
            now += 1.0;
            sched.complete(&batch, now);
            batches.push((batch.decode, batch.prefill));
        }
        let batch = |decode: &[usize], prefill: &[usize]| (decode.to_vec(), prefill.to_vec());
        assert_eq!(
            batches,
            [
                batch(&[], &[0]),
                batch(&[0], &[]),
                batch(&[0], &[]),
                batch(&[], &[1]),
                batch(&[], &[2])
            ]
        );
    }
}
