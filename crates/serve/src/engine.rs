//! The continuous-batching serving engine.
//!
//! ## Request lifecycle
//!
//! `Pending → Active(unprefilled) → Active(decoding) → Done`. A request is
//! assigned to one `(i, k)` **lane** (round-robin by id over the `q·d` row
//! -block owners); the `q` ranks of that lane's row fiber hold its KV cache
//! and activations, sharded by heads/columns exactly like training. At
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
//! Decode rows, then prompt rows, are stacked into one `forward_infer`
//! call. A step's collective count does not depend on its row count, so
//! an admission rides along with the lane's decoders instead of stalling
//! them for a prefill-only step. (This is not chunked prefill: a prompt is
//! never split across steps.)
//!
//! ## SPMD determinism
//!
//! Every rank mirrors the *metadata* scheduler for all lanes (arrivals and
//! lengths are in the shared traffic trace; generated token values never
//! influence scheduling). Each step begins with a world barrier, so
//! `ctx.clock()` is bitwise identical on every rank when decisions are
//! taken — all ranks compute the same global plan and execute the same
//! collective sequence, while only touching tensors for their own lane.
//! Lanes with nothing runnable step a zero-row batch to stay in lockstep;
//! when *no* lane is runnable, every rank `idle_until` the next arrival.
//! Latencies are measured on the virtual clock at these synchronized
//! barriers, which makes whole runs — results, reports, traces —
//! reproducible byte for byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use tesseract_comm::{Cluster, Payload, RankCtx, RunOutput};
use tesseract_core::TransformerConfig;
use tesseract_core::{GridShape, InferBatch, RequestKv, TesseractGrid, TesseractTransformer};
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

/// Outcome of one request, on the virtual clock. Identical on every rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestResult {
    pub id: usize,
    /// Lane `(i + k·q)` the request ran on.
    pub lane: usize,
    pub arrival: f64,
    /// Barrier-synchronized time the step that prefilled it completed (the
    /// first output token exists here).
    pub first_token_time: f64,
    /// Barrier-synchronized time its last token completed.
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
    /// All requests, id-ordered — identical on every rank by construction.
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
    /// Global step-boundary count (barriers with at least one busy lane).
    pub steps_total: u64,
}

// ---------------------------------------------------------------------------
// Metadata scheduler (mirrored on every rank)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
enum ReqState {
    Pending,
    Active { prefilled: bool, generated: usize },
    Done,
}

/// One lane's share of a step: the prefilled requests that advance one
/// token, then the prompts prefilled whole. `run_serve` stacks their rows
/// in that order.
#[derive(Clone, Debug, Default, PartialEq)]
struct LaneBatch {
    decode: Vec<usize>,
    prefill: Vec<usize>,
}

impl LaneBatch {
    fn is_empty(&self) -> bool {
        self.decode.is_empty() && self.prefill.is_empty()
    }

    /// Request ids in row order: decoders first, then prompts.
    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.decode.iter().chain(&self.prefill).copied()
    }
}

/// A global step decision: one batch per lane plus the requests that will
/// finish when the step completes.
#[derive(Clone, Debug)]
struct StepPlan {
    lanes: Vec<LaneBatch>,
    finishing: Vec<Vec<usize>>,
}

enum Decision {
    AllDone,
    /// No lane runnable; sleep until this arrival time.
    IdleUntil(f64),
    Step(StepPlan),
}

struct Scheduler {
    specs: Vec<RequestSpec>,
    lane_of: Vec<usize>,
    state: Vec<ReqState>,
    first_token: Vec<f64>,
    finish: Vec<f64>,
    lanes: usize,
    max_lane_requests: usize,
    max_batch_tokens: usize,
    done: usize,
}

impl Scheduler {
    fn new(traffic: &[RequestSpec], lanes: usize, cfg: &ServeConfig) -> Self {
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
        Self {
            lane_of: traffic.iter().map(|r| r.id % lanes).collect(),
            state: vec![ReqState::Pending; traffic.len()],
            first_token: vec![0.0; traffic.len()],
            finish: vec![0.0; traffic.len()],
            specs: traffic.to_vec(),
            lanes,
            max_lane_requests: cfg.max_lane_requests,
            max_batch_tokens: cfg.max_batch_tokens,
            done: 0,
        }
    }

    /// Admissions + one batch per lane at synchronized time `now`.
    /// Mutates only Pending→Active (admission); step effects apply in
    /// [`Scheduler::complete`].
    fn plan(&mut self, now: f64) -> Decision {
        // Admission: arrival-ordered (traffic order) per lane, bounded by
        // the lane's free KV slots.
        let mut active_per_lane = vec![0usize; self.lanes];
        for id in 0..self.specs.len() {
            if matches!(self.state[id], ReqState::Active { .. }) {
                active_per_lane[self.lane_of[id]] += 1;
            }
        }
        for id in 0..self.specs.len() {
            let lane = self.lane_of[id];
            if self.state[id] == ReqState::Pending
                && self.specs[id].arrival <= now
                && active_per_lane[lane] < self.max_lane_requests
            {
                self.state[id] = ReqState::Active { prefilled: false, generated: 0 };
                active_per_lane[lane] += 1;
            }
        }

        // Pass 1: every prefilled request advances one token, up to the
        // budget. Pass 2: a FIFO prefix of the unprefilled prompts fills
        // what is left; the first prompt that does not fit closes the
        // lane's pass, unless the batch is still empty.
        let mut lanes = vec![LaneBatch::default(); self.lanes];
        let mut tokens = vec![0usize; self.lanes];
        for id in 0..self.specs.len() {
            let lane = self.lane_of[id];
            if matches!(self.state[id], ReqState::Active { prefilled: true, .. })
                && tokens[lane] < self.max_batch_tokens
            {
                lanes[lane].decode.push(id);
                tokens[lane] += 1;
            }
        }
        let mut closed = vec![false; self.lanes];
        for id in 0..self.specs.len() {
            let lane = self.lane_of[id];
            if closed[lane]
                || self.state[id] != (ReqState::Active { prefilled: false, generated: 0 })
            {
                continue;
            }
            let plen = self.specs[id].prompt_len;
            if lanes[lane].is_empty() || tokens[lane] + plen <= self.max_batch_tokens {
                lanes[lane].prefill.push(id);
                tokens[lane] += plen;
            } else {
                closed[lane] = true;
            }
        }

        let finishing: Vec<Vec<usize>> = lanes
            .iter()
            .map(|batch| {
                batch
                    .ids()
                    .filter(|&id| match self.state[id] {
                        ReqState::Active { generated, .. } => {
                            generated + 1 == self.specs[id].output_len
                        }
                        _ => unreachable!("a batch holds active requests"),
                    })
                    .collect()
            })
            .collect();
        let any_work = lanes.iter().any(|batch| !batch.is_empty());

        if any_work {
            return Decision::Step(StepPlan { lanes, finishing });
        }
        if self.done == self.specs.len() {
            return Decision::AllDone;
        }
        let next = self
            .specs
            .iter()
            .zip(&self.state)
            .filter(|(_, s)| **s == ReqState::Pending)
            .map(|(r, _)| r.arrival)
            .fold(f64::INFINITY, f64::min);
        assert!(next > now, "unadmitted arrival in the past implies a runnable lane");
        Decision::IdleUntil(next)
    }

    /// Applies a completed step's effects at synchronized time `now`.
    fn complete(&mut self, plan: &StepPlan, now: f64) {
        for (batch, finishing) in plan.lanes.iter().zip(&plan.finishing) {
            for &id in &batch.decode {
                match &mut self.state[id] {
                    ReqState::Active { generated, .. } => *generated += 1,
                    _ => unreachable!("a batch holds active requests"),
                }
            }
            for &id in &batch.prefill {
                // Prefill yields the request's first output token.
                self.first_token[id] = now;
                self.state[id] = ReqState::Active { prefilled: true, generated: 1 };
            }
            for &id in finishing {
                self.finish[id] = now;
                self.state[id] = ReqState::Done;
                self.done += 1;
            }
        }
    }

    fn results(&self) -> Vec<RequestResult> {
        assert_eq!(self.done, self.specs.len(), "results requested before completion");
        self.specs
            .iter()
            .map(|spec| RequestResult {
                id: spec.id,
                lane: self.lane_of[spec.id],
                arrival: spec.arrival,
                first_token_time: self.first_token[spec.id],
                finish_time: self.finish[spec.id],
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
    /// Next decode input `[1, h/q]`: the model output row of the request's
    /// latest token.
    next_input: Option<T>,
}

/// Runs the serving engine on one rank (SPMD: call from every rank of the
/// grid with the same `cfg` and `traffic`). Returns the per-rank summary;
/// `results` inside it is identical on every rank.
pub fn run_serve<T: TensorLike + Payload>(
    ctx: &mut RankCtx,
    grid: &TesseractGrid,
    cfg: &ServeConfig,
    traffic: &[RequestSpec],
) -> ServeSummary {
    let model = TesseractTransformer::<T>::new(ctx, grid, cfg.model, cfg.with_bias, cfg.seed, 0);
    let lanes = grid.shape.q * grid.shape.d;
    let my_lane = grid.a_row_block();
    let hidden = cfg.model.hidden;
    let local_h = hidden / grid.shape.q;
    let col0 = grid.j() * local_h;
    let prompt_seed = cfg.seed ^ PROMPT_SEED_SALT;
    let world = ctx.world_group();

    let mut sched = Scheduler::new(traffic, lanes, cfg);
    let mut slots: BTreeMap<usize, LaneSlot<T>> = BTreeMap::new();
    let mut prev: Option<StepPlan> = None;
    let mut steps_total = 0u64;

    loop {
        // Step boundary: synchronize every rank's clock so all mirrored
        // schedulers decide from the same `now`.
        world.barrier(ctx);
        ctx.flush_compute();
        let now = ctx.clock();

        if let Some(plan) = prev.take() {
            sched.complete(&plan, now);
            // Eviction: finished requests leave at step granularity and
            // their KV blocks drop here.
            for &id in &plan.finishing[my_lane] {
                slots.remove(&id);
            }
        }

        let plan = match sched.plan(now) {
            Decision::AllDone => break,
            Decision::IdleUntil(t) => {
                // Open-loop lull: every rank sleeps to the same arrival.
                ctx.idle_until(t);
                continue;
            }
            Decision::Step(plan) => plan,
        };
        steps_total += 1;

        // Tensor work for my lane only; other lanes do theirs in parallel.
        let batch = &plan.lanes[my_lane];
        let segments = batch.decode.len() + batch.prefill.len();
        let mut parts: Vec<T> = Vec::with_capacity(segments);
        let mut new_rows = Vec::with_capacity(segments);
        let mut kvs = Vec::with_capacity(segments);
        for &id in &batch.decode {
            let slot = slots.get_mut(&id).expect("decode before prefill");
            parts.push(slot.next_input.take().expect("decode input missing"));
            new_rows.push(1);
            kvs.push(slot.kv.take().expect("KV missing from slot"));
        }
        for &id in &batch.prefill {
            let plen = sched.specs[id].prompt_len;
            // The prompt is a deterministic function of (seed, id): every
            // rank of the lane extracts its own column block of the same
            // global [plen, h] matrix.
            parts.push(T::init_xavier_block(
                plen,
                hidden,
                0,
                col0,
                plen,
                local_h,
                prompt_seed,
                id as u64,
            ));
            new_rows.push(plen);
            kvs.push(model.new_kv(grid));
        }
        let x = Arc::new(if parts.is_empty() {
            // Empty lane: zero-row block keeps this rank inside every
            // collective of the step.
            T::zeros(0, local_h)
        } else {
            T::concat_rows(&parts, &mut ctx.meter)
        });
        drop(parts);

        let mut infer = InferBatch { new_rows, kvs };
        let y = model.forward_infer(grid, ctx, &x, &mut infer);

        // A step that prefilled any prompt counts as a prefill step; one
        // that only decoded, as a decode step.
        if !batch.prefill.is_empty() {
            ctx.count_serving_step(true);
        } else if !batch.decode.is_empty() {
            ctx.count_serving_step(false);
        }

        // Scatter outputs back: the last row of each segment is the next
        // decode input; caches (now grown) return to their slots.
        let mut r0 = 0;
        let kvs_back = std::mem::take(&mut infer.kvs);
        for (seg, (id, kv)) in batch.ids().zip(kvs_back).enumerate() {
            let r1 = r0 + infer.new_rows[seg];
            let next = y.slice_rows(r1 - 1, r1, &mut ctx.meter);
            slots.insert(id, LaneSlot { kv: Some(kv), next_input: Some(next) });
            r0 = r1;
        }

        // KV high-water mark after the append, before any eviction.
        let resident: u64 = slots.values().map(|s| s.kv.as_ref().map_or(0, RequestKv::bytes)).sum();
        ctx.note_kv_cache_bytes(resident);

        prev = Some(plan);
    }

    assert!(slots.is_empty(), "all slots evicted at completion");
    assert_eq!(ctx.tape_bytes_now(), 0, "inference must never grow a tape");
    // Serving never drops the fetched weights, so the end total is the peak.
    ctx.note_weight_bytes(model.stationary_bytes());
    // The mirrored counters are read back from the rank's own booking. The
    // last step boundary flushed the meter, so this report moves no clock.
    let booked = ctx.report();
    ServeSummary {
        results: sched.results(),
        prefill_steps: booked.prefill_steps,
        decode_steps: booked.decode_steps,
        kv_peak_bytes: booked.kv_cache_bytes_peak,
        weight_bytes: booked.weight_bytes,
        steps_total,
    }
}

/// Convenience driver: spawns a `[q, q, d]` grid over the whole cluster
/// and serves `traffic` on it.
pub fn serve_on_cluster<T: TensorLike + Payload>(
    cluster: &Cluster,
    shape: GridShape,
    cfg: &ServeConfig,
    traffic: &[RequestSpec],
) -> RunOutput<ServeSummary> {
    shape.check_world(cluster.world).unwrap_or_else(|e| panic!("{e}"));
    cluster.run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        run_serve::<T>(ctx, &grid, cfg, traffic)
    })
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

    /// Tokens a request has produced so far.
    fn produced(sched: &Scheduler, id: usize) -> usize {
        match sched.state[id] {
            ReqState::Pending => 0,
            ReqState::Active { generated, .. } => generated,
            ReqState::Done => sched.specs[id].output_len,
        }
    }

    /// Drives the scheduler to completion on a synthetic clock (`step_s`
    /// per step), checking every step against the batching rules and
    /// mirroring `run_serve`'s slot bookkeeping. Returns each lane's
    /// prefill order.
    fn drive(
        traffic: &[RequestSpec],
        lanes: usize,
        cfg: &ServeConfig,
        step_s: f64,
    ) -> Vec<Vec<usize>> {
        let budget = cfg.max_batch_tokens;
        let mut sched = Scheduler::new(traffic, lanes, cfg);
        let mut slots = BTreeSet::new();
        let mut prefill_order = vec![Vec::new(); lanes];
        let max_steps: usize = traffic.iter().map(|r| r.output_len + 1).sum();
        let (mut now, mut steps) = (0.0, 0);
        loop {
            let plan = match sched.plan(now) {
                Decision::AllDone => break,
                Decision::IdleUntil(t) => {
                    now = t;
                    continue;
                }
                Decision::Step(plan) => plan,
            };
            steps += 1;
            assert!(steps <= max_steps, "no progress after {max_steps} steps");
            for (lane, batch) in plan.lanes.iter().enumerate() {
                let decoding: Vec<usize> = (0..traffic.len())
                    .filter(|&id| {
                        sched.lane_of[id] == lane
                            && matches!(sched.state[id], ReqState::Active { prefilled: true, .. })
                    })
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
                for &id in &batch.decode {
                    assert!(slots.contains(&id), "request {id} decodes without a slot");
                }
                for &id in &batch.prefill {
                    assert!(slots.insert(id), "request {id} prefilled twice");
                }
                prefill_order[lane].extend(&batch.prefill);
            }
            let before: Vec<usize> = (0..traffic.len()).map(|id| produced(&sched, id)).collect();
            now += step_s;
            sched.complete(&plan, now);
            for (id, &was) in before.iter().enumerate() {
                let batched = plan.lanes[sched.lane_of[id]].ids().any(|b| b == id);
                assert_eq!(
                    produced(&sched, id),
                    was + usize::from(batched),
                    "request {id}: a batched request advances exactly one token"
                );
            }
            for &id in plan.finishing.iter().flatten() {
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
            let order = drive(&traffic, lanes, &cfg, 1e-3);
            for (lane, prefilled) in order.iter().enumerate() {
                let fifo: Vec<usize> = (lane..traffic.len()).step_by(lanes).collect();
                assert_eq!(
                    *prefilled, fifo,
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
        let mut sched = Scheduler::new(&traffic, 1, &cfg(64, 4));
        let mut batches = Vec::new();
        let mut now = 0.0;
        while let Decision::Step(plan) = sched.plan(now) {
            batches.push(plan.lanes[0].clone());
            now += 1.0;
            sched.complete(&plan, now);
        }
        let batch = |decode: &[usize], prefill: &[usize]| LaneBatch {
            decode: decode.to_vec(),
            prefill: prefill.to_vec(),
        };
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
