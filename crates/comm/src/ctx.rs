//! Per-rank execution context: the "device" each SPMD worker drives.
//!
//! A [`RankCtx`] owns the rank's virtual clock and compute meter. Tensor ops
//! charge `ctx.meter`; collectives (and [`RankCtx::flush_compute`]) fold the
//! pending meter into the clock using the cost model, so simulated time is
//! always `compute time + communication time` regardless of how fast the
//! host machine happens to be.
//!
//! Every other per-rank counter is booked once, where it is produced: a
//! collective's wait in the rank's comm ledger ([`CommStats`], per op, by
//! the charging sites in [`crate::group`]), and the serving step counts and
//! the KV, weight and tape high-water marks in fields of the ctx itself.

use std::sync::Arc;

use tesseract_tensor::matmul::{self, MicroKernel};
use tesseract_tensor::{trace, Meter};

use crate::cost::{CollectiveOp, CostParams};
use crate::fabric::Fabric;
use crate::group::CommGroup;
use crate::stats::CommStats;
use crate::topology::Topology;

/// One rank's view of the simulated cluster.
pub struct RankCtx {
    /// Global rank id, `0..world`.
    pub rank: usize,
    /// Total number of ranks in the cluster.
    pub world: usize,
    /// Cost-model constants (shared by all ranks).
    pub params: CostParams,
    /// Physical topology (shared by all ranks).
    pub topology: Topology,
    /// Compute meter tensors charge into; flushed into the clock at
    /// synchronization points.
    pub meter: Meter,
    clock: f64,
    compute_time: f64,
    comm_time: f64,
    /// Every flushed meter, folded with [`Meter::merge`].
    totals: Meter,
    /// Running bytes of tape-held activations (pushes minus pops).
    tape_bytes_now: u64,
    activation_bytes_peak: u64,
    prefill_steps: u64,
    decode_steps: u64,
    kv_cache_bytes_peak: u64,
    weight_bytes: u64,
    idle_time: f64,
    fabric: Arc<Fabric>,
    /// The collectives this rank booked; the charging sites in
    /// [`crate::group`] write it, [`RankCtx::report`] hands it out.
    pub(crate) comm: CommStats,
}

impl RankCtx {
    pub(crate) fn new(
        rank: usize,
        world: usize,
        params: CostParams,
        topology: Topology,
        fabric: Arc<Fabric>,
    ) -> Self {
        Self {
            rank,
            world,
            params,
            topology,
            meter: Meter::new(),
            clock: 0.0,
            compute_time: 0.0,
            comm_time: 0.0,
            totals: Meter::new(),
            tape_bytes_now: 0,
            activation_bytes_peak: 0,
            prefill_steps: 0,
            decode_steps: 0,
            kv_cache_bytes_peak: 0,
            weight_bytes: 0,
            idle_time: 0.0,
            fabric,
            comm: CommStats::default(),
        }
    }

    /// Current virtual time (seconds since run start).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    pub(crate) fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Converts all pending metered compute into virtual time. Collectives
    /// call this automatically; call it manually before reading the clock.
    pub fn flush_compute(&mut self) {
        let begin = self.clock;
        let m = self.meter.take();
        self.totals.merge(&m);
        if m.flops > 0.0 || m.kernels > 0 {
            let t = self.params.compute_time(m.flops, m.kernels);
            self.clock += t;
            self.compute_time += t;
        }
        if trace::is_active() {
            // The flush is the authoritative trace unit for compute: the
            // event carries the exact values just folded into the totals,
            // in the same accumulation order, so trace sums reconcile with
            // `RankReport` bitwise.
            trace::on_flush(m.flops, m.kernels, m.bytes_allocated, begin, self.clock);
        }
    }

    /// Advances the clock to `new_time` (an exit time of `op`), booking the
    /// difference as communication time and as `op`'s blocked nanoseconds
    /// in the rank's comm ledger. Returns the nanoseconds booked.
    pub(crate) fn advance_comm(&mut self, op: CollectiveOp, new_time: f64) -> u64 {
        if new_time <= self.clock {
            return 0;
        }
        let nanos = self.comm.charge_blocked(op, new_time - self.clock);
        self.comm_time += new_time - self.clock;
        self.clock = new_time;
        nanos
    }

    /// Advances the clock to `until` (virtual seconds), booking the gap as
    /// idle time — neither compute nor communication. The serving engine
    /// uses this when no request is runnable and the next event is a
    /// future arrival: the rank "sleeps" until the traffic wakes it. Any
    /// pending metered compute is flushed first so the idle window starts
    /// from an up-to-date clock. A no-op if `until` is in the past.
    pub fn idle_until(&mut self, until: f64) {
        self.flush_compute();
        if until > self.clock {
            self.idle_time += until - self.clock;
            self.clock = until;
        }
    }

    /// Total simulated seconds this rank has spent idle (via
    /// [`RankCtx::idle_until`]).
    pub fn idle_time(&self) -> f64 {
        self.idle_time
    }

    /// The virtual time the clock *will* read once pending compute is
    /// flushed, without flushing (non-mutating — scope spans use this so
    /// observing the timeline never perturbs flush batching).
    pub fn vt_now(&self) -> f64 {
        if self.meter.flops > 0.0 || self.meter.kernels > 0 {
            self.clock + self.params.compute_time(self.meter.flops, self.meter.kernels)
        } else {
            self.clock
        }
    }

    /// Runs `f` inside a named trace scope (`what.phase`, e.g.
    /// `linear.fwd`) spanning its virtual-time window. When tracing is
    /// disabled this is exactly `f(self)` — no strings are built, no clock
    /// is touched.
    pub fn traced<R>(
        &mut self,
        what: &str,
        phase: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !trace::is_active() {
            return f(self);
        }
        let begin = self.vt_now();
        let result = f(self);
        let end = self.vt_now();
        trace::record(
            format!("{what}.{phase}"),
            begin,
            end,
            tesseract_tensor::TraceKind::Scope { phase },
        );
        result
    }

    /// Creates a communication group containing this rank. See
    /// [`CommGroup::new`] for the SPMD contract.
    pub fn group(&self, tag: &str, ranks: Vec<usize>) -> CommGroup {
        CommGroup::new(self, tag, ranks)
    }

    /// Group over all ranks in the cluster.
    pub fn world_group(&self) -> CommGroup {
        self.group("world", (0..self.world).collect())
    }

    /// Final accounting snapshot for this rank.
    pub fn report(&mut self) -> RankReport {
        self.flush_compute();
        let t = self.totals;
        // Every blocked GEMM of a process runs on its one resolved backend.
        let backend = (t.gemms_blocked > 0).then(matmul::active_kernel);
        let on = |k| if backend == Some(k) { t.gemms_blocked } else { 0 };
        RankReport {
            rank: self.rank,
            virtual_time: self.clock,
            compute_time: self.compute_time,
            comm_time: self.comm_time,
            flops: t.flops,
            kernels: t.kernels,
            gemms_blocked: t.gemms_blocked,
            gemms_serial: t.gemms_serial,
            gemms_kernel_scalar: on(MicroKernel::Scalar),
            gemms_kernel_avx2: on(MicroKernel::Avx2),
            gemms_kernel_avx512: on(MicroKernel::Avx512),
            bytes_allocated: t.bytes_allocated,
            comm_wait_nanos: self.comm.per_op.iter().map(|s| s.blocked_nanos).sum(),
            overlap_hidden_nanos: self.comm.per_op.iter().map(|s| s.hidden_nanos).sum(),
            prefill_steps: self.prefill_steps,
            decode_steps: self.decode_steps,
            kv_cache_bytes_peak: self.kv_cache_bytes_peak,
            activation_bytes_peak: self.activation_bytes_peak,
            weight_bytes: self.weight_bytes,
            idle_time: self.idle_time,
            comm: self.comm,
        }
    }

    /// Books `bytes` of newly tape-held activation data and raises the
    /// tape high-water mark to the new running total. Called by
    /// `Tape::push_tracked` in tesseract-core.
    pub fn charge_tape_push(&mut self, bytes: u64) {
        self.tape_bytes_now += bytes;
        self.activation_bytes_peak = self.activation_bytes_peak.max(self.tape_bytes_now);
    }

    /// Releases `bytes` of tape-held activation data (pop or checkpoint
    /// clear). Panics if the rank holds fewer bytes: an over-release would
    /// understate every later high-water mark.
    pub fn charge_tape_pop(&mut self, bytes: u64) {
        self.tape_bytes_now =
            self.tape_bytes_now.checked_sub(bytes).expect("tape release exceeds held bytes");
    }

    /// Current bytes of tape-held activations (pushes minus pops).
    pub fn tape_bytes_now(&self) -> u64 {
        self.tape_bytes_now
    }

    /// Counts one serving-engine step: a prefill step if it `prefilled` at
    /// least one whole prompt, else a decode-only step. Bookkeeping only,
    /// no time.
    pub fn count_serving_step(&mut self, prefilled: bool) {
        if prefilled {
            self.prefill_steps += 1;
        } else {
            self.decode_steps += 1;
        }
    }

    /// Raises the KV-cache high-water mark to `bytes` if it is the new
    /// peak. The serving engine calls this with its current per-rank cache
    /// footprint after every admit/append/evict transition.
    pub fn note_kv_cache_bytes(&mut self, bytes: u64) {
        self.kv_cache_bytes_peak = self.kv_cache_bytes_peak.max(bytes);
    }

    /// Raises the serving-weight high-water mark to `bytes` if it is the
    /// new peak. The serving engine calls this with the stack's fetched
    /// weight bytes.
    pub fn note_weight_bytes(&mut self, bytes: u64) {
        self.weight_bytes = self.weight_bytes.max(bytes);
    }
}

/// Per-rank timing/throughput summary returned from a cluster run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankReport {
    pub rank: usize,
    /// Total simulated seconds (compute + communication + wait).
    pub virtual_time: f64,
    /// Simulated seconds spent in metered compute.
    pub compute_time: f64,
    /// Simulated seconds spent in collectives (including skew wait).
    pub comm_time: f64,
    /// Total flops this rank performed.
    pub flops: f64,
    /// Total kernel launches this rank performed.
    pub kernels: u64,
    /// GEMM launches `matmul::planned_path` dispatched to the blocked
    /// kernel on this rank.
    pub gemms_blocked: u64,
    /// GEMM launches below the blocked threshold (the serial kernel).
    pub gemms_serial: u64,
    /// Blocked dispatches that ran the scalar micro-kernel backend. The
    /// process runs every blocked GEMM on its one `matmul::active_kernel`,
    /// so that backend's field is `gemms_blocked` and the other two are 0.
    pub gemms_kernel_scalar: u64,
    /// Blocked dispatches that ran the AVX2+FMA micro-kernel backend —
    /// the audit trail for which kernel actually executed this run.
    pub gemms_kernel_avx2: u64,
    /// Blocked dispatches that ran the AVX-512 micro-kernel backend.
    pub gemms_kernel_avx512: u64,
    /// Total bytes of op outputs this rank's compute materialized (an
    /// activation-traffic proxy). Weights are not counted: every linear
    /// layer is built through a `new_fused` constructor, which charges its
    /// weight concat to a scratch meter, so no weight byte reaches this field.
    pub bytes_allocated: u64,
    /// Simulated nanoseconds this rank spent blocked in collectives (the
    /// integer-nanosecond mirror of `comm_time`): the sum of
    /// [`crate::OpStats::blocked_nanos`] over `comm`'s ops.
    pub comm_wait_nanos: u64,
    /// Simulated nanoseconds of collective wait hidden under compute by
    /// split-phase overlap (zero on the serial path): the sum of
    /// [`crate::OpStats::hidden_nanos`] over `comm`'s ops.
    pub overlap_hidden_nanos: u64,
    /// Serving steps this rank participated in that prefilled at least one
    /// prompt, decode tokens possibly riding along (zero for training runs).
    pub prefill_steps: u64,
    /// Serving steps this rank participated in that only decoded (zero for
    /// training runs).
    pub decode_steps: u64,
    /// Peak bytes of KV-cache blocks resident on this rank at any point in
    /// the run (a high-water mark, not a flow).
    pub kv_cache_bytes_peak: u64,
    /// Peak bytes of tape-held activations resident on this rank at any
    /// point in the run (a high-water mark, not a flow; zero for serving
    /// runs). This is the measured number the memory table's
    /// measured-peak column and `plan`'s dry-run report — what
    /// checkpointed recomputation shrinks.
    pub activation_bytes_peak: u64,
    /// Peak bytes of weights this rank held for weight-stationary serving
    /// (`q×` its weight blocks; zero for training runs). Like
    /// `kv_cache_bytes_peak`, a high-water mark.
    pub weight_bytes: u64,
    /// Simulated seconds spent idle waiting for future arrivals (via
    /// `RankCtx::idle_until`; zero for training runs). Idle time is part
    /// of `virtual_time` but belongs to neither compute nor comm.
    pub idle_time: f64,
    /// The collectives this rank booked: calls and wire bytes of those it
    /// led, the seconds it was charged, and per op the wait it paid and
    /// the wait it hid.
    /// [`crate::RunOutput::comm`] is the rank-order fold of these.
    pub comm: CommStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_tensor::{ShadowTensor, TensorLike};

    fn one_rank(f: impl Fn(&mut RankCtx) + Send + Sync) -> RankReport {
        crate::RunConfig::new(1).run(f).reports[0]
    }

    #[test]
    fn serving_counters_reach_the_report() {
        let r = one_rank(|ctx| {
            ctx.count_serving_step(true);
            ctx.count_serving_step(false);
            ctx.count_serving_step(false);
            ctx.note_kv_cache_bytes(1024);
            ctx.note_kv_cache_bytes(512); // below the peak: must not lower it
            ctx.note_weight_bytes(256);
            ctx.note_weight_bytes(128);
        });
        assert_eq!((r.prefill_steps, r.decode_steps), (1, 2));
        assert_eq!((r.kv_cache_bytes_peak, r.weight_bytes), (1024, 256));
        // Pure bookkeeping: never compute, never simulated time.
        assert_eq!((r.kernels, r.bytes_allocated, r.virtual_time), (0, 0, 0.0));
    }

    #[test]
    fn activation_peak_is_a_high_water_mark() {
        let r = one_rank(|ctx| {
            ctx.charge_tape_push(2048);
            ctx.charge_tape_pop(2048);
            ctx.charge_tape_push(512); // below the peak: must not lower it
            assert_eq!(ctx.tape_bytes_now(), 512);
        });
        assert_eq!(r.activation_bytes_peak, 2048);
        assert_eq!((r.kernels, r.virtual_time), (0, 0.0));
    }

    #[test]
    fn the_report_books_blocked_gemms_on_the_active_backend() {
        let per_backend =
            |r: &RankReport| [r.gemms_kernel_scalar, r.gemms_kernel_avx2, r.gemms_kernel_avx512];
        assert_eq!(per_backend(&one_rank(|_| {})), [0, 0, 0]);
        let r = one_rank(|ctx| {
            let (a, b) = (ShadowTensor::new(64, 64), ShadowTensor::new(64, 64));
            let _ = a.matmul(&b, &mut ctx.meter);
            let _ = a.matmul_nt(&b, &mut ctx.meter);
            let _ = ShadowTensor::new(1, 64).matmul(&b, &mut ctx.meter);
        });
        assert_eq!((r.gemms_blocked, r.gemms_serial), (2, 1));
        let mut want = [0; 3];
        want[MicroKernel::ALL.iter().position(|&k| k == matmul::active_kernel()).unwrap()] = 2;
        assert_eq!(per_backend(&r), want);
    }

    #[test]
    #[should_panic(expected = "tape release exceeds held bytes")]
    fn tape_over_release_panics() {
        one_rank(|ctx| {
            ctx.charge_tape_push(8);
            ctx.charge_tape_pop(16);
        });
    }
}
