//! Per-rank execution context: the "device" each SPMD worker drives.
//!
//! A [`RankCtx`] owns the rank's virtual clock and compute meter. Tensor ops
//! charge `ctx.meter`; collectives (and [`RankCtx::flush_compute`]) fold the
//! pending meter into the clock using the cost model, so simulated time is
//! always `compute time + communication time` regardless of how fast the
//! host machine happens to be.

use std::sync::Arc;

use tesseract_tensor::{trace, Meter};

use crate::cost::CostParams;
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
    /// Every flushed meter, folded with [`Meter::merge`] (flows summed,
    /// the two peaks maxed).
    totals: Meter,
    /// Running bytes of tape-held activations (pushes minus pops). Lives on
    /// the ctx rather than the meter because `Meter::take` resets flows at
    /// every flush, while tape residency spans flush boundaries.
    tape_bytes_now: u64,
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
        // The wait counters fold into the totals but never into
        // `compute_time`: `advance_comm` already booked them as `comm_time`.
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

    /// Advances the clock to `new_time` (a collective exit time), booking
    /// the difference as communication/wait time.
    pub(crate) fn advance_comm(&mut self, new_time: f64) {
        if new_time > self.clock {
            self.meter.charge_comm_wait(new_time - self.clock);
            self.comm_time += new_time - self.clock;
            self.clock = new_time;
        }
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

    /// Lifetime blocked-wait nanos (folded totals plus the pending meter);
    /// invariant under `flush_compute`, so comm spans can delta it.
    pub(crate) fn lifetime_comm_wait_nanos(&self) -> u64 {
        self.totals.comm_wait_nanos + self.meter.comm_wait_nanos
    }

    /// Lifetime hidden-overlap nanos; invariant under `flush_compute`.
    pub(crate) fn lifetime_overlap_hidden_nanos(&self) -> u64 {
        self.totals.overlap_hidden_nanos + self.meter.overlap_hidden_nanos
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
        RankReport {
            rank: self.rank,
            virtual_time: self.clock,
            compute_time: self.compute_time,
            comm_time: self.comm_time,
            flops: t.flops,
            kernels: t.kernels,
            gemms_blocked: t.gemms_blocked,
            gemms_serial: t.gemms_serial,
            gemms_kernel_scalar: t.gemms_kernel_scalar,
            gemms_kernel_avx2: t.gemms_kernel_avx2,
            gemms_kernel_avx512: t.gemms_kernel_avx512,
            bytes_allocated: t.bytes_allocated,
            comm_wait_nanos: t.comm_wait_nanos,
            overlap_hidden_nanos: t.overlap_hidden_nanos,
            prefill_steps: t.prefill_steps,
            decode_steps: t.decode_steps,
            kv_cache_bytes_peak: t.kv_cache_bytes_peak,
            activation_bytes_peak: t.activation_bytes_peak,
            weight_bytes: t.weight_bytes,
            idle_time: self.idle_time,
            comm: self.comm,
        }
    }

    /// Books `bytes` of newly tape-held activation data and raises the
    /// meter's high-water mark to the new running total. Called by
    /// `Tape::push_tracked` in tesseract-core.
    pub fn charge_tape_push(&mut self, bytes: u64) {
        self.tape_bytes_now += bytes;
        self.meter.note_activation_bytes(self.tape_bytes_now);
    }

    /// Releases `bytes` of tape-held activation data (pop or checkpoint
    /// clear). Saturating: a release can never underflow the running total.
    pub fn charge_tape_pop(&mut self, bytes: u64) {
        debug_assert!(self.tape_bytes_now >= bytes, "tape release exceeds held bytes");
        self.tape_bytes_now = self.tape_bytes_now.saturating_sub(bytes);
    }

    /// Current bytes of tape-held activations (pushes minus pops).
    pub fn tape_bytes_now(&self) -> u64 {
        self.tape_bytes_now
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
    /// Blocked dispatches that ran the scalar micro-kernel backend
    /// (`gemms_kernel_scalar + gemms_kernel_avx2 + gemms_kernel_avx512 ==
    /// gemms_blocked`).
    pub gemms_kernel_scalar: u64,
    /// Blocked dispatches that ran the AVX2+FMA micro-kernel backend —
    /// the audit trail for which kernel actually executed this run.
    pub gemms_kernel_avx2: u64,
    /// Blocked dispatches that ran the AVX-512 micro-kernel backend.
    pub gemms_kernel_avx512: u64,
    /// Total bytes of op outputs this rank materialized (an
    /// activation-traffic proxy; weights are counted once at construction
    /// via the concat in layer constructors).
    pub bytes_allocated: u64,
    /// Simulated nanoseconds this rank spent blocked in collectives (the
    /// integer-nanosecond mirror of `comm_time`, at counter resolution).
    pub comm_wait_nanos: u64,
    /// Simulated nanoseconds of collective wait hidden under compute by
    /// split-phase overlap (zero on the serial path).
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
    /// led, the seconds it was charged, the wait it hid.
    /// [`crate::RunOutput::comm`] is the rank-order fold of these.
    pub comm: CommStats,
}
