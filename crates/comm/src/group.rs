//! Process groups and collectives.
//!
//! A [`CommGroup`] is one rank's handle onto a subset of ranks (a grid row,
//! column or depth fiber). Collectives mirror the NCCL/MPI operations the
//! paper's implementation uses: broadcast, reduce, all-reduce, all-gather,
//! cyclic shift (Cannon), barrier and point-to-point send/recv. Reductions
//! combine deposits in ascending member order, so results are bitwise
//! deterministic run-to-run.
//!
//! # One form per collective
//!
//! Every data-moving collective is implemented once, as a split-phase
//! `X_shared_begin` returning a [`PendingCollective`]. `begin` flushes the
//! caller's pending compute into its virtual clock (so the deposit
//! timestamp is exact) and deposits the payload into the
//! [`crate::fabric::Fabric`]; [`PendingCollective::complete`] blocks until
//! the rendezvous is full, advances the clock to the collective's serial
//! exit time `max(entry clocks) + α–β cost` *if it is not already past it*,
//! and records wire bytes / call counts once per logical operation. The
//! blocking `X_shared` is literally `X_shared_begin(..).complete(ctx)`.
//!
//! Compute issued between `begin` and `complete` overlaps the rendezvous,
//! so the clock is charged exactly the *non-overlapped remainder* of the
//! wait; the hidden portion is recorded in `Meter::overlap_hidden_nanos`
//! and [`crate::stats::OpStats::hidden_time`] instead.
//!
//! Pending collectives on one group must be completed in begin order
//! (FIFO, the NCCL stream discipline); completing out of order panics, as
//! does dropping a handle without completing it.
//!
//! # Zero-copy payloads
//!
//! Read-only payloads travel as `Arc<P>`: broadcast and all-gather hand
//! every receiver an `Arc` clone of the depositor's allocation — the
//! payload is materialized exactly once per rendezvous regardless of group
//! size. Reductions take deposits *by value* and fold them in place
//! (ascending member order, once per rendezvous instead of once per
//! member). Only [`CommGroup::shift`] returns an owned value; the deep copy
//! it makes is recorded in [`crate::stats::OpStats::copies`] and
//! `Meter::payload_copies`, so copy regressions are testable.
//!
//! Ownership rule: an `Arc` returned from a collective may be read freely
//! but must never be mutated through `Arc::get_mut` — other ranks (or the
//! fabric slot, transiently) may hold clones. Use `Arc::make_mut` for
//! copy-on-write or clone explicitly.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use tesseract_tensor::{trace, TensorLike, TraceKind};

use crate::cost::CollectiveOp;
use crate::ctx::RankCtx;
use crate::fabric::{Fabric, Ticket};
use crate::topology::GroupPlacement;

/// One in-flight communication op: what it is, where its span starts, and
/// (when tracing) the rank's lifetime wait/hidden counters at that point.
/// The charging site hands [`CommScope::finish`] the numbers it computed
/// and one [`TraceKind::Comm`] span is emitted. When tracing is inactive
/// `finish` is a no-op; the scope never feeds back into any charge, so
/// traced and untraced runs are bitwise identical.
struct CommScope {
    active: bool,
    op: CollectiveOp,
    key: (u64, u64),
    /// Span start: deposit timestamp (collectives) or entry clock (p2p).
    begin: f64,
    /// Lifetime wait/hidden counters at open; the span's blocked/hidden
    /// charges are the deltas at finish (both counters are invariant under
    /// `flush_compute`, so interleaved flushes cannot contaminate them).
    wait0: u64,
    hidden0: u64,
}

impl CommScope {
    fn open(ctx: &RankCtx, op: CollectiveOp, key: (u64, u64), begin: f64) -> Self {
        let active = trace::is_active();
        Self {
            active,
            op,
            key,
            begin,
            wait0: if active { ctx.lifetime_comm_wait_nanos() } else { 0 },
            hidden0: if active { ctx.lifetime_overlap_hidden_nanos() } else { 0 },
        }
    }

    /// Emits the span, ending at the rank's current (charged) clock.
    /// `max_entry_vt` is the slowest entry the op synchronized to, `cost`
    /// the α–β cost charged, `hidden_time` the overlap handed to the stats
    /// collector, `(wire_bytes, stats_time)` what this rank added to the
    /// global stats, and `recorded` whether it also booked the op's call
    /// there (one member per collective; of a point-to-point pair the
    /// sender, the receiver adding only its transfer seconds).
    fn finish(
        self,
        ctx: &RankCtx,
        max_entry_vt: f64,
        cost: f64,
        hidden_time: f64,
        (wire_bytes, stats_time): (u64, f64),
        recorded: bool,
    ) {
        if !self.active {
            return;
        }
        trace::record(
            self.op.name().to_string(),
            self.begin,
            ctx.clock(),
            TraceKind::Comm {
                op: self.op.name(),
                key_group: self.key.0,
                key_seq: self.key.1,
                max_entry_vt,
                cost,
                blocked_nanos: ctx.lifetime_comm_wait_nanos() - self.wait0,
                hidden_nanos: ctx.lifetime_overlap_hidden_nanos() - self.hidden0,
                hidden_time,
                wire_bytes,
                stats_time,
                recorded,
            },
        );
    }
}

/// FNV-1a over a point-to-point channel's `(src, dst, tag)` triple: the
/// sequence half of the trace key shared by a send event and its matching
/// recv event (the group id is the other half).
fn chan_seq(src: usize, dst: usize, tag: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [src as u64, dst as u64, tag] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Data that can travel through collectives.
pub trait Payload: Clone + Send + Sync + 'static {
    /// Size of one rank's contribution on the wire, in bytes.
    fn wire_size(&self) -> usize;
    /// Elementwise combine for reductions.
    fn combine(&mut self, other: &Self);
}

impl Payload for tesseract_tensor::DenseTensor {
    fn wire_size(&self) -> usize {
        self.byte_size()
    }

    fn combine(&mut self, other: &Self) {
        self.reduce_add_inplace(other);
    }
}

impl Payload for tesseract_tensor::ShadowTensor {
    fn wire_size(&self) -> usize {
        self.byte_size()
    }

    fn combine(&mut self, other: &Self) {
        self.reduce_add_inplace(other);
    }
}

impl Payload for () {
    fn wire_size(&self) -> usize {
        0
    }

    fn combine(&mut self, _other: &Self) {}
}

/// `Arc<P>` travels through collectives and point-to-point channels without
/// copying the inner payload (the pipeline sends activations this way).
/// Reducing through the `Arc` uses copy-on-write: uniquely-owned deposits
/// are combined in place, shared ones are cloned first.
impl<P: Payload> Payload for Arc<P> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }

    fn combine(&mut self, other: &Self) {
        Arc::make_mut(self).combine(other);
    }
}

impl<P: Payload> Payload for Vec<P> {
    fn wire_size(&self) -> usize {
        self.iter().map(Payload::wire_size).sum()
    }

    fn combine(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "Vec payload length mismatch in reduce");
        for (a, b) in self.iter_mut().zip(other.iter()) {
            a.combine(b);
        }
    }
}

/// FNV-1a over a tag and the member ranks; gives every distinct group a
/// stable identifier shared by all of its members.
fn group_id(tag: &str, ranks: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in tag.as_bytes() {
        eat(*b);
    }
    eat(0xff);
    for &r in ranks {
        for b in (r as u64).to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// When the per-member wire size that prices a collective becomes known.
enum WireSize<R> {
    /// At `begin`: every member deposits a payload of this many bytes.
    Known(usize),
    /// At `complete`: only the root knew it (broadcast); every member
    /// reads it off the result it received.
    OfResult(fn(&R) -> usize),
}

/// One rank's handle onto a communication group.
///
/// Contract (SPMD): every member constructs the group with the same `tag`
/// and the same rank list (same order), constructs it once, and issues the
/// same collectives in the same order.
pub struct CommGroup {
    id: u64,
    ranks: Vec<usize>,
    my_index: usize,
    /// Node-boundary summary of `ranks`, computed once at construction (the
    /// topology is immutable for the life of a run); drives the two-level
    /// cost model at every charging site.
    placement: GroupPlacement,
    seq: Cell<u64>,
    /// Sequence numbers of split-phase collectives begun but not yet
    /// completed, in begin order. `complete` must drain this FIFO from the
    /// front; anything else is a sequencing bug on this rank.
    outstanding: RefCell<VecDeque<u64>>,
}

impl CommGroup {
    /// Creates this rank's handle. `ranks` must contain `ctx.rank`.
    pub fn new(ctx: &RankCtx, tag: &str, ranks: Vec<usize>) -> Self {
        let my_index = ranks
            .iter()
            .position(|&r| r == ctx.rank)
            .unwrap_or_else(|| panic!("rank {} not a member of group '{tag}' {ranks:?}", ctx.rank));
        Self {
            id: group_id(tag, &ranks),
            placement: ctx.topology.placement(&ranks),
            ranks,
            my_index,
            seq: Cell::new(0),
            outstanding: RefCell::new(VecDeque::new()),
        }
    }

    /// How this group's members sit relative to node boundaries.
    pub fn placement(&self) -> GroupPlacement {
        self.placement
    }

    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    pub fn my_index(&self) -> usize {
        self.my_index
    }

    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Clones an owned value out of a shared collective result, recording
    /// the copy in both the run-wide comm stats and this rank's meter
    /// (shift makes one per member).
    fn clone_counted<P: Payload>(&self, ctx: &mut RankCtx, op: CollectiveOp, payload: &P) -> P {
        let bytes = payload.wire_size() as u64;
        ctx.stats().charge_copy(ctx.rank, op, bytes);
        ctx.meter.charge_payload_copy(bytes);
        if trace::is_active() {
            let vt = ctx.vt_now();
            trace::record(
                format!("copy:{}", op.name()),
                vt,
                vt,
                TraceKind::Copy { op: op.name(), bytes },
            );
        }
        payload.clone()
    }

    /// The one split-phase implementation under every collective.
    ///
    /// Begin half (runs now): flushes pending compute so the deposit
    /// timestamp is exact, publishes this member's contribution through
    /// `deposit`, and registers the sequence number as outstanding.
    /// Completion half (runs in [`PendingCollective::complete`], carrying
    /// the deposit's [`Ticket`]): enforces FIFO order, waits on the ticket
    /// until the group's `T` is published, charges the clock through
    /// [`CommGroup::finish_charge`], and hands `project` the published value
    /// to cut this member's result out of it.
    ///
    /// `root` is the member index a rooted op names; it is range-checked
    /// here, once, for all of them.
    fn split_phase<'g, T, R>(
        &'g self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        root: Option<usize>,
        deposit: impl FnOnce(&Fabric, (u64, u64), f64) -> Ticket,
        size: WireSize<R>,
        project: impl FnOnce(&mut RankCtx, Arc<T>) -> R + 'g,
    ) -> PendingCollective<'g, R>
    where
        T: Send + Sync + 'static,
        R: 'g,
    {
        if let Some(root) = root {
            assert!(
                root < self.size(),
                "{}: root {root} out of range for a group of {} members",
                op.name(),
                self.size()
            );
        }
        ctx.flush_compute();
        let seq = self.next_seq();
        let key = (self.id, seq);
        let deposit_vt = ctx.clock();
        let ticket = deposit(ctx.fabric(), key, deposit_vt);
        self.outstanding.borrow_mut().push_back(seq);
        let finish = move |ctx: &mut RankCtx| {
            self.pop_outstanding(op, seq);
            let span = CommScope::open(ctx, op, key, deposit_vt);
            ctx.flush_compute();
            let (max_vt, published) = ctx.fabric().wait::<T>(ticket);
            match size {
                WireSize::Known(bytes) => {
                    self.finish_charge(ctx, span, max_vt, bytes, false);
                    project(ctx, published)
                }
                WireSize::OfResult(wire_size) => {
                    let result = project(ctx, published);
                    self.finish_charge(ctx, span, max_vt, wire_size(&result), true);
                    result
                }
            }
        };
        PendingCollective { op, seq, finish: Some(Box::new(finish)) }
    }

    /// Non-reducing rendezvous: every member deposits an optional payload
    /// and `project` sees all deposits, in member order.
    fn begin_sync<'g, P, R>(
        &'g self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        root: Option<usize>,
        payload: Option<P>,
        size: WireSize<R>,
        project: impl FnOnce(&mut RankCtx, &[Option<P>]) -> R + 'g,
    ) -> PendingCollective<'g, R>
    where
        P: Send + Sync + 'static,
        R: 'g,
    {
        let (me, n) = (self.my_index, self.size());
        self.split_phase(
            ctx,
            op,
            root,
            move |fabric, key, vt| fabric.deposit(key, me, n, payload, vt),
            size,
            move |ctx, deposits: Arc<Vec<Option<P>>>| project(ctx, &deposits),
        )
    }

    /// Reducing rendezvous: every member's payload is deposited by value
    /// and folded in ascending member order exactly once (on the
    /// last-arriving rank, in place — no deposit is cloned); `project` sees
    /// the one shared `Arc` of the combined result.
    fn begin_reduce<'g, P: Payload, R: 'g>(
        &'g self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        root: Option<usize>,
        payload: P,
        project: impl FnOnce(Arc<P>) -> R + 'g,
    ) -> PendingCollective<'g, R> {
        let (me, n) = (self.my_index, self.size());
        // The wire size must be captured here — the fold consumes the payload.
        let size = WireSize::Known(payload.wire_size());
        self.split_phase(
            ctx,
            op,
            root,
            move |fabric, key, vt| {
                fabric.deposit_reduce(key, me, n, payload, vt, combine_parts_in_order)
            },
            size,
            move |_, combined: Arc<P>| project(combined),
        )
    }

    /// Enforces the FIFO completion discipline: `seq` must be the oldest
    /// outstanding begin on this group.
    fn pop_outstanding(&self, op: CollectiveOp, seq: u64) {
        let mut q = self.outstanding.borrow_mut();
        let front = *q.front().unwrap_or_else(|| {
            panic!("completing {} seq {seq} but no split-phase begin is outstanding", op.name())
        });
        assert_eq!(
            front,
            seq,
            "split-phase collective completed out of order: completing {} seq {seq} \
             but the oldest outstanding begin is seq {front}",
            op.name()
        );
        q.pop_front();
    }

    /// The one clock/cost/stat charging site of every collective. The
    /// serial exit time is `max(entry clocks) + α–β cost`, but the clock
    /// only advances by the *non-overlapped remainder*: whatever portion of
    /// the wait the caller's compute already covered is recorded as hidden
    /// time instead of being charged. A `deferred_size` op (broadcast:
    /// non-roots learn the size only from the rendezvous) is
    /// charged the zero-byte latency plus the size-dependent cost — the
    /// charging the calibrated tables were produced with — and only the
    /// size-dependent part reaches the stats.
    fn finish_charge(
        &self,
        ctx: &mut RankCtx,
        span: CommScope,
        max_vt: f64,
        bytes: usize,
        deferred_size: bool,
    ) {
        let (op, deposit_vt) = (span.op, span.begin);
        let cost_b = ctx.params.phased_collective_time(op, bytes, self.placement).total;
        let cost0 = if deferred_size {
            ctx.params.phased_collective_time(op, 0, self.placement).total
        } else {
            0.0
        };
        let target = max_vt + cost0 + cost_b;
        let hidden = (ctx.clock().min(target) - deposit_vt).max(0.0);
        if hidden > 0.0 {
            ctx.meter.charge_overlap_hidden(hidden);
            ctx.stats().charge_hidden(ctx.rank, op, hidden);
        } else if deferred_size {
            // Nothing overlapped the wait: book it as the two advances a
            // blocking broadcast has always made (rendezvous latency, then
            // the size-dependent transfer) so `comm_wait_nanos` keeps
            // rounding per part. Once compute has hidden some of the wait
            // there is a single remainder, booked below.
            ctx.advance_comm(max_vt + cost0);
        }
        ctx.advance_comm(target);
        let recorded = self.my_index == 0;
        let booked = if recorded {
            let wire = ctx.params.wire_bytes(op, self.size(), bytes);
            ctx.stats().record(ctx.rank, op, wire, cost_b);
            (wire, cost_b)
        } else {
            (0, 0.0)
        };
        span.finish(ctx, max_vt, cost0 + cost_b, hidden, booked, recorded);
    }

    /// Synchronizes all members without moving data.
    pub fn barrier(&self, ctx: &mut RankCtx) {
        self.begin_sync(ctx, CollectiveOp::Barrier, None, Some(()), WireSize::Known(0), |_, _| ())
            .complete(ctx)
    }

    /// Zero-copy broadcast: the root (by member index) deposits an `Arc` of
    /// its payload — without cloning its local block — and every member
    /// (root included) receives an `Arc` clone of that single allocation.
    /// The payload is materialized exactly once per rendezvous regardless
    /// of the group size. The deposit happens now; the returned handle
    /// blocks (and pays only the non-overlapped wait) at `complete`.
    pub fn broadcast_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        root: usize,
        payload: Option<Arc<P>>,
    ) -> PendingCollective<'g, Arc<P>> {
        assert_eq!(
            payload.is_some(),
            self.my_index == root,
            "broadcast: exactly the root must supply the payload"
        );
        self.begin_sync(
            ctx,
            CollectiveOp::Broadcast,
            Some(root),
            payload,
            WireSize::OfResult(|value: &Arc<P>| value.wire_size()),
            move |_, deposits| Arc::clone(deposits[root].as_ref().expect("root deposited")),
        )
    }

    /// Blocking [`CommGroup::broadcast_shared_begin`].
    pub fn broadcast_shared<P: Payload>(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        payload: Option<Arc<P>>,
    ) -> Arc<P> {
        self.broadcast_shared_begin(ctx, root, payload).complete(ctx)
    }

    /// In-place sum-reduction to `root`: every member's payload is consumed
    /// by value and folded without cloning (ascending member order); only
    /// the root receives the combined value (shared, not copied).
    pub fn reduce_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        root: usize,
        payload: P,
    ) -> PendingCollective<'g, Option<Arc<P>>> {
        let at_root = self.my_index == root;
        self.begin_reduce(ctx, CollectiveOp::Reduce, Some(root), payload, move |combined| {
            at_root.then_some(combined)
        })
    }

    /// Blocking [`CommGroup::reduce_shared_begin`].
    pub fn reduce_shared<P: Payload>(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        payload: P,
    ) -> Option<Arc<P>> {
        self.reduce_shared_begin(ctx, root, payload).complete(ctx)
    }

    /// In-place sum-reduction delivered to every member as one shared
    /// allocation: payloads are consumed by value, folded exactly once (in
    /// ascending member order), never cloned.
    pub fn all_reduce_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: P,
    ) -> PendingCollective<'g, Arc<P>> {
        self.begin_reduce(ctx, CollectiveOp::AllReduce, None, payload, |combined| combined)
    }

    /// Blocking [`CommGroup::all_reduce_shared_begin`].
    pub fn all_reduce_shared<P: Payload>(&self, ctx: &mut RankCtx, payload: P) -> Arc<P> {
        self.all_reduce_shared_begin(ctx, payload).complete(ctx)
    }

    /// Zero-copy all-gather: every member receives `Arc` clones of every
    /// member's deposit, in member order. Each payload is materialized once
    /// cluster-wide instead of once per receiver.
    pub fn all_gather_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: Arc<P>,
    ) -> PendingCollective<'g, Vec<Arc<P>>> {
        let size = WireSize::Known(payload.wire_size());
        self.begin_sync(ctx, CollectiveOp::AllGather, None, Some(payload), size, |_, deposits| {
            deposits.iter().map(|d| Arc::clone(d.as_ref().expect("all deposited"))).collect()
        })
    }

    /// Blocking [`CommGroup::all_gather_shared_begin`].
    pub fn all_gather_shared<P: Payload>(&self, ctx: &mut RankCtx, payload: Arc<P>) -> Vec<Arc<P>> {
        self.all_gather_shared_begin(ctx, payload).complete(ctx)
    }

    /// Cyclic shift: every member sends its payload `offset` positions
    /// forward (member order, wrapping) and receives from `offset` behind
    /// (one counted copy per member). `offset` may be negative. This is
    /// Cannon's primitive.
    pub fn shift<P: Payload>(&self, ctx: &mut RankCtx, offset: isize, payload: P) -> P {
        let size = WireSize::Known(payload.wire_size());
        let op = CollectiveOp::Shift;
        let src = (self.my_index as isize - offset).rem_euclid(self.size() as isize) as usize;
        self.begin_sync(ctx, op, None, Some(payload), size, |ctx, deposits| {
            self.clone_counted(ctx, op, deposits[src].as_ref().expect("all deposited"))
        })
        .complete(ctx)
    }

    /// Point-to-point send to another member (by member index).
    pub fn send<P: Payload>(&self, ctx: &mut RankCtx, dst: usize, tag: u64, payload: P) {
        assert!(dst < self.size() && dst != self.my_index, "send: bad destination");
        ctx.flush_compute();
        let bytes = payload.wire_size();
        let chan = (self.id, self.my_index, dst, tag);
        let send_vt = ctx.clock();
        let key = (self.id, chan_seq(self.my_index, dst, tag));
        let span = CommScope::open(ctx, CollectiveOp::SendRecv, key, send_vt);
        ctx.fabric().send(chan, payload, send_vt);
        let link = ctx.topology.link_between(self.ranks[self.my_index], self.ranks[dst]);
        let (alpha, _) = ctx.params.link_params(link);
        // The sender only pays injection latency; transfer time is charged
        // to the receiver (eager-send model).
        ctx.advance_comm(ctx.clock() + alpha);
        let wire = ctx.params.wire_bytes(CollectiveOp::SendRecv, 2, bytes);
        ctx.stats().record(ctx.rank, CollectiveOp::SendRecv, wire, 0.0);
        span.finish(ctx, send_vt, alpha, 0.0, (wire, 0.0), true);
    }

    /// Point-to-point receive from another member (by member index).
    pub fn recv<P: Payload>(&self, ctx: &mut RankCtx, src: usize, tag: u64) -> P {
        assert!(src < self.size() && src != self.my_index, "recv: bad source");
        ctx.flush_compute();
        let chan = (self.id, src, self.my_index, tag);
        let key = (self.id, chan_seq(src, self.my_index, tag));
        let span = CommScope::open(ctx, CollectiveOp::SendRecv, key, ctx.clock());
        let (send_vt, payload): (f64, P) = ctx.fabric().recv(chan);
        let link = ctx.topology.link_between(self.ranks[src], self.ranks[self.my_index]);
        let cost = ctx.params.collective_time(CollectiveOp::SendRecv, 2, payload.wire_size(), link);
        let ready = send_vt.max(ctx.clock());
        ctx.advance_comm(ready + cost);
        // The sender booked the call and its wire bytes; the transfer
        // seconds are charged here, so they are booked here.
        ctx.stats().charge_time(ctx.rank, CollectiveOp::SendRecv, cost);
        // The recv's cross-rank dependency is the sender's injection time:
        // it is the span's "slowest entry", so the critical path hops there.
        span.finish(ctx, send_vt, cost, 0.0, (0, cost), false);
        payload
    }
}

/// A split-phase collective whose payload is already deposited in the
/// fabric. Obtained from the `*_begin` methods on [`CommGroup`]; the result
/// (and all clock/cost accounting) is produced by
/// [`PendingCollective::complete`].
///
/// Handles on one group must be completed in begin order; completing out of
/// order panics. Dropping a handle without completing it also panics — a
/// forgotten `complete` would silently desynchronize the group's SPMD
/// schedule and wedge peers at the rendezvous timeout instead.
pub struct PendingCollective<'g, R> {
    op: CollectiveOp,
    seq: u64,
    finish: Option<Box<dyn FnOnce(&mut RankCtx) -> R + 'g>>,
}

impl<'g, R> PendingCollective<'g, R> {
    /// Blocks until the rendezvous is full, charges the non-overlapped
    /// remainder of the wait to the virtual clock, and returns the result.
    pub fn complete(mut self, ctx: &mut RankCtx) -> R {
        let finish = self.finish.take().expect("finish closure present until complete");
        finish(ctx)
    }
}

impl<R> Drop for PendingCollective<'_, R> {
    fn drop(&mut self) {
        if self.finish.is_some() && !std::thread::panicking() {
            panic!("split-phase {} (seq {}) dropped without complete()", self.op.name(), self.seq);
        }
    }
}

/// Folds deposits in ascending member order (deterministic reduction),
/// consuming them: member 0's buffer becomes the accumulator in place, so
/// an n-way reduction performs zero payload copies.
fn combine_parts_in_order<P: Payload>(parts: Vec<P>) -> P {
    let mut iter = parts.into_iter();
    let mut acc = iter.next().expect("non-empty group");
    for d in iter {
        acc.combine(&d);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_ids_differ_by_ranks_and_tag() {
        let a = group_id("row", &[0, 1]);
        let b = group_id("row", &[2, 3]);
        let c = group_id("col", &[0, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, group_id("row", &[0, 1]));
    }

    #[test]
    fn arc_payload_delegates_size_and_combines_copy_on_write() {
        use tesseract_tensor::{DenseTensor, Matrix};
        let base = Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)));
        assert_eq!(base.wire_size(), 16);
        // A uniquely-owned accumulator combines in place…
        let mut unique = Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 2.0)));
        let ptr_before = Arc::as_ptr(&unique);
        unique.combine(&base);
        assert_eq!(Arc::as_ptr(&unique), ptr_before, "unique Arc must not reallocate");
        assert_eq!(unique.matrix().data(), &[3.0; 4]);
        // …while a shared one copies-on-write, leaving other holders intact.
        let mut shared = Arc::clone(&base);
        shared.combine(&base);
        assert_eq!(shared.matrix().data(), &[2.0; 4]);
        assert_eq!(base.matrix().data(), &[1.0; 4], "original holder must be untouched");
    }

    #[test]
    fn combine_parts_in_order_is_left_fold_over_member_order() {
        use tesseract_tensor::{DenseTensor, Matrix};
        let parts: Vec<DenseTensor> =
            (0..4).map(|i| DenseTensor::from_matrix(Matrix::full(1, 2, i as f32))).collect();
        let acc = combine_parts_in_order(parts);
        assert_eq!(acc.matrix().data(), &[6.0, 6.0]);
    }

    #[test]
    fn vec_payload_sizes_and_combines() {
        use tesseract_tensor::{DenseTensor, Matrix};
        let a = vec![
            DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)),
            DenseTensor::from_matrix(Matrix::full(1, 2, 2.0)),
        ];
        assert_eq!(a.wire_size(), (4 + 2) * 4);
        let mut acc = a.clone();
        acc.combine(&a);
        assert_eq!(acc[0].matrix().data(), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(acc[1].matrix().data(), &[4.0, 4.0]);
    }
}
