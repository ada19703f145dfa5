//! Process groups and collectives.
//!
//! A [`CommGroup`] is one rank's handle onto a subset of ranks (a grid row,
//! column or depth fiber). Collectives mirror the NCCL/MPI operations the
//! paper's implementation uses: broadcast, reduce, all-reduce, all-gather,
//! cyclic shift (Cannon), barrier and point-to-point send/recv. Reductions
//! combine deposits in ascending member order, so results are bitwise
//! deterministic run-to-run. Every op, point-to-point included, is one
//! rendezvous under the group's next `(group id, seq)` key.
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
//! wait, booked as the op's [`crate::stats::OpStats::blocked_nanos`]; the
//! hidden portion is booked as its [`crate::stats::OpStats::hidden_time`]
//! and `hidden_nanos` instead. Every member books its own wait in its own
//! ledger.
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
//! member). [`CommGroup::shift`] hands each member an `Arc` clone of its
//! source's deposit, so no collective deep-copies a payload.
//!
//! Ownership rule: an `Arc` returned from a collective may be read freely
//! but must never be mutated through `Arc::get_mut` — other ranks (or the
//! fabric slot, transiently) may hold clones. Use `Arc::make_mut` for
//! copy-on-write or clone explicitly.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use tesseract_tensor::{trace, Payload, TraceKind};

use crate::cost::CollectiveOp;
use crate::ctx::RankCtx;
use crate::fabric::{Fabric, Ticket};
use crate::topology::{GroupPlacement, Link};

/// One in-flight communication op: what it is, where its span starts, and
/// the wait its charging site has booked so far. The charging site
/// advances the clock through [`CommScope::advance`], hands
/// [`CommScope::finish`] the rest of what it booked, and one
/// [`TraceKind::Comm`] span is emitted. When tracing is inactive `finish`
/// is a no-op; the scope never feeds back into any charge, so traced and
/// untraced runs are bitwise identical.
struct CommScope {
    op: CollectiveOp,
    key: (u64, u64),
    /// Span start: the deposit timestamp.
    begin: f64,
    /// Nanoseconds [`CommScope::advance`] booked as this op's wait.
    blocked_nanos: u64,
}

impl CommScope {
    fn open(op: CollectiveOp, key: (u64, u64), begin: f64) -> Self {
        Self { op, key, begin, blocked_nanos: 0 }
    }

    /// Advances the clock to `until`, booking the wait against this op.
    fn advance(&mut self, ctx: &mut RankCtx, until: f64) {
        self.blocked_nanos += ctx.advance_comm(self.op, until);
    }

    /// Emits the span, ending at the rank's current (charged) clock.
    /// `max_entry_vt` is the slowest entry the op synchronized to, `cost`
    /// the α–β cost charged, `(hidden_nanos, hidden_time)` the overlap
    /// booked in the rank's ledger (`RankCtx::comm`), `(wire_bytes,
    /// stats_time)` what this rank added to that ledger, and `recorded`
    /// whether it also booked the op's call there (one member per
    /// collective; of a point-to-point pair the sender, the receiver adding
    /// only its transfer seconds).
    fn finish(
        self,
        ctx: &RankCtx,
        max_entry_vt: f64,
        cost: f64,
        (hidden_nanos, hidden_time): (u64, f64),
        (wire_bytes, stats_time): (u64, f64),
        recorded: bool,
    ) {
        if !trace::is_active() {
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
                blocked_nanos: self.blocked_nanos,
                hidden_nanos,
                hidden_time,
                wire_bytes,
                stats_time,
                recorded,
            },
        );
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
            let span = CommScope::open(op, key, deposit_vt);
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
    /// size-dependent part reaches the rank's ledger.
    fn finish_charge(
        &self,
        ctx: &mut RankCtx,
        mut span: CommScope,
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
        let mut hidden_nanos = 0;
        if hidden > 0.0 {
            hidden_nanos = ctx.comm.charge_hidden(op, hidden);
        } else if deferred_size {
            // Nothing overlapped the wait: book it as the two advances a
            // blocking broadcast has always made (rendezvous latency, then
            // the size-dependent transfer) so `blocked_nanos` keeps
            // rounding per part. Once compute has hidden some of the wait
            // there is a single remainder, booked below.
            span.advance(ctx, max_vt + cost0);
        }
        span.advance(ctx, target);
        let recorded = self.my_index == 0;
        let booked = if recorded {
            let wire = ctx.params.wire_bytes(op, self.size(), bytes);
            ctx.comm.record(op, wire, cost_b);
            (wire, cost_b)
        } else {
            (0, 0.0)
        };
        span.finish(ctx, max_vt, cost0 + cost_b, (hidden_nanos, hidden), booked, recorded);
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

    /// Zero-copy cyclic shift: every member sends its payload `offset`
    /// positions forward (member order, wrapping) and receives an `Arc`
    /// clone of the deposit `offset` behind. `offset` may be negative. This
    /// is Cannon's primitive.
    pub fn shift<P: Payload>(&self, ctx: &mut RankCtx, offset: isize, payload: Arc<P>) -> Arc<P> {
        let size = WireSize::Known(payload.wire_size());
        let src = (self.my_index as isize - offset).rem_euclid(self.size() as isize) as usize;
        self.begin_sync(ctx, CollectiveOp::Shift, None, Some(payload), size, move |_, deposits| {
            Arc::clone(deposits[src].as_ref().expect("all deposited"))
        })
        .complete(ctx)
    }

    /// The other member of a two-member group, and the link to it.
    fn peer(&self, ctx: &RankCtx, op: &str) -> (usize, Link) {
        assert_eq!(self.size(), 2, "{op} needs a two-member group, not one of {}", self.size());
        let peer = 1 - self.my_index;
        (peer, ctx.topology.link_between(self.ranks[self.my_index], self.ranks[peer]))
    }

    /// Eager point-to-point send to the other member of this two-member
    /// group: deposits `payload` under the group's next sequence number and
    /// never waits. The sender pays only injection latency; the transfer
    /// time is charged to the receiver.
    pub fn send<P: Payload>(&self, ctx: &mut RankCtx, payload: P) {
        let (_, link) = self.peer(ctx, "send");
        ctx.flush_compute();
        let bytes = payload.wire_size();
        let send_vt = ctx.clock();
        let key = (self.id, self.next_seq());
        let mut span = CommScope::open(CollectiveOp::SendRecv, key, send_vt);
        drop(ctx.fabric().deposit(key, self.my_index, 2, Some(payload), send_vt));
        let (alpha, _) = ctx.params.link_params(link);
        span.advance(ctx, send_vt + alpha);
        let wire = ctx.params.wire_bytes(CollectiveOp::SendRecv, 2, bytes);
        ctx.comm.record(CollectiveOp::SendRecv, wire, 0.0);
        span.finish(ctx, send_vt, alpha, (0, 0.0), (wire, 0.0), true);
    }

    /// Point-to-point receive from the other member of this two-member
    /// group: deposits nothing (the fabric's entry time is the sender's),
    /// waits, and takes the payload — an `Arc` payload is shared, not
    /// copied. The transfer starts at the later of the send and this
    /// rank's entry.
    pub fn recv<P: Payload>(&self, ctx: &mut RankCtx) -> P {
        let (peer, link) = self.peer(ctx, "recv");
        ctx.flush_compute();
        let key = (self.id, self.next_seq());
        let entry_vt = ctx.clock();
        let mut span = CommScope::open(CollectiveOp::SendRecv, key, entry_vt);
        let ticket = ctx.fabric().deposit(key, self.my_index, 2, None::<P>, f64::NEG_INFINITY);
        let (send_vt, deposits) = ctx.fabric().wait::<Vec<Option<P>>>(ticket);
        let payload = deposits[peer].clone().unwrap_or_else(|| {
            panic!("recv at rendezvous {key:?}: the peer received too instead of sending")
        });
        let cost = ctx.params.collective_time(CollectiveOp::SendRecv, 2, payload.wire_size(), link);
        let start_vt = send_vt.max(entry_vt);
        span.advance(ctx, start_vt + cost);
        // The sender booked the call and its wire bytes; the transfer
        // seconds are charged here, so they are booked here.
        ctx.comm.charge_time(CollectiveOp::SendRecv, cost);
        // The span's slowest entry is whichever side entered last, so that
        // its exit is `max_entry_vt + cost`: the critical path hops to the
        // sender only when the send was the later entry, and otherwise stays
        // on this rank's own work before the recv.
        span.finish(ctx, start_vt, cost, (0, 0.0), (0, cost), false);
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
    finish: Option<Finish<'g, R>>,
}

/// The deferred half of a split-phase collective: wait, charge, project.
type Finish<'g, R> = Box<dyn FnOnce(&mut RankCtx) -> R + 'g>;

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
}
