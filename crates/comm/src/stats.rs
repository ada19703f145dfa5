//! Per-rank communication ledger.
//!
//! Each rank's [`CommStats`] holds the calls and wire bytes of the
//! collectives it led and the simulated seconds it was charged for them,
//! plus, per op, the wait its own clock paid and the wait it hid under
//! compute. Those two are booked in integer nanoseconds by `to_nanos`,
//! the one place a charge is rounded, so a rank's
//! [`crate::RankReport::comm_wait_nanos`] and
//! [`crate::RankReport::overlap_hidden_nanos`] are exact sums over its
//! ops. [`crate::RunConfig::run`] folds the ledgers
//! in rank order into the run's totals, so they do not depend on how the
//! host scheduled the rank threads. The experiment harness uses those
//! totals to report exact message counts and wire volumes per scheme (the
//! paper's §3.1 transmission-count claims) and the communication time that
//! feeds the Table 1/2 rows.

use crate::cost::CollectiveOp;

/// Totals for one collective op type.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    /// Collectives of this op the ledger's rank led: one per group call,
    /// booked by its first member (of a point-to-point pair, the sender).
    pub calls: u64,
    /// Total logical bytes moved on the wire across all calls.
    pub wire_bytes: u64,
    /// Total simulated seconds charged (per call, not multiplied by ranks;
    /// for `SendRecv`, the transfer the receiver is charged).
    pub time: f64,
    /// Simulated seconds of this op's wait that split-phase overlap hid
    /// under compute (each rank hides a different amount depending on how
    /// much compute it had in flight). Zero on the blocking path.
    /// Informational: `time` still records the full op cost.
    pub hidden_time: f64,
    /// Simulated nanoseconds this rank's clock spent blocked in this op,
    /// each charge rounded once by `to_nanos`. Booked by every member
    /// that waited, not only the one that booked the call.
    pub blocked_nanos: u64,
    /// `hidden_time` in integer nanoseconds, each charge rounded once.
    pub hidden_nanos: u64,
}

impl OpStats {
    pub(crate) fn merge(&mut self, other: &OpStats) {
        self.calls += other.calls;
        self.wire_bytes += other.wire_bytes;
        self.time += other.time;
        self.hidden_time += other.hidden_time;
        self.blocked_nanos += other.blocked_nanos;
        self.hidden_nanos += other.hidden_nanos;
    }
}

/// Converts simulated seconds into the integer nanoseconds the wait
/// counters book. Rounding (not truncation) keeps the conversion stable
/// against the ±1 ulp wobble of f64 cost arithmetic.
pub(crate) fn to_nanos(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// One rank's collective ledger, or the rank-order fold of a run's.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Indexed by `op as usize`: the [`CollectiveOp::ALL`] order.
    pub per_op: [OpStats; CollectiveOp::ALL.len()],
}

impl CommStats {
    /// Books one collective this rank led: its call, its wire bytes and
    /// the size-dependent seconds it was charged.
    pub(crate) fn record(&mut self, op: CollectiveOp, wire_bytes: u64, time: f64) {
        let entry = &mut self.per_op[op as usize];
        entry.calls += 1;
        entry.wire_bytes += wire_bytes;
        entry.time += time;
    }

    /// Adds `seconds` to `op` without counting a call: the receiving half
    /// of a point-to-point pair, whose sender booked the call and the bytes.
    pub(crate) fn charge_time(&mut self, op: CollectiveOp, seconds: f64) {
        self.per_op[op as usize].time += seconds;
    }

    /// Charges `seconds` this rank's clock spent blocked in `op`; returns
    /// the nanoseconds booked.
    pub(crate) fn charge_blocked(&mut self, op: CollectiveOp, seconds: f64) -> u64 {
        let nanos = to_nanos(seconds);
        self.per_op[op as usize].blocked_nanos += nanos;
        nanos
    }

    /// Charges `seconds` of `op` wait hidden under compute by a split-phase
    /// `begin`/`complete` pair; returns the nanoseconds booked.
    pub(crate) fn charge_hidden(&mut self, op: CollectiveOp, seconds: f64) -> u64 {
        let nanos = to_nanos(seconds);
        let entry = &mut self.per_op[op as usize];
        entry.hidden_time += seconds;
        entry.hidden_nanos += nanos;
        nanos
    }

    /// Adds `other`'s ledger into this one, op by op.
    pub(crate) fn merge(&mut self, other: &CommStats) {
        for (total, s) in self.per_op.iter_mut().zip(&other.per_op) {
            total.merge(s);
        }
    }

    pub fn get(&self, op: CollectiveOp) -> OpStats {
        self.per_op[op as usize]
    }

    /// Total wire bytes across all collective types.
    pub fn total_wire_bytes(&self) -> u64 {
        self.per_op.iter().map(|s| s.wire_bytes).sum()
    }

    /// Total collective invocations across all types.
    pub fn total_calls(&self) -> u64 {
        self.per_op.iter().map(|s| s.calls).sum()
    }

    /// Always `0`: every collective hands members the depositor's
    /// allocation, so no payload is ever copied. Kept solely because the
    /// frozen `benchmark/src/reports.rs:45` reads it; ROADMAP item 1(d)
    /// deletes it.
    pub fn total_copies(&self) -> u64 {
        0
    }

    /// Total simulated seconds of collective wait hidden under compute by
    /// split-phase overlap, summed over all ops.
    pub fn total_hidden_time(&self) -> f64 {
        self.per_op.iter().map(|s| s.hidden_time).sum()
    }

    /// Renders a small human-readable table of the ops with calls, sorted
    /// by name (used by examples and bins).
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "collective    calls      wire bytes        sim time (s)      hidden (s)\n",
        );
        let mut ops: Vec<_> =
            CollectiveOp::ALL.iter().filter(|&&op| self.get(op).calls > 0).collect();
        ops.sort_by_key(|op| op.name());
        for op in ops {
            let s = self.get(*op);
            out.push_str(&format!(
                "{:<12} {:>6} {:>15} {:>19.6} {:>15.6}\n",
                op.name(),
                s.calls,
                s.wire_bytes,
                s.time,
                s.hidden_time
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let (mut a, mut b) = (CommStats::default(), CommStats::default());
        a.record(CollectiveOp::AllReduce, 100, 0.5);
        b.record(CollectiveOp::AllReduce, 50, 0.25);
        a.record(CollectiveOp::Broadcast, 10, 0.1);
        a.merge(&b);
        assert_eq!(a.get(CollectiveOp::AllReduce).calls, 2);
        assert_eq!(a.get(CollectiveOp::AllReduce).wire_bytes, 150);
        assert_eq!(a.get(CollectiveOp::AllReduce).time, 0.75);
        assert_eq!(a.total_wire_bytes(), 160);
        assert_eq!(a.total_calls(), 3);
    }

    #[test]
    fn per_op_is_indexed_in_all_order() {
        for (i, op) in CollectiveOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{}", op.name());
        }
    }

    #[test]
    fn missing_op_reads_zero() {
        assert_eq!(CommStats::default().get(CollectiveOp::Shift), OpStats::default());
    }

    #[test]
    fn hidden_time_accumulates_per_op() {
        let (mut a, mut b) = (CommStats::default(), CommStats::default());
        a.record(CollectiveOp::Broadcast, 100, 0.5);
        a.charge_hidden(CollectiveOp::Broadcast, 0.125);
        b.charge_hidden(CollectiveOp::Broadcast, 0.25);
        b.charge_hidden(CollectiveOp::AllReduce, 0.5);
        a.merge(&b);
        assert_eq!(a.get(CollectiveOp::Broadcast).hidden_time, 0.375);
        // Hidden time never inflates the logical call/time accounting.
        assert_eq!(a.get(CollectiveOp::Broadcast).calls, 1);
        assert_eq!(a.get(CollectiveOp::Broadcast).time, 0.5);
        assert_eq!(a.get(CollectiveOp::AllReduce).calls, 0);
        assert_eq!(a.total_hidden_time(), 0.875);
    }

    #[test]
    fn charge_time_adds_seconds_without_a_call() {
        let mut s = CommStats::default();
        s.record(CollectiveOp::SendRecv, 4, 0.0);
        s.charge_time(CollectiveOp::SendRecv, 0.5);
        assert_eq!(
            s.get(CollectiveOp::SendRecv),
            OpStats { calls: 1, wire_bytes: 4, time: 0.5, ..OpStats::default() }
        );
    }

    #[test]
    fn comm_wait_and_hidden_nanos_accumulate_and_merge() {
        let (mut a, mut b) = (CommStats::default(), CommStats::default());
        assert_eq!(a.charge_blocked(CollectiveOp::Broadcast, 1.5e-6), 1500);
        a.charge_blocked(CollectiveOp::Broadcast, 0.5e-6);
        a.charge_blocked(CollectiveOp::Reduce, 1e-9);
        assert_eq!(a.charge_hidden(CollectiveOp::Broadcast, 0.25e-6), 250);
        b.charge_blocked(CollectiveOp::Broadcast, 1e-9);
        b.charge_hidden(CollectiveOp::AllReduce, 2e-9);
        a.merge(&b);
        let nanos = |op| (a.get(op).blocked_nanos, a.get(op).hidden_nanos);
        assert_eq!(nanos(CollectiveOp::Broadcast), (2001, 250));
        assert_eq!(nanos(CollectiveOp::Reduce), (1, 0));
        assert_eq!(nanos(CollectiveOp::AllReduce), (0, 2));
        // Wait is not a call: the led-call accounting is untouched.
        assert_eq!((a.total_calls(), a.total_wire_bytes()), (0, 0));
        assert_eq!(a.get(CollectiveOp::Broadcast).time, 0.0);
    }

    #[test]
    fn nanos_conversion_rounds_instead_of_truncating() {
        let mut s = CommStats::default();
        // 0.1 µs is not exactly representable; rounding keeps it at 100 ns.
        assert_eq!(s.charge_blocked(CollectiveOp::Barrier, 1e-7), 100);
        assert_eq!(s.charge_hidden(CollectiveOp::Barrier, 1e-7), 100);
    }

    #[test]
    fn render_table_lists_ops_with_calls() {
        let mut s = CommStats::default();
        s.record(CollectiveOp::AllGather, 7, 0.0);
        s.charge_hidden(CollectiveOp::Barrier, 0.5);
        let table = s.render_table();
        assert!(table.contains("all_gather"));
        assert!(table.contains('7'));
        assert!(!table.contains("barrier"), "an op nobody called is not listed");
    }
}
