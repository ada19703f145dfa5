//! Aggregated communication statistics for a cluster run.
//!
//! The experiment harness uses these to report exact message counts and
//! wire volumes per scheme (the paper's §3.1 transmission-count claims) and
//! the per-rank communication time that feeds the Table 1/2 rows.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use crate::cost::CollectiveOp;

/// Totals for one collective op type.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpStats {
    /// Number of collective invocations (one per group call, not per rank).
    pub calls: u64,
    /// Total logical bytes moved on the wire across all calls.
    pub wire_bytes: u64,
    /// Total simulated seconds spent (per call, not multiplied by ranks;
    /// for `SendRecv`, the transfer the receiver is charged).
    pub time: f64,
    /// Simulated seconds of this op's wait that split-phase overlap hid
    /// under compute, summed over *all* ranks (each rank hides a different
    /// amount depending on how much compute it had in flight). Zero on the
    /// blocking path. Informational: `time` still records the full op cost.
    pub hidden_time: f64,
}

/// Shared, thread-safe statistics collector for one cluster run.
///
/// Each rank adds into its own partial, in its own program order, and
/// [`StatsCollector::snapshot`] folds the partials in rank order — so the
/// `f64` totals do not depend on which rank thread the host ran first.
#[derive(Debug)]
pub struct StatsCollector {
    per_rank: Vec<Mutex<HashMap<CollectiveOp, OpStats>>>,
}

impl StatsCollector {
    pub fn new(world: usize) -> Self {
        Self { per_rank: (0..world).map(|_| Mutex::default()).collect() }
    }

    fn update(&self, rank: usize, op: CollectiveOp, f: impl FnOnce(&mut OpStats)) {
        let mut partial = self.per_rank[rank].lock().unwrap_or_else(PoisonError::into_inner);
        f(partial.entry(op).or_default());
    }

    /// Records one completed collective. Called exactly once per collective
    /// (by the group's first member, `rank`), so counts are per logical
    /// operation.
    pub fn record(&self, rank: usize, op: CollectiveOp, wire_bytes: u64, time: f64) {
        self.update(rank, op, |entry| {
            entry.calls += 1;
            entry.wire_bytes += wire_bytes;
            entry.time += time;
        });
    }

    /// Adds `seconds` to `op` without counting a call: the receiving half
    /// of a point-to-point pair, whose sender booked the call and the bytes.
    pub fn charge_time(&self, rank: usize, op: CollectiveOp, seconds: f64) {
        self.update(rank, op, |entry| entry.time += seconds);
    }

    /// Charges `seconds` of `op` wait hidden under compute by `rank`'s
    /// split-phase `begin`/`complete` pair. Called by every rank that hides
    /// wait, so totals are summed over *all* ranks.
    pub fn charge_hidden(&self, rank: usize, op: CollectiveOp, seconds: f64) {
        self.update(rank, op, |entry| entry.hidden_time += seconds);
    }

    /// Snapshot of all op totals: the per-rank partials folded in rank
    /// order.
    pub fn snapshot(&self) -> CommStats {
        let mut per_op: HashMap<CollectiveOp, OpStats> = HashMap::new();
        for partial in &self.per_rank {
            for (&op, s) in partial.lock().unwrap_or_else(PoisonError::into_inner).iter() {
                let total = per_op.entry(op).or_default();
                total.calls += s.calls;
                total.wire_bytes += s.wire_bytes;
                total.time += s.time;
                total.hidden_time += s.hidden_time;
            }
        }
        CommStats { per_op }
    }
}

/// Immutable snapshot of the collector, returned from a cluster run.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    pub per_op: HashMap<CollectiveOp, OpStats>,
}

impl CommStats {
    pub fn get(&self, op: CollectiveOp) -> OpStats {
        self.per_op.get(&op).copied().unwrap_or_default()
    }

    /// Total wire bytes across all collective types.
    pub fn total_wire_bytes(&self) -> u64 {
        self.per_op.values().map(|s| s.wire_bytes).sum()
    }

    /// Total collective invocations across all types.
    pub fn total_calls(&self) -> u64 {
        self.per_op.values().map(|s| s.calls).sum()
    }

    /// Always `0`: every collective hands members the depositor's
    /// allocation, so no payload is ever copied. Kept solely because the
    /// frozen `benchmark/src/reports.rs:45` reads it; ROADMAP item 1(d)
    /// deletes it.
    pub fn total_copies(&self) -> u64 {
        0
    }

    /// Total simulated seconds of collective wait hidden under compute by
    /// split-phase overlap, summed over all ops and all ranks.
    pub fn total_hidden_time(&self) -> f64 {
        // In `ALL` order: a map's iteration order differs between runs, and
        // an `f64` sum moves in its last bit with it.
        CollectiveOp::ALL.iter().map(|&op| self.get(op).hidden_time).sum()
    }

    /// Renders a small human-readable table (used by examples and bins).
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "collective    calls      wire bytes        sim time (s)      hidden (s)\n",
        );
        let mut ops: Vec<_> = self.per_op.iter().collect();
        ops.sort_by_key(|(op, _)| op.name());
        for (op, s) in ops {
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
    use std::sync::Condvar;

    #[test]
    fn record_and_snapshot() {
        let c = StatsCollector::new(2);
        c.record(0, CollectiveOp::AllReduce, 100, 0.5);
        c.record(1, CollectiveOp::AllReduce, 50, 0.25);
        c.record(0, CollectiveOp::Broadcast, 10, 0.1);
        let s = c.snapshot();
        assert_eq!(s.get(CollectiveOp::AllReduce).calls, 2);
        assert_eq!(s.get(CollectiveOp::AllReduce).wire_bytes, 150);
        assert_eq!(s.total_wire_bytes(), 160);
        assert_eq!(s.total_calls(), 3);
    }

    #[test]
    fn missing_op_reads_zero() {
        let s = StatsCollector::new(1).snapshot();
        assert_eq!(s.get(CollectiveOp::Shift), OpStats::default());
    }

    #[test]
    fn hidden_time_accumulates_per_op() {
        let c = StatsCollector::new(2);
        c.record(0, CollectiveOp::Broadcast, 100, 0.5);
        c.charge_hidden(0, CollectiveOp::Broadcast, 0.125);
        c.charge_hidden(1, CollectiveOp::Broadcast, 0.25);
        c.charge_hidden(1, CollectiveOp::AllReduce, 0.5);
        let s = c.snapshot();
        assert_eq!(s.get(CollectiveOp::Broadcast).hidden_time, 0.375);
        // Hidden time never inflates the logical call/time accounting.
        assert_eq!(s.get(CollectiveOp::Broadcast).calls, 1);
        assert_eq!(s.get(CollectiveOp::Broadcast).time, 0.5);
        assert_eq!(s.get(CollectiveOp::AllReduce).calls, 0);
        assert_eq!(s.total_hidden_time(), 0.875);
    }

    /// Three rank threads each record one value of a multiset whose `f64`
    /// sum depends on the order of addition, released one at a time in
    /// `arrival` order.
    fn snapshot_after(arrival: [usize; 3]) -> OpStats {
        const SECONDS: [f64; 3] = [1e16, 1.0, -1e16];
        let c = StatsCollector::new(3);
        let turn = (Mutex::new(0usize), Condvar::new());
        std::thread::scope(|s| {
            for (pos, rank) in arrival.into_iter().enumerate() {
                let (c, turn) = (&c, &turn);
                s.spawn(move || {
                    let mut now = turn.1.wait_while(turn.0.lock().unwrap(), |t| *t != pos).unwrap();
                    c.record(rank, CollectiveOp::AllReduce, 8, SECONDS[rank]);
                    c.charge_hidden(rank, CollectiveOp::AllReduce, SECONDS[rank]);
                    *now += 1;
                    turn.1.notify_all();
                });
            }
        });
        c.snapshot().get(CollectiveOp::AllReduce)
    }

    #[test]
    fn totals_do_not_depend_on_rank_arrival_order() {
        // Added in arrival order these two schedules give 0.0 and 1.0.
        let (a, b) = (snapshot_after([0, 1, 2]), snapshot_after([0, 2, 1]));
        assert_eq!(a.calls, 3);
        assert_eq!(a.time.to_bits(), b.time.to_bits(), "{} vs {}", a.time, b.time);
        assert_eq!(a.hidden_time.to_bits(), b.hidden_time.to_bits());
    }

    #[test]
    fn render_table_contains_ops() {
        let c = StatsCollector::new(1);
        c.record(0, CollectiveOp::AllGather, 7, 0.0);
        let table = c.snapshot().render_table();
        assert!(table.contains("all_gather"));
        assert!(table.contains('7'));
    }
}
