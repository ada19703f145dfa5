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
    /// Total simulated seconds spent (per call, not multiplied by ranks).
    pub time: f64,
    /// Host-side deep copies of payloads made on behalf of this op, summed
    /// over *all* ranks (unlike `calls`/`wire_bytes`, which count each
    /// logical operation once): every receiver-side clone is a real memcpy
    /// and each one is recorded where it happens.
    pub copies: u64,
    /// Bytes duplicated by those copies.
    pub copy_bytes: u64,
    /// Simulated seconds of this op's wait that split-phase overlap hid
    /// under compute, summed over *all* ranks (each rank hides a different
    /// amount depending on how much compute it had in flight). Zero on the
    /// blocking path. Informational: `time` still records the full op cost.
    pub hidden_time: f64,
}

/// Shared, thread-safe statistics collector for one cluster run.
#[derive(Debug, Default)]
pub struct StatsCollector {
    inner: Mutex<HashMap<CollectiveOp, OpStats>>,
}

impl StatsCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed collective. Called exactly once per collective
    /// (by the last-arriving rank), so counts are per logical operation.
    pub fn record(&self, op: CollectiveOp, wire_bytes: u64, time: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = inner.entry(op).or_default();
        entry.calls += 1;
        entry.wire_bytes += wire_bytes;
        entry.time += time;
    }

    /// Charges one host-side payload copy of `bytes` bytes made on behalf
    /// of `op`. Called by every rank that clones (the receiver
    /// materializations of `gather` / `scatter` / `shift`), so the totals
    /// measure real memcpy traffic across the whole cluster.
    pub fn charge_copy(&self, op: CollectiveOp, bytes: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = inner.entry(op).or_default();
        entry.copies += 1;
        entry.copy_bytes += bytes;
    }

    /// Charges `seconds` of `op` wait hidden under compute by one rank's
    /// split-phase `begin`/`complete` pair. Like `charge_copy`, called by
    /// every rank that hides wait, so totals are cluster-wide.
    pub fn charge_hidden(&self, op: CollectiveOp, seconds: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entry(op).or_default().hidden_time += seconds;
    }

    /// Snapshot of all op totals.
    pub fn snapshot(&self) -> CommStats {
        CommStats { per_op: self.inner.lock().unwrap_or_else(PoisonError::into_inner).clone() }
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

    /// Total host-side payload copies across all collective types.
    pub fn total_copies(&self) -> u64 {
        self.per_op.values().map(|s| s.copies).sum()
    }

    /// Total bytes duplicated by host-side payload copies.
    pub fn total_copy_bytes(&self) -> u64 {
        self.per_op.values().map(|s| s.copy_bytes).sum()
    }

    /// Total simulated seconds of collective wait hidden under compute by
    /// split-phase overlap, summed over all ops and all ranks.
    pub fn total_hidden_time(&self) -> f64 {
        self.per_op.values().map(|s| s.hidden_time).sum()
    }

    /// Renders a small human-readable table (used by examples and bins).
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "collective    calls      wire bytes        sim time (s)  copies      copy bytes      hidden (s)\n",
        );
        let mut ops: Vec<_> = self.per_op.iter().collect();
        ops.sort_by_key(|(op, _)| op.name());
        for (op, s) in ops {
            out.push_str(&format!(
                "{:<12} {:>6} {:>15} {:>19.6} {:>7} {:>15} {:>15.6}\n",
                op.name(),
                s.calls,
                s.wire_bytes,
                s.time,
                s.copies,
                s.copy_bytes,
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
    fn record_and_snapshot() {
        let c = StatsCollector::new();
        c.record(CollectiveOp::AllReduce, 100, 0.5);
        c.record(CollectiveOp::AllReduce, 50, 0.25);
        c.record(CollectiveOp::Broadcast, 10, 0.1);
        let s = c.snapshot();
        assert_eq!(s.get(CollectiveOp::AllReduce).calls, 2);
        assert_eq!(s.get(CollectiveOp::AllReduce).wire_bytes, 150);
        assert_eq!(s.total_wire_bytes(), 160);
        assert_eq!(s.total_calls(), 3);
    }

    #[test]
    fn missing_op_reads_zero() {
        let s = StatsCollector::new().snapshot();
        assert_eq!(s.get(CollectiveOp::Shift), OpStats::default());
    }

    #[test]
    fn copies_are_tracked_separately_from_wire_traffic() {
        let c = StatsCollector::new();
        c.record(CollectiveOp::Broadcast, 100, 0.5);
        c.charge_copy(CollectiveOp::Broadcast, 64);
        c.charge_copy(CollectiveOp::Broadcast, 64);
        c.charge_copy(CollectiveOp::AllGather, 32);
        let s = c.snapshot();
        assert_eq!(s.get(CollectiveOp::Broadcast).copies, 2);
        assert_eq!(s.get(CollectiveOp::Broadcast).copy_bytes, 128);
        // Copies never inflate the logical wire/call accounting.
        assert_eq!(s.get(CollectiveOp::Broadcast).wire_bytes, 100);
        assert_eq!(s.get(CollectiveOp::AllGather).calls, 0);
        assert_eq!(s.total_copies(), 3);
        assert_eq!(s.total_copy_bytes(), 160);
    }

    #[test]
    fn hidden_time_accumulates_per_op() {
        let c = StatsCollector::new();
        c.record(CollectiveOp::Broadcast, 100, 0.5);
        c.charge_hidden(CollectiveOp::Broadcast, 0.125);
        c.charge_hidden(CollectiveOp::Broadcast, 0.25);
        c.charge_hidden(CollectiveOp::AllReduce, 0.5);
        let s = c.snapshot();
        assert_eq!(s.get(CollectiveOp::Broadcast).hidden_time, 0.375);
        // Hidden time never inflates the logical call/time accounting.
        assert_eq!(s.get(CollectiveOp::Broadcast).calls, 1);
        assert_eq!(s.get(CollectiveOp::Broadcast).time, 0.5);
        assert_eq!(s.get(CollectiveOp::AllReduce).calls, 0);
        assert_eq!(s.total_hidden_time(), 0.875);
    }

    #[test]
    fn render_table_contains_ops() {
        let c = StatsCollector::new();
        c.record(CollectiveOp::Gather, 7, 0.0);
        let table = c.snapshot().render_table();
        assert!(table.contains("gather"));
        assert!(table.contains('7'));
    }
}
