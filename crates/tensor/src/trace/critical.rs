//! Critical-path analysis over per-rank traces.
//!
//! Walks backwards from the last event on the slowest rank, attributing
//! every nanosecond of the makespan to an op: compute spans are charged to
//! their flush, blocking collective waits to the collective, and when a
//! collective's exit was bound by the slowest participant the walk *hops*
//! to that straggler rank (found via the shared rendezvous key and the
//! matching entry time) — exactly the cross-rank dependency the simulated
//! `max(entry clocks) + cost` rule creates. The result names the ops that
//! bound the makespan, per scheme, which is what decides where further
//! overlap tuning pays off.

use std::collections::HashSet;

use super::{TraceEvent, TraceKind};

/// Time-comparison slack: virtual times are f64 sums of α–β terms, so two
/// "equal" instants can differ by a few ulps.
const EPS: f64 = 1e-12;

/// One attributed stretch of the critical path (walked backwards, stored
/// in reverse-chronological order).
#[derive(Clone, Debug)]
pub struct Segment {
    pub rank: usize,
    /// Op name the stretch is attributed to (`gemm`, `broadcast`, `idle`…).
    pub name: String,
    /// `"compute"`, `"comm"` or `"idle"`.
    pub category: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Segment {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The walked critical path of one run.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Segments in reverse-chronological order (makespan → time zero).
    pub segments: Vec<Segment>,
    /// The run's makespan (latest event end over all ranks).
    pub makespan: f64,
}

impl CriticalPath {
    /// Total attributed seconds per op name, sorted descending.
    pub fn op_totals(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for seg in &self.segments {
            match totals.iter_mut().find(|(n, _)| *n == seg.name) {
                Some((_, t)) => *t += seg.duration(),
                None => totals.push((seg.name.clone(), seg.duration())),
            }
        }
        totals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        totals
    }

    /// Renders the top-`k` makespan-bounding ops as an aligned text table.
    pub fn render_top_k(&self, k: usize) -> String {
        let mut out = format!("critical path: makespan {:.9} s\n", self.makespan);
        let totals = self.op_totals();
        for (i, (name, secs)) in totals.iter().take(k).enumerate() {
            let frac = if self.makespan > 0.0 { secs / self.makespan } else { 0.0 };
            out.push_str(&format!(
                "  {:>2}. {:<16} {:>12.9} s  {:>5.1}%\n",
                i + 1,
                name,
                secs,
                frac * 100.0
            ));
        }
        if totals.is_empty() {
            out.push_str("  (no events)\n");
        }
        out
    }
}

/// An event the walk may land on: compute always; collectives only when
/// they actually blocked the clock (a fully-hidden or zero-cost collective
/// cannot bound the makespan at its completion point).
fn walkable(ev: &TraceEvent) -> bool {
    match &ev.kind {
        TraceKind::Compute { .. } => true,
        TraceKind::Comm { blocked_nanos, .. } => *blocked_nanos > 0,
        TraceKind::Scope { .. } => false,
    }
}

/// Walks the cross-rank critical path over per-rank event lists (indexed
/// by rank, as in `RunOutput::traces`).
pub fn critical_path(traces: &[Vec<TraceEvent>]) -> CriticalPath {
    let makespan =
        traces.iter().flatten().filter(|e| walkable(e)).map(|e| e.end).fold(0.0f64, f64::max);
    let mut segments = Vec::new();
    if makespan <= EPS {
        return CriticalPath { segments, makespan };
    }
    // Start on the rank whose last walkable event realizes the makespan.
    let mut rank = traces
        .iter()
        .enumerate()
        .filter_map(|(r, evs)| {
            evs.iter()
                .filter(|e| walkable(e))
                .map(|e| e.end)
                .fold(None, |m: Option<f64>, e| Some(m.map_or(e, |m| m.max(e))))
                .map(|end| (r, end))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(r, _)| r)
        .unwrap_or(0);
    let mut cur_t = makespan;
    // (rank, index) pairs already attributed — guarantees termination even
    // if float slack lets a zero-duration event match repeatedly.
    let mut consumed: HashSet<(usize, usize)> = HashSet::new();

    while cur_t > EPS {
        // Latest unconsumed walkable event on this rank ending at/before
        // the cursor.
        let found = traces[rank]
            .iter()
            .enumerate()
            .filter(|(i, e)| !consumed.contains(&(rank, *i)) && walkable(e) && e.end <= cur_t + EPS)
            .max_by(|a, b| a.1.end.partial_cmp(&b.1.end).unwrap_or(std::cmp::Ordering::Equal));
        let Some((idx, ev)) = found else {
            // Nothing earlier on this rank: the remainder is ramp-up idle.
            segments.push(Segment {
                rank,
                name: "start".into(),
                category: "idle",
                start: 0.0,
                end: cur_t,
            });
            break;
        };
        consumed.insert((rank, idx));
        if cur_t - ev.end > EPS {
            segments.push(Segment {
                rank,
                name: "idle".into(),
                category: "idle",
                start: ev.end,
                end: cur_t,
            });
        }
        cur_t = ev.end.min(cur_t);
        match &ev.kind {
            TraceKind::Compute { .. } => {
                segments.push(Segment {
                    rank,
                    name: ev.name.clone(),
                    category: "compute",
                    start: ev.begin,
                    end: cur_t,
                });
                cur_t = ev.begin;
            }
            TraceKind::Comm { key_group, key_seq, max_entry_vt, .. } => {
                let from = max_entry_vt.min(cur_t).max(0.0);
                segments.push(Segment {
                    rank,
                    name: ev.name.clone(),
                    category: "comm",
                    start: from,
                    end: cur_t,
                });
                cur_t = from;
                // Hop to the straggler: the member of the same rendezvous
                // whose entry (event begin) equals the group's max entry.
                let straggler = traces.iter().enumerate().find_map(|(r, evs)| {
                    evs.iter().enumerate().find_map(|(i, cand)| match &cand.kind {
                        TraceKind::Comm { key_group: g, key_seq: s, .. }
                            if g == key_group
                                && s == key_seq
                                && (cand.begin - max_entry_vt).abs() <= EPS
                                && !consumed.contains(&(r, i)) =>
                        {
                            Some(r)
                        }
                        _ => None,
                    })
                });
                if let Some(r) = straggler {
                    rank = r;
                }
            }
            TraceKind::Scope { .. } => unreachable!("filtered"),
        }
    }
    CriticalPath { segments, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(rank: usize, name: &str, begin: f64, end: f64) -> TraceEvent {
        TraceEvent {
            rank,
            name: name.into(),
            begin,
            end,
            kind: TraceKind::Compute { flops: 1.0, kernels: 1, bytes_allocated: 0 },
        }
    }

    fn comm(
        rank: usize,
        name: &str,
        begin: f64,
        end: f64,
        key: (u64, u64),
        max_entry_vt: f64,
        blocked_nanos: u64,
    ) -> TraceEvent {
        TraceEvent {
            rank,
            name: name.into(),
            begin,
            end,
            kind: TraceKind::Comm {
                op: "all_reduce",
                key_group: key.0,
                key_seq: key.1,
                max_entry_vt,
                cost: end - max_entry_vt,
                blocked_nanos,
                hidden_nanos: 0,
                hidden_time: 0.0,
                wire_bytes: 0,
                stats_time: 0.0,
                recorded: rank == 0,
            },
        }
    }

    #[test]
    fn hops_to_the_straggler_rank() {
        // Rank 1 computes until t=5 (the straggler); rank 0 computes until
        // t=1 and blocks in the collective from 1 to 6 (cost 1 after
        // max entry 5). The critical path must be: collective (5→6) then
        // rank 1's compute (0→5).
        let traces = vec![
            vec![compute(0, "gemm", 0.0, 1.0), comm(0, "all_reduce", 1.0, 6.0, (9, 0), 5.0, 5_000)],
            vec![
                compute(1, "slowgemm", 0.0, 5.0),
                comm(1, "all_reduce", 5.0, 6.0, (9, 0), 5.0, 1_000),
            ],
        ];
        let cp = critical_path(&traces);
        assert!((cp.makespan - 6.0).abs() < 1e-9);
        let totals = cp.op_totals();
        let slow = totals.iter().find(|(n, _)| n == "slowgemm").expect("straggler attributed");
        assert!((slow.1 - 5.0).abs() < 1e-9, "straggler compute dominates: {totals:?}");
        assert_eq!(totals[0].0, "slowgemm");
        // The whole makespan is attributed (no gaps on this synthetic path).
        let attributed: f64 = cp.segments.iter().map(Segment::duration).sum();
        assert!((attributed - cp.makespan).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_are_attributed() {
        let traces = vec![vec![compute(0, "a", 0.0, 1.0), compute(0, "b", 2.0, 3.0)]];
        let cp = critical_path(&traces);
        let idle: f64 =
            cp.segments.iter().filter(|s| s.category == "idle").map(Segment::duration).sum();
        assert!((idle - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_traces_yield_empty_path() {
        let cp = critical_path(&[vec![], vec![]]);
        assert_eq!(cp.makespan, 0.0);
        assert!(cp.segments.is_empty());
        assert!(cp.op_totals().is_empty());
        assert!(cp.render_top_k(3).contains("no events"));
    }

    #[test]
    fn render_names_the_top_op() {
        let traces = vec![vec![compute(0, "gemm", 0.0, 2.0), compute(0, "add", 2.0, 2.5)]];
        let cp = critical_path(&traces);
        let table = cp.render_top_k(1);
        assert!(table.contains("gemm"), "{table}");
        assert!(!table.contains("add"), "{table}");
    }
}
