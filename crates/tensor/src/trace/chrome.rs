//! Chrome-trace / Perfetto JSON export.
//!
//! Produces the classic `{"traceEvents": [...]}` format: one *process* per
//! rank, three *threads* per rank (compute, comm, scopes), complete events
//! (`ph: "X"`) with microsecond timestamps on the virtual clock, and flow
//! arrows (`ph: "s"` → `"f"`) across each overlapped split-phase
//! collective so the hidden window is visible. Open the file at <https://ui.perfetto.dev> or
//! `chrome://tracing`.

use super::json::{self, Value};
use super::{TraceEvent, TraceKind};
use crate::json;

/// Track (tid) layout within each rank's process.
const TID_COMPUTE: u32 = 0;
const TID_COMM: u32 = 1;
const TID_SCOPES: u32 = 2;

/// Virtual seconds → fractional microseconds (Chrome's `ts` unit), with
/// nanosecond precision preserved in the fraction.
fn us(vt: f64) -> Value {
    Value::fixed(vt * 1e6, 3)
}

/// Renders per-rank traces (as returned in `RunOutput::traces`) to a
/// Chrome-trace JSON document.
pub fn chrome_trace_json(traces: &[Vec<TraceEvent>]) -> String {
    let mut events = Vec::new();
    for (rank, trace) in traces.iter().enumerate() {
        let tracks = [(TID_COMPUTE, "compute"), (TID_COMM, "comm"), (TID_SCOPES, "scopes")];
        let names = std::iter::once((0, "process_name", format!("rank {rank}")))
            .chain(tracks.map(|(tid, track)| (tid, "thread_name", track.to_string())));
        for (tid, name, label) in names {
            let args = json!({ "name": label });
            events.push(json!({ "ph": "M", "pid": rank, "tid": tid, "name": name, "args": args }));
        }
        for ev in trace {
            let name = ev.name.as_str();
            // A complete (`ph: "X"`) span on track `tid`.
            let span = |tid: u32, cat: &str, args: Value| {
                json!({
                    "ph": "X", "pid": rank, "tid": tid, "name": name, "cat": cat,
                    "ts": us(ev.begin), "dur": us(ev.duration()), "args": args
                })
            };
            events.push(match &ev.kind {
                TraceKind::Compute { flops, kernels, bytes_allocated } => {
                    let args = json!({
                        "flops": *flops, "kernels": *kernels, "bytes_allocated": *bytes_allocated
                    });
                    span(TID_COMPUTE, "compute", args)
                }
                TraceKind::Comm {
                    op,
                    key_group,
                    key_seq,
                    blocked_nanos,
                    hidden_nanos,
                    wire_bytes,
                    ..
                } => {
                    let args = json!({
                        "op": *op, "blocked_ns": *blocked_nanos, "hidden_ns": *hidden_nanos,
                        "wire_bytes": *wire_bytes, "key": format!("{key_group:x}:{key_seq}")
                    });
                    span(TID_COMM, "comm", args)
                }
                TraceKind::Scope { phase } => span(TID_SCOPES, "scope", json!({ "phase": *phase })),
            });
            // Flow arrow across the overlapped window: deposit (begin) →
            // complete (end) whenever the split-phase machinery hid wait
            // under compute.
            if let TraceKind::Comm { key_group, key_seq, hidden_nanos: 1.., .. } = ev.kind {
                let id = format!("{key_group:x}-{key_seq}-r{rank}");
                events.push(json!({
                    "ph": "s", "pid": rank, "tid": TID_COMM, "name": "overlap", "cat": "comm",
                    "id": id.as_str(), "ts": us(ev.begin)
                }));
                events.push(json!({
                    "ph": "f", "bp": "e", "pid": rank, "tid": TID_COMM, "name": "overlap",
                    "cat": "comm", "id": id, "ts": us(ev.end)
                }));
            }
        }
    }
    json::write(&json!({ "displayTimeUnit": "ns", "traceEvents": events }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind) -> TraceEvent {
        TraceEvent { rank: 0, name: "n\"1".into(), begin: 1e-6, end: 3e-6, kind }
    }

    #[test]
    fn emits_parseable_structure_with_metadata_and_flows() {
        let traces = vec![vec![
            ev(TraceKind::Compute { flops: 2.0, kernels: 1, bytes_allocated: 8 }),
            ev(TraceKind::Comm {
                op: "broadcast",
                key_group: 0xabc,
                key_seq: 7,
                max_entry_vt: 0.0,
                cost: 1e-6,
                blocked_nanos: 100,
                hidden_nanos: 50,
                hidden_time: 5e-8,
                wire_bytes: 64,
                stats_time: 1e-6,
                recorded: true,
            }),
            ev(TraceKind::Scope { phase: "fwd" }),
        ]];
        let json = chrome_trace_json(&traces);
        let doc = crate::trace::json::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
        // 4 metadata + 3 events + 2 flow halves.
        assert_eq!(events.len(), 9);
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("s")
                && e.get("id").and_then(|i| i.as_str()) == Some("abc-7-r0")
        }));
        assert!(events.iter().all(|e| e.get("ph").is_some() && e.get("pid").is_some()));
    }

    #[test]
    fn empty_traces_render_empty_array() {
        let json = chrome_trace_json(&[]);
        let doc = crate::trace::json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("traceEvents").and_then(|v| v.as_array()).map(Vec::len), Some(0));
    }
}
