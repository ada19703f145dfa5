//! Per-rank structured event tracing on the simulated virtual clock.
//!
//! Every rank of a cluster run can record [`TraceEvent`] spans: compute
//! flushes (with exact flop/kernel/byte payloads), collectives (with their
//! blocked and hidden wait split out of the split-phase accounting), host
//! payload copies, and step/layer scopes. The recorder is a thread-local
//! installed by the cluster driver on each rank thread, so tracing is
//! **zero-cost when disabled**: every hook first reads one thread-local
//! `Cell<bool>` and returns. No charging arithmetic anywhere consults the
//! tracer — enabling it changes no simulated time, no counter, no result
//! byte.
//!
//! Events are recorded at the *same program points, with the same values*,
//! as the [`crate::Meter`] / comm-stats counters they mirror, so per-op
//! totals reconcile exactly (integer counters bitwise, f64 totals in the
//! same accumulation order). That reconciliation is enforced by tests and
//! by the `trace_dump` bench bin.
//!
//! Enable tracing either per cluster (`RunConfig::with_trace(true)`) or
//! for a whole process via the `TESSERACT_TRACE=1` environment variable,
//! which `RunConfig::from_env` parses and installs here through
//! [`set_default_enabled`].
//! Export with [`chrome::chrome_trace_json`] and open the file in
//! Perfetto / `chrome://tracing`; analyze with [`critical::critical_path`].

pub mod chrome;
pub mod critical;
pub mod json;

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// What one trace span was doing. Field values are recorded verbatim from
/// the charging sites they mirror so totals reconcile with the counters.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceKind {
    /// One `flush_compute` batch: the exact pending meter values that were
    /// folded into the virtual clock (or, for a zero-flop flush, only
    /// allocated bytes — a zero-duration span).
    Compute { flops: f64, kernels: u64, bytes_allocated: u64 },
    /// One collective on this rank, spanning deposit → charged exit.
    Comm {
        /// Collective op name (`broadcast`, `all_reduce`, …).
        op: &'static str,
        /// Rendezvous key: the group id half.
        key_group: u64,
        /// Rendezvous key: the per-group sequence half.
        key_seq: u64,
        /// Latest entry/deposit virtual time across the group — the serial
        /// exit is `max_entry_vt + cost`, so this is where the collective's
        /// cross-rank dependency points.
        max_entry_vt: f64,
        /// α–β cost charged for this op (seconds).
        cost: f64,
        /// Wait this rank's clock actually paid inside the op — the exact
        /// `Meter::comm_wait_nanos` delta.
        blocked_nanos: u64,
        /// Wait hidden under compute — the exact
        /// `Meter::overlap_hidden_nanos` delta (zero on blocking calls).
        hidden_nanos: u64,
        /// The hidden seconds as handed to the stats collector (f64, for
        /// reconciling `OpStats::hidden_time`).
        hidden_time: f64,
        /// Wire bytes this event recorded into the stats (zero unless
        /// `recorded`).
        wire_bytes: u64,
        /// Seconds this event recorded into `OpStats::time`.
        stats_time: f64,
        /// True iff this rank recorded the op's call into the global stats
        /// (one designated member per logical collective; the sender of a
        /// point-to-point pair), so `count(recorded) == OpStats::calls`
        /// cluster-wide.
        recorded: bool,
    },
    /// One host-side payload deep copy (a `clone_counted`).
    Copy { op: &'static str, bytes: u64 },
    /// A semantic scope: a layer forward/backward, a pipeline stage, a
    /// training step. Purely structural — carries no charges.
    Scope { phase: &'static str },
}

/// One span on one rank's virtual timeline. `begin`/`end` are virtual
/// seconds since run start (`begin == end` for instantaneous events).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub rank: usize,
    pub name: String,
    pub begin: f64,
    pub end: f64,
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Span duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.begin
    }
}

struct Tracer {
    rank: usize,
    events: Vec<TraceEvent>,
    /// Meter-scope labels seen since the last compute flush; they name the
    /// next [`TraceKind::Compute`] event (labels are naming-only — the
    /// flush's meter values are the authoritative charges).
    labels: Vec<&'static str>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

static DEFAULT_ON: OnceLock<bool> = OnceLock::new();

/// Installs the process-default trace toggle (first caller wins). This is
/// the setter the run configuration applies after parsing
/// `TESSERACT_TRACE`; nothing in this crate reads the environment.
pub fn set_default_enabled(on: bool) {
    let _ = DEFAULT_ON.set(on);
}

/// The process-default trace toggle: whatever [`set_default_enabled`]
/// installed, or `false` if nothing did. Per-cluster `with_trace` overrides
/// win over this default.
pub fn default_enabled() -> bool {
    DEFAULT_ON.get().copied().unwrap_or(false)
}

/// True iff a tracer is installed on this thread. Every hook gates on this
/// first, so the disabled-path cost is a single thread-local read.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Installs a fresh tracer for `rank` on the current thread. The cluster
/// driver calls this on each rank thread when tracing is enabled.
pub fn install(rank: usize) {
    TRACER
        .with(|t| *t.borrow_mut() = Some(Tracer { rank, events: Vec::new(), labels: Vec::new() }));
    ACTIVE.with(|a| a.set(true));
}

/// Uninstalls the current thread's tracer and returns its recorded events
/// (empty if none was installed).
pub fn take() -> Vec<TraceEvent> {
    ACTIVE.with(|a| a.set(false));
    TRACER.with(|t| t.borrow_mut().take()).map(|t| t.events).unwrap_or_default()
}

/// Records `label` as a name hint for the next compute flush. Called by
/// [`crate::meter::MeterScope`] on drop.
#[inline]
pub fn on_scope_label(label: &'static str) {
    if !is_active() {
        return;
    }
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.labels.push(label);
        }
    });
}

/// Records one compute flush carrying the exact pending meter values that
/// were folded into the clock. Skips all-zero flushes. The event name is
/// derived from the meter-scope labels seen since the previous flush
/// (consecutive duplicates collapsed, at most four shown).
pub fn on_flush(flops: f64, kernels: u64, bytes_allocated: u64, begin: f64, end: f64) {
    if !is_active() {
        return;
    }
    if flops == 0.0 && kernels == 0 && bytes_allocated == 0 {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.labels.clear();
            }
        });
        return;
    }
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let name = compute_name(&tr.labels, flops, kernels);
            tr.labels.clear();
            let rank = tr.rank;
            tr.events.push(TraceEvent {
                rank,
                name,
                begin,
                end,
                kind: TraceKind::Compute { flops, kernels, bytes_allocated },
            });
        }
    });
}

/// Builds the display name of a compute event from its scope labels.
fn compute_name(labels: &[&'static str], flops: f64, kernels: u64) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for &l in labels {
        if parts.last() != Some(&l) {
            parts.push(l);
        }
    }
    if parts.is_empty() {
        return if flops == 0.0 && kernels == 0 { "alloc".into() } else { "compute".into() };
    }
    if parts.len() > 4 {
        let shown = parts[..3].join("+");
        format!("{shown}+\u{2026}")
    } else {
        parts.join("+")
    }
}

/// Records a fully-built span (comm, copy or scope). The caller supplies
/// everything but the rank.
pub fn record(name: String, begin: f64, end: f64, kind: TraceKind) {
    if !is_active() {
        return;
    }
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let rank = tr.rank;
            tr.events.push(TraceEvent { rank, name, begin, end, kind });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_hooks_record_nothing() {
        assert!(!is_active());
        on_scope_label("gemm");
        on_flush(1.0, 1, 8, 0.0, 1.0);
        record("x".into(), 0.0, 0.0, TraceKind::Scope { phase: "fwd" });
        assert!(take().is_empty());
    }

    #[test]
    fn install_take_roundtrip_with_labels() {
        install(3);
        assert!(is_active());
        on_scope_label("gemm");
        on_scope_label("gemm");
        on_scope_label("add");
        on_flush(10.0, 2, 64, 1.0, 2.0);
        // Zero flush clears labels but records nothing.
        on_scope_label("stale");
        on_flush(0.0, 0, 0, 2.0, 2.0);
        on_flush(5.0, 1, 0, 2.0, 3.0);
        let events = take();
        assert!(!is_active());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "gemm+add");
        assert_eq!(events[0].rank, 3);
        assert_eq!(
            events[0].kind,
            TraceKind::Compute { flops: 10.0, kernels: 2, bytes_allocated: 64 }
        );
        assert_eq!(events[1].name, "compute");
        // Tracer is gone: further hooks are no-ops.
        on_flush(1.0, 1, 1, 0.0, 1.0);
        assert!(take().is_empty());
    }

    #[test]
    fn compute_names_collapse_and_cap() {
        assert_eq!(compute_name(&[], 1.0, 1), "compute");
        assert_eq!(compute_name(&[], 0.0, 0), "alloc");
        assert_eq!(compute_name(&["a", "a", "b"], 1.0, 1), "a+b");
        assert_eq!(compute_name(&["a", "b", "c", "d", "e"], 1.0, 1), "a+b+c+\u{2026}");
    }
}
