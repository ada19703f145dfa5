//! Host-clock spans recorded by the benchmark around its calls into each
//! layer (the traced run only). Spans live in memory until the run ends
//! and are then written as a Chrome trace through `trace::chrome`; spans
//! *inside* the program are a later issue (ROADMAP item 1).

use std::time::Instant;

use tesseract_tensor::trace::chrome;
use tesseract_tensor::{TraceEvent, TraceKind};

use crate::cli::Args;
use crate::rep::Rep;

/// One closed span on one rank's host timeline (seconds since `t0`).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub start: f64,
    pub end: f64,
    /// Index (in the same log) of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A per-rank span recorder. Disabled logs record nothing, so the untraced
/// run pays one branch per boundary.
pub struct SpanLog {
    enabled: bool,
    rank: usize,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(enabled: bool, rank: usize, t0: Instant) -> Self {
        Self { enabled, rank, t0, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.t0.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, rank: self.rank, start: now, end: now, parent });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end = self.t0.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span.
    pub fn within<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The spans recorded so far (open ones still have `end == start`).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span log closed with open spans");
        self.spans
    }
}

/// Total seconds of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
}

/// Writes the traced run's span logs to `trace.<workload>.json` under the
/// output directory; a write error fails the run's output check.
pub fn save(args: &Args, per_rank: &[Vec<Span>], rep: &mut Rep) {
    let workload = args.workload.expect("a child has a workload").name();
    let path = args.out_dir.join(format!("trace.{workload}.json"));
    if let Err(e) = write_chrome(&path, per_rank) {
        rep.check(false, || format!("writing {}: {e}", path.display()));
    }
}

/// Writes per-rank span logs as Chrome-trace JSON (one process per rank;
/// nesting shows as stacked slices on the scopes track). Times are host
/// seconds, unlike the virtual-clock traces the library itself emits.
fn write_chrome(path: &std::path::Path, per_rank: &[Vec<Span>]) -> std::io::Result<()> {
    let traces: Vec<Vec<TraceEvent>> = per_rank
        .iter()
        .map(|spans| {
            spans
                .iter()
                .map(|s| TraceEvent {
                    rank: s.rank,
                    name: s.name.to_string(),
                    begin: s.start,
                    end: s.end,
                    kind: TraceKind::Scope { phase: "host" },
                })
                .collect()
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome::chrome_trace_json(&traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_totals() {
        let mut log = SpanLog::new(true, 0, Instant::now());
        log.enter("step");
        log.within("fwd", || std::thread::sleep(std::time::Duration::from_millis(2)));
        log.within("bwd", || ());
        log.exit();
        let spans = log.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(total(&spans, "fwd") >= 0.002);
        assert!(total(&spans, "fwd") + total(&spans, "bwd") <= spans[0].duration());
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 0, Instant::now());
        log.within("fwd", || ());
        assert!(log.into_spans().is_empty());
    }
}
