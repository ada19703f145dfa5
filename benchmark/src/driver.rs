//! The parent side: runs a workload's repetitions as child processes,
//! pools their records, checks them against each other, and prints the
//! result — one JSON line for the driver, a table for a person.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::cli::{Args, Phase, Workload};
use crate::rep::{self, Outcome, Rep};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::POOL_THREADS;

/// Repetitions of one end-to-end run. Each sets up from scratch, so
/// `setup_s` is a median over this many set-ups.
const REPS: usize = 3;

/// The driver allows a run 180 s; leave room to report.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Per-repetition values behind `value` (host-clock end-to-end
    /// metrics only): how far the benchmark's own repetitions disagree.
    pub reps: Vec<f64>,
}

impl Metric {
    /// Inter-quartile range of the repetitions' values, as a share of the
    /// reported value.
    fn rep_spread(&self) -> f64 {
        if self.reps.len() < 2 || self.value == 0.0 {
            return 0.0;
        }
        let q = stats::quartiles(&self.reps);
        (q.q3 - q.q1) / self.value.abs()
    }
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Operations timed and their quartiles (end-to-end runs).
    pub host_op: Option<stats::Quartiles>,
    /// Failed checks and dead repetitions, for the report.
    pub notes: Vec<String>,
}

fn child_args(w: Workload, phase: Phase, args: &Args, seconds: f64) -> Vec<String> {
    let mut v = vec![
        phase.name().to_string(),
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
        "--out-dir".into(),
        args.out_dir.display().to_string(),
    ];
    if args.smoke {
        v.push("--smoke".into());
    }
    v
}

/// One workload run in progress: the children it has spawned so far.
struct Run<'a> {
    w: Workload,
    args: &'a Args,
    deadline: Instant,
    result: RunResult,
}

impl<'a> Run<'a> {
    fn new(w: Workload, args: &'a Args) -> Self {
        Self { w, args, deadline: Instant::now() + RUN_DEADLINE, result: RunResult::default() }
    }

    /// Runs `phase` once as a child; a death becomes one failed operation
    /// and never a timing.
    fn rep(&mut self, phase: Phase, seconds: f64) -> Option<Rep> {
        let what = format!("{} {}", self.w.name(), phase.name());
        match rep::run_child(&child_args(self.w, phase, self.args, seconds), self.deadline) {
            Outcome::Done(rep) => {
                self.result.attempted += rep.attempted;
                self.result.failed += rep.failed;
                self.result.notes.extend(rep.violations.iter().map(|v| format!("{what}: {v}")));
                Some(rep)
            }
            Outcome::Died(why) => {
                // What the repetition attempted is unknown; it is at
                // least one operation, and it failed.
                self.result.attempted += 1;
                self.result.failed += 1;
                self.result.notes.push(format!("{what} repetition died: {why}"));
                None
            }
        }
    }

    /// Checks that every record carries the same `exact` values, key by
    /// key (a key one record lacks is not compared).
    fn exact_agree(&mut self, reps: &[&Rep]) -> bool {
        let mut ok = true;
        for (i, a) in reps.iter().enumerate() {
            for b in &reps[i + 1..] {
                for (key, va) in &a.exact {
                    if let Some(vb) = b.exact.get(key).filter(|vb| *vb != va) {
                        ok = false;
                        self.result.notes.push(format!(
                            "{}: {key} is not identical across records: {va} vs {vb}",
                            self.w.name()
                        ));
                    }
                }
            }
        }
        ok
    }

    fn finish(mut self, agree: bool, reps: &[&Rep]) -> RunResult {
        let finite = self.result.metrics.iter().all(|m| m.value.is_finite());
        if !finite {
            self.result.notes.push(format!("{}: a metric is not finite", self.w.name()));
        }
        self.result.correct = agree && finite && reps.iter().all(|r| r.violations.is_empty());
        self.result
    }
}

/// The end-to-end run (`--trace 0`): `REPS` repetitions share the
/// measuring time; host timings pool, virtual-clock values must agree.
///
/// `discard_first` runs one more repetition up front and drops its
/// timings: the first process after an idle gap sets up (and runs) at a
/// different speed here, which matters when a single pass is compared
/// against another (`--check`). It still counts its operations.
pub fn end_to_end(w: Workload, args: &Args, discard_first: bool) -> Option<RunResult> {
    let mut run = Run::new(w, args);
    let share = args.seconds / REPS as f64;
    if discard_first {
        // The shortest run a repetition can make: its fixed minimum of work.
        let _ = run.rep(Phase::Timed, 1e-3);
    }
    let timed: Vec<Rep> = (0..REPS).filter_map(|_| run.rep(Phase::Timed, share)).collect();
    // Serving reads its virtual-clock results off the Shadow twin; the
    // other workloads' timed repetitions carry them already.
    let shadow = if w == Workload::ServeOpen { run.rep(Phase::Shadow, share) } else { None };
    let virt = match (w, &shadow) {
        (Workload::ServeOpen, s) => s.as_ref(),
        _ => timed.first(),
    };
    let (Some(virt), false) = (virt, timed.is_empty()) else {
        report_notes(&run.result);
        return None;
    };
    let mut all: Vec<&Rep> = timed.iter().collect();
    all.extend(shadow.as_ref());
    let agree = run.exact_agree(&all);

    let setups: Vec<f64> = timed.iter().map(|r| r.get("setup_s")).collect();
    let host: Vec<f64> =
        timed.iter().flat_map(|r| r.samples["host_op_s"].iter().copied()).collect();
    let q = stats::quartiles(&host);
    run.result.host_op = Some(q);
    let values = [
        (stats::median(&setups), setups),
        (q.median, timed.iter().map(|r| r.get("host_op_s")).collect()),
        (virt.get("virt_ops_per_s"), Vec::new()),
        (virt.get("mem_peak_bytes"), Vec::new()),
    ];
    run.result.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(e, (value, reps))| Metric { name: e.name, value, unit: e.unit, reps })
        .collect();
    Some(run.finish(agree, &all))
}

/// The traced run (`--trace 1`): an untraced and a traced repetition of
/// the same shortened workload, plus the probes, give every per-layer
/// metric; the pair also yields the tracing overhead and the check that
/// tracing moves no virtual-clock result.
pub fn per_layer(w: Workload, args: &Args) -> Option<RunResult> {
    let mut run = Run::new(w, args);
    let short = run.rep(Phase::Short, args.seconds);
    let traced = run.rep(Phase::Traced, args.seconds);
    let probes = run.rep(Phase::Probes, args.seconds);
    let Some(traced) = traced else {
        report_notes(&run.result);
        return None;
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for r in [Some(&traced), probes.as_ref()].into_iter().flatten() {
        values.extend(r.scalars.iter().map(|(k, v)| (k.as_str(), *v)));
    }
    let mut all = vec![&traced];
    if let Some(short) = &short {
        values
            .insert("trace_overhead_frac", traced.get("host_op_s") / short.get("host_op_s") - 1.0);
        all.push(short);
    }
    let agree = run.exact_agree(&all);
    // A layer the workload does not exercise reads 0.
    run.result.metrics = PER_LAYER
        .iter()
        .map(|p| Metric {
            name: p.name,
            value: values.get(p.name).copied().unwrap_or(0.0),
            unit: p.unit,
            reps: Vec::new(),
        })
        .collect();
    all.extend(probes.as_ref());
    Some(run.finish(agree, &all))
}

fn report_notes(r: &RunResult) {
    for n in &r.notes {
        eprintln!("tesseract-benchmark: {n}");
    }
}

/// The contract's result line.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

// ---------------------------------------------------------------------------
// Human-readable runner
// ---------------------------------------------------------------------------

/// The environment record printed with every human-readable report.
fn environment() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host_cpus={cpus} pool_threads={POOL_THREADS} kernel={:?} rustc={:?}",
        tesseract_tensor::matmul::active_kernel(),
        std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
    )
}

fn print_run(w: Workload, e2e: &RunResult, layers: Option<&RunResult>) {
    println!(
        "== {} ==  operations attempted {} failed {}  outputs {}",
        w.name(),
        e2e.attempted + layers.map_or(0, |l| l.attempted),
        e2e.failed + layers.map_or(0, |l| l.failed),
        if e2e.correct && layers.is_none_or(|l| l.correct) { "correct" } else { "WRONG" },
    );
    for (m, e) in e2e.metrics.iter().zip(&END_TO_END) {
        let extra = match (m.name, &e2e.host_op) {
            ("host_op_s", Some(q)) => format!("  q1 {:.6} q3 {:.6} n {}", q.q1, q.q3, q.n),
            _ => String::new(),
        };
        println!(
            "  {:<44} {:>16.9} {:<9} clock {:<8} bound {}{extra}",
            m.name, m.value, m.unit, e.clock, e.bound
        );
    }
    if let Some(l) = layers {
        for (m, p) in l.metrics.iter().zip(PER_LAYER) {
            println!(
                "  {:<44} {:>16.9} {:<9} [{}] -> {}",
                m.name,
                m.value,
                m.unit,
                p.source.tag(),
                p.moves
            );
        }
    }
    for n in e2e.notes.iter().chain(layers.iter().flat_map(|l| &l.notes)) {
        println!("  ! {n}");
    }
}

/// One pass over every workload, in the given order.
fn run_set(
    order: &[Workload],
    args: &Args,
) -> Option<Vec<(Workload, RunResult, Option<RunResult>)>> {
    let mut set = Vec::new();
    for &w in order {
        let e2e = end_to_end(w, args, true)?;
        let layers = if args.trace { Some(per_layer(w, args)?) } else { None };
        print_run(w, &e2e, layers.as_ref());
        set.push((w, e2e, layers));
    }
    Some(set)
}

/// `--check`: two passes in alternating order must agree — exactly on the
/// virtual clock and on counts, within the bound on the host clock. A
/// host metric whose own repetitions spread by more than its bound is
/// unresolved, which is not agreement.
fn check(
    a: &[(Workload, RunResult, Option<RunResult>)],
    b: &[(Workload, RunResult, Option<RunResult>)],
) -> bool {
    let mut ok = true;
    for (w, ea, la) in a {
        let (_, eb, lb) =
            b.iter().find(|(wb, ..)| wb == w).expect("both passes ran every workload");
        for ((ma, mb), e) in ea.metrics.iter().zip(&eb.metrics).zip(&END_TO_END) {
            let verdict = if e.clock == "host" {
                let drift = (ma.value - mb.value).abs() / ma.value.min(mb.value);
                if ma.rep_spread().max(mb.rep_spread()) > e.bound {
                    "UNRESOLVED (spread between repetitions exceeds the bound)"
                } else if drift > e.bound {
                    "DIFFERS"
                } else {
                    "agrees"
                }
            } else if ma.value == mb.value {
                "identical"
            } else {
                "DIFFERS (must be identical)"
            };
            ok &= verdict == "agrees" || verdict == "identical";
            println!(
                "check {:<13} {:<16} {:>16.9} vs {:>16.9}  {verdict}",
                w.name(),
                e.name,
                ma.value,
                mb.value
            );
        }
        if let (Some(la), Some(lb)) = (la, lb) {
            for ((ma, mb), p) in la.metrics.iter().zip(&lb.metrics).zip(PER_LAYER) {
                let exact = matches!(p.source, spec::Source::Report | spec::Source::Trace);
                // 1e-9 relative, not bit equality: `OpStats::time` sums in
                // the order ranks happen to arrive, so its last bit moves.
                let tol = 1e-9 * ma.value.abs().max(mb.value.abs());
                if exact && (ma.value - mb.value).abs() > tol {
                    ok = false;
                    println!(
                        "check {:<13} {:<44} {} vs {}  DIFFERS (must be identical)",
                        w.name(),
                        p.name,
                        ma.value,
                        mb.value
                    );
                }
            }
        }
        ok &= ea.correct && eb.correct && ea.failed + eb.failed == 0;
    }
    ok
}

pub fn main(args: &Args) -> i32 {
    if let Some(w) = args.workload {
        let result = if args.trace { per_layer(w, args) } else { end_to_end(w, args, false) };
        return match result {
            Some(r) => {
                report_notes(&r);
                println!("{}", result_json(&r));
                0
            }
            None => 1,
        };
    }
    println!("tesseract-benchmark: seed {} seconds {} {}", args.seed, args.seconds, environment());
    let Some(first) = run_set(&Workload::ALL, args) else { return 1 };
    let mut ok = first.iter().all(|(_, e, l)| e.correct && l.as_ref().is_none_or(|l| l.correct));
    if args.check {
        let mut reversed = Workload::ALL;
        reversed.reverse();
        let Some(second) = run_set(&reversed, args) else { return 1 };
        ok &= check(&first, &second);
        println!("check: {}", if ok { "PASS" } else { "FAIL" });
    }
    i32::from(!ok)
}
