//! The planning workload, `plan_paper64`: `plan()` for the paper's
//! Table-1 job — 64 GPUs, batch 16, seq 512, hidden 3072, heads 64, 8
//! layers on the Meluxina topology. It is the paper's own headline
//! comparison on the Shadow backend at paper scale and the only workload
//! with 64 rank threads: `plan::{candidate,analytic,dryrun}`, `hybrid`,
//! `baselines::megatron` and the fabric under a 64-way herd do the work;
//! GEMM does none.
//!
//! A change to the *modelled* design moves its virtual-clock numbers; a
//! change to the simulator alone must leave them bit-identical, which the
//! frozen makespans in [`crate::frozen`] check on every run.
//!
//! The analytic model is validated here against the repo's own dry-run,
//! not against hardware: `plan.gap_*` is model-vs-simulator, nothing more.

use std::time::Instant;

use tesseract_core::TransformerConfig;
use tesseract_plan::{
    analytic_score, dry_run, enumerate, plan, Candidate, CandidateMenu, EntryStatus, Plan,
    PlanRequest,
};

use crate::cli::{Args, Phase};
use crate::frozen;
use crate::rep::Rep;
use crate::spans::{self, SpanLog};
use crate::stats;

const WINNER: &str = "tesseract[4,4,4]";
const MEGATRON: &str = "megatron[64]";
const FLAT_2D: &str = "tesseract[8,8,1]";

fn request(smoke: bool) -> PlanRequest {
    if smoke {
        // Four heads rule Megatron[8] out, so the winner is a grid and
        // carries a tracked activation peak like the full-size one.
        let cfg = TransformerConfig {
            batch: 8,
            seq: 16,
            hidden: 64,
            heads: 4,
            mlp_ratio: 4,
            layers: 2,
            eps: 1e-5,
        };
        let mut req = PlanRequest::new(8, cfg);
        req.microbatches = 2;
        req
    } else {
        let cfg = TransformerConfig {
            batch: 16,
            seq: 512,
            hidden: 3072,
            heads: 64,
            mlp_ratio: 4,
            layers: 8,
            eps: 1e-5,
        };
        PlanRequest::new(64, cfg)
    }
}

fn makespan(p: &Plan, label: &str) -> Option<f64> {
    p.entries.iter().find(|e| e.label == label).and_then(|e| e.dryrun).map(|d| d.makespan_s)
}

/// The paper-scheme search (Megatron + Tesseract, every candidate
/// dry-run): the Table-1 comparison itself, checked against the frozen
/// makespans. Doubles as the workload's warm-up.
fn paper_schemes(req: &PlanRequest, smoke: bool, rep: &mut Rep) -> Plan {
    let mut paper = req.clone();
    paper.menu = CandidateMenu::paper_schemes();
    let p = plan(&paper);
    rep.attempted += 1;
    if !smoke {
        let winner = p.winner().map(|e| e.label.clone());
        rep.check(winner.as_deref() == Some(WINNER), || {
            format!("paper-scheme winner is {winner:?}, expected {WINNER}")
        });
        for (label, want) in frozen::PAPER_MAKESPANS_S {
            let got = makespan(&p, label);
            rep.check(got == Some(want), || {
                format!("{label} dry-run makespan is {got:?}, frozen value is {want}")
            });
        }
    }
    p
}

/// One full-menu `plan()` call (every family, default `dryrun_keep`);
/// returns the host seconds it took. With hybrids on the menu a pipelined
/// arrangement wins, so the paper's winner is checked on the paper menu
/// only; this call's whole ranking must repeat exactly instead.
fn full_plan(req: &PlanRequest, rep: &mut Rep) -> (Plan, f64) {
    let begin = Instant::now();
    let p = plan(req);
    let host_s = begin.elapsed().as_secs_f64();
    rep.attempted += 1;
    if p.winner().is_none() {
        rep.failed += 1;
        rep.check(false, || "plan() found no feasible candidate".to_string());
    }
    (p, host_s)
}

/// Entry point of a planning child.
pub fn run_child(args: &Args, phase: Phase, t0: Instant) -> Rep {
    let mut rep = Rep::default();
    let traced = phase == Phase::Traced;
    let mut log = SpanLog::new(traced, 0, t0);
    let mut req = request(args.smoke);
    req.trace = traced;

    let paper = log.within("plan.paper_schemes", || paper_schemes(&req, args.smoke, &mut rep));
    rep.set("setup_s", t0.elapsed().as_secs_f64());

    let begin = Instant::now();
    let mut host = Vec::new();
    let mut last = None;
    while host.is_empty() || (phase == Phase::Timed && begin.elapsed().as_secs_f64() < args.seconds)
    {
        let (p, host_s) = log.within("plan.full_menu", || full_plan(&req, &mut rep));
        host.push(host_s);
        last = Some(p);
    }
    let full = last.expect("at least one plan call");
    rep.set("host_op_s", stats::median(&host));
    rep.samples.insert("host_op_s".into(), host);

    // The virtual-clock numbers are the paper-scheme winner's: the
    // arrangement the paper's Table 1 is about.
    if let Some(d) = paper.winner().and_then(|w| w.dryrun) {
        rep.set("virt_ops_per_s", 1.0 / d.makespan_s);
        rep.set("mem_peak_bytes", d.activation_peak_bytes as f64);
    }
    rep.set_exact("paper_ranking", ranking(&paper));
    rep.set_exact("full_ranking", ranking(&full));

    if traced {
        per_layer(&req, &paper, &full, &mut log, &mut rep);
        spans::save(args, &[log.into_spans()], &mut rep);
    }
    rep
}

/// Labels, makespans and activation peaks of the ranked entries, in
/// rank order.
fn ranking(p: &Plan) -> String {
    let parts: Vec<String> = p
        .entries
        .iter()
        .filter_map(|e| {
            e.dryrun.map(|d| format!("{}={}/{}", e.label, d.makespan_s, d.activation_peak_bytes))
        })
        .collect();
    parts.join(";")
}

/// Per-layer numbers: the search's own counters ([R]) and host spans
/// around the three public stages it is built from ([S]).
fn per_layer(req: &PlanRequest, paper: &Plan, full: &Plan, log: &mut SpanLog, rep: &mut Rep) {
    let ranked = full.entries.iter().filter(|e| matches!(e.status, EntryStatus::Ranked(_))).count();
    rep.set("plan.candidates", (full.entries.len() + full.infeasible.len()) as f64);
    rep.set("plan.feasible", full.entries.len() as f64);
    rep.set("plan.pruned_dryruns", full.pruned_dryruns as f64);
    rep.set("plan.memo_hits", full.analytic_memo_hits as f64);

    // Where the dry-run winner sat in the analytic order (0 = the cheap
    // stage and the simulator agree on the winner).
    if let Some(w) = full.winner() {
        let cheaper = full
            .entries
            .iter()
            .filter(|e| !matches!(e.status, EntryStatus::Duplicate { .. }))
            .filter(|e| e.analytic.total_s() < w.analytic.total_s())
            .count();
        rep.set("plan.winner_analytic_rank", cheaper as f64);
    }

    // [S] the three stages, called directly.
    let cands = log.within("plan.enumerate", || enumerate(req.gpus, req.menu, req.microbatches));
    let feasible: Vec<Candidate> =
        cands.into_iter().filter(|c| c.check(&req.cfg, req.gpus).is_ok()).collect();
    log.within("plan.analytic_score", || {
        for c in &feasible {
            std::hint::black_box(analytic_score(&req.topology, &req.params, c, &req.cfg));
        }
    });
    if let Some(w) = paper.winner() {
        let d = log.within("plan.dry_run", || {
            dry_run(&req.topology, &req.params, &w.candidate, &req.cfg, false)
        });
        rep.check(Some(d) == w.dryrun, || "re-running the winner's dry-run changed it".to_string());
    }
    let stage = |name: &str| spans::total(log.spans(), name);
    rep.set("plan.enumerate_host_ms", stage("plan.enumerate") * 1e3);
    rep.set("plan.analytic_host_ms", stage("plan.analytic_score") * 1e3);
    rep.set("plan.dryrun_host_s_per_candidate", stage("plan.dry_run"));
    rep.set("plan.dryrun_host_s", stage("plan.dry_run") * ranked as f64);

    // The paper's comparison, from the paper-scheme search.
    let gap = |label: &str| -> Option<f64> {
        let e = paper.entries.iter().find(|e| e.label == label)?;
        Some((e.analytic.total_s() / e.dryrun?.makespan_s).ln().abs())
    };
    let (m, f, w) = (makespan(paper, MEGATRON), makespan(paper, FLAT_2D), makespan(paper, WINNER));
    if let (Some(m), Some(f), Some(w)) = (m, f, w) {
        rep.set("baselines.megatron64_virt_step_s", m);
        rep.set("baselines.tess881_virt_step_s", f);
        rep.set("plan.virt_speedup_vs_1d", m / w);
        rep.set("plan.virt_speedup_vs_2d", f / w);
    }
    for (name, label) in [
        ("plan.gap_abs_ln.megatron64", MEGATRON),
        ("plan.gap_abs_ln.tess881", FLAT_2D),
        ("plan.gap_abs_ln.tess444", WINNER),
    ] {
        if let Some(g) = gap(label) {
            rep.set(name, g);
        }
    }
    // Max over every dry-run candidate of either search.
    let worst = paper
        .entries
        .iter()
        .chain(&full.entries)
        .filter_map(|e| e.dryrun.map(|d| (e.analytic.total_s() / d.makespan_s).ln().abs()))
        .fold(0.0, f64::max);
    rep.set("plan.gap_max_abs_ln", worst);
}
