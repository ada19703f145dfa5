//! Planner fidelity: the numbers the planner reports are not estimates of
//! the chosen arrangement's behaviour — they *are* its behaviour. Every
//! ranked entry's dry-run must be bitwise reproducible by an independent
//! re-execution of the same candidate on the same topology, traced or not
//! (the simulator's virtual clocks are deterministic and trace-invariant).
//! A bare `[q, q, d]` grid, planned as the one-stage hybrid, must also
//! replay the bare Tesseract stack's step bitwise.

use std::sync::Arc;

use tesseract_comm::RunConfig;
use tesseract_core::layers::{StackOptions, TesseractTransformer};
use tesseract_core::{GridShape, Module, TesseractGrid, TransformerConfig};
use tesseract_hybrid::HybridShape;
use tesseract_plan::{
    dry_run, dryrun, plan, Candidate, CandidateMenu, DryRun, EntryStatus, PlanRequest,
};
use tesseract_tensor::ShadowTensor;

fn small_cfg() -> TransformerConfig {
    TransformerConfig {
        batch: 8,
        seq: 16,
        hidden: 64,
        heads: 8,
        mlp_ratio: 4,
        layers: 2,
        eps: 1e-5,
    }
}

/// Reference for a bare grid: the whole Tesseract stack on a
/// `TesseractGrid` as one checkpoint segment — forward, flush, backward,
/// flush — with no hybrid engine around it.
fn bare_grid_step(req: &PlanRequest, grid: GridShape) -> DryRun {
    let cfg = req.cfg;
    let run_cfg =
        RunConfig::from_env(grid.size()).with_topology(req.topology).with_params(req.params);
    let out = run_cfg.run(|ctx| {
        let world = TesseractGrid::new(ctx, grid, 0);
        let opts = StackOptions { recompute_every: Some(cfg.layers) };
        let mut model = TesseractTransformer::<ShadowTensor>::new_with_options(
            ctx, &world, cfg, true, 0, 0, opts,
        );
        let rows = cfg.rows() / (grid.q * grid.d);
        let x = Arc::new(ShadowTensor::new(rows, cfg.hidden / grid.q));
        let y = model.forward(&world, ctx, &x);
        ctx.flush_compute();
        let t_fwd = ctx.clock();
        let _ = model.backward(&world, ctx, &y);
        ctx.flush_compute();
        (t_fwd, ctx.clock())
    });
    DryRun::of_step(&out)
}

/// Dry-run makespans of the paper's three schemes on the Table-1 job, in
/// virtual seconds, as frozen in `benchmark/src/frozen.rs`
/// (`PAPER_MAKESPANS_S`), which the benchmark's timed run checks.
const PAPER_MAKESPANS_S: [(&str, f64); 3] = [
    ("megatron[64]", 0.4387121784147193),
    ("tesseract[8,8,1]", 0.20087304635904013),
    ("tesseract[4,4,4]", 0.19789871340544035),
];

#[test]
fn table1_plan_reproduces_the_frozen_paper_makespans() {
    let cfg = TransformerConfig {
        batch: 16,
        seq: 512,
        hidden: 3072,
        heads: 64,
        mlp_ratio: 4,
        layers: 8,
        eps: 1e-5,
    };
    let mut req = PlanRequest::new(64, cfg);
    req.menu = CandidateMenu::paper_schemes();
    let p = plan(&req);
    assert_eq!(p.winner().map(|w| w.label.as_str()), Some("tesseract[4,4,4]"));
    assert_eq!(p.entries.len(), PAPER_MAKESPANS_S.len(), "{}", p.describe());
    for (label, want) in PAPER_MAKESPANS_S {
        let e = p.entries.iter().find(|e| e.label == label).expect(label);
        assert_eq!(e.dryrun.map(|d| d.makespan_s), Some(want), "{label}");
    }
}

#[test]
fn reported_dryruns_replay_bitwise() {
    let mut req = PlanRequest::new(8, small_cfg());
    req.microbatches = 2;
    let p = plan(&req);
    let mut replayed = 0;
    for e in &p.entries {
        let (EntryStatus::Ranked(_), Some(reported)) = (&e.status, &e.dryrun) else {
            continue;
        };
        let replay = dry_run(&req.topology, &req.params, &e.candidate, &req.cfg, false);
        assert_eq!(reported.makespan_s, replay.makespan_s, "{} makespan", e.label);
        assert_eq!(reported.forward_s, replay.forward_s, "{} forward", e.label);
        assert_eq!(reported.alloc_bytes, replay.alloc_bytes, "{} alloc bytes", e.label);
        assert_eq!(reported.comm_s, replay.comm_s, "{} comm", e.label);
        replayed += 1;
    }
    assert!(replayed >= 3, "expected several ranked entries, replayed {replayed}");
}

#[test]
fn winner_replays_bitwise_under_tracing() {
    // The planner runs untraced by default; re-running the winner with
    // tracing enabled must reproduce the reported makespan bitwise, so a
    // chosen arrangement can be handed straight to the trace tooling.
    let mut req = PlanRequest::new(8, small_cfg());
    req.microbatches = 2;
    let p = plan(&req);
    let w = p.winner().expect("a winner exists at 8 GPUs");
    let traced = dry_run(&req.topology, &req.params, &w.candidate, &req.cfg, true);
    assert_eq!(w.dryrun.unwrap(), traced, "tracing perturbed the winner's clocks");
}

#[test]
fn traced_dryruns_reconcile_with_their_accounting_exactly() {
    // Tesseract, Megatron, and two hybrids: one whose stages talk through
    // send/recv and sync gradients across dp, one on a [2,2,1] grid.
    let hybrid = |dp, pp, q, d| Candidate::Hybrid {
        shape: HybridShape::new(dp, pp, GridShape::new(q, d)),
        microbatches: 2,
    };
    let candidates = [
        Candidate::tesseract(GridShape::new(2, 2)),
        Candidate::Megatron { p: 4 },
        hybrid(2, 2, 1, 1),
        hybrid(1, 2, 2, 1),
    ];
    let run_cfg = RunConfig::from_env(0).with_trace(true);
    for cand in candidates {
        let out = dryrun::step(&run_cfg, &cand, &small_cfg());
        assert!(out.traces.iter().all(|t| !t.is_empty()), "{} ran untraced", cand.label());
        assert_eq!(out.reconcile_trace(), Ok(()), "{}", cand.label());
    }
}

#[test]
fn planning_twice_is_deterministic() {
    let req = PlanRequest::new(8, small_cfg());
    let a = plan(&req);
    let b = plan(&req);
    assert_eq!(a.entries.len(), b.entries.len());
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        assert_eq!(ea.label, eb.label);
        assert_eq!(ea.status, eb.status);
        assert_eq!(ea.dryrun, eb.dryrun, "{}", ea.label);
        assert_eq!(ea.analytic.compute_s, eb.analytic.compute_s);
        assert_eq!(ea.analytic.comm_s, eb.analytic.comm_s);
    }
}

// Property form of the same guarantee, over randomly drawn workloads and
// GPU budgets.
mod proptests {
    use super::*;
    use tesseract_tensor::Xoshiro256StarStar;

    #[test]
    fn planner_numbers_replay_for_random_workloads() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(703);
        for _ in 0..8 {
            let gpus_pow = 1 + rng.next_usize(3); // 2, 4, 8 GPUs
            let batch_mul = 1 + rng.next_usize(3); // batch 8, 16, 24
            let layers_mul = 1 + rng.next_usize(2); // 2 or 4 layers
            let cfg =
                TransformerConfig { batch: 8 * batch_mul, layers: 2 * layers_mul, ..small_cfg() };
            let mut req = PlanRequest::new(1 << gpus_pow, cfg);
            req.microbatches = 2;
            let p = plan(&req);
            let best = p.winner().and_then(|w| w.dryrun).expect("a winner exists").makespan_s;
            // The search is exhaustive and spells each arrangement once:
            // every entry carries its dry-run, none is faster than the
            // winner, and no two share a label.
            for (i, e) in p.entries.iter().enumerate() {
                assert!(
                    p.entries[..i].iter().all(|o| o.label != e.label),
                    "{} listed twice",
                    &e.label
                );
                let reported = e.dryrun.expect("every entry is dry-run");
                assert!(reported.makespan_s >= best, "{} beats the winner", &e.label);
                let replay = dry_run(&req.topology, &req.params, &e.candidate, &req.cfg, false);
                assert_eq!(reported, replay, "{} diverged on replay", &e.label);
                // A bare grid is the one-stage hybrid: it runs the bare
                // stack's step, every field bitwise.
                if let Candidate::Hybrid { shape, .. } = e.candidate {
                    if e.candidate == Candidate::tesseract(shape.grid()) {
                        let bare = bare_grid_step(&req, shape.grid());
                        assert_eq!(reported, bare, "{} is not the bare stack", &e.label);
                    }
                }
            }
        }
    }
}
