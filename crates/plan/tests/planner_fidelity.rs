//! Planner fidelity: the numbers the planner reports are not estimates of
//! the chosen arrangement's behaviour — they *are* its behaviour. Every
//! ranked entry's dry-run must be bitwise reproducible by an independent
//! re-execution of the same candidate on the same topology, traced or not
//! (the simulator's virtual clocks are deterministic and trace-invariant).

use tesseract_core::TransformerConfig;
use tesseract_plan::{dry_run, plan, EntryStatus, PlanRequest};

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
        assert_eq!(reported.peak_bytes, replay.peak_bytes, "{} peak bytes", e.label);
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
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn planner_numbers_replay_for_random_workloads(
            gpus_pow in 1usize..4,       // 2, 4, 8 GPUs
            batch_mul in 1usize..4,      // batch 8, 16, 24
            layers_mul in 1usize..3,     // 2 or 4 layers
        ) {
            let cfg = TransformerConfig {
                batch: 8 * batch_mul,
                layers: 2 * layers_mul,
                ..small_cfg()
            };
            let mut req = PlanRequest::new(1 << gpus_pow, cfg);
            req.microbatches = 2;
            req.dryrun_keep = 3;
            let p = plan(&req);
            for e in &p.entries {
                let (EntryStatus::Ranked(_), Some(reported)) = (&e.status, &e.dryrun) else {
                    continue;
                };
                let replay = dry_run(&req.topology, &req.params, &e.candidate, &req.cfg, false);
                prop_assert_eq!(reported, &replay, "{} diverged on replay", &e.label);
            }
        }
    }
}
