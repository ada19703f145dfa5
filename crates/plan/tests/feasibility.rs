//! The planner and the execution path share one feasibility rule per
//! arrangement: for an infeasible arrangement, the `ShapeError` that
//! `Candidate::check` reports renders to the very text that building the
//! stack on that world panics with. A zero workload dimension is
//! infeasible on every arrangement, so the planner lists it instead of
//! panicking in a dry-run. A property test closes the loop over random
//! small workloads: a candidate dry-runs exactly when its check accepts it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tesseract_baselines::{MegatronTransformer, MegatronWorld};
use tesseract_comm::RunConfig;
use tesseract_core::{
    GridShape, ShapeError, TesseractGrid, TesseractTransformer, TransformerConfig,
};
use tesseract_plan::{dryrun, enumerate, plan, Candidate, CandidateMenu, PlanRequest};
use tesseract_tensor::{ShadowTensor, Xoshiro256StarStar};

fn cfg() -> TransformerConfig {
    TransformerConfig { batch: 8, seq: 4, hidden: 48, heads: 8, mlp_ratio: 4, layers: 2, eps: 1e-5 }
}

/// Runs `build` on a `world`-rank cluster and returns the text of the
/// panic it must end in.
fn build_panic(world: usize, build: impl Fn(&mut tesseract_comm::RankCtx) + Send + Sync) -> String {
    let payload = catch_unwind(AssertUnwindSafe(|| RunConfig::new(world).run(&build)))
        .expect_err("building the stack on an infeasible world must panic");
    payload.downcast_ref::<String>().cloned().expect("RunConfig::run panics with a String")
}

/// `RunConfig::run` names the first rank that failed, whichever it was.
fn assert_rank_panicked_with(text: &str, err: &str) {
    let (rank, msg) = text.split_once(" panicked: ").unwrap_or(("", text));
    assert!(rank.starts_with("rank "), "not a rank panic: {text:?}");
    assert_eq!(msg, err);
}

#[test]
fn a_grid_the_planner_rejects_panics_with_the_same_text() {
    let cfg = TransformerConfig { batch: 6, ..cfg() };
    let shape = GridShape::new(2, 2);
    let err = Candidate::tesseract(shape).check(&cfg, shape.size()).unwrap_err().to_string();
    assert_eq!(err, "batch 6 not divisible by q*d = 4");
    let text = build_panic(shape.size(), |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        TesseractTransformer::<ShadowTensor>::new(ctx, &grid, cfg, true, 0, 0);
    });
    assert_rank_panicked_with(&text, &err);
}

#[test]
fn a_megatron_group_the_planner_rejects_panics_with_the_same_text() {
    let cfg = TransformerConfig { heads: 6, ..cfg() };
    let p = 4;
    let err = Candidate::Megatron { p }.check(&cfg, p).unwrap_err().to_string();
    assert_eq!(err, "heads 6 not divisible by p = 4");
    let text = build_panic(p, |ctx| {
        let world = MegatronWorld::from_mesh(ctx, &MegatronWorld::tp_mesh(p, 0));
        MegatronTransformer::<ShadowTensor>::new(ctx, &world, cfg, true, 0, 0);
    });
    assert_rank_panicked_with(&text, &err);
}

/// `cfg()` with one dimension set to zero, and the `NonPositive` it earns.
fn zeroed() -> [(TransformerConfig, ShapeError); 3] {
    let cfg = cfg();
    [
        (TransformerConfig { batch: 0, ..cfg }, ShapeError::NonPositive { what: "batch" }),
        (TransformerConfig { heads: 0, ..cfg }, ShapeError::NonPositive { what: "heads" }),
        (TransformerConfig { layers: 0, ..cfg }, ShapeError::NonPositive { what: "layers" }),
    ]
}

#[test]
fn a_zero_dimension_is_non_positive_on_a_grid_and_on_megatron() {
    let shape = GridShape::new(2, 1);
    for (cfg, err) in zeroed() {
        assert_eq!(Candidate::tesseract(shape).check(&cfg, shape.size()), Err(err.clone()));
        assert_eq!(Candidate::Megatron { p: 2 }.check(&cfg, 2), Err(err));
    }
}

#[test]
fn the_planner_lists_a_zero_dimension_as_infeasible() {
    for (cfg, err) in zeroed() {
        let p = plan(&PlanRequest::new(4, cfg));
        assert!(p.entries.is_empty(), "{}", p.describe());
        assert!(!p.infeasible.is_empty());
        for (label, e) in &p.infeasible {
            assert_eq!(e, &err, "{label}");
        }
    }
}

/// The text `f` panics with, or `None` if it returns.
fn panic_text(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    let text = (payload.downcast_ref::<String>().cloned())
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    Some(text.expect("a panic carries text"))
}

/// Nonzero workload dimensions to draw from, some of which the small grids
/// and the head count do not divide.
const BATCHES: [usize; 4] = [3, 4, 8, 16];
const HIDDENS: [usize; 4] = [6, 16, 20, 32];
const HEADS: [usize; 5] = [1, 2, 3, 4, 8];

/// Every candidate `enumerate` lists for a random small workload on 1, 2,
/// 4 or 8 GPUs dry-runs without panicking exactly when `Candidate::check`
/// accepts it, and a rejected one panics with the rejection's text. A third
/// of the workloads have one dimension zeroed.
#[test]
fn a_candidate_dry_runs_exactly_when_its_check_accepts_it() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(702);
    for _ in 0..16 {
        let gpus_log = rng.next_usize(4);
        let (batch, seq, hidden) = (rng.next_usize(4), 1 + rng.next_usize(4), rng.next_usize(4));
        let (heads, mlp_ratio, layers) =
            (rng.next_usize(5), 1 + rng.next_usize(3), 1 + rng.next_usize(4));
        let (zeroed, microbatches) = (rng.next_usize(18), 1 + rng.next_usize(3));
        let mut dims = [BATCHES[batch], seq, HIDDENS[hidden], HEADS[heads], mlp_ratio, layers];
        if let Some(dim) = dims.get_mut(zeroed) {
            *dim = 0;
        }
        let [batch, seq, hidden, heads, mlp_ratio, layers] = dims;
        let cfg = TransformerConfig { batch, seq, hidden, heads, mlp_ratio, layers, eps: 1e-5 };
        let gpus = 1 << gpus_log;
        for cand in enumerate(gpus, CandidateMenu::all(), microbatches) {
            let label = cand.label();
            let ran = panic_text(|| drop(dryrun::step(&RunConfig::new(0), &cand, &cfg)));
            match (cand.check(&cfg, gpus), ran) {
                (Ok(()), None) => {}
                (Ok(()), Some(text)) => panic!("{label} on {cfg:?}: accepted, then {text:?}"),
                (Err(e), None) => panic!("{label} on {cfg:?}: rejected ({e}), then ran"),
                (Err(e), Some(text)) => {
                    let e = e.to_string();
                    assert!(text.contains(&e), "{label} on {cfg:?}: {text:?} lacks {e:?}");
                }
            }
        }
    }
}
