//! The virtual clock is affine in depth: a training step's simulated
//! makespan is `m(L) = a + b·L` for every arrangement, with `a = 0` when
//! there is no pipeline. The paper's §3.1 costs are per layer, so a
//! makespan that bends with depth means state leaking between layers, a
//! cache that fills once on the training path, or clock skew that grows
//! with depth. Fixed cases cover each family and pipeline depth; a
//! property test draws random small workloads and feasible candidates.
//!
//! Serving is deliberately not affine and not covered: its
//! weight-stationary linears fetch their weight panels once per run,
//! before the first step, so that fetch fills once by design.

use tesseract_comm::{CostParams, Topology};
use tesseract_core::{GridShape, TransformerConfig};
use tesseract_hybrid::HybridShape;
use tesseract_plan::{dry_run, enumerate, Candidate, CandidateMenu};
use tesseract_tensor::Xoshiro256StarStar;

/// Relative distance from collinearity the f64 clock may show.
const REL_TOL: f64 = 1e-12;

fn pipeline_stages(cand: &Candidate) -> usize {
    match cand {
        Candidate::Hybrid { shape, .. } => shape.pp(),
        _ => 1,
    }
}

/// The cluster every case is dry-run on.
fn cluster() -> (Topology, CostParams) {
    (Topology::meluxina(), CostParams::a100_cluster())
}

/// The fixed workload of the per-family cases, on 8 GPUs.
const FIXED: TransformerConfig = TransformerConfig {
    batch: 16,
    seq: 8,
    hidden: 64,
    heads: 8,
    mlp_ratio: 4,
    layers: 1,
    eps: 1e-5,
};

fn hybrid(dp: usize, pp: usize, q: usize, d: usize, microbatches: usize) -> Candidate {
    Candidate::Hybrid { shape: HybridShape::new(dp, pp, GridShape::new(q, d)), microbatches }
}

/// Makespans at `pp`, `2·pp` and `3·pp` layers.
fn makespans(cand: &Candidate, cfg: &TransformerConfig) -> [f64; 3] {
    let pp = pipeline_stages(cand);
    let (topo, params) = cluster();
    [1, 2, 3].map(|k| {
        let cfg = TransformerConfig { layers: k * pp, ..*cfg };
        dry_run(&topo, &params, cand, &cfg, false).makespan_s
    })
}

/// Asserts `cand`'s makespans at `pp`, `2·pp` and `3·pp` layers of `cfg`
/// are collinear, and proportional to depth when there is no pipeline.
fn assert_affine(cand: &Candidate, cfg: &TransformerConfig) {
    let [m1, m2, m3] = makespans(cand, cfg);
    let label = cand.label();
    assert!(m1 > 0.0 && m2 > m1 && m3 > m2, "{label}: makespan grows with depth");
    let bend = (m3 - 2.0 * m2 + m1).abs() / m3;
    assert!(bend <= REL_TOL, "{label}: {m1} {m2} {m3} bend {bend:e}");
    if pipeline_stages(cand) == 1 {
        for (k, m) in [(2.0, m2), (3.0, m3)] {
            let off = (m - k * m1).abs() / m;
            assert!(off <= REL_TOL, "{label}: m({k}) = {m} vs {k}·m(1) = {}", k * m1);
        }
    }
}

#[test]
fn every_family_is_affine_in_depth() {
    // One fixed case per family and pipeline depth on 8 GPUs, so a random
    // draw that misses one cannot hide it.
    for cand in [
        Candidate::tesseract(GridShape::new(2, 2)),
        Candidate::Megatron { p: 8 },
        hybrid(2, 1, 2, 1, 2),
        hybrid(2, 2, 1, 1, 2),
        hybrid(1, 2, 2, 1, 2),
        hybrid(1, 8, 1, 1, 2),
    ] {
        assert_affine(&cand, &FIXED);
    }
}

/// `cand`'s intercept `2·m(pp) − m(2·pp)` on [`FIXED`], the prediction of
/// the stage-boundary law, and `m(2·pp)`. On a uniform stage link the law
/// is `2·(mb + pp − 2)` blocking transfers, each `α + B/β`, plus
/// `2·(mb − 1)·α` from pp = 3 on, where
/// `B = (batch/dp/mb)·seq·hidden·4 / (q²d)` bytes is one microbatch's
/// activation shard.
fn intercept(cand: &Candidate) -> (f64, f64, f64) {
    let (topo, params) = cluster();
    let Candidate::Hybrid { shape, microbatches: mb } = *cand else { unreachable!() };
    let [m1, m2, _] = makespans(cand, &FIXED);
    let link = topo.link_between(shape.module_base(0, 0), shape.module_base(0, 1));
    for s in 1..shape.pp() - 1 {
        let hop = topo.link_between(shape.module_base(0, s), shape.module_base(0, s + 1));
        assert_eq!(hop, link, "{}: stage links are not uniform", cand.label());
    }
    let (alpha, beta) = params.link_params(link);
    let rows = FIXED.batch / shape.dp() / mb;
    let bytes = (rows * FIXED.seq * FIXED.hidden * 4 / shape.grid().size()) as f64;
    let transfers = 2 * (mb + shape.pp() - 2);
    let latencies = if shape.pp() >= 3 { 2 * (mb - 1) } else { 0 };
    let want = transfers as f64 * (alpha + bytes / beta) + latencies as f64 * alpha;
    (2.0 * m1 - m2, want, m2)
}

/// At pp = 2 the intercept is `2·mb` blocking stage-boundary transfers,
/// each `α + B/β` on the link between the two stages. Both links are
/// covered: a `[2,2,1]` stage fills a node, so its neighbour is across
/// InfiniBand; `[1,1,1]` stages share a node and talk over NVLink.
#[test]
fn two_stage_intercept_is_the_stage_boundary_transfers() {
    for cand in [hybrid(1, 2, 2, 1, 2), hybrid(1, 2, 2, 1, 4), hybrid(2, 2, 1, 1, 2)] {
        let (got, want, _) = intercept(&cand);
        let err = (got - want).abs() / want;
        let label = cand.label();
        assert!(err <= REL_TOL, "{label}: intercept {got} vs {want} (rel {err:e})");
    }
}

/// From pp = 3 on, the intercept is the `2·(mb + pp − 2)` stage-boundary
/// transfers plus `2·(mb − 1)·α`, one latency per microbatch after the
/// first in each direction. Covered over NVLink (`[1,1,1]` stages on one
/// node) and InfiniBand (`[2,2,1]` stages, one node each), at
/// mb ∈ {1, 2, 4, 8}. The intercept is a difference of two makespans, so
/// its error is bounded against `m(2·pp)`, the scale it was rounded at.
#[test]
fn deep_pipeline_intercept_follows_the_stage_boundary_law() {
    let cases = [(1, 3, 1), (1, 4, 1), (2, 4, 1), (1, 3, 2), (1, 4, 2), (1, 6, 2), (1, 8, 2)];
    for (dp, pp, q) in cases {
        for mb in [1, 2, 4, 8] {
            let cand = hybrid(dp, pp, q, 1, mb);
            let (got, want, m2) = intercept(&cand);
            let err = (got - want).abs() / m2;
            let label = cand.label();
            assert!(err <= REL_TOL, "{label}: intercept {got} vs {want} (rel to m(2pp) {err:e})");
        }
    }
}

#[test]
fn makespan_is_affine_in_depth() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(701);
    for _ in 0..12 {
        let gpus_log = 2 + rng.next_usize(3);
        let (heads_log, head_dim_log, seq_log) =
            (2 + rng.next_usize(2), 3 + rng.next_usize(2), 2 + rng.next_usize(3));
        let (batch_mul, mb_log) = (1 + rng.next_usize(2), rng.next_usize(3));
        let picks = (rng.next_usize(1000), rng.next_usize(1000));
        let heads = 1 << heads_log;
        let cfg = TransformerConfig {
            batch: 16 * batch_mul,
            seq: 1 << seq_log,
            hidden: heads << head_dim_log,
            heads,
            mlp_ratio: 4,
            layers: 1,
            eps: 1e-5,
        };
        let gpus = 1 << gpus_log;
        let feasible: Vec<Candidate> = enumerate(gpus, CandidateMenu::all(), 1 << mb_log)
            .into_iter()
            .filter(|c| {
                let layers = pipeline_stages(c);
                c.check(&TransformerConfig { layers, ..cfg }, gpus).is_ok()
            })
            .collect();
        assert!(!feasible.is_empty(), "{cfg:?} on {gpus} GPUs: nothing feasible");
        let mut chosen =
            vec![feasible[picks.0 % feasible.len()], feasible[picks.1 % feasible.len()]];
        chosen.dedup();
        for cand in &chosen {
            assert_affine(cand, &cfg);
        }
    }
}
