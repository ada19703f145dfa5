//! The paper's quantitative claims as executable assertions, at reduced
//! scale where a claim needs a cluster run (full scale lives in the bench
//! binaries; see EXPERIMENTS.md).

use tesseract_repro::comm::{CostParams, RunConfig, Topology};
use tesseract_repro::core::analysis;
use tesseract_repro::core::{
    GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig,
};
use tesseract_repro::tensor::ShadowTensor;

/// §1: "the communication needed for Cannon's Algorithm is 31.5 times the
/// communication needed for Tesseract, and ... the 2.5D algorithm is 3.75
/// times" (p = 64).
#[test]
fn intro_ratio_claims() {
    let cannon = analysis::transmissions_cannon(64);
    let d25 = analysis::transmissions_25d(64);
    let tess = analysis::transmissions_tesseract_cube(64);
    assert!((cannon / tess - 31.5).abs() < 1e-9);
    assert!((d25 / tess - 3.75).abs() < 1e-9);
}

/// §3.1: transmission formulas at d = q: Cannon `2p^{3/2} − 2p^{1/2}`,
/// 2.5-D `2p − 2p^{1/3}`, Tesseract `2p^{2/3}` — hand-evaluated points.
#[test]
fn transmission_formula_spot_values() {
    assert!((analysis::transmissions_cannon(64) - (2.0 * 512.0 - 2.0 * 8.0)).abs() < 1e-9);
    assert!((analysis::transmissions_25d(64) - (128.0 - 8.0)).abs() < 1e-9);
    assert!((analysis::transmissions_tesseract_cube(64) - 32.0).abs() < 1e-9);
}

/// Eq. 7–10: Tesseract allocates less per-GPU memory than Megatron-LM on
/// activation-dominated matmuls, for every arrangement with p > 1.
#[test]
fn memory_model_tesseract_wins() {
    let (a, b, c) = (6144, 3072, 12288);
    for (q, d) in [(2usize, 1usize), (2, 2), (4, 2), (4, 4), (8, 1)] {
        let p = q * q * d;
        assert!(
            analysis::memory_tesseract(a, b, c, q, d) < analysis::memory_megatron(a, b, c, p),
            "[{q},{q},{d}]"
        );
    }
}

fn step_time(shape: GridShape, cfg: TransformerConfig, params: CostParams) -> f64 {
    RunConfig::from_env(shape.size())
        .with_topology(Topology::meluxina())
        .with_params(params)
        .run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let mut model = TesseractTransformer::<ShadowTensor>::new(ctx, &grid, cfg, true, 0, 0);
            let x = std::sync::Arc::new(ShadowTensor::new(
                cfg.rows() / (shape.q * shape.d),
                cfg.hidden / shape.q,
            ));
            let y = model.forward(&grid, ctx, &x);
            let _ = model.backward(&grid, ctx, &y);
            ctx.flush_compute();
        })
        .makespan()
}

/// §4.1/§4.2 core finding: at equal processor count, larger depth is
/// faster ([4,4,4] beats [8,8,1]; [2,2,4] beats [4,4,1]).
///
/// The ordering depends on the workload. It holds on this one (b·s/h = 4)
/// and on the Table-1 job at s ≥ 512, but not at s ≤ 256, where [8,8,1]
/// or megatron[64] wins (`crates/plan/tests/table1_crossover.rs`,
/// EXPERIMENTS.md §T1). Table 2's jobs kept [4,4,4] ahead of [8,8,1] at
/// every s probed, from 64 to 2048.
#[test]
fn greater_depth_wins_at_equal_p() {
    let cfg = TransformerConfig {
        batch: 32,
        seq: 128,
        hidden: 1024,
        heads: 16,
        mlp_ratio: 4,
        layers: 2,
        eps: 1e-5,
    };
    let t44 = step_time(GridShape::new(4, 4), cfg, CostParams::a100_cluster());
    let t88 = step_time(GridShape::new(8, 1), cfg, CostParams::a100_cluster());
    assert!(t44 < t88, "[4,4,4] {t44} must beat [8,8,1] {t88}");
    let t224 = step_time(GridShape::new(2, 4), cfg, CostParams::a100_cluster());
    let t441 = step_time(GridShape::new(4, 1), cfg, CostParams::a100_cluster());
    assert!(t224 < t441, "[2,2,4] {t224} must beat [4,4,1] {t441}");
}

/// §3.1: the depth advantage is a *communication* effect — with free
/// communication the arrangements tie (compute is identical up to
/// per-rank attention loop granularity).
#[test]
fn depth_advantage_vanishes_without_communication() {
    let cfg = TransformerConfig {
        batch: 32,
        seq: 128,
        hidden: 1024,
        heads: 16,
        mlp_ratio: 4,
        layers: 2,
        eps: 1e-5,
    };
    let params = CostParams::a100_cluster();
    let free = params.free_comm();
    let t44 = step_time(GridShape::new(4, 4), cfg, free);
    let t88 = step_time(GridShape::new(8, 1), cfg, free);
    // A residual gap remains because a q = 8 SUMMA step issues 2× the
    // kernel launches of a q = 4 step; it is far smaller than the gap with
    // real communication.
    let free_gap = (t88 - t44) / t44;
    let real_gap = (step_time(GridShape::new(8, 1), cfg, params)
        - step_time(GridShape::new(4, 4), cfg, params))
        / step_time(GridShape::new(4, 4), cfg, params);
    assert!(free_gap < 0.4, "free-comm times must be close: {t44} vs {t88}");
    assert!(real_gap > 2.0 * free_gap, "communication must dominate the depth advantage");
}

/// Eq. 12: efficiency decreases with processors and increases with work.
#[test]
fn efficiency_relation() {
    let w = 1e12;
    assert!(analysis::efficiency(w, 64, 1e-3) < analysis::efficiency(w, 4, 1e-3));
    assert!(analysis::efficiency(10.0 * w, 64, 1e-3) > analysis::efficiency(w, 64, 1e-3));
}

/// Eq. 4/5 ordering: replication relaxes both lower bounds.
#[test]
fn lower_bounds_relax_with_depth() {
    for d in [2usize, 4] {
        let (w1, s1) = analysis::lower_bounds_25d(4096, 64, 1);
        let (wd, sd) = analysis::lower_bounds_25d(4096, 64, d);
        assert!(wd < w1);
        assert!(sd < s1);
    }
}
