//! Candidate processor decompositions and their enumeration.
//!
//! A [`Candidate`] is one way to spend `p` GPUs on the workload: Megatron-LM
//! 1-D tensor parallelism, a Tesseract `[q, q, d]` grid, or the 5-axis
//! hybrid `[dp, pp, depth, row, col]` arrangement. [`enumerate`] generates
//! every structural factorization of the GPU budget (the paper's studied
//! range `1 ≤ d ≤ q` for Tesseract depth); feasibility against a concrete
//! workload is a separate, `Result`-returning step ([`Candidate::check`]) so
//! the planner can report *why* each rejected candidate cannot run.

use tesseract_baselines::MegatronWorld;
use tesseract_core::{GridShape, ShapeError, TransformerConfig};
use tesseract_hybrid::HybridShape;

/// One processor decomposition the planner can evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Candidate {
    /// Megatron-LM 1-D tensor parallelism over all `p` ranks.
    Megatron { p: usize },
    /// A Tesseract `[q, q, d]` grid over all ranks.
    Tesseract { grid: GridShape },
    /// dp × pp × Tesseract hybrid; `microbatches` is the GPipe schedule
    /// depth (1 when `pp == 1`: microbatching without a pipeline only adds
    /// latency).
    Hybrid { shape: HybridShape, microbatches: usize },
}

/// Which families of candidates a search may draw from. Table 1/2
/// validation restricts the menu to the paper's own schemes
/// ([`CandidateMenu::paper_schemes`]); sweeps use [`CandidateMenu::all`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateMenu {
    pub megatron: bool,
    pub tesseract: bool,
    pub hybrid: bool,
}

impl CandidateMenu {
    pub fn all() -> Self {
        Self { megatron: true, tesseract: true, hybrid: true }
    }

    /// The schemes the paper's Table 1/Table 2 compare: Megatron-LM and
    /// Tesseract (Optimus is the `d = 1` Tesseract row).
    pub fn paper_schemes() -> Self {
        Self { megatron: true, tesseract: true, hybrid: false }
    }
}

impl Candidate {
    /// Total GPUs the candidate consumes.
    pub fn gpus(&self) -> usize {
        match self {
            Candidate::Megatron { p } => *p,
            Candidate::Tesseract { grid } => grid.size(),
            Candidate::Hybrid { shape, .. } => shape.total(),
        }
    }

    /// Human/JSON label, e.g. `tesseract[4,4,4]` or
    /// `hybrid[dp=2,pp=2,tess=[2,2,2],mb=4]`.
    pub fn label(&self) -> String {
        match self {
            Candidate::Megatron { p } => format!("megatron[{p}]"),
            Candidate::Tesseract { grid } => format!("tesseract[{0},{0},{1}]", grid.q, grid.d),
            Candidate::Hybrid { shape, microbatches } => format!(
                "hybrid[dp={},pp={},tess=[{2},{2},{3}],mb={4}]",
                shape.dp, shape.pp, shape.grid.q, shape.grid.d, microbatches
            ),
        }
    }

    /// Canonicalized mesh signature for analytic-score memoization: unit
    /// `dp`/`pp` axes are dropped (a hybrid with `dp = pp = 1` and one
    /// microbatch *is* its inner Tesseract grid) and the two `q`-sized mesh
    /// sides are recorded size-sorted, so symmetric candidates (transposed
    /// row/col at `q×q`, trivial hybrid wrappers) collapse to one key.
    pub fn signature(&self) -> String {
        // Row/col sides are recorded size-sorted; `GridShape` is square by
        // construction, so the sort is the identity today, but the key
        // format stays canonical if rectangular meshes ever appear.
        fn tess_sig(grid: &GridShape) -> String {
            let mut sides = [grid.q, grid.q];
            sides.sort_unstable();
            format!("tess:d{}:q{}x{}", grid.d, sides[0], sides[1])
        }
        match self {
            Candidate::Megatron { p } => format!("mega:p{p}"),
            Candidate::Tesseract { grid } => tess_sig(grid),
            Candidate::Hybrid { shape, microbatches } => {
                if shape.dp == 1 && shape.pp == 1 && *microbatches == 1 {
                    tess_sig(&shape.grid)
                } else {
                    format!(
                        "hyb:dp{}:pp{}:mb{}:{}",
                        shape.dp,
                        shape.pp,
                        microbatches,
                        tess_sig(&shape.grid)
                    )
                }
            }
        }
    }

    /// Feasibility of this candidate for `cfg` on a `gpus`-rank budget:
    /// capacity first, then every divisibility constraint, reported as the
    /// structured [`ShapeError`] the construction paths now return.
    pub fn check(&self, cfg: &TransformerConfig, gpus: usize) -> Result<(), ShapeError> {
        match self {
            Candidate::Megatron { p } => {
                if *p != gpus {
                    return Err(ShapeError::Capacity {
                        what: format!("megatron[{p}]"),
                        needed: *p,
                        available: gpus,
                    });
                }
                MegatronWorld::check(*p, cfg)
            }
            Candidate::Tesseract { grid } => {
                grid.check_world(gpus)?;
                cfg.check_for_grid(grid.q, grid.d)
            }
            Candidate::Hybrid { shape, microbatches } => {
                shape.check_world(gpus)?;
                shape.check_carve(cfg.layers)?;
                let split = shape.dp * microbatches;
                if cfg.batch % split != 0 {
                    return Err(ShapeError::Indivisible {
                        what: "batch",
                        value: cfg.batch,
                        by: "dp*microbatches",
                        divisor: split,
                    });
                }
                let micro = TransformerConfig { batch: cfg.batch / split, ..*cfg };
                micro.check_for_grid(shape.grid.q, shape.grid.d)
            }
        }
    }
}

/// All `[q, q, d]` factorizations of `p` within the paper's studied range
/// `1 ≤ d ≤ q`, largest `q` first (the order the paper's tables list).
fn square_depth_factorizations(p: usize) -> Vec<GridShape> {
    let mut out = Vec::new();
    let mut q = 1usize;
    while q * q <= p {
        if p % (q * q) == 0 {
            let d = p / (q * q);
            if d <= q {
                out.push(GridShape::new(q, d));
            }
        }
        q += 1;
    }
    out.reverse();
    out
}

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|k| n % k == 0).collect()
}

/// Enumerates every structural candidate for a `gpus`-rank budget from the
/// requested menu. Workload feasibility is *not* checked here — the planner
/// runs [`Candidate::check`] per candidate so infeasible arrangements are
/// reported with their rejection reason instead of silently skipped.
///
/// The hybrid family deliberately includes the trivial `dp = pp = 1`
/// wrapper of each Tesseract grid: it is the same arrangement spelled in
/// 5-axis form, and the canonicalized-signature memo collapses it onto the
/// Tesseract candidate (scored once, logged as a duplicate).
pub fn enumerate(gpus: usize, menu: CandidateMenu, microbatches: usize) -> Vec<Candidate> {
    assert!(gpus >= 1, "a plan needs at least one GPU");
    assert!(microbatches >= 1, "a GPipe schedule needs at least one microbatch");
    let mut out = Vec::new();
    if menu.megatron {
        out.push(Candidate::Megatron { p: gpus });
    }
    if menu.tesseract {
        for grid in square_depth_factorizations(gpus) {
            out.push(Candidate::Tesseract { grid });
        }
    }
    if menu.hybrid {
        for dp in divisors(gpus) {
            for pp in divisors(gpus / dp) {
                let module = gpus / (dp * pp);
                for grid in square_depth_factorizations(module) {
                    let mb = if pp == 1 { 1 } else { microbatches };
                    // `try_new` cannot fail here (dp, pp ≥ 1) but keeps the
                    // construction on the Result path.
                    let shape = match HybridShape::try_new(dp, pp, grid) {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    out.push(Candidate::Hybrid { shape, microbatches: mb });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorizations_respect_d_at_most_q() {
        let grids = square_depth_factorizations(64);
        assert_eq!(grids, vec![GridShape::new(8, 1), GridShape::new(4, 4)]);
        // 128 = q²d admits only [8,8,2] under d ≤ q.
        assert_eq!(square_depth_factorizations(128), vec![GridShape::new(8, 2)]);
    }

    #[test]
    fn labels_and_signatures() {
        let t = Candidate::Tesseract { grid: GridShape::new(4, 4) };
        assert_eq!(t.label(), "tesseract[4,4,4]");
        assert_eq!(t.signature(), "tess:d4:q4x4");
        let m = Candidate::Megatron { p: 64 };
        assert_eq!(m.label(), "megatron[64]");
        let h = Candidate::Hybrid {
            shape: HybridShape::new(2, 2, GridShape::new(2, 2)),
            microbatches: 4,
        };
        assert_eq!(h.label(), "hybrid[dp=2,pp=2,tess=[2,2,2],mb=4]");
        assert_eq!(h.signature(), "hyb:dp2:pp2:mb4:tess:d2:q2x2");
    }

    #[test]
    fn trivial_hybrid_wrapper_shares_the_tesseract_signature() {
        let grid = GridShape::new(4, 2);
        let tess = Candidate::Tesseract { grid };
        let wrapper = Candidate::Hybrid { shape: HybridShape::new(1, 1, grid), microbatches: 1 };
        assert_eq!(tess.signature(), wrapper.signature());
        // A real pipeline does not collapse.
        let piped = Candidate::Hybrid { shape: HybridShape::new(1, 2, grid), microbatches: 4 };
        assert_ne!(tess.signature(), piped.signature());
    }

    #[test]
    fn check_reports_descriptive_rejections() {
        let cfg = TransformerConfig {
            batch: 16,
            seq: 8,
            hidden: 64,
            heads: 8,
            mlp_ratio: 4,
            layers: 8,
            eps: 1e-5,
        };
        // 12 GPUs: megatron needs 8 | heads.
        let m = Candidate::Megatron { p: 12 };
        assert_eq!(m.check(&cfg, 12).unwrap_err().to_string(), "heads 8 not divisible by p = 12");
        // Wrong capacity.
        let t = Candidate::Tesseract { grid: GridShape::new(2, 2) };
        assert_eq!(
            t.check(&cfg, 12).unwrap_err().to_string(),
            "tesseract [2,2,2] needs 8 ranks but 12 are available"
        );
        // Hybrid with pp not dividing layers.
        let h = Candidate::Hybrid {
            shape: HybridShape::new(1, 3, GridShape::new(2, 1)),
            microbatches: 1,
        };
        assert_eq!(h.check(&cfg, 12).unwrap_err().to_string(), "layers 8 not divisible by pp = 3");
        // Feasible Tesseract.
        assert_eq!(t.check(&cfg, 8), Ok(()));
    }

    #[test]
    fn enumerate_covers_all_menus() {
        let all = enumerate(8, CandidateMenu::all(), 2);
        assert!(all.contains(&Candidate::Megatron { p: 8 }));
        assert!(all.contains(&Candidate::Tesseract { grid: GridShape::new(2, 2) }));
        // Trivial wrapper present (collapsed later by signature).
        assert!(all.contains(&Candidate::Hybrid {
            shape: HybridShape::new(1, 1, GridShape::new(2, 2)),
            microbatches: 1,
        }));
        // A real pipeline split of the same budget: 1 × 2 × [2,2,1].
        assert!(all.contains(&Candidate::Hybrid {
            shape: HybridShape::new(1, 2, GridShape::new(2, 1)),
            microbatches: 2,
        }));
        let paper = enumerate(8, CandidateMenu::paper_schemes(), 2);
        assert!(paper.iter().all(|c| !matches!(c, Candidate::Hybrid { .. })));
    }
}
