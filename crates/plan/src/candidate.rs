//! Candidate processor decompositions and their enumeration.
//!
//! A [`Candidate`] is one way to spend `p` GPUs on the workload: Megatron-LM
//! 1-D tensor parallelism, or the paper's hybrid `[dp, pp, depth, row, col]`
//! arrangement (§3.4), whose `dp = pp = 1` case with one microbatch is a
//! bare Tesseract `[q, q, d]` grid ([`Candidate::tesseract`]). Each
//! `(dp, pp, q, d, mb)` tuple is enumerated once, though some run the same
//! step (`dp=4 × [4,4,2]` and `dp=2 × [4,4,4]`: `dp` and depth both split the batch).
//! [`enumerate`] generates every structural factorization of the GPU budget
//! (the paper's studied range `1 ≤ d ≤ q` for Tesseract depth); feasibility
//! against a concrete workload is a separate, `Result`-returning step
//! ([`Candidate::check`]) so the planner can report *why* each rejected
//! candidate cannot run.

use tesseract_baselines::MegatronWorld;
use tesseract_core::{GridShape, ShapeError, TransformerConfig};
use tesseract_hybrid::HybridShape;

/// One processor decomposition the planner can evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Candidate {
    /// Megatron-LM 1-D tensor parallelism over all `p` ranks.
    Megatron { p: usize },
    /// dp × pp × Tesseract hybrid; `microbatches` is the GPipe schedule
    /// depth (1 when `pp == 1`: microbatching without a pipeline only adds
    /// latency). `dp = pp = 1` with one microbatch is a bare grid.
    Hybrid { shape: HybridShape, microbatches: usize },
}

/// Which families of candidates a search may draw from. Table 1/2
/// validation restricts the menu to the paper's own schemes
/// ([`CandidateMenu::paper_schemes`]); sweeps use [`CandidateMenu::all`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateMenu {
    pub megatron: bool,
    /// Bare `[q, q, d]` grids: the `dp = pp = 1` hybrids.
    pub tesseract: bool,
    /// Hybrids with `dp · pp > 1`.
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
    /// A bare Tesseract `[q, q, d]` grid over all ranks: the hybrid with
    /// `dp = pp = 1` and one microbatch.
    pub fn tesseract(grid: GridShape) -> Self {
        Candidate::Hybrid { shape: HybridShape::new(1, 1, grid), microbatches: 1 }
    }

    /// Total GPUs the candidate consumes.
    pub fn gpus(&self) -> usize {
        match self {
            Candidate::Megatron { p } => *p,
            Candidate::Hybrid { shape, .. } => shape.total(),
        }
    }

    /// Human/JSON label, e.g. `megatron[64]`, `tesseract[4,4,4]` (a bare
    /// grid) or `hybrid[dp=2,pp=2,tess=[2,2,2],mb=4]`.
    pub fn label(&self) -> String {
        match self {
            Candidate::Megatron { p } => format!("megatron[{p}]"),
            Candidate::Hybrid { shape, microbatches } => {
                let (q, d) = (shape.grid().q, shape.grid().d);
                if *self == Candidate::tesseract(shape.grid()) {
                    format!("tesseract[{q},{q},{d}]")
                } else {
                    format!(
                        "hybrid[dp={},pp={},tess=[{q},{q},{d}],mb={microbatches}]",
                        shape.dp(),
                        shape.pp()
                    )
                }
            }
        }
    }

    /// Feasibility of this candidate for `cfg` on a `gpus`-rank budget:
    /// capacity first (the error names the candidate's label), then the
    /// arrangement's own rule ([`MegatronWorld::check_degree`],
    /// [`HybridShape::micro_config`]), reported as a structured
    /// [`ShapeError`].
    pub fn check(&self, cfg: &TransformerConfig, gpus: usize) -> Result<(), ShapeError> {
        if self.gpus() != gpus {
            return Err(ShapeError::Capacity {
                what: self.label(),
                needed: self.gpus(),
                available: gpus,
            });
        }
        match self {
            Candidate::Megatron { p } => MegatronWorld::check_degree(*p, cfg),
            Candidate::Hybrid { shape, microbatches } => {
                shape.micro_config(cfg, *microbatches).map(|_| ())
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
        if p.is_multiple_of(q * q) {
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
    (1..=n).filter(|&k| n.is_multiple_of(k)).collect()
}

/// Enumerates every structural candidate for a `gpus`-rank budget from the
/// requested menu, each `(dp, pp, q, d, mb)` tuple once: Megatron, then the
/// bare grids, then the hybrids with `dp · pp > 1` (the planner breaks
/// makespan ties by this order). Workload feasibility is *not* checked here — the planner
/// runs [`Candidate::check`] per candidate so infeasible arrangements are
/// reported with their rejection reason instead of silently skipped.
pub fn enumerate(gpus: usize, menu: CandidateMenu, microbatches: usize) -> Vec<Candidate> {
    assert!(gpus >= 1, "a plan needs at least one GPU");
    assert!(microbatches >= 1, "a GPipe schedule needs at least one microbatch");
    let mut out = Vec::new();
    if menu.megatron {
        out.push(Candidate::Megatron { p: gpus });
    }
    if menu.tesseract {
        out.extend(square_depth_factorizations(gpus).into_iter().map(Candidate::tesseract));
    }
    if menu.hybrid {
        for dp in divisors(gpus) {
            for pp in divisors(gpus / dp).into_iter().filter(|pp| dp * pp > 1) {
                let mb = if pp == 1 { 1 } else { microbatches };
                for grid in square_depth_factorizations(gpus / (dp * pp)) {
                    let shape = HybridShape::new(dp, pp, grid);
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
    fn labels() {
        assert_eq!(Candidate::tesseract(GridShape::new(4, 4)).label(), "tesseract[4,4,4]");
        assert_eq!(Candidate::Megatron { p: 64 }.label(), "megatron[64]");
        let h = Candidate::Hybrid {
            shape: HybridShape::new(2, 2, GridShape::new(2, 2)),
            microbatches: 4,
        };
        assert_eq!(h.label(), "hybrid[dp=2,pp=2,tess=[2,2,2],mb=4]");
        // Microbatching a one-stage grid is a hybrid, not the bare grid.
        let mb2 = Candidate::Hybrid {
            shape: HybridShape::new(1, 1, GridShape::new(2, 1)),
            microbatches: 2,
        };
        assert_eq!(mb2.label(), "hybrid[dp=1,pp=1,tess=[2,2,1],mb=2]");
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
        // Wrong capacity: the error names the candidate's label.
        let t = Candidate::tesseract(GridShape::new(2, 2));
        assert_eq!(
            t.check(&cfg, 12).unwrap_err().to_string(),
            "tesseract[2,2,2] needs 8 ranks but 12 are available"
        );
        // Hybrid with pp not dividing layers.
        let h = Candidate::Hybrid {
            shape: HybridShape::new(1, 3, GridShape::new(2, 1)),
            microbatches: 1,
        };
        assert_eq!(h.check(&cfg, 12).unwrap_err().to_string(), "layers 8 not divisible by pp = 3");
        // Zero microbatches is rejected, not a remainder by zero.
        let h0 = Candidate::Hybrid {
            shape: HybridShape::new(2, 1, GridShape::new(2, 1)),
            microbatches: 0,
        };
        assert_eq!(h0.check(&cfg, 8).unwrap_err().to_string(), "microbatches must be positive");
        // So is a zero-rank Megatron group.
        let m0 = Candidate::Megatron { p: 0 };
        assert_eq!(m0.check(&cfg, 0).unwrap_err().to_string(), "megatron p must be positive");
        // Feasible Tesseract.
        assert_eq!(t.check(&cfg, 8), Ok(()));
    }

    #[test]
    fn enumerate_covers_all_menus() {
        let all = enumerate(8, CandidateMenu::all(), 2);
        assert!(all.contains(&Candidate::Megatron { p: 8 }));
        assert!(all.contains(&Candidate::tesseract(GridShape::new(2, 2))));
        // A real pipeline split of the same budget: 1 × 2 × [2,2,1].
        assert!(all.contains(&Candidate::Hybrid {
            shape: HybridShape::new(1, 2, GridShape::new(2, 1)),
            microbatches: 2,
        }));
        // Each arrangement is enumerated once.
        let labels: Vec<String> = all.iter().map(Candidate::label).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l), "{l} enumerated twice");
        }
        let paper = enumerate(8, CandidateMenu::paper_schemes(), 2);
        assert_eq!(
            paper,
            [Candidate::Megatron { p: 8 }, Candidate::tesseract(GridShape::new(2, 2))]
        );
    }
}
