//! Rank mapping for hybrid parallelism (paper §3.4, Figure 6).
//!
//! `total = dp · pp · q²·d` GPUs, declared as the 5-axis named mesh
//! `[("dp", dp), ("pp", pp), ("depth", d), ("row", q), ("col", q)]`: each
//! Tesseract module ("blocks in the same color" in Figure 6) occupies
//! consecutive ranks, pipeline stages of one data-parallel replica are
//! adjacent, and data-parallel replicas are outermost — the mesh's
//! row-major strides reproduce
//!
//! `rank = ((dp_idx · pp + pp_idx) · tesseract_size) + tesseract_offset`
//!
//! and the gradient all-reduce groups are the fibers along the `"dp"` axis.

use tesseract_comm::{Mesh, MeshAxis};
use tesseract_core::{GridShape, ShapeError, TransformerConfig};

/// Shape of a hybrid dp × pp × Tesseract arrangement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
///
/// The fields are private, so every value comes through
/// [`HybridShape::try_new`] and has positive degrees.
pub struct HybridShape {
    dp: usize,
    pp: usize,
    grid: GridShape,
}

/// A rank's position in the hybrid arrangement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridCoords {
    pub dp_idx: usize,
    pub pp_idx: usize,
    /// Offset within the Tesseract module; decode with
    /// `GridShape::coords_of`.
    pub tess_offset: usize,
}

impl HybridShape {
    /// Builds the shape, rejecting degenerate degrees instead of panicking
    /// (the planner enumerates `dp × pp` factorizations and needs cheap
    /// rejection).
    pub fn try_new(dp: usize, pp: usize, grid: GridShape) -> Result<Self, ShapeError> {
        if dp == 0 || pp == 0 {
            return Err(ShapeError::NonPositive { what: "hybrid dp and pp" });
        }
        Ok(Self { dp, pp, grid })
    }

    pub fn new(dp: usize, pp: usize, grid: GridShape) -> Self {
        Self::try_new(dp, pp, grid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Data-parallel degree.
    pub fn dp(&self) -> usize {
        self.dp
    }

    /// Pipeline-parallel degree (number of stages).
    pub fn pp(&self) -> usize {
        self.pp
    }

    /// Tensor-parallel (Tesseract) grid of each module.
    pub fn grid(&self) -> GridShape {
        self.grid
    }

    /// Checks that the arrangement consumes exactly `world` ranks.
    pub fn check_world(&self, world: usize) -> Result<(), ShapeError> {
        if self.total() != world {
            return Err(ShapeError::Capacity {
                what: format!(
                    "hybrid dp={} x pp={} x [{2},{2},{3}]",
                    self.dp, self.pp, self.grid.q, self.grid.d
                ),
                needed: self.total(),
                available: world,
            });
        }
        Ok(())
    }

    /// Checks that `pp` evenly carves a `layers`-deep stack and returns the
    /// per-stage depth.
    pub fn check_carve(&self, layers: usize) -> Result<usize, ShapeError> {
        if !layers.is_multiple_of(self.pp) {
            return Err(ShapeError::Indivisible {
                what: "layers",
                value: layers,
                by: "pp",
                divisor: self.pp,
            });
        }
        Ok(layers / self.pp)
    }

    /// The configuration of one microbatch when a GPipe step splits `cfg`'s
    /// global batch over `dp` replicas and `microbatches` waves: the
    /// arrangement's one feasibility rule. It needs `cfg` to pass its own
    /// rule ([`TransformerConfig::check`]) and `microbatches` positive
    /// (the degrees are positive by construction), `pp | layers`,
    /// `dp·microbatches | batch` and the grid to fit the microbatch;
    /// `layers` stays the whole stack's.
    pub fn micro_config(
        &self,
        cfg: &TransformerConfig,
        microbatches: usize,
    ) -> Result<TransformerConfig, ShapeError> {
        cfg.check()?;
        if microbatches == 0 {
            return Err(ShapeError::NonPositive { what: "microbatches" });
        }
        self.check_carve(cfg.layers)?;
        let split = self.dp * microbatches;
        if !cfg.batch.is_multiple_of(split) {
            return Err(ShapeError::Indivisible {
                what: "batch",
                value: cfg.batch,
                by: "dp*microbatches",
                divisor: split,
            });
        }
        let micro = TransformerConfig { batch: cfg.batch / split, ..*cfg };
        self.grid.check(&micro)?;
        Ok(micro)
    }

    /// The paper's Figure 6 example: dp = 2, pp = 2, Tesseract `[2, 2, 2]`
    /// → 32 GPUs.
    pub fn figure6() -> Self {
        Self::new(2, 2, GridShape::new(2, 2))
    }

    /// Total GPU count `dp · pp · q²·d`.
    pub fn total(&self) -> usize {
        self.dp * self.pp * self.grid.size()
    }

    /// The named-axis mesh underlying the whole hybrid world: the Tesseract
    /// axes innermost (so modules are contiguous), `pp` next (stages of one
    /// replica adjacent), `dp` outermost.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(
            0,
            vec![
                MeshAxis::new("dp", self.dp),
                MeshAxis::new("pp", self.pp),
                MeshAxis::new("depth", self.grid.d),
                MeshAxis::new("row", self.grid.q),
                MeshAxis::new("col", self.grid.q),
            ],
        )
    }

    pub fn coords_of(&self, rank: usize) -> HybridCoords {
        assert!(rank < self.total(), "rank {rank} out of hybrid world {self:?}");
        let c = self.mesh().coords_of(rank);
        HybridCoords {
            dp_idx: c[0],
            pp_idx: c[1],
            tess_offset: self.grid.offset_of(c[3], c[4], c[2]),
        }
    }

    pub fn rank_of(&self, c: HybridCoords) -> usize {
        let (i, j, k) = self.grid.coords_of(c.tess_offset);
        self.mesh().rank_of(&[c.dp_idx, c.pp_idx, k, i, j])
    }

    /// First rank of the Tesseract module at `(dp_idx, pp_idx)`.
    pub fn module_base(&self, dp_idx: usize, pp_idx: usize) -> usize {
        self.mesh().rank_of(&[dp_idx, pp_idx, 0, 0, 0])
    }

    /// Ranks holding the same Tesseract position across data-parallel
    /// replicas at one pipeline stage — the gradient all-reduce group: the
    /// mesh fiber along the `"dp"` axis.
    pub fn dp_group_ranks(&self, pp_idx: usize, tess_offset: usize) -> Vec<usize> {
        let (i, j, k) = self.grid.coords_of(tess_offset);
        self.mesh().fiber_ranks("dp", &[0, pp_idx, k, i, j])
    }

    /// Renders the Figure-6-style arrangement map.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "hybrid arrangement: dp={} x pp={} x tesseract [q={}, q={}, d={}] = {} GPUs\n",
            self.dp,
            self.pp,
            self.grid.q,
            self.grid.q,
            self.grid.d,
            self.total()
        ));
        for dp_idx in 0..self.dp {
            for pp_idx in 0..self.pp {
                let base = self.module_base(dp_idx, pp_idx);
                out.push_str(&format!(
                    "  replica {dp_idx}, stage {pp_idx}: ranks {base}..{}\n",
                    base + self.grid.size()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_has_32_gpus() {
        // §3.4: "The number of total GPU involved will be 32 equals to data
        // parallel size times pipeline parallel size times tesseract depth
        // times square of tesseract dimension."
        assert_eq!(HybridShape::figure6().total(), 32);
    }

    #[test]
    fn coords_round_trip() {
        let s = HybridShape::new(2, 3, GridShape::new(2, 1));
        for rank in 0..s.total() {
            assert_eq!(s.rank_of(s.coords_of(rank)), rank);
        }
    }

    #[test]
    fn modules_are_contiguous() {
        let s = HybridShape::figure6();
        let base = s.module_base(1, 0);
        for off in 0..8 {
            let c = s.coords_of(base + off);
            assert_eq!((c.dp_idx, c.pp_idx, c.tess_offset), (1, 0, off));
        }
    }

    #[test]
    fn dp_groups_stride_over_replicas() {
        let s = HybridShape::figure6(); // module size 8, pp 2.
        assert_eq!(s.dp_group_ranks(0, 3), vec![3, 19]);
        assert_eq!(s.dp_group_ranks(1, 0), vec![8, 24]);
    }

    #[test]
    fn try_new_and_checks_report_descriptive_errors() {
        assert_eq!(
            HybridShape::try_new(0, 2, GridShape::new(2, 1)).unwrap_err().to_string(),
            "hybrid dp and pp must be positive"
        );
        let s = HybridShape::figure6(); // dp=2, pp=2, [2,2,2] = 32 ranks.
        assert_eq!(s.check_world(32), Ok(()));
        assert_eq!(
            s.check_world(16).unwrap_err().to_string(),
            "hybrid dp=2 x pp=2 x [2,2,2] needs 32 ranks but 16 are available"
        );
        assert_eq!(s.check_carve(8), Ok(4));
        assert_eq!(s.check_carve(6), Ok(3));
        assert_eq!(s.check_carve(7).unwrap_err().to_string(), "layers 7 not divisible by pp = 2");
    }

    #[test]
    fn micro_config_splits_the_batch_once_and_reports_each_rule() {
        let cfg = TransformerConfig { batch: 16, layers: 4, ..TransformerConfig::tiny() };
        let s = HybridShape::figure6(); // dp=2, pp=2, [2,2,2].
        let micro = s.micro_config(&cfg, 2).unwrap();
        assert_eq!(micro, TransformerConfig { batch: 4, ..cfg });
        let err = |s: HybridShape, cfg: &TransformerConfig, mb| {
            s.micro_config(cfg, mb).unwrap_err().to_string()
        };
        assert_eq!(err(s, &cfg, 0), "microbatches must be positive");
        assert_eq!(
            err(s, &TransformerConfig { layers: 3, ..cfg }, 2),
            "layers 3 not divisible by pp = 2"
        );
        assert_eq!(err(s, &cfg, 3), "batch 16 not divisible by dp*microbatches = 6");
        // The grid must fit the microbatch, not the global batch.
        assert_eq!(err(s, &cfg, 8), "batch 1 not divisible by q*d = 4");
        let zero_dp = HybridShape::try_new(0, s.pp(), s.grid());
        assert_eq!(zero_dp.unwrap_err().to_string(), "hybrid dp and pp must be positive");
    }

    #[test]
    fn describe_mentions_every_module() {
        let s = HybridShape::figure6();
        let d = s.describe();
        assert!(d.contains("32 GPUs"));
        assert!(d.contains("replica 1, stage 1"));
    }
}
