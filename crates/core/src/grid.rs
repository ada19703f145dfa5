//! The `[q, q, d]` processor grid (paper §3.1, Figure 3).
//!
//! `p = q²·d` ranks are arranged as `d` layers of `q×q` meshes. The layout
//! is declared as a named-axis [`Mesh`] — axes `[("depth", d), ("row", q),
//! ("col", q)]`, outermost-first — whose row-major strides reproduce the
//! paper's **layer-major** numbering (`rank = base + k·q² + i·q + j`): each
//! depth layer occupies consecutive ranks, so with the paper's "q² is a
//! multiple of 4" arrangement a whole layer packs into nodes and row/column
//! collectives stay on NVLink wherever possible, while the rarer depth
//! communication crosses nodes — exactly the placement rationale of §4.
//! Coordinates, offsets and the three communication fibers are all derived
//! from the mesh's axis strides rather than hard-coded literals.

use crate::config::{ShapeError, TransformerConfig};
use tesseract_comm::{CommGroup, Mesh, MeshAxis, RankCtx};

/// Shape parameters of a Tesseract arrangement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridShape {
    /// Tesseract dimension `q` (mesh side).
    pub q: usize,
    /// Tesseract depth `d`, with `1 ≤ d` (the paper studies `1 ≤ d ≤ q`).
    pub d: usize,
}

impl GridShape {
    /// Builds the shape, rejecting degenerate sides instead of panicking —
    /// the planner enumerates factorizations and needs cheap rejection.
    pub fn try_new(q: usize, d: usize) -> Result<Self, ShapeError> {
        if q == 0 || d == 0 {
            return Err(ShapeError::NonPositive { what: "grid shape" });
        }
        Ok(Self { q, d })
    }

    pub fn new(q: usize, d: usize) -> Self {
        Self::try_new(q, d).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checks that the grid consumes exactly `world` ranks.
    pub fn check_world(&self, world: usize) -> Result<(), ShapeError> {
        if self.size() != world {
            return Err(ShapeError::Capacity {
                what: format!("tesseract [{0},{0},{1}]", self.q, self.d),
                needed: self.size(),
                available: world,
            });
        }
        Ok(())
    }

    /// Whether `cfg` splits over this arrangement (paper §3.1, Figure 4):
    /// `q·d | b` (whole samples per rank) and `q | n` (whole heads per
    /// rank), which with the workload's own rule ([`TransformerConfig::check`],
    /// checked first: `n | h`) gives `q | h` and `q | 4h`, the weight
    /// blocks. Returns the first violated constraint; a zero grid side is
    /// `NonPositive`.
    pub fn check(&self, cfg: &TransformerConfig) -> Result<(), ShapeError> {
        cfg.check()?;
        let Self { q, d } = Self::try_new(self.q, self.d)?;
        for (what, value, by, divisor) in
            [("batch", cfg.batch, "q*d", q * d), ("heads", cfg.heads, "q", q)]
        {
            if !value.is_multiple_of(divisor) {
                return Err(ShapeError::Indivisible { what, value, by, divisor });
            }
        }
        Ok(())
    }

    /// Total processor count `p = q²·d`.
    pub fn size(&self) -> usize {
        self.q * self.q * self.d
    }

    /// The named-axis mesh underlying this grid: `[("depth", d),
    /// ("row", q), ("col", q)]` over ranks `base..base+q²d`. Row-major
    /// strides make the layout layer-major (`depth` outermost, `col`
    /// contiguous).
    pub fn mesh(&self, base: usize) -> Mesh {
        Mesh::new(
            base,
            vec![
                MeshAxis::new("depth", self.d),
                MeshAxis::new("row", self.q),
                MeshAxis::new("col", self.q),
            ],
        )
    }

    /// Grid coordinates `(i, j, k)` of a rank offset within the grid.
    pub fn coords_of(&self, offset: usize) -> (usize, usize, usize) {
        assert!(offset < self.size(), "offset {offset} out of grid {self:?}");
        let c = self.mesh(0).coords_of(offset);
        (c[1], c[2], c[0])
    }

    /// Rank offset of grid coordinates `(i, j, k)`.
    pub fn offset_of(&self, i: usize, j: usize, k: usize) -> usize {
        assert!(i < self.q && j < self.q && k < self.d, "({i},{j},{k}) out of grid {self:?}");
        self.mesh(0).offset_of(&[k, i, j])
    }

    /// The A/C-matrix row-block index `h = i + k·q` owned by `(i, ·, k)`
    /// (Algorithm 3 / Figure 4a: inputs are split into `q·d` row blocks).
    pub fn a_row_block(&self, i: usize, k: usize) -> usize {
        i + k * self.q
    }
}

/// One rank's handle onto a Tesseract grid: its coordinates plus the three
/// communication fibers the algorithm uses.
pub struct TesseractGrid {
    pub shape: GridShape,
    /// First global rank of this grid (grids can be embedded in a larger
    /// hybrid-parallel world).
    pub base: usize,
    /// The named-axis mesh the groups below are fibers of.
    pub mesh: Mesh,
    /// This rank's `(i, j, k)` coordinates.
    pub coords: (usize, usize, usize),
    /// Peers sharing `(i, k)`, ordered by `j` — SUMMA row broadcasts (the
    /// fiber along the `"col"` axis).
    pub row: CommGroup,
    /// Peers sharing `(j, k)`, ordered by `i` — SUMMA column broadcasts
    /// (the fiber along the `"row"` axis).
    pub col: CommGroup,
    /// Peers sharing `(i, j)`, ordered by `k` — weight-gradient all-reduce
    /// (the fiber along the `"depth"` axis).
    pub depth: CommGroup,
    /// SUMMA's schedule (`crate::mm`): `true` (the default) begins each
    /// step's panel broadcasts under the previous step's GEMM; `false`
    /// completes every collective before the next begins. Results are
    /// bitwise the same; only the virtual clock differs.
    pub overlap: bool,
}

impl TesseractGrid {
    /// Builds this rank's grid handle. Must be called by all `shape.size()`
    /// ranks `base..base+p` (SPMD).
    pub fn new(ctx: &RankCtx, shape: GridShape, base: usize) -> Self {
        let p = shape.size();
        assert!(
            ctx.rank >= base && ctx.rank < base + p,
            "rank {} outside grid [{base}, {})",
            ctx.rank,
            base + p
        );
        let mesh = shape.mesh(base);
        let c = mesh.coords_of_rank(ctx.rank);
        let (k, i, j) = (c[0], c[1], c[2]);
        // Each comm group varies exactly one named axis: the SUMMA "row"
        // group broadcasts along columns (j varies), the "col" group along
        // rows (i varies), the depth group along k.
        let row = ctx.group("tess.row", mesh.fiber_ranks("col", &c));
        let col = ctx.group("tess.col", mesh.fiber_ranks("row", &c));
        let depth = ctx.group("tess.depth", mesh.fiber_ranks("depth", &c));
        Self { shape, base, mesh, coords: (i, j, k), row, col, depth, overlap: true }
    }

    pub fn i(&self) -> usize {
        self.coords.0
    }

    pub fn j(&self) -> usize {
        self.coords.1
    }

    pub fn k(&self) -> usize {
        self.coords.2
    }

    /// Row-block index of the A/C partitions this rank owns.
    pub fn a_row_block(&self) -> usize {
        self.shape.a_row_block(self.i(), self.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::RunConfig;

    #[test]
    fn try_new_rejects_degenerate_sides_with_the_legacy_text() {
        assert_eq!(
            GridShape::try_new(0, 1).unwrap_err().to_string(),
            "grid shape must be positive"
        );
        assert_eq!(
            GridShape::try_new(2, 0).unwrap_err().to_string(),
            "grid shape must be positive"
        );
        assert_eq!(GridShape::try_new(2, 2), Ok(GridShape { q: 2, d: 2 }));
    }

    #[test]
    #[should_panic(expected = "grid shape must be positive")]
    fn new_still_panics_on_degenerate_sides() {
        GridShape::new(0, 3);
    }

    #[test]
    fn check_world_reports_capacity_mismatch() {
        let s = GridShape::new(4, 2);
        assert_eq!(s.check_world(32), Ok(()));
        assert_eq!(
            s.check_world(64).unwrap_err().to_string(),
            "tesseract [4,4,2] needs 32 ranks but 64 are available"
        );
    }

    #[test]
    fn check_reports_the_violated_constraint() {
        let tiny = TransformerConfig::tiny();
        assert_eq!(GridShape::new(2, 2).check(&tiny), Ok(()));
        let c = TransformerConfig { batch: 3, ..tiny };
        assert_eq!(
            GridShape::new(2, 2).check(&c).unwrap_err().to_string(),
            "batch 3 not divisible by q*d = 4"
        );
        let c = TransformerConfig { batch: 8, heads: 2, hidden: 16, ..tiny };
        assert_eq!(
            GridShape::new(4, 2).check(&c).unwrap_err().to_string(),
            "heads 2 not divisible by q = 4"
        );
        let c = TransformerConfig { batch: 8, hidden: 18, ..tiny };
        assert_eq!(
            GridShape::new(4, 1).check(&c).unwrap_err().to_string(),
            "hidden 18 not divisible by heads = 4"
        );
        // A zero side is rejected as such, not as "divisible by 0".
        for (q, d) in [(0, 1), (2, 0)] {
            assert_eq!(
                GridShape { q, d }.check(&tiny),
                Err(ShapeError::NonPositive { what: "grid shape" })
            );
        }
    }

    #[test]
    fn coords_round_trip() {
        let s = GridShape::new(4, 2);
        for off in 0..s.size() {
            let (i, j, k) = s.coords_of(off);
            assert_eq!(s.offset_of(i, j, k), off);
        }
    }

    #[test]
    fn size_is_q_squared_d() {
        assert_eq!(GridShape::new(4, 2).size(), 32);
    }

    #[test]
    fn layer_major_layout_packs_layers() {
        let s = GridShape::new(2, 2);
        // Layer 0 = offsets 0..4, layer 1 = offsets 4..8.
        assert_eq!(s.coords_of(0), (0, 0, 0));
        assert_eq!(s.coords_of(3), (1, 1, 0));
        assert_eq!(s.coords_of(4), (0, 0, 1));
        assert_eq!(s.coords_of(7), (1, 1, 1));
    }

    #[test]
    fn a_row_blocks_cover_qd_rows() {
        let s = GridShape::new(2, 3);
        let mut seen = vec![false; s.q * s.d];
        for k in 0..s.d {
            for i in 0..s.q {
                seen[s.a_row_block(i, k)] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn grid_groups_have_correct_membership() {
        let shape = GridShape::new(2, 2);
        let out = RunConfig::from_env(shape.size()).run(|ctx| {
            let g = TesseractGrid::new(ctx, shape, 0);
            (g.coords, g.row.ranks().to_vec(), g.col.ranks().to_vec(), g.depth.ranks().to_vec())
        });
        // Rank 0 = (0,0,0): row {0,1}, col {0,2}, depth {0,4}.
        let (c0, r0, col0, d0) = &out.results[0];
        assert_eq!(*c0, (0, 0, 0));
        assert_eq!(r0, &vec![0, 1]);
        assert_eq!(col0, &vec![0, 2]);
        assert_eq!(d0, &vec![0, 4]);
        // Rank 7 = (1,1,1): row {6,7}, col {5,7}, depth {3,7}.
        let (c7, r7, col7, d7) = &out.results[7];
        assert_eq!(*c7, (1, 1, 1));
        assert_eq!(r7, &vec![6, 7]);
        assert_eq!(col7, &vec![5, 7]);
        assert_eq!(d7, &vec![3, 7]);
    }

    #[test]
    fn grid_with_base_offset() {
        let shape = GridShape::new(2, 1);
        let out = RunConfig::from_env(8).run(|ctx| {
            // Two independent grids: ranks 0..4 and 4..8.
            let base = if ctx.rank < 4 { 0 } else { 4 };
            let g = TesseractGrid::new(ctx, shape, base);
            (g.base, g.row.ranks().to_vec())
        });
        assert_eq!(out.results[5].0, 4);
        assert_eq!(out.results[5].1, vec![4, 5]);
    }
}
