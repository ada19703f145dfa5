//! Bitwise parity between the mesh-derived `[q,q,d]` layout and the legacy
//! hard-coded layer-major literals.
//!
//! `TesseractGrid` now derives coordinates and its row/col/depth fibers
//! from the named-axis `Mesh` (`[("depth",d),("row",q),("col",q)]`). These
//! tests pin that derivation to the original closed forms — same members,
//! same order — on the paper's `[2,2,1]`, `[2,2,2]` and `[4,4,2]`
//! arrangements, so the refactor cannot silently renumber any rank group.

use tesseract_comm::RunConfig;
use tesseract_core::{GridShape, TesseractGrid};

/// Legacy layout literals, re-encoded independently of `GridShape`:
/// `rank = base + k·q² + i·q + j`.
fn legacy_offset(q: usize, i: usize, j: usize, k: usize) -> usize {
    k * q * q + i * q + j
}

fn legacy_coords(q: usize, off: usize) -> (usize, usize, usize) {
    let layer = q * q;
    ((off % layer) / q, off % q, off / layer)
}

const SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (4, 2)];

#[test]
fn mesh_coords_and_offsets_match_legacy_literals() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        for off in 0..shape.size() {
            assert_eq!(shape.coords_of(off), legacy_coords(q, off), "[{q},{q},{d}] off {off}");
        }
        for k in 0..d {
            for i in 0..q {
                for j in 0..q {
                    assert_eq!(
                        shape.offset_of(i, j, k),
                        legacy_offset(q, i, j, k),
                        "[{q},{q},{d}] ({i},{j},{k})"
                    );
                }
            }
        }
    }
}

#[test]
fn mesh_fibers_match_legacy_group_construction() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        let base = 3; // an embedded grid must offset every member
        let mesh = shape.mesh(base);
        for off in 0..shape.size() {
            let (i, j, k) = legacy_coords(q, off);
            let coords = mesh.coords_of(off);
            assert_eq!(coords, vec![k, i, j]);
            // Legacy loops: row varies j, col varies i, depth varies k —
            // each ascending along the varied index.
            let row: Vec<usize> = (0..q).map(|jj| base + legacy_offset(q, i, jj, k)).collect();
            let col: Vec<usize> = (0..q).map(|ii| base + legacy_offset(q, ii, j, k)).collect();
            let depth: Vec<usize> = (0..d).map(|kk| base + legacy_offset(q, i, j, kk)).collect();
            assert_eq!(mesh.fiber_ranks("col", &coords), row, "[{q},{q},{d}] row fiber @ {off}");
            assert_eq!(mesh.fiber_ranks("row", &coords), col, "[{q},{q},{d}] col fiber @ {off}");
            assert_eq!(
                mesh.fiber_ranks("depth", &coords),
                depth,
                "[{q},{q},{d}] depth fiber @ {off}"
            );
        }
    }
}

#[test]
fn constructed_grid_groups_match_legacy_membership_end_to_end() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        let out = RunConfig::from_env(shape.size()).run(move |ctx| {
            let g = TesseractGrid::new(ctx, shape, 0);
            (g.coords, g.row.ranks().to_vec(), g.col.ranks().to_vec(), g.depth.ranks().to_vec())
        });
        for (rank, (coords, row, col, depth)) in out.results.iter().enumerate() {
            let (i, j, k) = legacy_coords(q, rank);
            assert_eq!(*coords, (i, j, k), "[{q},{q},{d}] rank {rank}");
            let want_row: Vec<usize> = (0..q).map(|jj| legacy_offset(q, i, jj, k)).collect();
            let want_col: Vec<usize> = (0..q).map(|ii| legacy_offset(q, ii, j, k)).collect();
            let want_depth: Vec<usize> = (0..d).map(|kk| legacy_offset(q, i, j, kk)).collect();
            assert_eq!(row, &want_row, "[{q},{q},{d}] rank {rank} row group");
            assert_eq!(col, &want_col, "[{q},{q},{d}] rank {rank} col group");
            assert_eq!(depth, &want_depth, "[{q},{q},{d}] rank {rank} depth group");
        }
    }
}
