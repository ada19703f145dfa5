//! Fiber parity on the 5-axis hybrid mesh `[dp, pp, depth, row, col]`.
//!
//! `mesh_parity` (crates/comm) pins the 3-axis Tesseract fibers; this suite
//! pins the two axes the hybrid arrangement adds — `dp` and `pp` — against
//! the closed-form stride arithmetic of paper §3.4
//! (`rank = ((dp_idx·pp + pp_idx)·q²d) + k·q² + i·q + j`), including a mesh
//! based at a nonzero rank, and exercises [`Mesh::fiber_group`] as a live
//! [`CommGroup`] on the simulated cluster.

use tesseract_comm::{Mesh, MeshAxis, RunConfig};
use tesseract_core::GridShape;
use tesseract_hybrid::HybridShape;
use tesseract_tensor::{DenseTensor, Matrix};

/// Closed-form rank of §3.4's layout.
fn rank_of(shape: &HybridShape, dp: usize, pp: usize, k: usize, i: usize, j: usize) -> usize {
    let q = shape.grid().q;
    ((dp * shape.pp() + pp) * shape.grid().size()) + k * q * q + i * q + j
}

#[test]
fn five_axis_strides_match_the_closed_form() {
    let shape = HybridShape::figure6(); // dp=2, pp=2, [2,2,2] = 32 ranks.
    let mesh = shape.mesh();
    let q = shape.grid().q;
    assert_eq!(mesh.stride("col"), 1);
    assert_eq!(mesh.stride("row"), q);
    assert_eq!(mesh.stride("depth"), q * q);
    assert_eq!(mesh.stride("pp"), shape.grid().size());
    assert_eq!(mesh.stride("dp"), shape.pp() * shape.grid().size());
    for dp in 0..shape.dp() {
        for pp in 0..shape.pp() {
            for k in 0..shape.grid().d {
                for i in 0..q {
                    for j in 0..q {
                        assert_eq!(
                            mesh.rank_of(&[dp, pp, k, i, j]),
                            rank_of(&shape, dp, pp, k, i, j)
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dp_and_pp_fibers_stride_over_replicas_and_stages() {
    let shape = HybridShape::new(3, 2, GridShape::new(2, 2)); // 3·2·8 = 48.
    let mesh = shape.mesh();
    // dp fiber at (·, pp=1, k=1, i=0, j=1): the gradient all-reduce group —
    // one member per replica, pp·q²d = 16 apart.
    let at = [0usize, 1, 1, 0, 1];
    let expected: Vec<usize> = (0..shape.dp()).map(|r| rank_of(&shape, r, 1, 1, 0, 1)).collect();
    assert_eq!(mesh.fiber_ranks("dp", &at), expected);
    assert_eq!(expected, vec![13, 29, 45]);
    // ... and it agrees with the engine's own dp-group helper (which pins
    // the tesseract offset instead of raw coords).
    let tess_offset = shape.grid().offset_of(0, 1, 1);
    assert_eq!(shape.dp_group_ranks(1, tess_offset), expected);
    // pp fiber at the same point: one member per pipeline stage of replica
    // 0, q²d = 8 apart.
    let expected_pp: Vec<usize> = (0..shape.pp()).map(|s| rank_of(&shape, 0, s, 1, 0, 1)).collect();
    assert_eq!(mesh.fiber_ranks("pp", &at), expected_pp);
    assert_eq!(expected_pp, vec![5, 13]);
}

#[test]
fn nonzero_base_offsets_every_fiber() {
    // A Figure-6 world carved out of a larger cluster starting at rank 7:
    // every fiber is the base-0 fiber shifted by 7.
    let axes = |base| {
        Mesh::new(
            base,
            vec![
                MeshAxis::new("dp", 2),
                MeshAxis::new("pp", 2),
                MeshAxis::new("depth", 2),
                MeshAxis::new("row", 2),
                MeshAxis::new("col", 2),
            ],
        )
    };
    let at0 = axes(0);
    let at7 = axes(7);
    assert_eq!(at7.base(), 7);
    for off in 0..at0.size() {
        let coords = at0.coords_of(off);
        assert_eq!(at7.coords_of_rank(off + 7), coords);
        for axis in ["dp", "pp", "depth", "row", "col"] {
            let shifted: Vec<usize> =
                at0.fiber_ranks(axis, &coords).into_iter().map(|r| r + 7).collect();
            assert_eq!(at7.fiber_ranks(axis, &coords), shifted);
        }
    }
}

#[test]
fn fiber_group_builds_live_collective_groups() {
    // Every rank of a Figure-6 world joins its dp fiber and its pp fiber as
    // real CommGroups and all-reduces a rank-valued scalar through each:
    // the sums only come out right if membership and ordering match the
    // closed form on every rank.
    let shape = HybridShape::figure6();
    let out = RunConfig::from_env(shape.total()).run(move |ctx| {
        let mesh = shape.mesh();
        let dp_group = mesh.fiber_group(ctx, "mesh5.dp", "dp");
        let pp_group = mesh.fiber_group(ctx, "mesh5.pp", "pp");
        let me = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
        let dp_sum = dp_group.all_reduce_shared(ctx, me.clone());
        let pp_sum = pp_group.all_reduce_shared(ctx, me);
        (
            dp_group.ranks().to_vec(),
            pp_group.ranks().to_vec(),
            dp_sum.matrix().data()[0],
            pp_sum.matrix().data()[0],
        )
    });
    for (rank, (dp_ranks, pp_ranks, dp_sum, pp_sum)) in out.results.iter().enumerate() {
        let coords = shape.mesh().coords_of(rank);
        let want_dp = shape.mesh().fiber_ranks("dp", &coords);
        let want_pp = shape.mesh().fiber_ranks("pp", &coords);
        assert_eq!(*dp_ranks, want_dp, "rank {rank} dp fiber");
        assert_eq!(*pp_ranks, want_pp, "rank {rank} pp fiber");
        assert_eq!(*dp_sum, want_dp.iter().sum::<usize>() as f32, "rank {rank} dp sum");
        assert_eq!(*pp_sum, want_pp.iter().sum::<usize>() as f32, "rank {rank} pp sum");
    }
}
