//! Property-based tests for the communication substrate: cost-model
//! invariants and collective semantics on randomized inputs.

use std::sync::Arc;

use proptest::prelude::*;
use tesseract_comm::{CollectiveOp, CostParams, Link, RunConfig, Topology};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collective_time_is_nonnegative_and_monotone_in_bytes(
        n in 1usize..64,
        bytes in 0usize..(1 << 24),
        more in 1usize..(1 << 20),
    ) {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            for link in [Link::NvLink, Link::InfiniBand] {
                let t1 = p.collective_time(op, n, bytes, link);
                let t2 = p.collective_time(op, n, bytes + more, link);
                prop_assert!(t1 >= 0.0, "{op:?}");
                prop_assert!(t2 >= t1, "{op:?} must be monotone in bytes");
            }
        }
    }

    #[test]
    fn ib_never_beats_nvlink(n in 2usize..64, bytes in 1usize..(1 << 24)) {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            let nv = p.collective_time(op, n, bytes, Link::NvLink);
            let ib = p.collective_time(op, n, bytes, Link::InfiniBand);
            prop_assert!(ib >= nv, "{op:?}");
        }
    }

    #[test]
    fn wire_bytes_scale_linearly(n in 2usize..32, bytes in 1usize..(1 << 16)) {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            let w1 = p.wire_bytes(op, n, bytes);
            let w2 = p.wire_bytes(op, n, 2 * bytes);
            prop_assert_eq!(w2, 2 * w1, "{:?}", op);
        }
    }

    #[test]
    fn node_packing_is_consistent(gpus_per_node in 1usize..16, rank in 0usize..256) {
        let t = Topology::new(gpus_per_node);
        let node = t.node_of(rank);
        prop_assert!(rank >= node * gpus_per_node);
        prop_assert!(rank < (node + 1) * gpus_per_node);
    }

    #[test]
    fn worst_link_is_symmetric_under_rank_order(a in 0usize..64, b in 0usize..64) {
        let t = Topology::meluxina();
        prop_assert_eq!(t.link_between(a, b), t.link_between(b, a));
    }

    #[test]
    fn hierarchical_cost_is_sandwiched_between_nvlink_and_flat_ib(
        gpus_per_node in 1usize..9,
        mut ranks in proptest::collection::vec(0usize..128, 32),
        len in 2usize..32,
        bytes in 0usize..(1 << 26),
    ) {
        // The charged two-level cost can never undercut running the whole
        // group on one NVLink island, and size-based selection means it can
        // never exceed the flat single-level charge on the slow fabric.
        ranks.truncate(len);
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.len() < 2 {
            // All draws collided; extend to keep the group non-trivial.
            let next = ranks[0] + 1;
            ranks.push(next);
        }
        let t = Topology::new(gpus_per_node);
        let placement = t.placement(&ranks);
        let p = CostParams::a100_cluster();
        let n = ranks.len();
        for op in CollectiveOp::ALL {
            let c = p.phased_collective_time(op, bytes, placement);
            let nv = p.collective_time(op, n, bytes, Link::NvLink);
            let ib = p.collective_time(op, n, bytes, Link::InfiniBand);
            prop_assert!(c.total >= nv, "{op:?} below NVLink bound: {c:?} vs {nv}");
            prop_assert!(c.total <= ib, "{op:?} above flat IB charge: {c:?} vs {ib}");
            // The flat field must be exactly the legacy worst-link charge.
            let flat = p.collective_time(op, n, bytes, t.worst_link(&ranks));
            prop_assert_eq!(c.flat, flat, "{:?}", op);
        }
    }
}

proptest! {
    // Each case spawns threads; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn all_reduce_equals_sum_of_deposits(n in 2usize..6, seed in 0u64..1000) {
        let values: Vec<f32> = (0..n).map(|r| ((seed + r as u64) % 17) as f32 - 8.0).collect();
        let expected: f32 = values.iter().sum();
        let vals = values.clone();
        let out = RunConfig::from_env(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(2, 2, vals[ctx.rank]));
            g.all_reduce_shared(ctx, t).matrix()[(1, 1)]
        });
        for v in out.results {
            prop_assert!((v - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn shift_by_group_size_is_identity(n in 2usize..6, offset_mult in 1usize..3) {
        let out = RunConfig::from_env(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            // Shifting by a multiple of the group size returns own payload.
            let got = g.shift(ctx, (n * offset_mult) as isize, Arc::new(t));
            got.matrix()[(0, 0)] as usize == ctx.rank
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn collectives_deliver_the_sum_and_the_concatenation_bitwise(
        n in 2usize..5,
        rows in 1usize..6,
        cols in 1usize..6,
        root in 0usize..5,
        seed in 0u64..1000,
    ) {
        // Every rank can regenerate every member's payload, so it checks
        // what it receives against the definition: broadcast delivers the
        // root's deposit, all-gather the deposits in member order, and the
        // reductions the left fold over ascending member index — bitwise,
        // on arbitrary payload shapes, for the blocking form and for a
        // split-phase pair with compute issued in between.
        let root = root % n;
        let payload = move |rank: usize| {
            let mut rng = tesseract_tensor::Xoshiro256StarStar::seed_from_u64(
                seed.wrapping_mul(31).wrapping_add(rank as u64),
            );
            DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
        };
        let out = RunConfig::from_env(n).run(move |ctx| {
            let g = ctx.world_group();
            let mine = payload(ctx.rank);
            let mut sum = payload(0).into_matrix();
            for r in 1..n {
                sum.add_assign(payload(r).matrix());
            }
            let at_root = ctx.rank == root;
            let b = g.broadcast_shared(ctx, root, at_root.then(|| Arc::new(mine.clone())));
            let b_ok = b.matrix() == payload(root).matrix();
            let ar = g.all_reduce_shared(ctx, mine.clone());
            let ar_ok = ar.matrix() == &sum;
            let r = g.reduce_shared(ctx, root, mine.clone());
            let r_ok = r.as_ref().map(|r| r.matrix() == &sum) == at_root.then_some(true);
            let ag = g.all_gather_shared(ctx, Arc::new(mine.clone()));
            let ag_ok = ag.len() == n
                && ag.iter().enumerate().all(|(i, d)| d.matrix() == payload(i).matrix());
            let pending_ar = g.all_reduce_shared_begin(ctx, mine.clone());
            let pending_ag = g.all_gather_shared_begin(ctx, Arc::new(mine.clone()));
            let _ = mine.matmul_nt(&mine, &mut ctx.meter);
            let split_ok = pending_ar.complete(ctx).matrix() == &sum
                && pending_ag
                    .complete(ctx)
                    .iter()
                    .enumerate()
                    .all(|(i, d)| d.matrix() == payload(i).matrix());
            b_ok && ar_ok && r_ok && ag_ok && split_ok
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn all_gather_preserves_order(n in 2usize..6) {
        let out = RunConfig::from_env(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32 * 3.0));
            let all = g.all_gather_shared(ctx, Arc::new(t));
            all.iter().enumerate().all(|(i, v)| v.matrix()[(0, 0)] == i as f32 * 3.0)
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }
}
