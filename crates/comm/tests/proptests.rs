//! Property tests for the communication substrate: cost-model invariants
//! and collective semantics on randomized inputs. Each test loops over its
//! cases and draws every input from its own `Xoshiro256StarStar`, seeded
//! with a constant.

use std::sync::Arc;

use tesseract_comm::{CollectiveOp, CostParams, Link, RunConfig, Topology};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike, Xoshiro256StarStar};

#[test]
fn collective_time_is_nonnegative_and_monotone_in_bytes() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(201);
    for _ in 0..64 {
        let n = 1 + rng.next_usize(63);
        let bytes = rng.next_usize(1 << 24);
        let more = 1 + rng.next_usize((1 << 20) - 1);
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            for link in [Link::NvLink, Link::InfiniBand] {
                let t1 = p.collective_time(op, n, bytes, link);
                let t2 = p.collective_time(op, n, bytes + more, link);
                assert!(t1 >= 0.0, "{op:?}");
                assert!(t2 >= t1, "{op:?} must be monotone in bytes");
            }
        }
    }
}

#[test]
fn ib_never_beats_nvlink() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(202);
    for _ in 0..64 {
        let (n, bytes) = (2 + rng.next_usize(62), 1 + rng.next_usize((1 << 24) - 1));
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            let nv = p.collective_time(op, n, bytes, Link::NvLink);
            let ib = p.collective_time(op, n, bytes, Link::InfiniBand);
            assert!(ib >= nv, "{op:?} on {n} ranks, {bytes} bytes");
        }
    }
}

#[test]
fn wire_bytes_scale_linearly() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(203);
    for _ in 0..64 {
        let (n, bytes) = (2 + rng.next_usize(30), 1 + rng.next_usize((1 << 16) - 1));
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            let w1 = p.wire_bytes(op, n, bytes);
            let w2 = p.wire_bytes(op, n, 2 * bytes);
            assert_eq!(w2, 2 * w1, "{op:?}");
        }
    }
}

#[test]
fn node_packing_is_consistent() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(204);
    for _ in 0..64 {
        let (gpus_per_node, rank) = (1 + rng.next_usize(15), rng.next_usize(256));
        let t = Topology::new(gpus_per_node);
        let node = t.node_of(rank);
        assert!(rank >= node * gpus_per_node);
        assert!(rank < (node + 1) * gpus_per_node);
    }
}

#[test]
fn worst_link_is_symmetric_under_rank_order() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(205);
    for _ in 0..64 {
        let (a, b) = (rng.next_usize(64), rng.next_usize(64));
        let t = Topology::meluxina();
        assert_eq!(t.link_between(a, b), t.link_between(b, a));
    }
}

#[test]
fn hierarchical_cost_is_sandwiched_between_nvlink_and_flat_ib() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(206);
    for _ in 0..64 {
        let gpus_per_node = 1 + rng.next_usize(8);
        let mut ranks: Vec<usize> = (0..32).map(|_| rng.next_usize(128)).collect();
        let len = 2 + rng.next_usize(30);
        let bytes = rng.next_usize(1 << 26);
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
            assert!(c.total >= nv, "{op:?} below NVLink bound: {c:?} vs {nv}");
            assert!(c.total <= ib, "{op:?} above flat IB charge: {c:?} vs {ib}");
            // The flat field must be exactly the legacy worst-link charge.
            let flat = p.collective_time(op, n, bytes, t.worst_link(&ranks));
            assert_eq!(c.flat, flat, "{op:?}");
        }
    }
}

// Each case of the tests below spawns threads; keep the counts small.

#[test]
fn all_reduce_equals_sum_of_deposits() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(207);
    for _ in 0..8 {
        let (n, seed) = (2 + rng.next_usize(4), rng.next_usize(1000) as u64);
        let values: Vec<f32> = (0..n).map(|r| ((seed + r as u64) % 17) as f32 - 8.0).collect();
        let expected: f32 = values.iter().sum();
        let vals = values.clone();
        let out = RunConfig::from_env(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(2, 2, vals[ctx.rank]));
            g.all_reduce_shared(ctx, t).matrix()[(1, 1)]
        });
        for v in out.results {
            assert!((v - expected).abs() < 1e-5);
        }
    }
}

#[test]
fn shift_by_group_size_is_identity() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(208);
    for _ in 0..8 {
        let (n, offset_mult) = (2 + rng.next_usize(4), 1 + rng.next_usize(2));
        let out = RunConfig::from_env(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            // Shifting by a multiple of the group size returns own payload.
            let got = g.shift(ctx, (n * offset_mult) as isize, Arc::new(t));
            got.matrix()[(0, 0)] as usize == ctx.rank
        });
        assert!(out.results.iter().all(|&ok| ok));
    }
}

#[test]
fn collectives_deliver_the_sum_and_the_concatenation_bitwise() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(209);
    for _ in 0..8 {
        let n = 2 + rng.next_usize(3);
        let (rows, cols) = (1 + rng.next_usize(5), 1 + rng.next_usize(5));
        let root = rng.next_usize(5) % n;
        // Every rank sees every member's payload, so it checks what it
        // receives against the definition: broadcast delivers the root's
        // deposit, all-gather the deposits in member order, and the
        // reductions the left fold over ascending member index — bitwise,
        // on arbitrary payload shapes, for the blocking form and for a
        // split-phase pair with compute issued in between.
        let payloads: Vec<DenseTensor> = (0..n)
            .map(|_| {
                DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
            })
            .collect();
        let out = RunConfig::from_env(n).run(|ctx| {
            let g = ctx.world_group();
            let mine = payloads[ctx.rank].clone();
            let mut sum = payloads[0].matrix().clone();
            for p in &payloads[1..] {
                sum.add_assign(p.matrix());
            }
            let at_root = ctx.rank == root;
            let b = g.broadcast_shared(ctx, root, at_root.then(|| Arc::new(mine.clone())));
            let b_ok = b.matrix() == payloads[root].matrix();
            let ar = g.all_reduce_shared(ctx, mine.clone());
            let ar_ok = ar.matrix() == &sum;
            let r = g.reduce_shared(ctx, root, mine.clone());
            let r_ok = r.as_ref().map(|r| r.matrix() == &sum) == at_root.then_some(true);
            let ag = g.all_gather_shared(ctx, Arc::new(mine.clone()));
            let ag_ok = ag.len() == n
                && ag.iter().enumerate().all(|(i, d)| d.matrix() == payloads[i].matrix());
            let pending_ar = g.all_reduce_shared_begin(ctx, mine.clone());
            let pending_ag = g.all_gather_shared_begin(ctx, Arc::new(mine.clone()));
            let _ = mine.matmul_nt(&mine, &mut ctx.meter);
            let split_ok = pending_ar.complete(ctx).matrix() == &sum
                && pending_ag
                    .complete(ctx)
                    .iter()
                    .enumerate()
                    .all(|(i, d)| d.matrix() == payloads[i].matrix());
            b_ok && ar_ok && r_ok && ag_ok && split_ok
        });
        assert!(out.results.iter().all(|&ok| ok));
    }
}

#[test]
fn all_gather_preserves_order() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(210);
    for _ in 0..8 {
        let n = 2 + rng.next_usize(4);
        let out = RunConfig::from_env(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32 * 3.0));
            let all = g.all_gather_shared(ctx, Arc::new(t));
            all.iter().enumerate().all(|(i, v)| v.matrix()[(0, 0)] == i as f32 * 3.0)
        });
        assert!(out.results.iter().all(|&ok| ok));
    }
}
