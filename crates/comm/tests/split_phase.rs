//! Semantics of the split-phase (`*_begin` / `complete`) collectives: the
//! exact charges of the blocking form (`begin().complete()`), exact overlap
//! accounting, and diagnosable panics on sequencing misuse.

use std::sync::Arc;

use tesseract_comm::{Cluster, CollectiveOp, CommGroup, RankCtx, RunConfig};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike};

/// A cluster whose fabric gives up in seconds instead of minutes, so
/// misuse tests that wedge peers fail fast. Set per cluster via the
/// builder — mutating the process environment from parallel tests is a
/// race.
fn fail_fast(world: usize) -> Cluster {
    RunConfig::new(world).with_rendezvous_timeout_secs(2).cluster()
}

/// The collectives [`CommGroup`] implements, in [`CollectiveOp::ALL`] order
/// (the rest of that list is priced by the cost model but has no runtime
/// form; point-to-point is charged on its own path).
const GROUP_OPS: [CollectiveOp; 6] = [
    CollectiveOp::Broadcast,
    CollectiveOp::Reduce,
    CollectiveOp::AllReduce,
    CollectiveOp::AllGather,
    CollectiveOp::Shift,
    CollectiveOp::Barrier,
];

/// Issues one blocking `op` on `g` with a `[rows, 5]` payload per member
/// (rooted ops use member 1).
fn issue_blocking(g: &CommGroup, ctx: &mut RankCtx, op: CollectiveOp, rows: usize) {
    let mine = DenseTensor::from_matrix(Matrix::full(rows, 5, ctx.rank as f32));
    let root = 1;
    let at_root = g.my_index() == root;
    match op {
        CollectiveOp::Broadcast => {
            drop(g.broadcast_shared(ctx, root, at_root.then(|| Arc::new(mine))))
        }
        CollectiveOp::Reduce => drop(g.reduce_shared(ctx, root, mine)),
        CollectiveOp::AllReduce => drop(g.all_reduce_shared(ctx, mine)),
        CollectiveOp::AllGather => drop(g.all_gather_shared(ctx, Arc::new(mine))),
        CollectiveOp::Shift => drop(g.shift(ctx, 1, mine)),
        CollectiveOp::Barrier => g.barrier(ctx),
        other => unreachable!("{} is not in the golden table", other.name()),
    }
}

/// What the charging path booked for every blocking collective, captured
/// at the commit *before* blocking calls became `begin().complete()`: one
/// line per (world, op, payload rows) with the per-rank exit clocks (f64
/// bits; members leave a collective together, so one value covers all),
/// per-rank `comm_wait_nanos`, and the op's `calls` / `wire_bytes` / `time`
/// (f64 bits). World 4 is one NVLink node; world 8 spans two nodes, so the
/// hierarchical cost model is pinned too. Rank `r` runs `r + 1` 61³ GEMMs
/// first, so entry clocks are skewed and every rank waits a different,
/// fractional number of nanoseconds.
const GOLDEN_CHARGES: &str = "\
w4 broadcast rows=3 clock=3ef92cf7fa66a932 wait=[22007,20005,18002,16000] calls=1 wire=180 time=3ee0c720dc05b451
w4 broadcast rows=257 clock=3ef933c973ed3236 wait=[22033,20031,18028,16026] calls=1 wire=15420 time=3ee0d4c3cf12c658
w4 reduce rows=3 clock=3ef0c97c2a0bb26c wait=[14007,12005,10003,8000] calls=1 wire=180 time=3ee0c720dc05b451
w4 reduce rows=257 clock=3ef0d04da3923b6f wait=[14033,12030,10028,8026] calls=1 wire=15420 time=3ee0d4c3cf12c658
w4 all_reduce rows=3 clock=3f00c83f0ccac8d5 wait=[30007,28005,26003,24000] calls=1 wire=360 time=3ef92a925d8cb967
w4 all_reduce rows=257 clock=3f00cd5c27efaf98 wait=[30045,28043,26041,24039] calls=1 wire=30840 time=3ef934cc93d686ec
w4 all_gather rows=3 clock=3ef4fb634d88f492 wait=[18008,16005,14003,12001] calls=1 wire=180 time=3ee92aef2300389e
w4 all_gather rows=257 clock=3ef50fd7ba1c8f9c wait=[18084,16082,14079,12077] calls=1 wire=15420 time=3ee953d7fc276eb3
w4 shift rows=3 clock=3ee92f7c83bc6e10 wait=[10007,8005,6003,4000] calls=1 wire=240 time=3ed0c74a17557b14
w4 shift rows=257 clock=3ee93d1f76c98017 wait=[10033,8030,6028,4026] calls=1 wire=20560 time=3ed0e28ffd6f9f22
w4 barrier rows=3 clock=3ef92ce35cbec5d0 wait=[22007,20005,18002,16000] calls=1 wire=0 time=3ef0c6f7a0b5ed8d
w8 broadcast rows=3 clock=3f0d5efe0a5fc06c wait=[54019,52017,50014,48012,46010,44008,42005,40003] calls=1 wire=420 time=3ef4f96f13ca6761
w8 broadcast rows=257 clock=3f0d7dacad3d28fc wait=[54247,52245,50242,48240,46238,44236,42233,40231] calls=1 wire=35980 time=3ef536cc59853881
w8 reduce rows=3 clock=3f02e2a345ee0bf4 wait=[34019,32016,30014,28012,26010,24007,22005,20003] calls=1 wire=420 time=3ef4f96f13ca6761
w8 reduce rows=257 clock=3f030151e8cb7484 wait=[34247,32245,30243,28240,26238,24236,22234,20231] calls=1 wire=35980 time=3ef536cc59853881
w8 all_reduce rows=3 clock=3f12e1178f9d0f78 wait=[70016,68014,66012,64010,62007,60005,58003,56001] calls=1 wire=840 time=3f0d5c43633146ad
w8 all_reduce rows=257 clock=3f12e41334c7eb6a wait=[70061,68059,66056,64054,62052,60050,58047,56045] calls=1 wire=71960 time=3f0d623aad86fe90
w8 all_gather rows=3 clock=3f0715ab0899bd74 wait=[42028,40026,38024,36021,34019,32017,30015,28012] calls=1 wire=420 time=3efd5f7e9921ca62
w8 all_gather rows=257 clock=3f07a17143dfb63d wait=[43070,41067,39065,37063,35061,33058,31056,29054] calls=1 wire=35980 time=3efe770b0fadbbf4
w8 shift rows=3 clock=3efd61b61dd93dbe wait=[26018,24016,22014,20011,18009,16007,14005,12002] calls=1 wire=480 time=3ee92bbd4b8f1a71
w8 shift rows=257 clock=3efd9841ea0d85db wait=[26221,24219,22217,20215,18212,16210,14208,12206] calls=1 wire=41120 time=3ee998d4e3f7aaaa
w8 barrier rows=3 clock=3f0d5ea144ec4133 wait=[54016,52014,50011,48009,46007,44005,42002,40000] calls=1 wire=0 time=3f04f8b588e368f0";

#[test]
fn blocking_charges_match_the_pre_refactor_golden_table() {
    let mut lines = Vec::new();
    for world in [4usize, 8] {
        for op in GROUP_OPS {
            for rows in [3usize, 257] {
                if op == CollectiveOp::Barrier && rows != 3 {
                    continue; // no payload: one row is the whole story
                }
                let out = Cluster::a100(world).run(|ctx| {
                    let g = ctx.world_group();
                    let t = DenseTensor::from_matrix(Matrix::full(61, 61, 0.5));
                    for _ in 0..=ctx.rank {
                        let _ = t.matmul(&t, &mut ctx.meter);
                    }
                    issue_blocking(&g, ctx, op, rows);
                    ctx.flush_compute();
                    ctx.clock()
                });
                let exit = out.results[0];
                assert!(
                    out.results.iter().all(|c| c.to_bits() == exit.to_bits()),
                    "{} on {world} ranks: members left at different clocks",
                    op.name()
                );
                // Nothing ran between deposit and wait, so nothing is hidden.
                assert_eq!(out.comm.total_hidden_time(), 0.0);
                assert!(out.reports.iter().all(|r| r.overlap_hidden_nanos == 0));
                let waits: Vec<String> =
                    out.reports.iter().map(|r| r.comm_wait_nanos.to_string()).collect();
                let s = out.comm.get(op);
                assert_eq!(out.comm.total_calls(), s.calls, "only {} may be recorded", op.name());
                lines.push(format!(
                    "w{world} {} rows={rows} clock={:016x} wait=[{}] calls={} wire={} time={:016x}",
                    op.name(),
                    exit.to_bits(),
                    waits.join(","),
                    s.calls,
                    s.wire_bytes,
                    s.time.to_bits()
                ));
            }
        }
    }
    let golden: Vec<&str> = GOLDEN_CHARGES.lines().collect();
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, want, "charge moved");
    }
    assert_eq!(lines.len(), golden.len(), "golden table row count:\n{}", lines.join("\n"));
}

/// Compute issued between `begin` and `complete` hides the rendezvous
/// wait: the clock charges only the non-overlapped remainder, the hidden
/// portion lands in the meter/stats, and the makespan strictly improves —
/// with bitwise-identical data.
#[test]
fn overlap_charges_only_the_non_overlapped_remainder() {
    let n = 2;
    let serial = Cluster::a100(n).run(|ctx| {
        let g = ctx.world_group();
        let payload = Arc::new(DenseTensor::from_matrix(Matrix::full(64, 64, 1.5)));
        let b = g.broadcast_shared(ctx, 0, (ctx.rank == 0).then(|| Arc::clone(&payload)));
        let t = DenseTensor::from_matrix(Matrix::full(24, 24, 0.5));
        let _ = t.matmul(&t, &mut ctx.meter);
        ctx.flush_compute();
        b.matrix().clone()
    });
    let overlapped = Cluster::a100(n).run(|ctx| {
        let g = ctx.world_group();
        let payload = Arc::new(DenseTensor::from_matrix(Matrix::full(64, 64, 1.5)));
        let pending =
            g.broadcast_shared_begin(ctx, 0, (ctx.rank == 0).then(|| Arc::clone(&payload)));
        let t = DenseTensor::from_matrix(Matrix::full(24, 24, 0.5));
        let _ = t.matmul(&t, &mut ctx.meter);
        let b = pending.complete(ctx);
        ctx.flush_compute();
        b.matrix().clone()
    });
    assert_eq!(serial.results, overlapped.results, "overlap must not change data");
    assert!(
        overlapped.makespan() < serial.makespan(),
        "hiding the broadcast under the GEMM must shrink the makespan: \
         {} vs {}",
        overlapped.makespan(),
        serial.makespan()
    );
    assert!(overlapped.comm.total_hidden_time() > 0.0);
    assert_eq!(serial.comm.total_hidden_time(), 0.0);
    for (s, o) in serial.reports.iter().zip(overlapped.reports.iter()) {
        assert!(o.overlap_hidden_nanos > 0, "rank {} hid no wait", o.rank);
        assert_eq!(s.overlap_hidden_nanos, 0);
        assert!(o.comm_wait_nanos < s.comm_wait_nanos, "rank {} paid the full wait", o.rank);
        // Same compute either way; the win is pure communication time.
        assert_eq!(s.compute_time, o.compute_time);
        // The makespan decomposition must survive overlap accounting.
        assert!((o.compute_time + o.comm_time - o.virtual_time).abs() < 1e-12);
    }
}

/// Pending collectives on one group form a FIFO; completing a younger
/// begin before an older one is a sequencing bug and must panic with a
/// pinned diagnostic.
#[test]
#[should_panic(expected = "split-phase collective completed out of order: \
                           completing broadcast seq 1 but the oldest outstanding begin is seq 0")]
fn out_of_order_complete_panics() {
    fail_fast(2).run(|ctx| {
        let g = ctx.world_group();
        let first = g.broadcast_shared_begin(
            ctx,
            0,
            (ctx.rank == 0).then(|| Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)))),
        );
        let second = g.broadcast_shared_begin(
            ctx,
            0,
            (ctx.rank == 0).then(|| Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 2.0)))),
        );
        let _ = second.complete(ctx);
        let _ = first.complete(ctx);
    });
}

/// Dropping a pending collective without completing it would silently
/// desynchronize the group's SPMD schedule; the handle panics instead.
#[test]
#[should_panic(expected = "split-phase broadcast (seq 0) dropped without complete()")]
fn dropping_pending_without_complete_panics() {
    fail_fast(1).run(|ctx| {
        let g = ctx.world_group();
        let pending = g.broadcast_shared_begin(
            ctx,
            0,
            Some(Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)))),
        );
        drop(pending);
    });
}
