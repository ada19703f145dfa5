//! Failure-injection tests: the simulated cluster must convert misuse into
//! diagnosable panics rather than silent corruption or hangs.

use std::panic;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tesseract_comm::{Cluster, RunConfig};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike};

/// A cluster whose fabric gives up in seconds instead of minutes, so
/// ranks that survive an injected failure fail fast. Set per cluster via
/// the builder — mutating the process environment from parallel tests is
/// a race.
fn fail_fast(world: usize) -> Cluster {
    RunConfig::new(world).with_rendezvous_timeout_secs(2).cluster()
}

#[test]
#[should_panic(expected = "rank 1 panicked")]
fn rank_panics_are_propagated_with_rank_id() {
    fail_fast(2).run(|ctx| {
        if ctx.rank == 1 {
            panic!("deliberate failure");
        }
        // Rank 0 does local work only, so it finishes without deadlocking.
        let t = DenseTensor::from_matrix(Matrix::full(2, 2, 1.0));
        let _ = t.matmul(&t, &mut ctx.meter);
    });
}

/// A rank that panics while its peer waits at a rendezvous is the one
/// blamed, at once: the peer is woken instead of waiting out its timeout
/// and being reported as `rank 0 panicked: rendezvous … timed out`.
#[test]
fn a_panicking_rank_is_blamed_not_the_peer_it_strands() {
    let start = Instant::now();
    let err = panic::catch_unwind(|| {
        fail_fast(2).run(|ctx| {
            if ctx.rank == 1 {
                panic!("deliberate failure");
            }
            ctx.world_group().barrier(ctx);
        })
    })
    .expect_err("a rank panicked");
    let msg = err.downcast_ref::<String>().expect("run panics with a String");
    assert_eq!(msg, "rank 1 panicked: deliberate failure");
    assert!(start.elapsed() < Duration::from_secs(2), "the stranded peer waited out its timeout");
}

#[test]
#[should_panic(expected = "not a member")]
fn joining_a_group_you_are_not_in_panics() {
    fail_fast(2).run(|ctx| {
        // Both ranks construct a group containing only rank 0.
        let _ = ctx.group("bad", vec![0]);
    });
}

#[test]
#[should_panic(expected = "exactly the root must supply the payload")]
fn broadcast_without_root_payload_panics() {
    fail_fast(2).run(|ctx| {
        let g = ctx.world_group();
        // Nobody provides the payload.
        let _: Arc<DenseTensor> = g.broadcast_shared(ctx, 0, None);
    });
}

// A root index past the group's last member used to slip through every
// rooted op's "exactly the root supplies the payload" check (no member is
// that root, so nobody supplies one): broadcast then died on a bare slice
// index and reduce silently returned `None` everywhere.

#[test]
#[should_panic(expected = "broadcast: root 2 out of range for a group of 2 members")]
fn broadcast_root_out_of_range_panics() {
    fail_fast(2).run(|ctx| {
        let g = ctx.world_group();
        let _: Arc<DenseTensor> = g.broadcast_shared(ctx, 2, None);
    });
}

#[test]
#[should_panic(expected = "reduce: root 5 out of range for a group of 2 members")]
fn reduce_root_out_of_range_panics() {
    fail_fast(2).run(|ctx| {
        let g = ctx.world_group();
        let _ = g.reduce_shared(ctx, 5, DenseTensor::from_matrix(Matrix::zeros(1, 1)));
    });
}

#[test]
#[should_panic(expected = "send: bad destination")]
fn send_to_self_panics() {
    fail_fast(2).run(|ctx| {
        let g = ctx.world_group();
        g.send(ctx, g.my_index(), 0, DenseTensor::from_matrix(Matrix::zeros(1, 1)));
    });
}

#[test]
#[should_panic(expected = "cluster needs at least one rank")]
fn zero_rank_cluster_is_rejected() {
    let _ = Cluster::a100(0).run(|_ctx| ());
}

#[test]
fn reduce_payload_shape_mismatch_panics() {
    // Shape disagreement between ranks inside a reduction is a bug; the
    // deterministic combiner must catch it.
    let result = std::panic::catch_unwind(|| {
        fail_fast(2).run(|ctx| {
            let g = ctx.world_group();
            let t = if ctx.rank == 0 {
                DenseTensor::from_matrix(Matrix::zeros(2, 2))
            } else {
                DenseTensor::from_matrix(Matrix::zeros(3, 3))
            };
            let _ = g.all_reduce_shared(ctx, t);
        });
    });
    assert!(result.is_err(), "mismatched reduce shapes must panic");
}
