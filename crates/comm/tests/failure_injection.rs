//! Failure-injection tests: the simulated cluster must convert misuse into
//! diagnosable panics rather than silent corruption or hangs.

use std::panic;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tesseract_comm::RunConfig;
use tesseract_tensor::{DenseTensor, Matrix, TensorLike, TraceKind};

/// A run whose fabric gives up in seconds instead of minutes, so
/// ranks that survive an injected failure fail fast. Set per run via
/// the builder — mutating the process environment from parallel tests is
/// a race.
fn fail_fast(world: usize) -> RunConfig {
    RunConfig::new(world).with_rendezvous_timeout_secs(2)
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

// Point-to-point is a rendezvous on a two-member group: the peer is the
// other member, so a group of any other size has no peer to name.

#[test]
#[should_panic(expected = "send needs a two-member group, not one of 3")]
fn send_on_a_three_member_group_panics() {
    fail_fast(3).run(|ctx| {
        ctx.world_group().send(ctx, DenseTensor::from_matrix(Matrix::zeros(1, 1)));
    });
}

#[test]
#[should_panic(expected = "recv needs a two-member group, not one of 1")]
fn recv_on_a_one_member_group_panics() {
    fail_fast(1).run(|ctx| {
        let _: DenseTensor = ctx.world_group().recv(ctx);
    });
}

/// A recv whose peer never sends waits out the timeout and names the
/// rendezvous it waited at: the pair group's first sequence number.
#[test]
fn a_recv_whose_peer_never_sends_times_out_naming_its_rendezvous() {
    let err = panic::catch_unwind(|| {
        fail_fast(2).run(|ctx| {
            if ctx.rank == 0 {
                let _: DenseTensor = ctx.world_group().recv(ctx);
            }
        })
    })
    .expect_err("the recv timed out");
    let msg = err.downcast_ref::<String>().expect("run panics with a String");
    assert!(msg.starts_with("rank 0 panicked: rendezvous ("), "{msg}");
    assert!(msg.contains(", 0) timed out (member 0 of 2)"), "{msg}");
}

/// Sends are eager: two sends deposited before the first recv (a barrier on
/// another group orders them on the host) arrive in send order, each recv
/// on its own message's rendezvous key. The barrier leaves the receiver
/// past both send clocks, so each recv's slowest entry is its own.
#[test]
fn two_sends_before_the_first_recv_arrive_in_order_with_their_send_clocks() {
    // Rank 0 returns its send clocks, rank 1 the values it received.
    let out = fail_fast(2).with_trace(true).run(|ctx| {
        let pair = ctx.group("pair", vec![0, 1]);
        let mut seen = Vec::new();
        if ctx.rank == 0 {
            for v in [1.0, 2.0] {
                let t = DenseTensor::from_matrix(Matrix::full(4, 4, v));
                let _ = t.matmul(&t, &mut ctx.meter);
                ctx.flush_compute();
                seen.push(ctx.clock());
                pair.send(ctx, t);
            }
            ctx.world_group().barrier(ctx);
        } else {
            ctx.world_group().barrier(ctx);
            for _ in 0..2 {
                let t: DenseTensor = pair.recv(ctx);
                seen.push(t.matrix()[(0, 0)] as f64);
            }
        }
        seen
    });
    let (send_clocks, values) = (&out.results[0], &out.results[1]);
    assert!(send_clocks[0] < send_clocks[1], "the sends left at one clock: {send_clocks:?}");
    assert_eq!(values, &[1.0, 2.0], "messages arrived out of order");
    // (key seq, entry, slowest entry) of each rank's send_recv spans.
    let spans = |rank: usize| -> Vec<(u64, f64, f64)> {
        (out.traces[rank].iter())
            .filter_map(|ev| match ev.kind {
                TraceKind::Comm { op: "send_recv", key_seq, max_entry_vt, .. } => {
                    Some((key_seq, ev.begin, max_entry_vt))
                }
                _ => None,
            })
            .collect()
    };
    let (sends, recvs) = (spans(0), spans(1));
    let send_entries: Vec<f64> = sends.iter().map(|s| s.1).collect();
    assert_eq!(&send_entries, send_clocks, "a send names the wrong clock");
    for (send, recv) in sends.iter().zip(&recvs) {
        assert_eq!(send.0, recv.0, "a recv took another message's rendezvous");
        assert_eq!(send.2, send.1, "a send's slowest entry is its own clock");
        assert!(recv.1 > send.1, "the barrier leaves the receiver past the send");
        assert_eq!(recv.2, recv.1, "a late recv's slowest entry is its own");
    }
    assert_eq!(recvs.len(), 2);
}

#[test]
#[should_panic(expected = "cluster needs at least one rank")]
fn zero_rank_cluster_is_rejected() {
    let _ = RunConfig::from_env(0).run(|_ctx| ());
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
