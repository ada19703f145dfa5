//! The simulated cluster driver: spawns one OS thread per rank and runs an
//! SPMD closure on each, exactly as `torch.distributed`/NCCL launches one
//! process per GPU. Returns each rank's result and report (its comm ledger
//! included) plus the rank-order fold of those ledgers.

use std::any::Any;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use tesseract_tensor::{trace, TraceEvent, TraceKind};

use crate::cost::CollectiveOp;
use crate::ctx::{RankCtx, RankReport};
use crate::fabric::Fabric;
use crate::runconfig::RunConfig;
use crate::stats::{CommStats, OpStats};

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank closure results, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank timing reports, indexed by rank.
    pub reports: Vec<RankReport>,
    /// Every rank's comm ledger ([`RankReport::comm`]) folded in rank
    /// order.
    pub comm: CommStats,
    /// Per-rank event timelines, indexed by rank. Empty vectors unless the
    /// cluster ran with tracing enabled (see [`crate::RunConfig::with_trace`]).
    pub traces: Vec<Vec<TraceEvent>>,
}

impl<R> RunOutput<R> {
    /// Maximum virtual time across ranks — the simulated makespan, which is
    /// what the paper's per-batch times correspond to.
    pub fn makespan(&self) -> f64 {
        self.reports.iter().map(|r| r.virtual_time).fold(0.0, f64::max)
    }

    /// Maximum compute-only virtual time across ranks.
    pub fn max_compute_time(&self) -> f64 {
        self.reports.iter().map(|r| r.compute_time).fold(0.0, f64::max)
    }

    /// Maximum communication time across ranks.
    pub fn max_comm_time(&self) -> f64 {
        self.reports.iter().map(|r| r.comm_time).fold(0.0, f64::max)
    }

    /// Checks the trace against the run's own accounting. Each rank's
    /// flops, kernels, allocated bytes and comm ledger (its blocked and
    /// hidden nanoseconds per op included) are rebuilt from that rank's
    /// events and compared with its [`RankReport`] exactly: every event
    /// carries the values its charging site booked, in booking order, so
    /// even the `f64` sums agree bit for bit. `Err` names the first rank
    /// and counter that differ. An untraced run reconciles only if no rank
    /// charged anything.
    pub fn reconcile_trace(&self) -> Result<(), String> {
        if self.traces.len() != self.reports.len() {
            let (t, r) = (self.traces.len(), self.reports.len());
            return Err(format!("{t} timelines for {r} ranks"));
        }
        for (report, events) in self.reports.iter().zip(&self.traces) {
            let r = report.rank;
            let (mut flops, mut kernels, mut bytes) = (0.0f64, 0u64, 0u64);
            let mut comm = CommStats::default();
            for ev in events {
                same(r, "event rank", ev.rank, r)?;
                match ev.kind {
                    TraceKind::Compute { flops: f, kernels: k, bytes_allocated: b } => {
                        flops += f;
                        kernels += k;
                        bytes += b;
                    }
                    TraceKind::Comm {
                        op,
                        blocked_nanos,
                        hidden_nanos,
                        hidden_time,
                        wire_bytes,
                        stats_time,
                        recorded,
                        ..
                    } => {
                        let Some(&op) = CollectiveOp::ALL.iter().find(|o| o.name() == op) else {
                            return Err(format!("rank {r}: trace names an unknown op {op}"));
                        };
                        comm.per_op[op as usize].merge(&OpStats {
                            calls: recorded.into(),
                            wire_bytes,
                            time: stats_time,
                            hidden_time,
                            blocked_nanos,
                            hidden_nanos,
                        });
                    }
                    TraceKind::Scope { .. } => {}
                }
            }
            same(r, "flops", flops, report.flops)?;
            same(r, "kernels", kernels, report.kernels)?;
            same(r, "allocated bytes", bytes, report.bytes_allocated)?;
            for op in CollectiveOp::ALL {
                same(r, op.name(), comm.get(op), report.comm.get(op))?;
            }
        }
        Ok(())
    }
}

/// `Ok` iff rank `r`'s trace rebuilds `what` exactly as its report booked it.
fn same<T: PartialEq + Debug>(r: usize, what: &str, traced: T, booked: T) -> Result<(), String> {
    if traced == booked {
        Ok(())
    } else {
        Err(format!("rank {r}: trace rebuilds {what} {traced:?}, the report has {booked:?}"))
    }
}

impl RunConfig {
    /// Installs the forced kernel ([`RunConfig::install`]), then runs `f`
    /// as one thread per rank and gathers results in rank order.
    ///
    /// A rank that panics records itself on the fabric as the run's failure
    /// (the first one wins) and wakes every waiting rank, which then panics
    /// too instead of waiting out the rendezvous timeout. Once all threads
    /// have finished, `run` panics as `rank R panicked: <message>` for that
    /// first rank, not for a peer it left stranded.
    pub fn run<R, F>(&self, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Send + Sync,
    {
        assert!(self.world > 0, "cluster needs at least one rank");
        self.install();
        let fabric = Arc::new(match self.rendezvous_timeout_secs {
            Some(secs) => Fabric::with_timeout(Duration::from_secs(secs)),
            None => Fabric::new(),
        });
        let f = &f;

        let mut outcomes: Vec<Option<(R, RankReport, Vec<TraceEvent>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.world)
                    .map(|rank| {
                        let fabric = Arc::clone(&fabric);
                        let params = self.params;
                        let topology = self.topology;
                        let world = self.world;
                        let traced = self.trace;
                        scope.spawn(move || {
                            fabric.enlist();
                            let body = || {
                                if traced {
                                    trace::install(rank);
                                }
                                let mut ctx = RankCtx::new(
                                    rank,
                                    world,
                                    params,
                                    topology,
                                    Arc::clone(&fabric),
                                );
                                let result = f(&mut ctx);
                                // Harvest after the report: `report` flushes
                                // the meter, so the final compute event is
                                // captured.
                                let report = ctx.report();
                                let events = if traced { trace::take() } else { Vec::new() };
                                (result, report, events)
                            };
                            panic::catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
                                fabric.fail(rank, panic_message(&*payload).to_owned());
                                panic::resume_unwind(payload)
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().ok()).collect()
            });
        if let Some((rank, msg)) = fabric.failure.get() {
            panic!("rank {rank} panicked: {msg}");
        }

        let mut results = Vec::with_capacity(self.world);
        let mut reports = Vec::with_capacity(self.world);
        let mut traces = Vec::with_capacity(self.world);
        let mut comm = CommStats::default();
        for outcome in outcomes.drain(..) {
            let (r, rep, events) = outcome.expect("all ranks joined");
            comm.merge(&rep.comm);
            results.push(r);
            reports.push(rep);
            traces.push(events);
        }
        RunOutput { results, reports, comm, traces }
    }
}

/// The text of a panic payload (`panic!` with a literal or a format string).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_tensor::{DenseTensor, Matrix, Payload, TensorLike};

    #[test]
    fn ranks_are_spmd_and_ordered() {
        let cluster = RunConfig::from_env(4);
        let out = cluster.run(|ctx| ctx.rank * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30]);
        assert_eq!(out.reports.len(), 4);
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let cluster = RunConfig::from_env(4);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(2, 2, (ctx.rank + 1) as f32));
            let sum = world.all_reduce_shared(ctx, t);
            sum.matrix()[(0, 0)]
        });
        // 1 + 2 + 3 + 4 = 10 on every rank.
        assert!(out.results.iter().all(|&v| v == 10.0));
        assert_eq!(out.comm.get(CollectiveOp::AllReduce).calls, 1);
    }

    #[test]
    fn broadcast_delivers_root_payload() {
        let cluster = RunConfig::from_env(3);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let payload =
                (ctx.rank == 1).then(|| DenseTensor::from_matrix(Matrix::full(1, 4, 7.0)));
            let got = world.broadcast_shared(ctx, 1, payload.map(Arc::new));
            got.matrix().sum()
        });
        assert!(out.results.iter().all(|&v| v == 28.0));
    }

    #[test]
    fn shift_rotates_payloads() {
        let cluster = RunConfig::from_env(4);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let mine = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            let got = world.shift(ctx, 1, Arc::new(mine));
            got.matrix()[(0, 0)] as usize
        });
        // Rank r receives from (r - 1) mod 4.
        assert_eq!(out.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn negative_shift_rotates_backwards() {
        let cluster = RunConfig::from_env(3);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let mine = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            let got = world.shift(ctx, -1, Arc::new(mine));
            got.matrix()[(0, 0)] as usize
        });
        assert_eq!(out.results, vec![1, 2, 0]);
    }

    #[test]
    fn subgroups_operate_independently() {
        let cluster = RunConfig::from_env(4);
        let out = cluster.run(|ctx| {
            let row = ctx.rank / 2;
            let ranks = vec![row * 2, row * 2 + 1];
            let g = ctx.group("row", ranks);
            let t = DenseTensor::from_matrix(Matrix::full(1, 1, (ctx.rank + 1) as f32));
            g.all_reduce_shared(ctx, t).matrix()[(0, 0)]
        });
        assert_eq!(out.results, vec![3.0, 3.0, 7.0, 7.0]);
    }

    #[test]
    fn send_recv_moves_data_between_ranks() {
        let cluster = RunConfig::from_env(2);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            if ctx.rank == 0 {
                world.send(ctx, DenseTensor::from_matrix(Matrix::full(1, 1, 5.0)));
                0.0
            } else {
                let t: DenseTensor = world.recv(ctx);
                t.matrix()[(0, 0)]
            }
        });
        assert_eq!(out.results[1], 5.0);
        let p2p = out.comm.get(CollectiveOp::SendRecv);
        assert_eq!(p2p.calls, 1);
        // The seconds `recv` charges its clock for the 4-byte message.
        let link = cluster.topology.link_between(0, 1);
        let cost = cluster.params.collective_time(CollectiveOp::SendRecv, 2, 4, link);
        assert_eq!(p2p.time.to_bits(), cost.to_bits());
    }

    #[test]
    fn clocks_are_synchronized_after_collectives() {
        let cluster = RunConfig::from_env(4);
        let out = cluster.run(|ctx| {
            // Unequal compute before the collective: rank r does r matmuls.
            let a = DenseTensor::from_matrix(Matrix::full(8, 8, 1.0));
            let mut acc = a.clone();
            for _ in 0..ctx.rank {
                acc = acc.matmul(&a, &mut ctx.meter);
            }
            let world = ctx.world_group();
            let _ = world.all_reduce_shared(ctx, acc);
            ctx.flush_compute();
            ctx.clock()
        });
        let first = out.results[0];
        assert!(out.results.iter().all(|&c| (c - first).abs() < 1e-12));
        assert!(first > 0.0);
    }

    #[test]
    fn broadcast_charge_is_size_independent_of_receivers_and_synchronizes_clocks() {
        // Broadcast is charged in two fixed parts — the zero-byte rendezvous
        // latency plus the size-dependent cost once the root's payload size
        // is known (the charging the calibrated tables were produced with).
        // Every member must land on exactly that clock, bitwise.
        let cluster = RunConfig::from_env(4);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let payload =
                (ctx.rank == 0).then(|| DenseTensor::from_matrix(Matrix::full(4, 4, 1.0)));
            let got = world.broadcast_shared(ctx, 0, payload.map(Arc::new));
            let link = ctx.topology.worst_link(&(0..4).collect::<Vec<_>>());
            let expected = ctx.params.collective_time(CollectiveOp::Broadcast, 4, 0, link)
                + ctx.params.collective_time(CollectiveOp::Broadcast, 4, got.wire_size(), link);
            ctx.flush_compute();
            (ctx.clock(), expected)
        });
        let (first_clock, expected) = out.results[0];
        assert!(expected > 0.0);
        for &(clock, _) in &out.results {
            assert_eq!(clock, first_clock, "member clocks diverged after broadcast");
            assert_eq!(clock, expected, "broadcast charge must be rendezvous + size cost");
        }
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let run = || {
            RunConfig::from_env(8).run(|ctx| {
                let world = ctx.world_group();
                let t = DenseTensor::from_matrix(Matrix::full(16, 16, 1.0));
                let s = t.matmul(&t, &mut ctx.meter);
                let r = world.all_reduce_shared(ctx, s);
                ctx.flush_compute();
                (ctx.clock(), r.matrix().sum())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn comm_stats_capture_volume() {
        let cluster = RunConfig::from_env(4);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::zeros(4, 4));
            let _ = world.all_reduce_shared(ctx, t);
        });
        let s = out.comm.get(CollectiveOp::AllReduce);
        assert_eq!(s.calls, 1);
        // 4x4 f32 = 64 bytes; ring all-reduce volume = 2 * 64 * (n-1).
        assert_eq!(s.wire_bytes, 2 * 64 * 3);
    }

    /// A traced run on two 2-rank rows that books every kind of charge:
    /// a blocking all-reduce, a broadcast whose wait compute partly hides,
    /// and a send/recv over the pair group of ranks 0 and 3.
    fn ledger_run() -> RunOutput<()> {
        crate::RunConfig::new(4).with_trace(true).run(|ctx| {
            let row = ctx.group("row", vec![ctx.rank / 2 * 2, ctx.rank / 2 * 2 + 1]);
            let t = DenseTensor::from_matrix(Matrix::full(8, 8, ctx.rank as f32));
            let _ = row.all_reduce_shared(ctx, t.clone());
            let root = (row.my_index() == 0).then(|| Arc::new(t.clone()));
            let pending = row.broadcast_shared_begin(ctx, 0, root);
            for _ in 0..=ctx.rank {
                let _ = t.matmul(&t, &mut ctx.meter);
            }
            let _ = pending.complete(ctx);
            match ctx.rank {
                0 => ctx.group("pair", vec![0, 3]).send(ctx, t),
                3 => drop(ctx.group("pair", vec![0, 3]).recv::<DenseTensor>(ctx)),
                _ => {}
            }
        })
    }

    #[test]
    fn run_comm_is_the_rank_order_fold_of_the_rank_ledgers() {
        let out = ledger_run();
        let mut fold = CommStats::default();
        for report in &out.reports {
            fold.merge(&report.comm);
        }
        assert_eq!(out.comm, fold);
        // Each collective's call is booked once, by its group's first
        // member; every member books its own wait. The receiver of a
        // point-to-point pair books only the transfer time.
        let r = |rank: usize, op| out.reports[rank].comm.get(op);
        assert_eq!(r(0, CollectiveOp::AllReduce).calls, 1);
        let led = |s: OpStats| (s.calls, s.wire_bytes, s.time);
        assert_eq!(led(r(1, CollectiveOp::AllReduce)), (0, 0, 0.0));
        assert_eq!(r(0, CollectiveOp::SendRecv).calls, 1);
        assert_eq!(r(3, CollectiveOp::SendRecv).calls, 0);
        assert!(r(3, CollectiveOp::SendRecv).time > 0.0);
        assert_eq!(out.comm.get(CollectiveOp::Broadcast).calls, 2);
        assert!(out.comm.get(CollectiveOp::Broadcast).hidden_time > 0.0);
    }

    #[test]
    fn trace_reconciles_exactly_and_names_the_rank_that_does_not() {
        let mut out = ledger_run();
        assert_eq!(out.reconcile_trace(), Ok(()));
        let time = &mut out.reports[2].comm.per_op[CollectiveOp::AllReduce as usize].time;
        *time = f64::from_bits(time.to_bits() + 1);
        let err = out.reconcile_trace().unwrap_err();
        assert!(err.starts_with("rank 2: trace rebuilds all_reduce"), "{err}");
    }

    /// A one-member group's collective is booked as a call at zero cost:
    /// one call, no wire bytes, no seconds, and the clock does not move.
    #[test]
    fn single_rank_cluster_works() {
        let out = RunConfig::from_env(1).run(|ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(2, 2, 3.0));
            g.all_reduce_shared(ctx, t).matrix().sum()
        });
        assert_eq!(out.results, vec![12.0]);
        assert_eq!(out.makespan(), 0.0);
        let s = out.comm.get(CollectiveOp::AllReduce);
        assert_eq!((s.calls, s.wire_bytes, s.time), (1, 0, 0.0));
        assert_eq!(out.reports[0].virtual_time, 0.0);
    }
}
