//! The simulated cluster driver: spawns one OS thread per rank and runs an
//! SPMD closure on each, exactly as `torch.distributed`/NCCL launches one
//! process per GPU. Returns each rank's result plus timing reports and the
//! global communication statistics.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use tesseract_tensor::{trace, TraceEvent};

use crate::cost::CostParams;
use crate::ctx::{RankCtx, RankReport};
use crate::fabric::Fabric;
use crate::stats::{CommStats, StatsCollector};
use crate::topology::Topology;

/// A runnable simulated cluster. Build one through
/// [`crate::RunConfig`] — `RunConfig::new(world).cluster()` or
/// [`crate::RunConfig::from_env`] for the environment-configured defaults.
#[derive(Clone, Copy, Debug)]
pub struct Cluster {
    pub world: usize,
    pub topology: Topology,
    pub params: CostParams,
    /// Collect per-rank [`TraceEvent`] timelines during [`Cluster::run`]
    /// (set from [`crate::RunConfig::with_trace`] / `TESSERACT_TRACE`).
    pub trace: bool,
    /// Rendezvous timeout override for this cluster's fabric (seconds).
    /// `None` uses the process-wide default (120 s unless
    /// `TESSERACT_RENDEZVOUS_TIMEOUT_SECS` was installed). Tests that
    /// deliberately deadlock set this explicitly instead of racing on
    /// `std::env::set_var`.
    pub rendezvous_timeout_secs: Option<u64>,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank closure results, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank timing reports, indexed by rank.
    pub reports: Vec<RankReport>,
    /// Global collective statistics.
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
}

impl Cluster {
    /// A cluster with the paper's testbed topology and cost constants,
    /// honoring the `TESSERACT_*` environment knobs — shorthand for
    /// [`crate::RunConfig::from_env`]`(world).cluster()`.
    pub fn a100(world: usize) -> Self {
        crate::RunConfig::from_env(world).cluster()
    }

    /// Runs `f` as one thread per rank and gathers results in rank order.
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
        let fabric = Arc::new(match self.rendezvous_timeout_secs {
            Some(secs) => Fabric::with_timeout(Duration::from_secs(secs)),
            None => Fabric::new(),
        });
        let stats = Arc::new(StatsCollector::new(self.world));
        let f = &f;

        let mut outcomes: Vec<Option<(R, RankReport, Vec<TraceEvent>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.world)
                    .map(|rank| {
                        let fabric = Arc::clone(&fabric);
                        let stats = Arc::clone(&stats);
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
                                    stats,
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
        for outcome in outcomes.drain(..) {
            let (r, rep, events) = outcome.expect("all ranks joined");
            results.push(r);
            reports.push(rep);
            traces.push(events);
        }
        RunOutput { results, reports, comm: stats.snapshot(), traces }
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
    use crate::cost::CollectiveOp;
    use crate::group::Payload;
    use tesseract_tensor::{DenseTensor, Matrix, TensorLike};

    #[test]
    fn ranks_are_spmd_and_ordered() {
        let cluster = Cluster::a100(4);
        let out = cluster.run(|ctx| ctx.rank * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30]);
        assert_eq!(out.reports.len(), 4);
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let cluster = Cluster::a100(4);
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
        let cluster = Cluster::a100(3);
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
        let cluster = Cluster::a100(4);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let mine = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            let got = world.shift(ctx, 1, mine);
            got.matrix()[(0, 0)] as usize
        });
        // Rank r receives from (r - 1) mod 4.
        assert_eq!(out.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn negative_shift_rotates_backwards() {
        let cluster = Cluster::a100(3);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            let mine = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            let got = world.shift(ctx, -1, mine);
            got.matrix()[(0, 0)] as usize
        });
        assert_eq!(out.results, vec![1, 2, 0]);
    }

    #[test]
    fn subgroups_operate_independently() {
        let cluster = Cluster::a100(4);
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
        let cluster = Cluster::a100(2);
        let out = cluster.run(|ctx| {
            let world = ctx.world_group();
            if ctx.rank == 0 {
                world.send(ctx, 1, 0, DenseTensor::from_matrix(Matrix::full(1, 1, 5.0)));
                0.0
            } else {
                let t: DenseTensor = world.recv(ctx, 0, 0);
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
        let cluster = Cluster::a100(4);
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
        let cluster = Cluster::a100(4);
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
            Cluster::a100(8).run(|ctx| {
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
        let cluster = Cluster::a100(4);
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

    #[test]
    fn single_rank_cluster_works() {
        let out = Cluster::a100(1).run(|ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(2, 2, 3.0));
            g.all_reduce_shared(ctx, t).matrix().sum()
        });
        assert_eq!(out.results, vec![12.0]);
        assert_eq!(out.makespan(), 0.0);
    }
}
