//! The α–β (Hockney) cost model that substitutes for the paper's A100
//! cluster.
//!
//! Every simulated quantity is derived from the constants in [`CostParams`]:
//! compute time is `flops / flops_rate + kernels · kernel_overhead`, and
//! each collective charges latency (α) per software step plus bytes / β on
//! the slowest link its group spans. The Table 1 / Table 2 reproductions
//! report these virtual seconds; the constants are calibrated to A100-class
//! hardware so *relative* results (who wins, by what factor) carry over.

use crate::topology::{GroupPlacement, Link};

/// Collective operations the fabric implements. Used for statistics keys and
/// cost formulas.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    Broadcast,
    Reduce,
    AllReduce,
    AllGather,
    ReduceScatter,
    AllToAll,
    Shift,
    Barrier,
    SendRecv,
}

impl CollectiveOp {
    pub const ALL: [CollectiveOp; 9] = [
        CollectiveOp::Broadcast,
        CollectiveOp::Reduce,
        CollectiveOp::AllReduce,
        CollectiveOp::AllGather,
        CollectiveOp::ReduceScatter,
        CollectiveOp::AllToAll,
        CollectiveOp::Shift,
        CollectiveOp::Barrier,
        CollectiveOp::SendRecv,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            CollectiveOp::Broadcast => "broadcast",
            CollectiveOp::Reduce => "reduce",
            CollectiveOp::AllReduce => "all_reduce",
            CollectiveOp::AllGather => "all_gather",
            CollectiveOp::ReduceScatter => "reduce_scatter",
            CollectiveOp::AllToAll => "all_to_all",
            CollectiveOp::Shift => "shift",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::SendRecv => "send_recv",
        }
    }
}

/// Breakdown of one collective's simulated duration under the two-level
/// (topology-aware) schedule. Produced by
/// [`CostParams::phased_collective_time`]; `total` is the single number the
/// charging sites feed into the clocks, so split-phase/overlap accounting
/// and trace-event shapes are unchanged from the flat model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhasedCost {
    /// Seconds of the intra-node NVLink phase(s) of the two-level schedule.
    pub intra: f64,
    /// Seconds of the inter-node InfiniBand phase of the two-level schedule.
    pub inter: f64,
    /// Seconds the legacy flat model charges: the single-level algorithm on
    /// the group's worst link.
    pub flat: f64,
    /// Seconds actually charged: the cheaper of the flat algorithm and the
    /// two-level schedule, floored at the pure-NVLink bound.
    pub total: f64,
}

impl PhasedCost {
    /// True when the two-level schedule strictly undercuts the flat charge
    /// at this size (the interesting half of the crossover).
    pub fn hierarchical_won(&self) -> bool {
        self.total < self.flat
    }
}

/// Calibration constants of the simulated testbed.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Effective per-GPU compute throughput in flop/s. 200 TFLOP/s models an
    /// A100 running fp16/bf16 tensor-core GEMMs (312 TFLOP/s peak) at the
    /// ~65% efficiency large Transformer GEMMs reach in practice.
    pub flops_rate: f64,
    /// Fixed kernel-launch overhead per flop-bearing tensor op, seconds.
    /// Calibrated low (2 µs) because the simulator's op granularity is
    /// finer than a fused production kernel schedule.
    pub kernel_overhead: f64,
    /// NVLink bandwidth, bytes/s (paper: 200 GB/s).
    pub nvlink_bandwidth: f64,
    /// NVLink per-message latency, seconds.
    pub nvlink_latency: f64,
    /// InfiniBand bandwidth, bytes/s (paper: 200 Gb/s = 25 GB/s).
    pub ib_bandwidth: f64,
    /// InfiniBand per-message latency, seconds.
    pub ib_latency: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self::a100_cluster()
    }
}

impl CostParams {
    /// Constants calibrated to the paper's testbed (§4).
    pub fn a100_cluster() -> Self {
        Self {
            flops_rate: 200e12,
            kernel_overhead: 2e-6,
            nvlink_bandwidth: 200e9,
            nvlink_latency: 4e-6,
            ib_bandwidth: 25e9,
            ib_latency: 12e-6,
        }
    }

    /// A zero-latency, infinite-bandwidth variant: isolates pure compute in
    /// ablations (communication becomes free).
    pub fn free_comm(mut self) -> Self {
        self.nvlink_latency = 0.0;
        self.ib_latency = 0.0;
        self.nvlink_bandwidth = f64::INFINITY;
        self.ib_bandwidth = f64::INFINITY;
        self
    }

    /// (α seconds, β bytes/s) of a link.
    pub fn link_params(&self, link: Link) -> (f64, f64) {
        match link {
            Link::Local => (0.0, f64::INFINITY),
            Link::NvLink => (self.nvlink_latency, self.nvlink_bandwidth),
            Link::InfiniBand => (self.ib_latency, self.ib_bandwidth),
        }
    }

    /// Simulated compute time for `flops` of math across `kernels` launches.
    pub fn compute_time(&self, flops: f64, kernels: u64) -> f64 {
        flops / self.flops_rate + kernels as f64 * self.kernel_overhead
    }

    /// Simulated duration of one collective over a group of `n` ranks whose
    /// slowest link is `link`, where each participating message carries
    /// `bytes` bytes (the payload size of one rank's contribution).
    ///
    /// Formulas are the standard *pipelined* tree/ring costs NCCL-class
    /// libraries achieve:
    /// * broadcast / reduce: pipelined binomial tree,
    ///   `⌈log₂ n⌉·α + bytes/β` (latency pays the tree depth; bandwidth is
    ///   paid once because large messages are chunked and pipelined)
    /// * all-reduce: ring, `2(n−1)α + 2 (n−1)/n · bytes/β`
    /// * all-gather: ring, `(n−1)α + (n−1) · bytes/β` (each step moves one
    ///   rank's block)
    /// * reduce-scatter: ring, `(n−1)α + (n−1)/n · bytes/β` — the first
    ///   half of the ring all-reduce (`bytes` is the full input each rank
    ///   contributes; each keeps a `1/n` slice of the sum)
    /// * all-to-all: pairwise exchange, `(n−1)α + (n−1)/n · bytes/β`
    ///   (`bytes` is one rank's full payload; each peer receives `1/n`)
    /// * shift: one concurrent point-to-point round, `α + bytes/β`
    /// * barrier: `2α⌈log₂ n⌉`
    /// * send/recv: `α + bytes/β`
    pub fn collective_time(&self, op: CollectiveOp, n: usize, bytes: usize, link: Link) -> f64 {
        let (alpha, beta) = self.link_params(link);
        if n <= 1 && !matches!(op, CollectiveOp::SendRecv) {
            return 0.0;
        }
        let b = bytes as f64;
        let nf = n as f64;
        let log_n = (n as f64).log2().ceil();
        match op {
            CollectiveOp::Broadcast | CollectiveOp::Reduce => log_n * alpha + b / beta,
            CollectiveOp::AllReduce => 2.0 * (nf - 1.0) * alpha + 2.0 * (nf - 1.0) / nf * b / beta,
            CollectiveOp::AllGather => (nf - 1.0) * (alpha + b / beta),
            CollectiveOp::ReduceScatter | CollectiveOp::AllToAll => {
                (nf - 1.0) * alpha + (nf - 1.0) / nf * b / beta
            }
            CollectiveOp::Shift | CollectiveOp::SendRecv => alpha + b / beta,
            CollectiveOp::Barrier => 2.0 * alpha * log_n,
        }
    }

    /// Simulated duration of one collective over a group placed as `p`
    /// (from [`crate::topology::Topology::placement`]), decomposed into an
    /// intra-node NVLink phase and an inter-node InfiniBand phase.
    ///
    /// The two-level schedule mirrors what NCCL-class libraries do on
    /// NVLink-island clusters: stage the op inside each node on NVLink
    /// first/last and run the cross-node step over one leader per node on
    /// InfiniBand, so the slow fabric carries `nodes` participants instead
    /// of `members`:
    /// * broadcast / reduce: IB tree over the node leaders + NVLink tree
    ///   inside the fullest node;
    /// * all-reduce: NVLink reduce to the node leader, IB ring all-reduce
    ///   over leaders, NVLink broadcast back;
    /// * all-gather: NVLink gather to the leader (a tree, priced as
    ///   reduce), IB ring all-gather of the per-node superblocks, NVLink
    ///   broadcast of the full result;
    /// * barrier: NVLink barrier per node + IB barrier over leaders;
    /// * shift / send-recv: point-to-point rounds have no hierarchy — they
    ///   are charged flat.
    ///
    /// The charged total applies **size-based algorithm selection**: the
    /// scheduler picks whichever of the flat single-level algorithm and the
    /// two-level schedule is cheaper (`min`), and a spread placement never
    /// beats packing the whole group on one NVLink island (the pure-NVLink
    /// cost is a floor — `max`). Consequently for every placement
    /// `flat(NVLink) ≤ total ≤ flat(worst link)`, with the two-level
    /// schedule strictly cheaper than flat IB at latency-relevant sizes
    /// whenever several members share a node, and exactly equal to the flat
    /// NVLink charge for intra-node groups.
    pub fn phased_collective_time(
        &self,
        op: CollectiveOp,
        bytes: usize,
        p: GroupPlacement,
    ) -> PhasedCost {
        let n = p.members;
        if p.nodes <= 1 {
            // Intra-node (or singleton) group: there is no inter-node phase
            // and the two-level schedule degenerates to the flat NVLink
            // algorithm, identically to the legacy worst-link charge.
            let link = if n <= 1 { Link::Local } else { Link::NvLink };
            let flat = self.collective_time(op, n, bytes, link);
            return PhasedCost { intra: flat, inter: 0.0, flat, total: flat };
        }
        let flat = self.collective_time(op, n, bytes, Link::InfiniBand);
        let m = p.max_per_node;
        let (intra, inter) = match op {
            CollectiveOp::Broadcast | CollectiveOp::Reduce => (
                self.collective_time(op, m, bytes, Link::NvLink),
                self.collective_time(op, p.nodes, bytes, Link::InfiniBand),
            ),
            CollectiveOp::AllReduce => (
                self.collective_time(CollectiveOp::Reduce, m, bytes, Link::NvLink)
                    + self.collective_time(CollectiveOp::Broadcast, m, bytes, Link::NvLink),
                self.collective_time(CollectiveOp::AllReduce, p.nodes, bytes, Link::InfiniBand),
            ),
            CollectiveOp::AllGather => (
                self.collective_time(CollectiveOp::Reduce, m, bytes, Link::NvLink)
                    + self.collective_time(
                        CollectiveOp::Broadcast,
                        m,
                        n.saturating_mul(bytes),
                        Link::NvLink,
                    ),
                self.collective_time(
                    CollectiveOp::AllGather,
                    p.nodes,
                    m.saturating_mul(bytes),
                    Link::InfiniBand,
                ),
            ),
            CollectiveOp::ReduceScatter => (
                self.collective_time(CollectiveOp::Reduce, m, bytes, Link::NvLink)
                    + self.collective_time(CollectiveOp::Broadcast, m, bytes, Link::NvLink),
                self.collective_time(CollectiveOp::ReduceScatter, p.nodes, bytes, Link::InfiniBand),
            ),
            CollectiveOp::Barrier => (
                self.collective_time(CollectiveOp::Barrier, m, 0, Link::NvLink),
                self.collective_time(CollectiveOp::Barrier, p.nodes, 0, Link::InfiniBand),
            ),
            // All-to-all is a pairwise exchange: every rank talks to every
            // peer directly, so a leader hierarchy saves nothing — charged
            // flat, like the other point-to-point shapes.
            CollectiveOp::AllToAll | CollectiveOp::Shift | CollectiveOp::SendRecv => (0.0, flat),
        };
        let nv_floor = self.collective_time(op, n, bytes, Link::NvLink);
        let total = flat.min((intra + inter).max(nv_floor));
        PhasedCost { intra, inter, flat, total }
    }

    /// Total bytes a collective puts on the wire (for volume accounting):
    /// the standard logical volumes of the algorithms above.
    pub fn wire_bytes(&self, op: CollectiveOp, n: usize, bytes: usize) -> u64 {
        if n <= 1 && !matches!(op, CollectiveOp::SendRecv) {
            return 0;
        }
        let b = bytes as u64;
        let n64 = n as u64;
        match op {
            CollectiveOp::Broadcast | CollectiveOp::Reduce => b * (n64 - 1),
            CollectiveOp::AllReduce => 2 * b * (n64 - 1),
            CollectiveOp::AllGather => b * (n64 - 1),
            CollectiveOp::ReduceScatter | CollectiveOp::AllToAll => b * (n64 - 1),
            CollectiveOp::Shift => b * n64,
            CollectiveOp::Barrier => 0,
            CollectiveOp::SendRecv => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_combines_rate_and_overhead() {
        let p = CostParams::a100_cluster();
        let t = p.compute_time(200e12, 2);
        assert!((t - (1.0 + 2.0 * 2e-6)).abs() < 1e-9);
    }

    #[test]
    fn singleton_collectives_are_free() {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            if op != CollectiveOp::SendRecv {
                assert_eq!(p.collective_time(op, 1, 1024, Link::NvLink), 0.0, "{op:?}");
                assert_eq!(p.wire_bytes(op, 1, 1024), 0, "{op:?}");
            }
        }
    }

    #[test]
    fn ib_is_slower_than_nvlink() {
        let p = CostParams::a100_cluster();
        let nv = p.collective_time(CollectiveOp::AllReduce, 4, 1 << 20, Link::NvLink);
        let ib = p.collective_time(CollectiveOp::AllReduce, 4, 1 << 20, Link::InfiniBand);
        assert!(ib > nv);
    }

    #[test]
    fn broadcast_latency_scales_logarithmically_but_bandwidth_does_not() {
        let p = CostParams::a100_cluster();
        // Tiny message: latency-bound, 3x the tree depth of n = 2.
        let t2 = p.collective_time(CollectiveOp::Broadcast, 2, 0, Link::NvLink);
        let t8 = p.collective_time(CollectiveOp::Broadcast, 8, 0, Link::NvLink);
        assert!((t8 / t2 - 3.0).abs() < 1e-9);
        // Huge message: pipelined, nearly independent of n.
        let b2 = p.collective_time(CollectiveOp::Broadcast, 2, 1 << 30, Link::NvLink);
        let b8 = p.collective_time(CollectiveOp::Broadcast, 8, 1 << 30, Link::NvLink);
        assert!(b8 / b2 < 1.01);
    }

    #[test]
    fn all_reduce_volume_is_twice_broadcast() {
        let p = CostParams::a100_cluster();
        assert_eq!(
            p.wire_bytes(CollectiveOp::AllReduce, 4, 100),
            2 * p.wire_bytes(CollectiveOp::Broadcast, 4, 100)
        );
    }

    #[test]
    fn free_comm_zeroes_communication() {
        let p = CostParams::a100_cluster().free_comm();
        for op in CollectiveOp::ALL {
            assert_eq!(p.collective_time(op, 8, 1 << 20, Link::InfiniBand), 0.0, "{op:?}");
        }
    }

    fn placement(members: usize, nodes: usize, max_per_node: usize) -> GroupPlacement {
        GroupPlacement { members, nodes, max_per_node }
    }

    #[test]
    fn phased_intra_node_group_equals_flat_nvlink() {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            for bytes in [0usize, 1024, 1 << 22] {
                let c = p.phased_collective_time(op, bytes, placement(4, 1, 4));
                let flat_nv = p.collective_time(op, 4, bytes, Link::NvLink);
                assert_eq!(c.total, flat_nv, "{op:?} {bytes}");
                assert_eq!(c.flat, flat_nv, "{op:?} {bytes}");
                assert!(!c.hierarchical_won(), "{op:?} {bytes}");
            }
        }
    }

    #[test]
    fn phased_singleton_group_is_free() {
        let p = CostParams::a100_cluster();
        let c = p.phased_collective_time(CollectiveOp::Broadcast, 1 << 20, placement(1, 1, 1));
        assert_eq!(c.total, 0.0);
    }

    #[test]
    fn phased_is_sandwiched_between_nvlink_and_flat_ib() {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            for (n, nodes, m) in [(8, 2, 4), (16, 4, 4), (4, 2, 3), (5, 5, 1), (64, 16, 4)] {
                for bytes in [0usize, 1 << 10, 1 << 22, 1 << 26] {
                    let c = p.phased_collective_time(op, bytes, placement(n, nodes, m));
                    let nv = p.collective_time(op, n, bytes, Link::NvLink);
                    let ib = p.collective_time(op, n, bytes, Link::InfiniBand);
                    assert!(c.total >= nv, "{op:?} n={n} nodes={nodes} m={m} bytes={bytes}");
                    assert!(c.total <= ib, "{op:?} n={n} nodes={nodes} m={m} bytes={bytes}");
                }
            }
        }
    }

    #[test]
    fn phased_wins_at_small_sizes_when_members_share_nodes() {
        let p = CostParams::a100_cluster();
        // 8 ranks over 2 full Meluxina nodes: the IB fabric sees 2
        // participants instead of 8, so latency-bound collectives are
        // strictly cheaper under the two-level schedule.
        for op in [
            CollectiveOp::Broadcast,
            CollectiveOp::Reduce,
            CollectiveOp::AllReduce,
            CollectiveOp::AllGather,
        ] {
            let c = p.phased_collective_time(op, 1024, placement(8, 2, 4));
            assert!(c.hierarchical_won(), "{op:?}: {c:?}");
        }
    }

    #[test]
    fn phased_broadcast_crosses_over_to_flat_at_large_sizes() {
        let p = CostParams::a100_cluster();
        // Two-level broadcast pays the payload over NVLink *and* IB; the
        // pipelined flat tree pays it once over IB. The latency saving
        // (2 IB hops) buys the extra NVLink pass only below
        // β_nv · 2(α_ib − α_nv) = 3.2 MB.
        let small = p.phased_collective_time(CollectiveOp::Broadcast, 1 << 20, placement(8, 2, 4));
        assert!(small.hierarchical_won());
        let big = p.phased_collective_time(CollectiveOp::Broadcast, 1 << 23, placement(8, 2, 4));
        assert!(!big.hierarchical_won());
        assert_eq!(big.total, big.flat);
    }

    #[test]
    fn phased_spread_placement_without_sharing_matches_flat() {
        let p = CostParams::a100_cluster();
        // One member per node: the "intra phase" is a singleton (free) and
        // the inter phase is the flat algorithm over all members.
        for op in [CollectiveOp::Broadcast, CollectiveOp::AllReduce, CollectiveOp::AllGather] {
            let c = p.phased_collective_time(op, 4096, placement(4, 4, 1));
            assert_eq!(c.total, c.flat, "{op:?}");
        }
    }

    #[test]
    fn phased_point_to_point_ops_are_flat() {
        let p = CostParams::a100_cluster();
        for op in [CollectiveOp::Shift, CollectiveOp::SendRecv] {
            let c = p.phased_collective_time(op, 4096, placement(8, 2, 4));
            assert_eq!(c.total, c.flat, "{op:?}");
            assert_eq!(c.intra, 0.0, "{op:?}");
        }
    }

    #[test]
    fn phased_free_comm_is_free() {
        let p = CostParams::a100_cluster().free_comm();
        for op in CollectiveOp::ALL {
            let c = p.phased_collective_time(op, 1 << 20, placement(8, 2, 4));
            assert_eq!(c.total, 0.0, "{op:?}");
        }
    }

    #[test]
    fn larger_payload_costs_more() {
        let p = CostParams::a100_cluster();
        let small = p.collective_time(CollectiveOp::AllGather, 4, 1024, Link::InfiniBand);
        let big = p.collective_time(CollectiveOp::AllGather, 4, 1 << 22, Link::InfiniBand);
        assert!(big > small);
    }
}
