//! Cluster topology: which ranks share a node, and what link connects them.
//!
//! The paper's testbed (Meluxina) has 4 NVIDIA A100 GPUs per node, NVLink
//! (200 GB/s) inside a node and InfiniBand (200 Gb/s ≈ 25 GB/s) between
//! nodes. Ranks are packed into nodes in rank order, exactly as the paper
//! arranges experiments "by setting the size [q, q, d] where q² is a
//! multiple of 4" so that Tesseract's depth communication stays on the
//! faster links.
//!
//! Beyond classifying single links, the topology can summarize how a whole
//! group of ranks sits relative to node boundaries ([`Topology::placement`]):
//! how many nodes it spans and how many members share the fullest node. The
//! two-level collective cost model
//! ([`crate::cost::CostParams::phased_collective_time`]) is driven entirely
//! by that summary.

/// Kind of interconnect between two ranks. Ordered by slowness: `Local <
/// NvLink < InfiniBand`, so the worst link of a set is the `max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Link {
    /// Same physical GPU (self-communication: free).
    Local,
    /// Intra-node NVLink.
    NvLink,
    /// Inter-node InfiniBand.
    InfiniBand,
}

/// Physical arrangement of ranks into nodes: ranks are packed into
/// fixed-size nodes in rank order (`node = rank / gpus_per_node`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// GPUs per node (Meluxina: 4); positive.
    gpus_per_node: usize,
}

/// How a group of ranks sits relative to node boundaries: the summary the
/// two-level cost model needs to decompose a collective into an intra-node
/// phase and an inter-node phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupPlacement {
    /// Number of group members.
    pub members: usize,
    /// Number of distinct nodes the members occupy.
    pub nodes: usize,
    /// Members on the fullest node — the size of the widest intra-node
    /// phase.
    pub max_per_node: usize,
}

impl GroupPlacement {
    /// True when the whole group fits on one node (or is a singleton).
    pub fn is_intra_node(&self) -> bool {
        self.nodes <= 1
    }

    /// True when at least two members share a node *and* the group spans
    /// several nodes — the only placements where a two-level schedule can
    /// beat the flat worst-link charge.
    pub fn shares_nodes_across(&self) -> bool {
        self.nodes >= 2 && self.max_per_node >= 2
    }
}

impl Topology {
    pub fn new(gpus_per_node: usize) -> Self {
        assert!(gpus_per_node > 0);
        Self { gpus_per_node }
    }

    /// The paper's testbed: 4 GPUs per node.
    pub fn meluxina() -> Self {
        Self::new(4)
    }

    /// Node index hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_node
    }

    /// Link between two ranks.
    pub fn link_between(&self, a: usize, b: usize) -> Link {
        if a == b {
            Link::Local
        } else if self.node_of(a) == self.node_of(b) {
            Link::NvLink
        } else {
            Link::InfiniBand
        }
    }

    /// Worst (slowest) link appearing among any pair in `ranks`: a max-fold
    /// of [`Topology::link_between`] over all pairs. Collective cost on the
    /// flat (non-hierarchical) model is dominated by this link.
    pub fn worst_link(&self, ranks: &[usize]) -> Link {
        let mut worst = Link::Local;
        for (idx, &a) in ranks.iter().enumerate() {
            for &b in &ranks[idx + 1..] {
                worst = worst.max(self.link_between(a, b));
                if worst == Link::InfiniBand {
                    return worst;
                }
            }
        }
        worst
    }

    /// Summarizes how `ranks` are spread over nodes. Duplicate ranks count
    /// once per occurrence (groups never contain duplicates in practice).
    pub fn placement(&self, ranks: &[usize]) -> GroupPlacement {
        let mut node_ids: Vec<usize> = ranks.iter().map(|&r| self.node_of(r)).collect();
        node_ids.sort_unstable();
        let mut nodes = 0;
        let mut max_per_node = 0;
        let mut i = 0;
        while i < node_ids.len() {
            let mut j = i + 1;
            while j < node_ids.len() && node_ids[j] == node_ids[i] {
                j += 1;
            }
            nodes += 1;
            max_per_node = max_per_node.max(j - i);
            i = j;
        }
        GroupPlacement { members: ranks.len(), nodes, max_per_node }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_packing_is_rank_order() {
        let t = Topology::meluxina();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(63), 15);
    }

    #[test]
    fn link_classification() {
        let t = Topology::meluxina();
        assert_eq!(t.link_between(0, 0), Link::Local);
        assert_eq!(t.link_between(0, 3), Link::NvLink);
        assert_eq!(t.link_between(0, 4), Link::InfiniBand);
    }

    #[test]
    fn link_order_tracks_slowness() {
        assert!(Link::Local < Link::NvLink);
        assert!(Link::NvLink < Link::InfiniBand);
    }

    #[test]
    fn worst_link_of_groups() {
        let t = Topology::meluxina();
        assert_eq!(t.worst_link(&[1]), Link::Local);
        assert_eq!(t.worst_link(&[0, 1, 2, 3]), Link::NvLink);
        assert_eq!(t.worst_link(&[0, 1, 2, 3, 4]), Link::InfiniBand);
        assert_eq!(t.worst_link(&[8, 9]), Link::NvLink);
    }

    #[test]
    fn worst_link_is_a_pairwise_fold() {
        let t = Topology::meluxina();
        // A repeated rank only pairs with itself: the one pair is Local.
        assert_eq!(t.worst_link(&[3, 3]), Link::Local);
        // Member order is irrelevant.
        assert_eq!(t.worst_link(&[5, 0, 2]), Link::InfiniBand);
        assert_eq!(t.worst_link(&[2, 0, 5]), Link::InfiniBand);
    }

    #[test]
    fn placement_counts_nodes_and_fullest_node() {
        let t = Topology::meluxina();
        // One full node.
        let p = t.placement(&[0, 1, 2, 3]);
        assert_eq!(p, GroupPlacement { members: 4, nodes: 1, max_per_node: 4 });
        assert!(p.is_intra_node());
        assert!(!p.shares_nodes_across());
        // Two full nodes: the multi-node-with-sharing case.
        let p = t.placement(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(p, GroupPlacement { members: 8, nodes: 2, max_per_node: 4 });
        assert!(p.shares_nodes_across());
        // One rank per node: spread, no sharing.
        let p = t.placement(&[0, 4, 8, 12]);
        assert_eq!(p, GroupPlacement { members: 4, nodes: 4, max_per_node: 1 });
        assert!(!p.is_intra_node());
        assert!(!p.shares_nodes_across());
        // Uneven spill: 3 on node 0, 1 on node 1.
        let p = t.placement(&[1, 2, 3, 4]);
        assert_eq!(p, GroupPlacement { members: 4, nodes: 2, max_per_node: 3 });
    }
}
