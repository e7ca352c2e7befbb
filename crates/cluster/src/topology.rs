//! Logical topologies: which links are near, and hypercube neighbour
//! calculus.
//!
//! The 2002-era machines exposed their interconnect topology to the
//! programmer; algorithms were written against hypercubes, rings and
//! meshes. [`TopologyKind`] tells the cost model and the collective
//! engine which messages cross the fabric; [`Hypercube`] is the
//! rank arithmetic of a binary hypercube.

/// Interconnect topology of a virtual machine, as seen by the cost
/// model and the collective engine.
///
/// The model is deliberately binary — a message is either **near**
/// (same SMP node / direct link) or **far** (crosses the interconnect
/// fabric). Wormhole routing on the 2002-era networks made latency
/// nearly distance-insensitive, so hop counts beyond the first switch
/// crossing add little; what matters is *whether* a message leaves the
/// node and how many concurrent senders share its uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Fully uniform fabric: every pair of ranks is equally close.
    /// This is the legacy model — all presets that predate the
    /// collective engine use it, and on it every algorithm costs
    /// exactly what it did before the engine existed.
    Uniform,
    /// Binary hypercube: ranks differing in exactly one bit are wired
    /// directly (near); all other pairs route through intermediate
    /// nodes (far). Recursive doubling maps perfectly onto this — each
    /// butterfly partner `rank ^ mask` is a direct neighbour.
    Hypercube,
    /// Cluster of SMP nodes: `node_size` consecutive ranks share one
    /// node (near: shared memory) and each node has a single uplink
    /// into the fabric (far). Concurrent far senders on one node
    /// serialise on the uplink — the effect hierarchical collectives
    /// exist to avoid.
    SmpCluster {
        /// Ranks per node; must be a power of two.
        node_size: usize,
    },
    /// 2-D torus, row-major ranks: Manhattan-distance-1 pairs
    /// (with wraparound) are near, everything else is far.
    Torus2d {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
}

impl TopologyKind {
    /// Node index of `rank` — the unit that shares a single uplink.
    /// Uniform and hypercube machines place every rank on its own
    /// node (no uplink sharing); an SMP cluster groups `node_size`
    /// consecutive ranks; a torus has one rank per node.
    pub fn node_of(&self, rank: usize) -> usize {
        match *self {
            TopologyKind::SmpCluster { node_size } => rank / node_size,
            _ => rank,
        }
    }

    /// Whether a message from `from` to `to` crosses the fabric (far)
    /// rather than staying on a node or direct link (near).
    pub fn is_far(&self, from: usize, to: usize) -> bool {
        if from == to {
            return false;
        }
        match *self {
            TopologyKind::Uniform => false,
            TopologyKind::Hypercube => !(from ^ to).is_power_of_two(),
            TopologyKind::SmpCluster { node_size } => from / node_size != to / node_size,
            TopologyKind::Torus2d { rows, cols } => {
                let (ar, ac) = (from / cols, from % cols);
                let (br, bc) = (to / cols, to % cols);
                let dr = ar.abs_diff(br).min(rows - ar.abs_diff(br));
                let dc = ac.abs_diff(bc).min(cols - ac.abs_diff(bc));
                dr + dc > 1
            }
        }
    }
}

/// A d-dimensional binary hypercube (`2^d` ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    /// Dimension d.
    pub dim: u32,
}

impl Hypercube {
    /// Hypercube that fits exactly `p` ranks.
    ///
    /// # Panics
    /// Panics unless `p` is a power of two.
    pub fn for_size(p: usize) -> Self {
        assert!(p.is_power_of_two(), "hypercube needs a power-of-two size");
        Hypercube {
            dim: p.trailing_zeros(),
        }
    }

    /// Number of ranks `2^d`.
    pub fn size(&self) -> usize {
        1 << self.dim
    }

    /// Neighbour across dimension `k`.
    pub fn neighbor(&self, rank: usize, k: u32) -> usize {
        assert!(rank < self.size());
        assert!(k < self.dim);
        rank ^ (1 << k)
    }

    /// All `d` neighbours of a rank.
    pub fn neighbors(&self, rank: usize) -> Vec<usize> {
        (0..self.dim).map(|k| self.neighbor(rank, k)).collect()
    }

    /// Hamming distance between two ranks (routing hops).
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        assert!(a < self.size() && b < self.size());
        ((a ^ b) as u64).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_neighbors_differ_in_one_bit() {
        let h = Hypercube::for_size(16);
        assert_eq!(h.dim, 4);
        for rank in 0..16 {
            let ns = h.neighbors(rank);
            assert_eq!(ns.len(), 4);
            for n in ns {
                assert_eq!(h.distance(rank, n), 1);
            }
        }
    }

    #[test]
    fn hypercube_distance_symmetric_triangle() {
        let h = Hypercube::for_size(8);
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(h.distance(a, b), h.distance(b, a));
                for c in 0..8 {
                    assert!(h.distance(a, c) <= h.distance(a, b) + h.distance(b, c));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_non_power() {
        let _ = Hypercube::for_size(6);
    }

    #[test]
    fn uniform_topology_is_never_far() {
        let t = TopologyKind::Uniform;
        for a in 0..16 {
            for b in 0..16 {
                assert!(!t.is_far(a, b));
            }
        }
    }

    #[test]
    fn hypercube_topology_far_iff_not_a_neighbor() {
        let t = TopologyKind::Hypercube;
        let h = Hypercube::for_size(16);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.is_far(a, b), h.distance(a, b) > 1, "{a}->{b}");
            }
        }
    }

    #[test]
    fn smp_cluster_topology_groups_consecutive_ranks() {
        let t = TopologyKind::SmpCluster { node_size: 4 };
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert!(!t.is_far(0, 3));
        assert!(t.is_far(3, 4));
        assert!(!t.is_far(5, 5));
    }

    #[test]
    fn torus_topology_wraps_and_is_near_only_for_neighbors() {
        let t = TopologyKind::Torus2d { rows: 4, cols: 4 };
        // (0,0) and (0,3) are wraparound neighbours.
        assert!(!t.is_far(0, 3));
        // (0,0) and (3,0) likewise.
        assert!(!t.is_far(0, 12));
        // (0,0) and (1,1) are two hops.
        assert!(t.is_far(0, 5));
    }
}
