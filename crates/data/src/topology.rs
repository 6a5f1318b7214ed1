use crate::NodeId;
use serde::{Deserialize, Serialize};

/// Regular three-layer network topology: `rncs` RNCs, each with
/// `towers_per_rnc` towers, each with `sectors_per_tower` sectors.
///
/// The paper's data comes from such a hierarchy (RNC → Node B → sector).
/// A regular shape is sufficient for the reproduction; the generator can
/// still make individual sectors behave differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of RNCs (`N_i`).
    pub rncs: u32,
    /// Towers per RNC (`N_ij`).
    pub towers_per_rnc: u32,
    /// Sectors per tower (`N_ijk`).
    pub sectors_per_tower: u32,
}

impl Topology {
    /// Creates a topology; all layer sizes must be non-zero.
    pub fn new(rncs: u32, towers_per_rnc: u32, sectors_per_tower: u32) -> Self {
        assert!(
            rncs > 0 && towers_per_rnc > 0 && sectors_per_tower > 0,
            "topology layers must be non-empty"
        );
        Topology {
            rncs,
            towers_per_rnc,
            sectors_per_tower,
        }
    }

    /// Total number of sectors (= number of time series).
    pub fn num_sectors(&self) -> usize {
        self.rncs as usize * self.towers_per_rnc as usize * self.sectors_per_tower as usize
    }

    /// Total number of towers.
    pub fn num_towers(&self) -> usize {
        self.rncs as usize * self.towers_per_rnc as usize
    }

    /// Enumerates every sector in lexicographic `(rnc, tower, sector)` order.
    pub fn sectors(&self) -> impl Iterator<Item = NodeId> + '_ {
        let t = *self;
        (0..t.rncs).flat_map(move |i| {
            (0..t.towers_per_rnc)
                .flat_map(move |j| (0..t.sectors_per_tower).map(move |k| NodeId::new(i, j, k)))
        })
    }

    /// The flat index of a sector in [`Topology::sectors`] order.
    pub fn sector_index(&self, node: NodeId) -> usize {
        assert!(self.contains(node), "node {node} outside topology");
        (node.rnc as usize * self.towers_per_rnc as usize + node.tower as usize)
            * self.sectors_per_tower as usize
            + node.sector as usize
    }

    /// Whether the node is addressable within this topology.
    pub fn contains(&self, node: NodeId) -> bool {
        node.rnc < self.rncs
            && node.tower < self.towers_per_rnc
            && node.sector < self.sectors_per_tower
    }

    /// The neighbours of a sector: all other sectors on the same tower.
    /// Outlier detection (§3.3) may condition on neighbour history.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        assert!(self.contains(node), "node {node} outside topology");
        (0..self.sectors_per_tower)
            .filter(|&k| k != node.sector)
            .map(|k| NodeId::new(node.rnc, node.tower, k))
            .collect()
    }

    /// The flat index of a sector's tower (`rnc * towers_per_rnc + tower`).
    pub fn tower_index(&self, node: NodeId) -> usize {
        assert!(self.contains(node), "node {node} outside topology");
        node.rnc as usize * self.towers_per_rnc as usize + node.tower as usize
    }

    /// Hop distance between two sectors in the RNC → tower → sector
    /// hierarchy: 0 for the node itself, 1 for collocated sectors (same
    /// tower), 2 for sectors under the same RNC, 3 otherwise.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(
            self.contains(a) && self.contains(b),
            "nodes must lie inside the topology"
        );
        if a == b {
            0
        } else if a.rnc == b.rnc && a.tower == b.tower {
            1
        } else if a.rnc == b.rnc {
            2
        } else {
            3
        }
    }

    /// All sectors within `hops` of `node` (excluding `node` itself), in
    /// [`Topology::sectors`] order: `hops = 1` is the tower neighbourhood
    /// ([`Topology::neighbors`]), `hops = 2` adds every sector under the
    /// same RNC, `hops ≥ 3` the entire network.
    pub fn khop_neighbors(&self, node: NodeId, hops: u32) -> Vec<NodeId> {
        assert!(self.contains(node), "node {node} outside topology");
        self.sectors()
            .filter(|&m| {
                let d = self.hop_distance(node, m);
                d > 0 && d <= hops
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_multiply() {
        let t = Topology::new(2, 3, 4);
        assert_eq!(t.num_sectors(), 24);
        assert_eq!(t.num_towers(), 6);
        assert_eq!(t.sectors().count(), 24);
    }

    #[test]
    fn index_roundtrip() {
        let t = Topology::new(2, 3, 4);
        for (i, node) in t.sectors().enumerate() {
            assert_eq!(t.sector_index(node), i);
        }
    }

    #[test]
    fn neighbors_are_same_tower() {
        let t = Topology::new(1, 2, 3);
        let n = NodeId::new(0, 1, 0);
        let nb = t.neighbors(n);
        assert_eq!(nb, vec![NodeId::new(0, 1, 1), NodeId::new(0, 1, 2)]);
        assert!(nb.iter().all(|m| m.is_neighbor(&n)));
    }

    #[test]
    fn khop_neighborhoods_grow_with_hops() {
        let t = Topology::new(2, 2, 3);
        let n = NodeId::new(0, 1, 0);
        assert_eq!(t.khop_neighbors(n, 0), vec![]);
        assert_eq!(t.khop_neighbors(n, 1), t.neighbors(n));
        let rnc_wide = t.khop_neighbors(n, 2);
        assert_eq!(rnc_wide.len(), 5); // 6 sectors under rnc 0, minus self
        assert!(rnc_wide.iter().all(|m| m.rnc == 0));
        assert_eq!(t.khop_neighbors(n, 3).len(), t.num_sectors() - 1);
        assert_eq!(t.hop_distance(n, n), 0);
        assert_eq!(t.hop_distance(n, NodeId::new(0, 1, 2)), 1);
        assert_eq!(t.hop_distance(n, NodeId::new(0, 0, 0)), 2);
        assert_eq!(t.hop_distance(n, NodeId::new(1, 0, 0)), 3);
    }

    #[test]
    fn tower_index_is_flat() {
        let t = Topology::new(2, 3, 4);
        for node in t.sectors() {
            assert_eq!(
                t.tower_index(node),
                t.sector_index(node) / t.sectors_per_tower as usize
            );
        }
    }

    #[test]
    fn contains_checks_bounds() {
        let t = Topology::new(1, 1, 2);
        assert!(t.contains(NodeId::new(0, 0, 1)));
        assert!(!t.contains(NodeId::new(0, 0, 2)));
        assert!(!t.contains(NodeId::new(1, 0, 0)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_layer_rejected() {
        Topology::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn sector_index_checks_membership() {
        Topology::new(1, 1, 1).sector_index(NodeId::new(0, 0, 9));
    }
}
