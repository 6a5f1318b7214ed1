use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a Radio Network Controller — the top layer `N_i`.
pub type RncId = u32;

/// Identifier of a cell tower (Node B) within an RNC — the middle layer `N_ij`.
pub type TowerId = u32;

/// Fully-qualified address of a sector (antenna) in the three-layer
/// hierarchy `N_ijk`: RNC `i` → tower `j` → sector `k`.
///
/// Ordering is lexicographic over `(rnc, tower, sector)`, which groups
/// physically collocated equipment together — useful because glitches
/// cluster topologically (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId {
    /// RNC index `i`.
    pub rnc: RncId,
    /// Tower index `j` within the RNC.
    pub tower: TowerId,
    /// Sector index `k` on the tower.
    pub sector: u32,
}

impl NodeId {
    /// Creates a sector address.
    pub fn new(rnc: RncId, tower: TowerId, sector: u32) -> Self {
        NodeId { rnc, tower, sector }
    }

    /// Whether two sectors sit on the same tower (the paper's notion of
    /// collocated equipment — antennas on one cell tower).
    pub fn same_tower(&self, other: &NodeId) -> bool {
        self.rnc == other.rnc && self.tower == other.tower
    }

    /// Whether `self` and `other` are neighbours: distinct sectors on the
    /// same tower. Outlier detection (§3.3) conditions on the window history
    /// of a node's neighbours.
    pub fn is_neighbor(&self, other: &NodeId) -> bool {
        self.same_tower(other) && self != other
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}.{}.{}", self.rnc, self.tower, self.sector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_hierarchical() {
        assert_eq!(NodeId::new(1, 2, 3).to_string(), "N1.2.3");
    }

    #[test]
    fn neighbor_requires_same_tower_distinct_sector() {
        let a = NodeId::new(0, 1, 0);
        let b = NodeId::new(0, 1, 1);
        let c = NodeId::new(0, 2, 0);
        assert!(a.is_neighbor(&b));
        assert!(!a.is_neighbor(&a));
        assert!(!a.is_neighbor(&c));
        assert!(!a.same_tower(&c));
    }

    #[test]
    fn ordering_groups_collocated_sectors() {
        let mut ids = vec![
            NodeId::new(1, 0, 0),
            NodeId::new(0, 1, 1),
            NodeId::new(0, 1, 0),
            NodeId::new(0, 0, 5),
        ];
        ids.sort();
        assert_eq!(
            ids,
            vec![
                NodeId::new(0, 0, 5),
                NodeId::new(0, 1, 0),
                NodeId::new(0, 1, 1),
                NodeId::new(1, 0, 0),
            ]
        );
    }
}
