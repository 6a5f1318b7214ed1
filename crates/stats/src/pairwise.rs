use std::collections::BTreeMap;

/// A fixed-shape pairwise-summation tree over `d`-dimensional leaf
/// vectors, supporting exact sparse re-summation.
///
/// Naive sequential summation cannot be updated incrementally without
/// changing its floating-point rounding: editing leaf `i` perturbs every
/// prefix after it. This tree fixes the association order instead — leaves
/// sit at the bottom of a perfect binary tree (padded with zero leaves to a
/// power of two) and every internal node is the element-wise sum of its two
/// children. The root is then a pure function of the leaf multiset *and
/// the tree shape*, so:
///
/// * rebuilding the tree from scratch over edited leaves, and
/// * [`SumTree::root_with_edits`], which re-sums only the `O(k log n)`
///   nodes on the paths from `k` edited leaves to the root,
///
/// produce **bit-identical** roots. The distortion kernels lean on this to
/// give the Mahalanobis metric an incremental cleaned-side mean that
/// matches its materialized reference path bit for bit.
#[derive(Debug, Clone)]
pub struct SumTree {
    dims: usize,
    slots: usize,
    /// Leaf capacity: `slots.next_power_of_two().max(1)`.
    cap: usize,
    /// 1-based heap layout, `dims` floats per node: node `i` has children
    /// `2i` and `2i + 1`; leaf `j` lives at node `cap + j`.
    nodes: Vec<f64>,
}

impl SumTree {
    /// Builds the tree over `slots` leaves of dimension `dims`. `leaf` is
    /// called once per slot with a zeroed buffer to fill in; leaving the
    /// buffer untouched contributes nothing (the natural encoding for
    /// "this row is excluded from the sum").
    pub fn build(dims: usize, slots: usize, mut leaf: impl FnMut(usize, &mut [f64])) -> Self {
        assert!(dims > 0, "sum tree needs at least one dimension");
        let cap = slots.next_power_of_two().max(1);
        let mut nodes = vec![0.0f64; 2 * cap * dims];
        for j in 0..slots {
            let off = (cap + j) * dims;
            leaf(j, &mut nodes[off..off + dims]);
        }
        for i in (1..cap).rev() {
            for k in 0..dims {
                nodes[i * dims + k] = nodes[2 * i * dims + k] + nodes[(2 * i + 1) * dims + k];
            }
        }
        SumTree {
            dims,
            slots,
            cap,
            nodes,
        }
    }

    /// Leaf dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of (unpadded) leaf slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The tree's root: the pairwise sum of every leaf.
    pub fn root(&self) -> &[f64] {
        &self.nodes[self.dims..2 * self.dims]
    }

    /// The root the tree would have if each `(slot, new leaf value)` edit
    /// were applied — bit-identical to rebuilding the whole tree over the
    /// edited leaves, computed by re-summing only the affected root paths.
    /// Edit slots must be in range; later duplicates overwrite earlier
    /// ones, matching a rebuild after sequential leaf stores.
    pub fn root_with_edits(&self, edits: &[(usize, Vec<f64>)]) -> Vec<f64> {
        if edits.is_empty() {
            return self.root().to_vec();
        }
        let mut overlay: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (slot, value) in edits {
            assert!(*slot < self.slots, "edit slot out of range");
            assert_eq!(value.len(), self.dims, "edit dimension mismatch");
            overlay.insert(self.cap + slot, value.clone());
        }
        // All leaves share one depth (perfect tree), so the frontier stays
        // level-synchronized: children are final before any parent reads
        // them.
        let mut frontier: Vec<usize> = overlay.keys().copied().collect();
        while frontier[0] > 1 {
            let mut parents: Vec<usize> = frontier.iter().map(|i| i / 2).collect();
            parents.dedup();
            for &p in &parents {
                let mut sum = vec![0.0f64; self.dims];
                for child in [2 * p, 2 * p + 1] {
                    let values = match overlay.get(&child) {
                        Some(v) => v.as_slice(),
                        None => &self.nodes[child * self.dims..(child + 1) * self.dims],
                    };
                    for (s, x) in sum.iter_mut().zip(values) {
                        *s += x;
                    }
                }
                overlay.insert(p, sum);
            }
            frontier = parents;
        }
        // The walk always ends on node 1: the last level wrote it, or the
        // tree is a single leaf and the edit itself is the root.
        overlay.remove(&1).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(seed: u64, slots: usize, dims: usize) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 200.0 - 100.0
        };
        (0..slots)
            .map(|_| (0..dims).map(|_| next()).collect())
            .collect()
    }

    fn build_from(rows: &[Vec<f64>], dims: usize) -> SumTree {
        SumTree::build(dims, rows.len(), |j, buf| buf.copy_from_slice(&rows[j]))
    }

    #[test]
    fn root_sums_all_leaves() {
        let rows = leaves(3, 13, 2);
        let tree = build_from(&rows, 2);
        assert_eq!(tree.slots(), 13);
        assert_eq!(tree.dims(), 2);
        for k in 0..2 {
            let naive: f64 = rows.iter().map(|r| r[k]).sum();
            assert!((tree.root()[k] - naive).abs() < 1e-9);
        }
    }

    #[test]
    fn edits_are_bit_identical_to_rebuild() {
        for (slots, dims, num_edits) in [
            (1usize, 1usize, 1usize),
            (7, 3, 3),
            (64, 2, 10),
            (33, 4, 33),
        ] {
            let rows = leaves(slots as u64 * 31 + dims as u64, slots, dims);
            let tree = build_from(&rows, dims);
            let edit_rows = leaves(99 + slots as u64, num_edits, dims);
            let edits: Vec<(usize, Vec<f64>)> = edit_rows
                .into_iter()
                .enumerate()
                .map(|(i, v)| ((i * 5) % slots, v))
                .collect();
            let fast = tree.root_with_edits(&edits);
            let mut edited = rows.clone();
            for (slot, v) in &edits {
                edited[*slot] = v.clone();
            }
            let rebuilt = build_from(&edited, dims);
            for (k, (f, r)) in fast.iter().zip(rebuilt.root()).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "slots={slots} dims={dims} k={k}");
            }
        }
    }

    #[test]
    fn empty_edit_list_returns_root() {
        let rows = leaves(1, 5, 2);
        let tree = build_from(&rows, 2);
        assert_eq!(tree.root_with_edits(&[]), tree.root().to_vec());
    }

    #[test]
    fn untouched_zero_leaves_encode_exclusion() {
        // Slots the builder leaves untouched contribute exactly nothing.
        let tree = SumTree::build(2, 4, |j, buf| {
            if j % 2 == 0 {
                buf[0] = 1.0;
                buf[1] = 10.0;
            }
        });
        assert_eq!(tree.root(), &[2.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn out_of_range_edit_panics() {
        let tree = SumTree::build(1, 2, |_, b| b[0] = 1.0);
        tree.root_with_edits(&[(2, vec![0.0])]);
    }
}
