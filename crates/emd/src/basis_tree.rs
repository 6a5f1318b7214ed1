//! Persistent spanning-tree representation of a transportation-simplex
//! basis (the MODI / network-simplex "basis tree").
//!
//! The bipartite transportation graph has `n` row nodes (`0..n`) and `m`
//! column nodes (`n..n + m`); a basic cell `(i, j)` is the tree arc
//! `i ↔ n + j`. A basis of `n + m − 1` cells is exactly a spanning tree of
//! that node set, and every simplex operation is a local tree operation:
//!
//! * **duals** — the MODI potentials `u_i + v_j = c_ij` are node labels
//!   propagated from the root, kept incrementally: a pivot shifts them only
//!   on the subtree cut off by the leaving arc;
//! * **cycle** — the pivot cycle of an entering cell `(i, j)` is the tree
//!   path between `i` and `n + j`, found by walking parent pointers to the
//!   lowest common ancestor;
//! * **basis exchange** — dropping the leaving arc and grafting the severed
//!   subtree onto the entering arc re-roots one subtree, touching only the
//!   chain between the entering endpoint and the cut.
//!
//! The tree is threaded through flat arrays (`parent` / `parent_cell` /
//! `depth` plus a doubly linked `first_child` / `next_sibling` /
//! `prev_sibling` children list) so pivots allocate nothing: the cycle and
//! DFS scratch vectors are owned by the tree and reused across pivots.

use crate::EmdError;

/// Sentinel for "no node" in the flat tree arrays.
const NONE: u32 = u32::MAX;

/// Spanning-tree basis for an `n × m` transportation problem.
#[derive(Debug, Clone)]
pub(crate) struct BasisTree {
    n: usize,
    m: usize,
    /// Parent node (`NONE` for the root, node `0`).
    parent: Vec<u32>,
    /// Cell id `i * m + j` of the arc to the parent (undefined for root).
    parent_cell: Vec<u32>,
    /// Distance from the root.
    depth: Vec<u32>,
    /// Head of the doubly linked children list.
    first_child: Vec<u32>,
    /// Next sibling in the parent's children list.
    next_sibling: Vec<u32>,
    /// Previous sibling (`NONE` when first).
    prev_sibling: Vec<u32>,
    /// MODI potentials: `pot[i] = u_i` for rows, `pot[n + j] = v_j` for
    /// columns; basic arcs satisfy `u_i + v_j = c_ij` exactly at build /
    /// recompute time and incrementally thereafter.
    pot: Vec<f64>,
    /// Scratch: arcs (child node, cell) from the row endpoint up to the LCA.
    up_row: Vec<(u32, u32)>,
    /// Scratch: arcs from the column endpoint up to the LCA.
    up_col: Vec<(u32, u32)>,
    /// Scratch: DFS stack for subtree relabeling.
    stack: Vec<u32>,
}

/// Reusable adjacency scratch for [`BasisTree::rebuild`] — the batch
/// arena owns one so repeated cold rebuilds allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    adj_head: Vec<u32>,
    adj_next: Vec<u32>,
    adj_node: Vec<u32>,
    adj_cell: Vec<u32>,
    visited: Vec<bool>,
}

impl BasisTree {
    /// An empty tree holding only (reusable) allocations; callers must
    /// [`rebuild`](Self::rebuild) it before use.
    pub(crate) fn new_empty() -> Self {
        BasisTree {
            n: 0,
            m: 0,
            parent: Vec::new(),
            parent_cell: Vec::new(),
            depth: Vec::new(),
            first_child: Vec::new(),
            next_sibling: Vec::new(),
            prev_sibling: Vec::new(),
            pot: Vec::new(),
            up_row: Vec::new(),
            up_col: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Builds the tree from `n + m − 1` basic cell ids, rooting at row 0
    /// with `u_0 = 0`. Returns `None` if the cells do not span all nodes
    /// (a logic error upstream, not bad input).
    pub(crate) fn build(n: usize, m: usize, cells: &[u32], cost: &[f64]) -> Option<Self> {
        let mut tree = BasisTree::new_empty();
        let mut scratch = BuildScratch::default();
        tree.rebuild(n, m, cells, cost, &mut scratch)
            .then_some(tree)
    }

    /// Rebuilds the tree in place from basic cell ids, reusing every
    /// allocation (the arena path of [`Self::build`]; identical BFS, so
    /// the resulting tree — potentials included — is bit-identical).
    /// Returns `false` if the cells do not span all nodes.
    pub(crate) fn rebuild(
        &mut self,
        n: usize,
        m: usize,
        cells: &[u32],
        cost: &[f64],
        scratch: &mut BuildScratch,
    ) -> bool {
        let nodes = n + m;
        self.n = n;
        self.m = m;
        reset_to(&mut self.parent, nodes, NONE);
        reset_to(&mut self.parent_cell, nodes, NONE);
        reset_to(&mut self.depth, nodes, 0);
        reset_to(&mut self.first_child, nodes, NONE);
        reset_to(&mut self.next_sibling, nodes, NONE);
        reset_to(&mut self.prev_sibling, nodes, NONE);
        reset_to(&mut self.pot, nodes, 0.0);
        self.up_row.clear();
        self.up_col.clear();
        self.stack.clear();
        // Adjacency for the initial BFS; pivots never rebuild it.
        reset_to(&mut scratch.adj_head, nodes, NONE);
        reset_to(&mut scratch.adj_next, 2 * cells.len(), NONE);
        reset_to(&mut scratch.adj_node, 2 * cells.len(), 0u32);
        reset_to(&mut scratch.adj_cell, 2 * cells.len(), 0u32);
        for (k, &cell) in cells.iter().enumerate() {
            let i = cell as usize / m;
            let j = cell as usize % m;
            for (slot, (from, to)) in [(2 * k, (i, n + j)), (2 * k + 1, (n + j, i))] {
                scratch.adj_node[slot] = to as u32;
                scratch.adj_cell[slot] = cell;
                scratch.adj_next[slot] = scratch.adj_head[from];
                scratch.adj_head[from] = slot as u32;
            }
        }
        reset_to(&mut scratch.visited, nodes, false);
        scratch.visited[0] = true;
        self.stack.push(0);
        let mut seen = 1usize;
        while let Some(node) = self.stack.pop() {
            let mut slot = scratch.adj_head[node as usize];
            while slot != NONE {
                let next = scratch.adj_node[slot as usize];
                let cell = scratch.adj_cell[slot as usize];
                if !scratch.visited[next as usize] {
                    scratch.visited[next as usize] = true;
                    seen += 1;
                    self.parent[next as usize] = node;
                    self.parent_cell[next as usize] = cell;
                    self.depth[next as usize] = self.depth[node as usize] + 1;
                    // u_i + v_j = c_ij holds in both propagation directions.
                    self.pot[next as usize] = cost[cell as usize] - self.pot[node as usize];
                    self.attach(next, node);
                    self.stack.push(next);
                }
                slot = scratch.adj_next[slot as usize];
            }
        }
        seen == nodes
    }

    /// The reduced cost `c_ij − u_i − v_j` of cell `(i, j)`.
    #[cfg(test)]
    pub(crate) fn reduced_cost(&self, cost: &[f64], cell: usize) -> f64 {
        let i = cell / self.m;
        let j = cell - i * self.m;
        cost[cell] - self.pot[i] - self.pot[self.n + j]
    }

    /// Block / candidate-list pricing: scans cells cyclically from
    /// `*cursor` in chunks of `block`, returning the most negative reduced
    /// cost (below `−tol`) found in the first chunk that contains one.
    /// Basic cells have reduced cost 0 by construction, so no membership
    /// test is needed. Returns `None` after a full fruitless sweep.
    pub(crate) fn find_entering(
        &self,
        cost: &[f64],
        tol: f64,
        cursor: &mut usize,
        block: usize,
    ) -> Option<usize> {
        let total = self.n * self.m;
        let mut i = *cursor / self.m;
        let mut j = *cursor - i * self.m;
        let mut ui = self.pot[i];
        let mut best_cell = usize::MAX;
        let mut best_rc = -tol;
        let mut scanned = 0usize;
        while scanned < total {
            let chunk = block.min(total - scanned);
            for _ in 0..chunk {
                let cell = i * self.m + j;
                let rc = cost[cell] - ui - self.pot[self.n + j];
                if rc < best_rc {
                    best_rc = rc;
                    best_cell = cell;
                }
                j += 1;
                if j == self.m {
                    j = 0;
                    i += 1;
                    if i == self.n {
                        i = 0;
                    }
                    ui = self.pot[i];
                }
            }
            scanned += chunk;
            if best_cell != usize::MAX {
                break;
            }
        }
        *cursor = i * self.m + j;
        (best_cell != usize::MAX).then_some(best_cell)
    }

    /// Re-derives all potentials from the tree by DFS from the root,
    /// clearing any drift accumulated by incremental subtree shifts.
    pub(crate) fn recompute_potentials(&mut self, cost: &[f64]) {
        self.pot[0] = 0.0;
        self.stack.clear();
        self.stack.push(0);
        while let Some(node) = self.stack.pop() {
            let mut child = self.first_child[node as usize];
            while child != NONE {
                self.pot[child as usize] =
                    cost[self.parent_cell[child as usize] as usize] - self.pot[node as usize];
                self.stack.push(child);
                child = self.next_sibling[child as usize];
            }
        }
    }

    /// One simplex pivot on the entering cell (`ei`, `ej`): pushes θ around
    /// the tree cycle, drops the blocking arc with the smallest flow
    /// (Bland-style tie-break: ties go to the largest cell id, so
    /// degenerate zero-flow ties resolve deterministically instead of
    /// cycling), grafts the severed subtree onto the entering arc, and
    /// shifts the subtree potentials by the entering reduced cost.
    ///
    /// A spanning-tree cycle always contains a blocking arc, so the only
    /// way the ratio test can come up empty is corrupt state (typically
    /// NaN flow defeating every comparison); that case surfaces as
    /// [`EmdError::BrokenPivot`] instead of a panic so one bad instance
    /// cannot take down sibling work sharing a thread pool.
    pub(crate) fn pivot(
        &mut self,
        ei: usize,
        ej: usize,
        cost: &[f64],
        flow: &mut [f64],
    ) -> Result<(), EmdError> {
        let n = self.n;
        let m = self.m;
        let row_end = ei as u32;
        let col_end = (n + ej) as u32;
        let entering = (ei * m + ej) as u32;
        let rc = cost[entering as usize] - self.pot[ei] - self.pot[n + ej];

        self.collect_cycle(row_end, col_end);

        // Walking the cycle in the direction column-endpoint → LCA →
        // row-endpoint, an arc carries −θ when the cycle traverses it
        // column→row. On the column side (walked with the cycle) that means
        // the recorded child is a column node; on the row side (walked
        // against the cycle) it means the child is a row node.
        let mut theta = f64::INFINITY;
        let mut leaving: Option<(u32, u32, bool)> = None; // (child, cell, on row side)
        for &(child, cell) in &self.up_row {
            if (child as usize) < n {
                let f = flow[cell as usize];
                if f < theta || (f == theta && leaving.is_some_and(|(_, lc, _)| cell > lc)) {
                    theta = f;
                    leaving = Some((child, cell, true));
                }
            }
        }
        for &(child, cell) in &self.up_col {
            if (child as usize) >= n {
                let f = flow[cell as usize];
                if f < theta || (f == theta && leaving.is_some_and(|(_, lc, _)| cell > lc)) {
                    theta = f;
                    leaving = Some((child, cell, false));
                }
            }
        }
        let (cut, leaving_cell, on_row_side) = leaving.ok_or(EmdError::BrokenPivot {
            entering: entering as usize,
        })?;

        // Pricing has no basic-cell membership test (basic arcs price to 0
        // by construction), but incremental dual updates drift: a basic
        // arc can price fractionally negative and be handed in as
        // "entering". Its tree path degenerates to the arc itself, so it
        // selects itself as leaving — pushing θ would then zero the arc's
        // real flow and silently destroy mass. Skip the flow update (the
        // relabel below still shifts the subtree by `rc`, repairing the
        // drifted duals so the arc prices back to 0).
        if leaving_cell != entering {
            // Push θ around the cycle.
            flow[entering as usize] += theta;
            for &(child, cell) in &self.up_row {
                if (child as usize) < n {
                    flow[cell as usize] -= theta;
                } else {
                    flow[cell as usize] += theta;
                }
            }
            for &(child, cell) in &self.up_col {
                if (child as usize) >= n {
                    flow[cell as usize] -= theta;
                } else {
                    flow[cell as usize] += theta;
                }
            }
            flow[leaving_cell as usize] = 0.0; // clamp rounding residue
        }

        // Basis exchange: the subtree under `cut` is severed; it contains
        // whichever entering endpoint the leaving arc was found above.
        let (in_node, out_node) = if on_row_side {
            (row_end, col_end)
        } else {
            (col_end, row_end)
        };
        self.exchange(cut, in_node, out_node, entering, rc);
        Ok(())
    }

    /// Fills `up_row` / `up_col` with the (child, arc cell) pairs of the
    /// tree paths from the two entering endpoints up to their LCA — the
    /// pivot cycle of the entering cell.
    fn collect_cycle(&mut self, row_end: u32, col_end: u32) {
        self.up_row.clear();
        self.up_col.clear();
        let (mut x, mut y) = (row_end, col_end);
        while self.depth[x as usize] > self.depth[y as usize] {
            self.up_row.push((x, self.parent_cell[x as usize]));
            x = self.parent[x as usize];
        }
        while self.depth[y as usize] > self.depth[x as usize] {
            self.up_col.push((y, self.parent_cell[y as usize]));
            y = self.parent[y as usize];
        }
        while x != y {
            self.up_row.push((x, self.parent_cell[x as usize]));
            x = self.parent[x as usize];
            self.up_col.push((y, self.parent_cell[y as usize]));
            y = self.parent[y as usize];
        }
    }

    /// Basis exchange after a pivot: re-roots the subtree severed at `cut`
    /// onto the entering arc and relabels it. `in_node` is the entering
    /// endpoint inside the severed subtree, `out_node` the one that stays.
    /// Depths are recomputed from the new attachment and potentials shift
    /// by a constant (`+rc` on `in_node`'s node kind, `−rc` on the other),
    /// which keeps every intra-subtree arc satisfying `u_i + v_j = c_ij`
    /// and makes the entering arc basic.
    fn exchange(&mut self, cut: u32, in_node: u32, out_node: u32, entering: u32, rc: f64) {
        let n = self.n;
        // Re-root the severed subtree at `in_node` by reversing the parent
        // chain up to `cut`, then graft it onto `out_node` via the
        // entering arc.
        let mut node = in_node;
        let mut new_parent = out_node;
        let mut new_cell = entering;
        loop {
            let old_parent = self.parent[node as usize];
            let old_cell = self.parent_cell[node as usize];
            let at_cut = node == cut;
            self.detach(node);
            self.parent[node as usize] = new_parent;
            self.parent_cell[node as usize] = new_cell;
            self.attach(node, new_parent);
            if at_cut {
                break;
            }
            new_parent = node;
            new_cell = old_cell;
            node = old_parent;
        }

        let (d_row, d_col) = if (in_node as usize) < n {
            (rc, -rc)
        } else {
            (-rc, rc)
        };
        self.depth[in_node as usize] = self.depth[out_node as usize] + 1;
        self.stack.clear();
        self.stack.push(in_node);
        while let Some(u) = self.stack.pop() {
            self.pot[u as usize] += if (u as usize) < n { d_row } else { d_col };
            let mut child = self.first_child[u as usize];
            while child != NONE {
                self.depth[child as usize] = self.depth[u as usize] + 1;
                self.stack.push(child);
                child = self.next_sibling[child as usize];
            }
        }
    }

    /// Links `node` at the head of `parent`'s children list.
    #[inline]
    fn attach(&mut self, node: u32, parent: u32) {
        let head = self.first_child[parent as usize];
        self.next_sibling[node as usize] = head;
        self.prev_sibling[node as usize] = NONE;
        if head != NONE {
            self.prev_sibling[head as usize] = node;
        }
        self.first_child[parent as usize] = node;
    }

    /// Unlinks `node` from its current parent's children list.
    #[inline]
    fn detach(&mut self, node: u32) {
        let prev = self.prev_sibling[node as usize];
        let next = self.next_sibling[node as usize];
        if prev != NONE {
            self.next_sibling[prev as usize] = next;
        } else {
            let parent = self.parent[node as usize];
            if parent != NONE {
                self.first_child[parent as usize] = next;
            }
        }
        if next != NONE {
            self.prev_sibling[next as usize] = prev;
        }
    }
}

/// Clears and refills a vector with `len` copies of `value` — allocation
/// reuse for the arena paths.
fn reset_to<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Staircase basis for a 2×2 problem: cells (0,0), (0,1), (1,1).
    fn staircase_2x2() -> (BasisTree, Vec<f64>) {
        let cost = vec![1.0, 4.0, 2.0, 3.0];
        let tree = BasisTree::build(2, 2, &[0, 1, 3], &cost).unwrap();
        (tree, cost)
    }

    #[test]
    fn build_sets_consistent_potentials() {
        let (tree, cost) = staircase_2x2();
        // u_0 = 0 at the root; basic arcs must satisfy u_i + v_j = c_ij.
        for &cell in &[0usize, 1, 3] {
            assert!(
                tree.reduced_cost(&cost, cell).abs() < 1e-12,
                "basic cell {cell} has nonzero reduced cost"
            );
        }
    }

    #[test]
    fn build_rejects_non_spanning_basis() {
        // Two parallel arcs on the same column leave row 1 disconnected.
        let cost = vec![0.0; 4];
        assert!(BasisTree::build(2, 2, &[0, 0, 0], &cost).is_none());
    }

    #[test]
    fn pricing_finds_the_negative_cell() {
        let (tree, cost) = staircase_2x2();
        // Cell (1,0) has reduced cost c_10 − u_1 − v_0 = 2 − (−1) − 1 = 2;
        // no entering cell exists for this cost matrix.
        let mut cursor = 0;
        assert_eq!(tree.find_entering(&cost, 1e-12, &mut cursor, 2), None);
        // Drop c_10 so it prices negative.
        let mut cheap = cost.clone();
        cheap[2] = -5.0;
        let mut cursor = 0;
        assert_eq!(tree.find_entering(&cheap, 1e-12, &mut cursor, 2), Some(2));
    }

    #[test]
    fn pivot_updates_flow_and_potentials() {
        // Anti-diagonal costs make the NW staircase flow (which ships on
        // the expensive diagonal) suboptimal; entering (1,0) reroutes it.
        let cost = vec![5.0, 0.0, 0.0, 5.0];
        let mut tree = BasisTree::build(2, 2, &[0, 1, 3], &cost).unwrap();
        let mut flow = vec![1.0, 1.0, 0.0, 1.0];
        assert!(tree.reduced_cost(&cost, 2) < 0.0);
        tree.pivot(1, 0, &cost, &mut flow).unwrap();
        assert_eq!(flow, vec![0.0, 2.0, 1.0, 0.0]);
        // All basic arcs (now (0,0), (0,1), (1,0)) price to zero again and
        // no cell prices negative: the pivot reached the optimum.
        let mut cursor = 0;
        assert_eq!(tree.find_entering(&cost, 1e-12, &mut cursor, 4), None);
        for cell in [0usize, 1, 2] {
            assert!(tree.reduced_cost(&cost, cell).abs() < 1e-12);
        }
    }

    #[test]
    fn pivot_on_a_basic_arc_repairs_duals_without_moving_flow() {
        // Regression: if dual drift makes a basic arc price negative,
        // find_entering can return it. The degenerate single-arc "cycle"
        // must not zero the arc's flow — only the duals may move.
        let (mut tree, cost) = staircase_2x2();
        let flow_before = vec![1.0, 1.0, 0.0, 1.0];
        let mut flow = flow_before.clone();
        // Inject drift on the subtree under column 1 so basic cell (0,1)
        // prices negative, then hand it in as "entering".
        tree.pot[3] += 1e-9;
        assert!(tree.reduced_cost(&cost, 1) < 0.0);
        tree.pivot(0, 1, &cost, &mut flow).unwrap();
        assert_eq!(flow, flow_before, "flow must survive a dual repair");
        assert!(
            tree.reduced_cost(&cost, 1).abs() < 1e-12,
            "drifted arc must price back to zero"
        );
    }

    #[test]
    fn pivot_with_nan_flow_reports_broken_pivot() {
        // NaN flow defeats every comparison in the ratio test, so no
        // blocking arc is ever selected — the one state that can break the
        // cycle invariant must surface as an error, not a panic.
        let cost = vec![5.0, 0.0, 0.0, 5.0];
        let mut tree = BasisTree::build(2, 2, &[0, 1, 3], &cost).unwrap();
        let mut flow = vec![f64::NAN; 4];
        assert!(matches!(
            tree.pivot(1, 0, &cost, &mut flow),
            Err(EmdError::BrokenPivot { entering: 2 })
        ));
    }

    #[test]
    fn recompute_matches_incremental_potentials() {
        let cost = vec![5.0, 0.0, 0.0, 5.0];
        let mut tree = BasisTree::build(2, 2, &[0, 1, 3], &cost).unwrap();
        let mut flow = vec![1.0, 1.0, 0.0, 1.0];
        tree.pivot(1, 0, &cost, &mut flow).unwrap();
        let incremental = tree.pot.clone();
        tree.recompute_potentials(&cost);
        for (a, b) in incremental.iter().zip(&tree.pot) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
