//! Transportation solves on one reused scratch arena.
//!
//! The experiment engine scores every cleaning strategy of a replication
//! against the same dirty signature, so it runs thousands of small
//! transportation problems back to back. [`BatchTransport`] allocates the
//! flow matrix, basis-tree arrays, dual vectors, adjacency scratch and
//! marginal working copies once and recycles them across solves. Each
//! solve replays exactly the north-west-corner start and pivot sequence
//! of a standalone [`crate::TransportProblem::solve`], so its result is
//! **bit-identical** to it whatever the arena solved before; the reuse is
//! allocation only.
//!
//! The grid pipeline reaches one arena per thread through
//! `with_cold_arena`.

use crate::basis_tree::{BasisTree, BuildScratch};
use crate::transport::{northwest_corner_into, run_simplex, validate_balanced};
use crate::{EmdError, Result};
use std::cell::RefCell;

/// Reusable transportation-solve arena.
///
/// All simplex scratch (flow matrix, basis-tree arrays, dual vectors,
/// pricing blocks) is allocated once and recycled across solves.
/// [`solve`](Self::solve) is bit-identical to a standalone
/// [`crate::TransportProblem::solve`] on the same instance.
#[derive(Debug)]
pub struct BatchTransport {
    /// Rescaled demand of the current solve.
    demand: Vec<f64>,
    flow: Vec<f64>,
    tree: BasisTree,
    build: BuildScratch,
    s: Vec<f64>,
    d: Vec<f64>,
    basis: Vec<u32>,
}

impl Default for BatchTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchTransport {
    /// An empty arena; buffers grow to the first solve's size and are
    /// reused afterwards.
    pub fn new() -> Self {
        BatchTransport {
            demand: Vec::new(),
            flow: Vec::new(),
            tree: BasisTree::new_empty(),
            build: BuildScratch::default(),
            s: Vec::new(),
            d: Vec::new(),
            basis: Vec::new(),
        }
    }

    /// Solves a balanced transportation instance on the reused arena and
    /// returns the normalized EMD `objective / total mass`. Replays the
    /// exact NW-corner + pivot sequence of a standalone
    /// [`crate::TransportProblem::solve`], so the result is bit-identical
    /// to it.
    pub fn solve(&mut self, supply: &[f64], demand: &[f64], cost: &[f64]) -> Result<f64> {
        let scale = validate_balanced(supply, demand, cost)?;
        self.demand.clear();
        self.demand.extend(demand.iter().map(|&x| x * scale));
        let total: f64 = supply.iter().sum();
        let n = supply.len();
        let m = self.demand.len();
        self.flow.clear();
        self.flow.resize(n * m, 0.0);
        northwest_corner_into(
            n,
            m,
            supply,
            &self.demand,
            &mut self.s,
            &mut self.d,
            &mut self.flow,
            &mut self.basis,
        );
        if !self.tree.rebuild(n, m, &self.basis, cost, &mut self.build) {
            return Err(EmdError::NoConvergence { iterations: 0 });
        }
        run_simplex(n, m, cost, &mut self.tree, &mut self.flow)?;
        // `Σ f_ij c_ij` in the same iteration order as
        // [`crate::TransportProblem::objective`] (bit-identity matters).
        let objective: f64 = self.flow.iter().zip(cost).map(|(f, c)| f * c).sum();
        Ok(objective / total)
    }
}

thread_local! {
    /// Per-thread arena for `GridEmd`'s exact solves: every engine unit
    /// on a worker thread reuses one allocation set. Results stay
    /// bit-identical regardless of which thread (or how many prior solves)
    /// served a given distance call.
    static COLD_ARENA: RefCell<BatchTransport> = RefCell::new(BatchTransport::new());
}

/// Runs `f` against this thread's shared arena. Re-entrant callers (the
/// arena is already borrowed further up the stack) get a fresh arena —
/// pure allocation reuse, so the result is identical either way.
pub(crate) fn with_cold_arena<R>(f: impl FnOnce(&mut BatchTransport) -> R) -> R {
    COLD_ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut BatchTransport::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransportProblem;

    /// Deterministic pseudo-random stream (same LCG as the solver tests).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        }
    }

    /// A random balanced instance: unit-mass marginals, costs in [0, 10).
    fn instance(
        n: usize,
        m: usize,
        next: &mut impl FnMut() -> f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut supply: Vec<f64> = (0..n).map(|_| 0.01 + next()).collect();
        let mut demand: Vec<f64> = (0..m).map(|_| 0.01 + next()).collect();
        let st: f64 = supply.iter().sum();
        let dt: f64 = demand.iter().sum();
        supply.iter_mut().for_each(|x| *x /= st);
        demand.iter_mut().for_each(|x| *x /= dt);
        let cost: Vec<f64> = (0..n * m).map(|_| next() * 10.0).collect();
        (supply, demand, cost)
    }

    fn standalone(supply: &[f64], demand: &[f64], cost: &[f64]) -> f64 {
        TransportProblem::new(supply.to_vec(), demand.to_vec(), cost.to_vec())
            .unwrap()
            .solve()
            .unwrap()
    }

    #[test]
    fn cold_solve_is_bit_identical_to_transport_problem() {
        let mut next = lcg(0xC01D);
        let mut arena = BatchTransport::new();
        for trial in 0..12 {
            let n = 3 + (trial * 5) % 20;
            let m = 2 + (trial * 7) % 23;
            let (supply, demand, cost) = instance(n, m, &mut next);
            let expected = standalone(&supply, &demand, &cost);
            let batched = arena.solve(&supply, &demand, &cost).unwrap();
            assert_eq!(
                expected.to_bits(),
                batched.to_bits(),
                "trial {trial} ({n}x{m}): {expected} vs {batched}"
            );
        }
    }

    #[test]
    fn degenerate_duplicate_mass_chain_survives() {
        // Small-integer masses: many ties, exactly-zero basic flows, and
        // equal-cost pivots — the shapes that once triggered BrokenPivot.
        // One arena serves the whole chain and every solve stays
        // bit-identical to a standalone solve.
        let mut next = lcg(0xDE6);
        let k = 10usize;
        let supply = vec![1.0 / k as f64; k];
        let cost: Vec<f64> = (0..k * k).map(|_| (next() * 3.0).floor()).collect();
        let mut arena = BatchTransport::new();
        for round in 0..6 {
            // Demands are duplicate small integers, renormalized.
            let mut demand: Vec<f64> = (0..k).map(|_| 1.0 + (next() * 3.0).floor()).collect();
            let dt: f64 = demand.iter().sum();
            demand.iter_mut().for_each(|x| *x /= dt);
            let reused = arena.solve(&supply, &demand, &cost).unwrap();
            let expected = standalone(&supply, &demand, &cost);
            assert_eq!(
                reused.to_bits(),
                expected.to_bits(),
                "round {round}: {reused} vs {expected}"
            );
        }
    }

    #[test]
    fn last_column_running_dry_first_matches_transport_problem() {
        let (supply, demand, cost) = crate::transport::tests::LAST_COLUMN_DRY_FIRST;
        let batched = BatchTransport::new()
            .solve(&supply, &demand, &cost)
            .unwrap();
        assert_eq!(
            batched.to_bits(),
            standalone(&supply, &demand, &cost).to_bits()
        );
    }

    #[test]
    fn rejects_malformed_inputs_like_transport_problem() {
        let mut arena = BatchTransport::new();
        assert!(matches!(
            arena.solve(&[], &[1.0], &[]),
            Err(EmdError::EmptyInput)
        ));
        assert!(matches!(
            arena.solve(&[1.0], &[2.0], &[0.0]),
            Err(EmdError::Unbalanced { .. })
        ));
        assert!(matches!(
            arena.solve(&[-1.0], &[-1.0], &[0.0]),
            Err(EmdError::InvalidWeight { .. })
        ));
        // A failed solve leaves the arena usable.
        let (supply, demand, cost) = (vec![1.0], vec![1.0], vec![2.0]);
        let v = arena.solve(&supply, &demand, &cost).unwrap();
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cold_arena_helper_reuses_and_nests() {
        let value = with_cold_arena(|outer| {
            let first = outer.solve(&[1.0], &[1.0], &[3.0]).unwrap();
            // Nested checkout must not deadlock or corrupt the outer
            // borrow — it silently gets a fresh arena.
            let nested = with_cold_arena(|inner| inner.solve(&[1.0], &[1.0], &[4.0]).unwrap());
            first + nested
        });
        assert!((value - 7.0).abs() < 1e-12);
    }
}
