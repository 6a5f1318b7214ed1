use crate::basis_tree::BasisTree;
use crate::{EmdError, Result};

/// The balanced transportation problem, solved exactly with the
/// transportation simplex (north-west-corner initial basis + tree-based
/// MODI / u-v pivoting).
///
/// This is the workhorse behind the paper's statistical-distortion metric:
/// given bin masses of the dirty distribution (supplies), bin masses of the
/// cleaned distribution (demands) and cross-bin ground distances (costs),
/// the optimal flow `F*` yields
/// `EMD(P, Q) = Σ f*_ij |b_i − b_j| / Σ f*_ij`.
///
/// The basis is kept as a persistent spanning tree (`BasisTree`, a
/// crate-private module): duals update
/// incrementally on the subtree cut by each leaving arc, entering cells are
/// found with block pricing, and pivots reuse flat scratch buffers, so a
/// pivot costs O(cycle + cut subtree) instead of the O(n·m) per-pivot
/// rebuild of the textbook tableau method.
#[derive(Debug, Clone)]
pub struct TransportProblem {
    n: usize,
    m: usize,
    supply: Vec<f64>,
    demand: Vec<f64>,
    cost: Vec<f64>,
    flow: Vec<f64>,
    solved: bool,
}

/// Relative tolerance for the supply/demand balance check.
const BALANCE_TOL: f64 = 1e-6;
/// A reduced cost must be more negative than `-tol` to trigger a pivot.
const PIVOT_TOL: f64 = 1e-12;
/// Incremental duals are re-derived from scratch every this many pivots to
/// clear accumulated floating-point drift.
const RECOMPUTE_EVERY: usize = 1024;

/// Validates a balanced transportation instance (shape, weight, cost and
/// balance checks shared by [`TransportProblem::new`] and the batch
/// arena), returning the factor demands must be rescaled by so the totals
/// match exactly.
pub(crate) fn validate_balanced(supply: &[f64], demand: &[f64], cost: &[f64]) -> Result<f64> {
    let n = supply.len();
    let m = demand.len();
    if n == 0 || m == 0 {
        return Err(EmdError::EmptyInput);
    }
    if cost.len() != n * m {
        return Err(EmdError::CostShape {
            expected: (n, m),
            got: (cost.len() / m.max(1), m),
        });
    }
    for &w in supply.iter().chain(demand.iter()) {
        if !w.is_finite() || w < 0.0 {
            return Err(EmdError::InvalidWeight { value: w });
        }
    }
    for &c in cost {
        if !c.is_finite() {
            return Err(EmdError::InvalidWeight { value: c });
        }
    }
    let ts: f64 = supply.iter().sum();
    let td: f64 = demand.iter().sum();
    if ts <= 0.0 || td <= 0.0 {
        return Err(EmdError::EmptyInput);
    }
    if ((ts - td) / ts.max(td)).abs() > BALANCE_TOL {
        return Err(EmdError::Unbalanced {
            supply: ts,
            demand: td,
        });
    }
    Ok(ts / td)
}

/// North-west-corner initial basic feasible solution with exactly
/// `n + m − 1` basic cells (degenerate zero-flow cells included), written
/// into `flow` (which must already be zeroed). `s` / `d` are reusable
/// working copies of the marginals; `basis` receives the basic cell ids.
///
/// Any floating-point residue left after the staircase walk (supplies and
/// demands only balance up to rounding) is clamped into the final basic
/// cell so the initial flow meets the row/column marginals to machine
/// precision.
#[allow(clippy::too_many_arguments)] // flat scratch-buffer signature is the point
pub(crate) fn northwest_corner_into(
    n: usize,
    m: usize,
    supply: &[f64],
    demand: &[f64],
    s: &mut Vec<f64>,
    d: &mut Vec<f64>,
    flow: &mut [f64],
    basis: &mut Vec<u32>,
) {
    s.clear();
    s.extend_from_slice(supply);
    d.clear();
    d.extend_from_slice(demand);
    basis.clear();
    basis.reserve(n + m - 1);
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let q = s[i].min(d[j]).max(0.0);
        flow[i * m + j] = q;
        basis.push((i * m + j) as u32);
        s[i] -= q;
        d[j] -= q;
        if basis.len() == n + m - 1 {
            // Clamp rounding residue into the final basic cell.
            let residue = s[i].max(d[j]);
            if residue > 0.0 {
                flow[i * m + j] += residue;
            }
            break;
        }
        // Advance along the exhausted side; on ties prefer the row so a
        // degenerate zero-flow basic cell keeps the basis a tree.
        if s[i] <= d[j] && i + 1 < n {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Runs the MODI pivot loop to optimality on a built basis tree and its
/// matching basic flow — the shared core of [`TransportProblem::solve`]
/// and the batch arena (identical constants, pricing, and pivot order, so
/// an arena solve is bit-identical to a standalone solve).
pub(crate) fn run_simplex(
    n: usize,
    m: usize,
    cost: &[f64],
    tree: &mut BasisTree,
    flow: &mut [f64],
) -> Result<()> {
    let cells = n * m;
    // Block pricing: candidate blocks of ~√(n·m) cells keep each pricing
    // step cheap while still finding a "good" entering cell.
    let block = 64.max((cells as f64).sqrt() as usize);
    let max_pivots = 2000 + 20 * cells;
    let cost_scale = cost
        .iter()
        .fold(0.0f64, |acc, &c| acc.max(c.abs()))
        .max(1.0);
    let tol = PIVOT_TOL * cost_scale + PIVOT_TOL;

    let mut cursor = 0usize;
    for pivots in 0..max_pivots {
        let entering = match tree.find_entering(cost, tol, &mut cursor, block) {
            Some(cell) => Some(cell),
            None => {
                // Confirm optimality against drift-free duals before
                // declaring victory.
                tree.recompute_potentials(cost);
                tree.find_entering(cost, tol, &mut cursor, block)
            }
        };
        let Some(cell) = entering else {
            return Ok(());
        };
        tree.pivot(cell / m, cell % m, cost, flow)?;
        if (pivots + 1) % RECOMPUTE_EVERY == 0 {
            tree.recompute_potentials(cost);
        }
    }
    Err(EmdError::NoConvergence {
        iterations: max_pivots,
    })
}

impl TransportProblem {
    /// Creates a balanced transportation problem.
    ///
    /// `cost` is row-major `n × m`. Supplies and demands must be
    /// non-negative, with totals agreeing to within a relative `1e-6`;
    /// demands are then rescaled so the totals match exactly.
    pub fn new(supply: Vec<f64>, demand: Vec<f64>, cost: Vec<f64>) -> Result<Self> {
        // Rescale demand so the problem balances exactly.
        let scale = validate_balanced(&supply, &demand, &cost)?;
        let n = supply.len();
        let m = demand.len();
        let demand = demand.into_iter().map(|d| d * scale).collect();
        Ok(TransportProblem {
            n,
            m,
            supply,
            demand,
            cost,
            flow: vec![0.0; n * m],
            solved: false,
        })
    }

    /// Number of supply nodes.
    pub fn num_supplies(&self) -> usize {
        self.n
    }

    /// Number of demand nodes.
    pub fn num_demands(&self) -> usize {
        self.m
    }

    /// The flow matrix (row-major `n × m`).
    ///
    /// Before [`solve`](Self::solve) has run this is all zeros — it is the
    /// *optimal* flow only once [`is_solved`](Self::is_solved) returns
    /// `true`.
    pub fn flow(&self) -> &[f64] {
        &self.flow
    }

    /// Total transported mass (= total supply).
    pub fn total_mass(&self) -> f64 {
        self.supply.iter().sum()
    }

    /// Objective value `Σ f_ij c_ij` of the current flow.
    ///
    /// Before [`solve`](Self::solve) has run the flow is all zeros, so this
    /// returns `0.0`; it is the *optimal* transport cost only once
    /// [`is_solved`](Self::is_solved) returns `true`.
    pub fn objective(&self) -> f64 {
        self.flow.iter().zip(&self.cost).map(|(f, c)| f * c).sum()
    }

    /// Solves the problem and returns the normalized EMD
    /// (`objective / total mass`).
    pub fn solve(&mut self) -> Result<f64> {
        self.solved = false;
        self.flow.fill(0.0);
        let basis_cells = self.northwest_corner();
        let mut tree = BasisTree::build(self.n, self.m, &basis_cells, &self.cost)
            .ok_or(EmdError::NoConvergence { iterations: 0 })?;
        run_simplex(self.n, self.m, &self.cost, &mut tree, &mut self.flow)?;
        self.solved = true;
        Ok(self.objective() / self.total_mass())
    }

    /// Whether `solve` has completed successfully.
    pub fn is_solved(&self) -> bool {
        self.solved
    }

    /// North-west-corner initial basic feasible solution (see
    /// [`northwest_corner_into`]), written into `self.flow`. Returns the
    /// basic cell ids.
    fn northwest_corner(&mut self) -> Vec<u32> {
        let mut s = Vec::new();
        let mut d = Vec::new();
        let mut basis = Vec::new();
        northwest_corner_into(
            self.n,
            self.m,
            &self.supply,
            &self.demand,
            &mut s,
            &mut d,
            &mut self.flow,
            &mut basis,
        );
        basis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(supply: Vec<f64>, demand: Vec<f64>, cost: Vec<f64>) -> f64 {
        TransportProblem::new(supply, demand, cost)
            .unwrap()
            .solve()
            .unwrap()
    }

    #[test]
    fn trivial_single_cell() {
        let d = solve(vec![1.0], vec![1.0], vec![3.0]);
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_balanced_problem() {
        // Supplies [2, 3], demands [2, 3], costs chosen so the optimum is
        // the diagonal assignment.
        let d = solve(vec![2.0, 3.0], vec![2.0, 3.0], vec![0.0, 10.0, 10.0, 0.0]);
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn forced_cross_shipping() {
        // All supply on the left, demand split: cost = weighted distances.
        // Supply at x=0 (mass 1); demands at x=1 (0.4) and x=3 (0.6).
        let d = solve(vec![1.0], vec![0.4, 0.6], vec![1.0, 3.0]);
        assert!((d - (0.4 * 1.0 + 0.6 * 3.0)).abs() < 1e-12);
    }

    #[test]
    fn matches_1d_closed_form_on_line_instances() {
        // Points on a line; compare against the ECDF closed form.
        let a_pts = [0.0f64, 1.0, 2.0, 5.0];
        let a_w = [0.25f64, 0.25, 0.25, 0.25];
        let b_pts = [0.5f64, 2.5, 4.0];
        let b_w = [0.5f64, 0.25, 0.25];
        let mut cost = Vec::new();
        for &x in &a_pts {
            for &y in &b_pts {
                cost.push((x - y).abs());
            }
        }
        let d_simplex = solve(a_w.to_vec(), b_w.to_vec(), cost);
        let d_exact = crate::emd_1d_weighted(&a_pts, &a_w, &b_pts, &b_w).unwrap();
        assert!(
            (d_simplex - d_exact).abs() < 1e-10,
            "{d_simplex} vs {d_exact}"
        );
    }

    #[test]
    fn degenerate_supplies_handled() {
        // Ties in NW corner produce degenerate basic cells.
        let d = solve(vec![1.0, 1.0], vec![1.0, 1.0], vec![0.0, 1.0, 1.0, 0.0]);
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn highly_degenerate_instance_terminates() {
        // Uniform marginals with permutation-structured costs: every NW
        // staircase tie produces a zero-flow basic cell, so most pivots
        // are degenerate (θ = 0). The Bland-style leaving tie-break
        // (ties → largest cell id) must still terminate at the optimum
        // instead of cycling through zero-flow bases.
        let k = 8usize;
        let uniform = vec![1.0 / k as f64; k];
        let mut cost = vec![1.0; k * k];
        for i in 0..k {
            // Optimal assignment: each supply i ships to column (i+3) % k.
            cost[i * k + (i + 3) % k] = 0.0;
        }
        let mut p = TransportProblem::new(uniform.clone(), uniform, cost).unwrap();
        let d = p.solve().unwrap();
        assert!(d.abs() < 1e-12, "expected free optimum, got {d}");
        // Marginals must survive the degenerate pivot sequence.
        for i in 0..k {
            let row: f64 = p.flow()[i * k..(i + 1) * k].iter().sum();
            assert!((row - 1.0 / k as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_weight_bins_are_tolerated() {
        let d = solve(vec![0.0, 1.0], vec![1.0, 0.0], vec![0.0, 5.0, 2.0, 5.0]);
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(matches!(
            TransportProblem::new(vec![], vec![1.0], vec![]),
            Err(EmdError::EmptyInput)
        ));
        assert!(matches!(
            TransportProblem::new(vec![1.0], vec![1.0], vec![1.0, 2.0]),
            Err(EmdError::CostShape { .. })
        ));
        assert!(matches!(
            TransportProblem::new(vec![1.0], vec![2.0], vec![0.0]),
            Err(EmdError::Unbalanced { .. })
        ));
        assert!(matches!(
            TransportProblem::new(vec![-1.0], vec![-1.0], vec![0.0]),
            Err(EmdError::InvalidWeight { .. })
        ));
        assert!(TransportProblem::new(vec![1.0], vec![1.0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn small_imbalance_is_rescaled() {
        let p = TransportProblem::new(vec![1.0], vec![1.0 + 1e-9], vec![1.0]);
        assert!(p.is_ok());
    }

    #[test]
    fn flow_and_objective_are_zero_before_solve() {
        let p = TransportProblem::new(vec![0.5, 0.5], vec![0.5, 0.5], vec![1.0, 2.0, 3.0, 4.0])
            .unwrap();
        assert!(!p.is_solved());
        assert_eq!(p.objective(), 0.0);
        assert!(p.flow().iter().all(|&f| f == 0.0));
    }

    #[test]
    fn solve_is_repeatable() {
        // A second solve() must not be polluted by the first one's flow.
        let mut p = TransportProblem::new(vec![0.3, 0.7], vec![0.5, 0.5], vec![1.0, 2.0, 3.0, 0.5])
            .unwrap();
        let first = p.solve().unwrap();
        let second = p.solve().unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn flow_conserves_mass() {
        let mut p = TransportProblem::new(vec![0.3, 0.7], vec![0.5, 0.5], vec![1.0, 2.0, 3.0, 0.5])
            .unwrap();
        p.solve().unwrap();
        let flow = p.flow();
        // Row sums equal supplies; column sums equal demands.
        assert!((flow[0] + flow[1] - 0.3).abs() < 1e-12);
        assert!((flow[2] + flow[3] - 0.7).abs() < 1e-12);
        assert!((flow[0] + flow[2] - 0.5).abs() < 1e-12);
        assert!((flow[1] + flow[3] - 0.5).abs() < 1e-12);
        assert!(p.is_solved());
    }

    #[test]
    fn matches_min_cost_flow_on_random_corpus() {
        // Cross-validate the tree-based simplex against the structurally
        // independent successive-shortest-paths solver (see `MinCostFlow`)
        // on a corpus of random balanced instances, including rectangular
        // shapes. The bipartite-specialized flow solver is fast enough
        // that the full corpus runs on every `cargo test`.
        let trials: u64 = 12;
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..trials {
            let n = 3 + (trial * 5) % 28;
            let m = 2 + (trial * 7) % 31;
            let mut supply: Vec<f64> = (0..n).map(|_| 0.01 + next()).collect();
            let mut demand: Vec<f64> = (0..m).map(|_| 0.01 + next()).collect();
            let st: f64 = supply.iter().sum();
            let dt: f64 = demand.iter().sum();
            supply.iter_mut().for_each(|x| *x /= st);
            demand.iter_mut().for_each(|x| *x /= dt);
            let cost: Vec<f64> = (0..n * m).map(|_| next() * 10.0).collect();
            let via_simplex = solve(supply.clone(), demand.clone(), cost.clone());
            let via_flow = crate::MinCostFlow::new(supply, demand, cost)
                .unwrap()
                .solve()
                .unwrap();
            assert!(
                (via_simplex - via_flow).abs() < 1e-9,
                "trial {trial} ({n}x{m}): simplex {via_simplex} vs flow {via_flow}"
            );
        }
    }
}
