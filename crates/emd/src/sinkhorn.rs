use crate::{EmdError, Result};

/// Parameters for the Sinkhorn–Knopp entropic OT approximation.
#[derive(Debug, Clone, Copy)]
pub struct SinkhornParams {
    /// Entropic regularization strength `ε`. Smaller values approximate the
    /// exact EMD more closely but converge more slowly and risk underflow;
    /// values around 1–5 % of the typical ground distance work well.
    pub regularization: f64,
    /// Maximum number of scaling sweeps.
    pub max_iterations: usize,
    /// Convergence threshold on the L1 marginal violation.
    pub tolerance: f64,
}

impl Default for SinkhornParams {
    fn default() -> Self {
        SinkhornParams {
            regularization: 0.05,
            max_iterations: 10_000,
            tolerance: 1e-9,
        }
    }
}

/// Approximate EMD via Sinkhorn–Knopp matrix scaling.
///
/// Returns the transport cost `Σ P_ij c_ij / Σ P_ij` of the entropically
/// regularized plan. The result upper-approximates the exact EMD and
/// converges to it as `regularization → 0`. Provided as the fast
/// alternative for very large signatures: [`crate::GridEmd`] falls back to
/// it when the exact solve would exceed its budget.
pub fn sinkhorn(
    supply: &[f64],
    demand: &[f64],
    cost: &[f64],
    params: SinkhornParams,
) -> Result<f64> {
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
    if params.regularization <= 0.0 {
        return Err(EmdError::InvalidWeight {
            value: params.regularization,
        });
    }
    let ts: f64 = supply.iter().sum();
    let td: f64 = demand.iter().sum();
    if ts <= 0.0 || td <= 0.0 {
        return Err(EmdError::EmptyInput);
    }
    if ((ts - td) / ts.max(td)).abs() > 1e-6 {
        return Err(EmdError::Unbalanced {
            supply: ts,
            demand: td,
        });
    }

    // Normalize both marginals to probability vectors.
    let a: Vec<f64> = supply.iter().map(|x| x / ts).collect();
    let b: Vec<f64> = demand.iter().map(|x| x / td).collect();

    // Gibbs kernel K = exp(-C / ε).
    let eps = params.regularization;
    let k: Vec<f64> = cost.iter().map(|c| (-c / eps).exp()).collect();

    // With small ε and O(10) costs, `exp(-c/ε)` can underflow a whole
    // kernel row/column to 0.0; the scaling recursion then turns the
    // factors into ±inf/NaN and the marginals never converge. Detect that
    // regime up front and solve in the log domain instead.
    let row_dead = (0..n).any(|i| a[i] > 0.0 && k[i * m..(i + 1) * m].iter().all(|&x| x == 0.0));
    let col_dead = (0..m).any(|j| b[j] > 0.0 && (0..n).all(|i| k[i * m + j] == 0.0));
    if row_dead || col_dead {
        return sinkhorn_log_domain(&a, &b, cost, eps, &params);
    }

    let mut u = vec![1.0; n];
    let mut v = vec![1.0; m];
    /// Scaling denominators below this are treated as underflow: dividing
    /// by them overflows the factors to ±inf on the next sweep.
    const FLOOR: f64 = 1e-300;

    for _ in 0..params.max_iterations {
        // u = a ./ (K v)
        for i in 0..n {
            let mut kv = 0.0;
            let row = i * m;
            for j in 0..m {
                kv += k[row + j] * v[j];
            }
            if a[i] == 0.0 {
                u[i] = 0.0;
            } else if kv < FLOOR {
                // Mid-iteration underflow: the multiplicative recursion has
                // collapsed; fall back to the numerically stable path.
                return sinkhorn_log_domain(&a, &b, cost, eps, &params);
            } else {
                u[i] = a[i] / kv;
            }
        }
        // v = b ./ (Kᵀ u)
        for j in 0..m {
            let mut ktu = 0.0;
            for i in 0..n {
                ktu += k[i * m + j] * u[i];
            }
            if b[j] == 0.0 {
                v[j] = 0.0;
            } else if ktu < FLOOR {
                return sinkhorn_log_domain(&a, &b, cost, eps, &params);
            } else {
                v[j] = b[j] / ktu;
            }
        }
        // Marginal violation of the row sums.
        let mut err = 0.0;
        for i in 0..n {
            let mut row_sum = 0.0;
            let row = i * m;
            for j in 0..m {
                row_sum += u[i] * k[row + j] * v[j];
            }
            err += (row_sum - a[i]).abs();
        }
        if err < params.tolerance {
            // Transport cost of the current plan.
            let mut total = 0.0;
            let mut mass = 0.0;
            for i in 0..n {
                let row = i * m;
                for j in 0..m {
                    let p = u[i] * k[row + j] * v[j];
                    total += p * cost[row + j];
                    mass += p;
                }
            }
            if mass <= 0.0 {
                return Err(EmdError::NoConvergence { iterations: 0 });
            }
            return Ok(total / mass);
        }
    }
    Err(EmdError::NoConvergence {
        iterations: params.max_iterations,
    })
}

/// Log-domain Sinkhorn: iterates the dual potentials `f`, `g` with
/// log-sum-exp reductions so no intermediate ever underflows, at the price
/// of `exp` calls per cell per sweep. `a` and `b` are the normalized
/// marginals; the plan is `P_ij = exp((f_i + g_j − c_ij) / ε)`.
fn sinkhorn_log_domain(
    a: &[f64],
    b: &[f64],
    cost: &[f64],
    eps: f64,
    params: &SinkhornParams,
) -> Result<f64> {
    let n = a.len();
    let m = b.len();
    let la: Vec<f64> = a.iter().map(|&x| x.ln()).collect(); // ln 0 = −inf: empty bin
    let lb: Vec<f64> = b.iter().map(|&x| x.ln()).collect();
    let mut f = vec![0.0; n];
    let mut g = vec![0.0; m];

    // LSE over the exponents `xs`: max + ln Σ exp(x − max).
    let lse = |mx: f64, sum: f64| mx + sum.ln();

    for _ in 0..params.max_iterations {
        // f_i = ε (ln a_i − LSE_j((g_j − c_ij)/ε))
        for i in 0..n {
            if a[i] == 0.0 {
                f[i] = f64::NEG_INFINITY;
                continue;
            }
            let row = i * m;
            let mut mx = f64::NEG_INFINITY;
            for j in 0..m {
                mx = mx.max((g[j] - cost[row + j]) / eps);
            }
            let mut sum = 0.0;
            for j in 0..m {
                sum += ((g[j] - cost[row + j]) / eps - mx).exp();
            }
            f[i] = eps * (la[i] - lse(mx, sum));
        }
        // g_j = ε (ln b_j − LSE_i((f_i − c_ij)/ε))
        for j in 0..m {
            if b[j] == 0.0 {
                g[j] = f64::NEG_INFINITY;
                continue;
            }
            let mut mx = f64::NEG_INFINITY;
            for i in 0..n {
                mx = mx.max((f[i] - cost[i * m + j]) / eps);
            }
            let mut sum = 0.0;
            for i in 0..n {
                sum += ((f[i] - cost[i * m + j]) / eps - mx).exp();
            }
            g[j] = eps * (lb[j] - lse(mx, sum));
        }
        // Row-marginal violation (columns are exact after the g sweep).
        let mut err = 0.0;
        for i in 0..n {
            let row = i * m;
            let mut row_sum = 0.0;
            for j in 0..m {
                row_sum += ((f[i] + g[j] - cost[row + j]) / eps).exp();
            }
            err += (row_sum - a[i]).abs();
        }
        if err < params.tolerance {
            let mut total = 0.0;
            let mut mass = 0.0;
            for i in 0..n {
                let row = i * m;
                for j in 0..m {
                    let p = ((f[i] + g[j] - cost[row + j]) / eps).exp();
                    total += p * cost[row + j];
                    mass += p;
                }
            }
            if mass <= 0.0 {
                return Err(EmdError::NoConvergence { iterations: 0 });
            }
            return Ok(total / mass);
        }
    }
    Err(EmdError::NoConvergence {
        iterations: params.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransportProblem;

    #[test]
    fn identical_distributions_near_zero() {
        let s = vec![0.5, 0.5];
        let c = vec![0.0, 1.0, 1.0, 0.0];
        let d = sinkhorn(&s, &s, &c, SinkhornParams::default()).unwrap();
        // Entropic smearing keeps this slightly above zero.
        assert!((0.0..0.1).contains(&d), "got {d}");
    }

    #[test]
    fn approximates_exact_emd_with_small_regularization() {
        let supply = vec![0.2, 0.5, 0.3];
        let demand = vec![0.4, 0.6];
        let cost = vec![1.0, 3.0, 2.0, 1.0, 4.0, 2.5];
        let exact = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let approx = sinkhorn(
            &supply,
            &demand,
            &cost,
            SinkhornParams {
                regularization: 0.01,
                max_iterations: 100_000,
                tolerance: 1e-10,
            },
        )
        .unwrap();
        assert!(
            (approx - exact).abs() < 0.05,
            "approx {approx} vs exact {exact}"
        );
        // Entropic plans never beat the optimum.
        assert!(approx >= exact - 1e-9);
    }

    #[test]
    fn tighter_regularization_is_closer() {
        let supply = vec![0.7, 0.3];
        let demand = vec![0.3, 0.7];
        let cost = vec![0.0, 2.0, 2.0, 0.0];
        let exact = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let loose = sinkhorn(
            &supply,
            &demand,
            &cost,
            SinkhornParams {
                regularization: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let tight = sinkhorn(
            &supply,
            &demand,
            &cost,
            SinkhornParams {
                regularization: 0.02,
                max_iterations: 200_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((tight - exact).abs() <= (loose - exact).abs() + 1e-9);
    }

    #[test]
    fn tiny_regularization_survives_kernel_underflow() {
        // Regression: with ε = 1e-3 and O(1–10) costs, every kernel entry
        // exp(-c/ε) underflows to 0.0. The multiplicative recursion used to
        // turn the scaling factors into ±inf/NaN and burn all
        // max_iterations before a useless NoConvergence; the log-domain
        // path must converge and land near the exact EMD instead.
        let supply = vec![0.2, 0.5, 0.3];
        let demand = vec![0.4, 0.6];
        let cost = vec![1.0, 3.0, 2.0, 1.0, 4.0, 2.5];
        let exact = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let approx = sinkhorn(
            &supply,
            &demand,
            &cost,
            SinkhornParams {
                regularization: 1e-3,
                max_iterations: 10_000,
                tolerance: 1e-9,
            },
        )
        .unwrap();
        assert!(
            (approx - exact).abs() < 1e-2,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn partial_underflow_switches_to_log_domain() {
        // Rows with a zero-cost entry keep one live kernel cell, so the
        // up-front check passes, but the recursion can still collapse
        // mid-iteration; the in-loop guard must hand over to the log
        // domain rather than diverge. ε = 2e-3 with costs up to 8.
        let supply = vec![0.5, 0.5];
        let demand = vec![0.3, 0.7];
        let cost = vec![0.0, 8.0, 8.0, 0.0];
        let exact = TransportProblem::new(supply.clone(), demand.clone(), cost.clone())
            .unwrap()
            .solve()
            .unwrap();
        let approx = sinkhorn(
            &supply,
            &demand,
            &cost,
            SinkhornParams {
                regularization: 2e-3,
                max_iterations: 10_000,
                tolerance: 1e-9,
            },
        )
        .unwrap();
        assert!(
            (approx - exact).abs() < 1e-2,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn rejects_bad_params() {
        assert!(sinkhorn(
            &[1.0],
            &[1.0],
            &[0.0],
            SinkhornParams {
                regularization: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(sinkhorn(&[], &[], &[], SinkhornParams::default()).is_err());
        assert!(matches!(
            sinkhorn(&[1.0], &[2.0], &[0.0], SinkhornParams::default()),
            Err(EmdError::Unbalanced { .. })
        ));
    }

    #[test]
    fn zero_mass_bins_are_tolerated() {
        let d = sinkhorn(
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[5.0, 1.0, 2.0, 1.0],
            SinkhornParams::default(),
        )
        .unwrap();
        assert!((d - 2.0).abs() < 0.1, "got {d}");
    }
}
