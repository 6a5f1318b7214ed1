use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use sd_linalg::{pairwise_covariance_matrix, CholeskyFactor, Matrix};
use std::fmt;

/// Errors from model-based imputation.
#[derive(Debug, Clone, PartialEq)]
pub enum MiError {
    /// Not enough rows with observed data to estimate the model.
    TooFewRows {
        /// Rows provided.
        got: usize,
    },
    /// Rows with inconsistent dimensions.
    DimensionMismatch,
    /// More attributes than the missing-pattern table supports
    /// ([`MAX_ATTRIBUTES`]).
    TooManyAttributes {
        /// Attributes per row.
        got: usize,
    },
    /// The covariance could not be factored even after regularization.
    Numerical(String),
}

impl fmt::Display for MiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiError::TooFewRows { got } => {
                write!(f, "too few rows to fit an imputation model ({got})")
            }
            MiError::DimensionMismatch => write!(f, "rows have inconsistent dimensions"),
            MiError::TooManyAttributes { got } => write!(
                f,
                "{got} attributes exceed the imputation model's limit of {MAX_ATTRIBUTES}"
            ),
            MiError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for MiError {}

/// Largest dimensionality the imputation model supports: the solver table
/// holds every one of the `2^v` missing patterns.
const MAX_ATTRIBUTES: usize = 20;

/// A fitted multivariate-normal model `N(μ, Σ)`.
///
/// The paper's Strategy 1/2 imputer is SAS `PROC MI`, whose default model
/// assumes multivariate normality ("the imputing algorithm … assumes an
/// underlying Gaussian distribution that is not appropriate for this
/// data", Fig. 4). This reproduction fits the same model by
/// expectation-maximization over incomplete rows, then draws each record's
/// missing block from the conditional Gaussian given its observed block.
///
/// # The fit's data layout
///
/// [`MvnModel::fit`] takes the rows as one flat row-major buffer (`v`
/// values per row, NaN = missing), which [`crate::ModelFit`] fills
/// straight from the dataset. The E-step body is written once, generic
/// over the dimension `V` (a single `match` maps the runtime `v ∈
/// 1..=20` to it), and accumulates `Σ x̂` and `Σ x̂ x̂ᵀ` in stack arrays.
/// A complete row (most rows: ~85 % in a harness replication) is
/// recognised by a branch-free NaN mask and added as is; an incomplete
/// row gets its conditional mean from its pattern's gain, and the
/// pattern's conditional covariance `L Lᵀ`, computed once per iteration
/// when the solver table is built, on its missing block.
///
/// Every accumulator receives the same additions in the same row order as
/// the textbook per-row loop (the `x̂ x̂ᵀ` term, then the conditional
/// covariance term), so the fitted mean and covariance are bit-identical
/// to it; the test-only oracle in this module pins that by `to_bits`.
///
/// Cost on a 2-vCPU host, traced repository benchmark at harness scale:
/// `cleaning.model_fit_ms` per `protocol` job is ~5 ms with this layout,
/// against ~17 ms for the per-row `Vec<Vec<f64>>` loop with heap
/// accumulators.
#[derive(Debug, Clone)]
pub struct MvnModel {
    mean: Vec<f64>,
    cov: Matrix,
    /// Conditional solvers for every incomplete missing pattern: the
    /// solver of bitmask `p` (bit `a` set when attribute `a` is missing,
    /// `p ≥ 1`) is at index `p − 1`, so lookup is a direct index. The
    /// complete pattern needs no solver.
    patterns: Vec<PatternSolver>,
}

/// Precomputed conditional-Gaussian pieces for one missing pattern.
#[derive(Debug, Clone)]
struct PatternSolver {
    observed: Vec<usize>,
    missing: Vec<usize>,
    /// Gain `K = Σ_MO Σ_OO⁻¹` (|M| × |O|).
    gain: Matrix,
    /// Cholesky factor `L` of the conditional covariance
    /// `Σ_MM − K Σ_OM` (|M| × |M|).
    cond_chol: CholeskyFactor,
    /// `L Lᵀ` (|M| × |M|): the conditional covariance the E-step adds per
    /// row with this pattern.
    cond_cov: Matrix,
}

/// Ridge used when sample covariances are rank-deficient.
const RIDGE: f64 = 1e-9;
/// Maximum regularization doublings.
const RIDGE_TRIES: u32 = 30;

impl MvnModel {
    /// Fits the model to `rows`, a flat row-major buffer of `v` values per
    /// row that may contain NaN (missing) cells, running EM until
    /// parameters move less than `tol` or `max_iter` is reached.
    ///
    /// Rows that are entirely missing contribute only through the E-step's
    /// prior term, exactly as in the textbook EM for MVN data.
    pub fn fit(rows: &[f64], v: usize, max_iter: usize, tol: f64) -> Result<Self, MiError> {
        if v == 0 {
            return Err(MiError::TooFewRows { got: 0 });
        }
        if rows.len() % v != 0 {
            return Err(MiError::DimensionMismatch);
        }
        let num_rows = rows.len() / v;
        if num_rows < v + 2 {
            return Err(MiError::TooFewRows { got: num_rows });
        }

        // Starting estimates: pairwise-complete moments.
        let (mut cov, mut mean) =
            pairwise_covariance_matrix(rows, v).map_err(|e| MiError::Numerical(e.to_string()))?;

        let n = num_rows as f64;
        let mut s1 = vec![0.0; v];
        let mut s2 = vec![0.0; v * v];
        for _ in 0..max_iter {
            let solvers = build_solvers(&mean, &cov)?;
            e_step(rows, &mean, &solvers, &mut s1, &mut s2)?;
            // M-step.
            let new_mean: Vec<f64> = s1.iter().map(|x| x / n).collect();
            let mut new_cov = Matrix::zeros(v, v);
            for i in 0..v {
                for j in i..v {
                    let c = s2[i * v + j] / n - new_mean[i] * new_mean[j];
                    new_cov[(i, j)] = c;
                    new_cov[(j, i)] = c;
                }
            }
            let mean_shift = mean
                .iter()
                .zip(&new_mean)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            let cov_shift = cov
                .max_abs_diff(&new_cov)
                .map_err(|e| MiError::Numerical(e.to_string()))?;
            mean = new_mean;
            cov = new_cov;
            if mean_shift < tol && cov_shift < tol {
                break;
            }
        }

        let patterns = build_solvers(&mean, &cov)?;
        Ok(MvnModel {
            mean,
            cov,
            patterns,
        })
    }

    /// The fitted mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The fitted covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.cov
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

/// One E-step over the flat `rows`: writes `Σ x̂` into `s1` (length `v`)
/// and the upper triangle of `Σ (x̂ x̂ᵀ + C)` into `s2` (row-major
/// `v × v`), where `x̂` is each row's conditional mean and `C` its
/// pattern's conditional covariance on the missing block.
///
/// Dispatches the runtime dimension to [`e_step_fixed`], the one E-step
/// body, monomorphized per supported dimension.
fn e_step(
    rows: &[f64],
    mean: &[f64],
    solvers: &[PatternSolver],
    s1: &mut [f64],
    s2: &mut [f64],
) -> Result<(), MiError> {
    macro_rules! dispatch {
        ($($dim:literal)+) => {
            match mean.len() {
                $($dim => e_step_fixed::<$dim>(rows, mean, solvers, s1, s2),)+
                got => return Err(MiError::TooManyAttributes { got }),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20);
    Ok(())
}

/// The E-step body for `V` attributes (see [`e_step`]).
///
/// Bit-identity with the per-row textbook loop: each accumulator sees, row
/// by row, `x̂_i` (into `s1[i]`), then `x̂_i x̂_j` and — for rows missing
/// both `i` and `j` — `C_ij` (into `s2[i][j]`), in row order. Skipping the
/// conditional-mean step on complete rows changes nothing, since a complete
/// row's conditional mean is the row itself.
fn e_step_fixed<const V: usize>(
    rows: &[f64],
    mean: &[f64],
    solvers: &[PatternSolver],
    s1_out: &mut [f64],
    s2_out: &mut [f64],
) {
    let mut s1 = [0.0; V];
    let mut s2 = [[0.0; V]; V];
    let mut x = [0.0; V];
    for row in rows.chunks_exact(V) {
        x.copy_from_slice(row);
        let mut pattern = 0u32;
        for a in 0..V {
            pattern |= u32::from(x[a].is_nan()) << a;
        }
        let solver = match pattern {
            0 => None,
            p => Some(&solvers[p as usize - 1]),
        };
        if let Some(solver) = solver {
            conditional_mean(mean, solver, row, &mut x);
        }
        for i in 0..V {
            s1[i] += x[i];
            for j in i..V {
                s2[i][j] += x[i] * x[j];
            }
        }
        if let Some(solver) = solver {
            let m = solver.missing.len();
            let cc = solver.cond_cov.as_slice();
            for (mi, &gi) in solver.missing.iter().enumerate() {
                for (mj, &gj) in solver.missing.iter().enumerate() {
                    if gj >= gi {
                        s2[gi][gj] += cc[mi * m + mj];
                    }
                }
            }
        }
    }
    s1_out.copy_from_slice(&s1);
    for (out, acc) in s2_out.chunks_exact_mut(V).zip(&s2) {
        out.copy_from_slice(acc);
    }
}

/// Model-based imputer: a fitted [`MvnModel`] plus draw policy.
#[derive(Debug, Clone)]
pub struct MvnImputer {
    model: MvnModel,
    /// Whether records with *every* attribute missing get an unconditional
    /// draw. `PROC MI`-style row imputation has nothing to condition on for
    /// such records; leaving them unimputed reproduces the small residual
    /// missing percentage in Table 1 (0.028 %).
    impute_fully_missing: bool,
}

impl MvnImputer {
    /// Fits the imputation model on a flat row-major buffer of `v`
    /// working-space values per row (NaN = to impute).
    pub fn fit_flat(rows: &[f64], v: usize) -> Result<Self, MiError> {
        Ok(MvnImputer {
            model: MvnModel::fit(rows, v, 50, 1e-8)?,
            impute_fully_missing: false,
        })
    }

    /// Enables unconditional draws for fully-missing records.
    pub fn with_fully_missing_draws(mut self, enabled: bool) -> Self {
        self.impute_fully_missing = enabled;
        self
    }

    /// The fitted model.
    pub fn model(&self) -> &MvnModel {
        &self.model
    }

    /// Imputes the NaN cells of `record` in place with draws from the
    /// conditional Gaussian. Returns the number of cells imputed (0 when
    /// the record is complete, or fully missing and unconditional draws are
    /// disabled).
    ///
    /// Allocation-free: every missing cell's `z ~ N(0, 1)` is drawn first,
    /// in attribute order, then correlated with the conditional Cholesky
    /// factor, all in fixed stack scratch.
    pub fn impute_record<R: Rng + ?Sized>(&self, record: &mut [f64], rng: &mut R) -> usize {
        let v = self.model.dim();
        assert_eq!(record.len(), v, "record dimension mismatch");
        let pattern = pattern_of(record);
        if pattern == 0 {
            return 0;
        }
        let full_mask = (1u32 << v) - 1;
        if pattern == full_mask && !self.impute_fully_missing {
            return 0;
        }
        let solver = &self.model.patterns[pattern as usize - 1];
        let mut cond = [0.0; MAX_ATTRIBUTES];
        conditional_mean(&self.model.mean, solver, record, &mut cond[..v]);
        let m = solver.missing.len();
        let mut z = [0.0; MAX_ATTRIBUTES];
        for zi in &mut z[..m] {
            *zi = StandardNormal.sample(rng);
        }
        // `record[attr] = cond[attr] + (L z)[mi]`, with `L z` summed in
        // `Matrix::mat_vec` order.
        let l = solver.cond_chol.l();
        for (mi, &attr) in solver.missing.iter().enumerate() {
            let mut noise = 0.0;
            for (a, b) in l.row(mi).iter().zip(&z[..m]) {
                noise += a * b;
            }
            record[attr] = cond[attr] + noise;
        }
        m
    }
}

/// Missing-pattern bitmask of a record (bit set = missing).
fn pattern_of(record: &[f64]) -> u32 {
    let mut mask = 0u32;
    for (a, &x) in record.iter().enumerate() {
        if x.is_nan() {
            mask |= 1 << a;
        }
    }
    mask
}

/// Builds conditional solvers for every incomplete missing pattern of a
/// `v`-dimensional model (there are `2^v − 1`, so `v` is capped at
/// [`MAX_ATTRIBUTES`]; the paper's data has `v = 3`), the solver of
/// bitmask `p` at index `p − 1`.
fn build_solvers(mean: &[f64], cov: &Matrix) -> Result<Vec<PatternSolver>, MiError> {
    let v = mean.len();
    if v > MAX_ATTRIBUTES {
        return Err(MiError::TooManyAttributes { got: v });
    }
    let numerical = |e: sd_linalg::LinalgError| MiError::Numerical(e.to_string());
    let mut map = Vec::with_capacity((1 << v) - 1);
    for pattern in 1u32..(1 << v) {
        let missing: Vec<usize> = (0..v).filter(|a| pattern & (1 << a) != 0).collect();
        let observed: Vec<usize> = (0..v).filter(|a| pattern & (1 << a) == 0).collect();
        let (gain, cond_chol) = if observed.is_empty() {
            // Unconditional: gain empty, conditional covariance = Σ.
            let chol =
                CholeskyFactor::new_regularized(cov, RIDGE, RIDGE_TRIES).map_err(numerical)?;
            (Matrix::zeros(v, 0), chol)
        } else {
            let sigma_oo = cov.select(&observed).map_err(numerical)?;
            let sigma_om = cov.select_rect(&observed, &missing).map_err(numerical)?;
            let sigma_mm = cov.select(&missing).map_err(numerical)?;
            let chol_oo = CholeskyFactor::new_regularized(&sigma_oo, RIDGE, RIDGE_TRIES)
                .map_err(numerical)?;
            // Kᵀ = Σ_OO⁻¹ Σ_OM, solved column by column.
            let mut gain_t = Matrix::zeros(observed.len(), missing.len());
            let mut col = vec![0.0; observed.len()];
            for mj in 0..missing.len() {
                for oi in 0..observed.len() {
                    col[oi] = sigma_om[(oi, mj)];
                }
                let sol = chol_oo.solve(&col).map_err(numerical)?;
                for oi in 0..observed.len() {
                    gain_t[(oi, mj)] = sol[oi];
                }
            }
            let gain = gain_t.transpose();
            // Conditional covariance Σ_MM − K Σ_OM.
            let k_som = gain.mat_mul(&sigma_om).map_err(numerical)?;
            let cond_cov = sigma_mm.sub(&k_som).map_err(numerical)?;
            let cond_chol = CholeskyFactor::new_regularized(&cond_cov, RIDGE, RIDGE_TRIES)
                .map_err(numerical)?;
            (gain, cond_chol)
        };
        let cond_cov = cond_chol
            .l()
            .mat_mul(&cond_chol.l().transpose())
            .map_err(numerical)?;
        map.push(PatternSolver {
            observed,
            missing,
            gain,
            cond_chol,
            cond_cov,
        });
    }
    Ok(map)
}

/// Fills `out` with the conditional mean of `record` under the model:
/// observed cells pass through, missing cells get
/// `μ_M + K (x_O − μ_O)`.
fn conditional_mean(mean: &[f64], solver: &PatternSolver, record: &[f64], out: &mut [f64]) {
    for (a, &x) in record.iter().enumerate() {
        out[a] = if x.is_nan() { mean[a] } else { x };
    }
    if solver.missing.is_empty() || solver.observed.is_empty() {
        return;
    }
    // Alloc-free `μ_M + K (x_O − μ_O)`: accumulates in the same
    // left-to-right order as `Matrix::mat_vec`, so the bits are unchanged.
    for (mi, &attr) in solver.missing.iter().enumerate() {
        let mut adjust = 0.0;
        for (&g, &o) in solver.gain.row(mi).iter().zip(&solver.observed) {
            adjust += g * (record[o] - mean[o]);
        }
        out[attr] = mean[attr] + adjust;
    }
}

/// The per-row EM the flat fit replaced, kept as the bit-identity oracle:
/// rows as `Vec<Vec<f64>>`, pairwise starting moments over those rows,
/// and an E-step that sends every row through [`conditional_mean`] into
/// a heap `s1` and a `Matrix` `s2`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Fits the model exactly as the per-row EM did.
    pub(crate) fn fit_rows(
        rows: &[Vec<f64>],
        max_iter: usize,
        tol: f64,
    ) -> Result<MvnModel, MiError> {
        let v = rows.first().map(|r| r.len()).unwrap_or(0);
        if rows.iter().any(|r| r.len() != v) {
            return Err(MiError::DimensionMismatch);
        }
        if rows.len() < v + 2 || v == 0 {
            return Err(MiError::TooFewRows { got: rows.len() });
        }
        let (mut cov, mut mean) = pairwise_rows(rows);
        let n = rows.len() as f64;
        for _ in 0..max_iter {
            let solvers = build_solvers(&mean, &cov)?;
            let mut s1 = vec![0.0; v];
            let mut s2 = Matrix::zeros(v, v);
            let mut xhat = vec![0.0; v];
            for row in rows {
                let pattern = pattern_of(row) as usize;
                let solver = pattern.checked_sub(1).map(|p| &solvers[p]);
                match solver {
                    Some(solver) => conditional_mean(&mean, solver, row, &mut xhat),
                    None => xhat.copy_from_slice(row),
                }
                for i in 0..v {
                    s1[i] += xhat[i];
                    for j in i..v {
                        s2[(i, j)] += xhat[i] * xhat[j];
                    }
                }
                if let Some(solver) = solver {
                    let cc = solver
                        .cond_chol
                        .l()
                        .mat_mul(&solver.cond_chol.l().transpose())
                        .unwrap();
                    for (mi, &gi) in solver.missing.iter().enumerate() {
                        for (mj, &gj) in solver.missing.iter().enumerate() {
                            if gj >= gi {
                                s2[(gi, gj)] += cc[(mi, mj)];
                            }
                        }
                    }
                }
            }
            let new_mean: Vec<f64> = s1.iter().map(|x| x / n).collect();
            let mut new_cov = Matrix::zeros(v, v);
            for i in 0..v {
                for j in i..v {
                    let c = s2[(i, j)] / n - new_mean[i] * new_mean[j];
                    new_cov[(i, j)] = c;
                    new_cov[(j, i)] = c;
                }
            }
            let mean_shift = mean
                .iter()
                .zip(&new_mean)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            let cov_shift = cov.max_abs_diff(&new_cov).unwrap();
            mean = new_mean;
            cov = new_cov;
            if mean_shift < tol && cov_shift < tol {
                break;
            }
        }
        let patterns = build_solvers(&mean, &cov)?;
        Ok(MvnModel {
            mean,
            cov,
            patterns,
        })
    }

    /// Pairwise-complete starting moments over `Vec` rows.
    fn pairwise_rows(rows: &[Vec<f64>]) -> (Matrix, Vec<f64>) {
        let v = rows[0].len();
        let mut mean = vec![0.0; v];
        let mut count = vec![0usize; v];
        for row in rows {
            for (k, &x) in row.iter().enumerate() {
                if x.is_finite() {
                    mean[k] += x;
                    count[k] += 1;
                }
            }
        }
        for k in 0..v {
            mean[k] = if count[k] == 0 {
                0.0
            } else {
                mean[k] / count[k] as f64
            };
        }
        let mut cov = Matrix::zeros(v, v);
        let mut pair_n = vec![0usize; v * v];
        for row in rows {
            for i in 0..v {
                for j in i..v {
                    if row[i].is_finite() && row[j].is_finite() {
                        cov[(i, j)] += (row[i] - mean[i]) * (row[j] - mean[j]);
                        pair_n[i * v + j] += 1;
                    }
                }
            }
        }
        for i in 0..v {
            for j in i..v {
                let n = pair_n[i * v + j];
                let c = if n >= 2 {
                    cov[(i, j)] / (n as f64 - 1.0)
                } else {
                    0.0
                };
                cov[(i, j)] = c;
                cov[(j, i)] = c;
            }
        }
        (cov, mean)
    }

    /// Asserts two fitted models agree bit for bit: mean, covariance, and
    /// every pattern's gain and conditional Cholesky factor.
    pub(crate) fn assert_same_bits(got: &MvnModel, want: &MvnModel, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.mean()), bits(want.mean()), "{what}: mean");
        assert_eq!(
            bits(got.covariance().as_slice()),
            bits(want.covariance().as_slice()),
            "{what}: covariance"
        );
        assert_eq!(got.patterns.len(), want.patterns.len(), "{what}: patterns");
        for (p, (a, b)) in got.patterns.iter().zip(&want.patterns).enumerate() {
            assert_eq!(
                bits(a.gain.as_slice()),
                bits(b.gain.as_slice()),
                "{what}: gain of pattern {}",
                p + 1
            );
            assert_eq!(
                bits(a.cond_chol.l().as_slice()),
                bits(b.cond_chol.l().as_slice()),
                "{what}: conditional factor of pattern {}",
                p + 1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Correlated 3-D Gaussian-ish sample via deterministic construction.
    fn make_rows(n: usize, missing_every: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(99);
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let z1: f64 = StandardNormal.sample(&mut rng);
            let z2: f64 = StandardNormal.sample(&mut rng);
            let z3: f64 = StandardNormal.sample(&mut rng);
            let x = 10.0 + 2.0 * z1;
            let y = 5.0 + 1.5 * z1 + 0.5 * z2; // correlated with x
            let w = -3.0 + z3;
            let mut row = vec![x, y, w];
            if missing_every > 0 && i % missing_every == 1 {
                row[1] = f64::NAN;
            }
            if missing_every > 0 && i % missing_every == 3 {
                row[0] = f64::NAN;
                row[2] = f64::NAN;
            }
            rows.push(row);
        }
        rows
    }

    #[test]
    fn em_recovers_moments_on_complete_data() {
        let rows = make_rows(4000, 0);
        let model = MvnModel::fit(&rows.concat(), 3, 50, 1e-9).unwrap();
        assert!((model.mean()[0] - 10.0).abs() < 0.2);
        assert!((model.mean()[1] - 5.0).abs() < 0.2);
        assert!((model.mean()[2] + 3.0).abs() < 0.2);
        // Var(x) = 4, Cov(x, y) = 3, Var(y) = 2.5.
        assert!((model.covariance()[(0, 0)] - 4.0).abs() < 0.4);
        assert!((model.covariance()[(0, 1)] - 3.0).abs() < 0.4);
        assert!((model.covariance()[(1, 1)] - 2.5).abs() < 0.4);
    }

    #[test]
    fn em_tolerates_missing_cells() {
        let rows = make_rows(4000, 4); // 25 % rows with a missing y, 25 % with x&w missing
        let model = MvnModel::fit(&rows.concat(), 3, 60, 1e-9).unwrap();
        assert!((model.mean()[0] - 10.0).abs() < 0.3);
        assert!((model.covariance()[(0, 1)] - 3.0).abs() < 0.6);
    }

    #[test]
    fn conditional_imputation_exploits_correlation() {
        let rows = make_rows(4000, 0);
        let imputer = MvnImputer::fit_flat(&rows.concat(), rows[0].len()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        // x far above its mean → imputed y should sit above its mean too.
        let mut highs = 0;
        let trials = 200;
        for _ in 0..trials {
            let mut record = vec![14.0, f64::NAN, -3.0];
            let n = imputer.impute_record(&mut record, &mut rng);
            assert_eq!(n, 1);
            assert!(!record[1].is_nan());
            if record[1] > 5.0 {
                highs += 1;
            }
        }
        assert!(
            highs > trials * 3 / 4,
            "conditional mean should shift up: {highs}"
        );
    }

    #[test]
    fn fully_missing_records_are_skipped_by_default() {
        let rows = make_rows(500, 0);
        let imputer = MvnImputer::fit_flat(&rows.concat(), rows[0].len()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut record = vec![f64::NAN, f64::NAN, f64::NAN];
        assert_eq!(imputer.impute_record(&mut record, &mut rng), 0);
        assert!(record.iter().all(|x| x.is_nan()));

        let imputer = imputer.with_fully_missing_draws(true);
        assert_eq!(imputer.impute_record(&mut record, &mut rng), 3);
        assert!(record.iter().all(|x| !x.is_nan()));
    }

    #[test]
    fn complete_records_are_untouched() {
        let rows = make_rows(500, 0);
        let imputer = MvnImputer::fit_flat(&rows.concat(), rows[0].len()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut record = vec![1.0, 2.0, 3.0];
        assert_eq!(imputer.impute_record(&mut record, &mut rng), 0);
        assert_eq!(record, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn gaussian_model_imputes_out_of_domain_on_skewed_data() {
        // Heavily right-skewed positive attribute alongside a correlate:
        // the Gaussian fit has a large σ, so conditional draws go negative
        // — the paper's central failure mode.
        let mut rng = StdRng::seed_from_u64(77);
        let mut rows = Vec::new();
        for _ in 0..3000 {
            let z: f64 = StandardNormal.sample(&mut rng);
            let load = (1.0 + 1.3 * z).exp(); // lognormal, very skewed
            let other: f64 = StandardNormal.sample(&mut rng);
            rows.push(vec![load, other]);
        }
        let imputer = MvnImputer::fit_flat(&rows.concat(), rows[0].len()).unwrap();
        let mut negatives = 0;
        for _ in 0..500 {
            let mut record = vec![f64::NAN, 0.0];
            imputer.impute_record(&mut record, &mut rng);
            if record[0] < 0.0 {
                negatives += 1;
            }
        }
        assert!(
            negatives > 25,
            "Gaussian imputation should emit negative draws on skewed data, got {negatives}"
        );
    }

    #[test]
    fn fit_rejects_degenerate_inputs() {
        assert!(matches!(
            MvnModel::fit(&[], 3, 10, 1e-6),
            Err(MiError::TooFewRows { .. })
        ));
        assert!(matches!(
            MvnModel::fit(&[1.0, 1.0, 2.0], 2, 10, 1e-6),
            Err(MiError::DimensionMismatch)
        ));
        assert!(matches!(
            MvnImputer::fit_flat(&[1.0, 1.0, 2.0], 2),
            Err(MiError::DimensionMismatch)
        ));
        assert!(MvnModel::fit(&[1.0, 2.0, 3.0], 3, 10, 1e-6).is_err());
        assert!(MvnModel::fit(&[1.0, 2.0, 3.0], 0, 10, 1e-6).is_err());
    }

    #[test]
    fn fit_rejects_more_attributes_than_the_pattern_table_holds() {
        let v = MAX_ATTRIBUTES + 1;
        let rows: Vec<f64> = (0..(v + 10) * v).map(|i| (i % 7) as f64).collect();
        assert_eq!(
            MvnModel::fit(&rows, v, 10, 1e-6).unwrap_err(),
            MiError::TooManyAttributes { got: v }
        );
    }

    #[test]
    fn imputation_is_deterministic_per_rng_seed() {
        let rows = make_rows(1000, 0);
        let imputer = MvnImputer::fit_flat(&rows.concat(), rows[0].len()).unwrap();
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let mut a = vec![12.0, f64::NAN, f64::NAN];
        let mut b = vec![12.0, f64::NAN, f64::NAN];
        imputer.impute_record(&mut a, &mut r1);
        imputer.impute_record(&mut b, &mut r2);
        assert_eq!(a, b);
    }

    /// Random rows for the oracle comparison: correlated columns, NaN
    /// cells at `missing_rate` (so every pattern, fully-missing rows
    /// included, turns up), and optionally a constant column (the ridge
    /// path) or a duplicated column (a singular covariance).
    fn random_rows(
        v: usize,
        n: usize,
        seed: u64,
        missing_rate: f64,
        shape: usize,
    ) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let common: f64 = StandardNormal.sample(&mut rng);
                let mut row: Vec<f64> = (0..v)
                    .map(|a| {
                        let own: f64 = StandardNormal.sample(&mut rng);
                        (a as f64 + 1.0) * (0.7 * common + own) + 10.0 * a as f64
                    })
                    .collect();
                match shape {
                    1 if v > 1 => row[v - 1] = 4.25,
                    2 if v > 1 => row[v - 1] = row[0],
                    _ => {}
                }
                for x in &mut row {
                    if rng.gen::<f64>() < missing_rate {
                        *x = f64::NAN;
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn flat_fit_is_bit_identical_to_the_row_oracle() {
        let mut fits = 0;
        for v in 1..=5 {
            for (seed, missing_rate) in [(1, 0.0), (2, 0.1), (3, 0.35), (4, 0.6)] {
                for shape in 0..3 {
                    let rows = random_rows(v, 300, seed * 31 + v as u64, missing_rate, shape);
                    let what = format!("v={v} seed={seed} rate={missing_rate} shape={shape}");
                    let want = oracle::fit_rows(&rows, 50, 1e-8);
                    let got = MvnModel::fit(&rows.concat(), v, 50, 1e-8);
                    match (got, want) {
                        (Ok(got), Ok(want)) => {
                            oracle::assert_same_bits(&got, &want, &what);
                            fits += 1;
                        }
                        (got, want) => assert_eq!(got.err(), want.err(), "{what}"),
                    }
                }
            }
        }
        assert!(fits >= 50, "only {fits} fits succeeded");
    }

    #[test]
    fn flat_fit_matches_the_oracle_on_degenerate_rows() {
        // Ten fully-missing rows after forty partly observed ones; then the
        // same rows with one attribute never observed, and observed once.
        let mut rows = random_rows(3, 40, 9, 0.2, 0);
        rows.extend((0..10).map(|_| vec![f64::NAN; 3]));
        for (what, rows) in [
            ("fully missing rows", rows.clone()),
            (
                "never observed",
                rows.iter().map(|r| vec![r[0], f64::NAN, r[2]]).collect(),
            ),
            (
                "observed once",
                rows.iter()
                    .enumerate()
                    .map(|(i, r)| vec![r[0], if i == 0 { 1.0 } else { f64::NAN }, r[2]])
                    .collect(),
            ),
        ] {
            let want = oracle::fit_rows(&rows, 50, 1e-8);
            let got = MvnModel::fit(&rows.concat(), 3, 50, 1e-8);
            match (got, want) {
                (Ok(got), Ok(want)) => oracle::assert_same_bits(&got, &want, what),
                (got, want) => assert_eq!(got.err(), want.err(), "{what}"),
            }
        }
    }

    #[test]
    fn allocation_free_draws_match_matrix_draws() {
        // The stack-scratch draw equals `μ_M + K(x_O − μ_O) + L z` with
        // `L z` from `CholeskyFactor::lower_mul`, z drawn in attribute order.
        let rows = make_rows(1000, 4);
        let imputer = MvnImputer::fit_flat(&rows.concat(), rows[0].len())
            .unwrap()
            .with_fully_missing_draws(true);
        let records = [
            vec![12.0, f64::NAN, f64::NAN],
            vec![f64::NAN, 5.5, f64::NAN],
            vec![f64::NAN, f64::NAN, f64::NAN],
            vec![9.0, f64::NAN, -2.0],
        ];
        for (seed, record) in (0..200).zip(records.iter().cycle()) {
            let mut got = record.clone();
            imputer.impute_record(&mut got, &mut StdRng::seed_from_u64(seed));

            let model = imputer.model();
            let solver = &model.patterns[pattern_of(record) as usize - 1];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cond = vec![0.0; 3];
            conditional_mean(model.mean(), solver, record, &mut cond);
            let z: Vec<f64> = solver
                .missing
                .iter()
                .map(|_| StandardNormal.sample(&mut rng))
                .collect();
            let noise = solver.cond_chol.lower_mul(&z);
            let mut want = record.clone();
            for (mi, &attr) in solver.missing.iter().enumerate() {
                want[attr] = cond[attr] + noise[mi];
            }
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
        }
    }
}
