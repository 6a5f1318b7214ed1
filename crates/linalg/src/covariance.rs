use crate::{LinalgError, Matrix, Result};

/// Column means of a set of observation rows.
///
/// `rows` is a slice of observations, each of identical length `v`.
pub fn mean_vector(rows: &[Vec<f64>]) -> Result<Vec<f64>> {
    if rows.is_empty() {
        return Err(LinalgError::Empty);
    }
    let v = rows[0].len();
    if v == 0 {
        return Err(LinalgError::Empty);
    }
    let mut mean = vec![0.0; v];
    for (i, row) in rows.iter().enumerate() {
        if row.len() != v {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("row of length {v}"),
                got: format!("row {i} of length {}", row.len()),
            });
        }
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    let n = rows.len() as f64;
    for m in &mut mean {
        *m /= n;
    }
    Ok(mean)
}

/// Sample covariance matrix (denominator `n - 1`) over complete rows.
///
/// Rows containing NaN are rejected with [`LinalgError::NonFinite`]; use
/// [`pairwise_covariance_matrix`] when missing values must be tolerated.
pub fn covariance_matrix(rows: &[Vec<f64>]) -> Result<Matrix> {
    if rows.len() < 2 {
        return Err(LinalgError::Empty);
    }
    for row in rows {
        if row.iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
    }
    let mean = mean_vector(rows)?;
    let v = mean.len();
    let mut cov = Matrix::zeros(v, v);
    for row in rows {
        for i in 0..v {
            let di = row[i] - mean[i];
            for j in i..v {
                cov[(i, j)] += di * (row[j] - mean[j]);
            }
        }
    }
    let denom = (rows.len() - 1) as f64;
    for i in 0..v {
        for j in i..v {
            let c = cov[(i, j)] / denom;
            cov[(i, j)] = c;
            cov[(j, i)] = c;
        }
    }
    Ok(cov)
}

/// Pairwise-complete covariance matrix for rows that may contain NaN
/// (missing) entries.
///
/// `rows` holds the observations row-major: `rows.len() / v` rows of `v`
/// attributes each, one contiguous buffer (the imputation fit writes its
/// working-space rows straight into it, with no per-row allocation).
///
/// Each entry `(i, j)` is estimated over the rows where *both* attributes
/// are present, centred on pairwise means. This is the standard starting
/// estimate for EM over multivariate-normal data with missing values; the
/// result is symmetric but not guaranteed positive definite, so downstream
/// consumers should factor it with
/// [`CholeskyFactor::new_regularized`](crate::CholeskyFactor::new_regularized).
///
/// Returns the covariance matrix together with the vector of per-attribute
/// means over present values.
pub fn pairwise_covariance_matrix(rows: &[f64], v: usize) -> Result<(Matrix, Vec<f64>)> {
    if rows.is_empty() || v == 0 {
        return Err(LinalgError::Empty);
    }
    if rows.len() % v != 0 {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("a multiple of {v} values"),
            got: format!("{} values", rows.len()),
        });
    }

    // Per-attribute means over present (non-NaN) values.
    let mut mean = vec![0.0; v];
    let mut count = vec![0usize; v];
    for row in rows.chunks_exact(v) {
        for (k, &x) in row.iter().enumerate() {
            if x.is_finite() {
                mean[k] += x;
                count[k] += 1;
            }
        }
    }
    for k in 0..v {
        if count[k] == 0 {
            // Attribute entirely missing: mean defaults to 0 so callers can
            // still regularize; variance will be 0 on the diagonal.
            mean[k] = 0.0;
        } else {
            mean[k] /= count[k] as f64;
        }
    }

    let mut cov = Matrix::zeros(v, v);
    let mut pair_n = vec![0usize; v * v];
    for row in rows.chunks_exact(v) {
        for i in 0..v {
            let xi = row[i];
            if !xi.is_finite() {
                continue;
            }
            for j in i..v {
                let xj = row[j];
                if !xj.is_finite() {
                    continue;
                }
                cov[(i, j)] += (xi - mean[i]) * (xj - mean[j]);
                pair_n[i * v + j] += 1;
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
    Ok((cov, mean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_rows() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 20.0]];
        assert_eq!(mean_vector(&rows).unwrap(), vec![2.0, 15.0]);
    }

    #[test]
    fn mean_rejects_empty_and_ragged() {
        assert!(mean_vector(&[]).is_err());
        assert!(mean_vector(&[vec![]]).is_err());
        assert!(mean_vector(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn covariance_of_perfectly_correlated_data() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let cov = covariance_matrix(&rows).unwrap();
        // var(x) of 0..9 is 55/6; cov(x, 2x) = 2 var(x); var(2x) = 4 var(x).
        let var_x = cov[(0, 0)];
        assert!((cov[(0, 1)] - 2.0 * var_x).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0 * var_x).abs() < 1e-12);
        assert!(cov.is_symmetric(1e-15));
    }

    #[test]
    fn covariance_rejects_nan_and_short_input() {
        assert!(covariance_matrix(&[vec![1.0]]).is_err());
        assert!(matches!(
            covariance_matrix(&[vec![1.0], vec![f64::NAN]]),
            Err(LinalgError::NonFinite)
        ));
    }

    #[test]
    fn pairwise_matches_complete_case_when_no_missing() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let x = i as f64;
                vec![x, x * x / 10.0, 3.0 - x]
            })
            .collect();
        let full = covariance_matrix(&rows).unwrap();
        let (pair, mean) = pairwise_covariance_matrix(&rows.concat(), 3).unwrap();
        assert!(full.max_abs_diff(&pair).unwrap() < 1e-12);
        let direct_mean = mean_vector(&rows).unwrap();
        for (a, b) in mean.iter().zip(&direct_mean) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pairwise_tolerates_missing_values() {
        let rows = [1.0, f64::NAN, 2.0, 4.0, 3.0, 6.0, f64::NAN, 8.0];
        let (cov, mean) = pairwise_covariance_matrix(&rows, 2).unwrap();
        // Attribute 0 mean over {1,2,3} = 2; attribute 1 over {4,6,8} = 6.
        assert!((mean[0] - 2.0).abs() < 1e-12);
        assert!((mean[1] - 6.0).abs() < 1e-12);
        // Cross term uses only rows 1 and 2.
        assert!(cov[(0, 1)].is_finite());
        assert!(cov.is_symmetric(1e-15));
    }

    #[test]
    fn pairwise_with_entirely_missing_attribute() {
        let rows = [1.0, f64::NAN, 2.0, f64::NAN];
        let (cov, mean) = pairwise_covariance_matrix(&rows, 2).unwrap();
        assert_eq!(mean[1], 0.0);
        assert_eq!(cov[(1, 1)], 0.0);
    }

    #[test]
    fn pairwise_rejects_empty() {
        assert!(pairwise_covariance_matrix(&[], 2).is_err());
        assert!(pairwise_covariance_matrix(&[1.0, 2.0], 0).is_err());
        assert!(matches!(
            pairwise_covariance_matrix(&[1.0, 2.0, 3.0], 2),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
