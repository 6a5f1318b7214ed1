use crate::{CholeskyFactor, LinalgError, Matrix, Result};

/// Squared Mahalanobis distance `(x - μ)ᵀ Σ⁻¹ (x - μ)`.
///
/// `chol` must be the Cholesky factor of the covariance `Σ`. Computed by
/// whitening: solve `L y = (x - μ)` and return `‖y‖²`, which avoids forming
/// the explicit inverse.
pub fn mahalanobis_distance_sq(x: &[f64], mean: &[f64], chol: &CholeskyFactor) -> Result<f64> {
    if x.len() != mean.len() || x.len() != chol.dim() {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("vectors of length {}", chol.dim()),
            got: format!("x: {}, mean: {}", x.len(), mean.len()),
        });
    }
    let diff: Vec<f64> = x.iter().zip(mean).map(|(a, b)| a - b).collect();
    let y = chol.solve_lower(&diff)?;
    Ok(y.iter().map(|v| v * v).sum())
}

/// Mahalanobis distance — square root of [`mahalanobis_distance_sq`].
pub fn mahalanobis_distance(x: &[f64], mean: &[f64], chol: &CholeskyFactor) -> Result<f64> {
    Ok(mahalanobis_distance_sq(x, mean, chol)?.sqrt())
}

/// A reusable Mahalanobis metric: a mean vector plus a factored covariance.
///
/// The statistical-distortion framework uses this as one of the alternative
/// distances named in Definition 1 of the paper: the distortion between a
/// dirty set `D` and its cleaned version `D_C` is summarized as the
/// Mahalanobis distance between their mean vectors under `D`'s covariance.
#[derive(Debug, Clone)]
pub struct MahalanobisMetric {
    mean: Vec<f64>,
    chol: CholeskyFactor,
}

impl MahalanobisMetric {
    /// Builds the metric from a mean and covariance. The covariance is
    /// regularized if necessary (sample covariances of small replications
    /// can be rank-deficient).
    pub fn new(mean: Vec<f64>, covariance: &Matrix) -> Result<Self> {
        if covariance.rows() != mean.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{0}x{0} covariance", mean.len()),
                got: format!("{}x{}", covariance.rows(), covariance.cols()),
            });
        }
        let chol = CholeskyFactor::new_regularized(covariance, 1e-9, 30)?;
        Ok(MahalanobisMetric { mean, chol })
    }

    /// Fits the metric to complete observation rows.
    pub fn fit(rows: &[Vec<f64>]) -> Result<Self> {
        let cov = crate::covariance_matrix(rows)?;
        let mean = crate::mean_vector(rows)?;
        MahalanobisMetric::new(mean, &cov)
    }

    /// Dimensionality of the metric.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The centre of the metric.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Distance from the fitted mean to `x`.
    pub fn distance(&self, x: &[f64]) -> Result<f64> {
        mahalanobis_distance(x, &self.mean, &self.chol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_covariance_reduces_to_euclidean() {
        let chol = CholeskyFactor::new(&Matrix::identity(3)).unwrap();
        let d = mahalanobis_distance(&[1.0, 2.0, 2.0], &[0.0, 0.0, 0.0], &chol).unwrap();
        assert!((d - 3.0).abs() < 1e-12); // sqrt(1 + 4 + 4)
    }

    #[test]
    fn scaling_covariance_shrinks_distance() {
        let wide =
            CholeskyFactor::new(&Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 4.0]]).unwrap()).unwrap();
        let narrow = CholeskyFactor::new(&Matrix::identity(2)).unwrap();
        let x = [2.0, 0.0];
        let mu = [0.0, 0.0];
        let d_wide = mahalanobis_distance(&x, &mu, &wide).unwrap();
        let d_narrow = mahalanobis_distance(&x, &mu, &narrow).unwrap();
        assert!((d_wide - 1.0).abs() < 1e-12);
        assert!((d_narrow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn correlated_covariance_matches_explicit_inverse() {
        let cov = Matrix::from_rows(&[&[2.0, 0.8], &[0.8, 1.0]]).unwrap();
        let chol = CholeskyFactor::new(&cov).unwrap();
        let inv = chol.inverse().unwrap();
        let x = [1.5, -0.5];
        let mu = [0.2, 0.1];
        let diff = [x[0] - mu[0], x[1] - mu[1]];
        let tmp = inv.mat_vec(&diff);
        let explicit: f64 = diff.iter().zip(&tmp).map(|(a, b)| a * b).sum();
        let via_chol = mahalanobis_distance_sq(&x, &mu, &chol).unwrap();
        assert!((explicit - via_chol).abs() < 1e-10);
    }

    #[test]
    fn metric_fit_and_distance() {
        // Cloud with distinct variances along the axes.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = (i as f64) / 10.0;
                vec![t.sin() * 10.0, t.cos()]
            })
            .collect();
        let metric = MahalanobisMetric::fit(&rows).unwrap();
        assert_eq!(metric.dim(), 2);
        // A deviation along the high-variance axis scores lower than the
        // same deviation along the low-variance axis.
        let m = metric.mean().to_vec();
        let d_high = metric.distance(&[m[0] + 5.0, m[1]]).unwrap();
        let d_low = metric.distance(&[m[0], m[1] + 5.0]).unwrap();
        assert!(d_high < d_low);
    }

    #[test]
    fn metric_rejects_mismatched_dimensions() {
        let cov = Matrix::identity(2);
        assert!(MahalanobisMetric::new(vec![0.0; 3], &cov).is_err());
        let metric = MahalanobisMetric::new(vec![0.0; 2], &cov).unwrap();
        assert!(metric.distance(&[0.0; 3]).is_err());
    }
}
