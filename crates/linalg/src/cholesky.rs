use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix `A = L Lᵀ`.
///
/// Used by the model-based imputer to (a) sample from a multivariate
/// Gaussian (`x = μ + L z` with `z ~ N(0, I)`) and (b) solve `A x = b`
/// for conditional means, and by the Mahalanobis metric to whiten
/// difference vectors.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Matrix,
}

impl CholeskyFactor {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle carries rounding noise. Returns
    /// [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    /// positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                got: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(CholeskyFactor { l })
    }

    /// Factorizes `a + ridge * I`, growing `ridge` geometrically until the
    /// factorization succeeds (up to `max_tries` doublings).
    ///
    /// This is the standard regularization used when a sample covariance is
    /// rank-deficient — e.g. when an attribute is constant within the
    /// observed part of a replication sample.
    pub fn new_regularized(a: &Matrix, initial_ridge: f64, max_tries: u32) -> Result<Self> {
        match CholeskyFactor::new(a) {
            Ok(c) => return Ok(c),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        let n = a.rows();
        let mut ridge = initial_ridge.max(f64::MIN_POSITIVE);
        let mut last = LinalgError::NotPositiveDefinite { pivot: 0 };
        for _ in 0..max_tries {
            let mut reg = a.clone();
            for i in 0..n {
                reg[(i, i)] += ridge;
            }
            match CholeskyFactor::new(&reg) {
                Ok(c) => return Ok(c),
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => last = e,
                Err(e) => return Err(e),
            }
            ridge *= 10.0;
        }
        Err(last)
    }

    /// Dimension `n` of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `L y = b` by forward substitution.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                got: format!("length {}", b.len()),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `Lᵀ x = y` by back substitution.
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                got: format!("length {}", y.len()),
            });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Computes `L z` — the correlated-noise transform used when sampling
    /// `N(μ, A)` as `μ + L z`.
    pub fn lower_mul(&self, z: &[f64]) -> Vec<f64> {
        self.l.mat_vec(z)
    }

    /// Explicit inverse of `A`. Only sensible for the tiny matrices this
    /// crate targets; prefer [`CholeskyFactor::solve`] where possible.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 3.0, 0.4], &[0.6, 0.4, 2.0]]).unwrap()
    }

    #[test]
    fn factorization_reconstructs_matrix() {
        let a = spd3();
        let c = CholeskyFactor::new(&a).unwrap();
        let rec = c.l().mat_mul(&c.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn solve_satisfies_system() {
        let a = spd3();
        let c = CholeskyFactor::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = c.solve(&b).unwrap();
        let back = a.mat_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalue -1
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_empty_and_nan() {
        assert!(CholeskyFactor::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            CholeskyFactor::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NonFinite)
        ));
    }

    #[test]
    fn regularization_rescues_singular_covariance() {
        // Rank-1 matrix: constant attribute within the sample.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(CholeskyFactor::new(&a).is_err());
        let c = CholeskyFactor::new_regularized(&a, 1e-9, 20).unwrap();
        assert_eq!(c.dim(), 2);
        // The regularized factor should still be close to the original.
        let rec = c.l().mat_mul(&c.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-3);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = CholeskyFactor::new(&a).unwrap().inverse().unwrap();
        let prod = a.mat_mul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn lower_mul_matches_matrix_product() {
        let a = spd3();
        let c = CholeskyFactor::new(&a).unwrap();
        let z = vec![0.3, -1.2, 2.0];
        assert_eq!(c.lower_mul(&z), c.l().mat_vec(&z));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let c = CholeskyFactor::new(&spd3()).unwrap();
        assert!(c.solve(&[1.0]).is_err());
        assert!(c.solve_lower(&[1.0]).is_err());
        assert!(c.solve_upper(&[1.0]).is_err());
    }
}
