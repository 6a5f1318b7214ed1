//! Small dense linear-algebra substrate for the statistical-distortion
//! framework.
//!
//! The paper's model-based imputer (an emulation of SAS `PROC MI`) and the
//! Mahalanobis distortion distance both need multivariate-Gaussian machinery:
//! covariance estimation and Cholesky factorization for sampling and
//! solving.
//!
//! The dimensionality in this system is tiny (the paper's data has `v = 3`
//! attributes), so the implementations favour clarity and numerical
//! robustness over asymptotic cleverness: plain row-major storage, no
//! blocking, no unsafe code.
//!
//! # Example
//!
//! ```
//! use sd_linalg::{Matrix, CholeskyFactor};
//!
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
//! let chol = CholeskyFactor::new(&a).unwrap();
//! let x = chol.solve(&[2.0, 3.0]).unwrap();
//! // A * x == b
//! let b = a.mat_vec(&x);
//! assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 3.0).abs() < 1e-12);
//! ```

// Index-based loops are the clearer idiom in the dense numeric kernels
// of this crate.
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod covariance;
mod error;
mod mahalanobis;
mod matrix;

pub use cholesky::CholeskyFactor;
pub use covariance::{covariance_matrix, mean_vector, pairwise_covariance_matrix};
pub use error::LinalgError;
pub use mahalanobis::{mahalanobis_distance, mahalanobis_distance_sq, MahalanobisMetric};
pub use matrix::Matrix;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
