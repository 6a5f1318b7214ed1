use std::fmt;

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix dimensions do not match what the operation requires.
    DimensionMismatch {
        /// What the operation expected, e.g. `"square matrix"`.
        expected: String,
        /// What it got, e.g. `"3x4"`.
        got: String,
    },
    /// Cholesky factorization failed: the matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the pivot where the failure was detected.
        pivot: usize,
    },
    /// The input was empty where at least one element was required.
    Empty,
    /// The input contained a non-finite value (NaN or infinity).
    NonFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::Empty => write!(f, "empty input"),
            LinalgError::NonFinite => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::DimensionMismatch {
            expected: "square matrix".into(),
            got: "3x4".into(),
        };
        assert!(e.to_string().contains("3x4"));
        assert!(LinalgError::NotPositiveDefinite { pivot: 2 }
            .to_string()
            .contains("pivot 2"));
        assert_eq!(LinalgError::Empty.to_string(), "empty input");
        assert!(LinalgError::NonFinite.to_string().contains("NaN"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(LinalgError::Empty, LinalgError::Empty);
        assert_ne!(
            LinalgError::NotPositiveDefinite { pivot: 0 },
            LinalgError::NotPositiveDefinite { pivot: 1 }
        );
    }
}
