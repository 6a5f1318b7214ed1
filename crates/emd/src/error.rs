use std::fmt;

/// Errors from the EMD solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum EmdError {
    /// A signature or sample was empty.
    EmptyInput,
    /// Supplies and demands are not balanced within tolerance.
    Unbalanced {
        /// Total supply.
        supply: f64,
        /// Total demand.
        demand: f64,
    },
    /// Weights must be non-negative and finite.
    InvalidWeight {
        /// The offending weight value.
        value: f64,
    },
    /// Points within one signature must share a dimension.
    DimensionMismatch {
        /// Dimension of the first point.
        expected: usize,
        /// Dimension of the offending point.
        got: usize,
    },
    /// The cost matrix shape disagrees with the supply/demand vectors.
    CostShape {
        /// Expected (rows, cols).
        expected: (usize, usize),
        /// Actual (rows, cols).
        got: (usize, usize),
    },
    /// The solver failed to converge within its iteration budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// A simplex pivot found no blocking arc on its cycle. The cycle of a
    /// spanning-tree basis always contains one, so this means the basis or
    /// the flow values are corrupt — in practice, non-finite flow entries
    /// that defeat every `<`/`==` comparison in the ratio test.
    BrokenPivot {
        /// The entering cell id `i * m + j`.
        entering: usize,
    },
    /// The occupied-cell product of a grid solve exceeds the exact-solve
    /// cap, which bounds the memory of one solve's cost and flow matrices.
    /// Fewer bins per axis shrink the product.
    TooManyCells {
        /// The product `|a| · |b|` of the two signatures' occupied cells
        /// (saturated at `usize::MAX`).
        cells: usize,
        /// The cap it exceeds.
        cap: usize,
    },
}

impl fmt::Display for EmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmdError::EmptyInput => write!(f, "empty signature or sample"),
            EmdError::Unbalanced { supply, demand } => {
                write!(f, "unbalanced problem: supply {supply} vs demand {demand}")
            }
            EmdError::InvalidWeight { value } => write!(f, "invalid weight {value}"),
            EmdError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "point dimension mismatch: expected {expected}, got {got}"
                )
            }
            EmdError::CostShape { expected, got } => write!(
                f,
                "cost matrix shape {got:?} does not match supplies/demands {expected:?}"
            ),
            EmdError::NoConvergence { iterations } => {
                write!(f, "solver did not converge after {iterations} iterations")
            }
            EmdError::BrokenPivot { entering } => write!(
                f,
                "simplex pivot on cell {entering} found no blocking arc \
                 (corrupt basis or non-finite flow)"
            ),
            EmdError::TooManyCells { cells, cap } => write!(
                f,
                "occupied-cell product {cells} exceeds the exact-solve cap {cap}; \
                 use fewer bins per axis"
            ),
        }
    }
}

impl std::error::Error for EmdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(EmdError::EmptyInput.to_string().contains("empty"));
        assert!(EmdError::Unbalanced {
            supply: 1.0,
            demand: 2.0
        }
        .to_string()
        .contains("unbalanced"));
        assert!(EmdError::NoConvergence { iterations: 5 }
            .to_string()
            .contains("5"));
        assert!(EmdError::BrokenPivot { entering: 7 }
            .to_string()
            .contains("cell 7"));
    }
}
