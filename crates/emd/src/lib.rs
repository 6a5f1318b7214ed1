//! Earth Mover's Distance engine.
//!
//! The paper (§3.5) measures *statistical distortion* as the Earth Mover's
//! Distance between the empirical distributions of a dirty data set and its
//! cleaned counterpart: `EMD(P, Q) = Σ f*_ij |b_i − b_j| / Σ f*_ij` where
//! `F* = argmin_F W(F; P, Q)` is the minimum-cost flow of density between
//! bins. Rust's EMD ecosystem is thin, so this crate implements the whole
//! stack from scratch:
//!
//! * [`emd_1d_samples`] / [`emd_1d_weighted`] — closed-form exact 1-D EMD
//!   (the L1 distance between ECDFs);
//! * [`TransportProblem`] — the transportation simplex (north-west-corner
//!   start + MODI pivoting), the default exact solver for
//!   signature-vs-signature EMD;
//! * [`MinCostFlow`] — successive-shortest-paths with potentials; slower
//!   but structurally independent, used to cross-validate the simplex;
//! * [`GridPair`] — the front half every grid kernel (EMD, KL, energy
//!   distance) shares: pool two clouds of `v`-tuples and quantize both onto
//!   one shared grid under a min–max or robust [`Cover`], from rows or from
//!   a [`SignatureCache`] plus [`PatchedCloud`] row edits, bit-identically;
//! * [`GridEmd`] — the end-to-end pipeline the framework calls: a robust
//!   [`GridPair`], then the exact transportation simplex on the sparse
//!   signatures (the approach of the paper's reference \[1\]). One solve's
//!   occupied-cell product is capped at 150 000, which bounds its memory;
//!   past the cap it returns [`EmdError::TooManyCells`].
//!
//! ```
//! use sd_emd::emd_1d_samples;
//!
//! // Shifting a distribution by δ moves all mass a distance of δ.
//! let a = [0.0, 1.0, 2.0];
//! let b = [0.5, 1.5, 2.5];
//! assert!((emd_1d_samples(&a, &b).unwrap() - 0.5).abs() < 1e-12);
//! ```

// Index-based loops are the clearer idiom in the dense numeric kernels
// of this crate.
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod basis_tree;
mod batch;
mod emd1d;
mod error;
mod flow;
mod grid_emd;
mod grid_pair;
mod signature;
mod transport;

pub use batch::BatchTransport;
pub use emd1d::{emd_1d_samples, emd_1d_weighted};
pub use error::EmdError;
pub use flow::MinCostFlow;
pub use grid_emd::GridEmd;
pub use grid_pair::{Cover, GridPair};
pub use signature::{
    euclidean, ground_distance_matrix, CloudQuant, PatchedCloud, Signature, SignatureCache,
};
pub use transport::TransportProblem;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EmdError>;

/// Exact EMD between two signatures using the transportation simplex.
///
/// Both signatures must be non-empty; weights are normalized to unit mass
/// so the returned value is already the paper's normalized EMD.
pub fn emd(p: &Signature, q: &Signature) -> Result<f64> {
    let cost = ground_distance_matrix(p.points(), q.points());
    let mut problem = TransportProblem::new(p.normalized_weights(), q.normalized_weights(), cost)?;
    problem.solve()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emd_between_identical_signatures_is_zero() {
        let p = Signature::new(vec![vec![0.0], vec![1.0]], vec![0.5, 0.5]).unwrap();
        let d = emd(&p, &p).unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn emd_matches_point_mass_translation() {
        let p = Signature::new(vec![vec![0.0, 0.0]], vec![1.0]).unwrap();
        let q = Signature::new(vec![vec![3.0, 4.0]], vec![1.0]).unwrap();
        assert!((emd(&p, &q).unwrap() - 5.0).abs() < 1e-12);
    }
}
