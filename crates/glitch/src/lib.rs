//! Glitch detection and scoring (§2.1.3, §3.2–3.4 of the paper).
//!
//! A *glitch* is a detectable data-quality defect. The paper's case study
//! tracks three types — missing values, constraint inconsistencies, and
//! 3-σ outliers — and annotates every cell of the `n × v` data matrix with
//! a glitch bit vector `g_ij(k)`. This crate provides:
//!
//! * [`GlitchType`] — the glitch taxonomy (`m = 3` types, extensible);
//! * [`GlitchMatrix`] — the per-series `v × m × T` bit tensor `G_t`, and
//!   [`GlitchTally`], its per-type counts taken in one pass;
//! * [`ConstraintSet`] — declarative inconsistency rules, including the
//!   paper's cross-attribute rule ("Attribute 1 should not be populated if
//!   Attribute 3 is missing");
//! * [`OutlierDetector`] — 3-σ limits calibrated on the ideal data set
//!   `D_I`, with optional attribute transforms and a p-value output mode;
//! * [`GlitchDetector`] — the orchestrator producing annotations for a
//!   whole [`Dataset`](sd_data::Dataset);
//! * [`GlitchIndex`] — the weighted glitch score
//!   `G(D) = I₁ₓᵥ [Σ_ijk Σ_t G_t,ijk / T_ijk] W`;
//! * [`GlitchReport`] — record-level percentages (the Table 1 quantities)
//!   and per-time-step counts (the Figure 3 series).

#![forbid(unsafe_code)]
mod constraints;
mod detector;
mod index;
mod matrix;
mod report;
mod types;

pub use constraints::{Constraint, ConstraintSet};
pub use detector::{
    ColumnScreen, GlitchDetector, OutlierDetector, PooledHistory, WindowedOutlierDetector,
};
pub use index::{GlitchIndex, GlitchWeights};
pub use matrix::{GlitchMatrix, GlitchTally};
pub use report::{co_occurrence, counts_per_time, CoOccurrence, GlitchReport};
pub use types::GlitchType;

#[cfg(test)]
mod tests {
    use super::*;
    use sd_data::{Dataset, NodeId, TimeSeries};

    #[test]
    fn end_to_end_detection_smoke() {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 2, 3);
        s.set(0, 0, 1.0);
        s.set(0, 1, -1.0); // violates NonNegative
        s.set(1, 0, 0.5);
        s.set(1, 1, 0.5);
        s.set(1, 2, 0.5);
        // (0, 2) left missing.
        let ds = Dataset::new(vec!["a", "b"], vec![s]).unwrap();
        let detector = GlitchDetector::new(
            ConstraintSet::new(vec![Constraint::NonNegative { attr: 0 }]),
            None,
        );
        let matrices = detector.detect_dataset(&ds);
        assert_eq!(matrices.len(), 1);
        let g = &matrices[0];
        assert!(g.get(0, GlitchType::Missing, 2));
        assert!(g.get(0, GlitchType::Inconsistent, 1));
        assert!(!g.get(1, GlitchType::Missing, 0));
    }
}
