use crate::{GlitchMatrix, GlitchTally, GlitchType};

/// User-supplied weights `ω_k` for the glitch types (§2.1.3).
///
/// The paper's experiments weight missing and inconsistent values 0.25 each
/// and outliers 0.5 (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchWeights {
    /// Weight of missing-value glitches.
    pub missing: f64,
    /// Weight of inconsistency glitches.
    pub inconsistent: f64,
    /// Weight of outlier glitches.
    pub outlier: f64,
}

impl GlitchWeights {
    /// The paper's weights: (0.25, 0.25, 0.5).
    pub fn paper() -> Self {
        GlitchWeights {
            missing: 0.25,
            inconsistent: 0.25,
            outlier: 0.5,
        }
    }

    /// Equal weights (1, 1, 1) — raw glitch counting.
    pub fn uniform() -> Self {
        GlitchWeights {
            missing: 1.0,
            inconsistent: 1.0,
            outlier: 1.0,
        }
    }

    /// The weight of a glitch type.
    pub fn weight(&self, g: GlitchType) -> f64 {
        match g {
            GlitchType::Missing => self.missing,
            GlitchType::Inconsistent => self.inconsistent,
            GlitchType::Outlier => self.outlier,
        }
    }

    /// Validates that every weight is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        GlitchType::ALL
            .iter()
            .all(|&g| self.weight(g).is_finite() && self.weight(g) >= 0.0)
    }
}

impl Default for GlitchWeights {
    fn default() -> Self {
        GlitchWeights::paper()
    }
}

/// The weighted glitch index of §3.4:
///
/// `G(D) = I₁ₓᵥ [ Σ_ijk ( Σ_t G_t,ijk / T_ijk ) ] W`
///
/// Each node's bit tensor is summed over time and **normalized by that
/// node's series length** `T_ijk`, "to adjust for the amount of data
/// available at each node, to ensure that it contributes equally to the
/// overall glitch score"; the per-node scores are then summed over nodes,
/// attributes, and weighted over glitch types.
#[derive(Debug, Clone, Copy)]
pub struct GlitchIndex {
    weights: GlitchWeights,
}

impl GlitchIndex {
    /// Creates an index with the given weights.
    pub fn new(weights: GlitchWeights) -> Self {
        assert!(weights.is_valid(), "glitch weights must be non-negative");
        GlitchIndex { weights }
    }

    /// The weights in use.
    pub fn weights(&self) -> GlitchWeights {
        self.weights
    }

    /// Per-node normalized score `(Σ_t Σ_a G_t) · W / T` for one series.
    /// Empty series score 0.
    pub fn node_score(&self, g: &GlitchMatrix) -> f64 {
        self.tally_score(&g.tally())
    }

    /// [`GlitchIndex::node_score`] of the series a tally counts.
    pub fn tally_score(&self, tally: &GlitchTally) -> f64 {
        if tally.len == 0 {
            return 0.0;
        }
        let t = tally.len as f64;
        GlitchType::ALL
            .iter()
            .map(|&k| self.weights.weight(k) * tally.cells[k.index()] as f64 / t)
            .sum()
    }

    /// The data-set glitch index: sum of node scores (the literal §3.4
    /// formula — grows with the number of series).
    pub fn dataset_score(&self, matrices: &[GlitchMatrix]) -> f64 {
        matrices.iter().map(|g| self.node_score(g)).sum()
    }

    /// Sample-size-invariant glitch score: `100 × mean(node score)`.
    ///
    /// The paper plots B = 100 and B = 500 panels on the same 0–30
    /// improvement axis (Figs. 6–7), so its reported improvement cannot be
    /// the raw sum over nodes; normalizing by the number of series (and
    /// expressing in percentage points) reproduces that invariance.
    pub fn normalized_score(&self, matrices: &[GlitchMatrix]) -> f64 {
        Self::normalized(matrices.iter().map(|g| self.node_score(g)))
    }

    /// [`GlitchIndex::normalized_score`] over node scores already taken,
    /// summed in the order given.
    pub fn normalized(node_scores: impl ExactSizeIterator<Item = f64>) -> f64 {
        let n = node_scores.len();
        if n == 0 {
            return 0.0;
        }
        100.0 * node_scores.sum::<f64>() / n as f64
    }

    /// Glitch improvement `G(D) − G(D_C)` between dirty and cleaned
    /// annotations (positive = cleaner), on the sample-size-invariant
    /// [`GlitchIndex::normalized_score`] scale.
    pub fn improvement(&self, dirty: &[GlitchMatrix], cleaned: &[GlitchMatrix]) -> f64 {
        self.normalized_score(dirty) - self.normalized_score(cleaned)
    }

    /// Ranks series by node score, descending (dirtiest first) —
    /// the ranking used for cost-proxy partial cleaning (§5.2).
    /// Returns series indices.
    pub fn rank_dirtiest(&self, matrices: &[GlitchMatrix]) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = matrices
            .iter()
            .enumerate()
            .map(|(i, g)| (i, self.node_score(g)))
            .collect();
        // Stable ordering: score descending, index ascending on ties.
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.into_iter().map(|(i, _)| i).collect()
    }
}

impl Default for GlitchIndex {
    fn default() -> Self {
        GlitchIndex::new(GlitchWeights::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_with(
        missing: usize,
        inconsistent: usize,
        outlier: usize,
        len: usize,
    ) -> GlitchMatrix {
        let mut g = GlitchMatrix::new(1, len);
        for t in 0..missing {
            g.set(0, GlitchType::Missing, t);
        }
        for t in 0..inconsistent {
            g.set(0, GlitchType::Inconsistent, t);
        }
        for t in 0..outlier {
            g.set(0, GlitchType::Outlier, t);
        }
        g
    }

    #[test]
    fn node_score_weights_and_normalizes() {
        let idx = GlitchIndex::new(GlitchWeights::paper());
        let g = matrix_with(2, 4, 1, 10);
        // (0.25*2 + 0.25*4 + 0.5*1) / 10 = 2.0 / 10.
        assert!((idx.node_score(&g) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn normalization_equalizes_node_lengths() {
        let idx = GlitchIndex::default();
        // Same glitch *fraction*, different lengths → same score.
        let short = matrix_with(1, 0, 0, 10);
        let long = matrix_with(10, 0, 0, 100);
        assert!((idx.node_score(&short) - idx.node_score(&long)).abs() < 1e-12);
    }

    #[test]
    fn dataset_score_sums_nodes() {
        let idx = GlitchIndex::new(GlitchWeights::uniform());
        let a = matrix_with(1, 0, 0, 10); // 0.1
        let b = matrix_with(0, 2, 0, 10); // 0.2
        assert!((idx.dataset_score(&[a, b]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn improvement_is_positive_when_cleaned() {
        let idx = GlitchIndex::default();
        let dirty = vec![matrix_with(5, 5, 5, 10)];
        let clean = vec![matrix_with(0, 1, 0, 10)];
        assert!(idx.improvement(&dirty, &clean) > 0.0);
        assert_eq!(idx.improvement(&dirty, &dirty), 0.0);
    }

    #[test]
    fn rank_dirtiest_orders_by_score() {
        let idx = GlitchIndex::new(GlitchWeights::uniform());
        let clean = matrix_with(0, 0, 0, 10);
        let medium = matrix_with(3, 0, 0, 10);
        let filthy = matrix_with(9, 9, 9, 10);
        let order = idx.rank_dirtiest(&[clean, filthy, medium]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn rank_is_stable_on_ties() {
        let idx = GlitchIndex::default();
        let a = matrix_with(1, 0, 0, 10);
        let b = matrix_with(1, 0, 0, 10);
        assert_eq!(idx.rank_dirtiest(&[a, b]), vec![0, 1]);
    }

    #[test]
    fn empty_matrix_scores_zero() {
        let idx = GlitchIndex::default();
        assert_eq!(idx.node_score(&GlitchMatrix::new(3, 0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn invalid_weights_rejected() {
        GlitchIndex::new(GlitchWeights {
            missing: -1.0,
            inconsistent: 0.0,
            outlier: 0.0,
        });
    }

    #[test]
    fn weights_accessors() {
        let w = GlitchWeights::paper();
        assert_eq!(w.weight(GlitchType::Missing), 0.25);
        assert_eq!(w.weight(GlitchType::Outlier), 0.5);
        assert!(w.is_valid());
        assert_eq!(GlitchWeights::default(), w);
    }
}
