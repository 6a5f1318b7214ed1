use crate::{GlitchMatrix, GlitchTally, GlitchType};

/// Record-level glitch co-occurrence between two glitch types: the
/// fraction of records carrying both.
///
/// The paper observes "considerable overlap between missing and
/// inconsistent values" (Fig. 3 discussion, §4.2) — partly by construction,
/// since the cross-attribute rule turns certain missing patterns into
/// inconsistencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoOccurrence {
    /// First glitch type.
    pub a: GlitchType,
    /// Second glitch type.
    pub b: GlitchType,
    /// Fraction of records flagged with both types.
    pub both: f64,
    /// Jaccard overlap `|A ∩ B| / |A ∪ B|` (0 when neither occurs).
    pub jaccard: f64,
}

/// Aggregated glitch percentages over a set of annotated series — the
/// quantities reported in Table 1 (record-level percentages, where a record
/// is one time instance of one series) and plotted in Figure 3
/// (per-time-step counts).
#[derive(Debug, Clone, PartialEq)]
pub struct GlitchReport {
    /// Total number of records across all series.
    pub total_records: usize,
    /// Record-level percentage (0–100) per glitch type, indexed by
    /// [`GlitchType::index`].
    pub record_pct: [f64; GlitchType::COUNT],
    /// Cell-level percentage (0–100) per glitch type.
    pub cell_pct: [f64; GlitchType::COUNT],
}

impl GlitchReport {
    /// Builds a report from per-series glitch matrices.
    pub fn from_matrices(matrices: &[GlitchMatrix]) -> Self {
        Self::from_tallies(matrices.iter().map(GlitchMatrix::tally))
    }

    /// Builds a report from per-series tallies ([`GlitchMatrix::tally`]).
    pub fn from_tallies(tallies: impl IntoIterator<Item = GlitchTally>) -> Self {
        let mut total_records = 0usize;
        let mut total_cells = 0usize;
        let mut rec_counts = [0usize; GlitchType::COUNT];
        let mut cell_counts = [0usize; GlitchType::COUNT];
        for tally in tallies {
            total_records += tally.len;
            total_cells += tally.len * tally.num_attributes;
            for (sum, n) in rec_counts.iter_mut().zip(tally.records) {
                *sum += n;
            }
            for (sum, n) in cell_counts.iter_mut().zip(tally.cells) {
                *sum += n;
            }
        }
        let pct = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                100.0 * num as f64 / den as f64
            }
        };
        let mut record_pct = [0.0; GlitchType::COUNT];
        let mut cell_pct = [0.0; GlitchType::COUNT];
        for &k in &GlitchType::ALL {
            record_pct[k.index()] = pct(rec_counts[k.index()], total_records);
            cell_pct[k.index()] = pct(cell_counts[k.index()], total_cells);
        }
        GlitchReport {
            total_records,
            record_pct,
            cell_pct,
        }
    }

    /// Record-level percentage for one glitch type.
    pub fn record_percentage(&self, g: GlitchType) -> f64 {
        self.record_pct[g.index()]
    }

    /// Cell-level percentage for one glitch type.
    pub fn cell_percentage(&self, g: GlitchType) -> f64 {
        self.cell_pct[g.index()]
    }
}

/// Per-time-step record counts of one glitch type across many annotated
/// series — the Figure 3 series ("counts of three types of glitches …
/// roughly 5000 data points at any given time").
///
/// `horizon` fixes the output length; series shorter than the horizon
/// simply stop contributing.
pub fn counts_per_time(matrices: &[GlitchMatrix], g: GlitchType, horizon: usize) -> Vec<usize> {
    let mut counts = vec![0usize; horizon];
    for m in matrices {
        let upto = m.len().min(horizon);
        for (t, slot) in counts.iter_mut().enumerate().take(upto) {
            if m.record_has(g, t) {
                *slot += 1;
            }
        }
    }
    counts
}

/// Record-level co-occurrence between two glitch types across series.
pub fn co_occurrence(matrices: &[GlitchMatrix], a: GlitchType, b: GlitchType) -> CoOccurrence {
    let mut both = 0usize;
    let mut either = 0usize;
    let mut total = 0usize;
    for m in matrices {
        for t in 0..m.len() {
            let ha = m.record_has(a, t);
            let hb = m.record_has(b, t);
            both += (ha && hb) as usize;
            either += (ha || hb) as usize;
            total += 1;
        }
    }
    CoOccurrence {
        a,
        b,
        both: if total == 0 {
            0.0
        } else {
            both as f64 / total as f64
        },
        jaccard: if either == 0 {
            0.0
        } else {
            both as f64 / either as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_series() -> Vec<GlitchMatrix> {
        // Series 0: 4 records, missing at t0 (both attrs), outlier at t1.
        let mut a = GlitchMatrix::new(2, 4);
        a.set(0, GlitchType::Missing, 0);
        a.set(1, GlitchType::Missing, 0);
        a.set(0, GlitchType::Outlier, 1);
        // Series 1: 2 records, inconsistent+missing at t1.
        let mut b = GlitchMatrix::new(2, 2);
        b.set(0, GlitchType::Inconsistent, 1);
        b.set(0, GlitchType::Missing, 1);
        vec![a, b]
    }

    #[test]
    fn report_percentages() {
        let r = GlitchReport::from_matrices(&two_series());
        assert_eq!(r.total_records, 6);
        // Missing records: t0 of series 0 and t1 of series 1 → 2/6.
        assert!((r.record_percentage(GlitchType::Missing) - 100.0 * 2.0 / 6.0).abs() < 1e-12);
        assert!((r.record_percentage(GlitchType::Outlier) - 100.0 / 6.0).abs() < 1e-12);
        // Missing cells: 3 of 12.
        assert!((r.cell_percentage(GlitchType::Missing) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn report_of_empty_input() {
        let r = GlitchReport::from_matrices(&[]);
        assert_eq!(r.total_records, 0);
        assert_eq!(r.record_percentage(GlitchType::Missing), 0.0);
    }

    #[test]
    fn counts_per_time_aggregates_across_series() {
        let counts = counts_per_time(&two_series(), GlitchType::Missing, 4);
        assert_eq!(counts, vec![1, 1, 0, 0]);
        let out = counts_per_time(&two_series(), GlitchType::Outlier, 4);
        assert_eq!(out, vec![0, 1, 0, 0]);
    }

    #[test]
    fn horizon_truncates_and_pads() {
        let counts = counts_per_time(&two_series(), GlitchType::Missing, 2);
        assert_eq!(counts.len(), 2);
        let longer = counts_per_time(&two_series(), GlitchType::Missing, 10);
        assert_eq!(longer.len(), 10);
        assert_eq!(longer[9], 0);
    }

    #[test]
    fn co_occurrence_overlap() {
        let c = co_occurrence(&two_series(), GlitchType::Missing, GlitchType::Inconsistent);
        // Both at t1 of series 1 → 1/6 of records; union = t0 s0, t1 s1 → 2.
        assert!((c.both - 1.0 / 6.0).abs() < 1e-12);
        assert!((c.jaccard - 0.5).abs() < 1e-12);
    }

    #[test]
    fn co_occurrence_of_absent_types_is_zero() {
        let m = GlitchMatrix::new(1, 3);
        let c = co_occurrence(&[m], GlitchType::Missing, GlitchType::Outlier);
        assert_eq!(c.both, 0.0);
        assert_eq!(c.jaccard, 0.0);
    }
}
