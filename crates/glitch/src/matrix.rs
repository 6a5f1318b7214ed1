use crate::GlitchType;

/// Every count a glitch score or report reads from one series' matrix,
/// taken in one pass over its bits ([`GlitchMatrix::tally`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlitchTally {
    /// Number of time steps `T`.
    pub len: usize,
    /// Number of attributes `v`.
    pub num_attributes: usize,
    /// Flagged cells per glitch type, indexed by [`GlitchType::index`].
    pub cells: [usize; GlitchType::COUNT],
    /// Time steps flagged on ≥ 1 attribute per glitch type.
    pub records: [usize; GlitchType::COUNT],
}

/// The per-series glitch bit tensor `G_t` (§3.3): for each attribute
/// `a ∈ 0..v`, glitch type `k ∈ 0..m`, and time `t ∈ 0..T`, whether the
/// glitch is flagged.
///
/// Stored as one byte per `(attribute, time)` cell with one bit per glitch
/// type — compact enough for the paper-scale data (20 000 × 170 × 3 cells)
/// while keeping per-cell access O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlitchMatrix {
    num_attributes: usize,
    len: usize,
    /// `bits[attr * len + t]` holds a bitmask over glitch-type indices.
    bits: Vec<u8>,
}

impl GlitchMatrix {
    /// An all-clear matrix for a `v × T` series.
    pub fn new(num_attributes: usize, len: usize) -> Self {
        GlitchMatrix {
            num_attributes,
            len,
            bits: vec![0; num_attributes * len],
        }
    }

    /// Number of attributes `v`.
    pub fn num_attributes(&self) -> usize {
        self.num_attributes
    }

    /// Number of time steps `T`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matrix covers zero time steps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flags glitch `g` on attribute `attr` at time `t`.
    #[inline]
    pub fn set(&mut self, attr: usize, g: GlitchType, t: usize) {
        let i = self.cell(attr, t);
        self.bits[i] |= 1 << g.index();
    }

    /// Clears glitch `g` on attribute `attr` at time `t`.
    #[inline]
    pub fn clear(&mut self, attr: usize, g: GlitchType, t: usize) {
        let i = self.cell(attr, t);
        self.bits[i] &= !(1 << g.index());
    }

    /// Whether glitch `g` is flagged on attribute `attr` at time `t`.
    #[inline]
    pub fn get(&self, attr: usize, g: GlitchType, t: usize) -> bool {
        self.bits[self.cell(attr, t)] & (1 << g.index()) != 0
    }

    /// Whether any glitch is flagged on attribute `attr` at time `t`.
    #[inline]
    pub fn any(&self, attr: usize, t: usize) -> bool {
        self.bits[self.cell(attr, t)] != 0
    }

    /// The glitch vector `g_ij(k)` of one cell, as booleans indexed by
    /// [`GlitchType::index`].
    pub fn cell_vector(&self, attr: usize, t: usize) -> [bool; GlitchType::COUNT] {
        let b = self.bits[self.cell(attr, t)];
        let mut out = [false; GlitchType::COUNT];
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = b & (1 << k) != 0;
        }
        out
    }

    /// Whether glitch `g` is flagged on **any** attribute at time `t`
    /// (the record-level view used for Table 1 percentages).
    pub fn record_has(&self, g: GlitchType, t: usize) -> bool {
        (0..self.num_attributes).any(|a| self.get(a, g, t))
    }

    /// Whether any glitch of any type is flagged at time `t`.
    pub fn record_has_any(&self, t: usize) -> bool {
        (0..self.num_attributes).any(|a| self.any(a, t))
    }

    /// Per-type cell and record counts, in one pass over the bits: each
    /// time step ORs its attributes' masks into the record mask.
    pub fn tally(&self) -> GlitchTally {
        let mut tally = GlitchTally {
            len: self.len,
            num_attributes: self.num_attributes,
            ..GlitchTally::default()
        };
        for t in 0..self.len {
            let mut record = 0u8;
            for &b in self.bits[t..].iter().step_by(self.len) {
                record |= b;
                for (k, cells) in tally.cells.iter_mut().enumerate() {
                    *cells += usize::from((b >> k) & 1);
                }
            }
            for (k, records) in tally.records.iter_mut().enumerate() {
                *records += usize::from((record >> k) & 1);
            }
        }
        tally
    }

    /// Number of flagged cells for glitch type `g` over the whole series.
    pub fn count_cells(&self, g: GlitchType) -> usize {
        self.tally().cells[g.index()]
    }

    /// Number of time steps where glitch `g` is flagged on ≥ 1 attribute.
    pub fn count_records(&self, g: GlitchType) -> usize {
        self.tally().records[g.index()]
    }

    /// Total flagged cells across all types (multi-glitch cells count once
    /// per type).
    pub fn total_flags(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    #[inline]
    fn cell(&self, attr: usize, t: usize) -> usize {
        assert!(
            attr < self.num_attributes && t < self.len,
            "glitch matrix index out of range: attr {attr}, t {t}"
        );
        attr * self.len + t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlitchIndex, GlitchReport, GlitchWeights};
    use proptest::prelude::*;

    /// The per-type counts as they were taken before the one-pass tally:
    /// one filter over the bits per type, one record scan per type.
    fn oracle_cells(g: &GlitchMatrix, k: GlitchType) -> usize {
        let mask = 1u8 << k.index();
        g.bits.iter().filter(|&&b| b & mask != 0).count()
    }

    fn oracle_records(g: &GlitchMatrix, k: GlitchType) -> usize {
        (0..g.len).filter(|&t| g.record_has(k, t)).count()
    }

    /// `GlitchIndex::node_score` before the tally.
    fn oracle_node_score(weights: GlitchWeights, g: &GlitchMatrix) -> f64 {
        if g.is_empty() {
            return 0.0;
        }
        let t = g.len() as f64;
        GlitchType::ALL
            .iter()
            .map(|&k| weights.weight(k) * oracle_cells(g, k) as f64 / t)
            .sum()
    }

    /// `GlitchReport::from_matrices` before the tally.
    fn oracle_report(matrices: &[GlitchMatrix]) -> GlitchReport {
        let mut total_records = 0usize;
        let mut total_cells = 0usize;
        let mut rec_counts = [0usize; GlitchType::COUNT];
        let mut cell_counts = [0usize; GlitchType::COUNT];
        for g in matrices {
            total_records += g.len();
            total_cells += g.len() * g.num_attributes();
            for &k in &GlitchType::ALL {
                rec_counts[k.index()] += oracle_records(g, k);
                cell_counts[k.index()] += oracle_cells(g, k);
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

    /// A `v × len` matrix, `v` in 1..=4 and `len` in 0..40 (so some are
    /// empty), whose cells carry any subset of the three flags; about half
    /// the cells are clear.
    fn matrix() -> impl Strategy<Value = GlitchMatrix> {
        (
            1usize..5,
            0usize..40,
            prop::collection::vec(0u8..16, 160..161),
        )
            .prop_map(|(v, len, masks)| {
                let mut g = GlitchMatrix::new(v, len);
                for (cell, &mask) in g.bits.iter_mut().zip(&masks) {
                    *cell = if mask < 8 { mask } else { 0 };
                }
                g
            })
    }

    fn report_bits(r: &GlitchReport) -> Vec<u64> {
        let mut bits = vec![r.total_records as u64];
        bits.extend(r.record_pct.iter().chain(&r.cell_pct).map(|v| v.to_bits()));
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass tally agrees with the per-type oracle counts, and
        /// the node score and report read from it keep their bits.
        #[test]
        fn tally_matches_per_type_oracle(
            matrices in prop::collection::vec(matrix(), 0..6),
            (missing, inconsistent, outlier) in (0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0),
        ) {
            let weights = GlitchWeights { missing, inconsistent, outlier };
            let index = GlitchIndex::new(weights);
            for g in &matrices {
                let tally = g.tally();
                prop_assert_eq!(tally.len, g.len());
                prop_assert_eq!(tally.num_attributes, g.num_attributes());
                for k in GlitchType::ALL {
                    prop_assert_eq!(tally.cells[k.index()], oracle_cells(g, k));
                    prop_assert_eq!(tally.records[k.index()], oracle_records(g, k));
                    prop_assert_eq!(g.count_cells(k), oracle_cells(g, k));
                    prop_assert_eq!(g.count_records(k), oracle_records(g, k));
                }
                prop_assert_eq!(
                    index.node_score(g).to_bits(),
                    oracle_node_score(weights, g).to_bits()
                );
            }
            prop_assert_eq!(
                report_bits(&GlitchReport::from_matrices(&matrices)),
                report_bits(&oracle_report(&matrices))
            );
            let oracle_normalized = if matrices.is_empty() {
                0.0
            } else {
                let sum: f64 = matrices.iter().map(|g| oracle_node_score(weights, g)).sum();
                100.0 * sum / matrices.len() as f64
            };
            prop_assert_eq!(
                index.normalized_score(&matrices).to_bits(),
                oracle_normalized.to_bits()
            );
        }
    }

    #[test]
    fn set_get_clear() {
        let mut g = GlitchMatrix::new(2, 3);
        assert!(!g.get(0, GlitchType::Missing, 0));
        g.set(0, GlitchType::Missing, 0);
        assert!(g.get(0, GlitchType::Missing, 0));
        assert!(!g.get(0, GlitchType::Outlier, 0));
        g.clear(0, GlitchType::Missing, 0);
        assert!(!g.get(0, GlitchType::Missing, 0));
    }

    #[test]
    fn multiple_types_coexist_on_one_cell() {
        let mut g = GlitchMatrix::new(1, 1);
        g.set(0, GlitchType::Missing, 0);
        g.set(0, GlitchType::Inconsistent, 0);
        let v = g.cell_vector(0, 0);
        assert_eq!(v, [true, true, false]);
        assert!(g.any(0, 0));
        assert_eq!(g.total_flags(), 2);
    }

    #[test]
    fn record_level_queries() {
        let mut g = GlitchMatrix::new(3, 2);
        g.set(2, GlitchType::Outlier, 1);
        assert!(!g.record_has(GlitchType::Outlier, 0));
        assert!(g.record_has(GlitchType::Outlier, 1));
        assert!(g.record_has_any(1));
        assert!(!g.record_has_any(0));
        assert_eq!(g.count_records(GlitchType::Outlier), 1);
    }

    #[test]
    fn counts() {
        let mut g = GlitchMatrix::new(2, 4);
        g.set(0, GlitchType::Missing, 0);
        g.set(1, GlitchType::Missing, 0);
        g.set(0, GlitchType::Missing, 2);
        assert_eq!(g.count_cells(GlitchType::Missing), 3);
        assert_eq!(g.count_records(GlitchType::Missing), 2);
        assert_eq!(g.count_cells(GlitchType::Outlier), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let g = GlitchMatrix::new(1, 1);
        g.get(1, GlitchType::Missing, 0);
    }

    #[test]
    fn empty_matrix() {
        let g = GlitchMatrix::new(3, 0);
        assert!(g.is_empty());
        assert_eq!(g.count_cells(GlitchType::Missing), 0);
    }
}
