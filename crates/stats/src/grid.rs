use crate::{quantile_of_ranked, sort_total, HistogramSpec, RankedColumn};
use std::collections::BTreeMap;

/// Uniform binning of a `d`-dimensional box: one [`HistogramSpec`] per axis.
///
/// The paper pools every time instance of every sampled series into a cloud
/// of `v`-tuples and measures statistical distortion as the EMD between two
/// such clouds (§3.5, §6.1). Exact EMD over tens of thousands of raw points
/// is infeasible; like reference \[1\] of the paper we first quantize each
/// cloud onto a shared grid, producing a sparse *signature* (occupied cell →
/// mass) that the transportation solver consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    axes: Vec<HistogramSpec>,
}

impl GridSpec {
    /// Creates a grid from per-axis specs (at least one axis).
    pub fn new(axes: Vec<HistogramSpec>) -> Self {
        assert!(!axes.is_empty(), "grid needs at least one axis");
        GridSpec { axes }
    }

    /// Builds a grid spanning the exact min–max of the union of two point
    /// clouds, with `bins` bins per axis. Points are rows; all rows must
    /// have equal length. Axes where *neither* cloud has a present value
    /// get a degenerate (widened) spec. Returns `None` when the clouds are
    /// empty or an axis holds an infinite value.
    pub fn covering(a: &[Vec<f64>], b: &[Vec<f64>], bins: usize) -> Option<Self> {
        let columns = sorted_union_columns(a, b)?;
        let columns: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        Self::from_ranked_columns_min_max(&columns, bins)
    }

    /// Min–max cover with one axis per [`RankedColumn`] (the union of
    /// both clouds' values on that axis: a materialized sorted column, or
    /// an [`crate::EditedUnion`] of a cached column and its edited copy).
    /// The extremes are read by rank, so an edited union is never
    /// materialized. Empty columns get a degenerate (widened) axis.
    /// `None` when an axis's range is not finite (it holds ±inf).
    pub fn from_ranked_columns_min_max<C: RankedColumn>(
        columns: &[C],
        bins: usize,
    ) -> Option<Self> {
        Self::from_axis_ranges(columns, bins, min_max_range)
    }

    /// Robust cover over per-axis [`RankedColumn`]s (see
    /// [`GridSpec::from_ranked_columns_min_max`]): each axis spans
    /// `median ± z_range · IQR` of the union, with values outside clamping
    /// into the edge bins.
    ///
    /// For heavy-tailed telemetry this is the cover that keeps the data
    /// bulk resolved (several bins across the interquartile range) while
    /// spikes, dropouts, and wild model-imputed values accumulate in the
    /// edge bins at a *bounded but large* ground distance — exactly the
    /// "mass moved into low-likelihood regions" signal the statistical-
    /// distortion metric must see. Degenerate axes (IQR = 0) fall back to
    /// the min–max cover. `None` when an axis's range is not finite (an
    /// infinite quartile, an IQR that overflows, or ±inf under the min–max
    /// fallback).
    pub fn from_ranked_columns_robust<C: RankedColumn>(
        columns: &[C],
        bins: usize,
        z_range: f64,
    ) -> Option<Self> {
        assert!(z_range > 0.0, "z_range must be positive");
        Self::from_axis_ranges(columns, bins, |column| robust_range(column, z_range))
    }

    /// One axis per column, spanning `range` of the column; an empty
    /// column (no range) gets a degenerate (widened) axis. `None` when a
    /// range is not finite.
    fn from_axis_ranges<C: RankedColumn>(
        columns: &[C],
        bins: usize,
        range: impl Fn(&C) -> Option<(f64, f64)>,
    ) -> Option<Self> {
        assert!(!columns.is_empty(), "grid needs at least one axis");
        let axes = columns
            .iter()
            .map(|column| {
                let (lo, hi) = range(column).unwrap_or((0.0, 0.0));
                (lo.is_finite() && hi.is_finite()).then(|| HistogramSpec::new(lo, hi, bins))
            })
            .collect::<Option<_>>()?;
        Some(GridSpec { axes })
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.axes.len()
    }

    /// Per-axis specs.
    pub fn axes(&self) -> &[HistogramSpec] {
        &self.axes
    }

    /// Cell coordinates of a point; `None` if any coordinate is NaN
    /// (records with missing attributes carry no density — the paper's EMD
    /// compares the distributions of observed tuples).
    pub fn cell_of(&self, point: &[f64]) -> Option<Vec<u32>> {
        assert_eq!(point.len(), self.dim(), "point dimension mismatch");
        let mut cell = Vec::with_capacity(self.dim());
        for (spec, &x) in self.axes.iter().zip(point) {
            cell.push(spec.bin_of(x)? as u32);
        }
        Some(cell)
    }

    /// Centre of a cell in data coordinates.
    pub fn center_of(&self, cell: &[u32]) -> Vec<f64> {
        assert_eq!(cell.len(), self.dim(), "cell dimension mismatch");
        self.axes
            .iter()
            .zip(cell)
            .map(|(spec, &i)| spec.center(i as usize))
            .collect()
    }
}

/// The smallest and largest value of a ranked column: one axis of the
/// min–max cover. `None` when the column is empty.
pub fn min_max_range<C: RankedColumn>(column: &C) -> Option<(f64, f64)> {
    let last = column.len().checked_sub(1)?;
    Some((column.select(0)?, column.select(last)?))
}

/// `median ± z_range · IQR` of a ranked column, or its min–max range when
/// the IQR is not positive: one axis of the robust cover. `None` when the
/// column is empty.
pub fn robust_range<C: RankedColumn>(column: &C, z_range: f64) -> Option<(f64, f64)> {
    let median = quantile_of_ranked(column, 0.5)?;
    let q1 = quantile_of_ranked(column, 0.25)?;
    let q3 = quantile_of_ranked(column, 0.75)?;
    let iqr = q3 - q1;
    if iqr > 0.0 {
        Some((median - z_range * iqr, median + z_range * iqr))
    } else {
        min_max_range(column)
    }
}

/// Per-axis sorted (by [`f64::total_cmp`]), NaN-free columns of the union
/// of two point clouds. `None` when both clouds are empty.
///
/// This is the shared quantization input behind every grid cover: the
/// sorted union column of each axis is what the min–max and robust covers
/// consume.
pub fn sorted_union_columns(a: &[Vec<f64>], b: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    let dim = a.first().or_else(|| b.first())?.len();
    let mut columns = Vec::with_capacity(dim);
    for k in 0..dim {
        let mut column = Vec::with_capacity(a.len() + b.len());
        for row in a.iter().chain(b.iter()) {
            assert_eq!(row.len(), dim, "ragged point cloud");
            let x = row[k];
            if !x.is_nan() {
                column.push(x);
            }
        }
        sort_total(&mut column);
        columns.push(column);
    }
    Some(columns)
}

/// A sparse multi-dimensional histogram over a [`GridSpec`].
#[derive(Debug, Clone)]
pub struct GridHistogram {
    spec: GridSpec,
    // Keyed by cell coordinates in a BTreeMap so iteration *is* the
    // sorted cell order every consumer needs — no hash-seed-dependent
    // order exists anywhere in this result path (sd-lint D001).
    cells: BTreeMap<Vec<u32>, f64>,
    total: f64,
    skipped: usize,
}

impl GridHistogram {
    /// An empty histogram over the grid.
    pub fn empty(spec: GridSpec) -> Self {
        GridHistogram {
            spec,
            cells: BTreeMap::new(),
            total: 0.0,
            skipped: 0,
        }
    }

    /// Histogram of a point cloud. Rows with any missing coordinate are
    /// counted in [`GridHistogram::skipped`] rather than binned.
    pub fn from_points(spec: GridSpec, points: &[Vec<f64>]) -> Self {
        let mut h = GridHistogram::empty(spec);
        for p in points {
            h.add(p);
        }
        h
    }

    /// Adds one point with unit mass.
    pub fn add(&mut self, point: &[f64]) {
        match self.spec.cell_of(point) {
            Some(cell) => {
                *self.cells.entry(cell).or_insert(0.0) += 1.0;
                self.total += 1.0;
            }
            None => self.skipped += 1,
        }
    }

    /// The grid spec.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Number of occupied cells.
    pub fn occupied(&self) -> usize {
        self.cells.len()
    }

    /// Total binned mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of points skipped because of missing coordinates.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Occupied cells with their raw masses, sorted by cell coordinates.
    ///
    /// Used to align two histograms over the union of their occupied cells
    /// (e.g. for KL divergence, which is a same-bin distance).
    pub fn cell_masses(&self) -> Vec<(Vec<u32>, f64)> {
        // BTreeMap iteration is already in ascending cell order — the
        // same `Vec<u32>::cmp` the former sort used.
        self.cells.iter().map(|(c, &m)| (c.clone(), m)).collect()
    }

    /// The signature: `(cell centre, probability)` for every occupied cell,
    /// sorted by cell coordinates for determinism. Empty histogram yields an
    /// empty signature.
    pub fn signature(&self) -> Vec<(Vec<f64>, f64)> {
        if self.total == 0.0 {
            return Vec::new();
        }
        self.cells
            .iter()
            .map(|(cell, &mass)| (self.spec.center_of(cell), mass / self.total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(bins: usize) -> GridSpec {
        GridSpec::new(vec![
            HistogramSpec::new(0.0, 1.0, bins),
            HistogramSpec::new(0.0, 1.0, bins),
        ])
    }

    #[test]
    fn cell_of_maps_points() {
        let g = unit_grid(2);
        assert_eq!(g.cell_of(&[0.1, 0.9]), Some(vec![0, 1]));
        assert_eq!(g.cell_of(&[0.9, 0.1]), Some(vec![1, 0]));
        assert_eq!(g.cell_of(&[f64::NAN, 0.5]), None);
    }

    #[test]
    fn center_roundtrip() {
        let g = unit_grid(4);
        let cell = g.cell_of(&[0.3, 0.8]).unwrap();
        let c = g.center_of(&cell);
        assert!((c[0] - 0.375).abs() < 1e-12);
        assert!((c[1] - 0.875).abs() < 1e-12);
    }

    #[test]
    fn covering_spans_both_clouds() {
        let a = vec![vec![0.0, 10.0]];
        let b = vec![vec![5.0, -10.0]];
        let g = GridSpec::covering(&a, &b, 4).unwrap();
        assert_eq!(g.axes()[0].lo, 0.0);
        assert_eq!(g.axes()[0].hi, 5.0);
        assert_eq!(g.axes()[1].lo, -10.0);
        assert_eq!(g.axes()[1].hi, 10.0);
        assert!(GridSpec::covering(&[], &[], 4).is_none());
    }

    #[test]
    fn non_finite_ranges_give_no_grid() {
        let inf = vec![vec![1.0, f64::INFINITY], vec![2.0, 0.0]];
        assert!(GridSpec::covering(&inf, &[], 3).is_none());
        // Infinite quartiles make the robust range infinite or NaN.
        let column = [f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0, f64::INFINITY];
        assert!(GridSpec::from_ranked_columns_robust(&[&column[..]], 3, 5.0).is_none());
        // One infinite extreme leaves the quartiles, and the robust cover,
        // finite.
        let column = [0.0, 1.0, 2.0, 3.0, f64::INFINITY];
        assert!(GridSpec::from_ranked_columns_robust(&[&column[..]], 3, 5.0).is_some());
        assert!(GridSpec::from_ranked_columns_min_max(&[&column[..]], 3).is_none());
    }

    #[test]
    fn covering_tolerates_all_missing_axis() {
        let a = vec![vec![1.0, f64::NAN]];
        let g = GridSpec::covering(&a, &[], 3).unwrap();
        // Second axis degenerate but valid.
        assert!(g.axes()[1].lo < g.axes()[1].hi);
    }

    #[test]
    fn histogram_masses_and_signature() {
        let g = unit_grid(2);
        let points = vec![
            vec![0.1, 0.1],
            vec![0.2, 0.2],
            vec![0.9, 0.9],
            vec![0.3, f64::NAN],
        ];
        let h = GridHistogram::from_points(g, &points);
        assert_eq!(h.total(), 3.0);
        assert_eq!(h.skipped(), 1);
        assert_eq!(h.occupied(), 2);
        let sig = h.signature();
        assert_eq!(sig.len(), 2);
        // Sorted by cell coordinates: (0,0) first with mass 2/3.
        assert!((sig[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((sig[1].1 - 1.0 / 3.0).abs() < 1e-12);
        let masses: f64 = sig.iter().map(|(_, m)| m).sum();
        assert!((masses - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_is_insertion_order_independent() {
        // Bit-identity regression for the HashMap → BTreeMap switch: the
        // signature and cell masses must not depend on the order points
        // arrive in (and must stay bit-for-bit what the sorted-drain
        // HashMap implementation produced).
        let points: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let x = (i as f64 * 0.37) % 1.0;
                let y = (i as f64 * 0.61) % 1.0;
                vec![x, y]
            })
            .collect();
        let forward = GridHistogram::from_points(unit_grid(4), &points);
        let mut reversed_points = points.clone();
        reversed_points.reverse();
        let reversed = GridHistogram::from_points(unit_grid(4), &reversed_points);
        // Interleaved: odd indices then even.
        let interleaved_points: Vec<Vec<f64>> = points
            .iter()
            .skip(1)
            .step_by(2)
            .chain(points.iter().step_by(2))
            .cloned()
            .collect();
        let interleaved = GridHistogram::from_points(unit_grid(4), &interleaved_points);
        for other in [&reversed, &interleaved] {
            assert_eq!(forward.cell_masses(), other.cell_masses());
            let a = forward.signature();
            let b = other.signature();
            assert_eq!(a.len(), b.len());
            for ((ca, ma), (cb, mb)) in a.iter().zip(&b) {
                assert_eq!(ma.to_bits(), mb.to_bits(), "mass bits differ");
                for (xa, xb) in ca.iter().zip(cb) {
                    assert_eq!(xa.to_bits(), xb.to_bits(), "centre bits differ");
                }
            }
        }
    }

    #[test]
    fn signature_pinned_values() {
        // Pinned output of the pre-BTreeMap implementation (cells sorted
        // by coordinates, mass normalized by binned total): proves the
        // container switch changed nothing observable.
        let g = unit_grid(2);
        let points = vec![
            vec![0.9, 0.9],
            vec![0.1, 0.1],
            vec![0.2, 0.2],
            vec![0.6, 0.1],
        ];
        let h = GridHistogram::from_points(g, &points);
        let sig = h.signature();
        assert_eq!(sig.len(), 3);
        assert_eq!(sig[0].0, vec![0.25, 0.25]);
        assert_eq!(sig[0].1.to_bits(), 0.5f64.to_bits());
        assert_eq!(sig[1].0, vec![0.75, 0.25]);
        assert_eq!(sig[1].1.to_bits(), 0.25f64.to_bits());
        assert_eq!(sig[2].0, vec![0.75, 0.75]);
        assert_eq!(sig[2].1.to_bits(), 0.25f64.to_bits());
        let masses = h.cell_masses();
        assert_eq!(
            masses,
            vec![(vec![0, 0], 2.0), (vec![1, 0], 1.0), (vec![1, 1], 1.0),]
        );
    }

    #[test]
    fn empty_signature() {
        let h = GridHistogram::empty(unit_grid(2));
        assert!(h.signature().is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let g = unit_grid(2);
        g.cell_of(&[0.5]);
    }
}
