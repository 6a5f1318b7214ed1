use crate::{ConstraintSet, GlitchMatrix, GlitchType};
use sd_data::{Dataset, TimeSeries};
use sd_stats::AttributeTransform;
use std::ops::Range;

/// 3-σ outlier detector calibrated on the ideal data set `D_I` (§4.1).
///
/// For each attribute the limits are `mean ± k·σ` of the pooled ideal
/// values, computed **in the working space** of that attribute's transform
/// (the paper shows the log transform flips which tail is flagged, §5.3).
/// The detector also offers the paper's "alternatively" output: a two-sided
/// Gaussian p-value per cell instead of a hard flag.
#[derive(Debug, Clone)]
pub struct OutlierDetector {
    /// Per-attribute `(lo, hi)` limits in working space.
    limits: Vec<(f64, f64)>,
    /// Per-attribute working-space `(mean, std)` for p-values.
    moments: Vec<(f64, f64)>,
    /// Per-attribute transform applied before comparison.
    transforms: Vec<AttributeTransform>,
    /// The σ multiplier `k`.
    k: f64,
}

impl OutlierDetector {
    /// Fits `k`-σ limits to the pooled per-attribute values of `ideal`,
    /// each transformed by the matching entry of `transforms`.
    ///
    /// Attributes whose ideal sample is empty get infinite limits (nothing
    /// is flagged).
    pub fn fit(ideal: &Dataset, transforms: &[AttributeTransform], k: f64) -> Self {
        assert_eq!(
            transforms.len(),
            ideal.num_attributes(),
            "one transform per attribute required"
        );
        Self::fit_series(ideal.series(), transforms, k)
    }

    /// [`OutlierDetector::fit`] over borrowed series, pooled in iteration
    /// order, so a subset of a data set is fitted without copying it.
    ///
    /// One pass over the cells feeds a per-attribute Welford accumulator
    /// that repeats `Summary::from_slice`'s `n`/`mean`/`m2` updates term
    /// for term. That summary's skewness and kurtosis updates read `mean`
    /// and `m2` but never write them, so the limits and moments here are
    /// bit-identical to those of a [`Summary`](sd_stats::Summary) of the pooled, transformed
    /// values.
    ///
    /// # Panics
    ///
    /// If `k` is not positive, or a series has fewer attributes than
    /// `transforms`.
    pub fn fit_series<'a>(
        ideal: impl IntoIterator<Item = &'a TimeSeries>,
        transforms: &[AttributeTransform],
        k: f64,
    ) -> Self {
        assert!(k > 0.0, "sigma multiplier must be positive");
        let mut acc = vec![Welford::default(); transforms.len()];
        for series in ideal {
            // Time-major: consecutive pushes go to different attributes,
            // whose update chains are independent and so overlap in the
            // pipeline. Each accumulator still sees its values in order.
            for t in 0..series.len() {
                for (attr, (tf, w)) in transforms.iter().zip(acc.iter_mut()).enumerate() {
                    // `forward` passes NaN (missing) through; skipping NaN
                    // after it is what `Summary::from_slice` does.
                    let y = tf.forward(series.get(attr, t));
                    if !y.is_nan() {
                        w.push(y);
                    }
                }
            }
        }
        let mut limits = Vec::with_capacity(acc.len());
        let mut moments = Vec::with_capacity(acc.len());
        for w in &acc {
            if w.n == 0 {
                limits.push((f64::NEG_INFINITY, f64::INFINITY));
                moments.push((0.0, f64::INFINITY));
            } else {
                let std = w.variance().sqrt();
                limits.push((w.mean - k * std, w.mean + k * std));
                moments.push((w.mean, std));
            }
        }
        OutlierDetector {
            limits,
            moments,
            transforms: transforms.to_vec(),
            k,
        }
    }

    /// Per-attribute `(lo, hi)` limits in working space.
    pub fn limits(&self) -> &[(f64, f64)] {
        &self.limits
    }

    /// Per-attribute working-space `(mean, std)` of the ideal values the
    /// limits were fitted on; `(0, ∞)` for an attribute with no present
    /// value. The mean is bit-identical to a
    /// [`Summary`](sd_stats::Summary)'s of the same values (see
    /// [`OutlierDetector::fit_series`]).
    pub fn moments(&self) -> &[(f64, f64)] {
        &self.moments
    }

    /// The σ multiplier the detector was fitted with.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Whether the (present) raw value `x` of attribute `attr` is an
    /// outlier. Missing values are never outliers.
    pub fn is_outlier(&self, attr: usize, x: f64) -> bool {
        if x.is_nan() {
            return false;
        }
        let w = self.transforms[attr].forward(x);
        let (lo, hi) = self.limits[attr];
        w < lo || w > hi
    }

    /// ORs [`OutlierDetector::is_outlier`] of each raw value of attribute
    /// `attr` into the matching byte of `flags`. A missing value transforms
    /// to NaN, which compares false against both limits, so no NaN check is
    /// needed and the loop has no branch per cell.
    pub(crate) fn or_outlier_flags(&self, attr: usize, column: &[f64], flags: &mut [u8]) {
        let (lo, hi) = self.limits[attr];
        let outside = |w: f64| u8::from(w < lo) | u8::from(w > hi);
        match self.transforms[attr] {
            AttributeTransform::Identity => {
                for (f, &x) in flags.iter_mut().zip(column) {
                    *f |= outside(x);
                }
            }
            tf => {
                for (f, &x) in flags.iter_mut().zip(column) {
                    *f |= outside(tf.forward(x));
                }
            }
        }
    }

    /// Two-sided Gaussian p-value of the raw value under the fitted
    /// working-space moments — the paper's alternative detector output that
    /// lets users move the outlyingness threshold after the fact. Missing
    /// values return `None`.
    pub fn p_value(&self, attr: usize, x: f64) -> Option<f64> {
        if x.is_nan() {
            return None;
        }
        let (mean, std) = self.moments[attr];
        if !std.is_finite() || std <= 0.0 {
            return Some(1.0);
        }
        let z = ((self.transforms[attr].forward(x) - mean) / std).abs();
        Some(2.0 * (1.0 - standard_normal_cdf(z)))
    }
}

/// Welford running mean and second central moment, updated exactly as
/// `Summary::from_slice` updates its `n`, `mean` and `m2`.
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    n: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    #[inline]
    fn push(&mut self, x: f64) {
        self.n += 1;
        let nf = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / nf;
        self.mean += delta_n;
        self.m2 += delta * delta_n * (nf - 1.0);
    }

    /// Sample variance (denominator `n - 1`; 0 when `n < 2`).
    fn variance(&self) -> f64 {
        if self.n >= 2 {
            self.m2 / (self.n as f64 - 1.0)
        } else {
            0.0
        }
    }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
/// (max absolute error ≈ 1.5e-7, ample for thresholding p-values).
fn standard_normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let signed = if x < 0.0 { -erf } else { erf };
    0.5 * (1.0 + signed)
}

/// Streaming outlier detector of the form `f_O(X^t | X^{F^w_t}, X^{F^w_t}_N)`
/// (§3.3): flags a value whose deviation from its own `w`-step history mean
/// (pooled with neighbour history when provided) exceeds `k` standard
/// deviations.
///
/// This is the screen on every windowed path: the batch
/// `WindowedExperiment` and the `sd-serve` evaluators both calibrate each
/// window through it, one [`WindowedOutlierDetector::screen_column`] call
/// per (series, attribute). The batch experiments instead use
/// [`OutlierDetector`] calibrated on `D_I`.
///
/// The column screen gives every cell its own accumulator and walks the
/// history lag-major (lag outer, cell inner), so the cells' independent
/// division chains overlap and nothing is allocated per cell. Each cell
/// still sees its history in the per-cell order — own `[t − w, t)`, then
/// each neighbour's `[u − w, u)` with `u = t.min(neighbour length)` — and
/// the accumulators repeat the per-cell expressions term for term:
/// `Summary::from_slice`'s `n`/`mean`/`m2` updates in the unweighted mode,
/// the in-order weight, square-weight and weighted-value sums (folded from
/// `-0.0`, like `Iterator::sum`) in the weighted one. The verdicts are
/// therefore bit-identical to screening each cell on its own.
#[derive(Debug, Clone, Copy)]
pub struct WindowedOutlierDetector {
    /// History window length `w`.
    pub window: usize,
    /// σ multiplier.
    pub k: f64,
    /// Minimum history points required before flagging anything.
    pub min_history: usize,
}

/// Neighbour history pooled into a [`WindowedOutlierDetector::screen_column`]
/// call: one column per neighbour, all of the screened attribute.
#[derive(Debug, Clone, Copy)]
pub enum PooledHistory<'a> {
    /// Neighbour values count exactly like own values.
    Unweighted(&'a [&'a [f64]]),
    /// Own values weigh 1, each neighbour's its weight; neighbours with a
    /// non-positive weight are skipped.
    Weighted(&'a [(&'a [f64], f64)]),
}

/// Caller-owned buffers of [`WindowedOutlierDetector::screen_column`]: one
/// accumulator per screened cell, and the verdicts. Reusing one across
/// calls keeps the screen free of allocation once it has seen its longest
/// cell range.
#[derive(Debug, Clone, Default)]
pub struct ColumnScreen {
    moments: Vec<Welford>,
    sums: Vec<WeightedSums>,
    verdicts: Vec<bool>,
}

/// One cell's weighted-history sums: `V₁ = Σw`, `V₂ = Σw²`, `Σvw`, and
/// (second pass) `Σw(v − μ)²` about the weighted mean `μ`.
#[derive(Debug, Clone, Copy)]
struct WeightedSums {
    v1: f64,
    v2: f64,
    sv: f64,
    mean: f64,
    ss: f64,
}

impl Default for WeightedSums {
    fn default() -> Self {
        // `Iterator::sum::<f64>` folds from -0.0; starting there keeps even
        // the sign of an all-zero sum identical to the per-cell screen.
        WeightedSums {
            v1: -0.0,
            v2: -0.0,
            sv: -0.0,
            mean: f64::NAN,
            ss: -0.0,
        }
    }
}

/// Feeds each cell of `cells` its present history values in `column`,
/// lag-major: for lag `w, w−1, …, 1`, every cell `t` reads
/// `column[u − lag]` with `u = t.min(column.len())` (when `u ≥ lag`), so
/// each cell sees `[u − w, u)` in time order. `visit` gets the cell's index
/// within `cells` and the value; missing (NaN) values are skipped.
#[inline]
fn for_each_history(
    window: usize,
    column: &[f64],
    cells: &Range<usize>,
    mut visit: impl FnMut(usize, f64),
) {
    let len = column.len();
    // No cell reaches back further than the column is long.
    for lag in (1..=window.min(len)).rev() {
        for (c, t) in cells.clone().enumerate() {
            let upto = t.min(len);
            if upto >= lag {
                let v = column[upto - lag];
                if !v.is_nan() {
                    visit(c, v);
                }
            }
        }
    }
}

impl WindowedOutlierDetector {
    /// Creates a windowed detector.
    pub fn new(window: usize, k: f64) -> Self {
        WindowedOutlierDetector {
            window,
            k,
            min_history: 5,
        }
    }

    /// Screens cells `cells` of one attribute column `own` against their
    /// `w`-step history in `own` pooled with `neighbors`, returning one
    /// verdict per cell (in `buffers`, which the caller owns and may reuse).
    ///
    /// A verdict is exactly [`WindowedOutlierDetector::is_outlier`] (or,
    /// for [`PooledHistory::Weighted`],
    /// [`WindowedOutlierDetector::is_outlier_weighted`]) of that cell:
    /// missing cells and cells with too little history are never flagged.
    ///
    /// # Panics
    ///
    /// If `cells` reaches past the end of `own`.
    pub fn screen_column<'b>(
        &self,
        own: &[f64],
        neighbors: PooledHistory<'_>,
        cells: Range<usize>,
        buffers: &'b mut ColumnScreen,
    ) -> &'b [bool] {
        let x = &own[cells.clone()];
        let verdicts = &mut buffers.verdicts;
        verdicts.clear();
        match neighbors {
            PooledHistory::Unweighted(columns) => {
                let acc = &mut buffers.moments;
                acc.clear();
                acc.resize(x.len(), Welford::default());
                for column in std::iter::once(own).chain(columns.iter().copied()) {
                    for_each_history(self.window, column, &cells, |c, v| acc[c].push(v));
                }
                verdicts.extend(x.iter().zip(acc.iter()).map(|(&x, acc)| {
                    // `n == 0` only passes a zero `min_history`; its NaN
                    // mean never flags, as in `Summary`.
                    if x.is_nan() || acc.n < self.min_history || acc.n == 0 {
                        return false;
                    }
                    let spread = self.k * acc.variance().sqrt();
                    x < acc.mean - spread || x > acc.mean + spread
                }));
            }
            PooledHistory::Weighted(columns) => {
                let sums = &mut buffers.sums;
                sums.clear();
                sums.resize(x.len(), WeightedSums::default());
                // Non-positive weights are skipped; a NaN weight is not
                // (`w <= 0.0` is false), exactly as in the per-cell screen.
                let weighted = || {
                    std::iter::once((own, 1.0)).chain(
                        columns
                            .iter()
                            .copied()
                            .filter(|&(_, w)| w > 0.0 || w.is_nan()),
                    )
                };
                for (column, w) in weighted() {
                    for_each_history(self.window, column, &cells, |c, v| {
                        let s = &mut sums[c];
                        s.v1 += w;
                        s.v2 += w * w;
                        s.sv += v * w;
                    });
                }
                for s in sums.iter_mut() {
                    s.mean = s.sv / s.v1;
                }
                for (column, w) in weighted() {
                    for_each_history(self.window, column, &cells, |c, v| {
                        let s = &mut sums[c];
                        s.ss += w * (v - s.mean) * (v - s.mean);
                    });
                }
                verdicts.extend(x.iter().zip(sums.iter()).map(|(&x, s)| {
                    if x.is_nan() || s.v2 <= 0.0 || (s.v1 * s.v1) / s.v2 < self.min_history as f64 {
                        return false;
                    }
                    let denom = s.v1 - s.v2 / s.v1;
                    if denom <= 0.0 {
                        return false;
                    }
                    let spread = self.k * (s.ss / denom).sqrt();
                    x < s.mean - spread || x > s.mean + spread
                }));
            }
        }
        verdicts
    }

    /// Whether attribute `attr` of `series` at time `t` is an outlier with
    /// respect to its own window history plus optional neighbour series:
    /// `mean ± k·σ` of the pooled present history values, flagged only
    /// with at least `min_history` of them. A one-cell
    /// [`WindowedOutlierDetector::screen_column`].
    pub fn is_outlier(
        &self,
        series: &TimeSeries,
        neighbors: &[&TimeSeries],
        attr: usize,
        t: usize,
    ) -> bool {
        let columns: Vec<&[f64]> = neighbors.iter().map(|nb| nb.attribute(attr)).collect();
        self.screen_column(
            series.attribute(attr),
            PooledHistory::Unweighted(&columns),
            t..t + 1,
            &mut ColumnScreen::default(),
        )[0]
    }

    /// Weight-pooled variant of [`WindowedOutlierDetector::is_outlier`]:
    /// own history enters with weight 1, each neighbour's history with its
    /// supplied weight (non-positive weights are skipped).
    ///
    /// The screen uses the weighted mean, the reliability-weights variance
    /// estimator `Σw(x−μ)² / (V₁ − V₂/V₁)` (which reduces to the sample
    /// variance when every weight is 1), and Kish's effective sample size
    /// `V₁²/V₂` in place of the raw count for the `min_history` guard — so
    /// a value backed mostly by faintly-weighted remote history is still
    /// treated as under-evidenced. A one-cell
    /// [`WindowedOutlierDetector::screen_column`].
    pub fn is_outlier_weighted(
        &self,
        series: &TimeSeries,
        neighbors: &[(&TimeSeries, f64)],
        attr: usize,
        t: usize,
    ) -> bool {
        let columns: Vec<(&[f64], f64)> = neighbors
            .iter()
            .map(|&(nb, w)| (nb.attribute(attr), w))
            .collect();
        self.screen_column(
            series.attribute(attr),
            PooledHistory::Weighted(&columns),
            t..t + 1,
            &mut ColumnScreen::default(),
        )[0]
    }
}

/// Orchestrates the three detectors over a series / data set, producing the
/// `v × m × T` bit tensor `G_t` of §3.3.
///
/// Missing and inconsistency detection run on **raw** values (the paper's
/// Table 1 shows identical missing/inconsistent rates with and without the
/// log transform); outlier detection runs in the transform's working space
/// via the fitted [`OutlierDetector`]. Detection with `outliers = None`
/// flags only missing/inconsistent cells.
#[derive(Debug, Clone)]
pub struct GlitchDetector {
    constraints: ConstraintSet,
    outliers: Option<OutlierDetector>,
}

impl GlitchDetector {
    /// Creates a detector from constraint rules and an optional fitted
    /// outlier detector.
    pub fn new(constraints: ConstraintSet, outliers: Option<OutlierDetector>) -> Self {
        GlitchDetector {
            constraints,
            outliers,
        }
    }

    /// The inconsistency rules.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The outlier detector, if configured.
    pub fn outlier_detector(&self) -> Option<&OutlierDetector> {
        self.outliers.as_ref()
    }

    /// Annotates one series.
    pub fn detect_series(&self, series: &TimeSeries) -> GlitchMatrix {
        let mut g = GlitchMatrix::new(series.num_attributes(), series.len());
        for glitch in GlitchType::ALL {
            self.scan(series, glitch, |t, a| g.set(a, glitch, t));
        }
        g
    }

    /// The number of time steps of `series` where `glitch` is flagged on
    /// at least one attribute: `detect_series(series).count_records(glitch)`
    /// without building the matrix, and scanning for `glitch` alone.
    ///
    /// Missing and outlier cells are OR-ed column by column into one byte
    /// per record, with no branch per cell; inconsistent cells set their
    /// record's byte violation by violation.
    pub fn count_records(&self, series: &TimeSeries, glitch: GlitchType) -> usize {
        let mut records = vec![0u8; series.len()];
        match glitch {
            GlitchType::Missing => {
                for a in 0..series.num_attributes() {
                    for (r, x) in records.iter_mut().zip(series.attribute(a)) {
                        *r |= u8::from(x.is_nan());
                    }
                }
            }
            GlitchType::Inconsistent => self
                .constraints
                .for_each_violation(series, |t, _| records[t] = 1),
            GlitchType::Outlier => {
                if let Some(od) = &self.outliers {
                    for a in 0..series.num_attributes() {
                        od.or_outlier_flags(a, series.attribute(a), &mut records);
                    }
                }
            }
        }
        records.iter().map(|&r| usize::from(r)).sum()
    }

    /// The one cell scan behind [`GlitchDetector::detect_series`]: calls
    /// `flag(t, attr)` for every cell of `series` flagged with `glitch`.
    /// Missing and outlier cells are found column by column, inconsistent
    /// ones constraint by constraint, so an inconsistent cell is reported
    /// once per constraint it violates. Missing and constraint checks read raw values, the
    /// outlier check working-space values through the fitted detector.
    fn scan(&self, series: &TimeSeries, glitch: GlitchType, mut flag: impl FnMut(usize, usize)) {
        match glitch {
            GlitchType::Missing => {
                for a in 0..series.num_attributes() {
                    for (t, x) in series.attribute(a).iter().enumerate() {
                        if x.is_nan() {
                            flag(t, a);
                        }
                    }
                }
            }
            GlitchType::Inconsistent => self.constraints.for_each_violation(series, flag),
            GlitchType::Outlier => {
                if let Some(od) = &self.outliers {
                    for a in 0..series.num_attributes() {
                        for (t, &x) in series.attribute(a).iter().enumerate() {
                            if od.is_outlier(a, x) {
                                flag(t, a);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Annotates every series of a data set (aligned by index).
    pub fn detect_dataset(&self, dataset: &Dataset) -> Vec<GlitchMatrix> {
        dataset
            .series()
            .iter()
            .map(|s| self.detect_series(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraint;
    use proptest::prelude::*;
    use sd_data::{NodeId, Window};
    use sd_stats::Summary;

    /// Cell `t`'s pooled present history as the per-cell screen collected
    /// it: own `[t − w, t)` at weight 1, then each neighbour with a weight
    /// that is not `<= 0` up to `t.min(neighbour length)`.
    fn pooled_history(
        det: &WindowedOutlierDetector,
        series: &TimeSeries,
        neighbors: &[(&TimeSeries, f64)],
        attr: usize,
        t: usize,
    ) -> Vec<(f64, f64)> {
        let mut values: Vec<(f64, f64)> = Window::history(series, t, det.window)
            .present(attr)
            .map(|v| (v, 1.0))
            .collect();
        for &(nb, w) in neighbors {
            if w <= 0.0 {
                continue;
            }
            let upto = t.min(nb.len());
            values.extend(
                Window::history(nb, upto, det.window)
                    .present(attr)
                    .map(|v| (v, w)),
            );
        }
        values
    }

    /// The per-cell screen the column kernel replaces: collect the pooled
    /// present history, then read `mean ± k·σ` off a full [`Summary`].
    /// The oracle for [`WindowedOutlierDetector::screen_column`].
    fn oracle_is_outlier(
        det: &WindowedOutlierDetector,
        series: &TimeSeries,
        neighbors: &[&TimeSeries],
        attr: usize,
        t: usize,
    ) -> bool {
        let x = series.get(attr, t);
        if x.is_nan() {
            return false;
        }
        let unit: Vec<(&TimeSeries, f64)> = neighbors.iter().map(|&nb| (nb, 1.0)).collect();
        let values: Vec<f64> = pooled_history(det, series, &unit, attr, t)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        if values.len() < det.min_history {
            return false;
        }
        let s = Summary::from_slice(&values);
        let (lo, hi) = s.sigma_limits(det.k);
        x < lo || x > hi
    }

    /// The weighted per-cell screen (weighted mean, reliability-weights
    /// variance, Kish effective sample size), summed with `Iterator::sum`.
    fn oracle_is_outlier_weighted(
        det: &WindowedOutlierDetector,
        series: &TimeSeries,
        neighbors: &[(&TimeSeries, f64)],
        attr: usize,
        t: usize,
    ) -> bool {
        let x = series.get(attr, t);
        if x.is_nan() {
            return false;
        }
        let values = pooled_history(det, series, neighbors, attr, t);
        let v1: f64 = values.iter().map(|&(_, w)| w).sum();
        let v2: f64 = values.iter().map(|&(_, w)| w * w).sum();
        if v2 <= 0.0 || (v1 * v1) / v2 < det.min_history as f64 {
            return false;
        }
        let mean = values.iter().map(|&(v, w)| v * w).sum::<f64>() / v1;
        let denom = v1 - v2 / v1;
        if denom <= 0.0 {
            return false;
        }
        let var = values
            .iter()
            .map(|&(v, w)| w * (v - mean) * (v - mean))
            .sum::<f64>()
            / denom;
        let spread = det.k * var.sqrt();
        x < mean - spread || x > mean + spread
    }

    /// A KPI cell: mostly ordinary, sometimes missing, infinite, ±1e300 or
    /// a shared constant.
    fn cell() -> impl Strategy<Value = f64> {
        (0u32..24, -50.0f64..50.0).prop_map(|(kind, v)| match kind {
            0..=2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => 1e300,
            6 => -1e300,
            7..=9 => 7.0,
            _ => v,
        })
    }

    /// A column of `len` cells in `lens`, with one constant run laid over it.
    fn column(lens: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
        (
            prop::collection::vec(cell(), lens),
            0usize..40,
            0usize..12,
            -5.0f64..5.0,
        )
            .prop_map(|(mut col, at, run, level)| {
                let len = col.len();
                col[at.min(len)..(at + run).min(len)].fill(level);
                col
            })
    }

    /// A neighbour weight: non-positive, tiny, exactly 1, or ordinary.
    fn weight() -> impl Strategy<Value = f64> {
        (0u32..6, 0.0f64..2.0).prop_map(|(kind, w)| match kind {
            0 => -1.0,
            1 => 0.0,
            2 => 1e-9,
            3 => 1.0,
            _ => w,
        })
    }

    fn series(col: &[f64]) -> TimeSeries {
        TimeSeries::from_columns(NodeId::new(0, 0, 0), vec![col.to_vec()])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The column screen agrees with the per-cell oracle bool for bool,
        /// over the whole column (so every cell with history cut off at the
        /// stream origin) and over a sub-range, unweighted and weighted,
        /// with neighbours shorter and longer than the own segment.
        #[test]
        fn column_screen_matches_per_cell_oracle(
            own in column(1..40),
            nbs in prop::collection::vec((column(0..40), weight()), 0..4),
            (window, min_history, k) in (0usize..14, (0usize..3).prop_map(|i| [0, 1, 5][i]), 0.5f64..4.0),
            (from, to) in (0usize..40, 0usize..40),
        ) {
            let det = WindowedOutlierDetector { window, k, min_history };
            let own_series = series(&own);
            let nb_series: Vec<TimeSeries> = nbs.iter().map(|(c, _)| series(c)).collect();
            let plain: Vec<&TimeSeries> = nb_series.iter().collect();
            let unit: Vec<(&TimeSeries, f64)> = nb_series.iter().map(|s| (s, 1.0)).collect();
            let weighted: Vec<(&TimeSeries, f64)> =
                nb_series.iter().zip(&nbs).map(|(s, &(_, w))| (s, w)).collect();
            let plain_cols: Vec<&[f64]> = nbs.iter().map(|(c, _)| c.as_slice()).collect();
            let weighted_cols: Vec<(&[f64], f64)> =
                nbs.iter().map(|(c, w)| (c.as_slice(), *w)).collect();
            let len = own.len();
            let lo = from.min(len);
            let hi = to.clamp(lo, len);
            let mut buffers = ColumnScreen::default();
            for cells in [0..len, lo..hi] {
                let got = det
                    .screen_column(&own, PooledHistory::Unweighted(&plain_cols), cells.clone(), &mut buffers)
                    .to_vec();
                prop_assert_eq!(got.len(), cells.len());
                for (c, t) in cells.clone().enumerate() {
                    prop_assert_eq!(got[c], oracle_is_outlier(&det, &own_series, &plain, 0, t), "t={}", t);
                    // The moments behind the verdict match bit for bit too.
                    let values: Vec<f64> = pooled_history(&det, &own_series, &unit, 0, t)
                        .into_iter()
                        .map(|(v, _)| v)
                        .collect();
                    let s = Summary::from_slice(&values);
                    let m = buffers.moments[c];
                    prop_assert_eq!(m.n, s.n);
                    if s.n > 0 {
                        prop_assert_eq!(m.mean.to_bits(), s.mean.to_bits(), "mean t={}", t);
                        prop_assert_eq!(m.variance().to_bits(), s.variance.to_bits(), "variance t={}", t);
                    }
                }
                let got = det
                    .screen_column(&own, PooledHistory::Weighted(&weighted_cols), cells.clone(), &mut buffers)
                    .to_vec();
                for (c, t) in cells.clone().enumerate() {
                    prop_assert_eq!(
                        got[c],
                        oracle_is_outlier_weighted(&det, &own_series, &weighted, 0, t),
                        "weighted t={}",
                        t
                    );
                    let values = pooled_history(&det, &own_series, &weighted, 0, t);
                    let sums = buffers.sums[c];
                    let v1: f64 = values.iter().map(|&(_, w)| w).sum();
                    let v2: f64 = values.iter().map(|&(_, w)| w * w).sum();
                    let sv: f64 = values.iter().map(|&(v, w)| v * w).sum();
                    prop_assert_eq!(sums.v1.to_bits(), v1.to_bits(), "V1 t={}", t);
                    prop_assert_eq!(sums.v2.to_bits(), v2.to_bits(), "V2 t={}", t);
                    prop_assert_eq!(sums.sv.to_bits(), sv.to_bits(), "sum vw t={}", t);
                }
            }
            for t in 0..len {
                prop_assert_eq!(
                    det.is_outlier(&own_series, &plain, 0, t),
                    oracle_is_outlier(&det, &own_series, &plain, 0, t)
                );
                prop_assert_eq!(
                    det.is_outlier_weighted(&own_series, &weighted, 0, t),
                    oracle_is_outlier_weighted(&det, &own_series, &weighted, 0, t)
                );
            }
        }
    }

    /// [`GlitchDetector::count_records`] as it was before the byte-OR
    /// counter: one [`GlitchDetector::scan`] into a `Vec<bool>`.
    fn oracle_count_records(
        det: &GlitchDetector,
        series: &TimeSeries,
        glitch: GlitchType,
    ) -> usize {
        let mut flagged = vec![false; series.len()];
        det.scan(series, glitch, |t, _| flagged[t] = true);
        flagged.iter().filter(|&&f| f).count()
    }

    /// A three-attribute series of length 0..30 whose columns are each all
    /// missing, constant, or mixed [`cell`]s with ±0.0 laid over some.
    fn record_series() -> impl Strategy<Value = TimeSeries> {
        (
            0usize..30,
            prop::collection::vec((0u32..5, -5.0f64..5.0), 3..4),
            prop::collection::vec((cell(), 0u32..8), 90..91),
        )
            .prop_map(|(len, modes, cells)| {
                let columns = modes
                    .iter()
                    .enumerate()
                    .map(|(a, &(mode, level))| match mode {
                        0 => vec![f64::NAN; len],
                        1 => vec![level; len],
                        _ => cells[a * 30..a * 30 + len]
                            .iter()
                            .map(|&(x, z)| match z {
                                0 => 0.0,
                                1 => -0.0,
                                _ => x,
                            })
                            .collect(),
                    })
                    .collect();
                TimeSeries::from_columns(NodeId::new(0, 0, 0), columns)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte-OR record counter agrees with the scan-based oracle for
        /// every glitch type, with and without fitted outlier limits (fitted
        /// on series that may themselves hold all-missing or constant
        /// columns, so limits can be infinite or collapse to a point).
        #[test]
        fn record_counter_matches_scan_oracle(
            series in record_series(),
            ideal in prop::collection::vec(record_series(), 0..3),
            (rule_mask, log_mask, with_outliers) in (0u32..16, 0u32..8, 0u32..2),
            k in 0.5f64..4.0,
        ) {
            let rules = [
                Constraint::NonNegative { attr: 0 },
                Constraint::Range { attr: 1, lo: 0.0, hi: 1.0 },
                Constraint::NotPopulatedIf { attr: 0, other: 2 },
                Constraint::GreaterThan { attr: 2, other: 0 },
            ];
            let constraints = ConstraintSet::new(
                (0..4).filter(|i| rule_mask >> i & 1 == 1).map(|i| rules[i].clone()).collect(),
            );
            let transforms: Vec<AttributeTransform> = (0..3)
                .map(|a| if log_mask >> a & 1 == 1 { AttributeTransform::log() } else { AttributeTransform::Identity })
                .collect();
            let outliers = (with_outliers == 1)
                .then(|| OutlierDetector::fit_series(&ideal, &transforms, k));
            let det = GlitchDetector::new(constraints, outliers);
            for g in GlitchType::ALL {
                prop_assert_eq!(
                    det.count_records(&series, g),
                    oracle_count_records(&det, &series, g),
                    "{} records, len {}", g, series.len()
                );
            }
        }
    }

    #[test]
    fn single_history_value_has_zero_spread() {
        let s = series(&[10.0, 10.0, 10.5]);
        let w = WindowedOutlierDetector {
            window: 1,
            k: 3.0,
            min_history: 1,
        };
        assert!(!w.is_outlier(&s, &[], 0, 1), "equal to its one-value mean");
        assert!(
            w.is_outlier(&s, &[], 0, 2),
            "any deviation leaves a zero band"
        );
        let empty = WindowedOutlierDetector {
            window: 0,
            k: 3.0,
            min_history: 0,
        };
        assert!(!empty.is_outlier(&s, &[], 0, 2), "no history never flags");
    }

    fn ideal_dataset() -> Dataset {
        // Attribute 0 ~ N(100, ~5): values 90..110.
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 21);
        for t in 0..21 {
            s.set(0, t, 90.0 + t as f64);
        }
        Dataset::new(vec!["a"], vec![s]).unwrap()
    }

    #[test]
    fn outlier_limits_flag_extremes_only() {
        let ds = ideal_dataset();
        let od = OutlierDetector::fit(&ds, &[AttributeTransform::Identity], 3.0);
        assert!(!od.is_outlier(0, 100.0));
        assert!(od.is_outlier(0, 1000.0));
        assert!(od.is_outlier(0, -1000.0));
        assert!(!od.is_outlier(0, f64::NAN), "missing is never an outlier");
        let (lo, hi) = od.limits()[0];
        assert!(lo < 90.0 && hi > 110.0);
        assert_eq!(od.k(), 3.0);
    }

    #[test]
    fn log_transform_moves_the_flagged_tail() {
        // Heavily right-skewed raw values (log-space spread 3..9): the raw
        // σ is huge, so small positives sit inside the raw 3-σ band, while
        // in log space they fall far below the lower limit.
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 50);
        for t in 0..50 {
            s.set(0, t, (3.0 + 0.12 * t as f64).exp());
        }
        let ds = Dataset::new(vec!["a"], vec![s]).unwrap();
        let raw = OutlierDetector::fit(&ds, &[AttributeTransform::Identity], 3.0);
        let log = OutlierDetector::fit(&ds, &[AttributeTransform::log()], 3.0);
        // A tiny positive dropout value: extreme in log space, maybe not raw.
        let dropout = 0.001;
        assert!(log.is_outlier(0, dropout));
        assert!(!raw.is_outlier(0, dropout));
    }

    #[test]
    fn p_values_decrease_with_distance() {
        let ds = ideal_dataset();
        let od = OutlierDetector::fit(&ds, &[AttributeTransform::Identity], 3.0);
        let p_center = od.p_value(0, 100.0).unwrap();
        let p_far = od.p_value(0, 200.0).unwrap();
        assert!(p_center > 0.5);
        assert!(p_far < 0.01);
        assert!(p_far < p_center);
        assert_eq!(od.p_value(0, f64::NAN), None);
    }

    #[test]
    fn standard_normal_cdf_reference_points() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn detector_combines_all_three_types() {
        let ds = ideal_dataset();
        let od = OutlierDetector::fit(&ds, &[AttributeTransform::Identity], 3.0);
        let det = GlitchDetector::new(
            ConstraintSet::new(vec![Constraint::NonNegative { attr: 0 }]),
            Some(od),
        );
        let mut s = TimeSeries::new(NodeId::new(0, 0, 1), 1, 4);
        s.set(0, 0, 100.0); // clean
        s.set(0, 1, -50.0); // inconsistent
        s.set(0, 2, 10_000.0); // outlier
                               // t=3 missing
        let g = det.detect_series(&s);
        assert!(!g.record_has_any(0));
        assert!(g.get(0, GlitchType::Inconsistent, 1));
        assert!(g.get(0, GlitchType::Outlier, 2));
        assert!(g.get(0, GlitchType::Missing, 3));
    }

    #[test]
    fn windowed_detector_uses_history() {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 12);
        for t in 0..11 {
            s.set(0, t, 10.0 + (t % 3) as f64); // stable around 10-12
        }
        s.set(0, 11, 500.0); // spike
        let w = WindowedOutlierDetector::new(10, 3.0);
        assert!(w.is_outlier(&s, &[], 0, 11));
        assert!(!w.is_outlier(&s, &[], 0, 10));
        // Not enough history at the start.
        assert!(!w.is_outlier(&s, &[], 0, 1));
    }

    #[test]
    fn windowed_detector_pools_neighbor_history() {
        // Own history too short, neighbours supply the context.
        let mut own = TimeSeries::new(NodeId::new(0, 0, 0), 1, 3);
        own.set(0, 0, 10.0);
        own.set(0, 1, 11.0);
        own.set(0, 2, 900.0); // spike at t=2 with 2 own history points
        let mut nb1 = TimeSeries::new(NodeId::new(0, 0, 1), 1, 3);
        let mut nb2 = TimeSeries::new(NodeId::new(0, 0, 2), 1, 3);
        for t in 0..3 {
            nb1.set(0, t, 10.5);
            nb2.set(0, t, 9.5 + t as f64 * 0.5);
        }
        let w = WindowedOutlierDetector::new(10, 3.0);
        assert!(!w.is_outlier(&own, &[], 0, 2), "insufficient history alone");
        assert!(
            w.is_outlier(&own, &[&nb1, &nb2], 0, 2),
            "neighbours provide context"
        );
    }

    #[test]
    fn weighted_pooling_matches_unweighted_at_unit_weights() {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 12);
        for t in 0..11 {
            s.set(0, t, 10.0 + (t % 3) as f64);
        }
        s.set(0, 11, 500.0);
        let mut nb = TimeSeries::new(NodeId::new(0, 0, 1), 1, 12);
        for t in 0..12 {
            nb.set(0, t, 10.5);
        }
        let w = WindowedOutlierDetector::new(10, 3.0);
        for t in [1, 10, 11] {
            assert_eq!(
                w.is_outlier(&s, &[&nb], 0, t),
                w.is_outlier_weighted(&s, &[(&nb, 1.0)], 0, t),
                "t={t}"
            );
        }
    }

    #[test]
    fn faint_weights_do_not_satisfy_min_history() {
        // Two own points + many neighbour points at weight 0.01: the Kish
        // effective sample size stays ≈ 2, under the min-history guard.
        let mut own = TimeSeries::new(NodeId::new(0, 0, 0), 1, 3);
        own.set(0, 0, 10.0);
        own.set(0, 1, 11.0);
        own.set(0, 2, 900.0);
        let mut nb = TimeSeries::new(NodeId::new(0, 0, 1), 1, 3);
        for t in 0..3 {
            nb.set(0, t, 10.5);
        }
        let w = WindowedOutlierDetector::new(10, 3.0);
        assert!(!w.is_outlier_weighted(&own, &[(&nb, 0.01)], 0, 2));
        assert!(
            w.is_outlier_weighted(&own, &[(&nb, 1.0), (&nb, 1.0)], 0, 2),
            "full-weight neighbours provide the evidence"
        );
        assert!(
            !w.is_outlier_weighted(&own, &[(&nb, -1.0), (&nb, 0.0)], 0, 2),
            "non-positive weights are skipped"
        );
    }

    #[test]
    fn empty_ideal_attribute_disables_flagging() {
        let s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 3); // all missing
        let ds = Dataset::new(vec!["a"], vec![s]).unwrap();
        let od = OutlierDetector::fit(&ds, &[AttributeTransform::Identity], 3.0);
        assert!(!od.is_outlier(0, 1e12));
        assert_eq!(od.p_value(0, 5.0), Some(1.0));
    }
}
