use crate::{FrameworkError, Result};
use sd_data::Dataset;
use sd_glitch::{ConstraintSet, GlitchDetector, GlitchType, OutlierDetector};
use sd_stats::AttributeTransform;

/// The split of a data set into its ideal and dirty partitions (§2.1.2).
#[derive(Debug, Clone)]
pub struct IdealPartition {
    /// Indices of series meeting the cleanliness rule.
    pub ideal_indices: Vec<usize>,
    /// Indices of the remaining (dirty) series.
    pub dirty_indices: Vec<usize>,
    /// The record-level threshold applied (fraction, e.g. 0.05).
    pub threshold: f64,
}

impl IdealPartition {
    /// Materializes the ideal partition as a dataset.
    pub fn ideal_dataset(&self, data: &Dataset) -> Dataset {
        data.subset(&self.ideal_indices)
    }

    /// Materializes the dirty partition as a dataset.
    pub fn dirty_dataset(&self, data: &Dataset) -> Dataset {
        data.subset(&self.dirty_indices)
    }
}

/// Identifies the ideal data set `D_I` from the dirty data itself: series
/// "where the time series contained less than 5 % each of missing,
/// inconsistencies and outliers" (§4.1, with `threshold` generalizing the
/// 5 %).
///
/// The rule is circular on its face — outliers are defined by limits
/// computed *from* the ideal set — so the standard two-pass resolution is
/// used:
///
/// 1. a provisional ideal is selected on missing + inconsistent rates only;
/// 2. 3-σ limits are fitted to the provisional ideal and the rule is
///    re-applied including the outlier rate.
///
/// Both passes count glitchy records with
/// [`GlitchDetector::count_records`], so no glitch matrix is built, and a
/// series that fails the missing rule is never checked for
/// inconsistencies. Pass 2 scans only the provisional series, and only
/// for outliers: a series that failed pass 1 is dirty whatever its
/// outlier rate, and a provisional series keeps the missing and
/// inconsistent rates pass 1 accepted, because neither depends on the
/// outlier limits. The limits are fitted by [`OutlierDetector::fit_series`]
/// over the borrowed provisional series, which is bit-identical to
/// fitting a copy of them (see its docs).
///
/// # Errors
///
/// [`FrameworkError::InvalidConfig`] if `threshold` is not a fraction, `k`
/// is not positive, `transforms` does not have one entry per attribute,
/// or a constraint names an attribute `data` does not have;
/// [`FrameworkError::NoIdealData`] / [`FrameworkError::NoDirtyData`] if
/// either partition comes out empty.
pub fn partition_ideal(
    data: &Dataset,
    constraints: &ConstraintSet,
    transforms: &[AttributeTransform],
    k: f64,
    threshold: f64,
) -> Result<IdealPartition> {
    if !(0.0..=1.0).contains(&threshold) {
        return Err(FrameworkError::InvalidConfig(format!(
            "ideal threshold must be a fraction, got {threshold}"
        )));
    }
    if transforms.len() != data.num_attributes() {
        return Err(FrameworkError::InvalidConfig(format!(
            "{} transforms for {} attributes",
            transforms.len(),
            data.num_attributes()
        )));
    }
    check_detection_config(constraints, data.num_attributes(), k)?;
    let below = |count: usize, len: usize| {
        let rate = if len == 0 {
            0.0
        } else {
            count as f64 / len as f64
        };
        rate < threshold
    };

    // Pass 1: missing + inconsistent only.
    let detector = GlitchDetector::new(constraints.clone(), None);
    let provisional: Vec<bool> = data
        .series()
        .iter()
        .map(|s| {
            below(detector.count_records(s, GlitchType::Missing), s.len())
                && below(detector.count_records(s, GlitchType::Inconsistent), s.len())
        })
        .collect();
    if !provisional.contains(&true) {
        return Err(FrameworkError::NoIdealData { threshold });
    }

    // Pass 2: fit outlier limits on the provisional ideal, re-apply the
    // outlier rule to the provisional series only.
    let provisional_series = data
        .series()
        .iter()
        .zip(&provisional)
        .filter_map(|(s, &kept)| kept.then_some(s));
    let outliers = OutlierDetector::fit_series(provisional_series, transforms, k);
    let full_detector = GlitchDetector::new(constraints.clone(), Some(outliers));
    let mut ideal_indices = Vec::new();
    let mut dirty_indices = Vec::new();
    for (i, (s, &kept)) in data.series().iter().zip(&provisional).enumerate() {
        if kept && below(full_detector.count_records(s, GlitchType::Outlier), s.len()) {
            ideal_indices.push(i);
        } else {
            dirty_indices.push(i);
        }
    }
    if ideal_indices.is_empty() {
        return Err(FrameworkError::NoIdealData { threshold });
    }
    if dirty_indices.is_empty() {
        return Err(FrameworkError::NoDirtyData);
    }
    Ok(IdealPartition {
        ideal_indices,
        dirty_indices,
        threshold,
    })
}

/// Rejects detector settings that would otherwise panic inside detection:
/// a σ multiplier that is not positive (zero, negative or NaN), and a
/// constraint naming an attribute beyond `num_attributes`.
pub(crate) fn check_detection_config(
    constraints: &ConstraintSet,
    num_attributes: usize,
    sigma_k: f64,
) -> Result<()> {
    if sigma_k.is_nan() || sigma_k <= 0.0 {
        return Err(FrameworkError::InvalidConfig(format!(
            "sigma multiplier must be positive, got {sigma_k}"
        )));
    }
    let required = constraints.required_attributes();
    if required > num_attributes {
        return Err(FrameworkError::InvalidConfig(format!(
            "constraints reference attribute {} but the data has {num_attributes}",
            required - 1
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_data::{NodeId, TimeSeries};
    use sd_glitch::{Constraint, GlitchMatrix};
    use sd_stats::Summary;

    /// Record-level detection as the partition used to run it: gather each
    /// record, flag its NaN cells, its `ConstraintSet::violations` and its
    /// `is_outlier` cells.
    fn detect_by_records(
        constraints: &ConstraintSet,
        outliers: Option<&OutlierDetector>,
        series: &TimeSeries,
    ) -> GlitchMatrix {
        let v = series.num_attributes();
        let mut g = GlitchMatrix::new(v, series.len());
        for t in 0..series.len() {
            let record: Vec<f64> = (0..v).map(|a| series.get(a, t)).collect();
            for (a, &x) in record.iter().enumerate() {
                if x.is_nan() {
                    g.set(a, GlitchType::Missing, t);
                }
                if outliers.is_some_and(|od| od.is_outlier(a, x)) {
                    g.set(a, GlitchType::Outlier, t);
                }
            }
            for a in constraints.violations(&record) {
                g.set(a, GlitchType::Inconsistent, t);
            }
        }
        g
    }

    /// The two-pass partition as it stood before the counting scan: full
    /// glitch matrices for every series in both passes, limits fitted on a
    /// copied provisional subset, every rate re-checked in pass 2. Also
    /// asserts that the fitted limits equal `Summary::from_slice` limits
    /// of the pooled, transformed provisional values, bit for bit.
    fn partition_oracle(
        data: &Dataset,
        constraints: &ConstraintSet,
        transforms: &[AttributeTransform],
        k: f64,
        threshold: f64,
    ) -> Result<IdealPartition> {
        let rate = |m: &GlitchMatrix, g: GlitchType| {
            if m.is_empty() {
                0.0
            } else {
                m.count_records(g) as f64 / m.len() as f64
            }
        };
        let provisional: Vec<usize> = (0..data.num_series())
            .filter(|&i| {
                let m = detect_by_records(constraints, None, data.series_at(i));
                rate(&m, GlitchType::Missing) < threshold
                    && rate(&m, GlitchType::Inconsistent) < threshold
            })
            .collect();
        if provisional.is_empty() {
            return Err(FrameworkError::NoIdealData { threshold });
        }
        let provisional_ds = data.subset(&provisional);
        let outliers = OutlierDetector::fit(&provisional_ds, transforms, k);
        for (attr, tf) in transforms.iter().enumerate() {
            let mut values = provisional_ds.pooled_attribute(attr);
            tf.forward_slice(&mut values);
            let summary = Summary::from_slice(&values);
            let (lo, hi) = if summary.is_empty() {
                (f64::NEG_INFINITY, f64::INFINITY)
            } else {
                summary.sigma_limits(k)
            };
            let (fit_lo, fit_hi) = outliers.limits()[attr];
            assert_eq!(fit_lo.to_bits(), lo.to_bits(), "lower limit, attr {attr}");
            assert_eq!(fit_hi.to_bits(), hi.to_bits(), "upper limit, attr {attr}");
        }
        let mut ideal_indices = Vec::new();
        let mut dirty_indices = Vec::new();
        for i in 0..data.num_series() {
            let m = detect_by_records(constraints, Some(&outliers), data.series_at(i));
            if GlitchType::ALL.iter().all(|&g| rate(&m, g) < threshold) {
                ideal_indices.push(i);
            } else {
                dirty_indices.push(i);
            }
        }
        if ideal_indices.is_empty() {
            return Err(FrameworkError::NoIdealData { threshold });
        }
        if dirty_indices.is_empty() {
            return Err(FrameworkError::NoDirtyData);
        }
        Ok(IdealPartition {
            ideal_indices,
            dirty_indices,
            threshold,
        })
    }

    /// Runs both partitions and asserts the same indices or the same error.
    fn assert_matches_oracle(
        case: &str,
        data: &Dataset,
        constraints: &ConstraintSet,
        transforms: &[AttributeTransform],
        threshold: f64,
    ) {
        let got = partition_ideal(data, constraints, transforms, 3.0, threshold);
        let want = partition_oracle(data, constraints, transforms, 3.0, threshold);
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(
                    g.ideal_indices, w.ideal_indices,
                    "{case}, threshold {threshold}"
                );
                assert_eq!(
                    g.dirty_indices, w.dirty_indices,
                    "{case}, threshold {threshold}"
                );
            }
            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{case}"),
            (g, w) => panic!("{case}, threshold {threshold}: got {g:?}, oracle {w:?}"),
        }
    }

    #[test]
    fn partition_matches_the_matrix_oracle_on_harness_data() {
        let paper = ConstraintSet::paper_rules(0, 2);
        let log = [
            AttributeTransform::log(),
            AttributeTransform::Identity,
            AttributeTransform::Identity,
        ];
        let identity = [AttributeTransform::Identity; 3];
        for seed in [1, 2, 3] {
            let data = sd_netsim::generate(&sd_netsim::NetsimConfig::harness_scale(seed)).dataset;
            assert_eq!(data.num_attributes(), 3);
            let case = format!("harness seed {seed}");
            for threshold in [0.02, 0.05, 0.2] {
                assert_matches_oracle(&case, &data, &paper, &log, threshold);
            }
            assert_matches_oracle(&case, &data, &paper, &identity, 0.05);
        }
    }

    /// Two attributes; `values[i]` fills series `i` on attribute 0 and
    /// `0.5` fills attribute 1, except where `values` holds NaN.
    fn two_attr(values: &[Vec<f64>]) -> Dataset {
        let series = values
            .iter()
            .enumerate()
            .map(|(i, col)| {
                let mut s = TimeSeries::new(NodeId::new(0, 0, i as u32), 2, col.len());
                for (t, &x) in col.iter().enumerate() {
                    s.set(0, t, x);
                    s.set(1, t, 0.5);
                }
                s
            })
            .collect();
        Dataset::new(vec!["a", "b"], series).unwrap()
    }

    #[test]
    fn partition_matches_the_matrix_oracle_on_edge_cases() {
        let ramp = |offset: f64| -> Vec<f64> { (0..40).map(|t| offset + t as f64).collect() };
        let mut with_gaps = ramp(10.0);
        for t in (0..40).step_by(3) {
            with_gaps[t] = f64::NAN;
        }
        let mut negative = ramp(5.0);
        negative[7] = -3.0;
        negative[8] = -4.0;
        let mut infinite = ramp(20.0);
        infinite[4] = f64::INFINITY;
        let mut neg_infinite = ramp(20.0);
        neg_infinite[9] = f64::NEG_INFINITY;
        let mut spiky = ramp(0.0);
        spiky[0] = 1e9;
        spiky[1] = 1e9;
        spiky[2] = 1e9;

        let cases: Vec<(&str, Dataset)> = vec![
            (
                "plain",
                two_attr(&[ramp(0.0), ramp(3.0), with_gaps.clone(), spiky.clone()]),
            ),
            // Zero-length series are provisional (rate 0) but contribute
            // no values: with every other series all-missing on attribute
            // 0, the fitted limits are infinite.
            (
                "all-missing attribute, zero-length series",
                two_attr(&[vec![f64::NAN; 30], vec![], vec![f64::NAN; 12], vec![]]),
            ),
            // σ = 0: the limits collapse onto the constant.
            (
                "constant series",
                two_attr(&[vec![7.0; 40], vec![7.0; 25], ramp(0.0), spiky.clone()]),
            ),
            // ±inf in the provisional pool poisons the moments (NaN limits
            // flag nothing).
            (
                "infinite values",
                two_attr(&[ramp(1.0), infinite, ramp(2.0), with_gaps.clone()]),
            ),
            (
                "negative infinity",
                two_attr(&[ramp(1.0), neg_infinite, negative.clone(), spiky]),
            ),
            (
                "negative values",
                two_attr(&[ramp(1.0), negative, ramp(4.0), with_gaps]),
            ),
        ];
        let constraints = ConstraintSet::new(vec![
            Constraint::NonNegative { attr: 0 },
            Constraint::Range {
                attr: 1,
                lo: 0.0,
                hi: 1.0,
            },
            Constraint::NotPopulatedIf { attr: 1, other: 0 },
            Constraint::GreaterThan { attr: 0, other: 1 },
        ]);
        let transform_sets = [
            [AttributeTransform::Identity, AttributeTransform::Identity],
            [AttributeTransform::log(), AttributeTransform::Identity],
        ];
        for (name, data) in &cases {
            for transforms in &transform_sets {
                for threshold in [0.0, 0.05, 0.3, 1.0] {
                    for rules in [&constraints, &ConstraintSet::default()] {
                        assert_matches_oracle(name, data, rules, transforms, threshold);
                    }
                }
            }
        }
    }

    /// Two clean series, one filthy series.
    fn mixed() -> Dataset {
        let mut clean1 = TimeSeries::new(NodeId::new(0, 0, 0), 1, 100);
        let mut clean2 = TimeSeries::new(NodeId::new(0, 0, 1), 1, 100);
        let mut filthy = TimeSeries::new(NodeId::new(0, 1, 0), 1, 100);
        for t in 0..100 {
            clean1.set(0, t, 50.0 + (t % 10) as f64);
            clean2.set(0, t, 52.0 + (t % 7) as f64);
            if t % 3 == 0 {
                // leave missing
            } else {
                filthy.set(0, t, 55.0 + (t % 9) as f64);
            }
        }
        Dataset::new(vec!["a"], vec![clean1, clean2, filthy]).unwrap()
    }

    #[test]
    fn partitions_by_missing_rate() {
        let p = partition_ideal(
            &mixed(),
            &ConstraintSet::default(),
            &[AttributeTransform::Identity],
            3.0,
            0.05,
        )
        .unwrap();
        assert_eq!(p.ideal_indices, vec![0, 1]);
        assert_eq!(p.dirty_indices, vec![2]);
        assert_eq!(p.ideal_dataset(&mixed()).num_series(), 2);
        assert_eq!(p.dirty_dataset(&mixed()).num_series(), 1);
    }

    #[test]
    fn outlier_pass_can_demote_series() {
        // A series that is complete and consistent but full of extreme
        // values relative to the provisional ideal.
        let mut spiky = TimeSeries::new(NodeId::new(0, 2, 0), 1, 100);
        for t in 0..100 {
            spiky.set(0, t, if t % 4 == 0 { 1e6 } else { 50.0 });
        }
        let mut data = mixed();
        data.push(spiky).unwrap();
        let p = partition_ideal(
            &data,
            &ConstraintSet::default(),
            &[AttributeTransform::Identity],
            3.0,
            0.05,
        )
        .unwrap();
        assert!(p.dirty_indices.contains(&3), "spiky series must be dirty");
        assert!(p.ideal_indices.contains(&0));
    }

    #[test]
    fn all_dirty_is_an_error() {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 10);
        for t in 0..10 {
            if t % 2 == 0 {
                s.set(0, t, 1.0);
            }
        }
        let data = Dataset::new(vec!["a"], vec![s]).unwrap();
        let err = partition_ideal(
            &data,
            &ConstraintSet::default(),
            &[AttributeTransform::Identity],
            3.0,
            0.05,
        )
        .unwrap_err();
        assert!(matches!(err, FrameworkError::NoIdealData { .. }));
    }

    #[test]
    fn all_clean_is_an_error() {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 10);
        for t in 0..10 {
            s.set(0, t, 5.0 + t as f64 * 0.01);
        }
        let data = Dataset::new(vec!["a"], vec![s]).unwrap();
        let err = partition_ideal(
            &data,
            &ConstraintSet::default(),
            &[AttributeTransform::Identity],
            3.0,
            0.05,
        )
        .unwrap_err();
        assert!(matches!(err, FrameworkError::NoDirtyData));
    }

    #[test]
    fn invalid_threshold_rejected() {
        let err = partition_ideal(
            &mixed(),
            &ConstraintSet::default(),
            &[AttributeTransform::Identity],
            3.0,
            5.0,
        )
        .unwrap_err();
        assert!(matches!(err, FrameworkError::InvalidConfig(_)));
        // One transform short of the data's one attribute.
        let err = partition_ideal(&mixed(), &ConstraintSet::default(), &[], 3.0, 0.05).unwrap_err();
        assert!(matches!(err, FrameworkError::InvalidConfig(_)));
    }
}
