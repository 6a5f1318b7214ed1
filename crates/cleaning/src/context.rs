use sd_data::Dataset;
use sd_glitch::OutlierDetector;
use sd_stats::AttributeTransform;

/// Per-replication cleaning context: everything the primitives calibrate
/// on the **ideal sample** `D^i_I` (§2.1.2).
///
/// The paper computes winsorization limits and replacement means from the
/// ideal data of the *same replication*, which is what gives Figure 4 its
/// horizontal banding — the 3-σ limits vary between experimental runs with
/// the ideal sample.
#[derive(Debug, Clone)]
pub struct CleaningContext {
    transforms: Vec<AttributeTransform>,
    /// Per-attribute `(lo, hi)` winsorization limits in working space.
    limits: Vec<(f64, f64)>,
    /// Per-attribute ideal means in working space.
    ideal_means: Vec<f64>,
}

impl CleaningContext {
    /// Calibrates a context from an ideal sample: `k`-σ limits and means of
    /// every attribute, in the working space of the matching transform.
    /// Fits the [`OutlierDetector`] and reads both from it
    /// ([`CleaningContext::from_detector`]), so there is one calibration
    /// path. An attribute with no present ideal value gets infinite limits
    /// and mean 0.
    ///
    /// # Panics
    ///
    /// If `k` is not positive or `transforms` does not hold one transform
    /// per attribute of `ideal` (see [`OutlierDetector::fit`]).
    pub fn fit(ideal: &Dataset, transforms: &[AttributeTransform], k: f64) -> Self {
        CleaningContext::from_detector(
            ideal,
            transforms,
            &OutlierDetector::fit(ideal, transforms, k),
        )
    }

    /// Builds a context that shares its limits with a fitted outlier
    /// detector (guaranteeing detector and winsorizer agree on what is
    /// acceptable) and takes the ideal means from the detector's fitted
    /// moments.
    ///
    /// Contract: `detector` was fitted on `ideal` with `transforms`
    /// ([`OutlierDetector::fit`] or [`OutlierDetector::fit_series`] over
    /// its series). The detector's Welford pass repeats
    /// `Summary::from_slice`'s mean update term for term over the same
    /// pooled, transformed values, so these means are the bits a second
    /// pass over `ideal` would compute, and `ideal` itself is not read
    /// again.
    pub fn from_detector(
        ideal: &Dataset,
        transforms: &[AttributeTransform],
        detector: &OutlierDetector,
    ) -> Self {
        debug_assert_eq!(
            detector.limits().len(),
            ideal.num_attributes(),
            "detector fitted on another data set"
        );
        CleaningContext {
            transforms: transforms.to_vec(),
            limits: detector.limits().to_vec(),
            ideal_means: detector.moments().iter().map(|&(mean, _)| mean).collect(),
        }
    }

    /// Number of attributes.
    pub fn num_attributes(&self) -> usize {
        self.transforms.len()
    }

    /// Per-attribute transforms.
    pub fn transforms(&self) -> &[AttributeTransform] {
        &self.transforms
    }

    /// Per-attribute winsorization limits in working space.
    pub fn limits(&self) -> &[(f64, f64)] {
        &self.limits
    }

    /// Per-attribute ideal means in working space.
    pub fn ideal_means(&self) -> &[f64] {
        &self.ideal_means
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sd_data::{NodeId, TimeSeries};
    use sd_stats::Summary;

    /// `CleaningContext::fit` as it was before it read the detector: a
    /// `Summary` per pooled, transformed attribute.
    fn oracle_fit(ideal: &Dataset, transforms: &[AttributeTransform], k: f64) -> CleaningContext {
        let mut limits = Vec::with_capacity(transforms.len());
        let mut ideal_means = Vec::with_capacity(transforms.len());
        for (attr, tf) in transforms.iter().enumerate() {
            let mut values = ideal.pooled_attribute(attr);
            tf.forward_slice(&mut values);
            let s = Summary::from_slice(&values);
            if s.is_empty() {
                limits.push((f64::NEG_INFINITY, f64::INFINITY));
                ideal_means.push(0.0);
            } else {
                limits.push(s.sigma_limits(k));
                ideal_means.push(s.mean);
            }
        }
        CleaningContext {
            transforms: transforms.to_vec(),
            limits,
            ideal_means,
        }
    }

    fn context_bits(ctx: &CleaningContext) -> Vec<u64> {
        ctx.limits()
            .iter()
            .flat_map(|&(lo, hi)| [lo.to_bits(), hi.to_bits()])
            .chain(ctx.ideal_means().iter().map(|m| m.to_bits()))
            .collect()
    }

    /// An ideal sample of 1..4 series × 3 attributes × 0..20 steps; each
    /// attribute is all missing, constant, or mixed values (negative, zero,
    /// ±inf and missing among them, so the log floor is exercised).
    fn ideal_sample() -> impl Strategy<Value = Dataset> {
        (
            prop::collection::vec(0usize..20, 1..4),
            prop::collection::vec((0u32..5, -3.0f64..3.0), 3..4),
            prop::collection::vec((0u32..20, -50.0f64..500.0), 240..241),
        )
            .prop_map(|(lens, modes, cells)| {
                let mut next = cells.into_iter().cycle();
                let series = lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| {
                        let columns = modes
                            .iter()
                            .map(|&(mode, level)| {
                                (0..len)
                                    .map(|_| {
                                        let (kind, v) = next.next().unwrap_or((0, 0.0));
                                        match (mode, kind) {
                                            (0, _) => f64::NAN,
                                            (1, _) => level,
                                            (_, 0..=2) => f64::NAN,
                                            (_, 3) => 0.0,
                                            (_, 4) => -0.0,
                                            (_, 5) if v > 400.0 => f64::INFINITY,
                                            _ => v,
                                        }
                                    })
                                    .collect()
                            })
                            .collect();
                        TimeSeries::from_columns(NodeId::new(0, 0, i as u32), columns)
                    })
                    .collect();
                Dataset::new(vec!["a", "b", "c"], series).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Limits and means read from the detector's moments keep the bits
        /// of the `Summary`-based calibration, under identity and log
        /// transforms, including all-missing attributes (infinite limits,
        /// mean 0).
        #[test]
        fn detector_moments_match_the_summary_oracle(
            ideal in ideal_sample(),
            log_mask in 0u32..8,
            k in 0.5f64..4.0,
        ) {
            let transforms: Vec<AttributeTransform> = (0..3)
                .map(|a| if log_mask >> a & 1 == 1 { AttributeTransform::log() } else { AttributeTransform::Identity })
                .collect();
            let oracle = oracle_fit(&ideal, &transforms, k);
            let fitted = CleaningContext::fit(&ideal, &transforms, k);
            prop_assert_eq!(context_bits(&fitted), context_bits(&oracle));
            let detector = OutlierDetector::fit(&ideal, &transforms, k);
            let shared = CleaningContext::from_detector(&ideal, &transforms, &detector);
            prop_assert_eq!(context_bits(&shared), context_bits(&oracle));
            prop_assert_eq!(shared.transforms(), transforms.as_slice());
        }
    }

    fn ideal() -> Dataset {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 2, 10);
        for t in 0..10 {
            s.set(0, t, 100.0 + t as f64);
            s.set(1, t, 0.9);
        }
        Dataset::new(vec!["load", "ratio"], vec![s]).unwrap()
    }

    #[test]
    fn fit_produces_limits_and_means() {
        let ctx = CleaningContext::fit(
            &ideal(),
            &[AttributeTransform::Identity, AttributeTransform::Identity],
            3.0,
        );
        assert_eq!(ctx.num_attributes(), 2);
        let (lo, hi) = ctx.limits()[0];
        assert!(lo < 100.0 && hi > 109.0);
        assert!((ctx.ideal_means()[0] - 104.5).abs() < 1e-12);
        assert!((ctx.ideal_means()[1] - 0.9).abs() < 1e-12);
        // Constant attribute: zero σ, limits collapse to the mean.
        let (rlo, rhi) = ctx.limits()[1];
        assert!((rlo - 0.9).abs() < 1e-12 && (rhi - 0.9).abs() < 1e-12);
    }

    #[test]
    fn log_transform_changes_working_space() {
        let raw = CleaningContext::fit(
            &ideal(),
            &[AttributeTransform::Identity, AttributeTransform::Identity],
            3.0,
        );
        let log = CleaningContext::fit(
            &ideal(),
            &[AttributeTransform::log(), AttributeTransform::Identity],
            3.0,
        );
        assert!((log.ideal_means()[0] - raw.ideal_means()[0].ln()).abs() < 0.01);
    }

    #[test]
    fn from_detector_shares_limits() {
        let ds = ideal();
        let tf = [AttributeTransform::Identity, AttributeTransform::Identity];
        let det = OutlierDetector::fit(&ds, &tf, 3.0);
        let ctx = CleaningContext::from_detector(&ds, &tf, &det);
        assert_eq!(ctx.limits(), det.limits());
    }

    #[test]
    fn empty_ideal_attribute_gets_open_limits() {
        let s = TimeSeries::new(NodeId::new(0, 0, 0), 1, 5); // all missing
        let ds = Dataset::new(vec!["a"], vec![s]).unwrap();
        let ctx = CleaningContext::fit(&ds, &[AttributeTransform::Identity], 3.0);
        assert_eq!(ctx.limits()[0], (f64::NEG_INFINITY, f64::INFINITY));
        assert_eq!(ctx.ideal_means()[0].to_bits(), 0.0f64.to_bits());
    }
}
