use crate::kernel::{
    grid_bins, CvmKernel, DistortionKernel, EmdKernel, EnergyKernel, KlKernel, KsKernel,
    MahalanobisKernel,
};
use crate::{FrameworkError, Result};
use sd_data::Dataset;
use sd_stats::AttributeTransform;

/// The distance `d(D, D_C)` behind Definition 1.
///
/// The paper names "the Earth Mover's, Kullback-Liebler or Mahalanobis
/// distances" as candidates and uses EMD throughout its experiments. Each
/// variant is a lightweight descriptor; [`DistortionMetric::kernel`] builds
/// the corresponding [`DistortionKernel`], which owns both the materialized
/// reference path and the engine's incremental `score_patch` path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistortionMetric {
    /// Earth Mover's Distance between grid-quantized tuple clouds (the
    /// paper's choice, §3.5), each axis divided by its grid range.
    ///
    /// Every score is an exact transportation-simplex solve over the
    /// cells where the two histograms differ. One solve's residual-cell
    /// product (cells the dirty cloud holds more mass in × cells it holds
    /// less in) is capped at
    /// 150 000, which bounds its memory; a score past the cap fails with
    /// [`FrameworkError::Distortion`] naming the product, and fewer `bins`
    /// bring it back under the cap.
    Emd {
        /// Bins per attribute axis.
        bins: usize,
    },
    /// KL divergence `KL(dirty ‖ cleaned)` over the shared grid, with
    /// epsilon smoothing for empty cells ([`crate::KL_EPSILON`]).
    KlDivergence {
        /// Bins per attribute axis.
        bins: usize,
    },
    /// Mahalanobis distance between the mean tuples, under the dirty
    /// data's covariance.
    Mahalanobis,
    /// Worst-axis two-sample Kolmogorov–Smirnov statistic over the
    /// per-attribute marginals.
    KolmogorovSmirnov,
    /// Worst-axis two-sample Cramér–von Mises statistic over the
    /// per-attribute marginals.
    CramerVonMises,
    /// Energy distance between the grid-quantized tuple clouds (the same
    /// robust grid and normalized axis scaling as EMD).
    Energy {
        /// Bins per attribute axis.
        bins: usize,
    },
}

impl DistortionMetric {
    /// The paper's default: EMD over a 6-per-axis grid with normalized
    /// axis scaling.
    ///
    /// Six bins per axis keeps every residual-cell product under the
    /// exact-solve cap for up to three attributes (≤ 216² = 46 656 pairs
    /// against the cap of 150 000), so no replication score fails on it.
    pub fn paper_default() -> Self {
        DistortionMetric::Emd { bins: 6 }
    }

    /// Every implemented kernel at its default resolution, EMD (the
    /// paper's metric) first — the metric set behind the multi-metric
    /// ablations.
    pub fn full_suite() -> Vec<DistortionMetric> {
        vec![
            DistortionMetric::paper_default(),
            DistortionMetric::KlDivergence { bins: 6 },
            DistortionMetric::Mahalanobis,
            DistortionMetric::KolmogorovSmirnov,
            DistortionMetric::CramerVonMises,
            DistortionMetric::Energy { bins: 6 },
        ]
    }

    /// The machine-readable kernel name recorded in results and JSON
    /// artifacts.
    pub fn name(&self) -> &'static str {
        self.kernel().name()
    }

    /// Rejects a metric list no experiment can score with: an empty list,
    /// or a grid metric (EMD, KL, energy) with zero bins per axis. Every
    /// experiment entry point runs this check before any work starts.
    pub fn check_list(metrics: &[DistortionMetric]) -> Result<()> {
        if metrics.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "at least one distortion metric is required".into(),
            ));
        }
        for metric in metrics {
            if let DistortionMetric::Emd { bins }
            | DistortionMetric::KlDivergence { bins }
            | DistortionMetric::Energy { bins } = metric
            {
                grid_bins(metric.name(), *bins)?;
            }
        }
        Ok(())
    }

    /// Builds the [`DistortionKernel`] this descriptor denotes.
    pub fn kernel(&self) -> Box<dyn DistortionKernel> {
        match *self {
            DistortionMetric::Emd { bins } => Box::new(EmdKernel { bins }),
            DistortionMetric::KlDivergence { bins } => Box::new(KlKernel { bins }),
            DistortionMetric::Mahalanobis => Box::new(MahalanobisKernel),
            DistortionMetric::KolmogorovSmirnov => Box::new(KsKernel),
            DistortionMetric::CramerVonMises => Box::new(CvmKernel),
            DistortionMetric::Energy { bins } => Box::new(EnergyKernel { bins }),
        }
    }
}

/// Pools a dataset into working-space rows: every record of every series,
/// each attribute pushed through its transform. Records keep NaN for
/// missing cells (downstream consumers decide how to treat them).
///
/// Errors with [`FrameworkError::InvalidConfig`] unless there is exactly
/// one transform per attribute.
pub(crate) fn pooled_working_rows(
    data: &Dataset,
    transforms: &[AttributeTransform],
) -> Result<Vec<Vec<f64>>> {
    if transforms.len() != data.num_attributes() {
        return Err(FrameworkError::InvalidConfig(format!(
            "{} transforms for {} attributes: one transform per attribute is required",
            transforms.len(),
            data.num_attributes()
        )));
    }
    let mut rows = Vec::with_capacity(data.num_records());
    for series in data.series() {
        for t in 0..series.len() {
            let row: Vec<f64> = transforms
                .iter()
                .enumerate()
                .map(|(a, tf)| tf.forward(series.get(a, t)))
                .collect();
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Statistical distortion `S(C, D) = d(D, D_C)` between a dirty data set
/// and its cleaned counterpart (Definition 1).
///
/// Both data sets are pooled "treating each time instance as a separate
/// data point" (§6.1) and mapped into working space by `transforms` before
/// the distance is evaluated.
pub fn statistical_distortion(
    dirty: &Dataset,
    cleaned: &Dataset,
    transforms: &[AttributeTransform],
    metric: DistortionMetric,
) -> Result<f64> {
    let rows_d = pooled_working_rows(dirty, transforms)?;
    let rows_c = pooled_working_rows(cleaned, transforms)?;
    distortion_from_rows(&rows_d, &rows_c, metric)
}

/// Distortion between already-pooled working-space rows — the materialized
/// reference path ([`DistortionKernel::score_rows`]); the engine's
/// incremental entry point is [`crate::PreparedKernel::score_patch`].
pub(crate) fn distortion_from_rows(
    rows_d: &[Vec<f64>],
    rows_c: &[Vec<f64>],
    metric: DistortionMetric,
) -> Result<f64> {
    metric.kernel().score_rows(rows_d, rows_c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_data::{NodeId, TimeSeries};

    fn dataset(offset: f64) -> Dataset {
        let mut s = TimeSeries::new(NodeId::new(0, 0, 0), 2, 64);
        for t in 0..64 {
            let x = (t as f64 * 0.7).sin() * 3.0 + 10.0 + offset;
            s.set(0, t, x);
            s.set(1, t, 0.5 * x + 1.0);
        }
        Dataset::new(vec!["a", "b"], vec![s]).unwrap()
    }

    const ID: [AttributeTransform; 2] =
        [AttributeTransform::Identity, AttributeTransform::Identity];

    /// One infinite KPI cell makes the KL kernel's min–max cover infinite:
    /// a structured distortion error on the rows path and on the engine's
    /// patched path, never a panic.
    #[test]
    fn kl_over_an_infinite_cell_is_a_distortion_error() {
        let mut dirty = sd_netsim::generate(&sd_netsim::NetsimConfig::small(5)).dataset;
        dirty.series_mut()[3].set(1, 7, f64::INFINITY);
        let mut cleaned = dirty.clone();
        cleaned.series_mut()[0].set(0, 0, 1.0);
        let transforms = vec![AttributeTransform::Identity; dirty.num_attributes()];
        let kl = DistortionMetric::KlDivergence { bins: 6 };
        let rows =
            std::panic::catch_unwind(|| statistical_distortion(&dirty, &cleaned, &transforms, kl));
        assert!(
            matches!(&rows, Ok(Err(FrameworkError::Distortion(m))) if m.contains("not finite")),
            "{rows:?}"
        );
        let working = pooled_working_rows(&dirty, &transforms).unwrap();
        let cache = sd_emd::SignatureCache::new(working);
        let patched =
            sd_emd::PatchedCloud::new(&cache, vec![(0, vec![1.0; dirty.num_attributes()])]);
        let patch = std::panic::catch_unwind(|| kl.kernel().prepare(&cache).score_patch(&patched));
        assert!(
            matches!(&patch, Ok(Err(FrameworkError::Distortion(m))) if m.contains("not finite")),
            "{patch:?}"
        );
        // The robust EMD cover keeps the infinite cell in an edge bin.
        let emd = statistical_distortion(
            &dirty,
            &cleaned,
            &transforms,
            DistortionMetric::paper_default(),
        );
        assert!(emd.is_ok_and(f64::is_finite));
    }

    #[test]
    fn identical_datasets_have_near_zero_distortion() {
        let d = dataset(0.0);
        for metric in DistortionMetric::full_suite() {
            let s = statistical_distortion(&d, &d, &ID, metric).unwrap();
            assert!(s.abs() < 1e-6, "{metric:?} gave {s}");
        }
    }

    #[test]
    fn shifted_dataset_has_positive_distortion() {
        let d = dataset(0.0);
        let c = dataset(5.0);
        for metric in DistortionMetric::full_suite() {
            let s = statistical_distortion(&d, &c, &ID, metric).unwrap();
            assert!(s > 0.01, "{metric:?} gave {s}");
        }
    }

    #[test]
    fn metric_names_are_stable() {
        let names: Vec<&'static str> = DistortionMetric::full_suite()
            .iter()
            .map(DistortionMetric::name)
            .collect();
        assert_eq!(names, ["emd", "kl", "mahalanobis", "ks", "cvm", "energy"]);
    }

    #[test]
    fn distortion_grows_with_shift_under_emd() {
        let d = dataset(0.0);
        let near =
            statistical_distortion(&d, &dataset(1.0), &ID, DistortionMetric::Emd { bins: 16 })
                .unwrap();
        let far =
            statistical_distortion(&d, &dataset(8.0), &ID, DistortionMetric::Emd { bins: 16 })
                .unwrap();
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn transforms_change_the_working_space() {
        let d = dataset(0.0);
        let c = dataset(3.0);
        let raw = statistical_distortion(&d, &c, &ID, DistortionMetric::Emd { bins: 8 }).unwrap();
        let logt = statistical_distortion(
            &d,
            &c,
            &[AttributeTransform::log(), AttributeTransform::Identity],
            DistortionMetric::Emd { bins: 8 },
        )
        .unwrap();
        // Log compresses the shift more than the spread it is measured
        // against, so the normalized distance shrinks.
        assert!(logt < raw, "log {logt} vs raw {raw}");
    }

    #[test]
    fn missing_cells_are_tolerated() {
        let d = dataset(0.0);
        let mut c = dataset(0.0);
        c.series_mut()[0].set_missing(0, 5);
        c.series_mut()[0].set_missing(1, 9);
        for metric in DistortionMetric::full_suite() {
            let s = statistical_distortion(&d, &c, &ID, metric).unwrap();
            assert!(s.is_finite() && s >= 0.0, "{metric:?} gave {s}");
        }
    }

    #[test]
    fn emd_distortion_is_symmetric() {
        let d = dataset(0.0);
        let c = dataset(2.5);
        let m = DistortionMetric::paper_default();
        let ab = statistical_distortion(&d, &c, &ID, m).unwrap();
        let ba = statistical_distortion(&c, &d, &ID, m).unwrap();
        assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn grid_metrics_with_zero_bins_are_invalid_configs_on_every_entry_point() {
        let (d, c) = (dataset(0.0), dataset(2.0));
        let rows = pooled_working_rows(&d, &ID).unwrap();
        let cache = sd_emd::SignatureCache::new(rows.clone());
        let patched = sd_emd::PatchedCloud::new(&cache, vec![(3, vec![1.0, 2.0])]);
        for metric in [
            DistortionMetric::Emd { bins: 0 },
            DistortionMetric::KlDivergence { bins: 0 },
            DistortionMetric::Energy { bins: 0 },
        ] {
            let kernel = metric.kernel();
            for (path, result) in [
                (
                    "statistical_distortion",
                    statistical_distortion(&d, &c, &ID, metric),
                ),
                ("score_rows", kernel.score_rows(&rows, &rows)),
                ("score_patch", kernel.prepare(&cache).score_patch(&patched)),
            ] {
                assert!(
                    matches!(result, Err(FrameworkError::InvalidConfig(_))),
                    "{metric:?} via {path}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn a_wrong_transform_count_is_an_invalid_config() {
        let d = dataset(0.0);
        for transforms in [&ID[..1], &[AttributeTransform::Identity; 3][..]] {
            let result =
                statistical_distortion(&d, &d, transforms, DistortionMetric::paper_default());
            assert!(
                matches!(result, Err(FrameworkError::InvalidConfig(_))),
                "{} transforms: {result:?}",
                transforms.len()
            );
        }
    }

    #[test]
    fn pooled_rows_shape() {
        let d = dataset(0.0);
        let rows = pooled_working_rows(&d, &ID).unwrap();
        assert_eq!(rows.len(), 64);
        assert_eq!(rows[0].len(), 2);
    }
}
