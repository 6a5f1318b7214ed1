//! The §5.2 / Figure 7 cost–benefit study, run as a first-class engine
//! workload.
//!
//! The paper's cost axis is the fraction of data cleaned: "We ranked each
//! time series according to its aggregated and normalized glitch score,
//! and cleaned the data from the highest glitch score, until a
//! pre-determined proportion of the data was cleaned." The sweep evaluates
//! a grid of `(replication, strategy, budget fraction)` points; every
//! point of one replication shares the same test pair, detector fit,
//! dirty annotations, and dirty-side EMD state, so the sweep runs on the
//! staged engine ([`crate::engine`]) with groups = replications and
//! `S × F` budget units per group:
//!
//! * [`crate::ReplicationArtifacts`] and the dirty sample's pooled rows +
//!   signature cache are built by the first unit of the replication and
//!   shared via the engine's `Arc` group slots — the dirty side of every
//!   distortion evaluation is sorted/binned once per replication instead
//!   of once per budget point;
//! * the dirtiest-first series ranking is computed once per replication
//!   (it depends only on the dirty annotations), and each fraction's
//!   selection mask is derived from that one ranking;
//! * the MVN imputation model is fitted at most once per `(replication,
//!   fraction)` and shared across model-imputing strategies at that
//!   budget. It cannot be shared *across* fractions: the model is fitted
//!   on exactly the masked series (`PROC MI` sees only the data handed to
//!   it), so the fit is a function of the budget;
//! * cleaning runs through the cell-patch path
//!   ([`sd_cleaning::CompositeStrategy::clean_patch_filtered`], handed
//!   the precomputed per-fraction mask directly), so only touched series
//!   are cloned and re-detected.
//!
//! [`cost_sweep`] is bit-identical to [`cost_sweep_reference`] — the
//! preserved replication-granular path (full clone, in-place cleaning,
//! full re-detection, materialized distortion) kept in-tree so the
//! equivalence stays enforceable ([`tests`] and `tests/end_to_end.rs`)
//! and the speedup stays measurable (the perf bin's `cost_sweep` /
//! `cost_sweep_ref` rows). The sweep's exact EMD transports run on the
//! thread-local cold [`sd_emd::BatchTransport`] arena: allocation reuse
//! that replays the standalone pivot sequence, so the bit-identity
//! contract is unaffected.

use crate::engine::{run_staged, score_view, share_replication, SharedReplication, TaskExecutor};
use crate::{
    statistical_distortion, Experiment, ExperimentConfig, FrameworkError, MetricScore, Result,
    ThreadPoolExecutor, TransportMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_cleaning::{
    CleaningStrategy, CompositeStrategy, MissingTreatment, ModelFit, PartialCleaner,
};
use sd_data::Dataset;
use sd_glitch::{GlitchIndex, GlitchMatrix, GlitchReport};
use sd_stats::AttributeTransform;
use std::sync::OnceLock;

/// The paper's cost-axis ordering, shared by this sweep's fraction
/// prefixes and the budget optimizer's dirtiest-first baseline policy
/// ([`crate::SelectionPolicy::DirtiestFirst`]): a stable dirtiest-first
/// series ranking (normalized glitch score descending, index ascending) of
/// one replication's annotations.
pub(crate) fn dirtiest_ranking(index: &GlitchIndex, matrices: &[GlitchMatrix]) -> Vec<usize> {
    index.rank_dirtiest(matrices)
}

/// Configuration of the §5.2 / Figure 7 cost study.
#[derive(Debug, Clone)]
pub struct CostSweepConfig {
    /// The base experiment configuration.
    pub experiment: ExperimentConfig,
    /// Fractions of series to clean, e.g. `[0.0, 0.2, 0.5, 1.0]`.
    pub fractions: Vec<f64>,
    /// The strategies applied to the selected series (the paper's Figure 7
    /// uses Strategy 1 alone: winsorize + impute).
    pub strategies: Vec<CompositeStrategy>,
    /// How each point's exact EMD transports are solved; see
    /// [`TransportMode`], which has one value.
    pub transport: TransportMode,
}

impl CostSweepConfig {
    /// Checks the sweep's own settings: at least one strategy, and every
    /// fraction finite and within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::InvalidConfig`] naming the first bad setting.
    fn validate(&self) -> Result<()> {
        if self.strategies.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "cost sweep needs at least one strategy".into(),
            ));
        }
        for &f in &self.fractions {
            if !(0.0..=1.0).contains(&f) {
                return Err(FrameworkError::InvalidConfig(format!(
                    "cost sweep fractions must be finite and within [0, 1], got {f}"
                )));
            }
        }
        Ok(())
    }
}

/// One `(fraction, strategy, replication)` point of Figure 7.
#[derive(Debug, Clone)]
pub struct CostPoint {
    /// Fraction of series cleaned (the cost proxy).
    pub fraction: f64,
    /// Replication number.
    pub replication: usize,
    /// Strategy display name.
    pub strategy: String,
    /// Index of the strategy in the submitted list.
    pub strategy_index: usize,
    /// Glitch improvement.
    pub improvement: f64,
    /// Statistical distortion under the primary metric
    /// (`experiment.metrics[0]`; equal to `distortions[0].value`).
    pub distortion: f64,
    /// Per-metric distortions, in `experiment.metrics` order.
    pub distortions: Vec<MetricScore>,
    /// Number of series actually cleaned.
    pub series_cleaned: usize,
    /// Treated glitch percentages.
    pub treated_report: GlitchReport,
}

/// RNG stream of one `(replication, strategy, fraction)` unit. The
/// `strategy` term vanishes for strategy index 0, so single-strategy
/// sweeps reproduce the historical derivation bit for bit.
fn unit_seed(seed: u64, replication: usize, strategy_index: usize, fraction_index: usize) -> u64 {
    seed ^ ((replication as u64) << 24)
        ^ ((strategy_index as u64) << 44)
        ^ ((fraction_index as u64) << 52)
}

/// Everything one replication's budget units share, behind the engine's
/// group slot.
struct SharedSweep {
    shared: SharedReplication,
    /// Per fraction: `(selected series, mask)`, derived from one
    /// dirtiest-first ranking of the replication's annotations.
    selections: Vec<(Vec<usize>, Vec<bool>)>,
    /// Per fraction: the lazily fitted mask-matched imputation model,
    /// shared across the model-imputing strategies at that budget.
    models: Vec<OnceLock<ModelFit>>,
}

/// Runs the cost sweep on the staged engine: for each replication, each
/// strategy, and each fraction, clean the dirtiest `fraction` of series
/// and score the result. Bit-identical to [`cost_sweep_reference`].
///
/// Points come back replication-major, then strategy, then fraction.
pub fn cost_sweep(data: &Dataset, config: &CostSweepConfig) -> Result<Vec<CostPoint>> {
    cost_sweep_with(
        data,
        config,
        &ThreadPoolExecutor::new(config.experiment.threads),
    )
}

/// Like [`cost_sweep`], on a caller-supplied executor.
pub fn cost_sweep_with<E: TaskExecutor>(
    data: &Dataset,
    config: &CostSweepConfig,
    executor: &E,
) -> Result<Vec<CostPoint>> {
    config.validate()?;
    let experiment = Experiment::new(config.experiment.clone());
    let prepared = experiment.prepare(data)?;
    let transforms = prepared.transforms();
    let index = GlitchIndex::new(config.experiment.weights);
    let nf = config.fractions.len();

    let build = |r: usize| {
        let shared = share_replication(
            prepared.replication(r),
            transforms,
            &config.experiment.metrics,
        );
        // One dirtiest-first ranking per replication; every fraction's
        // selection is a prefix of it.
        let ranked = dirtiest_ranking(&index, &shared.artifacts.dirty_matrices);
        let selections = config
            .fractions
            .iter()
            .map(|&fraction| {
                let selected = PartialCleaner::new(index, fraction).select_from_ranked(&ranked);
                let mut mask = vec![false; shared.artifacts.dirty.num_series()];
                for &i in &selected {
                    mask[i] = true;
                }
                (selected, mask)
            })
            .collect();
        SharedSweep {
            shared,
            selections,
            models: (0..nf).map(|_| OnceLock::new()).collect(),
        }
    };

    let unit_results = run_staged(
        executor,
        config.experiment.replications,
        config.strategies.len() * nf,
        build,
        |sw, r, u| sweep_point(config, transforms, sw, r, u / nf, u % nf),
    );
    let mut out = Vec::with_capacity(unit_results.len());
    for point in unit_results {
        out.push(point?);
    }
    Ok(out)
}

/// Evaluates one `(replication, strategy, fraction)` point against its
/// replication's shared state.
fn sweep_point(
    config: &CostSweepConfig,
    transforms: &[AttributeTransform],
    sw: &SharedSweep,
    r: usize,
    si: usize,
    fi: usize,
) -> Result<CostPoint> {
    let strategy = &config.strategies[si];
    let (selected, mask) = &sw.selections[fi];
    let artifacts = &sw.shared.artifacts;
    let model = if strategy.missing_treatment() == MissingTreatment::ModelImpute {
        Some(sw.models[fi].get_or_init(|| {
            ModelFit::fit(
                &artifacts.dirty,
                &artifacts.dirty_matrices,
                &artifacts.context,
                Some(mask),
            )
        }))
    } else {
        None
    };
    let mut rng = StdRng::seed_from_u64(unit_seed(config.experiment.seed, r, si, fi));
    let (view, _) = strategy.clean_patch_filtered(
        &artifacts.dirty,
        &artifacts.dirty_matrices,
        &artifacts.context,
        &mut rng,
        Some(mask),
        model,
    );
    let (improvement, distortions, treated_report) =
        score_view(&sw.shared, transforms, config.experiment.weights, &view)?;
    Ok(CostPoint {
        fraction: config.fractions[fi],
        replication: r,
        strategy: strategy.name(),
        strategy_index: si,
        improvement,
        distortion: distortions[0].value,
        distortions,
        series_cleaned: selected.len(),
        treated_report,
    })
}

/// The preserved replication-granular reference path: one task per
/// replication, serially evaluating every `(strategy, fraction)` point
/// with a full clone of the dirty sample, in-place partial cleaning, full
/// re-detection, and materialized distortion.
///
/// Kept in-tree as [`cost_sweep`]'s bit-identity oracle — it shares no
/// engine machinery beyond [`crate::ReplicationArtifacts`] itself — and as
/// the baseline the perf bin's `cost_sweep_ref` row measures.
pub fn cost_sweep_reference(data: &Dataset, config: &CostSweepConfig) -> Result<Vec<CostPoint>> {
    config.validate()?;
    let experiment = Experiment::new(config.experiment.clone());
    let prepared = experiment.prepare(data)?;
    let index = GlitchIndex::new(config.experiment.weights);

    let per_replication: Vec<Result<Vec<CostPoint>>> = crate::parallel_map(
        config.experiment.replications,
        config.experiment.threads,
        |i| -> Result<Vec<CostPoint>> {
            let artifacts = prepared.replication(i);
            let mut points = Vec::with_capacity(config.strategies.len() * config.fractions.len());
            for (si, strategy) in config.strategies.iter().enumerate() {
                for (fi, &fraction) in config.fractions.iter().enumerate() {
                    let cleaner = PartialCleaner::new(index, fraction);
                    let mut cleaned = artifacts.dirty.clone();
                    let mut rng =
                        StdRng::seed_from_u64(unit_seed(config.experiment.seed, i, si, fi));
                    let partial = cleaner.clean(
                        &mut cleaned,
                        &artifacts.dirty_matrices,
                        strategy,
                        &artifacts.context,
                        &mut rng,
                    );
                    let treated_matrices = artifacts.redetect(&cleaned);
                    let improvement =
                        index.improvement(&artifacts.dirty_matrices, &treated_matrices);
                    // Working-space distortion, matching
                    // `PreparedExperiment::evaluate` — one materialized
                    // evaluation per requested metric.
                    let mut distortions = Vec::with_capacity(config.experiment.metrics.len());
                    for metric in &config.experiment.metrics {
                        distortions.push(MetricScore {
                            metric: metric.name(),
                            value: statistical_distortion(
                                &artifacts.dirty,
                                &cleaned,
                                prepared.transforms(),
                                *metric,
                            )?,
                        });
                    }
                    points.push(CostPoint {
                        fraction,
                        replication: i,
                        strategy: strategy.name(),
                        strategy_index: si,
                        improvement,
                        distortion: distortions[0].value,
                        distortions,
                        series_cleaned: partial.cleaned_indices.len(),
                        treated_report: GlitchReport::from_matrices(&treated_matrices),
                    });
                }
            }
            Ok(points)
        },
    );

    let mut out = Vec::new();
    for r in per_replication {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialExecutor;
    use sd_cleaning::paper_strategy;
    use sd_netsim::{generate, NetsimConfig};

    fn sweep_config() -> CostSweepConfig {
        let mut experiment = ExperimentConfig::paper_default(15, 5);
        experiment.replications = 3;
        experiment.threads = 2;
        CostSweepConfig {
            experiment,
            fractions: vec![0.0, 0.5, 1.0],
            strategies: vec![paper_strategy(1)],
            transport: TransportMode::Cold,
        }
    }

    /// Both sweep entry points must reject `config` after `mutate` with
    /// `InvalidConfig` instead of sweeping.
    fn assert_rejected(mutate: impl FnOnce(&mut CostSweepConfig)) {
        let data = generate(&NetsimConfig::small(9)).dataset;
        let mut config = sweep_config();
        mutate(&mut config);
        let results = [
            cost_sweep_with(&data, &config, &SerialExecutor),
            cost_sweep_reference(&data, &config),
        ];
        for result in results {
            assert!(
                matches!(result, Err(FrameworkError::InvalidConfig(_))),
                "fractions {:?}, {} strategies: expected InvalidConfig, got {:?}",
                config.fractions,
                config.strategies.len(),
                result.map(|points| points.len())
            );
        }
    }

    #[test]
    fn rejects_a_nan_fraction() {
        assert_rejected(|c| c.fractions = vec![0.0, f64::NAN]);
    }

    #[test]
    fn rejects_a_fraction_above_one() {
        assert_rejected(|c| c.fractions = vec![0.5, 1.5]);
    }

    #[test]
    fn rejects_a_negative_fraction() {
        assert_rejected(|c| c.fractions = vec![-0.5, 1.0]);
    }

    #[test]
    fn rejects_an_infinite_fraction() {
        assert_rejected(|c| c.fractions = vec![f64::INFINITY]);
    }

    #[test]
    fn rejects_an_empty_strategy_list() {
        assert_rejected(|c| c.strategies.clear());
    }

    #[test]
    fn sweep_produces_all_points() {
        let data = generate(&NetsimConfig::small(9)).dataset;
        let points = cost_sweep(&data, &sweep_config()).unwrap();
        assert_eq!(points.len(), 9); // 3 replications × 1 strategy × 3 fractions
    }

    #[test]
    fn zero_fraction_is_free_and_undistorted() {
        let data = generate(&NetsimConfig::small(9)).dataset;
        let points = cost_sweep(&data, &sweep_config()).unwrap();
        for p in points.iter().filter(|p| p.fraction == 0.0) {
            assert_eq!(p.series_cleaned, 0);
            assert_eq!(p.improvement, 0.0);
            assert!(p.distortion.abs() < 1e-9);
        }
    }

    #[test]
    fn improvement_grows_with_fraction() {
        let data = generate(&NetsimConfig::small(9)).dataset;
        let points = cost_sweep(&data, &sweep_config()).unwrap();
        // Compare per-replication so sampling noise cancels.
        for rep in 0..3 {
            let by_frac: Vec<&CostPoint> = points.iter().filter(|p| p.replication == rep).collect();
            let f0 = by_frac.iter().find(|p| p.fraction == 0.0).unwrap();
            let f50 = by_frac.iter().find(|p| p.fraction == 0.5).unwrap();
            let f100 = by_frac.iter().find(|p| p.fraction == 1.0).unwrap();
            assert!(f50.improvement >= f0.improvement);
            assert!(f100.improvement >= f50.improvement * 0.99);
            assert!(f100.series_cleaned > f50.series_cleaned);
        }
    }

    #[test]
    fn engine_sweep_is_bit_identical_to_reference() {
        let data = generate(&NetsimConfig::small(9)).dataset;
        // Two model-imputing strategies (exercising the shared per-budget
        // ModelFit) plus a mean-replace one, across executors.
        let mut config = sweep_config();
        config.strategies = vec![paper_strategy(1), paper_strategy(2), paper_strategy(5)];
        let reference = cost_sweep_reference(&data, &config).unwrap();
        let engine = cost_sweep(&data, &config).unwrap();
        let serial = cost_sweep_with(&data, &config, &SerialExecutor).unwrap();
        assert_eq!(reference.len(), engine.len());
        assert_eq!(reference.len(), serial.len());
        for (a, b) in reference
            .iter()
            .zip(&engine)
            .chain(reference.iter().zip(&serial))
        {
            assert_eq!(a.fraction, b.fraction);
            assert_eq!(a.replication, b.replication);
            assert_eq!(a.strategy_index, b.strategy_index);
            assert_eq!(a.strategy, b.strategy);
            assert_eq!(a.series_cleaned, b.series_cleaned);
            assert_eq!(
                a.improvement.to_bits(),
                b.improvement.to_bits(),
                "improvement diverged at r={} s={} f={}",
                a.replication,
                a.strategy_index,
                a.fraction
            );
            assert_eq!(
                a.distortion.to_bits(),
                b.distortion.to_bits(),
                "distortion diverged at r={} s={} f={}",
                a.replication,
                a.strategy_index,
                a.fraction
            );
            assert_eq!(a.treated_report, b.treated_report);
        }
    }

    #[test]
    fn multi_metric_sweep_is_bit_identical_to_reference() {
        let data = generate(&NetsimConfig::small(9)).dataset;
        let mut config = sweep_config();
        config.experiment.metrics = crate::DistortionMetric::full_suite();
        let reference = cost_sweep_reference(&data, &config).unwrap();
        let engine = cost_sweep(&data, &config).unwrap();
        assert_eq!(reference.len(), engine.len());
        for (a, b) in reference.iter().zip(&engine) {
            assert_eq!(a.distortions.len(), 6);
            assert_eq!(b.distortions.len(), 6);
            assert_eq!(a.distortion.to_bits(), a.distortions[0].value.to_bits());
            for (x, y) in a.distortions.iter().zip(&b.distortions) {
                assert_eq!(x.metric, y.metric);
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "{} diverged at r={} f={}",
                    x.metric,
                    a.replication,
                    a.fraction
                );
            }
        }
    }

    #[test]
    fn multi_strategy_sweep_orders_points_strategy_major() {
        let data = generate(&NetsimConfig::small(9)).dataset;
        let mut config = sweep_config();
        config.strategies = vec![paper_strategy(5), paper_strategy(3)];
        let points = cost_sweep(&data, &config).unwrap();
        assert_eq!(points.len(), 3 * 2 * 3);
        for (k, p) in points.iter().enumerate() {
            assert_eq!(p.replication, k / 6);
            assert_eq!(p.strategy_index, (k / 3) % 2);
        }
    }
}
