use crate::{partition_ideal, statistical_distortion, DistortionMetric, MetricScore, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_cleaning::{CleaningContext, CleaningOutcome, CleaningStrategy, CompositeStrategy};
use sd_data::Dataset;
use sd_glitch::{
    ConstraintSet, GlitchDetector, GlitchIndex, GlitchMatrix, GlitchReport, GlitchWeights,
    OutlierDetector,
};
use sd_sampling::ReplicationSampler;
use sd_stats::AttributeTransform;

/// Configuration of one experimental run (§4).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of replications `R` ("any value of R more than 30 is
    /// sufficient"; the paper uses 50).
    pub replications: usize,
    /// Series per sample `B` (the paper reports 100 and 500).
    pub sample_size: usize,
    /// Base seed for sampling and strategy randomness.
    pub seed: u64,
    /// Glitch-type weights (paper: 0.25 / 0.25 / 0.5).
    pub weights: GlitchWeights,
    /// Whether the natural-log factor is applied to Attribute 1 (§5.3).
    pub log_transform_attr1: bool,
    /// σ multiplier for outlier limits (paper: 3).
    pub sigma_k: f64,
    /// Record-level cleanliness threshold for the ideal rule (paper: 5 %).
    pub ideal_threshold: f64,
    /// Distortion distances. Every requested kernel is scored per
    /// `(replication, strategy)` unit from one cleaning pass; the first
    /// entry is the **primary** metric reported in
    /// [`StrategyOutcome::distortion`]. Must be non-empty.
    pub metrics: Vec<DistortionMetric>,
    /// Inconsistency rules (defaults to the paper's three, §4.1).
    pub constraints: ConstraintSet,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl ExperimentConfig {
    /// The paper's configuration: R = 50 replications, 3-σ limits, 5 %
    /// ideal rule, weights (0.25, 0.25, 0.5), log factor on, EMD metric.
    pub fn paper_default(sample_size: usize, seed: u64) -> Self {
        ExperimentConfig {
            replications: 50,
            sample_size,
            seed,
            weights: GlitchWeights::paper(),
            log_transform_attr1: true,
            sigma_k: 3.0,
            ideal_threshold: 0.05,
            metrics: vec![DistortionMetric::paper_default()],
            constraints: ConstraintSet::paper_rules(0, 2),
            threads: 0,
        }
    }

    /// Per-attribute transforms implied by the log factor.
    pub fn transforms(&self, num_attributes: usize) -> Vec<AttributeTransform> {
        (0..num_attributes)
            .map(|a| {
                if a == 0 && self.log_transform_attr1 {
                    AttributeTransform::log()
                } else {
                    AttributeTransform::Identity
                }
            })
            .collect()
    }
}

/// One `(strategy, replication)` evaluation — a single point in Figure 6.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Strategy display name.
    pub strategy: String,
    /// Index of the strategy in the submitted list.
    pub strategy_index: usize,
    /// Replication number.
    pub replication: usize,
    /// Glitch improvement `G(D^i) − G(D^i_C)`.
    pub improvement: f64,
    /// Statistical distortion `d(D^i, D^i_C)` under the **primary**
    /// metric (`metrics[0]`; equal to `distortions[0].value`).
    pub distortion: f64,
    /// Per-metric distortions, in [`ExperimentConfig::metrics`] order —
    /// every requested kernel scored from the same cleaning pass.
    pub distortions: Vec<MetricScore>,
    /// Record-level glitch percentages of the dirty sample.
    pub dirty_report: GlitchReport,
    /// Record-level glitch percentages after treatment.
    pub treated_report: GlitchReport,
    /// What the cleaning pass did.
    pub cleaning: CleaningOutcome,
}

/// All outcomes of an experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    outcomes: Vec<StrategyOutcome>,
    metrics: Vec<&'static str>,
}

impl ExperimentResult {
    /// Assembles a result from unit outcomes (engine-internal).
    pub(crate) fn from_outcomes(
        outcomes: Vec<StrategyOutcome>,
        metrics: Vec<&'static str>,
    ) -> Self {
        ExperimentResult { outcomes, metrics }
    }

    /// Every `(strategy, replication)` outcome.
    pub fn outcomes(&self) -> &[StrategyOutcome] {
        &self.outcomes
    }

    /// The scored metric names, in [`ExperimentConfig::metrics`] order
    /// (index `i` here matches `distortions[i]` in every outcome).
    pub fn metrics(&self) -> &[&'static str] {
        &self.metrics
    }

    /// Outcomes of one strategy, across replications.
    pub fn for_strategy(&self, strategy_index: usize) -> Vec<&StrategyOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.strategy_index == strategy_index)
            .collect()
    }

    /// Mean `(improvement, distortion)` of one strategy under the primary
    /// metric.
    pub fn mean_point(&self, strategy_index: usize) -> Option<(f64, f64)> {
        self.mean_point_for_metric(strategy_index, 0)
    }

    /// Mean `(improvement, distortion)` of one strategy under the
    /// `metric_index`-th requested metric (see
    /// [`ExperimentResult::metrics`]).
    pub fn mean_point_for_metric(
        &self,
        strategy_index: usize,
        metric_index: usize,
    ) -> Option<(f64, f64)> {
        let points = self.for_strategy(strategy_index);
        if points.is_empty() || metric_index >= self.metrics.len() {
            return None;
        }
        let n = points.len() as f64;
        let imp = points.iter().map(|o| o.improvement).sum::<f64>() / n;
        let dist = points
            .iter()
            .map(|o| o.distortions[metric_index].value)
            .sum::<f64>()
            / n;
        Some((imp, dist))
    }
}

/// Everything calibrated for one replication: the test pair, the fitted
/// detector, the cleaning context, and the dirty sample's annotations.
///
/// Exposed so the figure generators and the cost sweep can reuse the exact
/// replication pipeline without re-implementing it.
#[derive(Debug)]
pub struct ReplicationArtifacts {
    /// Replication number.
    pub replication: usize,
    /// The dirty sample `D^i`.
    pub dirty: Dataset,
    /// The ideal sample `D^i_I`.
    pub ideal: Dataset,
    /// Detector with 3-σ limits fitted on `ideal`.
    pub detector: GlitchDetector,
    /// Cleaning context calibrated on `ideal`.
    pub context: CleaningContext,
    /// Glitch annotations of `dirty`.
    pub dirty_matrices: Vec<GlitchMatrix>,
}

impl ReplicationArtifacts {
    /// Applies a strategy to a fresh copy of the dirty sample and returns
    /// `(cleaned data, cleaning counters)`. Deterministic per
    /// `(experiment seed, replication, strategy_index)`.
    pub fn apply(
        &self,
        strategy: &CompositeStrategy,
        seed: u64,
        strategy_index: usize,
    ) -> (Dataset, CleaningOutcome) {
        let mut cleaned = self.dirty.clone();
        let mut rng = StdRng::seed_from_u64(
            seed ^ (self.replication as u64) << 20 ^ (strategy_index as u64) << 50,
        );
        let outcome = strategy.clean(&mut cleaned, &self.dirty_matrices, &self.context, &mut rng);
        (cleaned, outcome)
    }

    /// Re-detects glitches on a treated data set with the same detector
    /// (limits stay calibrated on the ideal sample).
    pub fn redetect(&self, treated: &Dataset) -> Vec<GlitchMatrix> {
        self.detector.detect_dataset(treated)
    }
}

/// An experiment prepared against a concrete data set: partitioned pools
/// plus everything derived from the configuration.
#[derive(Debug)]
pub struct PreparedExperiment {
    config: ExperimentConfig,
    transforms: Vec<AttributeTransform>,
    dirty_pool: Dataset,
    ideal_pool: Dataset,
    sampler: ReplicationSampler,
}

impl PreparedExperiment {
    /// The dirty pool (non-ideal partition of the input data).
    pub fn dirty_pool(&self) -> &Dataset {
        &self.dirty_pool
    }

    /// The ideal pool `D_I`.
    pub fn ideal_pool(&self) -> &Dataset {
        &self.ideal_pool
    }

    /// The per-attribute transforms in use.
    pub fn transforms(&self) -> &[AttributeTransform] {
        &self.transforms
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Builds the artifacts for replication `i`: sample the test pair, fit
    /// the outlier detector and cleaning context on the ideal sample,
    /// annotate the dirty sample.
    pub fn replication(&self, i: usize) -> ReplicationArtifacts {
        let pair = self
            .sampler
            .sample_pair(&self.dirty_pool, &self.ideal_pool, i);
        let outliers = OutlierDetector::fit(&pair.ideal, &self.transforms, self.config.sigma_k);
        let context = CleaningContext::from_detector(&pair.ideal, &self.transforms, &outliers);
        let detector = GlitchDetector::new(self.config.constraints.clone(), Some(outliers));
        let dirty_matrices = detector.detect_dataset(&pair.dirty);
        ReplicationArtifacts {
            replication: i,
            dirty: pair.dirty,
            ideal: pair.ideal,
            detector,
            context,
            dirty_matrices,
        }
    }

    /// Runs all `R × S` `(replication, strategy)` units of this prepared
    /// experiment on the staged engine (see [`crate::engine`]) with a
    /// caller-supplied executor. [`Experiment::run`] is `prepare` + this.
    pub fn run_with<E: crate::TaskExecutor>(
        &self,
        strategies: &[CompositeStrategy],
        executor: &E,
    ) -> Result<ExperimentResult> {
        crate::engine::run_batch(self, strategies, executor)
    }

    /// Scores one strategy on one replication the pre-engine way: full
    /// clone, full re-detection, and one materialized distortion
    /// evaluation per requested metric (the engine's bit-identity oracle).
    pub fn evaluate(
        &self,
        artifacts: &ReplicationArtifacts,
        strategy: &CompositeStrategy,
        strategy_index: usize,
    ) -> Result<StrategyOutcome> {
        let (cleaned, cleaning) = artifacts.apply(strategy, self.config.seed, strategy_index);
        let treated_matrices = artifacts.redetect(&cleaned);
        let index = GlitchIndex::new(self.config.weights);
        let improvement = index.improvement(&artifacts.dirty_matrices, &treated_matrices);
        // Distortion is measured in the experiment's working space (log
        // space for Attribute 1 when the factor is on): the analyst who
        // chose the transform evaluates distributional damage on that
        // scale, and it is where the Gaussian imputer's spread is visible.
        let mut distortions = Vec::with_capacity(self.config.metrics.len());
        for metric in &self.config.metrics {
            distortions.push(MetricScore {
                metric: metric.name(),
                value: statistical_distortion(
                    &artifacts.dirty,
                    &cleaned,
                    &self.transforms,
                    *metric,
                )?,
            });
        }
        Ok(StrategyOutcome {
            strategy: strategy.name(),
            strategy_index,
            replication: artifacts.replication,
            improvement,
            distortion: distortions[0].value,
            distortions,
            dirty_report: GlitchReport::from_matrices(&artifacts.dirty_matrices),
            treated_report: GlitchReport::from_matrices(&treated_matrices),
            cleaning,
        })
    }
}

/// The experimental framework entry point.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates an experiment from a configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Partitions `data` into pools and precomputes shared state.
    pub fn prepare(&self, data: &Dataset) -> Result<PreparedExperiment> {
        if self.config.replications == 0 || self.config.sample_size == 0 {
            return Err(crate::FrameworkError::InvalidConfig(
                "replications and sample size must be positive".into(),
            ));
        }
        DistortionMetric::check_list(&self.config.metrics)?;
        let transforms = self.config.transforms(data.num_attributes());
        let partition = partition_ideal(
            data,
            &self.config.constraints,
            &transforms,
            self.config.sigma_k,
            self.config.ideal_threshold,
        )?;
        Ok(PreparedExperiment {
            transforms,
            dirty_pool: partition.dirty_dataset(data),
            ideal_pool: partition.ideal_dataset(data),
            sampler: ReplicationSampler::new(self.config.sample_size, self.config.seed),
            config: self.config.clone(),
        })
    }

    /// Runs the full protocol on the staged engine: a work queue of
    /// `R × S` `(replication, strategy)` units with per-replication
    /// artifacts shared across each replication's strategy units (see
    /// [`crate::engine`]). Outcomes are bit-identical to the historical
    /// replication-granular runner for the same seed.
    pub fn run(
        &self,
        data: &Dataset,
        strategies: &[CompositeStrategy],
    ) -> Result<ExperimentResult> {
        self.run_with(
            data,
            strategies,
            &crate::ThreadPoolExecutor::new(self.config.threads),
        )
    }

    /// Like [`Experiment::run`], on a caller-supplied task executor.
    pub fn run_with<E: crate::TaskExecutor>(
        &self,
        data: &Dataset,
        strategies: &[CompositeStrategy],
        executor: &E,
    ) -> Result<ExperimentResult> {
        self.prepare(data)?.run_with(strategies, executor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_cleaning::paper_strategy;
    use sd_netsim::{generate, NetsimConfig};

    fn small_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_default(20, 11);
        c.replications = 4;
        c.threads = 2;
        c
    }

    fn data() -> Dataset {
        generate(&NetsimConfig::small(3)).dataset
    }

    #[test]
    fn transforms_respect_log_factor() {
        let mut c = ExperimentConfig::paper_default(10, 1);
        let t = c.transforms(3);
        assert!(!t[0].is_identity());
        assert!(t[1].is_identity() && t[2].is_identity());
        c.log_transform_attr1 = false;
        assert!(c.transforms(3).iter().all(|x| x.is_identity()));
    }

    #[test]
    fn run_produces_all_outcomes() {
        let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
        let result = Experiment::new(small_config())
            .run(&data(), &strategies)
            .unwrap();
        assert_eq!(result.outcomes().len(), 4 * 5);
        // Every outcome is finite and non-negative in distortion.
        for o in result.outcomes() {
            assert!(o.distortion.is_finite() && o.distortion >= 0.0, "{o:?}");
            assert!(o.improvement.is_finite());
        }
        assert_eq!(result.for_strategy(0).len(), 4);
        assert!(result.mean_point(0).is_some());
        assert!(result.mean_point(9).is_none());
    }

    #[test]
    fn no_op_strategy_has_zero_improvement_and_distortion() {
        let noop = sd_cleaning::CompositeStrategy::new(
            sd_cleaning::MissingTreatment::Ignore,
            sd_cleaning::OutlierTreatment::Ignore,
        );
        let result = Experiment::new(small_config())
            .run(&data(), &[noop])
            .unwrap();
        for o in result.outcomes() {
            assert_eq!(o.improvement, 0.0);
            assert!(o.distortion.abs() < 1e-9);
            assert_eq!(o.cleaning.cells_changed(), 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let strategies = [paper_strategy(5)];
        let e = Experiment::new(small_config());
        let d = data();
        let a = e.run(&d, &strategies).unwrap();
        let b = e.run(&d, &strategies).unwrap();
        for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
            assert_eq!(x.improvement, y.improvement);
            assert_eq!(x.distortion, y.distortion);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = small_config();
        c.replications = 0;
        assert!(Experiment::new(c)
            .run(&data(), &[paper_strategy(1)])
            .is_err());
        // An empty metric list, or a grid metric with zero bins per axis.
        for metrics in [
            vec![],
            vec![DistortionMetric::Emd { bins: 0 }],
            vec![DistortionMetric::KlDivergence { bins: 0 }],
            vec![
                DistortionMetric::Mahalanobis,
                DistortionMetric::Energy { bins: 0 },
            ],
        ] {
            let mut c = small_config();
            c.metrics = metrics;
            assert!(matches!(
                Experiment::new(c).prepare(&data()),
                Err(crate::FrameworkError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn prepare_rejects_a_non_positive_sigma_multiplier() {
        for k in [0.0, -1.0, f64::NAN] {
            let mut c = small_config();
            c.sigma_k = k;
            let err = Experiment::new(c).prepare(&data()).unwrap_err();
            assert!(
                matches!(err, crate::FrameworkError::InvalidConfig(_)),
                "sigma_k {k}: {err}"
            );
        }
    }

    #[test]
    fn prepare_rejects_constraints_beyond_the_attributes() {
        let mut c = small_config();
        c.constraints = ConstraintSet::paper_rules(0, 3); // the data has 3
        let err = Experiment::new(c).prepare(&data()).unwrap_err();
        assert!(
            matches!(err, crate::FrameworkError::InvalidConfig(_)),
            "{err}"
        );
    }

    #[test]
    fn full_cleaning_improves_glitch_score() {
        let strategies = [paper_strategy(5)];
        let result = Experiment::new(small_config())
            .run(&data(), &strategies)
            .unwrap();
        for o in result.outcomes() {
            assert!(
                o.improvement > 0.0,
                "strategy 5 must improve the glitch index, got {}",
                o.improvement
            );
            assert!(
                o.distortion > 0.0,
                "cleaning must distort at least a little"
            );
        }
    }
}
