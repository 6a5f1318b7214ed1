//! Engine regression: the staged `(replication, strategy)`-unit engine
//! behind [`Experiment::run`] must reproduce the historical
//! replication-granular runner **bit for bit** for a fixed seed.
//!
//! The reference is [`PreparedExperiment::evaluate`], which still scores a
//! unit the pre-engine way — full dirty-sample clone, per-strategy model
//! fit, full re-detection, uncached distortion — and is kept exactly for
//! this cross-check (the figure generators use it too).

use statistical_distortion::core::{
    budget_optimize_with, cost_sweep_with, CostPoint, PreparedExperiment, SerialExecutor,
    StrategyOutcome, WindowOutcome, WindowedConfig, WindowedExperiment,
};
use statistical_distortion::prelude::*;

fn reference_outcomes(
    prepared: &PreparedExperiment,
    strategies: &[CompositeStrategy],
) -> Vec<StrategyOutcome> {
    let mut outcomes = Vec::new();
    for i in 0..prepared.config().replications {
        let artifacts = prepared.replication(i);
        for (si, s) in strategies.iter().enumerate() {
            outcomes.push(prepared.evaluate(&artifacts, s, si).unwrap());
        }
    }
    outcomes
}

fn assert_bit_identical(reference: &[StrategyOutcome], engine: &[StrategyOutcome], label: &str) {
    assert_eq!(reference.len(), engine.len(), "{label}: outcome count");
    for (r, e) in reference.iter().zip(engine) {
        assert_eq!(
            r.distortions.len(),
            e.distortions.len(),
            "{label}: metric count"
        );
        for (rm, em) in r.distortions.iter().zip(&e.distortions) {
            assert_eq!(rm.metric, em.metric, "{label}: metric order");
            assert_eq!(
                rm.value.to_bits(),
                em.value.to_bits(),
                "{label}: {} distortion of {} rep {}",
                rm.metric,
                r.strategy,
                r.replication
            );
        }
        assert_eq!(r.replication, e.replication, "{label}: replication order");
        assert_eq!(
            r.strategy_index, e.strategy_index,
            "{label}: strategy order"
        );
        assert_eq!(r.strategy, e.strategy, "{label}: strategy name");
        assert_eq!(
            r.improvement.to_bits(),
            e.improvement.to_bits(),
            "{label}: improvement of {} rep {}",
            r.strategy,
            r.replication
        );
        assert_eq!(
            r.distortion.to_bits(),
            e.distortion.to_bits(),
            "{label}: distortion of {} rep {}",
            r.strategy,
            r.replication
        );
        assert_eq!(r.cleaning, e.cleaning, "{label}: cleaning counters");
        assert_eq!(
            r.dirty_report.record_pct, e.dirty_report.record_pct,
            "{label}: dirty report"
        );
        assert_eq!(
            r.treated_report.record_pct, e.treated_report.record_pct,
            "{label}: treated report"
        );
        assert_eq!(
            r.treated_report.cell_pct, e.treated_report.cell_pct,
            "{label}: treated cell report"
        );
    }
}

/// Five groups on one to three threads: at widths 2 and 3 the engine's
/// last wave holds fewer groups than the others (5 = 2 + 2 + 1 = 3 + 2).
const THREAD_SWEEP: [usize; 3] = [1, 2, 3];

#[test]
fn engine_outcomes_are_bit_identical_to_the_reference_runner() {
    let data = generate(&NetsimConfig::small(131)).dataset;
    let mut config = ExperimentConfig::paper_default(20, 131);
    config.replications = 5;
    let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();

    let experiment = Experiment::new(config.clone());
    let prepared = experiment.prepare(&data).unwrap();
    let reference = reference_outcomes(&prepared, &strategies);

    for threads in THREAD_SWEEP {
        let mut c = config.clone();
        c.threads = threads;
        let engine = Experiment::new(c).run(&data, &strategies).unwrap();
        assert_bit_identical(&reference, engine.outcomes(), &format!("threads={threads}"));
    }

    // And on the serial executor, which exercises the same staged path
    // without any scheduling at all.
    let serial = experiment
        .run_with(&data, &strategies, &SerialExecutor)
        .unwrap();
    assert_bit_identical(&reference, serial.outcomes(), "serial executor");
}

fn point_bits(points: &[CostPoint]) -> Vec<u64> {
    let mut bits = Vec::new();
    for p in points {
        bits.extend([
            p.replication as u64,
            p.strategy_index as u64,
            p.fraction.to_bits(),
            p.improvement.to_bits(),
            p.series_cleaned as u64,
        ]);
        bits.extend(p.distortions.iter().map(|d| d.value.to_bits()));
        bits.extend(p.treated_report.record_pct.iter().map(|v| v.to_bits()));
        bits.extend(p.treated_report.cell_pct.iter().map(|v| v.to_bits()));
    }
    bits
}

fn window_bits(outcomes: &[WindowOutcome]) -> Vec<u64> {
    let mut bits = Vec::new();
    for o in outcomes {
        bits.extend([
            o.window_index as u64,
            o.strategy_index as u64,
            o.improvement.to_bits(),
            o.distortion.to_bits(),
        ]);
        bits.extend(o.distortions.iter().map(|d| d.value.to_bits()));
        bits.extend(o.treated_report.record_pct.iter().map(|v| v.to_bits()));
        bits.extend(o.treated_report.cell_pct.iter().map(|v| v.to_bits()));
        bits.push(o.cleaning.cells_changed() as u64);
    }
    bits
}

/// The cost sweep and a windowed run over five groups match their
/// references bit for bit on one to three threads, so a partial last wave
/// moves no output.
#[test]
fn partial_last_wave_is_bit_identical_across_thread_counts() {
    let data = generate(&NetsimConfig::small(37)).dataset;
    let mut config = ExperimentConfig::paper_default(15, 37);
    config.replications = 5;
    let sweep = CostSweepConfig {
        experiment: config,
        fractions: vec![0.0, 0.5, 1.0],
        strategies: vec![paper_strategy(1), paper_strategy(5)],
        transport: TransportMode::Cold,
    };
    let reference = point_bits(&cost_sweep_reference(&data, &sweep).unwrap());

    let windowed = WindowedExperiment::new(WindowedConfig::paper_default(20, 10, 37));
    assert!(windowed.num_windows(&data) >= 5, "five or more windows");
    let strategies = [paper_strategy(1), paper_strategy(5)];
    let serial = windowed
        .run_with(&data, &strategies, &SerialExecutor)
        .unwrap();

    for threads in THREAD_SWEEP {
        let pool = ThreadPoolExecutor::new(threads);
        let points = cost_sweep_with(&data, &sweep, &pool).unwrap();
        assert_eq!(
            point_bits(&points),
            reference,
            "cost sweep, threads={threads}"
        );
        let run = windowed.run_with(&data, &strategies, &pool).unwrap();
        assert_eq!(
            run.screens(),
            serial.screens(),
            "screens, threads={threads}"
        );
        assert_eq!(
            window_bits(run.outcomes()),
            window_bits(serial.outcomes()),
            "windowed run, threads={threads}"
        );
    }
}

#[test]
fn engine_equivalence_holds_without_the_log_factor_and_across_metrics() {
    let data = generate(&NetsimConfig::small(17)).dataset;
    for (log, metric) in [
        (false, DistortionMetric::paper_default()),
        (true, DistortionMetric::KlDivergence { bins: 8 }),
        (true, DistortionMetric::Mahalanobis),
    ] {
        let mut config = ExperimentConfig::paper_default(15, 23);
        config.replications = 2;
        config.log_transform_attr1 = log;
        config.metrics = vec![metric];
        config.threads = 2;
        let strategies = [paper_strategy(1), paper_strategy(4)];

        let experiment = Experiment::new(config);
        let prepared = experiment.prepare(&data).unwrap();
        let reference = reference_outcomes(&prepared, &strategies);
        let engine = experiment.run(&data, &strategies).unwrap();
        assert_bit_identical(&reference, engine.outcomes(), &format!("{metric:?}"));
    }
}

#[test]
fn multi_metric_engine_scores_every_kernel_bit_identically() {
    // One cleaning pass per unit, all six kernels scored incrementally —
    // each must match the reference path's materialized per-metric
    // evaluation bit for bit, across thread counts.
    let data = generate(&NetsimConfig::small(59)).dataset;
    let mut config = ExperimentConfig::paper_default(15, 59);
    config.replications = 2;
    config.metrics = DistortionMetric::full_suite();
    config.threads = 2;
    let strategies = [paper_strategy(1), paper_strategy(5)];

    let experiment = Experiment::new(config.clone());
    let prepared = experiment.prepare(&data).unwrap();
    let reference = reference_outcomes(&prepared, &strategies);
    let engine = experiment.run(&data, &strategies).unwrap();
    assert_eq!(
        engine.metrics(),
        ["emd", "kl", "mahalanobis", "ks", "cvm", "energy"]
    );
    assert_bit_identical(&reference, engine.outcomes(), "full suite");
    // The primary column is the first metric, and a single-metric run of
    // the same seed reproduces it exactly (the multi-metric refactor may
    // not perturb single-metric outputs).
    let mut single = config;
    single.metrics = vec![DistortionMetric::paper_default()];
    let single_run = Experiment::new(single).run(&data, &strategies).unwrap();
    for (m, s) in engine.outcomes().iter().zip(single_run.outcomes()) {
        assert_eq!(m.distortion.to_bits(), m.distortions[0].value.to_bits());
        assert_eq!(m.distortion.to_bits(), s.distortion.to_bits());
    }
    let serial = experiment
        .run_with(&data, &strategies, &SerialExecutor)
        .unwrap();
    assert_bit_identical(&reference, serial.outcomes(), "full suite serial");
}

/// Hostile KPI values through the batch engine: cells set to ±inf and
/// ±1e300 (the cells the streaming suite pins through `sd-serve`) leave
/// `run_with`, the cost sweep and the budget optimizer `Ok` with finite
/// distortions, and the optimizer's frontier does not depend on the
/// executor.
#[test]
fn hostile_kpi_values_stay_finite_through_the_batch_engine() {
    let mut data = generate(&NetsimConfig::small(43)).dataset;
    let hostile = [f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
    let (series, attributes) = (data.num_series(), data.num_attributes());
    for (k, &value) in hostile.iter().enumerate() {
        for j in 0..3 {
            let i = (5 * k + 17 * j + 3) % series;
            let t = 7 + 11 * j + 3 * k;
            data.series_mut()[i].set((k + j) % attributes, t, value);
            data.series_mut()[i].set((k + j) % attributes, t + 1, value);
        }
    }
    let mut config = ExperimentConfig::paper_default(20, 43);
    config.replications = 2;
    config.threads = 2;
    let strategies = vec![paper_strategy(1), paper_strategy(5)];

    let batch = Experiment::new(config.clone())
        .run_with(&data, &strategies, &ThreadPoolExecutor::new(2))
        .unwrap_or_else(|e| panic!("run_with failed: {e}"));
    for outcome in batch.outcomes() {
        assert!(
            outcome.distortions.iter().all(|d| d.value.is_finite()),
            "run_with: {:?}",
            outcome.distortions
        );
    }

    let sweep = cost_sweep(
        &data,
        &CostSweepConfig {
            experiment: config.clone(),
            fractions: vec![0.0, 0.5, 1.0],
            strategies: strategies.clone(),
            transport: TransportMode::Cold,
        },
    )
    .unwrap_or_else(|e| panic!("cost_sweep failed: {e}"));
    for point in &sweep {
        assert!(
            point.distortions.iter().all(|d| d.value.is_finite()),
            "cost_sweep: {:?}",
            point.distortions
        );
    }

    let budget = BudgetOptimizerConfig {
        experiment: config,
        strategies,
        budgets: vec![0.0, 10.0, 40.0, 1e6],
        cost_model: CostModel::uniform(),
        policy: SelectionPolicy::Greedy,
        distortion_weight: 0.1,
        transport: TransportMode::Cold,
    };
    let bits = |points: &[FrontierPoint]| -> Vec<u64> {
        let mut out = Vec::new();
        for p in points {
            assert!(
                p.distortions.iter().all(|d| d.value.is_finite()),
                "budget_optimize_with: {:?}",
                p.distortions
            );
            out.extend([
                p.spent.to_bits(),
                p.series_cleaned as u64,
                p.improvement.to_bits(),
            ]);
            out.extend(p.distortions.iter().map(|d| d.value.to_bits()));
        }
        out
    };
    let serial = budget_optimize_with(&data, &budget, &SerialExecutor)
        .unwrap_or_else(|e| panic!("budget_optimize_with (serial) failed: {e}"));
    let pooled = budget_optimize_with(&data, &budget, &ThreadPoolExecutor::new(2))
        .unwrap_or_else(|e| panic!("budget_optimize_with (2 threads) failed: {e}"));
    assert_eq!(serial.len(), 2 * 2 * 4);
    assert!(serial.iter().any(|p| p.series_cleaned > 0));
    assert_eq!(bits(&serial), bits(&pooled));
}
