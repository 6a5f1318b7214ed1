//! Cross-crate integration: the full §4 protocol from telemetry generation
//! through strategy scoring, exercised end to end.

use statistical_distortion::prelude::*;

fn small_experiment(log: bool, seed: u64) -> (Dataset, ExperimentConfig) {
    let data = generate(&NetsimConfig::small(seed)).dataset;
    let mut config = ExperimentConfig::paper_default(15, seed);
    config.replications = 3;
    config.log_transform_attr1 = log;
    config.threads = 2;
    (data, config)
}

#[test]
fn five_strategies_produce_finite_scores() {
    let (data, config) = small_experiment(true, 11);
    let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
    let result = Experiment::new(config).run(&data, &strategies).unwrap();
    assert_eq!(result.outcomes().len(), 15);
    for o in result.outcomes() {
        assert!(o.improvement.is_finite());
        assert!(o.distortion.is_finite() && o.distortion >= 0.0);
        assert!(o.dirty_report.total_records > 0);
    }
}

#[test]
fn composite_strategies_dominate_components_in_improvement() {
    let (data, config) = small_experiment(true, 23);
    let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
    let result = Experiment::new(config).run(&data, &strategies).unwrap();
    let mean = |si: usize| result.mean_point(si).unwrap().0;
    // Strategy 1 (winsorize+impute) > strategy 2 (impute only);
    // strategy 5 (winsorize+mean) > strategy 4 (mean only).
    assert!(mean(0) > mean(1), "s1 {} vs s2 {}", mean(0), mean(1));
    assert!(mean(4) > mean(3), "s5 {} vs s4 {}", mean(4), mean(3));
}

#[test]
fn full_cleaning_strategies_clear_their_targets() {
    let (data, config) = small_experiment(true, 37);
    let strategies = [paper_strategy(5)];
    let result = Experiment::new(config).run(&data, &strategies).unwrap();
    for o in result.outcomes() {
        // Mean replacement erases missing and inconsistent completely…
        assert_eq!(o.treated_report.record_percentage(GlitchType::Missing), 0.0);
        assert_eq!(
            o.treated_report.record_percentage(GlitchType::Inconsistent),
            0.0
        );
        // …and value-based winsorization leaves no outliers behind.
        assert_eq!(o.treated_report.record_percentage(GlitchType::Outlier), 0.0);
    }
}

#[test]
fn experiments_are_deterministic_per_seed() {
    let (data, config) = small_experiment(false, 41);
    let strategies = [paper_strategy(1), paper_strategy(4)];
    let a = Experiment::new(config.clone())
        .run(&data, &strategies)
        .unwrap();
    let b = Experiment::new(config).run(&data, &strategies).unwrap();
    for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
        assert_eq!(x.improvement, y.improvement);
        assert_eq!(x.distortion, y.distortion);
        assert_eq!(x.cleaning, y.cleaning);
    }
}

#[test]
fn determinism_is_bit_identical_across_runs_and_thread_counts() {
    // Regression guard for the runner: outcomes must not depend on worker
    // scheduling. The engine reassembles results in replication order, so
    // one seed must yield bit-identical floats for any thread count and
    // across repeated runs.
    let (data, config) = small_experiment(true, 97);
    let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();

    let run_with_threads = |threads: usize| {
        let mut c = config.clone();
        c.threads = threads;
        Experiment::new(c).run(&data, &strategies).unwrap()
    };

    let single = run_with_threads(1);
    let again = run_with_threads(1);
    let dual = run_with_threads(2);
    assert_eq!(single.outcomes().len(), dual.outcomes().len());
    for ((a, b), c) in single
        .outcomes()
        .iter()
        .zip(again.outcomes())
        .zip(dual.outcomes())
    {
        // Bit-level equality, not approximate: the protocol derives every
        // RNG stream from (seed, replication, strategy), never from the
        // worker that happens to run it.
        assert_eq!(a.improvement.to_bits(), b.improvement.to_bits());
        assert_eq!(a.distortion.to_bits(), b.distortion.to_bits());
        assert_eq!(a.improvement.to_bits(), c.improvement.to_bits());
        assert_eq!(a.distortion.to_bits(), c.distortion.to_bits());
        assert_eq!(a.strategy_index, c.strategy_index);
        assert_eq!(a.replication, c.replication);
        assert_eq!(a.cleaning, c.cleaning);
    }
}

#[test]
fn log_factor_changes_outlier_detection_only() {
    // Table 1's missing/inconsistent columns are identical with and
    // without the log factor: those two detectors run on raw values. The
    // invariant is at the detector level — on the *same* series the flags
    // for missing and inconsistent are transform-independent, while the
    // outlier flags may differ.
    let data = generate(&NetsimConfig::small(53)).dataset;
    let constraints = ConstraintSet::paper_rules(0, 2);
    let log_tf = vec![
        AttributeTransform::log(),
        AttributeTransform::Identity,
        AttributeTransform::Identity,
    ];
    let raw_tf = vec![AttributeTransform::Identity; 3];
    let partition = partition_ideal(&data, &constraints, &log_tf, 3.0, 0.05).unwrap();
    let ideal = partition.ideal_dataset(&data);
    let with_log = GlitchDetector::new(
        constraints.clone(),
        Some(OutlierDetector::fit(&ideal, &log_tf, 3.0)),
    );
    let without = GlitchDetector::new(
        constraints,
        Some(OutlierDetector::fit(&ideal, &raw_tf, 3.0)),
    );
    let mut outlier_flags_differ = false;
    for series in data.series().iter().take(30) {
        let a = with_log.detect_series(series);
        let b = without.detect_series(series);
        for t in 0..series.len() {
            for attr in 0..3 {
                assert_eq!(
                    a.get(attr, GlitchType::Missing, t),
                    b.get(attr, GlitchType::Missing, t)
                );
                assert_eq!(
                    a.get(attr, GlitchType::Inconsistent, t),
                    b.get(attr, GlitchType::Inconsistent, t)
                );
                if a.get(attr, GlitchType::Outlier, t) != b.get(attr, GlitchType::Outlier, t) {
                    outlier_flags_differ = true;
                }
            }
        }
    }
    assert!(
        outlier_flags_differ,
        "the log factor must change at least some outlier decisions"
    );
}

#[test]
fn cost_sweep_monotone_in_fraction() {
    let (data, mut config) = small_experiment(true, 67);
    config.replications = 2;
    let sweep = CostSweepConfig {
        experiment: config,
        fractions: vec![0.0, 0.5, 1.0],
        strategies: vec![paper_strategy(5)],
        transport: TransportMode::Cold,
    };
    let points = cost_sweep(&data, &sweep).unwrap();
    // The engine sweep must match the preserved replication-granular
    // reference bit for bit (same seeds, same selections, same scores).
    let reference = cost_sweep_reference(&data, &sweep).unwrap();
    assert_eq!(points.len(), reference.len());
    for (a, b) in points.iter().zip(&reference) {
        assert_eq!(a.improvement.to_bits(), b.improvement.to_bits());
        assert_eq!(a.distortion.to_bits(), b.distortion.to_bits());
        assert_eq!(a.series_cleaned, b.series_cleaned);
    }
    for rep in 0..2 {
        let at = |f: f64| {
            points
                .iter()
                .find(|p| p.replication == rep && p.fraction == f)
                .unwrap()
        };
        assert_eq!(at(0.0).improvement, 0.0);
        assert!(at(1.0).improvement >= at(0.5).improvement);
        assert!(at(0.5).improvement > 0.0);
        assert!(at(1.0).series_cleaned == 15);
    }
}

#[test]
fn ideal_partition_respects_threshold() {
    let data = generate(&NetsimConfig::small(71)).dataset;
    let constraints = ConstraintSet::paper_rules(0, 2);
    let transforms = vec![
        AttributeTransform::log(),
        AttributeTransform::Identity,
        AttributeTransform::Identity,
    ];
    let partition = partition_ideal(&data, &constraints, &transforms, 3.0, 0.05).unwrap();
    assert!(!partition.ideal_indices.is_empty());
    assert!(!partition.dirty_indices.is_empty());
    assert_eq!(
        partition.ideal_indices.len() + partition.dirty_indices.len(),
        data.num_series()
    );
    // Re-verify the rule on the ideal partition.
    let ideal = partition.ideal_dataset(&data);
    let detector = GlitchDetector::new(
        constraints,
        Some(OutlierDetector::fit(&ideal, &transforms, 3.0)),
    );
    for idx in &partition.ideal_indices {
        let m = detector.detect_series(data.series_at(*idx));
        for g in [GlitchType::Missing, GlitchType::Inconsistent] {
            let rate = m.count_records(g) as f64 / m.len() as f64;
            assert!(rate < 0.05, "series {idx} breaks the ideal rule for {g}");
        }
    }
}

#[test]
fn budget_tradeoff_matches_figure2_narrative() {
    let points = budget_tradeoff(3000, 0.25, 5).unwrap();
    assert_eq!(points.len(), 3);
    assert!(points[0].glitch_improvement_pct > points[1].glitch_improvement_pct);
    assert!(points[1].glitch_improvement_pct > points[2].glitch_improvement_pct);
}

#[test]
fn windowed_experiment_emits_per_window_trajectories() {
    // The §3.3 online formulation end to end: slide a window over the
    // stream, calibrate per-window artifacts off the WindowedOutlierDetector
    // screen, clean with each strategy, and emit (improvement, distortion)
    // trajectories.
    let data = generate(&NetsimConfig::small(83)).dataset;
    let mut config = WindowedConfig::paper_default(20, 10, 83);
    config.threads = 2;
    let experiment = WindowedExperiment::new(config);
    let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
    let result = experiment.run(&data, &strategies).unwrap();

    assert_eq!(result.num_windows(), 5); // 60-step stream, window 20 stride 10
    assert_eq!(result.outcomes().len(), 5 * 5);
    for o in result.outcomes() {
        assert!(o.improvement.is_finite());
        assert!(o.distortion.is_finite() && o.distortion >= 0.0, "{o:?}");
        assert_eq!(o.end, o.start + 20);
    }
    for si in 0..5 {
        let trajectory = result.trajectory(si);
        assert_eq!(trajectory.len(), 5, "one point per window");
        assert!(
            trajectory.windows(2).all(|w| w[0].0 < w[1].0),
            "trajectory is in stream order"
        );
    }
    // Deep cleaning (strategy 1/5) must actually rewrite cells somewhere in
    // the stream and register positive improvement in at least one window.
    let deep: Vec<_> = result
        .outcomes()
        .iter()
        .filter(|o| o.strategy_index == 0 || o.strategy_index == 4)
        .collect();
    assert!(deep.iter().any(|o| o.cleaning.cells_changed() > 0));
    assert!(deep.iter().any(|o| o.improvement > 0.0));
    // The no-op-ish comparison: the windowed mode is deterministic.
    let again = experiment.run(&data, &strategies).unwrap();
    for (a, b) in result.outcomes().iter().zip(again.outcomes()) {
        assert_eq!(a.improvement.to_bits(), b.improvement.to_bits());
        assert_eq!(a.distortion.to_bits(), b.distortion.to_bits());
    }
}
