//! The streaming service's contract: feeding the same rows through
//! `sd-serve` produces per-window outcomes **bit-identical** to the
//! batch `WindowedExperiment` replay — for every pooling policy, every
//! metric set, every shard count, and ragged stream horizons. Both
//! paths share one implementation (`NodeState` rings feeding
//! `calibrate_window` / `evaluate_window_artifacts`), and these tests
//! are the proof that the sharded, channel-driven arrangement of that
//! implementation changes nothing.

use statistical_distortion::core::{
    DistortionMetric, NeighborPooling, WindowOutcome, WindowedConfig, WindowedExperiment,
    WindowedResult,
};
use statistical_distortion::prelude::*;
use statistical_distortion::serve::shard_of;

fn small_stream(seed: u64) -> (Dataset, Topology) {
    let config = NetsimConfig::small(seed);
    (generate(&config).dataset, config.topology)
}

fn nodes_of(data: &Dataset) -> Vec<NodeId> {
    data.series().iter().map(|s| s.node()).collect()
}

fn attributes_of(data: &Dataset) -> Vec<String> {
    data.attributes().iter().map(|a| a.name.clone()).collect()
}

fn serve_stream(
    data: &Dataset,
    config: &WindowedConfig,
    strategies: &[CompositeStrategy],
    shards: usize,
) -> StreamReport {
    let serve = ServeConfig::new(config.clone(), attributes_of(data)).with_shards(shards);
    serve_configured(data, serve, strategies)
}

fn serve_configured(
    data: &Dataset,
    serve: ServeConfig,
    strategies: &[CompositeStrategy],
) -> StreamReport {
    let service = StreamingService::launch(serve, nodes_of(data), strategies.to_vec()).unwrap();
    for row in stream_rows(data) {
        service.ingest(row).unwrap();
    }
    service.finish().unwrap()
}

fn assert_outcomes_bit_identical(batch: &[WindowOutcome], stream: &[WindowOutcome], label: &str) {
    assert_eq!(batch.len(), stream.len(), "{label}: outcome count");
    for (x, y) in batch.iter().zip(stream) {
        let at = format!(
            "{label}: window {} strategy {}",
            x.window_index, x.strategy_index
        );
        assert_eq!(x.window_index, y.window_index, "{at}: window index");
        assert_eq!(x.strategy_index, y.strategy_index, "{at}: strategy index");
        assert_eq!((x.start, x.end), (y.start, y.end), "{at}: bounds");
        assert_eq!(x.strategy, y.strategy, "{at}: name");
        assert_eq!(
            x.improvement.to_bits(),
            y.improvement.to_bits(),
            "{at}: improvement"
        );
        assert_eq!(
            x.distortion.to_bits(),
            y.distortion.to_bits(),
            "{at}: distortion"
        );
        assert_eq!(x.distortions.len(), y.distortions.len(), "{at}: metrics");
        for (dx, dy) in x.distortions.iter().zip(&y.distortions) {
            assert_eq!(dx.metric, dy.metric, "{at}: metric order");
            assert_eq!(
                dx.value.to_bits(),
                dy.value.to_bits(),
                "{at}: {} value",
                dx.metric
            );
        }
        assert_eq!(x.cleaning, y.cleaning, "{at}: cleaning counters");
        assert_eq!(x.dirty_report, y.dirty_report, "{at}: dirty report");
        assert_eq!(x.treated_report, y.treated_report, "{at}: treated report");
    }
}

fn assert_equivalent(batch: &WindowedResult, stream: &StreamReport, label: &str) {
    assert_eq!(batch.screens(), stream.screens(), "{label}: screens");
    assert_outcomes_bit_identical(batch.outcomes(), stream.outcomes(), label);
}

/// Every pooling policy: one seeded stream through sd-serve equals the
/// batch replay bit for bit — screens (per-node flag trajectories)
/// included.
#[test]
fn streaming_matches_batch_for_every_pooling_policy() {
    let (data, topology) = small_stream(31);
    let strategies = [paper_strategy(1), paper_strategy(5)];
    for pooling in [
        NeighborPooling::OwnOnly,
        NeighborPooling::KHop { hops: 1 },
        NeighborPooling::KHop { hops: 2 },
        NeighborPooling::Weighted {
            tower: 1.0,
            rnc: 0.3,
        },
    ] {
        let config = WindowedConfig::paper_default(20, 10, 31).with_topology(topology, pooling);
        let batch = WindowedExperiment::new(config.clone())
            .run(&data, &strategies)
            .unwrap();
        let stream = serve_stream(&data, &config, &strategies, 4);
        assert_equivalent(&batch, &stream, &format!("{pooling:?}"));
    }
}

/// Every shard count the issue names (1, 2, 4, 8) and a multi-kernel
/// metric set: same outcomes, including the secondary metric values.
#[test]
fn streaming_matches_batch_across_shard_counts_and_metric_sets() {
    let (data, _) = small_stream(47);
    let strategies = [paper_strategy(2), paper_strategy(4)];
    let metric_sets: [Vec<DistortionMetric>; 2] = [
        vec![DistortionMetric::paper_default()],
        vec![
            DistortionMetric::paper_default(),
            DistortionMetric::KolmogorovSmirnov,
            DistortionMetric::Mahalanobis,
            DistortionMetric::Energy { bins: 8 },
        ],
    ];
    for metrics in metric_sets {
        let mut config = WindowedConfig::paper_default(20, 20, 47);
        config.metrics = metrics;
        let batch = WindowedExperiment::new(config.clone())
            .run(&data, &strategies)
            .unwrap();
        for shards in [1, 2, 4, 8] {
            let stream = serve_stream(&data, &config, &strategies, shards);
            assert_equivalent(
                &batch,
                &stream,
                &format!("{} metrics, {shards} shards", config.metrics.len()),
            );
            assert_eq!(stream.stats().shards, shards);
            assert_eq!(stream.stats().rows_ingested as usize, data.num_records());
        }
    }
}

/// The pipelined-collector contract: every evaluator-pool size, crossed
/// with every shard count the issue names, produces the same
/// `StreamReport` bit for bit — and the same bits as the batch replay.
/// Deterministic per-window jitter scrambles completion order inside the
/// pool, so the reorder stage (not scheduling luck) is what the test
/// exercises.
#[test]
fn streaming_matches_batch_across_evaluator_pools_and_shards() {
    let (data, _) = small_stream(101);
    let strategies = [paper_strategy(1), paper_strategy(4)];
    let config = WindowedConfig::paper_default(20, 15, 101);
    let batch = WindowedExperiment::new(config.clone())
        .run(&data, &strategies)
        .unwrap();
    for evaluators in [1, 2, 4] {
        for shards in [1, 2, 4, 8] {
            let serve = ServeConfig::new(config.clone(), attributes_of(&data))
                .with_shards(shards)
                .with_evaluators(evaluators)
                .with_evaluation_jitter(0xC0FFEE ^ (evaluators * 16 + shards) as u64, 400);
            let stream = serve_configured(&data, serve, &strategies);
            let label = format!("{evaluators} evaluators, {shards} shards");
            assert_equivalent(&batch, &stream, &label);
            let stats = stream.stats();
            assert_eq!(stats.evaluators, evaluators, "{label}");
            assert_eq!(stats.shards, shards, "{label}");
            assert_eq!(stats.window_lags.len(), stats.windows_evaluated, "{label}");
            // Lags publish in window order, and the pipeline depth stays
            // within its structural bound.
            for (i, lag) in stats.window_lags.iter().enumerate() {
                assert_eq!(lag.window_index, i, "{label}");
            }
            assert!(
                stats.max_pending_windows <= 2 * evaluators + 1,
                "{label}: depth {}",
                stats.max_pending_windows
            );
        }
    }
}

/// Ragged streams: series end at different horizons, so the tail
/// windows are clipped for some nodes and empty for others — the
/// streaming close-flush must settle them exactly as the batch slices
/// do.
#[test]
fn streaming_matches_batch_on_ragged_horizons() {
    let (data, _) = small_stream(59);
    let series = data
        .series()
        .iter()
        .enumerate()
        .map(|(i, s)| s.slice(0, s.len() - (i % 4) * 9))
        .collect();
    let ragged = Dataset::new(
        data.attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect::<Vec<_>>(),
        series,
    )
    .unwrap();
    let strategies = [paper_strategy(5)];
    let config = WindowedConfig::paper_default(20, 10, 59);
    let batch = WindowedExperiment::new(config.clone())
        .run(&ragged, &strategies)
        .unwrap();
    for shards in [1, 3, 8] {
        let stream = serve_stream(&ragged, &config, &strategies, shards);
        assert_equivalent(&batch, &stream, &format!("ragged, {shards} shards"));
    }
}

/// The live update feed tells the same story as the final report: one
/// update per window, in stream order, with the same outcomes.
#[test]
fn live_updates_replay_the_final_report() {
    let (data, _) = small_stream(71);
    let strategies = vec![paper_strategy(3)];
    let config = WindowedConfig::paper_default(20, 10, 71);
    let serve = ServeConfig::new(config, attributes_of(&data)).with_shards(2);
    let service = StreamingService::launch(serve, nodes_of(&data), strategies).unwrap();
    for row in stream_rows(&data) {
        service.ingest(row).unwrap();
    }
    let mut updates = Vec::new();
    // All rows are in flight, so every full window eventually completes;
    // the clipped tail (windows 4 with end > 60) settles only at finish.
    for expected in 0..4 {
        let update = service.next_window().unwrap();
        assert_eq!(update.window_index, expected);
        updates.push(update);
    }
    let report = service.finish().unwrap();
    assert_eq!(report.num_windows(), 5);
    for update in &updates {
        assert_eq!(&report.screens()[update.window_index], &update.screen);
        assert_outcomes_bit_identical(
            &report.outcomes()[update.window_index..update.window_index + 1],
            &update.outcomes[..1],
            "live update",
        );
    }
}

/// Sharding is a pure function of the node address, so a node's rows
/// always meet the same ring regardless of service instance.
#[test]
fn shard_routing_is_stable_across_launches() {
    let (data, _) = small_stream(5);
    for node in nodes_of(&data) {
        for shards in [1, 2, 4, 8] {
            assert_eq!(shard_of(node, shards), shard_of(node, shards));
            assert!(shard_of(node, shards) < shards);
        }
    }
}

/// Hostile KPI values: cells set to ±inf and ±1e300 go through the
/// history screen, calibration and scoring without an error, a panic or a
/// non-finite distortion, and the stream still replays the batch run bit
/// for bit — under every pooling policy.
#[test]
fn hostile_kpi_values_stay_finite_and_stream_equals_batch() {
    let (mut data, topology) = small_stream(43);
    let hostile = [f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
    let (series, attributes) = (data.num_series(), data.num_attributes());
    for (k, &value) in hostile.iter().enumerate() {
        for j in 0..3 {
            let i = (5 * k + 17 * j + 3) % series;
            let t = 7 + 11 * j + 3 * k;
            data.series_mut()[i].set((k + j) % attributes, t, value);
            // A second hit one step later puts the value in the next
            // cell's history as well.
            data.series_mut()[i].set((k + j) % attributes, t + 1, value);
        }
    }
    let strategies = [paper_strategy(1), paper_strategy(5)];
    for pooling in [
        NeighborPooling::OwnOnly,
        NeighborPooling::KHop { hops: 1 },
        NeighborPooling::Weighted {
            tower: 1.0,
            rnc: 0.3,
        },
    ] {
        let label = format!("hostile {pooling:?}");
        let config = WindowedConfig::paper_default(20, 10, 43).with_topology(topology, pooling);
        let batch = match WindowedExperiment::new(config.clone()).run(&data, &strategies) {
            Ok(batch) => batch,
            Err(e) => panic!("{label}: batch run failed: {e}"),
        };
        assert!(batch.num_windows() > 0, "{label}: no windows");
        for outcome in batch.outcomes() {
            assert!(
                outcome.distortion.is_finite(),
                "{label}: window {} strategy {} distortion {}",
                outcome.window_index,
                outcome.strategy_index,
                outcome.distortion
            );
            assert!(outcome.distortions.iter().all(|d| d.value.is_finite()));
        }
        let serve = ServeConfig::new(config, attributes_of(&data)).with_shards(2);
        let service = StreamingService::launch(serve, nodes_of(&data), strategies.to_vec())
            .unwrap_or_else(|e| panic!("{label}: launch failed: {e}"));
        for row in stream_rows(&data) {
            if let Err(e) = service.ingest(row) {
                panic!("{label}: ingest failed: {e}");
            }
        }
        let stream = match service.finish() {
            Ok(stream) => stream,
            Err(e) => panic!("{label}: stream run failed: {e}"),
        };
        assert_equivalent(&batch, &stream, &label);
    }
}
