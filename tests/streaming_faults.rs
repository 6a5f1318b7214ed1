//! Serving-layer fault and resource contracts: bounded channels apply
//! backpressure instead of dropping rows, per-node ring memory stays at
//! its configured bound no matter how long the stream runs, and shard
//! failures — structured errors and outright thread panics — surface as
//! `FrameworkError::ShardFailed` without wedging the service.

use statistical_distortion::core::{FrameworkError, WindowedConfig, WindowedExperiment};
use statistical_distortion::prelude::*;
use statistical_distortion::serve::shard_of;

fn nodes_of(data: &Dataset) -> Vec<NodeId> {
    data.series().iter().map(|s| s.node()).collect()
}

fn attributes_of(data: &Dataset) -> Vec<String> {
    data.attributes().iter().map(|a| a.name.clone()).collect()
}

/// Capacity-1 channels everywhere: every send can block, so if the
/// service dropped rows under a full channel this stream could not
/// reproduce the batch outcomes or the exact ingestion counter.
#[test]
fn capacity_one_channels_block_rather_than_drop() {
    let data = generate(&NetsimConfig::small(83)).dataset;
    let strategies = [paper_strategy(5)];
    let config = WindowedConfig::paper_default(20, 10, 83);
    let batch = WindowedExperiment::new(config.clone())
        .run(&data, &strategies)
        .unwrap();
    let serve = ServeConfig::new(config, attributes_of(&data))
        .with_shards(4)
        .with_channel_capacity(1);
    let service = StreamingService::launch(serve, nodes_of(&data), strategies.to_vec()).unwrap();
    for row in stream_rows(&data) {
        service.ingest(row).unwrap();
    }
    let report = service.finish().unwrap();
    assert_eq!(report.stats().rows_ingested as usize, data.num_records());
    assert_eq!(report.num_windows(), batch.screens().len());
    for (x, y) in batch.outcomes().iter().zip(report.outcomes()) {
        assert_eq!(x.distortion.to_bits(), y.distortion.to_bits());
        assert_eq!(x.improvement.to_bits(), y.improvement.to_bits());
    }
}

/// A stream 30× longer than the window: ring occupancy must peak at the
/// configured `2 · window` bound, not grow with the stream.
#[test]
fn ring_memory_is_bounded_by_geometry_not_stream_length() {
    let config = NetsimConfig::for_topology(Topology::new(1, 2, 2), 300, 9);
    let data = generate(&config).dataset;
    let windowed = WindowedConfig::paper_default(10, 5, 9);
    let serve = ServeConfig::new(windowed, attributes_of(&data)).with_shards(2);
    let ring_capacity = serve.ring_capacity();
    assert_eq!(ring_capacity, 20);
    let service =
        StreamingService::launch(serve, nodes_of(&data), vec![paper_strategy(1)]).unwrap();
    for row in stream_rows(&data) {
        service.ingest(row).unwrap();
    }
    let report = service.finish().unwrap();
    assert_eq!(report.num_windows(), (300 - 10) / 5 + 1);
    assert!(
        report.stats().ring_high_water <= ring_capacity,
        "ring occupancy {} exceeded the configured bound {ring_capacity}",
        report.stats().ring_high_water
    );
    // The bound is also tight: full windows really do pass through.
    assert!(report.stats().ring_high_water >= 10);
}

/// A row for a node the service was never configured with is a
/// structured shard failure, not a panic or a silent drop.
#[test]
fn unknown_node_surfaces_as_shard_failed() {
    let data = generate(&NetsimConfig::small(17)).dataset;
    let config = WindowedConfig::paper_default(20, 10, 17);
    let serve = ServeConfig::new(config, attributes_of(&data)).with_shards(2);
    let service =
        StreamingService::launch(serve, nodes_of(&data), vec![paper_strategy(1)]).unwrap();
    let intruder = NodeId::new(900, 900, 900);
    let row = statistical_distortion::data::ArrivalRow {
        node: intruder,
        t: 0,
        values: vec![1.0, 1.0, 0.5],
    };
    // The first send reaches the shard, which rejects it and shuts down;
    // the failure surfaces at finish (and on any later send to the shard).
    service.ingest(row).unwrap();
    match service.finish() {
        Err(FrameworkError::ShardFailed { shard, detail }) => {
            assert_eq!(shard, shard_of(intruder, 2));
            assert!(detail.contains("does not own it"), "detail: {detail}");
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}

/// Rows must arrive in per-node time order; a gap is a structured
/// failure naming the offending shard.
#[test]
fn out_of_order_row_surfaces_as_shard_failed() {
    let data = generate(&NetsimConfig::small(17)).dataset;
    let nodes = nodes_of(&data);
    let config = WindowedConfig::paper_default(20, 10, 17);
    let serve = ServeConfig::new(config, attributes_of(&data)).with_shards(2);
    let service = StreamingService::launch(serve, nodes.clone(), vec![paper_strategy(1)]).unwrap();
    let row = statistical_distortion::data::ArrivalRow {
        node: nodes[0],
        t: 5,
        values: vec![1.0, 1.0, 0.5],
    };
    service.ingest(row).unwrap();
    match service.finish() {
        Err(FrameworkError::ShardFailed { shard, detail }) => {
            assert_eq!(shard, shard_of(nodes[0], 2));
            assert!(detail.contains("out of order"), "detail: {detail}");
        }
        other => panic!("expected ShardFailed, got {other:?}"),
    }
}

/// A panicking shard thread (here: a malformed row tripping the ring's
/// arity assertion) must not wedge the service: later sends to the dead
/// shard fail fast with `ShardFailed`, and `finish` reports the panic as
/// a structured error rather than hanging or unwinding.
#[test]
fn panicking_shard_surfaces_as_shard_failed_without_hanging() {
    let data = generate(&NetsimConfig::small(29)).dataset;
    let nodes = nodes_of(&data);
    let config = WindowedConfig::paper_default(20, 10, 29);
    let serve = ServeConfig::new(config, attributes_of(&data)).with_shards(2);
    let service = StreamingService::launch(serve, nodes.clone(), vec![paper_strategy(1)]).unwrap();
    let victim = nodes[0];
    let bad = statistical_distortion::data::ArrivalRow {
        node: victim,
        t: 0,
        values: vec![1.0], // three attributes expected — panics the ring
    };
    service.ingest(bad).unwrap();
    // Keep feeding the dead shard until its channel reports the death;
    // bounded retries prove the producer is unblocked, not hung.
    let mut observed = None;
    for _ in 0..10_000 {
        let probe = statistical_distortion::data::ArrivalRow {
            node: victim,
            t: 1,
            values: vec![1.0, 1.0, 0.5],
        };
        if let Err(e) = service.ingest(probe) {
            observed = Some(e);
            break;
        }
    }
    match observed {
        Some(FrameworkError::ShardFailed { shard, .. }) => {
            assert_eq!(shard, shard_of(victim, 2));
        }
        other => panic!("expected ShardFailed from ingest, got {other:?}"),
    }
    match service.finish() {
        Err(FrameworkError::ShardFailed { shard, detail }) => {
            assert_eq!(shard, shard_of(victim, 2));
            assert!(detail.contains("panicked"), "detail: {detail}");
        }
        other => panic!("expected ShardFailed from finish, got {other:?}"),
    }
}

/// A panicking evaluator worker — induced via the config's fault hook —
/// must surface from `finish` as a structured
/// `FrameworkError::EvaluatorFailed`, not a hang: the producer keeps
/// ingesting, the surviving workers drain, and the dead worker is
/// reported by index.
#[test]
fn panicking_evaluator_surfaces_as_evaluator_failed_without_hanging() {
    let data = generate(&NetsimConfig::small(41)).dataset;
    let config = WindowedConfig::paper_default(20, 10, 41);
    for evaluators in [1, 3] {
        let serve = ServeConfig::new(config.clone(), attributes_of(&data))
            .with_shards(2)
            .with_evaluators(evaluators)
            .with_evaluator_panic_at(1);
        let service =
            StreamingService::launch(serve, nodes_of(&data), vec![paper_strategy(1)]).unwrap();
        for row in stream_rows(&data) {
            service.ingest(row).unwrap();
        }
        match service.finish() {
            Err(FrameworkError::EvaluatorFailed { evaluator, detail }) => {
                assert!(evaluator < evaluators, "worker index out of pool range");
                assert!(detail.contains("panicked"), "detail: {detail}");
            }
            other => panic!("expected EvaluatorFailed with {evaluators} workers, got {other:?}"),
        }
    }
}

/// Launch-time validation: impossible geometries, zero-bin grid metrics
/// and duplicate nodes are rejected before any thread spawns.
#[test]
fn launch_rejects_invalid_configurations() {
    let data = generate(&NetsimConfig::small(3)).dataset;
    let nodes = nodes_of(&data);
    let attrs = attributes_of(&data);
    let config = WindowedConfig::paper_default(20, 10, 3);

    let no_shards = ServeConfig::new(config.clone(), attrs.clone()).with_shards(0);
    assert!(matches!(
        StreamingService::launch(no_shards, nodes.clone(), vec![paper_strategy(1)]),
        Err(FrameworkError::InvalidConfig(_))
    ));

    let no_capacity = ServeConfig::new(config.clone(), attrs.clone()).with_channel_capacity(0);
    assert!(matches!(
        StreamingService::launch(no_capacity, nodes.clone(), vec![paper_strategy(1)]),
        Err(FrameworkError::InvalidConfig(_))
    ));

    let mut zero_bins = config.clone();
    zero_bins.metrics.push(DistortionMetric::Energy { bins: 0 });
    let zero_bins = ServeConfig::new(zero_bins, attrs.clone());
    assert!(matches!(
        StreamingService::launch(zero_bins, nodes.clone(), vec![paper_strategy(1)]),
        Err(FrameworkError::InvalidConfig(_))
    ));

    let ok = ServeConfig::new(config.clone(), attrs.clone());
    assert!(matches!(
        StreamingService::launch(ok.clone(), nodes.clone(), vec![]),
        Err(FrameworkError::InvalidConfig(_))
    ));

    let mut twice = nodes.clone();
    twice.push(nodes[0]);
    assert!(matches!(
        StreamingService::launch(ok, twice, vec![paper_strategy(1)]),
        Err(FrameworkError::InvalidConfig(_))
    ));
}

/// A zero σ multiplier would panic inside every window's detector; launch
/// rejects it, as `WindowedExperiment::run_with` does.
#[test]
fn launch_rejects_a_zero_sigma_multiplier() {
    let data = generate(&NetsimConfig::small(3)).dataset;
    let mut config = WindowedConfig::paper_default(20, 10, 3);
    config.sigma_k = 0.0;
    let serve = ServeConfig::new(config, attributes_of(&data));
    assert!(matches!(
        StreamingService::launch(serve, nodes_of(&data), vec![paper_strategy(1)]),
        Err(FrameworkError::InvalidConfig(_))
    ));
}

/// A NaN σ multiplier is rejected at launch too.
#[test]
fn launch_rejects_a_nan_sigma_multiplier() {
    let data = generate(&NetsimConfig::small(3)).dataset;
    let mut config = WindowedConfig::paper_default(20, 10, 3);
    config.sigma_k = f64::NAN;
    let serve = ServeConfig::new(config, attributes_of(&data));
    assert!(matches!(
        StreamingService::launch(serve, nodes_of(&data), vec![paper_strategy(1)]),
        Err(FrameworkError::InvalidConfig(_))
    ));
}

/// A constraint naming an attribute the rows do not carry is rejected at
/// launch instead of panicking in an evaluator.
#[test]
fn launch_rejects_constraints_beyond_the_attributes() {
    let data = generate(&NetsimConfig::small(3)).dataset;
    let mut config = WindowedConfig::paper_default(20, 10, 3);
    let beyond = attributes_of(&data).len();
    config.constraints = ConstraintSet::new(vec![Constraint::NonNegative { attr: beyond }]);
    let serve = ServeConfig::new(config, attributes_of(&data));
    assert!(matches!(
        StreamingService::launch(serve, nodes_of(&data), vec![paper_strategy(1)]),
        Err(FrameworkError::InvalidConfig(_))
    ));
}
