//! The §3.3 pipeline served online — sd-serve end to end.
//!
//! KPI rows arrive one at a time (here: a replay of a generated
//! telemetry stream), are routed to shard threads by tower hash, and
//! accumulate in bounded per-node ring buffers. Each time a window
//! completes, the service screens it, runs every cleaning strategy, and
//! kernel-scores improvement vs distortion — publishing the outcome as
//! a live [`WindowUpdate`] while the stream keeps flowing. The final
//! report is bit-identical to replaying the same rows through the batch
//! `WindowedExperiment`, which this example verifies at the end.
//!
//! Knobs: `SD_SHARDS` (ingestion shards, default 4), `SD_EVALUATORS`
//! (evaluator-pool size, default 2 — any value yields the same
//! bit-identical report; bigger pools only overlap more evaluation with
//! ingestion), `SD_SCALE` (`small` for the 100-sector smoke stream,
//! anything else for the 1 000-sector harness stream).
//!
//! Stdout carries only results that repeat run to run (the config line,
//! row and window counts, trajectories, the batch-equivalence verdict),
//! so two runs' stdouts diff clean. Lines that depend on timing or
//! thread scheduling — live-window polls, evaluation lags, ring
//! high-water, max pending windows — go to stderr.
//!
//! ```text
//! SD_SCALE=small cargo run --release --example streaming_service
//! ```

use statistical_distortion::core::{WindowedConfig, WindowedExperiment};
use statistical_distortion::prelude::*;

fn main() {
    let netsim = match std::env::var("SD_SCALE").as_deref() {
        Ok("small") => NetsimConfig::small(2024),
        _ => NetsimConfig::harness_scale(2024),
    };
    let shards = std::env::var("SD_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let evaluators = std::env::var("SD_EVALUATORS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let data = generate(&netsim).dataset;
    let nodes: Vec<NodeId> = data.series().iter().map(|s| s.node()).collect();
    let attributes: Vec<String> = data.attributes().iter().map(|a| a.name.clone()).collect();
    let rows = stream_rows(&data);

    let config = WindowedConfig::paper_default(30, 30, 42);
    let serve = ServeConfig::new(config.clone(), attributes)
        .with_shards(shards)
        .with_evaluators(evaluators);
    let strategies = vec![paper_strategy(1), paper_strategy(5)];
    println!(
        "stream: {} rows from {} nodes, {} shards, {} evaluators, ring capacity {} rows/node",
        rows.len(),
        nodes.len(),
        shards,
        evaluators,
        serve.ring_capacity(),
    );

    let service =
        StreamingService::launch(serve, nodes, strategies.clone()).expect("service launches");
    for row in rows {
        service.ingest(row).expect("row ingested");
    }
    // Drain whatever windows completed while we were still sending.
    while let Some(update) = service.try_next_window() {
        print_update(&update);
    }
    let report = service.finish().expect("stream finishes");
    let stats = report.stats();
    println!(
        "served {} rows -> {} windows",
        stats.rows_ingested, stats.windows_evaluated,
    );
    eprintln!(
        "ring high-water {}/{} rows",
        stats.ring_high_water, stats.ring_capacity,
    );
    let (mean_wait, mean_eval) = stats.mean_lag_us();
    eprintln!(
        "evaluation lag: mean queue-wait {mean_wait:.0} us, mean evaluate {mean_eval:.0} us, \
         max {} windows pending",
        stats.max_pending_windows,
    );
    for lag in &stats.window_lags {
        eprintln!(
            "  window {}: waited {} us, evaluated in {} us",
            lag.window_index, lag.queue_wait_us, lag.evaluate_us,
        );
    }
    for (si, _) in strategies.iter().enumerate() {
        let trajectory = report.trajectory(si);
        let name = &report.outcomes()[si].strategy;
        print!("strategy {name}:");
        for (w, improvement, distortion) in trajectory {
            print!("  [w{w}] imp {improvement:+.1} emd {distortion:.4}");
        }
        println!();
    }

    // The batch replay of the same rows must tell the same story, bit
    // for bit — the serving layer's core contract.
    let batch = WindowedExperiment::new(config)
        .run(&data, &strategies)
        .expect("batch replay succeeds");
    let identical = batch.screens() == report.screens()
        && batch.outcomes().len() == report.outcomes().len()
        && batch
            .outcomes()
            .iter()
            .zip(report.outcomes())
            .all(|(x, y)| {
                x.improvement.to_bits() == y.improvement.to_bits()
                    && x.distortion.to_bits() == y.distortion.to_bits()
            });
    println!(
        "batch replay equivalence: {}",
        if identical {
            "BIT-IDENTICAL"
        } else {
            "DIVERGED"
        }
    );
    if !identical {
        std::process::exit(1);
    }
}

fn print_update(update: &WindowUpdate) {
    let flagged: usize = update.screen.history_flagged.iter().sum::<usize>()
        + update.screen.structural_flagged.iter().sum::<usize>();
    eprintln!(
        "live window {} [{}, {}): {} cells screened out, {} strategies scored",
        update.window_index,
        update.screen.start,
        update.screen.end,
        flagged,
        update.outcomes.len(),
    );
}
