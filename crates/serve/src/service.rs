//! The streaming service: producer-facing ingestion, live window updates,
//! and the final report.

use crate::collector::{AssemblerOutput, Collector, UpdateFeed, WindowUpdate};
use crate::evaluator::{spawn_evaluator_pool, DepthGauge, ReorderOutput, WindowLag};
use crate::shard::{spawn_collector, spawn_shard, ShardMsg, ShardWorker};
use crate::{shard_of, ServeConfig};
use sd_cleaning::CompositeStrategy;
use sd_core::{resolve_neighbor_views, FrameworkError, Result, WindowOutcome, WindowScreen};
use sd_data::{ArrivalRow, NodeId};
use std::sync::mpsc::{channel, sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Aggregate statistics of one served stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Number of ingestion shards.
    pub shards: usize,
    /// Size of the evaluator-worker pool.
    pub evaluators: usize,
    /// Rows ingested across all shards.
    pub rows_ingested: u64,
    /// Highest per-node ring occupancy any shard ever observed. Bounded
    /// memory means this never exceeds `ring_capacity`.
    pub ring_high_water: usize,
    /// The configured per-node ring capacity
    /// ([`ServeConfig::ring_capacity`]).
    pub ring_capacity: usize,
    /// Windows calibrated and evaluated.
    pub windows_evaluated: usize,
    /// High-water mark of windows dispatched to the evaluator pool but
    /// not yet published by the reorder stage — how deep the pipeline
    /// actually ran. Never exceeds `2 · evaluators + 1` (queue capacity
    /// plus in-flight evaluations plus one reorder slot).
    pub max_pending_windows: usize,
    /// Per-window evaluation lag — queue wait and evaluate time — in
    /// window order. Timings are observability, not results: they vary
    /// run to run while every outcome stays bit-identical.
    pub window_lags: Vec<WindowLag>,
}

impl ServeStats {
    /// `(mean queue-wait µs, mean evaluate µs)` across all windows;
    /// zeros for an empty stream.
    pub fn mean_lag_us(&self) -> (f64, f64) {
        if self.window_lags.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.window_lags.len() as f64;
        let wait: u64 = self.window_lags.iter().map(|l| l.queue_wait_us).sum();
        let eval: u64 = self.window_lags.iter().map(|l| l.evaluate_us).sum();
        (wait as f64 / n, eval as f64 / n)
    }
}

/// Everything a finished stream produced — the streaming analogue of
/// [`sd_core::WindowedResult`], plus serving statistics.
#[derive(Debug, Clone)]
pub struct StreamReport {
    outcomes: Vec<WindowOutcome>,
    screens: Vec<WindowScreen>,
    metrics: Vec<&'static str>,
    stats: ServeStats,
}

impl StreamReport {
    /// Every `(window, strategy)` outcome, in `(window, strategy)` order —
    /// bit-identical to [`sd_core::WindowedResult::outcomes`] on the same
    /// stream.
    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }

    /// Per-window calibration screens, in stream order.
    pub fn screens(&self) -> &[WindowScreen] {
        &self.screens
    }

    /// Number of windows evaluated.
    pub fn num_windows(&self) -> usize {
        self.screens.len()
    }

    /// The scored metric names, in configuration order.
    pub fn metrics(&self) -> &[&'static str] {
        &self.metrics
    }

    /// Serving statistics (rows, ring occupancy, shard count, lags).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// One strategy's per-window `(window_index, improvement, distortion)`
    /// trajectory under the primary metric, in stream order.
    pub fn trajectory(&self, strategy_index: usize) -> Vec<(usize, f64, f64)> {
        self.outcomes
            .iter()
            .filter(|o| o.strategy_index == strategy_index)
            .map(|o| (o.window_index, o.improvement, o.distortion))
            .collect()
    }
}

/// A live sharded ingestion service running the §3.3 windowed cleaning
/// pipeline.
///
/// Rows stream in via [`StreamingService::ingest`] (any interleaving
/// across nodes; time-ordered per node), shards maintain bounded
/// per-node ring buffers, completed windows are dispatched to a bounded
/// pool of evaluator workers, and a reorder stage publishes every
/// calibrated, cleaned, kernel-scored window strictly in stream order —
/// emitting [`WindowUpdate`]s live and a [`StreamReport`] at
/// [`StreamingService::finish`] whose outcomes are bit-identical to
/// running [`sd_core::WindowedExperiment`] over the materialized stream,
/// at every pool size.
///
/// ```
/// use sd_cleaning::paper_strategy;
/// use sd_core::WindowedConfig;
/// use sd_data::ArrivalRow;
/// use sd_netsim::{generate, stream_rows, NetsimConfig};
/// use sd_serve::{ServeConfig, StreamingService};
///
/// let config = NetsimConfig::small(7);
/// let data = generate(&config).dataset;
/// let nodes = data.series().iter().map(|s| s.node()).collect();
/// let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
/// let serve = ServeConfig::new(WindowedConfig::paper_default(30, 30, 7), attributes)
///     .with_shards(2)
///     .with_evaluators(2);
/// let service = StreamingService::launch(serve, nodes, vec![paper_strategy(5)]).unwrap();
/// for row in stream_rows(&data) {
///     service.ingest(row).unwrap();
/// }
/// let report = service.finish().unwrap();
/// assert_eq!(report.num_windows(), 2);
/// assert_eq!(report.stats().rows_ingested, 6000);
/// ```
pub struct StreamingService {
    senders: Vec<SyncSender<ShardMsg>>,
    shard_handles: Vec<JoinHandle<()>>,
    collector: JoinHandle<std::result::Result<AssemblerOutput, FrameworkError>>,
    evaluator_handles: Vec<JoinHandle<()>>,
    reorder: JoinHandle<ReorderOutput>,
    depth: Arc<DepthGauge>,
    updates: UpdateFeed,
    metrics: Vec<&'static str>,
    shards: usize,
    evaluators: usize,
    ring_capacity: usize,
}

impl StreamingService {
    /// Validates the configuration and spawns the shard, collector,
    /// evaluator, and reorder threads. `nodes[i]` is the node whose rows
    /// form series `i` of the stream — series order, like the batch
    /// dataset's, fixes outcome order regardless of sharding or pool
    /// size.
    pub fn launch(
        config: ServeConfig,
        nodes: Vec<NodeId>,
        strategies: Vec<CompositeStrategy>,
    ) -> Result<Self> {
        config.validate(&nodes)?;
        if strategies.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "a streaming service needs at least one strategy".into(),
            ));
        }
        let neighbors = resolve_neighbor_views(
            config.windowed.pooling,
            config.windowed.topology.as_ref(),
            &nodes,
        )?;
        let metrics: Vec<&'static str> = config
            .windowed
            .metrics
            .iter()
            .map(sd_core::DistortionMetric::name)
            .collect();
        let shards = config.shards;
        let evaluators = config.evaluators;
        let ring_capacity = config.ring_capacity();
        let num_attributes = config.attributes.len();

        // Shard → collector: one bounded channel shared by every shard
        // (per-shard FIFO is what the collector's in-order dispatch
        // relies on). The original sender is dropped below so the channel
        // disconnects as soon as the last shard exits.
        let (emit, emit_rx) = sync_channel(config.channel_capacity);
        let (updates_tx, updates_rx) = channel();

        let mut per_shard: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); shards];
        for (series, &node) in nodes.iter().enumerate() {
            per_shard[shard_of(node, shards)].push((series, node));
        }

        // Evaluation stage first: the collector needs its dispatch
        // sender. Dropping the Collector at end of stream closes that
        // sender, which drains and retires the pool.
        let pool = spawn_evaluator_pool(&config, strategies, neighbors, updates_tx);
        let depth = Arc::clone(&pool.depth);

        let collector = Collector::new(config.clone(), nodes, pool.dispatch, Arc::clone(&depth));
        let collector = spawn_collector(move || collector.run(&emit_rx));

        let mut senders = Vec::with_capacity(shards);
        let mut shard_handles = Vec::with_capacity(shards);
        for (shard, owned) in per_shard.into_iter().enumerate() {
            let worker = ShardWorker::new(
                shard,
                &config.windowed,
                ring_capacity,
                num_attributes,
                owned,
                emit.clone(),
            );
            let (tx, rx) = sync_channel(config.channel_capacity);
            senders.push(tx);
            shard_handles.push(spawn_shard(worker, rx));
        }
        drop(emit);

        Ok(StreamingService {
            senders,
            shard_handles,
            collector,
            evaluator_handles: pool.workers,
            reorder: pool.reorder,
            depth,
            updates: UpdateFeed::new(updates_rx),
            metrics,
            shards,
            evaluators,
            ring_capacity,
        })
    }

    /// Routes one row to its shard, blocking while that shard's bounded
    /// channel is full (backpressure — rows are never dropped). Fails
    /// with [`FrameworkError::ShardFailed`] if the shard has terminated.
    pub fn ingest(&self, row: ArrivalRow) -> Result<()> {
        let shard = shard_of(row.node, self.shards);
        self.senders[shard]
            .send(ShardMsg::Row(row))
            .map_err(|_| FrameworkError::ShardFailed {
                shard,
                detail: "its ingest channel is closed (worker terminated)".into(),
            })
    }

    /// Non-blocking poll for the next completed window, in stream order.
    pub fn try_next_window(&self) -> Option<WindowUpdate> {
        self.updates.try_next()
    }

    /// Blocks until the next window completes; `None` once the reorder
    /// stage has exited. Only call when enough rows are in flight to
    /// complete a window — the stream cannot finish a window it was
    /// never fed.
    pub fn next_window(&self) -> Option<WindowUpdate> {
        self.updates.next()
    }

    /// Ends the stream: flushes clipped tail windows, joins every thread,
    /// and returns the report. A panicked shard, evaluator, or collector
    /// surfaces as a structured [`FrameworkError`] — the service never
    /// wedges. Attribution order: a panicked shard first (it starves
    /// everything downstream), then the reorder stage's in-order
    /// evaluation error, then a panicked evaluator, then the collector's
    /// own error.
    pub fn finish(self) -> Result<StreamReport> {
        for sender in &self.senders {
            // A dead shard already surfaced (or will) via join below.
            let _ = sender.send(ShardMsg::Close);
        }
        drop(self.senders);
        let mut panicked_shard = None;
        for (shard, handle) in self.shard_handles.into_iter().enumerate() {
            if handle.join().is_err() && panicked_shard.is_none() {
                panicked_shard = Some(shard);
            }
        }
        // The collector exits once every shard closed (or errored); its
        // drop closes the dispatch channel, so the workers drain and
        // exit, the results channel disconnects, and the reorder stage
        // returns. Join order below mirrors that shutdown wave — no join
        // can block on a thread joined later.
        let collected = match self.collector.join() {
            Ok(result) => result,
            Err(_) => Err(FrameworkError::Internal(
                "the collector thread panicked".into(),
            )),
        };
        let mut panicked_evaluator = None;
        for (evaluator, handle) in self.evaluator_handles.into_iter().enumerate() {
            if handle.join().is_err() && panicked_evaluator.is_none() {
                panicked_evaluator = Some(evaluator);
            }
        }
        let reorder = match self.reorder.join() {
            Ok(output) => output,
            Err(_) => {
                return Err(FrameworkError::Internal(
                    "the reorder thread panicked".into(),
                ))
            }
        };
        if let Some(shard) = panicked_shard {
            return Err(FrameworkError::ShardFailed {
                shard,
                detail: "its worker thread panicked".into(),
            });
        }
        if let Some(error) = reorder.error {
            return Err(error);
        }
        if let Some(evaluator) = panicked_evaluator {
            return Err(FrameworkError::EvaluatorFailed {
                evaluator,
                detail: "its worker thread panicked".into(),
            });
        }
        let output = collected?;
        if reorder.published < output.windows_dispatched {
            return Err(FrameworkError::Internal(format!(
                "{} of {} dispatched windows were published",
                reorder.published, output.windows_dispatched
            )));
        }
        Ok(StreamReport {
            outcomes: reorder.outcomes,
            screens: reorder.screens,
            metrics: self.metrics,
            stats: ServeStats {
                shards: self.shards,
                evaluators: self.evaluators,
                rows_ingested: output.rows,
                ring_high_water: output.high_water,
                ring_capacity: self.ring_capacity,
                windows_evaluated: reorder.published,
                max_pending_windows: self.depth.max_pending(),
                window_lags: reorder.window_lags,
            },
        })
    }
}
