//! Streaming/windowed experiment mode — the §3.3 online formulation as a
//! first-class workload.
//!
//! The paper frames online detection as `f_O(X^t | X^{F^w_t})`: judge each
//! arrival against its `w`-step history. This module promotes that
//! formulation from a detector demo into a full cleaning-evaluation
//! pipeline running on the staged engine ([`crate::engine`]): groups are
//! sliding windows of the stream instead of replications, and every
//! `(window, strategy)` unit scores glitch improvement and statistical
//! distortion **within its window**, yielding per-window trajectories.
//!
//! Per window, calibration is self-contained (no ideal partition exists in
//! a stream):
//!
//! 1. a [`WindowedOutlierDetector`] screens every in-window arrival against
//!    its own history (which extends *before* the window — history is the
//!    stream, not the slice), and constraint/missing checks flag the rest;
//! 2. cells surviving the screen form the window's **pseudo-ideal
//!    reference**, on which 3-σ limits and the cleaning context are fitted
//!    — the windowed analogue of calibrating on `D^i_I`;
//! 3. the window slice is annotated, cleaned by each strategy, re-detected,
//!    and scored exactly like a batch replication (shared artifacts,
//!    cell-patch cleaning, cached EMD signatures).
//!
//! # Topology neighbour pooling
//!
//! The paper's full online form is `f_O(X^t | X^{F^w_t}, X^{F^w_t}_N)`:
//! the screen may condition on the history of *neighbouring towers*, not
//! just the sector's own past. [`NeighborPooling`] selects how that
//! neighbourhood is assembled from a [`Topology`] ([`WindowedConfig::topology`]):
//! own-history only (the default, bit-identical to the pre-topology
//! behaviour), equal-weight `k`-hop pooling (1 = same tower, 2 = same RNC),
//! or distance-weighted pooling. Neighbour lookups are resolved once per
//! run; the per-window screen results are recorded as [`WindowScreen`]
//! rows so per-node trajectories stay observable (and testable for
//! bit-identity across thread counts).

use crate::engine::{evaluate_unit, run_staged, share_replication, TaskExecutor};
use crate::ideal::check_detection_config;
use crate::{
    DistortionMetric, FrameworkError, MetricScore, ReplicationArtifacts, Result, StrategyOutcome,
    ThreadPoolExecutor,
};
use parking_lot::Mutex;
use sd_cleaning::{CleaningContext, CleaningOutcome, CompositeStrategy};
use sd_data::{Dataset, NodeId, NodeState, TimeSeries, Topology};
use sd_glitch::{
    ColumnScreen, ConstraintSet, GlitchDetector, GlitchReport, GlitchWeights, OutlierDetector,
    PooledHistory, WindowedOutlierDetector,
};
use sd_stats::AttributeTransform;

/// How the streaming screen pools history across the network topology
/// (§3.3's neighbour conditioning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeighborPooling {
    /// Screen every sector against its own history only. This is the
    /// default and is bit-identical to the pre-topology windowed mode.
    OwnOnly,
    /// Pool the history of every sector within `hops` of the screened one
    /// at equal weight: 1 = collocated sectors (same tower), 2 = every
    /// sector under the same RNC, ≥ 3 = the whole network.
    KHop {
        /// Neighbourhood radius in [`Topology::hop_distance`] units.
        hops: u32,
    },
    /// Distance-weighted pooling: own history at weight 1, collocated
    /// (same-tower) sectors at `tower`, same-RNC sectors at `rnc`.
    /// Non-positive weights drop that ring entirely.
    Weighted {
        /// Weight of same-tower neighbour history.
        tower: f64,
        /// Weight of same-RNC (other-tower) neighbour history.
        rnc: f64,
    },
}

/// What one window's calibration screen did, per series — the per-node
/// view of the §3.3 screen (windows × nodes trajectories).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowScreen {
    /// Window number (0-based, in stream order).
    pub window_index: usize,
    /// First time step of the window (inclusive).
    pub start: usize,
    /// One past the last time step.
    pub end: usize,
    /// Per series: in-window cells excluded from the pseudo-ideal by the
    /// streaming history screen (own or pooled neighbour history).
    pub history_flagged: Vec<usize>,
    /// Per series: in-window cells excluded by the structural
    /// missing/constraint checks (these pre-empt the history screen).
    pub structural_flagged: Vec<usize>,
}

/// Configuration of a windowed experiment.
#[derive(Debug, Clone)]
pub struct WindowedConfig {
    /// Window length `w` (time steps per window, and the detector's history
    /// depth).
    pub window: usize,
    /// Slide between consecutive window starts.
    pub stride: usize,
    /// σ multiplier for the history screen and the window-fitted limits.
    pub sigma_k: f64,
    /// Minimum history points before the streaming screen flags anything.
    pub min_history: usize,
    /// Base seed for strategy randomness (per-window streams derive from
    /// `(seed, window, strategy)`).
    pub seed: u64,
    /// Glitch-type weights for the improvement score.
    pub weights: GlitchWeights,
    /// Inconsistency rules.
    pub constraints: ConstraintSet,
    /// Whether the natural-log factor applies to Attribute 1.
    pub log_transform_attr1: bool,
    /// Distortion distances, all scored per `(window, strategy)` unit from
    /// one cleaning pass; `metrics[0]` is the primary metric reported in
    /// [`WindowOutcome::distortion`]. Must be non-empty.
    pub metrics: Vec<DistortionMetric>,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// How the history screen pools neighbour history.
    pub pooling: NeighborPooling,
    /// The network topology behind the pooling policy. Required (and only
    /// consulted) when `pooling` is not [`NeighborPooling::OwnOnly`];
    /// every series' node must lie inside it.
    pub topology: Option<Topology>,
}

impl WindowedConfig {
    /// Paper-flavoured defaults around a `(window, stride)` geometry:
    /// 3-σ limits, paper glitch weights and constraint rules, log factor
    /// on, EMD metric.
    pub fn paper_default(window: usize, stride: usize, seed: u64) -> Self {
        WindowedConfig {
            window,
            stride,
            sigma_k: 3.0,
            min_history: 5,
            seed,
            weights: GlitchWeights::paper(),
            constraints: ConstraintSet::paper_rules(0, 2),
            log_transform_attr1: true,
            metrics: vec![DistortionMetric::paper_default()],
            threads: 0,
            pooling: NeighborPooling::OwnOnly,
            topology: None,
        }
    }

    /// Enables topology neighbour pooling: the history screen conditions
    /// on neighbour history selected by `pooling` over `topology`.
    pub fn with_topology(mut self, topology: Topology, pooling: NeighborPooling) -> Self {
        self.topology = Some(topology);
        self.pooling = pooling;
        self
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

    /// Rejects detector settings that would otherwise panic inside window
    /// detection: a σ multiplier that is not positive (zero, negative or
    /// NaN), and a constraint naming an attribute beyond `num_attributes`.
    /// [`WindowedExperiment::run_with`] and the streaming service's launch
    /// both run this check.
    pub fn check_detection(&self, num_attributes: usize) -> Result<()> {
        check_detection_config(&self.constraints, num_attributes, self.sigma_k)
    }
}

/// One `(window, strategy)` evaluation — a point on a strategy's
/// improvement/distortion trajectory.
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// Window number (0-based, in stream order).
    pub window_index: usize,
    /// First time step of the window (inclusive).
    pub start: usize,
    /// One past the last time step.
    pub end: usize,
    /// Strategy display name.
    pub strategy: String,
    /// Index of the strategy in the submitted list.
    pub strategy_index: usize,
    /// Glitch improvement within the window.
    pub improvement: f64,
    /// Statistical distortion within the window under the primary metric
    /// (`metrics[0]`; equal to `distortions[0].value`).
    pub distortion: f64,
    /// Per-metric distortions, in [`WindowedConfig::metrics`] order.
    pub distortions: Vec<MetricScore>,
    /// What the cleaning pass did in this window.
    pub cleaning: CleaningOutcome,
    /// Glitch percentages of the window before treatment.
    pub dirty_report: GlitchReport,
    /// Glitch percentages after treatment.
    pub treated_report: GlitchReport,
}

/// All outcomes of a windowed experiment, in `(window, strategy)` order.
#[derive(Debug, Clone)]
pub struct WindowedResult {
    outcomes: Vec<WindowOutcome>,
    screens: Vec<WindowScreen>,
    num_windows: usize,
    metrics: Vec<&'static str>,
}

impl WindowedResult {
    /// Every `(window, strategy)` outcome.
    pub fn outcomes(&self) -> &[WindowOutcome] {
        &self.outcomes
    }

    /// Number of windows evaluated.
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// The scored metric names, in [`WindowedConfig::metrics`] order
    /// (index `i` here matches `distortions[i]` in every outcome).
    pub fn metrics(&self) -> &[&'static str] {
        &self.metrics
    }

    /// Per-window calibration screen results, in stream order.
    pub fn screens(&self) -> &[WindowScreen] {
        &self.screens
    }

    /// One strategy's per-window `(window_index, improvement, distortion)`
    /// trajectory under the primary metric, in stream order.
    pub fn trajectory(&self, strategy_index: usize) -> Vec<(usize, f64, f64)> {
        self.trajectory_for_metric(strategy_index, 0)
    }

    /// One strategy's per-window trajectory under the `metric_index`-th
    /// requested metric (see [`WindowedResult::metrics`]), in stream
    /// order. Empty for an unknown strategy or metric index (matching
    /// [`crate::ExperimentResult::mean_point_for_metric`]'s `None`).
    pub fn trajectory_for_metric(
        &self,
        strategy_index: usize,
        metric_index: usize,
    ) -> Vec<(usize, f64, f64)> {
        if metric_index >= self.metrics.len() {
            return Vec::new();
        }
        self.outcomes
            .iter()
            .filter(|o| o.strategy_index == strategy_index)
            .map(|o| {
                (
                    o.window_index,
                    o.improvement,
                    o.distortions[metric_index].value,
                )
            })
            .collect()
    }

    /// One node's per-window `(window_index, history_flagged,
    /// structural_flagged)` screen trajectory, in stream order.
    pub fn node_trajectory(&self, series_index: usize) -> Vec<(usize, usize, usize)> {
        self.screens
            .iter()
            .map(|s| {
                (
                    s.window_index,
                    s.history_flagged[series_index],
                    s.structural_flagged[series_index],
                )
            })
            .collect()
    }
}

/// The windowed experiment entry point.
///
/// ```
/// use sd_core::{NeighborPooling, WindowedConfig, WindowedExperiment};
/// use sd_cleaning::paper_strategy;
/// use sd_netsim::{generate, NetsimConfig};
///
/// // 100 sectors × 60 steps; screen each arrival against the pooled
/// // history of its tower (§3.3's neighbour conditioning).
/// let config = NetsimConfig::small(7);
/// let data = generate(&config).dataset;
/// let windowed = WindowedConfig::paper_default(30, 30, 7)
///     .with_topology(config.topology, NeighborPooling::KHop { hops: 1 });
/// let result = WindowedExperiment::new(windowed)
///     .run(&data, &[paper_strategy(5)])
///     .unwrap();
/// assert_eq!(result.num_windows(), 2);
/// // One (improvement, distortion) point per window, and a per-node
/// // screen trajectory for every sector.
/// assert_eq!(result.trajectory(0).len(), 2);
/// assert_eq!(result.node_trajectory(0).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedExperiment {
    config: WindowedConfig,
}

impl WindowedExperiment {
    /// Creates a windowed experiment from a configuration.
    pub fn new(config: WindowedConfig) -> Self {
        WindowedExperiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &WindowedConfig {
        &self.config
    }

    /// Number of full windows the data's horizon admits.
    pub fn num_windows(&self, data: &Dataset) -> usize {
        let horizon = data
            .series()
            .iter()
            .map(sd_data::TimeSeries::len)
            .max()
            .unwrap_or(0);
        if self.config.window == 0 || self.config.stride == 0 || horizon < self.config.window {
            0
        } else {
            (horizon - self.config.window) / self.config.stride + 1
        }
    }

    /// Slides the window over `data` and scores every `(window, strategy)`
    /// unit on the staged engine.
    pub fn run(&self, data: &Dataset, strategies: &[CompositeStrategy]) -> Result<WindowedResult> {
        self.run_with(
            data,
            strategies,
            &ThreadPoolExecutor::new(self.config.threads),
        )
    }

    /// Like [`WindowedExperiment::run`], on a caller-supplied executor.
    pub fn run_with<E: TaskExecutor>(
        &self,
        data: &Dataset,
        strategies: &[CompositeStrategy],
        executor: &E,
    ) -> Result<WindowedResult> {
        if self.config.window == 0 || self.config.stride == 0 {
            return Err(FrameworkError::InvalidConfig(
                "window and stride must be positive".into(),
            ));
        }
        DistortionMetric::check_list(&self.config.metrics)?;
        let metric_names: Vec<&'static str> = self
            .config
            .metrics
            .iter()
            .map(DistortionMetric::name)
            .collect();
        self.config.check_detection(data.num_attributes())?;
        let num_windows = self.num_windows(data);
        if num_windows == 0 {
            return Err(FrameworkError::InvalidConfig(
                "data horizon shorter than one window".into(),
            ));
        }
        if strategies.is_empty() {
            // No units means no window group ever builds (and no screens);
            // keep the historical Ok-with-no-outcomes contract.
            return Ok(WindowedResult {
                outcomes: Vec::new(),
                screens: Vec::new(),
                num_windows,
                metrics: metric_names,
            });
        }
        let transforms = self.config.transforms(data.num_attributes());
        let attribute_names: Vec<String> =
            data.attributes().iter().map(|a| a.name.clone()).collect();
        let neighbors = self.neighbor_views(data)?;
        // The per-window screen is a pure function of the window, computed
        // inside the group-slot build (once per window, whichever unit
        // arrives first); the slots publish it here so scheduling cannot
        // reorder or duplicate rows.
        let screens: Mutex<Vec<Option<WindowScreen>>> =
            Mutex::new((0..num_windows).map(|_| None).collect());
        let unit_results = run_staged(
            executor,
            num_windows,
            strategies.len(),
            |w| {
                let calibrated = window_segments(&self.config, data, w).and_then(|segments| {
                    calibrate_window(&self.config, &attribute_names, w, &segments, &neighbors)
                });
                calibrated.map(|(artifacts, screen)| {
                    screens.lock()[w] = Some(screen);
                    share_replication(artifacts, &transforms, &self.config.metrics)
                })
            },
            |shared, w, s| match shared {
                Ok(shared) => evaluate_unit(
                    shared,
                    &transforms,
                    self.config.weights,
                    self.config.seed,
                    w,
                    s,
                    &strategies[s],
                )
                .map(|outcome| window_outcome(&self.config, outcome, w)),
                Err(e) => Err(e.clone()),
            },
        );
        let mut outcomes = Vec::with_capacity(unit_results.len());
        for result in unit_results {
            outcomes.push(result?);
        }
        let mut built_screens = Vec::with_capacity(num_windows);
        for slot in screens.into_inner() {
            built_screens.push(slot.ok_or_else(|| {
                FrameworkError::Internal(
                    "a window group finished without building its screen slot".into(),
                )
            })?);
        }
        let screens = built_screens;
        Ok(WindowedResult {
            outcomes,
            screens,
            num_windows,
            metrics: metric_names,
        })
    }

    /// Resolves the pooling policy into per-series neighbour views. See
    /// [`resolve_neighbor_views`] — this merely collects the data's node
    /// order.
    fn neighbor_views(&self, data: &Dataset) -> Result<Vec<Vec<(usize, f64)>>> {
        let nodes: Vec<NodeId> = data.series().iter().map(TimeSeries::node).collect();
        resolve_neighbor_views(self.config.pooling, self.config.topology.as_ref(), &nodes)
    }
}

/// Resolves a pooling policy into per-series neighbour views:
/// `(series index, weight)` pairs, indices into `nodes` order.
///
/// Resolved once per run — every window reuses the same views, since
/// topology (unlike history) does not change along the stream. The batch
/// [`WindowedExperiment`] and the `sd-serve` streaming service both call
/// this, so a stream and its batch replay screen against identical
/// neighbourhoods.
pub fn resolve_neighbor_views(
    pooling: NeighborPooling,
    topology: Option<&Topology>,
    nodes: &[NodeId],
) -> Result<Vec<Vec<(usize, f64)>>> {
    if matches!(pooling, NeighborPooling::OwnOnly) {
        return Ok(vec![Vec::new(); nodes.len()]);
    }
    let topology = topology.ok_or_else(|| {
        FrameworkError::InvalidConfig(
            "neighbour pooling requires a topology (WindowedConfig::topology)".into(),
        )
    })?;
    // Node → series index, so neighbour NodeIds resolve to data series.
    let mut index_of = vec![usize::MAX; topology.num_sectors()];
    for (i, &node) in nodes.iter().enumerate() {
        if !topology.contains(node) {
            return Err(FrameworkError::InvalidConfig(format!(
                "series {i} ({node}) lies outside the configured topology"
            )));
        }
        let slot = &mut index_of[topology.sector_index(node)];
        if *slot != usize::MAX {
            return Err(FrameworkError::InvalidConfig(format!(
                "series {i} and {} both claim node {node}; neighbour \
                 pooling needs one series per sector",
                *slot
            )));
        }
        *slot = i;
    }
    let mut views = Vec::with_capacity(nodes.len());
    for &node in nodes {
        let view: Vec<(usize, f64)> = match pooling {
            NeighborPooling::OwnOnly => {
                // Early-returned at the top of this function; surfaced
                // as a structured error rather than a panic (P001).
                return Err(FrameworkError::Internal(
                    "own-only pooling reached neighbour resolution".into(),
                ));
            }
            NeighborPooling::KHop { hops } => topology
                .khop_neighbors(node, hops)
                .into_iter()
                .filter_map(|m| {
                    let j = index_of[topology.sector_index(m)];
                    (j != usize::MAX).then_some((j, 1.0))
                })
                .collect(),
            NeighborPooling::Weighted { tower, rnc } => topology
                .khop_neighbors(node, 2)
                .into_iter()
                .filter_map(|m| {
                    let w = match topology.hop_distance(node, m) {
                        1 => tower,
                        _ => rnc,
                    };
                    if w <= 0.0 {
                        return None;
                    }
                    let j = index_of[topology.sector_index(m)];
                    (j != usize::MAX).then_some((j, w))
                })
                .collect(),
        };
        views.push(view);
    }
    Ok(views)
}

/// The retained-history segment `[base, end)` every series must supply to
/// [`calibrate_window`] for window `w`: `base` reaches one window length
/// before the window start (the screen's history depth), clipped at the
/// stream origin. Returns `(start, end, base)`.
pub fn window_bounds(config: &WindowedConfig, w: usize) -> (usize, usize, usize) {
    let start = w * config.stride;
    let end = start + config.window;
    (start, end, start.saturating_sub(config.window))
}

/// Replays each series of `data` through a bounded [`NodeState`] ring and
/// materializes window `w`'s `[base, end)` segment — the batch path's
/// segment source, shared byte-for-byte with the streaming shards.
fn window_segments(config: &WindowedConfig, data: &Dataset, w: usize) -> Result<Vec<TimeSeries>> {
    let (_, end, base) = window_bounds(config, w);
    let capacity = 2 * config.window;
    data.series()
        .iter()
        .map(|series| {
            NodeState::from_series(series, capacity, base, end)
                .materialize(base, end)
                .map_err(|e| FrameworkError::Internal(format!("window {w} segment: {e}")))
        })
        .collect()
}

/// Calibrates one window from per-series history segments: streaming
/// screen → pseudo-ideal reference → window-fitted detector/context →
/// annotated slice. Also reports what the screen did per series
/// ([`WindowScreen`]).
///
/// `segments[i]` must cover the retained stream `[base, end)` of series
/// `i` (see [`window_bounds`]; shorter series clip exactly like
/// [`TimeSeries::slice`]). Because the history screen looks back at most
/// one window length, calibrating on these bounded segments is
/// bit-identical to screening against the full stream — the property the
/// streaming service's ring buffers rely on. A sector that last reported
/// more than one window length before `start` contributes only its
/// retained tail under neighbour pooling.
pub fn calibrate_window(
    config: &WindowedConfig,
    attribute_names: &[String],
    w: usize,
    segments: &[TimeSeries],
    neighbors: &[Vec<(usize, f64)>],
) -> Result<(ReplicationArtifacts, WindowScreen)> {
    let (start, end, base) = window_bounds(config, w);
    let offset = start - base; // window start in segment-local time
    let slice_series: Vec<TimeSeries> = segments
        .iter()
        .map(|seg| seg.slice(offset, end - base))
        .collect();
    let slice = Dataset::new(attribute_names.to_vec(), slice_series)
        .map_err(|e| FrameworkError::Internal(format!("window {w} slice: {e}")))?;
    let transforms = config.transforms(slice.num_attributes());

    let mut screen = WindowedOutlierDetector::new(config.window, config.sigma_k);
    screen.min_history = config.min_history;
    let structural = GlitchDetector::new(config.constraints.clone(), None);
    let weighted = matches!(config.pooling, NeighborPooling::Weighted { .. });

    // Pseudo-ideal reference: in-window cells surviving the missing /
    // constraint / history screens. History windows run on the retained
    // segment, so they reach back past the window start — and, under
    // neighbour pooling, across collocated sectors.
    let mut reference = slice.clone();
    let mut history_flagged = vec![0usize; slice.num_series()];
    let mut structural_flagged = vec![0usize; slice.num_series()];
    // One column screen per (series, attribute), on buffers reused across
    // the window.
    let mut buffers = ColumnScreen::default();
    let mut unweighted: Vec<&[f64]> = Vec::new();
    let mut pooled: Vec<(&[f64], f64)> = Vec::new();
    for (i, window_series) in slice.series().iter().enumerate() {
        let flags = structural.detect_series(window_series);
        let segment = &segments[i];
        // Segment-local times of the window's cells (clipped like the slice).
        let first = offset.min(segment.len());
        let cells = first..first + window_series.len();
        for a in 0..slice.num_attributes() {
            let own = segment.attribute(a);
            let history = if weighted {
                pooled.clear();
                pooled.extend(
                    neighbors[i]
                        .iter()
                        .map(|&(j, wt)| (segments[j].attribute(a), wt)),
                );
                PooledHistory::Weighted(&pooled)
            } else {
                unweighted.clear();
                unweighted.extend(neighbors[i].iter().map(|&(j, _)| segments[j].attribute(a)));
                PooledHistory::Unweighted(&unweighted)
            };
            let verdicts = screen.screen_column(own, history, cells.clone(), &mut buffers);
            for (t, &hit) in verdicts.iter().enumerate() {
                if flags.any(a, t) {
                    structural_flagged[i] += 1;
                    reference.series_mut()[i].set_missing(a, t);
                } else if hit {
                    history_flagged[i] += 1;
                    reference.series_mut()[i].set_missing(a, t);
                }
            }
        }
    }
    let window_screen = WindowScreen {
        window_index: w,
        start,
        end,
        history_flagged,
        structural_flagged,
    };

    let outliers = OutlierDetector::fit(&reference, &transforms, config.sigma_k);
    let context = CleaningContext::from_detector(&reference, &transforms, &outliers);
    let detector = GlitchDetector::new(config.constraints.clone(), Some(outliers));
    let dirty_matrices = detector.detect_dataset(&slice);
    let artifacts = ReplicationArtifacts {
        replication: w,
        dirty: slice,
        ideal: reference,
        detector,
        context,
        dirty_matrices,
    };
    Ok((artifacts, window_screen))
}

/// Scores every strategy on one calibrated window via the engine's
/// group-slot machinery (one group, `strategies.len()` units), returning
/// outcomes in strategy order.
///
/// The window index is `artifacts.replication` (as produced by
/// [`calibrate_window`]); RNG streams derive from `(config.seed, window,
/// strategy)` exactly as in [`WindowedExperiment::run`], so a stream
/// evaluated window-at-a-time is bit-identical to the batch run.
pub fn evaluate_window_artifacts<E: TaskExecutor>(
    config: &WindowedConfig,
    strategies: &[CompositeStrategy],
    executor: &E,
    artifacts: ReplicationArtifacts,
) -> Result<Vec<WindowOutcome>> {
    DistortionMetric::check_list(&config.metrics)?;
    let w = artifacts.replication;
    let transforms = config.transforms(artifacts.dirty.num_attributes());
    // `run_staged` builds each group at most once; the slot hands the
    // artifacts to that single build without cloning them.
    let slot: Mutex<Option<ReplicationArtifacts>> = Mutex::new(Some(artifacts));
    let unit_results = run_staged(
        executor,
        1,
        strategies.len(),
        |_| {
            slot.lock()
                .take()
                .map(|a| share_replication(a, &transforms, &config.metrics))
        },
        |shared, _, s| match shared {
            Some(shared) => evaluate_unit(
                shared,
                &transforms,
                config.weights,
                config.seed,
                w,
                s,
                &strategies[s],
            )
            .map(|outcome| window_outcome(config, outcome, w)),
            None => Err(FrameworkError::Internal(
                "window artifacts were consumed by an earlier group build".into(),
            )),
        },
    );
    unit_results.into_iter().collect()
}

fn window_outcome(config: &WindowedConfig, outcome: StrategyOutcome, w: usize) -> WindowOutcome {
    let start = w * config.stride;
    WindowOutcome {
        window_index: w,
        start,
        end: start + config.window,
        strategy: outcome.strategy,
        strategy_index: outcome.strategy_index,
        improvement: outcome.improvement,
        distortion: outcome.distortion,
        distortions: outcome.distortions,
        cleaning: outcome.cleaning,
        dirty_report: outcome.dirty_report,
        treated_report: outcome.treated_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialExecutor;
    use sd_cleaning::paper_strategy;
    use sd_netsim::{generate, NetsimConfig};

    fn data() -> Dataset {
        generate(&NetsimConfig::small(19)).dataset
    }

    fn config() -> WindowedConfig {
        let mut c = WindowedConfig::paper_default(20, 10, 7);
        c.threads = 2;
        c
    }

    #[test]
    fn window_count_follows_geometry() {
        let d = data(); // small scale: 60 steps
        let e = WindowedExperiment::new(config());
        assert_eq!(e.num_windows(&d), 5); // starts 0,10,20,30,40
        let mut tight = config();
        tight.window = 60;
        assert_eq!(WindowedExperiment::new(tight).num_windows(&d), 1);
        let mut too_long = config();
        too_long.window = 61;
        assert_eq!(WindowedExperiment::new(too_long).num_windows(&d), 0);
    }

    #[test]
    fn emits_one_outcome_per_window_and_strategy() {
        let d = data();
        let strategies = [paper_strategy(3), paper_strategy(5)];
        let result = WindowedExperiment::new(config())
            .run(&d, &strategies)
            .unwrap();
        assert_eq!(result.num_windows(), 5);
        assert_eq!(result.outcomes().len(), 10);
        for o in result.outcomes() {
            assert!(o.improvement.is_finite());
            assert!(o.distortion.is_finite() && o.distortion >= 0.0);
            assert_eq!(o.end - o.start, 20);
            assert!(o.dirty_report.total_records > 0);
        }
        let traj = result.trajectory(1);
        assert_eq!(traj.len(), 5);
        assert_eq!(
            traj.iter().map(|&(w, _, _)| w).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        // Cleaning must do real work in at least one window.
        assert!(result
            .outcomes()
            .iter()
            .any(|o| o.cleaning.cells_changed() > 0));
        assert!(result.outcomes().iter().any(|o| o.improvement > 0.0));
    }

    #[test]
    fn windowed_runs_are_deterministic_across_executors() {
        let d = data();
        let strategies = [paper_strategy(1), paper_strategy(5)];
        let e = WindowedExperiment::new(config());
        let a = e.run(&d, &strategies).unwrap();
        let b = e.run_with(&d, &strategies, &SerialExecutor).unwrap();
        assert_eq!(a.outcomes().len(), b.outcomes().len());
        for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
            assert_eq!(x.improvement.to_bits(), y.improvement.to_bits());
            assert_eq!(x.distortion.to_bits(), y.distortion.to_bits());
            assert_eq!(x.cleaning, y.cleaning);
        }
    }

    #[test]
    fn screens_are_recorded_per_window_and_series() {
        let d = data();
        let result = WindowedExperiment::new(config())
            .run(&d, &[paper_strategy(5)])
            .unwrap();
        assert_eq!(result.screens().len(), 5);
        for (w, s) in result.screens().iter().enumerate() {
            assert_eq!(s.window_index, w);
            assert_eq!(s.history_flagged.len(), d.num_series());
            assert_eq!(s.structural_flagged.len(), d.num_series());
        }
        // The netsim stream always has structurally flagged cells.
        assert!(result
            .screens()
            .iter()
            .any(|s| s.structural_flagged.iter().sum::<usize>() > 0));
        let traj = result.node_trajectory(3);
        assert_eq!(
            traj.iter().map(|&(w, _, _)| w).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn tower_pooling_changes_the_screen_but_not_determinism() {
        let d = data();
        let topology = NetsimConfig::small(19).topology;
        let strategies = [paper_strategy(5)];
        let own = WindowedExperiment::new(config())
            .run(&d, &strategies)
            .unwrap();
        let mut pooled_config = config();
        pooled_config = pooled_config.with_topology(topology, NeighborPooling::KHop { hops: 1 });
        let e = WindowedExperiment::new(pooled_config);
        let pooled = e.run(&d, &strategies).unwrap();
        let serial = e.run_with(&d, &strategies, &SerialExecutor).unwrap();
        // Bit-identical across executors, screens included.
        assert_eq!(pooled.screens(), serial.screens());
        for (x, y) in pooled.outcomes().iter().zip(serial.outcomes()) {
            assert_eq!(x.improvement.to_bits(), y.improvement.to_bits());
            assert_eq!(x.distortion.to_bits(), y.distortion.to_bits());
        }
        // Pooling must actually change what the screen sees somewhere.
        let flags = |r: &WindowedResult| -> Vec<usize> {
            r.screens()
                .iter()
                .flat_map(|s| s.history_flagged.iter().copied())
                .collect()
        };
        assert_ne!(flags(&own), flags(&pooled), "tower pooling is a no-op");
    }

    #[test]
    fn weighted_pooling_interpolates_between_rings() {
        let d = data();
        let topology = NetsimConfig::small(19).topology;
        let strategies = [paper_strategy(3)];
        let mut c = config();
        c = c.with_topology(
            topology,
            NeighborPooling::Weighted {
                tower: 1.0,
                rnc: 0.25,
            },
        );
        let weighted = WindowedExperiment::new(c).run(&d, &strategies).unwrap();
        assert_eq!(weighted.outcomes().len(), 5);
        for o in weighted.outcomes() {
            assert!(o.improvement.is_finite());
            assert!(o.distortion.is_finite() && o.distortion >= 0.0);
        }
    }

    #[test]
    fn multi_metric_windows_score_every_kernel_per_unit() {
        let d = data();
        let mut c = config();
        c.metrics = DistortionMetric::full_suite();
        let e = WindowedExperiment::new(c.clone());
        let result = e.run(&d, &[paper_strategy(5)]).unwrap();
        assert_eq!(
            result.metrics(),
            ["emd", "kl", "mahalanobis", "ks", "cvm", "energy"]
        );
        for o in result.outcomes() {
            assert_eq!(o.distortions.len(), 6);
            assert_eq!(o.distortion.to_bits(), o.distortions[0].value.to_bits());
            for s in &o.distortions {
                assert!(s.value.is_finite() && s.value >= 0.0, "{s:?}");
            }
        }
        // Metric-indexed trajectories line up with the primary one; an
        // out-of-range metric index yields an empty trajectory, not a
        // panic.
        assert_eq!(result.trajectory(0), result.trajectory_for_metric(0, 0));
        assert_eq!(result.trajectory_for_metric(0, 3).len(), 5);
        assert!(result.trajectory_for_metric(0, 6).is_empty());
        // The primary column matches a dedicated single-metric run bit for
        // bit, and the whole multi-metric run is executor-deterministic.
        let mut single = c.clone();
        single.metrics = vec![DistortionMetric::paper_default()];
        let solo = WindowedExperiment::new(single)
            .run(&d, &[paper_strategy(5)])
            .unwrap();
        for (m, s) in result.outcomes().iter().zip(solo.outcomes()) {
            assert_eq!(m.distortion.to_bits(), s.distortion.to_bits());
        }
        let serial = WindowedExperiment::new(c)
            .run_with(&d, &[paper_strategy(5)], &SerialExecutor)
            .unwrap();
        for (a, b) in result.outcomes().iter().zip(serial.outcomes()) {
            for (x, y) in a.distortions.iter().zip(&b.distortions) {
                assert_eq!(x.value.to_bits(), y.value.to_bits());
            }
        }
    }

    #[test]
    fn empty_metric_list_is_rejected() {
        let d = data();
        let mut c = config();
        c.metrics = Vec::new();
        let err = WindowedExperiment::new(c)
            .run(&d, &[paper_strategy(1)])
            .unwrap_err();
        assert!(err.to_string().contains("metric"));
    }

    #[test]
    fn zero_bin_grid_metrics_are_rejected() {
        let d = data();
        for metric in [
            DistortionMetric::Emd { bins: 0 },
            DistortionMetric::KlDivergence { bins: 0 },
            DistortionMetric::Energy { bins: 0 },
        ] {
            let mut c = config();
            c.metrics.push(metric);
            let err = WindowedExperiment::new(c)
                .run(&d, &[paper_strategy(1)])
                .unwrap_err();
            assert!(matches!(err, FrameworkError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn empty_strategy_list_yields_empty_result() {
        let d = data();
        let result = WindowedExperiment::new(config()).run(&d, &[]).unwrap();
        assert!(result.outcomes().is_empty());
        assert!(result.screens().is_empty());
        assert_eq!(result.num_windows(), 5);
    }

    #[test]
    fn duplicate_nodes_are_rejected_under_pooling() {
        let mut d = data();
        let dup = d.series_at(0).clone();
        d.push(dup).unwrap();
        let c = config().with_topology(
            NetsimConfig::small(19).topology,
            NeighborPooling::KHop { hops: 1 },
        );
        let err = WindowedExperiment::new(c)
            .run(&d, &[paper_strategy(1)])
            .unwrap_err();
        assert!(err.to_string().contains("claim node"));
    }

    #[test]
    fn pooling_without_topology_is_rejected() {
        let d = data();
        let mut c = config();
        c.pooling = NeighborPooling::KHop { hops: 1 };
        let err = WindowedExperiment::new(c)
            .run(&d, &[paper_strategy(1)])
            .unwrap_err();
        assert!(err.to_string().contains("topology"));
    }

    #[test]
    fn run_with_rejects_a_non_positive_sigma_multiplier() {
        let d = data();
        for k in [0.0, -1.0, f64::NAN] {
            let mut c = config();
            c.sigma_k = k;
            let err = WindowedExperiment::new(c)
                .run_with(&d, &[paper_strategy(1)], &SerialExecutor)
                .unwrap_err();
            assert!(
                matches!(err, FrameworkError::InvalidConfig(_)),
                "sigma_k {k}: {err}"
            );
        }
    }

    #[test]
    fn run_with_rejects_constraints_beyond_the_attributes() {
        let d = data();
        let mut c = config();
        c.constraints = ConstraintSet::paper_rules(0, 3); // the data has 3
        let err = WindowedExperiment::new(c)
            .run_with(&d, &[paper_strategy(1)], &SerialExecutor)
            .unwrap_err();
        assert!(matches!(err, FrameworkError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let d = data();
        let mut c = config();
        c.stride = 0;
        assert!(WindowedExperiment::new(c)
            .run(&d, &[paper_strategy(1)])
            .is_err());
        let mut c = config();
        c.window = 600;
        assert!(WindowedExperiment::new(c)
            .run(&d, &[paper_strategy(1)])
            .is_err());
    }
}
