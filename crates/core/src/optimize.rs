//! Budget-constrained cleaning optimization, run as a first-class engine
//! workload.
//!
//! The paper's §5.2 cost axis cleans a *fraction* of the data, dirtiest
//! first ([`crate::cost_sweep`]). This module asks the sharper operational
//! question behind Figure 2: given a concrete cleaning budget in dollars —
//! where different glitch types cost different amounts to repair
//! ([`CostModel`]) — *which* series should be cleaned, and in what order,
//! to buy the most glitch improvement per unit of statistical distortion?
//!
//! # Candidate repairs and the greedy policy
//!
//! Every glitched series of a replication is one candidate purchase: its
//! repair is the strategy's cleaning pass restricted to that series alone
//! (deterministic per `(seed, replication, strategy, series)`), its price
//! comes from the [`CostModel`], and its glitch payoff is the series'
//! contribution to the normalized glitch-index improvement. The
//! [`SelectionPolicy::Greedy`] optimizer walks the knapsack greedily: at
//! every step it buys the still-affordable candidate with the best
//! *marginal* objective gain per dollar, where
//!
//! ```text
//! gain(c | S) = Δimprovement(c) − λ · [ D(S ∪ {c}) − D(S) ]
//! ```
//!
//! `D` is the primary metric's distortion of the combined sparse
//! patch (scored incrementally through the replication's prepared kernel,
//! [`crate::PreparedKernel::score_edits`], against the shared
//! [`sd_emd::SignatureCache`]) and `λ` is
//! [`BudgetOptimizerConfig::distortion_weight`]. Ties break toward the
//! lower series index; candidates it cannot afford are skipped, and it
//! stops when no affordable candidate has positive gain.
//!
//! Scoring `D(S ∪ {c})` is the expensive step (one transport solve for
//! EMD), so the scan bounds each candidate first. Kernel scores are
//! `≥ 0`, hence `gain(c | S) ≤ Δimprovement(c) + λ · D(S)`, and the bound
//! holds exactly in floating point because every rounding step is
//! monotone. A candidate whose bound does not beat the best gain per
//! dollar found so far, under the same comparison that picks the best, is
//! skipped unscored. The purchases are therefore bit-identical to an
//! eager scan that scores every affordable candidate. The one observable
//! difference: an eager scan fails if *any* affordable candidate fails to
//! score, while this scan surfaces only the errors of candidates it
//! actually scores. The
//! [`SelectionPolicy::DirtiestFirst`] baseline is the paper's §5.2
//! ordering under the same prices; [`SelectionPolicy::Random`] is the
//! uninformed control.
//!
//! # Engine mapping
//!
//! [`budget_optimize_with`] runs in three phases per chunk of replications
//! (as many replications as the executor runs tasks at once, so at most
//! that many groups are alive):
//!
//! 1. **groups** — each replication's artifacts, then two tasks per
//!    replication: its cache side (pooled rows, signature cache, prepared
//!    kernels) and, when a strategy imputes, its imputation model. Both
//!    join into one `SharedReplication`;
//! 2. **plans** — one plan per `(replication, strategy)` pair: the
//!    candidate set plus the policy's purchase *trajectory*. The plans run
//!    one after another and each spreads its own work over the executor,
//!    so no task starts a second pool: the candidate repairs, one task per
//!    glitched series, and the greedy scan's scores. The scan scores in
//!    speculative rounds: a round takes the next `executor.width()`
//!    candidates whose bound beats the current best and scores them at
//!    once, then walks them in scan order, re-checking each bound against
//!    the best as updated by the earlier candidates of the round. A score
//!    or error the serial scan would not have read is dropped, and the
//!    round ends early at a candidate the serial scan scores but the round
//!    did not. Purchases and surfaced errors are therefore bit-identical
//!    to the serial scan's, and a serial executor scores exactly the
//!    serial scan's candidates;
//! 3. **frontier points** — one task per `(replication, strategy,
//!    budget)` fills its selection from the trajectory's purchase order
//!    (**order semantics**: walk the planned purchases in order, buy each
//!    one the remaining budget affords, skip the rest) and scores it under
//!    every metric. When the selection is a prefix of the greedy
//!    trajectory, the plan has already scored it: the primary metric's
//!    value is read from the plan's record of `D` after each purchase
//!    instead of being scored again. Both are one `PatchedCloud` of the
//!    same row edits, so the bits agree.
//!
//! The order itself is planned at the *maximum* requested budget, so
//! greedy's adaptive marginal scoring runs once per `(replication,
//! strategy)` rather than once per budget; at the maximum budget the walk
//! reproduces the planned purchases exactly.
//!
//! Unlike the cost sweep's per-fraction mask-matched fits, candidate
//! repairs are scored against the replication-level imputation model
//! (fitted once on the full dirty sample, no mask —
//! `SharedReplication::model_fit`): candidate artifacts
//! must be selection-independent, or the marginal score of a candidate
//! would change with the budget that buys it. This is a deliberate,
//! documented deviation from `PROC MI` semantics.
//!
//! [`budget_optimize`] is bit-identical to [`budget_optimize_reference`] —
//! a preserved replication-granular path that materializes the full
//! cleaned cloud and scores it through
//! [`crate::DistortionKernel::score_rows`] for every trajectory step and
//! frontier point (the optimizer's bit-identity oracle).

use crate::cost::dirtiest_ranking;
use crate::distortion::pooled_working_rows;
use crate::engine::{fit_replication_model, replication_cache, SharedReplication, TaskExecutor};
use crate::experiment::ReplicationArtifacts;
use crate::{
    Experiment, ExperimentConfig, FrameworkError, MetricScore, Result, SerialExecutor,
    ThreadPoolExecutor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_cleaning::{CleaningStrategy, CompositeStrategy, MissingTreatment, ModelFit};
use sd_data::Dataset;
use sd_emd::PatchedCloud;
use sd_glitch::{GlitchIndex, GlitchMatrix, GlitchReport, GlitchTally, GlitchType};
use sd_stats::AttributeTransform;
use std::sync::OnceLock;

/// Per-repair pricing: what one series costs to clean, as a function of
/// its glitch annotations and the strategy doing the cleaning.
///
/// The price of cleaning series `i` with strategy `s` is
///
/// ```text
/// price = factor(s) · ( base_per_series + Σ_kind per_cell(kind) · cells(i, kind) )
/// ```
///
/// generalizing Figure 2's scenarios, where a fixed budget buys repairs
/// whose per-glitch cost is the reciprocal of the scenario's coverage
/// ([`CostModel::scenario`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed cost of touching a series at all (setup, locating the node).
    pub base_per_series: f64,
    /// Price of repairing one missing cell.
    pub per_missing_cell: f64,
    /// Price of repairing one inconsistent cell.
    pub per_inconsistent_cell: f64,
    /// Price of repairing one outlier cell.
    pub per_outlier_cell: f64,
    /// Per-strategy price multipliers, indexed like the submitted strategy
    /// list; strategies beyond the end multiply by 1.
    pub strategy_factors: Vec<f64>,
}

impl CostModel {
    /// Every glitch cell costs one unit, touching a series is free: the
    /// price of a series is its glitch-cell count.
    pub fn uniform() -> Self {
        CostModel {
            base_per_series: 0.0,
            per_missing_cell: 1.0,
            per_inconsistent_cell: 1.0,
            per_outlier_cell: 1.0,
            strategy_factors: Vec::new(),
        }
    }

    /// The Figure 2 scenario as a cost model: a budget of `1` fixes
    /// `coverage` glitches, so one glitch cell costs `1 / coverage`
    /// (cheap constant 1.0, simulate 2.5, re-measure 3.33…).
    pub fn scenario(scenario: crate::BudgetScenario) -> Self {
        let per_cell = 1.0 / scenario.coverage();
        CostModel {
            base_per_series: 0.0,
            per_missing_cell: per_cell,
            per_inconsistent_cell: per_cell,
            per_outlier_cell: per_cell,
            strategy_factors: Vec::new(),
        }
    }

    /// The per-cell price of one glitch kind.
    pub fn per_cell(&self, kind: GlitchType) -> f64 {
        match kind {
            GlitchType::Missing => self.per_missing_cell,
            GlitchType::Inconsistent => self.per_inconsistent_cell,
            GlitchType::Outlier => self.per_outlier_cell,
        }
    }

    /// Prices cleaning one series (annotated by `glitches`) with the
    /// `strategy_index`-th strategy.
    pub fn price(&self, strategy_index: usize, glitches: &GlitchMatrix) -> f64 {
        self.price_tally(strategy_index, &glitches.tally())
    }

    /// [`CostModel::price`] of the series `tally` counts.
    pub(crate) fn price_tally(&self, strategy_index: usize, tally: &GlitchTally) -> f64 {
        let factor = self
            .strategy_factors
            .get(strategy_index)
            .copied()
            .unwrap_or(1.0);
        let cells: f64 = GlitchType::ALL
            .iter()
            .map(|&kind| self.per_cell(kind) * tally.cells[kind.index()] as f64)
            .sum();
        factor * (self.base_per_series + cells)
    }

    /// Rejects non-finite or negative prices.
    pub fn validate(&self) -> Result<()> {
        let scalars = [
            ("base_per_series", self.base_per_series),
            ("per_missing_cell", self.per_missing_cell),
            ("per_inconsistent_cell", self.per_inconsistent_cell),
            ("per_outlier_cell", self.per_outlier_cell),
        ];
        for (name, x) in scalars {
            if !x.is_finite() || x < 0.0 {
                return Err(FrameworkError::InvalidConfig(format!(
                    "cost model {name} must be finite and non-negative, got {x}"
                )));
            }
        }
        for (i, &f) in self.strategy_factors.iter().enumerate() {
            if !f.is_finite() || f < 0.0 {
                return Err(FrameworkError::InvalidConfig(format!(
                    "cost model strategy factor {i} must be finite and non-negative, got {f}"
                )));
            }
        }
        Ok(())
    }

    /// Serializes to the model's JSON schema (see [`CostModel::from_json`]).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "base_per_series": self.base_per_series,
            "per_missing_cell": self.per_missing_cell,
            "per_inconsistent_cell": self.per_inconsistent_cell,
            "per_outlier_cell": self.per_outlier_cell,
            "strategy_factors": self.strategy_factors,
        })
    }

    /// Deserializes the schema written by [`CostModel::to_json`]: an
    /// object with the four scalar prices (required, numeric) and an
    /// optional `strategy_factors` number array.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::InvalidConfig`] on missing or mistyped fields, or
    /// when the resulting model fails [`CostModel::validate`].
    pub fn from_json(value: &serde_json::Value) -> Result<Self> {
        let field = |name: &str| -> Result<f64> {
            value
                .get(name)
                .and_then(serde_json::Value::as_f64)
                .ok_or_else(|| {
                    FrameworkError::InvalidConfig(format!(
                        "cost model field `{name}` must be a number"
                    ))
                })
        };
        let strategy_factors = match value.get("strategy_factors") {
            None => Vec::new(),
            Some(factors) => factors
                .as_array()
                .ok_or_else(|| {
                    FrameworkError::InvalidConfig(
                        "cost model `strategy_factors` must be an array".into(),
                    )
                })?
                .iter()
                .map(|f| {
                    f.as_f64().ok_or_else(|| {
                        FrameworkError::InvalidConfig(
                            "cost model `strategy_factors` entries must be numbers".into(),
                        )
                    })
                })
                .collect::<Result<Vec<f64>>>()?,
        };
        let model = CostModel {
            base_per_series: field("base_per_series")?,
            per_missing_cell: field("per_missing_cell")?,
            per_inconsistent_cell: field("per_inconsistent_cell")?,
            per_outlier_cell: field("per_outlier_cell")?,
            strategy_factors,
        };
        model.validate()?;
        Ok(model)
    }

    /// Parses a JSON document and deserializes it
    /// ([`CostModel::from_json`]).
    pub fn from_json_str(text: &str) -> Result<Self> {
        let value = serde_json::from_str(text)
            .map_err(|e| FrameworkError::InvalidConfig(format!("cost model JSON: {e}")))?;
        CostModel::from_json(&value)
    }
}

/// How the optimizer picks the next series to clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Marginal gain-per-dollar, scored incrementally against the current
    /// selection (the optimizer; see the module docs).
    Greedy,
    /// The paper's §5.2 ordering: normalized glitch score, dirtiest first.
    DirtiestFirst,
    /// Seeded uniform shuffle — the uninformed control.
    Random,
}

impl SelectionPolicy {
    /// Machine-readable label recorded in results and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            SelectionPolicy::Greedy => "greedy",
            SelectionPolicy::DirtiestFirst => "dirtiest_first",
            SelectionPolicy::Random => "random",
        }
    }
}

/// How exact EMD transports are solved. It has one value,
/// [`TransportMode::Cold`], so no code matches on it; it remains only so
/// the `transport` fields of [`BudgetOptimizerConfig`] and
/// [`crate::CostSweepConfig`] keep their shape for existing callers. A
/// later change to the `benchmark` crate, which names it in struct
/// literals, can drop the type and both fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransportMode {
    /// Every exact transport is solved from a fresh north-west-corner
    /// basis (on a thread-local scratch arena, so allocation is still
    /// amortized). Scores are bit-identical to the materialized reference
    /// path, enforced by this module's tests.
    #[default]
    Cold,
}

/// Configuration of a budget-optimization run.
#[derive(Debug, Clone)]
pub struct BudgetOptimizerConfig {
    /// The base experiment configuration (`metrics[0]` is the primary
    /// metric the greedy objective penalizes).
    pub experiment: ExperimentConfig,
    /// The candidate cleaning strategies (each gets its own trajectory).
    pub strategies: Vec<CompositeStrategy>,
    /// The budgets to trace the frontier at, e.g. `[0.0, 50.0, 200.0]`.
    pub budgets: Vec<f64>,
    /// Per-repair pricing.
    pub cost_model: CostModel,
    /// Selection policy.
    pub policy: SelectionPolicy,
    /// The greedy objective's distortion penalty `λ` (≥ 0; ignored by the
    /// baseline policies).
    pub distortion_weight: f64,
    /// How the planner's exact EMD transports are solved; see
    /// [`TransportMode`], which has one value.
    pub transport: TransportMode,
}

impl BudgetOptimizerConfig {
    fn validate(&self) -> Result<()> {
        if self.strategies.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "budget optimizer needs at least one strategy".into(),
            ));
        }
        if self.budgets.is_empty() {
            return Err(FrameworkError::InvalidConfig(
                "budget optimizer needs at least one budget".into(),
            ));
        }
        for &b in &self.budgets {
            if !b.is_finite() || b < 0.0 {
                return Err(FrameworkError::InvalidConfig(format!(
                    "budgets must be finite and non-negative, got {b}"
                )));
            }
        }
        if !self.distortion_weight.is_finite() || self.distortion_weight < 0.0 {
            return Err(FrameworkError::InvalidConfig(format!(
                "distortion weight must be finite and non-negative, got {}",
                self.distortion_weight
            )));
        }
        self.cost_model.validate()
    }
}

/// One `(budget, strategy, replication)` point of the cleaning frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The budget this point was read at.
    pub budget: f64,
    /// Replication number.
    pub replication: usize,
    /// Strategy display name.
    pub strategy: String,
    /// Index of the strategy in the submitted list.
    pub strategy_index: usize,
    /// The selection policy that produced the trajectory.
    pub policy: SelectionPolicy,
    /// What the selection actually cost (≤ `budget`).
    pub spent: f64,
    /// Number of series cleaned.
    pub series_cleaned: usize,
    /// Glitch improvement of the selection.
    pub improvement: f64,
    /// Statistical distortion under the primary metric
    /// (`experiment.metrics[0]`; equal to `distortions[0].value`).
    pub distortion: f64,
    /// Per-metric distortions, in `experiment.metrics` order.
    pub distortions: Vec<MetricScore>,
    /// Treated glitch percentages of the selection.
    pub treated_report: GlitchReport,
}

/// RNG stream of one candidate repair. The `series + 1` term keeps
/// series 0 distinct from the batch-unit stream at the same
/// `(replication, strategy)`.
fn candidate_seed(seed: u64, replication: usize, strategy_index: usize, series: usize) -> u64 {
    seed ^ ((replication as u64) << 24)
        ^ ((strategy_index as u64) << 44)
        ^ (((series as u64) + 1) << 8)
}

/// RNG stream of the [`SelectionPolicy::Random`] shuffle.
fn shuffle_seed(seed: u64, replication: usize, strategy_index: usize) -> u64 {
    seed ^ ((replication as u64) << 24) ^ ((strategy_index as u64) << 44) ^ (1 << 63)
}

/// Working-space row edits: `(pooled row, replacement row)`, ascending by
/// row.
type RowEdits = Vec<(usize, Vec<f64>)>;

/// A borrowed [`RowEdits`].
type Edits = [(usize, Vec<f64>)];

/// One purchasable repair: a single series cleaned in isolation.
struct Candidate {
    /// Series index in the replication's dirty sample.
    series: usize,
    /// [`CostModel`] price of this repair.
    price: f64,
    /// The series' contribution to the normalized glitch-index
    /// improvement (the greedy payoff term; the reported improvement is
    /// recomputed from the full selection).
    delta_improvement: f64,
    /// The repair as working-space row edits against the pooled dirty
    /// rows (ascending row order).
    row_edits: RowEdits,
    /// Re-detected annotations of the repaired series (read only by the
    /// reference path, which re-tallies whole selections).
    treated: GlitchMatrix,
    /// The repaired series' glitch tally and node score, which the engine's
    /// frontier points substitute for the dirty ones.
    treated_glitches: (GlitchTally, f64),
}

/// A policy's purchase order (candidate indices, planned at the maximum
/// requested budget) and, for [`SelectionPolicy::Greedy`], the primary
/// metric's distortion `D` of every prefix of it: `distortions[k]` is `D`
/// after the first `k` purchases, starting with `D` of the empty
/// selection. Empty for the baseline policies, which score nothing while
/// planning.
struct Trajectory {
    order: Vec<usize>,
    distortions: Vec<f64>,
}

/// The `(replication, strategy)` plan every budget point fills its
/// selection from: the candidate set plus the policy's trajectory.
struct StrategyPlan {
    candidates: Vec<Candidate>,
    trajectory: Trajectory,
}

/// Builds every candidate repair of one `(replication, strategy)` pair:
/// clean each glitched series in isolation, re-detect it, price it, and
/// record its sparse working-space edits, one series per executor task.
/// Pure in `(artifacts, strategy, seed)` and collected in series order —
/// shared verbatim by the engine and reference paths, so their candidate
/// sets are bit-identical. `dirty_tallies` and `dirty_scores` are the
/// tallies and node scores of `artifacts.dirty_matrices`, in series order.
#[allow(clippy::too_many_arguments)]
fn build_candidates<E: TaskExecutor>(
    artifacts: &ReplicationArtifacts,
    transforms: &[AttributeTransform],
    index: &GlitchIndex,
    (dirty_tallies, dirty_scores): (&[GlitchTally], &[f64]),
    cost_model: &CostModel,
    strategy: &CompositeStrategy,
    strategy_index: usize,
    seed: u64,
    model: Option<&ModelFit>,
    base_rows: &[Vec<f64>],
    row_offsets: &[usize],
    executor: &E,
) -> Vec<Candidate> {
    let num_series = artifacts.dirty.num_series();
    let build = |i: usize| -> Option<Candidate> {
        if dirty_scores[i] <= 0.0 {
            return None;
        }
        let mut mask = vec![false; num_series];
        mask[i] = true;
        let mut rng = StdRng::seed_from_u64(candidate_seed(
            seed,
            artifacts.replication,
            strategy_index,
            i,
        ));
        let (view, _) = strategy.clean_patch_filtered(
            &artifacts.dirty,
            &artifacts.dirty_matrices,
            &artifacts.context,
            &mut rng,
            Some(&mask),
            model,
        );
        let treated = if view.is_patched(i) {
            artifacts.detector.detect_series(view.series_at(i))
        } else {
            artifacts.dirty_matrices[i].clone()
        };
        let treated_tally = treated.tally();
        let treated_score = index.tally_score(&treated_tally);
        let delta_improvement = (dirty_scores[i] - treated_score) * 100.0 / num_series as f64;
        // The repair's cell edits, grouped into working-space row edits
        // exactly like the engine's `score_view` (edits to one row are
        // adjacent and ascending in `t`).
        let mut row_edits: RowEdits = Vec::new();
        let offset = row_offsets[i];
        for e in view.patch().series_edits(i) {
            let row = offset + e.t as usize;
            if row_edits.last().is_none_or(|(r, _)| *r != row) {
                row_edits.push((row, base_rows[row].clone()));
            }
            // The push above guarantees a last element; `if let` keeps the
            // path panic-free instead of asserting it with `expect`.
            if let Some((_, new_row)) = row_edits.last_mut() {
                let a = e.attr as usize;
                new_row[a] = transforms[a].forward(e.value);
            }
        }
        Some(Candidate {
            series: i,
            price: cost_model.price_tally(strategy_index, &dirty_tallies[i]),
            delta_improvement,
            row_edits,
            treated,
            treated_glitches: (treated_tally, treated_score),
        })
    };
    executor
        .execute(num_series, build)
        .into_iter()
        .flatten()
        .collect()
}

/// The baseline policies' fixed purchase order (candidate indices);
/// empty for [`SelectionPolicy::Greedy`], which orders adaptively.
fn baseline_order(
    policy: SelectionPolicy,
    candidates: &[Candidate],
    index: &GlitchIndex,
    dirty_matrices: &[GlitchMatrix],
    shuffle_seed: u64,
) -> Vec<usize> {
    match policy {
        SelectionPolicy::Greedy => Vec::new(),
        SelectionPolicy::DirtiestFirst => {
            let num_series = dirty_matrices.len();
            let mut candidate_of_series = vec![usize::MAX; num_series];
            for (ci, c) in candidates.iter().enumerate() {
                candidate_of_series[c.series] = ci;
            }
            dirtiest_ranking(index, dirty_matrices)
                .into_iter()
                .map(|s| candidate_of_series[s])
                .filter(|&ci| ci != usize::MAX)
                .collect()
        }
        SelectionPolicy::Random => {
            let mut order: Vec<usize> = (0..candidates.len()).collect();
            let mut rng = StdRng::seed_from_u64(shuffle_seed);
            // Fisher–Yates (the vendored rand shim has no SliceRandom).
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                order.swap(i, j);
            }
            order
        }
    }
}

/// Merges two row-ascending, row-disjoint edit sets into one.
fn merge_edits(a: &Edits, b: &Edits) -> RowEdits {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 < b[j].0 {
            out.push(a[i].clone());
            i += 1;
        } else {
            out.push(b[j].clone());
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Plans the purchase trajectory up to `max_budget` under one policy.
///
/// `score(selected, addition)` scores the primary metric's distortion of
/// `selected ∪ addition` — the engine path incrementally
/// ([`crate::PreparedKernel::score_edits`]), the reference path by
/// materializing; both are bit-identical by the kernel contract, so the
/// greedy decisions cannot diverge between paths. Greedy scores only the
/// candidates whose gain bound could beat the best so far (see the module
/// docs), in rounds of up to `executor.width()` scores: a round scores the
/// next candidates whose bound beats the current best, then walks them in
/// scan order and reads a score only where the serial scan would score.
/// The plan, and the error it surfaces, do not depend on the width, and
/// one worker scores exactly the serial scan's candidates.
fn plan_trajectory<E: TaskExecutor>(
    candidates: &[Candidate],
    policy: SelectionPolicy,
    order: &[usize],
    distortion_weight: f64,
    max_budget: f64,
    executor: &E,
    score: impl Fn(&Edits, &Edits) -> Result<f64> + Sync,
) -> Result<Trajectory> {
    if policy != SelectionPolicy::Greedy {
        // The baseline order is budget-independent; affordability is
        // decided per budget point by [`fill_from_order`].
        return Ok(Trajectory {
            order: order.to_vec(),
            distortions: Vec::new(),
        });
    }
    let width = executor.width().max(1);
    let mut steps = Vec::new();
    let mut spent = 0.0;

    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut selected_edits: RowEdits = Vec::new();
    let mut distortions = vec![score(&[], &[])?];
    loop {
        let current_d = distortions[distortions.len() - 1];
        // Best affordable candidate by marginal gain per dollar, compared
        // by cross-multiplication so zero prices and negative gains order
        // correctly; strict `>` keeps ties on the earlier (lower-index)
        // candidate.
        let mut best: Option<(usize, f64, f64)> = None; // (position, gain, d_after)
        let beats = |gain: f64, price: f64, best: Option<(usize, f64, f64)>| match best {
            None => true,
            Some((bpos, bgain, _)) => gain * candidates[remaining[bpos]].price > bgain * price,
        };
        // Kernel scores are ≥ 0, so `D(S ∪ c) − D(S) ≥ −D(S)`; with λ and
        // prices ≥ 0 and every rounding step monotone, `gain ≤ bound` holds
        // exactly in floating point. A candidate whose bound cannot beat
        // the best so far cannot win (a NaN bound implies a NaN gain), so
        // the serial scan never scores it.
        let worth_scoring = |pos: usize, best: Option<(usize, f64, f64)>| {
            let cand = &candidates[remaining[pos]];
            let bound = cand.delta_improvement + distortion_weight * current_d;
            spent + cand.price <= max_budget && beats(bound, cand.price, best)
        };
        let mut pos = 0;
        while pos < remaining.len() {
            // One round: the next `width` candidates worth scoring at the
            // current best, scored at once.
            let round: Vec<usize> = (pos..remaining.len())
                .filter(|&p| worth_scoring(p, best))
                .take(width)
                .collect();
            if round.is_empty() {
                break;
            }
            let scores = executor.execute(round.len(), |i| {
                score(&selected_edits, &candidates[remaining[round[i]]].row_edits)
            });
            let mut scores = round.into_iter().zip(scores).peekable();
            // The serial scan over the round, in scan order: a score the
            // updated best makes unworthy is dropped, error included; the
            // round ends at the first candidate the serial scan scores and
            // the round did not.
            while pos < remaining.len() {
                let scored = scores.next_if(|&(p, _)| p == pos);
                if !worth_scoring(pos, best) {
                    pos += 1;
                    continue;
                }
                let Some((_, d_after)) = scored else {
                    break;
                };
                let d_after = d_after?;
                let cand = &candidates[remaining[pos]];
                let gain = cand.delta_improvement - distortion_weight * (d_after - current_d);
                if beats(gain, cand.price, best) {
                    best = Some((pos, gain, d_after));
                }
                pos += 1;
            }
        }
        let Some((pos, gain, d_after)) = best else {
            break; // nothing affordable remains
        };
        if gain <= 0.0 {
            break; // spending more only hurts the objective
        }
        let c = remaining.swap_remove(pos);
        selected_edits = merge_edits(&selected_edits, &candidates[c].row_edits);
        distortions.push(d_after);
        spent += candidates[c].price;
        steps.push(c);
    }
    Ok(Trajectory {
        order: steps,
        distortions,
    })
}

/// Fills one budget point's selection from a trajectory's purchase
/// order: walk the planned purchases in order, buy each one the
/// remaining budget affords, skip the rest. Returns the selected
/// candidate indices (purchase order) and the actual spend. At the
/// maximum requested budget this reproduces the planned purchases
/// exactly; at smaller budgets a too-expensive early purchase is skipped
/// rather than truncating the whole trajectory.
fn fill_from_order(candidates: &[Candidate], order: &[usize], budget: f64) -> (Vec<usize>, f64) {
    let mut selected = Vec::new();
    let mut spent = 0.0;
    for &c in order {
        if spent + candidates[c].price > budget {
            continue;
        }
        spent += candidates[c].price;
        selected.push(c);
    }
    (selected, spent)
}

/// The selection's combined row edits, concatenated in series order (the
/// series blocks are disjoint and row offsets ascend with the series
/// index, so this is row-ascending).
fn selection_edits(candidates: &[Candidate], selected: &[usize]) -> Vec<(usize, Vec<f64>)> {
    let mut by_series: Vec<usize> = selected.to_vec();
    by_series.sort_by_key(|&c| candidates[c].series);
    let mut merged = Vec::new();
    for &c in &by_series {
        merged.extend_from_slice(&candidates[c].row_edits);
    }
    merged
}

/// The selection's treated annotations: dirty annotations with every
/// selected series replaced by its repaired re-detection. Only the
/// reference path materializes them; the engine substitutes tallies
/// ([`SharedReplication::treated_glitches`]).
fn selection_matrices(
    candidates: &[Candidate],
    selected: &[usize],
    dirty_matrices: &[GlitchMatrix],
) -> Vec<GlitchMatrix> {
    let mut treated: Vec<GlitchMatrix> = dirty_matrices.to_vec();
    for &c in selected {
        treated[candidates[c].series] = candidates[c].treated.clone();
    }
    treated
}

/// Plans one `(replication, strategy)` pair on the replication's shared
/// state: builds the candidates and the policy's trajectory, spreading
/// both over `executor` (see the module docs).
fn plan_strategy<E: TaskExecutor>(
    config: &BudgetOptimizerConfig,
    transforms: &[AttributeTransform],
    index: &GlitchIndex,
    shared: &SharedReplication,
    strategy_index: usize,
    max_budget: f64,
    executor: &E,
) -> Result<StrategyPlan> {
    let strategy = &config.strategies[strategy_index];
    let model =
        (strategy.missing_treatment() == MissingTreatment::ModelImpute).then(|| shared.model_fit());
    let seed = config.experiment.seed;
    let candidates = build_candidates(
        &shared.artifacts,
        transforms,
        index,
        (shared.dirty_tallies(), shared.dirty_scores()),
        &config.cost_model,
        strategy,
        strategy_index,
        seed,
        model,
        shared.cache.rows(),
        &shared.row_offsets,
        executor,
    );
    let order = baseline_order(
        config.policy,
        &candidates,
        index,
        &shared.artifacts.dirty_matrices,
        shuffle_seed(seed, shared.artifacts.replication, strategy_index),
    );
    let primary = &shared.kernels[0].prepared;
    let trajectory = plan_trajectory(
        &candidates,
        config.policy,
        &order,
        config.distortion_weight,
        max_budget,
        executor,
        |selected, addition| primary.score_edits(&shared.cache, merge_edits(selected, addition)),
    )?;
    Ok(StrategyPlan {
        candidates,
        trajectory,
    })
}

/// Scores one budget point of a planned `(replication, strategy)` pair.
fn frontier_point(
    config: &BudgetOptimizerConfig,
    shared: &SharedReplication,
    plan: &StrategyPlan,
    strategy_index: usize,
    budget: f64,
) -> Result<FrontierPoint> {
    let candidates = &plan.candidates;
    let trajectory = &plan.trajectory;
    let (selected, spent) = fill_from_order(candidates, &trajectory.order, budget);
    // A greedy prefix was scored by the plan: same edits, same bits.
    let planned = trajectory
        .order
        .starts_with(&selected)
        .then(|| trajectory.distortions.get(selected.len()).copied())
        .flatten();
    let mut patched = None;
    let mut distortions = Vec::with_capacity(shared.kernels.len());
    for (k, kernel) in shared.kernels.iter().enumerate() {
        let value = match planned {
            Some(d) if k == 0 => d,
            _ => kernel.prepared.score_patch(patched.get_or_insert_with(|| {
                PatchedCloud::new(&shared.cache, selection_edits(candidates, &selected))
            }))?,
        };
        distortions.push(MetricScore {
            metric: kernel.name,
            value,
        });
    }
    // The selected series' repaired tallies and node scores stand in for
    // their dirty ones; no annotation is cloned or re-tallied.
    let mut replaced = vec![None; shared.dirty_scores().len()];
    for &c in &selected {
        replaced[candidates[c].series] = Some(candidates[c].treated_glitches);
    }
    let (improvement, treated_report) = shared.treated_glitches(&replaced);
    Ok(FrontierPoint {
        budget,
        replication: shared.artifacts.replication,
        strategy: config.strategies[strategy_index].name(),
        strategy_index,
        policy: config.policy,
        spent,
        series_cleaned: selected.len(),
        improvement,
        distortion: distortions[0].value,
        distortions,
        treated_report,
    })
}

/// Runs the budget optimizer on `config.experiment.threads` workers (see
/// the module docs). Bit-identical to [`budget_optimize_reference`].
///
/// Points come back replication-major, then strategy, then budget.
pub fn budget_optimize(
    data: &Dataset,
    config: &BudgetOptimizerConfig,
) -> Result<Vec<FrontierPoint>> {
    budget_optimize_with(
        data,
        config,
        &ThreadPoolExecutor::new(config.experiment.threads),
    )
}

/// Like [`budget_optimize`], on a caller-supplied executor. The output
/// does not depend on the executor.
pub fn budget_optimize_with<E: TaskExecutor>(
    data: &Dataset,
    config: &BudgetOptimizerConfig,
    executor: &E,
) -> Result<Vec<FrontierPoint>> {
    config.validate()?;
    let experiment = Experiment::new(config.experiment.clone());
    let prepared = experiment.prepare(data)?;
    let transforms = prepared.transforms();
    let index = GlitchIndex::new(config.experiment.weights);
    let (ns, nb) = (config.strategies.len(), config.budgets.len());
    let max_budget = config.budgets.iter().copied().fold(0.0, f64::max);
    let width = executor.width().max(1);
    let replications = config.experiment.replications;
    let imputes = config
        .strategies
        .iter()
        .any(|s| s.missing_treatment() == MissingTreatment::ModelImpute);

    let mut out = Vec::with_capacity(replications * ns * nb);
    for first in (0..replications).step_by(width) {
        let chunk = width.min(replications - first);
        let artifacts = executor.execute(chunk, |g| prepared.replication(first + g));
        // Each group's cache side and, when a strategy imputes, its
        // imputation model are independent: two tasks per group, the even
        // one building the cache, the odd one fitting the model.
        let (caches, models): (Vec<_>, Vec<_>) = executor
            .execute(2 * chunk, |t| {
                let artifacts = &artifacts[t / 2];
                if t % 2 == 0 {
                    let cache = replication_cache(
                        artifacts,
                        transforms,
                        &config.experiment.metrics,
                        config.experiment.weights,
                    );
                    (Some(cache), None)
                } else {
                    (None, imputes.then(|| fit_replication_model(artifacts)))
                }
            })
            .into_iter()
            .unzip();
        let groups: Vec<Result<SharedReplication>> = artifacts
            .into_iter()
            .zip(caches.into_iter().flatten())
            .zip(models.into_iter().skip(1).step_by(2))
            .map(|((artifacts, cache), model)| {
                Ok(SharedReplication::assemble(artifacts, cache?, model))
            })
            .collect();
        // Plan `p` is strategy `p % ns` of the chunk's group `p / ns`. The
        // plans run one after another, each spreading its own work over
        // the executor, so no task starts a second pool.
        let group = |p: usize| groups[p / ns].as_ref().map_err(Clone::clone);
        let plans: Vec<Result<StrategyPlan>> = (0..chunk * ns)
            .map(|p| {
                let shared = group(p)?;
                plan_strategy(
                    config,
                    transforms,
                    &index,
                    shared,
                    p % ns,
                    max_budget,
                    executor,
                )
            })
            .collect();
        let points = executor.execute(chunk * ns * nb, |u| {
            let p = u / nb;
            let plan = plans[p].as_ref().map_err(Clone::clone)?;
            frontier_point(config, group(p)?, plan, p % ns, config.budgets[u % nb])
        });
        for point in points {
            out.push(point?);
        }
    }
    Ok(out)
}

/// The preserved replication-granular reference path: one task per
/// replication, a serial greedy scan, and the full cleaned cloud
/// materialized for every trajectory step and frontier point and scored
/// through [`crate::DistortionKernel::score_rows`].
///
/// Kept in-tree as [`budget_optimize`]'s bit-identity oracle (enforced by
/// the tests in this module and `examples/budget_optimizer.rs`).
pub fn budget_optimize_reference(
    data: &Dataset,
    config: &BudgetOptimizerConfig,
) -> Result<Vec<FrontierPoint>> {
    config.validate()?;
    let experiment = Experiment::new(config.experiment.clone());
    let prepared = experiment.prepare(data)?;
    let transforms = prepared.transforms();
    let index = GlitchIndex::new(config.experiment.weights);
    let max_budget = config.budgets.iter().copied().fold(0.0, f64::max);
    let seed = config.experiment.seed;
    let kernels: Vec<_> = config
        .experiment
        .metrics
        .iter()
        .map(|m| m.kernel())
        .collect();

    let apply_edits = |base_rows: &[Vec<f64>], edits: &Edits| -> Vec<Vec<f64>> {
        let mut rows = base_rows.to_vec();
        for (row, values) in edits {
            rows[*row] = values.clone();
        }
        rows
    };

    let per_replication: Vec<Result<Vec<FrontierPoint>>> = crate::parallel_map(
        config.experiment.replications,
        config.experiment.threads,
        |r| -> Result<Vec<FrontierPoint>> {
            let artifacts = prepared.replication(r);
            let base_rows = pooled_working_rows(&artifacts.dirty, transforms)?;
            let mut row_offsets = Vec::with_capacity(artifacts.dirty.num_series());
            let mut offset = 0;
            for series in artifacts.dirty.series() {
                row_offsets.push(offset);
                offset += series.len();
            }
            let dirty_tallies: Vec<GlitchTally> = artifacts
                .dirty_matrices
                .iter()
                .map(GlitchMatrix::tally)
                .collect();
            let dirty_scores: Vec<f64> =
                dirty_tallies.iter().map(|t| index.tally_score(t)).collect();
            // Same replication-level (maskless) fit as the engine path's
            // `SharedReplication::model_fit`, shared across strategies.
            let model_slot: OnceLock<ModelFit> = OnceLock::new();

            let mut points = Vec::new();
            for (si, strategy) in config.strategies.iter().enumerate() {
                let model = (strategy.missing_treatment() == MissingTreatment::ModelImpute)
                    .then(|| model_slot.get_or_init(|| fit_replication_model(&artifacts)));
                let candidates = build_candidates(
                    &artifacts,
                    transforms,
                    &index,
                    (&dirty_tallies, &dirty_scores),
                    &config.cost_model,
                    strategy,
                    si,
                    seed,
                    model,
                    &base_rows,
                    &row_offsets,
                    &SerialExecutor,
                );
                let order = baseline_order(
                    config.policy,
                    &candidates,
                    &index,
                    &artifacts.dirty_matrices,
                    shuffle_seed(seed, r, si),
                );
                let steps = plan_trajectory(
                    &candidates,
                    config.policy,
                    &order,
                    config.distortion_weight,
                    max_budget,
                    &SerialExecutor,
                    |selected, addition| {
                        let edits = merge_edits(selected, addition);
                        kernels[0].score_rows(&base_rows, &apply_edits(&base_rows, &edits))
                    },
                )?
                .order;
                for &budget in &config.budgets {
                    let (selected, spent) = fill_from_order(&candidates, &steps, budget);
                    let merged = selection_edits(&candidates, &selected);
                    let cleaned_rows = apply_edits(&base_rows, &merged);
                    let mut distortions = Vec::with_capacity(kernels.len());
                    for kernel in &kernels {
                        distortions.push(MetricScore {
                            metric: kernel.name(),
                            value: kernel.score_rows(&base_rows, &cleaned_rows)?,
                        });
                    }
                    let treated =
                        selection_matrices(&candidates, &selected, &artifacts.dirty_matrices);
                    points.push(FrontierPoint {
                        budget,
                        replication: r,
                        strategy: strategy.name(),
                        strategy_index: si,
                        policy: config.policy,
                        spent,
                        series_cleaned: selected.len(),
                        improvement: index.improvement(&artifacts.dirty_matrices, &treated),
                        distortion: distortions[0].value,
                        distortions,
                        treated_report: GlitchReport::from_matrices(&treated),
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
    use crate::engine::share_replication;
    use sd_cleaning::paper_strategy;
    use sd_netsim::{generate, NetsimConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn optimizer_config(policy: SelectionPolicy) -> BudgetOptimizerConfig {
        let mut experiment = ExperimentConfig::paper_default(12, 5);
        experiment.replications = 2;
        experiment.threads = 2;
        BudgetOptimizerConfig {
            experiment,
            strategies: vec![paper_strategy(1)],
            budgets: vec![0.0, 10.0, 40.0, 1e6],
            cost_model: CostModel::uniform(),
            policy,
            distortion_weight: 0.0,
            transport: TransportMode::Cold,
        }
    }

    fn data() -> Dataset {
        generate(&NetsimConfig::small(9)).dataset
    }

    /// The eager greedy scan: scores every affordable candidate at every
    /// step. The oracle the pruned [`plan_trajectory`] must reproduce.
    fn plan_trajectory_eager(
        candidates: &[Candidate],
        distortion_weight: f64,
        max_budget: f64,
        mut score_union: impl FnMut(Vec<(usize, Vec<f64>)>) -> Result<f64>,
    ) -> Result<Vec<usize>> {
        let mut steps = Vec::new();
        let mut spent = 0.0;
        let mut remaining: Vec<usize> = (0..candidates.len()).collect();
        let mut selected_edits: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut current_d = score_union(selected_edits.clone())?;
        loop {
            let mut best: Option<(usize, f64, f64)> = None;
            for (pos, &c) in remaining.iter().enumerate() {
                let cand = &candidates[c];
                if spent + cand.price > max_budget {
                    continue;
                }
                let d_after = score_union(merge_edits(&selected_edits, &cand.row_edits))?;
                let gain = cand.delta_improvement - distortion_weight * (d_after - current_d);
                let better = match best {
                    None => true,
                    Some((bpos, bgain, _)) => {
                        gain * candidates[remaining[bpos]].price > bgain * cand.price
                    }
                };
                if better {
                    best = Some((pos, gain, d_after));
                }
            }
            let Some((pos, gain, d_after)) = best else {
                break;
            };
            if gain <= 0.0 {
                break;
            }
            let c = remaining.swap_remove(pos);
            selected_edits = merge_edits(&selected_edits, &candidates[c].row_edits);
            current_d = d_after;
            spent += candidates[c].price;
            steps.push(c);
        }
        Ok(steps)
    }

    /// A synthetic candidate: series `i` with the single-row edit `[a, b]`.
    fn synthetic(i: usize, price: f64, delta_improvement: f64, a: f64, b: f64) -> Candidate {
        Candidate {
            series: i,
            price,
            delta_improvement,
            row_edits: vec![(i, vec![a, b])],
            treated: GlitchMatrix::new(1, 1),
            treated_glitches: (GlitchMatrix::new(1, 1).tally(), 0.0),
        }
    }

    /// A seeded synthetic candidate set. Prices include 0, and every value
    /// is a small dyadic rational, so sums are exact: every fifth
    /// candidate repeats its predecessor and the two tie bit for bit. When
    /// `poison` is set, one candidate carries a NaN edit, which
    /// [`synthetic_score`] turns into a NaN distortion.
    fn synthetic_candidates(seed: u64, poison: bool) -> Vec<Candidate> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut candidates: Vec<Candidate> = Vec::new();
        for i in 0..12 {
            let (price, delta_improvement, a, b) = match candidates.last() {
                Some(prev) if i % 5 == 4 => (
                    prev.price,
                    prev.delta_improvement,
                    prev.row_edits[0].1[0],
                    prev.row_edits[0].1[1],
                ),
                _ => (
                    rng.gen_range(0..4) as f64,
                    rng.gen_range(0..9) as f64 * 0.25,
                    rng.gen_range(0..9) as f64 - 4.0,
                    rng.gen_range(0..2) as f64,
                ),
            };
            let a = if poison && i == 6 { f64::NAN } else { a };
            candidates.push(synthetic(i, price, delta_improvement, a, b));
        }
        candidates
    }

    /// A non-negative, non-submodular distortion of a synthetic edit set.
    fn synthetic_score(edits: Vec<(usize, Vec<f64>)>) -> Result<f64> {
        let (a, b) = edits
            .iter()
            .fold((0.0, 0.0), |(a, b), (_, v)| (a + v[0], b + v[1]));
        Ok(0.5 * f64::abs(a) + 0.25 * b * b)
    }

    /// Adapts a one-edit-set scorer to [`plan_trajectory`]'s
    /// `(selected, addition)` form.
    fn merged(
        score: impl Fn(RowEdits) -> Result<f64> + Sync,
    ) -> impl Fn(&Edits, &Edits) -> Result<f64> + Sync {
        move |selected, addition| score(merge_edits(selected, addition))
    }

    #[test]
    fn pruned_greedy_matches_the_eager_oracle_on_synthetic_candidates() {
        let (mut pruned_total, mut eager_total) = (0, 0);
        for seed in 0..40 {
            let candidates = synthetic_candidates(seed, seed % 4 == 0);
            for weight in [0.0, 0.1, 0.5, 1e6] {
                for max_budget in [0.0, 4.0, 12.0, 1e9] {
                    let (pruned_scored, mut eager_scored) = (AtomicUsize::new(0), 0);
                    let pruned = plan_trajectory(
                        &candidates,
                        SelectionPolicy::Greedy,
                        &[],
                        weight,
                        max_budget,
                        &SerialExecutor,
                        merged(|edits| {
                            pruned_scored.fetch_add(1, Ordering::Relaxed);
                            synthetic_score(edits)
                        }),
                    )
                    .unwrap();
                    let pruned_scored = pruned_scored.into_inner();
                    let eager = plan_trajectory_eager(&candidates, weight, max_budget, |edits| {
                        eager_scored += 1;
                        synthetic_score(edits)
                    })
                    .unwrap();
                    assert_eq!(
                        pruned.order, eager,
                        "seed {seed}, λ {weight}, budget {max_budget}"
                    );
                    assert_eq!(pruned.distortions.len(), pruned.order.len() + 1);
                    assert!(
                        pruned_scored <= eager_scored,
                        "seed {seed}, λ {weight}, budget {max_budget}: \
                         {pruned_scored} > {eager_scored} scores"
                    );
                    // Speculative rounds read the same scores: the plan
                    // and its distortions keep every bit.
                    for width in [2, 3] {
                        let wide = plan_trajectory(
                            &candidates,
                            SelectionPolicy::Greedy,
                            &[],
                            weight,
                            max_budget,
                            &ThreadPoolExecutor::new(width),
                            merged(synthetic_score),
                        )
                        .unwrap();
                        assert_eq!(wide.order, pruned.order, "width {width}, seed {seed}");
                        let bits = |t: &Trajectory| -> Vec<u64> {
                            t.distortions.iter().map(|d| d.to_bits()).collect()
                        };
                        assert_eq!(bits(&wide), bits(&pruned), "width {width}, seed {seed}");
                    }
                    pruned_total += pruned_scored;
                    eager_total += eager_scored;
                }
            }
        }
        assert!(pruned_total < eager_total);
    }

    #[test]
    fn pruned_greedy_keeps_a_winner_whose_gain_meets_its_bound() {
        // After buying candidate 0 (D = 1), candidate 1 cancels all
        // distortion: its gain 0.75 + 1 equals its bound exactly and beats
        // candidate 2, scanned first, by 2⁻⁴⁰. Any looser skip test would
        // drop it and reorder the purchases.
        let candidates = vec![
            synthetic(0, 1.0, 3.0, 2.0, 0.0),
            synthetic(1, 1.0, 0.75, -2.0, 0.0),
            synthetic(2, 1.0, 1.75 - 2f64.powi(-40), 0.0, 0.0),
        ];
        for width in [1, 2, 3] {
            let pruned = plan_trajectory(
                &candidates,
                SelectionPolicy::Greedy,
                &[],
                1.0,
                1e9,
                &ThreadPoolExecutor::new(width),
                merged(synthetic_score),
            )
            .unwrap();
            assert_eq!(pruned.order, vec![0, 1, 2], "width {width}");
            assert_eq!(
                plan_trajectory_eager(&candidates, 1.0, 1e9, synthetic_score).unwrap(),
                pruned.order
            );
        }
    }

    #[test]
    fn pruned_greedy_surfaces_only_errors_of_scored_candidates() {
        // Candidate 1 cannot beat candidate 0 (bound 0 against gain 10 at
        // equal prices), and after buying candidate 0 nothing is
        // affordable: the serial scan never scores it, the eager scan does.
        let candidates = vec![
            synthetic(0, 1.0, 10.0, 0.0, 0.0),
            synthetic(1, 1.0, 0.0, 0.0, 0.0),
        ];
        let unscorable = |edits: &RowEdits| edits.iter().any(|(row, _)| *row == 1);
        let score = |edits: RowEdits| -> Result<f64> {
            if unscorable(&edits) {
                return Err(FrameworkError::Distortion("unscorable".into()));
            }
            Ok(0.0)
        };
        let pruned = plan_trajectory(
            &candidates,
            SelectionPolicy::Greedy,
            &[],
            0.1,
            1.0,
            &SerialExecutor,
            merged(score),
        )
        .unwrap();
        assert_eq!(pruned.order, vec![0]);
        assert!(plan_trajectory_eager(&candidates, 0.1, 1.0, score).is_err());
        // On two workers, the first round scores candidates 0 and 1 at
        // once (nothing is best yet, so both bounds pass). The serial scan
        // prunes candidate 1 once candidate 0 sets the best, so its error
        // is dropped.
        let failed = AtomicBool::new(false);
        let wide = plan_trajectory(
            &candidates,
            SelectionPolicy::Greedy,
            &[],
            0.1,
            1.0,
            &ThreadPoolExecutor::new(2),
            merged(|edits| {
                if unscorable(&edits) {
                    failed.store(true, Ordering::SeqCst);
                }
                score(edits)
            }),
        )
        .unwrap();
        assert!(
            failed.load(Ordering::SeqCst),
            "candidate 1 was never scored"
        );
        assert_eq!(wide.order, pruned.order);
        // A failure the serial scan does read surfaces at every width.
        let needed = vec![
            synthetic(0, 1.0, 0.0, 0.0, 0.0),
            synthetic(1, 1.0, 10.0, 0.0, 0.0),
        ];
        for width in [1, 2] {
            assert!(matches!(
                plan_trajectory(
                    &needed,
                    SelectionPolicy::Greedy,
                    &[],
                    0.1,
                    1.0,
                    &ThreadPoolExecutor::new(width),
                    merged(score),
                ),
                Err(FrameworkError::Distortion(_))
            ));
        }
    }

    #[test]
    fn pruned_greedy_scores_fewer_candidates_on_the_fixture() {
        let config = optimizer_config(SelectionPolicy::Greedy);
        let prepared = Experiment::new(config.experiment.clone())
            .prepare(&data())
            .unwrap();
        let transforms = prepared.transforms();
        let index = GlitchIndex::new(config.experiment.weights);
        let strategy = &config.strategies[0];
        let (mut pruned_total, mut eager_total) = (0, 0);
        for r in 0..config.experiment.replications {
            let shared = share_replication(
                prepared.replication(r),
                transforms,
                &config.experiment.metrics,
                config.experiment.weights,
            )
            .unwrap();
            let model = (strategy.missing_treatment() == MissingTreatment::ModelImpute)
                .then(|| shared.model_fit());
            let candidates = build_candidates(
                &shared.artifacts,
                transforms,
                &index,
                (shared.dirty_tallies(), shared.dirty_scores()),
                &config.cost_model,
                strategy,
                0,
                config.experiment.seed,
                model,
                shared.cache.rows(),
                &shared.row_offsets,
                &SerialExecutor,
            );
            let primary = &shared.kernels[0].prepared;
            for weight in [0.1, 0.5] {
                for max_budget in [40.0, 1e6] {
                    let (pruned_scored, mut eager_scored) = (AtomicUsize::new(0), 0);
                    let pruned = plan_trajectory(
                        &candidates,
                        SelectionPolicy::Greedy,
                        &[],
                        weight,
                        max_budget,
                        &SerialExecutor,
                        merged(|edits| {
                            pruned_scored.fetch_add(1, Ordering::Relaxed);
                            primary.score_edits(&shared.cache, edits)
                        }),
                    )
                    .unwrap();
                    let pruned_scored = pruned_scored.into_inner();
                    let eager = plan_trajectory_eager(&candidates, weight, max_budget, |edits| {
                        eager_scored += 1;
                        primary.score_edits(&shared.cache, edits)
                    })
                    .unwrap();
                    assert_eq!(
                        pruned.order, eager,
                        "r {r}, λ {weight}, budget {max_budget}"
                    );
                    assert!(pruned_scored <= eager_scored);
                    pruned_total += pruned_scored;
                    eager_total += eager_scored;
                }
            }
        }
        assert!(
            pruned_total < eager_total,
            "pruned {pruned_total} vs eager {eager_total} scores"
        );
    }

    #[test]
    fn cost_model_prices_by_glitch_kind_and_strategy() {
        let mut glitches = GlitchMatrix::new(2, 10);
        glitches.set(0, GlitchType::Missing, 1);
        glitches.set(1, GlitchType::Missing, 2);
        glitches.set(0, GlitchType::Outlier, 3);
        let model = CostModel {
            base_per_series: 5.0,
            per_missing_cell: 2.0,
            per_inconsistent_cell: 7.0,
            per_outlier_cell: 1.0,
            strategy_factors: vec![1.0, 3.0],
        };
        // 5 + 2·2 + 0·7 + 1·1 = 10, tripled for strategy 1.
        assert_eq!(model.price(0, &glitches), 10.0);
        assert_eq!(model.price(1, &glitches), 30.0);
        // Beyond the factor list the multiplier defaults to 1.
        assert_eq!(model.price(7, &glitches), 10.0);
        // The uniform model prices a series at its glitch-cell count.
        assert_eq!(CostModel::uniform().price(0, &glitches), 3.0);
        // Figure 2 coverage reciprocals.
        let re = CostModel::scenario(crate::BudgetScenario::Remeasure);
        assert!((re.per_missing_cell - 1.0 / 0.3).abs() < 1e-12);
    }

    #[test]
    fn cost_model_json_round_trips() {
        let model = CostModel {
            base_per_series: 1.5,
            per_missing_cell: 2.0,
            per_inconsistent_cell: 0.0,
            per_outlier_cell: 4.25,
            strategy_factors: vec![1.0, 0.5],
        };
        let text = serde_json::to_string_pretty(&model.to_json()).unwrap();
        assert_eq!(CostModel::from_json_str(&text).unwrap(), model);
        // `strategy_factors` is optional.
        let bare = CostModel::from_json_str(
            "{\"base_per_series\": 0, \"per_missing_cell\": 1, \
             \"per_inconsistent_cell\": 1, \"per_outlier_cell\": 1}",
        )
        .unwrap();
        assert_eq!(bare, CostModel::uniform());
    }

    #[test]
    fn cost_model_json_rejects_bad_documents() {
        for bad in [
            "not json",
            "{\"per_missing_cell\": 1}",
            "{\"base_per_series\": \"free\", \"per_missing_cell\": 1, \
             \"per_inconsistent_cell\": 1, \"per_outlier_cell\": 1}",
            "{\"base_per_series\": -2, \"per_missing_cell\": 1, \
             \"per_inconsistent_cell\": 1, \"per_outlier_cell\": 1}",
            "{\"base_per_series\": 0, \"per_missing_cell\": 1, \
             \"per_inconsistent_cell\": 1, \"per_outlier_cell\": 1, \
             \"strategy_factors\": [1, \"x\"]}",
        ] {
            assert!(
                matches!(
                    CostModel::from_json_str(bad),
                    Err(FrameworkError::InvalidConfig(_))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = optimizer_config(SelectionPolicy::Greedy);
        c.budgets.clear();
        assert!(budget_optimize(&data(), &c).is_err());
        let mut c = optimizer_config(SelectionPolicy::Greedy);
        c.budgets = vec![f64::INFINITY];
        assert!(budget_optimize(&data(), &c).is_err());
        let mut c = optimizer_config(SelectionPolicy::Greedy);
        c.strategies.clear();
        assert!(budget_optimize(&data(), &c).is_err());
        let mut c = optimizer_config(SelectionPolicy::Greedy);
        c.distortion_weight = -1.0;
        assert!(budget_optimize(&data(), &c).is_err());
        let mut c = optimizer_config(SelectionPolicy::Greedy);
        c.cost_model.per_missing_cell = f64::NAN;
        assert!(budget_optimize(&data(), &c).is_err());
    }

    #[test]
    fn frontier_fills_from_planned_order() {
        let data = data();
        for policy in [
            SelectionPolicy::Greedy,
            SelectionPolicy::DirtiestFirst,
            SelectionPolicy::Random,
        ] {
            let config = optimizer_config(policy);
            let points = budget_optimize(&data, &config).unwrap();
            // 2 replications × 1 strategy × 4 budgets.
            assert_eq!(points.len(), 8, "{policy:?}");
            for (k, p) in points.iter().enumerate() {
                assert_eq!(p.replication, k / 4);
                assert_eq!(p.budget, config.budgets[k % 4]);
                assert_eq!(p.policy, policy);
                assert!(p.spent <= p.budget + 1e-12, "{policy:?}: {p:?}");
                assert!(p.distortion.is_finite() && p.distortion >= 0.0);
            }
            // Budget 0 buys nothing. Fill-from-order is not monotone in
            // general (a larger budget can afford an expensive early
            // purchase that crowds out later cheap ones), but on this
            // instance growing budgets grow the selection.
            for r in 0..2 {
                let by_budget: Vec<&FrontierPoint> =
                    points.iter().filter(|p| p.replication == r).collect();
                assert_eq!(by_budget[0].series_cleaned, 0);
                assert_eq!(by_budget[0].improvement, 0.0);
                assert!(by_budget[0].distortion.abs() < 1e-9);
                for w in by_budget.windows(2) {
                    assert!(w[1].series_cleaned >= w[0].series_cleaned);
                    assert!(w[1].spent >= w[0].spent);
                    assert!(w[1].improvement >= w[0].improvement - 1e-12);
                }
                // The unbounded budget cleans every glitched series under
                // a pure-improvement objective (λ = 0).
                let last = by_budget.last().unwrap();
                assert!(last.series_cleaned > 0, "{policy:?}");
            }
        }
    }

    #[test]
    fn engine_is_bit_identical_to_reference_across_kernels_and_policies() {
        let data = data();
        for policy in [
            SelectionPolicy::Greedy,
            SelectionPolicy::DirtiestFirst,
            SelectionPolicy::Random,
        ] {
            let mut config = optimizer_config(policy);
            config.experiment.metrics = crate::DistortionMetric::full_suite();
            config.distortion_weight = 0.5;
            let reference = budget_optimize_reference(&data, &config).unwrap();
            let engine = budget_optimize(&data, &config).unwrap();
            assert_eq!(reference.len(), engine.len());
            for (a, b) in reference.iter().zip(&engine) {
                assert_eq!(a.budget, b.budget);
                assert_eq!(a.replication, b.replication);
                assert_eq!(a.strategy_index, b.strategy_index);
                assert_eq!(a.series_cleaned, b.series_cleaned, "{policy:?}");
                assert_eq!(a.spent.to_bits(), b.spent.to_bits());
                assert_eq!(
                    a.improvement.to_bits(),
                    b.improvement.to_bits(),
                    "improvement diverged under {policy:?} at r={} b={}",
                    a.replication,
                    a.budget
                );
                assert_eq!(a.distortions.len(), 6);
                for (x, y) in a.distortions.iter().zip(&b.distortions) {
                    assert_eq!(x.metric, y.metric);
                    assert_eq!(
                        x.value.to_bits(),
                        y.value.to_bits(),
                        "{} diverged under {policy:?} at r={} b={}",
                        x.metric,
                        a.replication,
                        a.budget
                    );
                }
                assert_eq!(a.treated_report, b.treated_report);
            }
        }
    }

    /// Every scored field of a frontier, as bits, the treated report's
    /// percentages included.
    fn frontier_bits(points: &[FrontierPoint]) -> Vec<u64> {
        let mut out = Vec::new();
        for p in points {
            out.extend([
                p.budget.to_bits(),
                p.replication as u64,
                p.strategy_index as u64,
                p.spent.to_bits(),
                p.series_cleaned as u64,
                p.improvement.to_bits(),
                p.distortion.to_bits(),
            ]);
            out.extend(p.distortions.iter().map(|d| d.value.to_bits()));
            let report = &p.treated_report;
            out.push(report.total_records as u64);
            out.extend(
                report
                    .record_pct
                    .iter()
                    .chain(&report.cell_pct)
                    .map(|v| v.to_bits()),
            );
        }
        out
    }

    #[test]
    fn deterministic_across_executors_and_thread_counts() {
        // The frontier's bits agree across executors, thread counts and
        // the reference: every policy at 3 replications × 2 strategies,
        // greedy on one replication (two strategies, then one), and the
        // paper's strategies 1 and 3 (missing cells left alone, outliers
        // winsorized) at λ = 0.2 on two replications.
        let data = data();
        let all = [
            SelectionPolicy::Greedy,
            SelectionPolicy::DirtiestFirst,
            SelectionPolicy::Random,
        ];
        let greedy = [SelectionPolicy::Greedy];
        for (replications, strategies, policies, weight) in [
            (3, vec![paper_strategy(1), paper_strategy(5)], &all[..], 0.5),
            (
                1,
                vec![paper_strategy(1), paper_strategy(5)],
                &greedy[..],
                0.5,
            ),
            (1, vec![paper_strategy(1)], &greedy[..], 0.5),
            (
                2,
                vec![paper_strategy(1), paper_strategy(3)],
                &greedy[..],
                0.2,
            ),
        ] {
            for &policy in policies {
                let mut config = optimizer_config(policy);
                config.experiment.replications = replications;
                config.experiment.metrics = crate::DistortionMetric::full_suite();
                config.strategies = strategies.clone();
                config.distortion_weight = weight;
                let label = format!("{policy:?}, R {replications}, S {}", strategies.len());
                let reference = budget_optimize_reference(&data, &config).unwrap();
                let serial = budget_optimize_with(&data, &config, &SerialExecutor).unwrap();
                assert_eq!(serial.len(), replications * strategies.len() * 4);
                assert_eq!(frontier_bits(&serial), frontier_bits(&reference), "{label}");
                for threads in [1, 2, 3] {
                    let pool = ThreadPoolExecutor::new(threads);
                    let parallel = budget_optimize_with(&data, &config, &pool).unwrap();
                    assert_eq!(
                        frontier_bits(&parallel),
                        frontier_bits(&serial),
                        "{label}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_dominates_dirtiest_first_at_equal_spend() {
        // The greedy policy picks by improvement-per-dollar, so at every
        // budget its *objective* (λ = 0: pure improvement) is at least the
        // dirtiest-first baseline's on this instance. Greedy is a knapsack
        // heuristic, not an optimum — this is an empirical pin on the
        // fixed seed, not a theorem; a regression here means the policy
        // changed, not that the sky fell.
        let data = data();
        let greedy = budget_optimize(&data, &optimizer_config(SelectionPolicy::Greedy)).unwrap();
        let dirtiest =
            budget_optimize(&data, &optimizer_config(SelectionPolicy::DirtiestFirst)).unwrap();
        let mut strictly_better = 0;
        for (g, d) in greedy.iter().zip(&dirtiest) {
            assert_eq!(g.budget, d.budget);
            assert!(
                g.improvement >= d.improvement - 1e-9,
                "greedy lost at r={} budget={}: {} < {}",
                g.replication,
                g.budget,
                g.improvement,
                d.improvement
            );
            if g.improvement > d.improvement + 1e-9 {
                strictly_better += 1;
            }
        }
        assert!(
            strictly_better > 0,
            "greedy should beat the baseline somewhere on constrained budgets"
        );
    }

    #[test]
    fn distortion_weight_trades_improvement_for_distortion() {
        // A heavily penalized greedy run never distorts more than the
        // unpenalized one at the same budget (it stops buying earlier or
        // picks gentler repairs).
        let data = data();
        let free = budget_optimize(&data, &optimizer_config(SelectionPolicy::Greedy)).unwrap();
        let mut config = optimizer_config(SelectionPolicy::Greedy);
        config.distortion_weight = 1e6;
        let taxed = budget_optimize(&data, &config).unwrap();
        for (f, t) in free.iter().zip(&taxed) {
            assert!(t.distortion <= f.distortion + 1e-9);
            assert!(t.series_cleaned <= f.series_cleaned);
        }
    }
}
