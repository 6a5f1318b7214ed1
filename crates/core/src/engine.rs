//! The staged experiment execution engine.
//!
//! # Unit granularity
//!
//! The paper's protocol is `R` replications × `S` strategies. The previous
//! runner scheduled at replication granularity: one task per replication,
//! each serially evaluating all `S` strategies and re-deriving per-strategy
//! state that is invariant within the replication. This engine schedules at
//! `(replication, strategy)` granularity instead: a flat work queue of
//! `R × S` units drained by a generic [`TaskExecutor`], so load balances
//! across strategy units (model-imputing strategies cost ~25× a winsorize
//! pass) and the parallel width is `R × S` rather than `R`.
//!
//! # Artifact sharing
//!
//! Everything a replication's strategy units have in common is computed by
//! the first unit that needs it and shared via `Arc` ([`run_staged`]'s
//! group slots):
//!
//! * [`ReplicationArtifacts`] — test pair, fitted detector, cleaning
//!   context, dirty annotations — built once per replication (previously
//!   amortized inside the per-replication task; now shared across units);
//! * the dirty sample's pooled working rows and per-axis **signature
//!   cache** ([`sd_emd::SignatureCache`]), so every distortion evaluation
//!   reuses the dirty side's sorted columns and grid signatures instead of
//!   rebuilding them per strategy;
//! * one **prepared distortion kernel** per requested metric
//!   ([`crate::DistortionKernel::prepare`]): the cleaning pass runs once
//!   per unit and every kernel scores the same sparse patch incrementally
//!   ([`crate::PreparedKernel::score_patch`]);
//! * the MVN **imputation model** ([`sd_cleaning::ModelFit`]), fitted
//!   lazily by the first model-imputing unit of the replication (the fit is
//!   RNG-free and strategy-invariant);
//! * the dirty [`GlitchReport`], identical across the replication's
//!   outcomes.
//!
//! Strategy application itself records a sparse cell patch against the
//! shared dirty sample ([`CompositeStrategy::clean_patch`]): touched series
//! are materialized copy-on-write, untouched series are borrowed, and the
//! engine re-detects glitches only on touched series while deriving the
//! cleaned pooled rows by patching a copy of the shared dirty rows.
//!
//! Group slots drop their shared state as soon as the last unit of the
//! group completes, so peak memory stays proportional to the number of
//! in-flight replications, not `R`.
//!
//! # Determinism
//!
//! Batch outcomes are bit-identical to the pre-engine
//! [`crate::Experiment::run`] for a fixed seed (a regression test enforces
//! this): every RNG stream is derived from `(seed, replication,
//! strategy_index)`, never from scheduling; the cell-patch path executes
//! the same monomorphized cleaning pass as the in-place path; and every
//! cached artifact is a pure function of the replication, so hit/miss
//! order cannot change bits.
//!
//! Exact EMD transports inside unit scoring ride a **thread-local cold
//! scratch arena** ([`sd_emd::BatchTransport`]): allocations (basis tree,
//! flow matrix, pricing scratch) are reused across solves, but every solve
//! replays the exact pivot sequence of a standalone solve, so results stay
//! bit-identical regardless of which thread scored which unit.
//!
//! # Windowed mode
//!
//! [`crate::WindowedExperiment`] runs the §3.3 online formulation on the
//! same engine: groups are sliding windows instead of replications, with
//! per-window artifacts calibrated by a
//! [`sd_glitch::WindowedOutlierDetector`] screen over each arrival's
//! history. See [`crate::windowed`]'s docs.
//!
//! # Cost-sweep and budget-optimizer workloads
//!
//! [`crate::cost_sweep`] drains `(replication, strategy × fraction)` units
//! over the same groups, and [`crate::budget_optimize`] drains
//! `(replication, strategy × budget)` units: both reuse the replication's
//! `SharedReplication` slot and score through `score_view`-style
//! incremental kernels. The optimizer additionally shares each
//! `(replication, strategy)` purchase trajectory across its budget units —
//! see [`crate::optimize`]'s docs for the unit shape.

use crate::distortion::pooled_working_rows;
use crate::experiment::{PreparedExperiment, ReplicationArtifacts, StrategyOutcome};
use crate::kernel::PreparedKernel;
use crate::{parallel_map, DistortionMetric, ExperimentResult, MetricScore, Result};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_cleaning::{CleaningStrategy, CompositeStrategy, MissingTreatment, ModelFit};
use sd_data::CleanedView;
use sd_emd::{PatchedCloud, SignatureCache};
use sd_glitch::{GlitchIndex, GlitchMatrix, GlitchReport, GlitchWeights};
use sd_stats::AttributeTransform;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Something that can drain a queue of `count` independent tasks and
/// return their results in index order.
///
/// The engine is generic over this so the same staged pipeline runs on the
/// in-process thread pool, serially (tests, deterministic profiling), or on
/// future backends without touching the scheduling logic.
pub trait TaskExecutor: Sync {
    /// Runs `f(0), …, f(count − 1)` and returns results in index order.
    fn execute<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync;
}

/// The default executor: a work-stealing scoped thread pool
/// ([`parallel_map`]). `threads == 0` selects the machine's available
/// parallelism.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPoolExecutor {
    threads: usize,
}

impl ThreadPoolExecutor {
    /// Creates a pool executor with the given worker count (0 = auto).
    pub fn new(threads: usize) -> Self {
        ThreadPoolExecutor { threads }
    }
}

impl TaskExecutor for ThreadPoolExecutor {
    fn execute<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        parallel_map(count, self.threads, f)
    }
}

/// An executor that runs every task inline on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl TaskExecutor for SerialExecutor {
    fn execute<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..count).map(f).collect()
    }
}

/// One group's shared-state slot: built by the first unit that acquires
/// it, dropped when the last unit releases it.
struct Slot<G> {
    shared: Mutex<Option<Arc<G>>>,
    remaining: AtomicUsize,
}

impl<G> Slot<G> {
    fn new(units: usize) -> Self {
        Slot {
            shared: Mutex::new(None),
            remaining: AtomicUsize::new(units),
        }
    }

    fn acquire(&self, build: impl FnOnce() -> G) -> Arc<G> {
        let mut guard = self.shared.lock();
        if let Some(shared) = guard.as_ref() {
            return Arc::clone(shared);
        }
        let built = Arc::new(build());
        *guard = Some(Arc::clone(&built));
        built
    }

    fn release(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.shared.lock() = None;
        }
    }
}

/// Runs `groups × units_per_group` units over `executor`, building each
/// group's shared state at most once (first unit to arrive builds under the
/// group lock; later units reuse the `Arc`) and dropping it as soon as the
/// group's last unit finishes.
///
/// Unit `u` maps to group `u / units_per_group`, member `u % units_per_group`;
/// results come back in that flat order regardless of scheduling.
pub fn run_staged<G, T, E, B, U>(
    executor: &E,
    groups: usize,
    units_per_group: usize,
    build: B,
    eval: U,
) -> Vec<T>
where
    G: Send + Sync,
    T: Send,
    E: TaskExecutor,
    B: Fn(usize) -> G + Sync,
    U: Fn(&G, usize, usize) -> T + Sync,
{
    if groups == 0 || units_per_group == 0 {
        return Vec::new();
    }
    let slots: Vec<Slot<G>> = (0..groups).map(|_| Slot::new(units_per_group)).collect();
    executor.execute(groups * units_per_group, |u| {
        let group = u / units_per_group;
        let unit = u % units_per_group;
        let shared = slots[group].acquire(|| build(group));
        let out = eval(&shared, group, unit);
        slots[group].release();
        out
    })
}

/// One requested metric's engine-side state: its name (for result rows)
/// and its dirty-side prepared kernel.
pub(crate) struct PreparedMetric {
    /// Kernel name, recorded in every [`MetricScore`].
    pub name: &'static str,
    /// The kernel's prepared dirty-side state.
    pub prepared: Box<dyn PreparedKernel>,
}

/// Everything one replication's strategy units share, behind one `Arc`.
pub(crate) struct SharedReplication {
    /// The calibrated replication pipeline state.
    pub artifacts: ReplicationArtifacts,
    /// Signature cache over the dirty sample's pooled working rows.
    pub cache: SignatureCache,
    /// One prepared distortion kernel per requested metric, in config
    /// order — built alongside the cache in the group-slot build, so every
    /// unit of the replication scores all metrics against shared
    /// dirty-side state.
    pub kernels: Vec<PreparedMetric>,
    /// Pooled-row offset of each series (series `i`'s record at time `t`
    /// is row `row_offsets[i] + t`).
    pub row_offsets: Vec<usize>,
    /// Glitch percentages of the dirty sample (outcome field, identical
    /// across the replication's strategies).
    pub dirty_report: GlitchReport,
    /// Lazily fitted strategy-invariant imputation model.
    model: OnceLock<ModelFit>,
}

impl SharedReplication {
    /// The replication's shared MVN imputation model, fitted by the first
    /// caller (on the full dirty sample, no missingness mask) and reused by
    /// every later unit of the group. Strategy- and schedule-invariant, so
    /// sharing cannot change bits.
    pub(crate) fn model_fit(&self) -> &ModelFit {
        self.model.get_or_init(|| {
            ModelFit::fit(
                &self.artifacts.dirty,
                &self.artifacts.dirty_matrices,
                &self.artifacts.context,
                None,
            )
        })
    }
}

/// Builds the shared per-replication state from calibrated artifacts:
/// pooled dirty rows, the signature cache, and every requested kernel's
/// prepared dirty side.
pub(crate) fn share_replication(
    artifacts: ReplicationArtifacts,
    transforms: &[AttributeTransform],
    metrics: &[DistortionMetric],
) -> SharedReplication {
    let rows = pooled_working_rows(&artifacts.dirty, transforms);
    let mut row_offsets = Vec::with_capacity(artifacts.dirty.num_series());
    let mut offset = 0;
    for series in artifacts.dirty.series() {
        row_offsets.push(offset);
        offset += series.len();
    }
    let dirty_report = GlitchReport::from_matrices(&artifacts.dirty_matrices);
    let cache = SignatureCache::new(rows);
    let kernels = metrics
        .iter()
        .map(|metric| {
            let kernel = metric.kernel();
            PreparedMetric {
                name: kernel.name(),
                prepared: kernel.prepare(&cache),
            }
        })
        .collect();
    SharedReplication {
        artifacts,
        cache,
        kernels,
        row_offsets,
        dirty_report,
        model: OnceLock::new(),
    }
}

/// Scores one `(group, strategy)` unit against shared replication state:
/// patch-clean, incremental re-detection, kernel-scored distortion for
/// every requested metric.
///
/// `group` is the replication number in batch mode and the window index in
/// windowed mode; it feeds both the outcome's `replication` field and the
/// RNG derivation, which matches [`ReplicationArtifacts::apply`] exactly.
pub(crate) fn evaluate_unit(
    shared: &SharedReplication,
    transforms: &[AttributeTransform],
    weights: GlitchWeights,
    seed: u64,
    group: usize,
    strategy_index: usize,
    strategy: &CompositeStrategy,
) -> Result<StrategyOutcome> {
    let artifacts = &shared.artifacts;
    let model = if strategy.missing_treatment() == MissingTreatment::ModelImpute {
        Some(shared.model_fit())
    } else {
        None
    };

    let mut rng =
        StdRng::seed_from_u64(seed ^ ((group as u64) << 20) ^ ((strategy_index as u64) << 50));
    let (view, cleaning) = strategy.clean_patch(
        &artifacts.dirty,
        &artifacts.dirty_matrices,
        &artifacts.context,
        &mut rng,
        model,
    );
    let (improvement, distortions, treated_report) =
        score_view(shared, transforms, weights, &view)?;

    Ok(StrategyOutcome {
        strategy: strategy.name(),
        strategy_index,
        replication: group,
        improvement,
        distortion: distortions[0].value,
        distortions,
        dirty_report: shared.dirty_report.clone(),
        treated_report,
        cleaning,
    })
}

/// Scores one cleaned [`CleanedView`] against its replication's shared
/// state: incremental re-detection on touched series, glitch improvement,
/// and one incremental `score_patch` per prepared kernel — the cleaning
/// pass happens once, the patched cloud is derived once, and every
/// requested metric scores it. Returns
/// `(improvement, per-metric distortions, treated report)`.
///
/// Shared by the batch/windowed strategy units and the cost-sweep budget
/// units — every engine workload scores through this one path.
pub(crate) fn score_view(
    shared: &SharedReplication,
    transforms: &[AttributeTransform],
    weights: GlitchWeights,
    view: &CleanedView<'_>,
) -> Result<(f64, Vec<MetricScore>, GlitchReport)> {
    let artifacts = &shared.artifacts;
    // Re-detect only touched series; untouched series keep their dirty
    // annotations (detection is a pure per-series function).
    let treated_matrices: Vec<GlitchMatrix> = (0..view.num_series())
        .map(|i| {
            if view.is_patched(i) {
                artifacts.detector.detect_series(view.series_at(i))
            } else {
                artifacts.dirty_matrices[i].clone()
            }
        })
        .collect();
    let index = GlitchIndex::new(weights);
    let improvement = index.improvement(&artifacts.dirty_matrices, &treated_matrices);

    // The cleaned cloud as sparse row edits against the shared dirty rows:
    // cell edits grouped by pooled-row index, replayed in order in working
    // space (bit-identical to pooling the materialized dataset). The
    // cleaning pass emits edits record by record, so edits to one row are
    // adjacent and ascending in `t` — grouping is a linear walk.
    let mut row_edits: Vec<(usize, Vec<f64>)> = Vec::new();
    for i in view.patch().touched_series() {
        let offset = shared.row_offsets[i];
        for e in view.patch().series_edits(i) {
            let row = offset + e.t as usize;
            if row_edits.last().is_none_or(|(r, _)| *r != row) {
                row_edits.push((row, shared.cache.rows()[row].clone()));
            }
            // The push above guarantees a last element; `if let` keeps the
            // path panic-free instead of asserting it with `expect`.
            if let Some((_, new_row)) = row_edits.last_mut() {
                let a = e.attr as usize;
                new_row[a] = transforms[a].forward(e.value);
            }
        }
    }
    let patched = PatchedCloud::new(&shared.cache, row_edits);
    let mut distortions = Vec::with_capacity(shared.kernels.len());
    for kernel in &shared.kernels {
        distortions.push(MetricScore {
            metric: kernel.name,
            value: kernel.prepared.score_patch(&patched)?,
        });
    }
    Ok((
        improvement,
        distortions,
        GlitchReport::from_matrices(&treated_matrices),
    ))
}

/// Runs the full batch protocol on the staged engine: a work queue of
/// `R × S` `(replication, strategy)` units with per-replication shared
/// artifacts.
pub(crate) fn run_batch<E: TaskExecutor>(
    prepared: &PreparedExperiment,
    strategies: &[CompositeStrategy],
    executor: &E,
) -> Result<ExperimentResult> {
    let config = prepared.config();
    let transforms = prepared.transforms();
    let unit_results = run_staged(
        executor,
        config.replications,
        strategies.len(),
        |r| share_replication(prepared.replication(r), transforms, &config.metrics),
        |shared, r, s| {
            evaluate_unit(
                shared,
                transforms,
                config.weights,
                config.seed,
                r,
                s,
                &strategies[s],
            )
        },
    );
    let mut outcomes = Vec::with_capacity(unit_results.len());
    for result in unit_results {
        outcomes.push(result?);
    }
    Ok(ExperimentResult::from_outcomes(
        outcomes,
        config.metrics.iter().map(DistortionMetric::name).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_staged_builds_each_group_once() {
        let builds = AtomicUsize::new(0);
        let out = run_staged(
            &ThreadPoolExecutor::new(4),
            6,
            5,
            |g| {
                builds.fetch_add(1, Ordering::SeqCst);
                g * 100
            },
            |shared, g, u| shared + g + u,
        );
        assert_eq!(builds.load(Ordering::SeqCst), 6);
        assert_eq!(out.len(), 30);
        for (i, v) in out.iter().enumerate() {
            let (g, u) = (i / 5, i % 5);
            assert_eq!(*v, g * 101 + u);
        }
    }

    #[test]
    fn run_staged_serial_matches_parallel() {
        let serial = run_staged(&SerialExecutor, 4, 3, |g| g * 7, |s, g, u| s + g + u);
        let parallel = run_staged(
            &ThreadPoolExecutor::new(3),
            4,
            3,
            |g| g * 7,
            |s, g, u| s + g + u,
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_staged_drops_shared_state_after_last_unit() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let slots: Vec<Slot<Probe>> = (0..1).map(|_| Slot::new(2)).collect();
        let p = slots[0].acquire(|| Probe(Arc::clone(&drops)));
        slots[0].release();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "one unit still holds it");
        drop(p);
        let p2 = slots[0].acquire(|| unreachable!("slot cleared only at zero"));
        drop(p2);
        slots[0].release();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "cleared with the last unit"
        );
    }

    #[test]
    fn panicking_unit_does_not_poison_shared_cache() {
        // Regression for the std::sync → parking_lot Mutex switch in
        // `SignatureCache`: one unit panicking mid-queue must neither stop
        // the surviving workers from finishing their units nor leave the
        // shared memo lock poisoned for later users.
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|i| vec![i as f64, (i * 7 % 5) as f64])
            .collect();
        let spec = sd_stats::GridSpec::covering(&rows, &rows, 4).expect("non-degenerate grid");
        let cache = SignatureCache::new(rows);
        let completed = AtomicUsize::new(0);

        // The panic is deliberate; silence its report while it unwinds.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_staged(
                &ThreadPoolExecutor::new(2),
                1,
                8,
                |_| (),
                |(), _, u| {
                    let side = cache.side_for(&spec, &[1.0, 1.0]).expect("cacheable side");
                    assert!(side.occupied > 0);
                    if u == 3 {
                        panic!("unit 3 dies mid-queue");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        std::panic::set_hook(default_hook);

        assert!(
            outcome.is_err(),
            "the unit panic must propagate to the caller"
        );
        assert_eq!(
            completed.load(Ordering::SeqCst),
            7,
            "surviving workers drain every other unit"
        );
        // The memoized side survives the panic: the lock is not poisoned
        // and the entry built before the crash is still served.
        assert!(cache.memoized() >= 1);
        assert!(cache.side_for(&spec, &[1.0, 1.0]).is_ok());
    }

    #[test]
    fn empty_queues_are_empty() {
        let none: Vec<usize> = run_staged(&SerialExecutor, 0, 5, |_| 0, |_, _, _| 0);
        assert!(none.is_empty());
        let none: Vec<usize> = run_staged(&SerialExecutor, 5, 0, |_| 0, |_, _, _| 0);
        assert!(none.is_empty());
    }
}
