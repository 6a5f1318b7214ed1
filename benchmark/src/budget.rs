//! The `budget` workload: one greedy budget-optimizer frontier per job, in a
//! closed loop with one client, on the harness-scale telemetry.
//!
//! Candidate re-scoring (`score_edits` plus its transport solve) is almost
//! all of a job's time, while cleaning and scheduling do little — so
//! changes to the optimizer or to transport show here and not in
//! `protocol`.

use crate::trace::{self, LayerValues, Tracer, CLEAN_SPANS};
use crate::{dataset_of, harness_pool, job_seed, replay, require, stats, ClosedLoop, Run, Traced};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_cleaning::paper_strategy;
use sd_core::{
    budget_optimize_with, BudgetOptimizerConfig, CostModel, Experiment, ExperimentConfig,
    FrameworkError, FrontierPoint, SelectionPolicy, SerialExecutor, TaskExecutor,
    ThreadPoolExecutor, TransportMode,
};
use sd_data::Dataset;
use sd_glitch::{GlitchIndex, GlitchMatrix};
use std::time::Instant;

/// The frontier's budget ladder (uniform cost: one unit per glitch cell).
const BUDGETS: [f64; 6] = [0.0, 5.0, 10.0, 20.0, 40.0, 80.0];
/// The greedy objective's distortion penalty.
const DISTORTION_WEIGHT: f64 = 0.1;

fn optimizer_config(seed: u64, threads: usize) -> BudgetOptimizerConfig {
    let mut experiment = ExperimentConfig::paper_default(100, seed);
    experiment.replications = 1;
    experiment.threads = threads;
    BudgetOptimizerConfig {
        experiment,
        strategies: vec![paper_strategy(1)],
        budgets: BUDGETS.to_vec(),
        cost_model: CostModel::uniform(),
        policy: SelectionPolicy::Greedy,
        distortion_weight: DISTORTION_WEIGHT,
        transport: TransportMode::Cold,
    }
}

/// A frontier's scored values as bits.
fn bits(points: &[FrontierPoint]) -> Vec<u64> {
    let mut out = Vec::new();
    for p in points {
        out.extend([
            p.budget.to_bits(),
            p.spent.to_bits(),
            p.series_cleaned as u64,
            p.improvement.to_bits(),
        ]);
        out.extend(p.distortions.iter().map(|d| d.value.to_bits()));
    }
    out
}

/// Frontier sanity: every point spends within its budget, and the top
/// budget's point dominates its ladder in spend and series cleaned — the
/// top budget buys the whole planned trajectory, and every smaller budget
/// buys a subset of it. (The cleaned count is not monotone between two
/// smaller budgets: a budget walk skips a purchase it cannot afford and
/// may then afford several cheaper ones.)
fn sane(points: &[FrontierPoint]) -> Result<(), String> {
    for p in points {
        if p.spent > p.budget {
            return Err(format!("spent {} over budget {}", p.spent, p.budget));
        }
    }
    for top in points
        .iter()
        .filter(|p| p.budget == BUDGETS[BUDGETS.len() - 1])
    {
        let ladder = points
            .iter()
            .filter(|p| p.replication == top.replication && p.strategy_index == top.strategy_index);
        for p in ladder {
            if p.series_cleaned > top.series_cleaned || p.spent > top.spent {
                return Err(format!(
                    "budget {} cleaned {} series for {}, more than the top budget's {} for {}",
                    p.budget, p.series_cleaned, p.spent, top.series_cleaned, top.spent
                ));
            }
        }
    }
    Ok(())
}

fn job<E: TaskExecutor>(
    data: &Dataset,
    seed: u64,
    threads: usize,
    executor: &E,
) -> Result<Vec<FrontierPoint>, FrameworkError> {
    budget_optimize_with(data, &optimizer_config(seed, threads), executor)
}

fn setup(seed: u64, threads: usize) -> Vec<Dataset> {
    let pool = harness_pool(seed);
    require(
        job(
            &pool[0],
            job_seed(seed, u64::MAX),
            threads,
            &ThreadPoolExecutor::new(threads),
        ),
        "budget warm-up job",
    );
    pool
}

pub fn run(run: &Run) -> ClosedLoop<Vec<u64>> {
    let threads = run.threads;
    let (data, setup_s) = run.setup(|| setup(run.seed, threads));
    let pool = ThreadPoolExecutor::new(threads);
    let mut closed = ClosedLoop::new(data, setup_s);
    closed.drive(run, |data, seed| {
        let points = job(data, seed, threads, &pool).map_err(|e| e.to_string())?;
        sane(&points)?;
        Ok((points.len(), bits(&points)))
    });
    closed.check(|data, seed, parallel| {
        job(data, seed, threads, &SerialExecutor).map(|serial| bits(&serial) == *parallel)
    });
    closed
}

/// One purchasable repair: a single glitched series cleaned in isolation.
struct Candidate {
    series: usize,
    price: f64,
    delta_improvement: f64,
    row_edits: Vec<(usize, Vec<f64>)>,
    treated: GlitchMatrix,
}

/// Merges two row-ascending, row-disjoint edit sets.
fn merge(a: &[(usize, Vec<f64>)], b: &[(usize, Vec<f64>)]) -> Vec<(usize, Vec<f64>)> {
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

/// `(budget, spent, series cleaned, improvement, distortions)` of one
/// replayed frontier point.
type Point = (f64, f64, usize, f64, Vec<f64>);

/// The optimizer's job replayed serially under spans, through the same
/// public calls as `budget_optimize`: candidate repairs
/// (`clean_patch_filtered` + re-detection), the greedy plan (one
/// `score_edits` per affordable candidate per purchase), and the frontier
/// points (`score_patch` of each budget's selection).
fn replay_job(
    t: &mut Tracer,
    data: &Dataset,
    config: &BudgetOptimizerConfig,
) -> Result<Vec<Point>, FrameworkError> {
    let experiment = &config.experiment;
    let prepared = t.span("core.prepare", |_| {
        Experiment::new(experiment.clone()).prepare(data)
    })?;
    let transforms = prepared.transforms();
    let index = GlitchIndex::new(experiment.weights);
    let max_budget = config.budgets.iter().copied().fold(0.0, f64::max);
    let mut frontier = Vec::new();
    for r in 0..experiment.replications {
        let artifacts = replay::replication(t, &prepared, r);
        let mut shared = replay::share(t, artifacts, transforms, &experiment.metrics);
        for (si, strategy) in config.strategies.iter().enumerate() {
            replay::ensure_model(t, &mut shared, strategy);
            let shared = &shared;
            let a = &shared.artifacts;
            let n = a.dirty.num_series();
            let candidates = t.span("core.optimize.candidates", |t| {
                let mut candidates = Vec::new();
                for i in 0..n {
                    if index.node_score(&a.dirty_matrices[i]) <= 0.0 {
                        continue;
                    }
                    let mut mask = vec![false; n];
                    mask[i] = true;
                    let mut rng = StdRng::seed_from_u64(
                        experiment.seed
                            ^ ((r as u64) << 24)
                            ^ ((si as u64) << 44)
                            ^ (((i as u64) + 1) << 8),
                    );
                    let (view, outcome) = t.span(CLEAN_SPANS[si], |_| {
                        strategy.clean_patch_filtered(
                            &a.dirty,
                            &a.dirty_matrices,
                            &a.context,
                            &mut rng,
                            Some(&mask),
                            replay::model_for(shared, strategy),
                        )
                    });
                    t.count("cleaning.cells_changed", outcome.cells_changed() as f64);
                    let treated = t.span("glitch.detect", |t| {
                        if view.is_patched(i) {
                            t.count("glitch.rows_scanned", view.series_at(i).len() as f64);
                            a.detector.detect_series(view.series_at(i))
                        } else {
                            a.dirty_matrices[i].clone()
                        }
                    });
                    let delta_improvement = (index.node_score(&a.dirty_matrices[i])
                        - index.node_score(&treated))
                        * 100.0
                        / n as f64;
                    candidates.push(Candidate {
                        series: i,
                        price: config.cost_model.price(si, &a.dirty_matrices[i]),
                        delta_improvement,
                        row_edits: replay::row_edits(shared, transforms, &view, std::iter::once(i)),
                        treated,
                    });
                }
                candidates
            });
            t.count("core.optimize.candidates", candidates.len() as f64);

            let order = t.span(
                "core.optimize.plan",
                |t| -> Result<Vec<usize>, FrameworkError> {
                    let score_union = |t: &mut Tracer, edits| {
                        t.span("core.kernel.score_edits", |t| {
                            t.count("emd.transport_solves", 1.0);
                            shared.kernels[0].score_edits(&shared.cache, edits)
                        })
                    };
                    let mut steps = Vec::new();
                    let mut spent = 0.0;
                    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
                    let mut selected: Vec<(usize, Vec<f64>)> = Vec::new();
                    let mut current = score_union(t, selected.clone())?;
                    loop {
                        let mut best: Option<(usize, f64, f64)> = None;
                        for (pos, &c) in remaining.iter().enumerate() {
                            let cand = &candidates[c];
                            if spent + cand.price > max_budget {
                                continue;
                            }
                            let after = score_union(t, merge(&selected, &cand.row_edits))?;
                            let gain = cand.delta_improvement
                                - config.distortion_weight * (after - current);
                            let better = match best {
                                None => true,
                                Some((bpos, bgain, _)) => {
                                    gain * candidates[remaining[bpos]].price > bgain * cand.price
                                }
                            };
                            if better {
                                best = Some((pos, gain, after));
                            }
                        }
                        let Some((pos, gain, after)) = best else {
                            break;
                        };
                        if gain <= 0.0 {
                            break;
                        }
                        let c = remaining.swap_remove(pos);
                        selected = merge(&selected, &candidates[c].row_edits);
                        current = after;
                        spent += candidates[c].price;
                        steps.push(c);
                    }
                    Ok(steps)
                },
            )?;

            t.span(
                "core.optimize.frontier",
                |t| -> Result<(), FrameworkError> {
                    for &budget in &config.budgets {
                        let (mut chosen, mut spent) = (Vec::new(), 0.0);
                        for &c in &order {
                            if spent + candidates[c].price <= budget {
                                spent += candidates[c].price;
                                chosen.push(c);
                            }
                        }
                        let mut by_series = chosen.clone();
                        by_series.sort_by_key(|&c| candidates[c].series);
                        let edits: Vec<(usize, Vec<f64>)> = by_series
                            .iter()
                            .flat_map(|&c| candidates[c].row_edits.iter().cloned())
                            .collect();
                        let distortions = replay::score(t, shared, edits)?;
                        let mut treated = a.dirty_matrices.clone();
                        for &c in &chosen {
                            treated[candidates[c].series] = candidates[c].treated.clone();
                        }
                        let improvement = index.improvement(&a.dirty_matrices, &treated);
                        frontier.push((budget, spent, chosen.len(), improvement, distortions));
                    }
                    Ok(())
                },
            )?;
        }
    }
    Ok(frontier)
}

fn matches(replayed: &[Point], serial: &[FrontierPoint]) -> bool {
    replayed.len() == serial.len()
        && replayed
            .iter()
            .zip(serial)
            .all(|((budget, spent, cleaned, imp, dist), p)| {
                budget.to_bits() == p.budget.to_bits()
                    && spent.to_bits() == p.spent.to_bits()
                    && *cleaned == p.series_cleaned
                    && imp.to_bits() == p.improvement.to_bits()
                    && dist.len() == p.distortions.len()
                    && dist
                        .iter()
                        .zip(&p.distortions)
                        .all(|(a, b)| a.to_bits() == b.value.to_bits())
            })
}

/// The traced run: per job, time the optimizer on `SerialExecutor`, then
/// replay the same job serially under spans.
pub fn traced(run: &Run) -> Traced {
    let threads = run.threads;
    let datasets = harness_pool(run.seed);
    let mut tracer = Tracer::new();
    let mut jobs: Vec<LayerValues> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while jobs.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        let j = jobs.len() as u64;
        let data = dataset_of(&datasets, j);
        let config = optimizer_config(job_seed(run.seed, j), threads);
        attempted += 1;
        let t = Instant::now();
        let serial = require(
            budget_optimize_with(data, &config, &SerialExecutor),
            "serial frontier",
        );
        let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
        let replayed = tracer.job(j, "job", |t| replay_job(t, data, &config));
        let ok = match &replayed {
            Ok(points) => matches(points, &serial),
            Err(e) => {
                eprintln!("budget: traced job {j} failed: {e}");
                false
            }
        };
        if !ok || sane(&serial).is_err() {
            failed += 1;
        }
        let (root_ms, unattributed_ms) = tracer.root_ms(j);
        let score_edits_us: Vec<f64> = tracer
            .durations_ms(j, "core.kernel.score_edits")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        let top = serial
            .iter()
            .filter(|p| p.budget == BUDGETS[BUDGETS.len() - 1])
            .map(|p| p.series_cleaned as f64)
            .sum::<f64>();
        let mut v = LayerValues::new();
        v.insert("core.prepare_ms", tracer.total_ms(j, "core.prepare"));
        v.insert(
            "core.replication_ms",
            tracer.total_ms(j, "core.replication"),
        );
        v.insert("glitch.detect_ms", tracer.total_ms(j, "glitch.detect"));
        v.insert(
            "glitch.rows_scanned",
            tracer.counter(j, "glitch.rows_scanned"),
        );
        v.insert(
            "cleaning.model_fit_ms",
            tracer.total_ms(j, "cleaning.model_fit"),
        );
        v.insert("cleaning.clean_ms.s1", tracer.total_ms(j, CLEAN_SPANS[0]));
        v.insert(
            "cleaning.cells_changed",
            tracer.counter(j, "cleaning.cells_changed"),
        );
        v.insert("emd.cache_build_ms", tracer.total_ms(j, "emd.cache_build"));
        v.insert(
            "core.kernel.prepare_ms",
            tracer.total_ms(j, "core.kernel.prepare"),
        );
        v.insert(
            "core.kernel.score_ms",
            tracer.total_ms(j, "core.kernel.score") + tracer.total_ms(j, "core.kernel.score_edits"),
        );
        v.insert(
            "emd.transport_solves",
            tracer.counter(j, "emd.transport_solves"),
        );
        v.insert(
            "core.optimize.frontier_ms_per_point",
            untraced_ms / serial.len().max(1) as f64,
        );
        v.insert(
            "core.optimize.candidates",
            tracer.counter(j, "core.optimize.candidates"),
        );
        v.insert("core.optimize.purchases", top);
        v.insert(
            "core.kernel.score_edits_us",
            stats::median(&score_edits_us).unwrap_or(0.0),
        );
        v.insert("trace.unattributed_ms", unattributed_ms);
        v.insert("trace.unattributed_share", unattributed_ms / root_ms);
        v.insert("trace.overhead_ms", root_ms - untraced_ms);
        jobs.push(v);
    }
    Traced {
        layers: trace::median_layers(&jobs),
        attempted,
        failed,
        samples: jobs.len(),
        tracer,
    }
}
