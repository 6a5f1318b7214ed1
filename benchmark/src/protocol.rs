//! The `protocol` workload: the paper's full three-axis evaluation as an
//! analyst runs it, in a closed loop with one client and no think time.
//!
//! Each job draws a fresh experiment seed and runs `Experiment::prepare`,
//! `run_with` on the five paper strategies × R replications at B = 100, and
//! `cost_sweep_with` over the Figure 7 fraction ladder for strategies 1–2.
//! Engine scheduling, calibration, cleaning and EMD scoring do the work;
//! the budget optimizer and `sd-serve` do none.

use crate::trace::{self, LayerValues, Tracer, CLEAN_METRICS, CLEAN_SPANS};
use crate::{dataset_of, harness_pool, job_seed, replay, require, ClosedLoop, Run, Traced};
use sd_cleaning::{paper_strategy, CompositeStrategy};
use sd_core::{
    cost_sweep_with, CostSweepConfig, Experiment, ExperimentConfig, FrameworkError, SerialExecutor,
    TaskExecutor, ThreadPoolExecutor, TransportMode,
};
use sd_data::Dataset;
use std::time::Instant;

/// Replications per job.
const REPLICATIONS: usize = 2;
/// Replications of each job's cost sweep.
const SWEEP_REPLICATIONS: usize = 1;
/// The Figure 7 fraction ladder.
const FRACTIONS: [f64; 4] = [0.0, 0.2, 0.5, 1.0];

fn strategies() -> Vec<CompositeStrategy> {
    (1..=5).map(paper_strategy).collect()
}

fn experiment_config(seed: u64, threads: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(100, seed);
    config.replications = REPLICATIONS;
    config.threads = threads;
    config
}

fn sweep_config(experiment: &ExperimentConfig) -> CostSweepConfig {
    let mut experiment = experiment.clone();
    experiment.replications = SWEEP_REPLICATIONS;
    CostSweepConfig {
        experiment,
        fractions: FRACTIONS.to_vec(),
        strategies: vec![paper_strategy(1), paper_strategy(2)],
        transport: TransportMode::Cold,
    }
}

/// Every scored value of a job as bits, plus its scored-unit count.
pub struct JobOutput {
    units: usize,
    bits: Vec<u64>,
}

fn job<E: TaskExecutor>(
    data: &Dataset,
    seed: u64,
    threads: usize,
    executor: &E,
) -> Result<JobOutput, FrameworkError> {
    let config = experiment_config(seed, threads);
    let result = Experiment::new(config.clone())
        .prepare(data)?
        .run_with(&strategies(), executor)?;
    let points = cost_sweep_with(data, &sweep_config(&config), executor)?;
    let mut bits = Vec::new();
    for o in result.outcomes() {
        bits.push(o.improvement.to_bits());
        bits.extend(o.distortions.iter().map(|d| d.value.to_bits()));
        bits.push(o.cleaning.cells_changed() as u64);
    }
    for p in &points {
        bits.push(p.improvement.to_bits());
        bits.extend(p.distortions.iter().map(|d| d.value.to_bits()));
        bits.push(p.series_cleaned as u64);
    }
    Ok(JobOutput {
        units: result.outcomes().len() + points.len(),
        bits,
    })
}

/// Generates the telemetry and warms up with one job.
fn setup(seed: u64, threads: usize) -> Vec<Dataset> {
    let pool = harness_pool(seed);
    require(
        job(
            &pool[0],
            job_seed(seed, u64::MAX),
            threads,
            &ThreadPoolExecutor::new(threads),
        ),
        "protocol warm-up job",
    );
    pool
}

pub fn run(run: &Run) -> ClosedLoop<JobOutput> {
    let threads = run.threads;
    let (data, setup_s) = run.setup(|| setup(run.seed, threads));
    let pool = ThreadPoolExecutor::new(threads);
    let mut closed = ClosedLoop::new(data, setup_s);
    closed.drive(run, |data, seed| {
        job(data, seed, threads, &pool)
            .map(|out| (out.units, out))
            .map_err(|e| e.to_string())
    });
    closed.check(|data, seed, parallel| {
        job(data, seed, threads, &SerialExecutor).map(|serial| serial.bits == parallel.bits)
    });
    closed
}

/// The traced run: per job, time the engine on `nproc` threads and on
/// `SerialExecutor`, then replay the same job serially under spans.
pub fn traced(run: &Run) -> Traced {
    let threads = run.threads;
    let datasets = harness_pool(run.seed);
    let pool = ThreadPoolExecutor::new(threads);
    let strategies = strategies();
    let mut tracer = Tracer::new();
    let mut jobs: Vec<LayerValues> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while jobs.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        let j = jobs.len() as u64;
        let seed = job_seed(run.seed, j);
        let data = dataset_of(&datasets, j);
        attempted += 1;
        let config = experiment_config(seed, threads);
        let sweep = sweep_config(&config);

        // Untraced: the engine on nproc threads and serially.
        let t = Instant::now();
        let prepared = require(Experiment::new(config.clone()).prepare(data), "prepare");
        let prepare_ms = ms(t);
        let t = Instant::now();
        let parallel = require(prepared.run_with(&strategies, &pool), "run_with");
        let run_with_ms = ms(t);
        let t = Instant::now();
        let serial = require(
            prepared.run_with(&strategies, &SerialExecutor),
            "serial run_with",
        );
        let serial_ms = ms(t);
        let t = Instant::now();
        let serial_points = require(
            cost_sweep_with(data, &sweep, &SerialExecutor),
            "serial sweep",
        );
        let untraced_ms = prepare_ms + serial_ms + ms(t);
        std::hint::black_box(&parallel);

        // Traced: the same job, replayed stage by stage.
        let replayed = tracer.job(j, "job", |t| -> Result<_, FrameworkError> {
            let prepared = t.span("core.prepare", |_| {
                Experiment::new(config.clone()).prepare(data)
            })?;
            let transforms = prepared.transforms();
            let mut outcomes = Vec::new();
            for r in 0..config.replications {
                let artifacts = replay::replication(t, &prepared, r);
                let mut shared = replay::share(t, artifacts, transforms, &config.metrics);
                for (si, strategy) in strategies.iter().enumerate() {
                    outcomes.push(replay::unit(
                        t,
                        &mut shared,
                        transforms,
                        config.weights,
                        config.seed,
                        r,
                        si,
                        strategy,
                    )?);
                }
            }
            let points = t.span("core.cost.sweep", |_| {
                cost_sweep_with(data, &sweep, &SerialExecutor)
            })?;
            Ok((outcomes, points))
        });
        let same = match &replayed {
            Ok((outcomes, points)) => {
                outcomes.len() == serial.outcomes().len()
                    && outcomes
                        .iter()
                        .zip(serial.outcomes())
                        .all(|((imp, dist, cells), o)| {
                            imp.to_bits() == o.improvement.to_bits()
                                && *cells == o.cleaning.cells_changed()
                                && dist.len() == o.distortions.len()
                                && dist
                                    .iter()
                                    .zip(&o.distortions)
                                    .all(|(a, b)| a.to_bits() == b.value.to_bits())
                        })
                    && points.len() == serial_points.len()
            }
            Err(e) => {
                eprintln!("protocol: traced job {j} failed: {e}");
                false
            }
        };
        if !same {
            failed += 1;
        }

        let (root_ms, unattributed_ms) = tracer.root_ms(j);
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
        for (span, metric) in CLEAN_SPANS.iter().zip(CLEAN_METRICS) {
            v.insert(metric, tracer.total_ms(j, span));
        }
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
            tracer.total_ms(j, "core.kernel.score"),
        );
        v.insert(
            "emd.transport_solves",
            tracer.counter(j, "emd.transport_solves"),
        );
        v.insert("core.engine.run_with_ms", run_with_ms);
        v.insert("core.engine.serial_ms", serial_ms);
        v.insert(
            "core.engine.efficiency",
            serial_ms / (run_with_ms * threads as f64),
        );
        v.insert(
            "core.cost.sweep_ms_per_point",
            tracer.total_ms(j, "core.cost.sweep") / serial_points.len().max(1) as f64,
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

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}
