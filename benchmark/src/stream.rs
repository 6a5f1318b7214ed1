//! The `stream` workload: an open loop from the benchmark's main thread
//! into `StreamingService`, over a ladder of fixed offered rates.
//!
//! The generator sends every row at its scheduled time no matter how far
//! behind the system is, and polls `try_next_window` between rows, so it
//! needs no second thread. A window's latency runs from when its last row
//! was *due* until its update is received, so a stall anywhere — including
//! backpressure on `ingest` — counts against the system. It is the only
//! workload that exercises `sd-serve`, the `NodeState` rings and windowed
//! calibration; the batch scheduler and the optimizer are bypassed.

use crate::trace::{self, LayerValues, Tracer};
use crate::{job_seed, require, stats, EndToEnd, Run, Traced};
use sd_cleaning::{paper_strategy, CompositeStrategy};
use sd_core::{
    calibrate_window, evaluate_window_artifacts, resolve_neighbor_views, window_bounds,
    FrameworkError, SerialExecutor, ThreadPoolExecutor, WindowedConfig, WindowedExperiment,
    WindowedResult,
};
use sd_data::{ArrivalRow, Dataset, NodeId, NodeState, TimeSeries, Topology};
use sd_netsim::{generate, NetsimConfig};
use sd_serve::{ServeConfig, StreamReport, StreamingService};
use serde_json::{json, Value};
use std::time::{Duration, Instant};

/// Offered rates in rows/s. The lower rungs sit below the knee of a
/// 2-core host, the top rung above it.
pub const RUNGS: [f64; 4] = [30_000.0, 60_000.0, 90_000.0, 300_000.0];
/// The rung whose window latency is the headline figure.
pub const NOMINAL: usize = 1;
/// Windows of each nominal segment: enough for a p90 with ten beyond it
/// in every round.
const NOMINAL_WINDOWS: usize = 110;
/// A rung is sustained while its window p90 stays under this limit. Below
/// the knee the p90 is 20–30 ms, and it doubles during a slow spell of a
/// shared host; above the knee it is hundreds of ms.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// A rung's backlog counts as growing above this share of its rate per
/// second (the least-squares slope of a flat backlog is noise around 0).
const SLOPE_TOLERANCE: f64 = 0.02;
/// Fleet: 2 RNCs × 50 towers × 2 sectors. Glitch-prone towers are drawn
/// per tower, so 100 towers keep a fleet's glitch load (and with it the
/// per-window work) from swinging with the seed.
const TOPOLOGY: (u32, u32, u32) = (2, 50, 2);
const WINDOW: usize = 30;
const STRIDE: usize = 10;
/// Time steps generated per node (a nominal segment's worth); rungs replay
/// a prefix of them.
const HORIZON: usize = (NOMINAL_WINDOWS - 1) * STRIDE + WINDOW;
/// Steps streamed, unpaced, while warming up.
const WARM_STEPS: usize = 60;

/// Fleets per run: window cost depends on the telemetry, so round `r`
/// streams fleet `r mod FLEETS` rather than every round the same one.
const FLEETS: usize = ROUNDS;

/// The generated fleets (one topology, so one node order) and the service
/// configuration.
pub struct Input {
    fleets: Vec<Dataset>,
    nodes: Vec<NodeId>,
    serve: ServeConfig,
    strategies: Vec<CompositeStrategy>,
}

impl Input {
    /// Row `k` of a fleet's time-major stream.
    fn row(&self, fleet: usize, k: usize) -> ArrivalRow {
        let n = self.nodes.len();
        let (t, series) = (k / n, k % n);
        let s = self.fleets[fleet].series_at(series);
        ArrivalRow {
            node: self.nodes[series],
            t,
            values: (0..s.num_attributes()).map(|a| s.get(a, t)).collect(),
        }
    }

    /// The first `steps` steps of every series of a fleet, as a batch
    /// dataset.
    fn prefix(&self, fleet: usize, steps: usize) -> Dataset {
        let data = &self.fleets[fleet];
        let names: Vec<String> = data.attributes().iter().map(|a| a.name.clone()).collect();
        let series: Vec<TimeSeries> = data.series().iter().map(|s| s.slice(0, steps)).collect();
        require(Dataset::new(names, series), "stream prefix dataset")
    }

    fn windowed(&self) -> &WindowedConfig {
        &self.serve.windowed
    }
}

fn setup(seed: u64, threads: usize) -> Input {
    let (rncs, towers, sectors) = TOPOLOGY;
    let topology = Topology::new(rncs, towers, sectors);
    let fleets: Vec<Dataset> = (0..FLEETS as u64)
        .map(|i| {
            let config = NetsimConfig::for_topology(topology, HORIZON, job_seed(seed, i));
            generate(&config).dataset
        })
        .collect();
    let data = &fleets[0];
    let nodes: Vec<NodeId> = data.series().iter().map(|s| s.node()).collect();
    let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
    let mut windowed = WindowedConfig::paper_default(WINDOW, STRIDE, seed);
    windowed.threads = threads;
    let serve = ServeConfig::new(windowed, attributes)
        .with_shards(threads)
        .with_evaluators(threads);
    let input = Input {
        fleets,
        nodes,
        serve,
        strategies: vec![paper_strategy(1)],
    };
    let service = require(
        StreamingService::launch(
            input.serve.clone(),
            input.nodes.clone(),
            input.strategies.clone(),
        ),
        "stream warm-up launch",
    );
    for k in 0..WARM_STEPS * input.nodes.len() {
        require(service.ingest(input.row(0, k)), "stream warm-up ingest");
    }
    require(service.finish(), "stream warm-up finish");
    input
}

/// One service run: a fresh `StreamingService` fed a prefix of the fleet's
/// rows at one rate.
pub struct Segment {
    rows: usize,
    /// Per window: seconds from its last row's due time to its update.
    latency_s: Vec<f64>,
    /// Per window: seconds from `ingest` of its last row returning to its
    /// update.
    after_ingest_s: Vec<f64>,
    /// Per row: seconds spent inside `ingest` (kept by the traced run only).
    ingest_s: Vec<f64>,
    ingest_total_s: f64,
    own_late_s: f64,
    own_gap_s: f64,
    slope: f64,
    /// Seconds from the segment's start to its last update.
    done_s: f64,
    windows_expected: usize,
    failed: u64,
    report: Option<StreamReport>,
}

/// Offers the first `steps` steps of a fleet at `rate` rows/s to a fresh
/// service.
fn segment(input: &Input, fleet: usize, rate: f64, steps: usize) -> Segment {
    let n = input.nodes.len();
    let rows = steps * n;
    let windows_expected = (steps - WINDOW) / STRIDE + 1;
    let mut out = Segment {
        rows,
        latency_s: Vec::with_capacity(windows_expected),
        after_ingest_s: Vec::with_capacity(windows_expected),
        ingest_s: Vec::with_capacity(rows),
        ingest_total_s: 0.0,
        own_late_s: 0.0,
        own_gap_s: 0.0,
        slope: 0.0,
        done_s: 0.0,
        windows_expected,
        failed: 0,
        report: None,
    };
    let service = match StreamingService::launch(
        input.serve.clone(),
        input.nodes.clone(),
        input.strategies.clone(),
    ) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("stream: launch failed: {e}");
            out.failed = 1;
            return out;
        }
    };
    let last_row = |w: usize| (w * STRIDE + WINDOW) * n - 1;
    let (mut due, mut start, mut end) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    let mut backlog: Vec<(f64, f64)> = Vec::new();
    let mut received = 0usize;
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let offered_until = stats::due_offset_s(rows - 1, rate);
    // Backlog: rows due so far (including any held up in front of a
    // blocked `ingest`) that no published window covers yet.
    let mut on_update = |w: usize, at: f64, end: &[f64], out: &mut Segment| {
        let k = last_row(w);
        out.latency_s
            .push(stats::due_latency_s(stats::due_offset_s(k, rate), at));
        out.after_ingest_s.push(at - end[k]);
        if at <= offered_until {
            let due_rows = ((at * rate).floor() as usize + 1).min(rows);
            backlog.push((at, due_rows as f64 - (k + 1) as f64));
        }
    };
    let mut broken = false;
    for k in 0..rows {
        let d = stats::due_offset_s(k, rate);
        loop {
            while let Some(update) = service.try_next_window() {
                on_update(update.window_index, now(), &end, &mut out);
                received += 1;
            }
            let gap = d - now();
            if gap <= 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64(gap));
        }
        let row = input.row(fleet, k);
        let s = now();
        let result = service.ingest(row);
        let e = now();
        due.push(d);
        start.push(s);
        end.push(e);
        out.ingest_s.push(e - s);
        if let Err(err) = result {
            eprintln!("stream: ingest of row {k} failed: {err}");
            out.failed += 1;
            broken = true;
            break;
        }
    }
    while !broken && received < windows_expected {
        match service.next_window() {
            Some(update) => {
                on_update(update.window_index, now(), &end, &mut out);
                received += 1;
            }
            None => break,
        }
    }
    out.done_s = now();
    out.ingest_total_s = out.ingest_s.iter().sum();
    out.own_late_s = stats::own_lateness_s(&due, &start, &end);
    out.own_gap_s = stats::own_gap_per_row_s(&due, &start, &end);
    out.slope = stats::slope(&backlog);
    match service.finish() {
        Ok(report) => out.report = Some(report),
        Err(e) => {
            eprintln!("stream: finish failed: {e}");
            out.failed += 1;
        }
    }
    out.failed += windows_expected.saturating_sub(out.latency_s.len()) as u64;
    out
}

/// Steps a segment at `rate` offers within `slice_s` seconds.
fn steps_for(rate: f64, slice_s: f64, nodes: usize) -> usize {
    (((rate * slice_s) as usize) / nodes).clamp(WINDOW, HORIZON)
}

/// Whether a streamed report is bit-identical to the batch windowed run
/// over the same rows.
fn same_as_batch(report: &StreamReport, batch: &WindowedResult) -> bool {
    report.screens() == batch.screens()
        && report.outcomes().len() == batch.outcomes().len()
        && report
            .outcomes()
            .iter()
            .zip(batch.outcomes())
            .all(|(a, b)| {
                a.window_index == b.window_index
                    && a.strategy_index == b.strategy_index
                    && a.improvement.to_bits() == b.improvement.to_bits()
                    && a.cleaning == b.cleaning
                    && a.distortions.len() == b.distortions.len()
                    && a.distortions
                        .iter()
                        .zip(&b.distortions)
                        .all(|(x, y)| x.value.to_bits() == y.value.to_bits())
            })
}

/// All segments one rung ran.
pub struct Rung {
    rate: f64,
    steps: usize,
    segments: Vec<Segment>,
}

/// Streams of the run checked against the batch path: every rung's first
/// round, and every round of the nominal rung.
fn checked(rung: usize, round: usize) -> bool {
    round == 0 || rung == NOMINAL
}

impl Rung {
    fn windows(&self) -> usize {
        self.segments.iter().map(|s| s.latency_s.len()).sum()
    }

    /// Window-latency percentile in ms: the lowest of the rounds'
    /// percentiles. On a shared host a slow spell of other tenants doubles
    /// window latency in the rounds it covers and never lowers it, so the
    /// least disturbed round is the system's own figure.
    fn p(&self, q: f64) -> f64 {
        self.segments
            .iter()
            .map(|s| stats::percentile(&s.latency_s, q).map_or(f64::INFINITY, |l| l * 1e3))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every round's p90 leaves ten windows beyond it.
    fn p90_supported(&self) -> bool {
        self.segments
            .iter()
            .all(|s| stats::supports(s.latency_s.len(), 0.9))
    }

    fn failed(&self) -> u64 {
        self.segments.iter().map(|s| s.failed).sum()
    }

    fn own_gap_s(&self) -> f64 {
        self.segments.iter().map(|s| s.own_gap_s).sum::<f64>() / self.segments.len() as f64
    }

    fn slope(&self) -> f64 {
        let slopes: Vec<f64> = self.segments.iter().map(|s| s.slope).collect();
        stats::median(&slopes).unwrap_or(0.0)
    }

    /// The generator itself, not backpressure, fell behind: its own
    /// per-row work while behind would take over half of the schedule.
    fn generator_limited(&self) -> bool {
        self.own_gap_s() * self.rate > 0.5
    }

    /// Sustained: no failures, a valid generator, window p90 (wall clock)
    /// under the limit and no growing backlog.
    fn sustained(&self) -> bool {
        self.failed() == 0
            && !self.generator_limited()
            && self.p(0.9) <= LATENCY_LIMIT_MS
            && self.slope() <= SLOPE_TOLERANCE * self.rate
    }

    fn summary(&self) -> Value {
        json!({
            "rate_rows_per_s": self.rate,
            "segments": self.segments.len(),
            "rows": self.segments.iter().map(|s| s.rows).sum::<usize>(),
            "windows": self.windows(),
            "window_p50_ms": self.p(0.5),
            "window_p90_ms": self.p(0.9),
            "p90_supported": self.p90_supported(),
            "backlog_slope_rows_per_s": self.slope(),
            "gen_late_ms": self.segments.iter().map(|s| s.own_late_s).fold(0.0, f64::max) * 1e3,
            "gen_share_of_schedule": self.own_gap_s() * self.rate,
            "ingest_blocked_ms": self.segments.iter().map(|s| s.ingest_total_s).sum::<f64>() * 1e3,
            "generator_limited": self.generator_limited(),
            "sustained": self.sustained(),
        })
    }
}

/// Rounds of the ladder. Every round runs each rung once, so a slow spell
/// of the host spreads over all rungs instead of landing on one.
const ROUNDS: usize = 5;

/// Rows per second the rung delivered into published windows: the rows
/// its windows cover over the time from each segment's start to its last
/// update.
fn delivered_rows_per_s(rung: &Rung, nodes: usize) -> f64 {
    let covered = ((rung.steps - WINDOW) / STRIDE * STRIDE + WINDOW) * nodes;
    let rows = (covered * rung.segments.len()) as f64;
    rows / rung.segments.iter().map(|s| s.done_s).sum::<f64>()
}

pub fn run(run: &Run) -> EndToEnd {
    let (input, setup_s) = run.setup(|| setup(run.seed, run.threads));
    let n = input.nodes.len();
    // The nominal rung streams a whole fleet each round; the other rungs
    // share the rest of the run's seconds equally.
    let nominal_s = (ROUNDS * HORIZON * n) as f64 / RUNGS[NOMINAL];
    let slice_s = (run.seconds - nominal_s).max(0.0) / (ROUNDS * (RUNGS.len() - 1)) as f64;
    let mut rungs: Vec<Rung> = RUNGS
        .iter()
        .enumerate()
        .map(|(r, &rate)| Rung {
            rate,
            steps: if r == NOMINAL {
                HORIZON
            } else {
                steps_for(rate, slice_s, n)
            },
            segments: Vec::with_capacity(ROUNDS),
        })
        .collect();
    for round in 0..ROUNDS {
        for rung in &mut rungs {
            let mut seg = segment(&input, round % FLEETS, rung.rate, rung.steps);
            // Per-row timings are reported by the traced run only.
            seg.ingest_s = Vec::new();
            rung.segments.push(seg);
        }
    }
    let peak_rss_mib = require(crate::host::peak_rss_mib(), "peak RSS");
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (r, rung) in rungs.iter().enumerate() {
        for (round, seg) in rung.segments.iter().enumerate() {
            attempted += (seg.rows + seg.windows_expected) as u64;
            failed += seg.failed;
            if !checked(r, round) {
                continue;
            }
            let batch = WindowedExperiment::new(input.windowed().clone()).run_with(
                &input.prefix(round % FLEETS, rung.steps),
                &input.strategies,
                &ThreadPoolExecutor::new(run.threads),
            );
            let same = match (&seg.report, &batch) {
                (Some(report), Ok(batch)) => same_as_batch(report, batch),
                (_, Err(e)) => {
                    eprintln!("stream: batch run at rung {} failed: {e}", rung.rate);
                    false
                }
                (None, _) => false,
            };
            if !same {
                eprintln!(
                    "stream: round {round} of rung {} differs from the batch run",
                    rung.rate
                );
                failed += 1;
            }
        }
    }
    // The highest sustained rung, as the rate it delivered; 0 when no rung
    // held.
    let top = rungs.iter().rev().find(|r| r.sustained());
    let sustained = top.map_or(0.0, |r| delivered_rows_per_s(r, n));
    EndToEnd {
        setup_s,
        peak_rss_mib,
        throughput: ("sustained_rows_per_s", sustained),
        latency_names: ["window_p50_ms", "window_p90_ms"],
        latency_ms: [rungs[NOMINAL].p(0.5), rungs[NOMINAL].p(0.9)],
        latency_samples: rungs[NOMINAL].windows(),
        p90_supported: rungs[NOMINAL].p90_supported(),
        attempted,
        failed,
        detail: json!({
            "nominal_rate_rows_per_s": RUNGS[NOMINAL],
            "sustained_rung_rows_per_s": top.map_or(0.0, |r| r.rate),
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "rounds": ROUNDS,
            "rungs": Value::Array(rungs.iter().map(Rung::summary).collect()),
        }),
    }
}

/// The traced run: the nominal rung's serving-layer breakdown, then a
/// serial replay of the same windows through the batch path's public calls
/// (`NodeState` segments, `calibrate_window`, `evaluate_window_artifacts`).
pub fn traced(run: &Run) -> Traced {
    let input = setup(run.seed, run.threads);
    let n = input.nodes.len();
    let rate = RUNGS[NOMINAL];
    let steps = steps_for(rate, run.seconds / 2.0, n);
    let nominal = segment(&input, 0, rate, steps);
    let mut failed = nominal.failed;
    let mut attempted = (nominal.rows + nominal.windows_expected) as u64;

    let config = input.windowed().clone();
    let attributes: Vec<String> = input.serve.attributes.clone();
    let prefix = input.prefix(0, steps);
    let neighbors = require(
        resolve_neighbor_views(config.pooling, config.topology.as_ref(), &input.nodes),
        "neighbour views",
    );
    let t = Instant::now();
    let batch = require(
        WindowedExperiment::new(config.clone()).run_with(
            &prefix,
            &input.strategies,
            &SerialExecutor,
        ),
        "serial batch run",
    );
    let untraced_window_ms = t.elapsed().as_secs_f64() * 1e3 / batch.num_windows().max(1) as f64;
    if !nominal
        .report
        .as_ref()
        .is_some_and(|r| same_as_batch(r, &batch))
    {
        eprintln!("stream: the traced segment differs from the batch run");
        failed += 1;
    }

    let mut tracer = Tracer::new();
    let mut windows: Vec<LayerValues> = Vec::new();
    for w in 0..batch.num_windows() {
        attempted += 1;
        let outcomes = tracer.job(w as u64, "window", |t| -> Result<_, FrameworkError> {
            let (_, end, base) = window_bounds(&config, w);
            let segments = t.span(
                "data.segments",
                |_| -> Result<Vec<TimeSeries>, FrameworkError> {
                    prefix
                        .series()
                        .iter()
                        .map(|s| {
                            NodeState::from_series(s, 2 * config.window, base, end)
                                .materialize(base, end)
                                .map_err(|e| FrameworkError::Internal(e.to_string()))
                        })
                        .collect()
                },
            )?;
            let (artifacts, screen) = t.span("core.windowed.calibrate", |_| {
                calibrate_window(&config, &attributes, w, &segments, &neighbors)
            })?;
            let outcomes = t.span("core.windowed.evaluate", |_| {
                evaluate_window_artifacts(&config, &input.strategies, &SerialExecutor, artifacts)
            })?;
            Ok((outcomes, screen))
        });
        let same = match &outcomes {
            Ok((outcomes, screen)) => {
                batch.screens().get(w) == Some(screen)
                    && outcomes
                        .iter()
                        .zip(batch.outcomes().iter().filter(|o| o.window_index == w))
                        .all(|(a, b)| {
                            a.improvement.to_bits() == b.improvement.to_bits()
                                && a.distortion.to_bits() == b.distortion.to_bits()
                        })
            }
            Err(e) => {
                eprintln!("stream: traced window {w} failed: {e}");
                false
            }
        };
        if !same {
            failed += 1;
        }
        let job = w as u64;
        let (root_ms, unattributed_ms) = tracer.root_ms(job);
        let mut v = LayerValues::new();
        v.insert(
            "core.windowed.calibrate_ms",
            tracer.total_ms(job, "core.windowed.calibrate"),
        );
        v.insert(
            "core.windowed.evaluate_ms",
            tracer.total_ms(job, "core.windowed.evaluate"),
        );
        v.insert("trace.unattributed_ms", unattributed_ms);
        v.insert("trace.unattributed_share", unattributed_ms / root_ms);
        v.insert("trace.overhead_ms", root_ms - untraced_window_ms);
        windows.push(v);
    }
    let mut layers = trace::median_layers(&windows);

    let mut serve = LayerValues::new();
    let us = |s: f64| s * 1e6;
    let ingest_us: Vec<f64> = nominal.ingest_s.iter().map(|&s| us(s)).collect();
    serve.insert(
        "serve.ingest_p50_us",
        stats::percentile(&ingest_us, 0.5).unwrap_or(0.0),
    );
    serve.insert(
        "serve.ingest_p99_us",
        stats::percentile(&ingest_us, 0.99).unwrap_or(0.0),
    );
    if let Some(report) = &nominal.report {
        let stats_ = report.stats();
        let wait_ms: Vec<f64> = stats_
            .window_lags
            .iter()
            .map(|l| l.queue_wait_us as f64 / 1e3)
            .collect();
        let eval_ms: Vec<f64> = stats_
            .window_lags
            .iter()
            .map(|l| l.evaluate_us as f64 / 1e3)
            .collect();
        serve.insert(
            "serve.queue_wait_p50_ms",
            stats::percentile(&wait_ms, 0.5).unwrap_or(0.0),
        );
        serve.insert(
            "serve.queue_wait_p90_ms",
            stats::percentile(&wait_ms, 0.9).unwrap_or(0.0),
        );
        serve.insert(
            "serve.evaluate_p50_ms",
            stats::percentile(&eval_ms, 0.5).unwrap_or(0.0),
        );
        serve.insert(
            "serve.evaluate_p90_ms",
            stats::percentile(&eval_ms, 0.9).unwrap_or(0.0),
        );
        serve.insert("serve.pending_max", stats_.max_pending_windows as f64);
        serve.insert("serve.ring_high_water", stats_.ring_high_water as f64);
        // Shards, collector and reorder: what is left of each window's
        // time after its last row was accepted, once queue wait and
        // evaluation are taken out.
        let assemble: Vec<f64> = nominal
            .after_ingest_s
            .iter()
            .zip(&stats_.window_lags)
            .map(|(&after, lag)| after * 1e3 - (lag.queue_wait_us + lag.evaluate_us) as f64 / 1e3)
            .collect();
        serve.insert(
            "serve.assemble_publish_ms",
            stats::median(&assemble).unwrap_or(0.0),
        );
    }
    serve.insert("bench.gen_late_ms", nominal.own_late_s * 1e3);
    serve.insert("bench.ingest_blocked_ms", nominal.ingest_total_s * 1e3);
    serve.insert("bench.backlog_slope", nominal.slope);
    layers.extend(serve);

    Traced {
        layers,
        attempted,
        failed,
        samples: windows.len(),
        tracer,
    }
}
