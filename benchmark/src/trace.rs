//! In-memory span tracing for the traced run, and the per-layer metric
//! catalogue it reports.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions; nothing inside the library is
//! instrumented. Spans are kept in memory and written out once, when the
//! run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Every per-layer metric: `(name, unit, the workload and end-to-end
/// metric it should move)`. End-to-end metrics go by their workload's own
/// names (see `EndToEnd::named`). A traced run reports all of them; a
/// layer a workload never calls reads 0 there.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("core.prepare_ms", "ms", "protocol job_p50_ms"),
    ("core.replication_ms", "ms", "protocol units_per_s"),
    ("glitch.detect_ms", "ms", "protocol units_per_s"),
    ("glitch.rows_scanned", "count", "protocol units_per_s"),
    (
        "cleaning.model_fit_ms",
        "ms",
        "protocol job_p50_ms; stream window_p50_ms",
    ),
    ("cleaning.clean_ms.s1", "ms", "protocol units_per_s"),
    ("cleaning.clean_ms.s2", "ms", "protocol units_per_s"),
    ("cleaning.clean_ms.s3", "ms", "protocol units_per_s"),
    ("cleaning.clean_ms.s4", "ms", "protocol units_per_s"),
    ("cleaning.clean_ms.s5", "ms", "protocol units_per_s"),
    ("cleaning.cells_changed", "count", "protocol units_per_s"),
    ("emd.cache_build_ms", "ms", "protocol units_per_s"),
    ("core.kernel.prepare_ms", "ms", "protocol units_per_s"),
    (
        "core.kernel.score_ms",
        "ms",
        "protocol units_per_s; budget points_per_s",
    ),
    (
        "emd.transport_solves",
        "count",
        "protocol units_per_s; budget points_per_s",
    ),
    ("core.engine.run_with_ms", "ms", "protocol units_per_s"),
    ("core.engine.serial_ms", "ms", "protocol units_per_s"),
    ("core.engine.efficiency", "ratio", "protocol units_per_s"),
    ("core.cost.sweep_ms_per_point", "ms", "protocol job_p50_ms"),
    (
        "core.optimize.frontier_ms_per_point",
        "ms",
        "budget points_per_s",
    ),
    ("core.optimize.candidates", "count", "budget points_per_s"),
    ("core.optimize.purchases", "count", "budget points_per_s"),
    ("core.kernel.score_edits_us", "us", "budget points_per_s"),
    ("serve.ingest_p50_us", "us", "stream sustained_rows_per_s"),
    ("serve.ingest_p99_us", "us", "stream sustained_rows_per_s"),
    ("serve.queue_wait_p50_ms", "ms", "stream window_p90_ms"),
    ("serve.queue_wait_p90_ms", "ms", "stream window_p90_ms"),
    ("serve.evaluate_p50_ms", "ms", "stream window_p90_ms"),
    ("serve.evaluate_p90_ms", "ms", "stream window_p90_ms"),
    (
        "serve.pending_max",
        "count",
        "stream window_p90_ms; stream peak_rss_mib",
    ),
    (
        "serve.ring_high_water",
        "count",
        "stream window_p90_ms; stream peak_rss_mib",
    ),
    ("serve.assemble_publish_ms", "ms", "stream window_p50_ms"),
    ("core.windowed.calibrate_ms", "ms", "stream window_p50_ms"),
    ("core.windowed.evaluate_ms", "ms", "stream window_p50_ms"),
    ("bench.gen_late_ms", "ms", "stream validity"),
    (
        "bench.ingest_blocked_ms",
        "ms",
        "stream sustained_rows_per_s",
    ),
    (
        "bench.backlog_slope",
        "rows/s",
        "stream sustained_rows_per_s",
    ),
    ("trace.unattributed_ms", "ms", "coverage"),
    ("trace.unattributed_share", "ratio", "coverage"),
    ("trace.overhead_ms", "ms", "coverage"),
];

/// Span names of `clean_patch` per paper strategy (index = strategy − 1).
pub const CLEAN_SPANS: [&str; 5] = [
    "cleaning.clean.s1",
    "cleaning.clean.s2",
    "cleaning.clean.s3",
    "cleaning.clean.s4",
    "cleaning.clean.s5",
];

/// Per-layer metric of each entry of [`CLEAN_SPANS`].
pub const CLEAN_METRICS: [&str; 5] = [
    "cleaning.clean_ms.s1",
    "cleaning.clean_ms.s2",
    "cleaning.clean_ms.s3",
    "cleaning.clean_ms.s4",
    "cleaning.clean_ms.s5",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified stage name.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The job (or window) this span belongs to.
    pub job: u64,
}

/// Records nested spans and per-job counters on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<(u64, &'static str), f64>,
    job: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of the current job.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs `f` as the root span `name` of a new job `job`.
    pub fn job<T>(&mut self, job: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.job = job;
        self.span(name, f)
    }

    /// Adds `by` to the current job's counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry((self.job, name)).or_insert(0.0) += by;
    }

    /// Inclusive durations (ms) of every span named `name` in job `job`.
    pub fn durations_ms(&self, job: u64, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.job == job && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Summed inclusive duration (ms) of the spans named `name` in `job`.
    pub fn total_ms(&self, job: u64, name: &str) -> f64 {
        self.durations_ms(job, name).iter().sum()
    }

    /// The job's counter `name` (0 when never counted).
    pub fn counter(&self, job: u64, name: &'static str) -> f64 {
        self.counters.get(&(job, name)).copied().unwrap_or(0.0)
    }

    /// `(root duration, root self time)` of job `job` in ms: the self time
    /// is the part of the job no stage span covers.
    pub fn root_ms(&self, job: u64) -> (f64, f64) {
        let own = self.self_times();
        self.spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.job == job && s.parent.is_none())
            .map(|(i, s)| ((s.end_ns - s.start_ns) as f64 / 1e6, own[i] as f64 / 1e6))
            .unwrap_or((0.0, 0.0))
    }

    fn self_times(&self) -> Vec<u64> {
        let triples: Vec<(u64, u64, Option<usize>)> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        stats::self_times(&triples)
    }

    /// Writes every span (with its self time) and every counter as JSON
    /// lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.job,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                own[i]
            )?;
        }
        for ((job, name), value) in &self.counters {
            writeln!(
                out,
                "{{\"counter\":\"{name}\",\"job\":{job},\"value\":{value}}}"
            )?;
        }
        out.flush()
    }
}

/// Per-layer values of one traced job, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// The median of each metric across traced jobs; metrics no job reported
/// read 0.
pub fn median_layers(jobs: &[LayerValues]) -> LayerValues {
    LAYERS
        .iter()
        .map(|&(name, _, _)| {
            let values: Vec<f64> = jobs.iter().filter_map(|j| j.get(name).copied()).collect();
            (name, stats::median(&values).unwrap_or(0.0))
        })
        .collect()
}
