//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload protocol|budget|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs are generated from `--seed`; the system sees only the generated
//! telemetry. With `--trace 0` the run measures the end-to-end metrics with
//! tracing off; with `--trace 1` it replays jobs serially under spans and
//! reports the per-layer metrics (spans go to `.bench_out/`). Either way it
//! checks the outputs, prints one provenance line, and ends with one JSON
//! result line.

mod budget;
mod host;
mod protocol;
mod replay;
mod stats;
mod stream;
mod trace;

use serde_json::{json, Value};
use std::fmt::Write as _;
use std::time::Instant;

/// The result line's end-to-end metrics, `(name, unit)`. Each workload
/// reports them under the names of its own measures (see [`EndToEnd`]):
/// the throughput is scored units/s (`protocol`), frontier points/s
/// (`budget`) or sustained rows/s (`stream`), and the latencies are per
/// job, or per window at the stream's nominal rung.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// One untraced run's end-to-end figures.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    /// The workload's name for its throughput, and its value.
    pub throughput: (&'static str, f64),
    /// The workload's names for its p50 and p90 latency.
    pub latency_names: [&'static str; 2],
    /// p50 and p90 latency in ms.
    pub latency_ms: [f64; 2],
    /// Latency samples (jobs or windows) behind each percentile.
    pub latency_samples: usize,
    /// Whether the p90 leaves ten samples beyond it.
    pub p90_supported: bool,
    pub attempted: u64,
    pub failed: u64,
    pub detail: Value,
}

impl EndToEnd {
    /// Values in [`E2E`] order.
    fn values(&self) -> [f64; 5] {
        let [p50, p90] = self.latency_ms;
        [self.setup_s, self.peak_rss_mib, self.throughput.1, p50, p90]
    }

    /// Every end-to-end metric under the workload's own names, with units,
    /// sample counts and the error rate.
    fn named(&self) -> Value {
        let [p50, p90] = self.latency_names;
        let [p50_ms, p90_ms] = self.latency_ms;
        let m = |value: f64, unit: &str| json!({ "value": value, "unit": unit });
        let mut map = std::collections::BTreeMap::new();
        map.insert("setup_s".into(), m(self.setup_s, "s"));
        map.insert("peak_rss_mib".into(), m(self.peak_rss_mib, "MiB"));
        map.insert(
            "error_rate".into(),
            m(self.failed as f64 / self.attempted.max(1) as f64, "ratio"),
        );
        map.insert(self.throughput.0.into(), m(self.throughput.1, "1/s"));
        map.insert(p50.into(), m(p50_ms, "ms"));
        map.insert(p90.into(), m(p90_ms, "ms"));
        json!({
            "metrics": Value::Object(map),
            "latency_samples": self.latency_samples,
            "p90_supported": self.p90_supported,
            "attempted": self.attempted,
            "failed": self.failed,
        })
    }
}

/// Harness-scale datasets per closed-loop run. Job cost depends on the
/// data, so each run cycles its jobs through several datasets drawn from
/// the workload seed rather than resting on one.
const DATASETS: u64 = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Every this many jobs, one job's output is kept and re-run serially.
const CHECK_EVERY: u64 = 16;

/// Exits on a failure the benchmark cannot measure past (a set-up step or
/// an untimed reference run), instead of panicking.
pub fn require<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchmark: {what} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The experiment seed of job `j` of a run: a splitmix64 mix of the
/// workload seed, so every job draws fresh data-independent randomness.
pub fn job_seed(seed: u64, j: u64) -> u64 {
    let mut x = seed ^ j.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The closed-loop workloads' input: [`DATASETS`] harness-scale telemetry
/// sets (1 000 series × 170 steps each) generated from the workload seed.
pub fn harness_pool(seed: u64) -> Vec<sd_data::Dataset> {
    (0..DATASETS)
        .map(|i| {
            let config = sd_netsim::NetsimConfig::harness_scale(job_seed(!seed, i));
            sd_netsim::generate(&config).dataset
        })
        .collect()
}

/// The dataset job `j` runs on.
pub fn dataset_of(pool: &[sd_data::Dataset], j: u64) -> &sd_data::Dataset {
    &pool[(j % pool.len() as u64) as usize]
}

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    started: Instant,
}

impl Run {
    /// Runs `setup` [`SETUP_REPEATS`] times and returns the last product
    /// with the median set-up time in seconds. The first set-up is timed
    /// from process start.
    pub fn setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, f64) {
        let mut product = None;
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        for i in 0..SETUP_REPEATS {
            let from = if i == 0 { self.started } else { Instant::now() };
            // Free the previous product first, so set-ups never overlap.
            drop(product.take());
            product = Some(setup());
            times.push(from.elapsed().as_secs_f64());
        }
        let median = stats::median(&times).unwrap_or(0.0);
        (require(product.ok_or("no set-up ran"), "set-up"), median)
    }
}

/// A closed loop with one client and no think time: jobs back to back for
/// the run's seconds.
pub struct ClosedLoop<O> {
    data: Vec<sd_data::Dataset>,
    setup_s: f64,
    latencies_ms: Vec<f64>,
    work: usize,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    checked: u64,
    peak_rss_mib: f64,
    kept: Vec<(u64, u64, O)>,
}

impl<O> ClosedLoop<O> {
    fn new(data: Vec<sd_data::Dataset>, setup_s: f64) -> Self {
        ClosedLoop {
            data,
            setup_s,
            latencies_ms: Vec::new(),
            work: 0,
            wall_s: 0.0,
            attempted: 0,
            failed: 0,
            checked: 0,
            peak_rss_mib: 0.0,
            kept: Vec::new(),
        }
    }

    /// Runs jobs until the run's seconds are spent. Job `j` gets dataset
    /// `j mod` [`DATASETS`] and a fresh seed, and returns the work it
    /// completed and its output; every [`CHECK_EVERY`]-th output is kept
    /// for [`ClosedLoop::check`].
    fn drive(
        &mut self,
        run: &Run,
        mut job: impl FnMut(&sd_data::Dataset, u64) -> Result<(usize, O), String>,
    ) {
        let start = Instant::now();
        let mut j = 0u64;
        while start.elapsed().as_secs_f64() < run.seconds {
            let seed = job_seed(run.seed, j);
            let t = Instant::now();
            let result = job(dataset_of(&self.data, j), seed);
            let took_s = t.elapsed().as_secs_f64();
            match result {
                Ok((work, output)) => {
                    self.latencies_ms.push(took_s * 1e3);
                    self.work += work;
                    if j % CHECK_EVERY == 0 {
                        self.kept.push((j, seed, output));
                    }
                }
                Err(e) => {
                    eprintln!("benchmark: job {j} failed: {e}");
                    self.failed += 1;
                }
            }
            j += 1;
        }
        self.wall_s = start.elapsed().as_secs_f64();
        self.attempted = j;
        self.peak_rss_mib = require(host::peak_rss_mib(), "peak RSS");
    }

    /// Re-runs every kept job with `check`, outside the timed region; a
    /// mismatch or an error counts as a failed job.
    fn check<E: std::fmt::Display>(
        &mut self,
        mut check: impl FnMut(&sd_data::Dataset, u64, &O) -> Result<bool, E>,
    ) {
        for (j, seed, output) in &self.kept {
            self.checked += 1;
            match check(dataset_of(&self.data, *j), *seed, output) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("benchmark: job seed {seed} differs from its serial run");
                    self.failed += 1;
                }
                Err(e) => {
                    eprintln!("benchmark: serial check of job seed {seed} failed: {e}");
                    self.failed += 1;
                }
            }
        }
    }

    /// The run's end-to-end figures; `work` names what a job's work counts
    /// (scored units or frontier points) per second.
    fn report(self, work: &'static str) -> EndToEnd {
        EndToEnd {
            setup_s: self.setup_s,
            peak_rss_mib: self.peak_rss_mib,
            throughput: (work, self.work as f64 / self.wall_s),
            latency_names: ["job_p50_ms", "job_p90_ms"],
            latency_ms: [0.5, 0.9]
                .map(|q| stats::percentile(&self.latencies_ms, q).unwrap_or(f64::INFINITY)),
            latency_samples: self.latencies_ms.len(),
            p90_supported: stats::supports(self.latencies_ms.len(), 0.9),
            attempted: self.attempted,
            failed: self.failed,
            detail: json!({
                "jobs": self.attempted,
                "jobs_checked_serially": self.checked,
                "datasets": self.data.len(),
                "wall_s": self.wall_s,
            }),
        }
    }
}

/// A traced run's per-layer medians.
pub struct Traced {
    layers: trace::LayerValues,
    attempted: u64,
    failed: u64,
    samples: usize,
    tracer: trace::Tracer,
}

#[derive(Clone, Copy)]
enum Workload {
    Protocol,
    Budget,
    Stream,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Protocol => "protocol",
            Workload::Budget => "budget",
            Workload::Stream => "stream",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "protocol" => Workload::Protocol,
                    "budget" => Workload::Budget,
                    "stream" => Workload::Stream,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Appends `v` to `out` as compact JSON (non-finite numbers as `null`).
/// The result must fit on one line, and the vendored `serde_json` writes
/// only pretty JSON.
fn write_json(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::Number(_) => out.push_str("null"),
        Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, &Value::String(key.clone()));
                out.push(':');
                write_json(out, item);
            }
            out.push('}');
        }
    }
}

fn compact(v: &Value) -> String {
    let mut out = String::new();
    write_json(&mut out, v);
    out
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: --workload protocol|budget|stream --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        threads: host::nproc(),
        started,
    };
    let mut provenance = host::provenance();
    if let Value::Object(map) = &mut provenance {
        map.insert("workload".into(), json!(args.workload.name()));
        map.insert("seed".into(), json!(args.seed));
        map.insert("seconds".into(), json!(args.seconds));
        map.insert("trace".into(), json!(args.trace));
        map.insert("threads".into(), json!(run.threads));
        if let Workload::Stream = args.workload {
            map.insert(
                "rung_rates_rows_per_s".into(),
                json!(stream::RUNGS.to_vec()),
            );
            map.insert("nominal_rung".into(), json!(stream::NOMINAL));
            map.insert("latency_limit_ms".into(), json!(stream::LATENCY_LIMIT_MS));
        }
    }

    let (attempted, failed, metrics, detail) = if args.trace {
        let traced = match args.workload {
            Workload::Protocol => protocol::traced(&run),
            Workload::Budget => budget::traced(&run),
            Workload::Stream => stream::traced(&run),
        };
        let path = std::path::PathBuf::from(".bench_out").join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        require(traced.tracer.write(&path), "writing spans");
        let metrics: Vec<(&str, f64, &str)> = trace::LAYERS
            .iter()
            .map(|&(name, unit, _)| (name, traced.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        let moves: std::collections::BTreeMap<String, Value> = trace::LAYERS
            .iter()
            .map(|&(name, _, moves)| (name.to_string(), json!(moves)))
            .collect();
        let detail = json!({
            "traced_samples": traced.samples,
            "spans_file": path.display().to_string(),
            "layer_moves": Value::Object(moves),
        });
        (traced.attempted, traced.failed, metrics, detail)
    } else {
        let e2e = match args.workload {
            Workload::Protocol => protocol::run(&run).report("units_per_s"),
            Workload::Budget => budget::run(&run).report("points_per_s"),
            Workload::Stream => stream::run(&run),
        };
        let metrics = E2E
            .iter()
            .zip(e2e.values())
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        let detail = json!({ "end_to_end": e2e.named(), "run": e2e.detail });
        (e2e.attempted, e2e.failed, metrics, detail)
    };

    println!(
        "{}",
        compact(&json!({ "provenance": provenance, "detail": detail }))
    );
    let mut metric_map = std::collections::BTreeMap::new();
    for (name, value, unit) in metrics {
        metric_map.insert(name.to_string(), json!({ "value": value, "unit": unit }));
    }
    println!(
        "{}",
        compact(&json!({
            "correct": failed == 0,
            "attempted": attempted.max(1),
            "failed": failed,
            "metrics": Value::Object(metric_map),
        }))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_are_fresh_and_repeatable() {
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
        assert_ne!(job_seed(7, 3), job_seed(7, 4));
        assert_ne!(job_seed(7, 3), job_seed(8, 3));
    }

    #[test]
    fn result_line_is_compact_json() {
        let v = json!({ "a": [1.5, 2.0], "b": "x\"y", "c": f64::NAN });
        assert_eq!(compact(&v), "{\"a\":[1.5,2],\"b\":\"x\\\"y\",\"c\":null}");
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(args("--workload stream --seed 3 --seconds 10 --trace 1")).unwrap();
        assert!(a.trace && a.seed == 3 && a.seconds == 10.0);
        assert!(parse_args(args("--workload nope --seed 3 --seconds 1")).is_err());
        assert!(parse_args(args("--workload budget --seed 3 --seconds 0")).is_err());
        assert!(parse_args(args("--workload budget --seconds 1")).is_err());
    }
}
