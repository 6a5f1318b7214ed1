//! Cross-commit golden digests: every scored `f64` of the four engine
//! workloads and of one `sd-serve` stream, hashed bit for bit and compared
//! with the committed `tests/golden.json`.
//!
//! The bit-identity suites elsewhere compare two paths of the same build,
//! so a change that moves both paths at once passes them. These digests
//! catch it. A change that moves output bits on purpose regenerates the
//! file with
//!
//! ```text
//! cargo test --test golden -- --ignored regenerate_golden_digests
//! ```
//!
//! and says in the change log which outputs moved and why.

use statistical_distortion::core::{NeighborPooling, WindowOutcome};
use statistical_distortion::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// 64-bit FNV-1a, written out so the digests stay stable across Rust
/// releases (`DefaultHasher` promises no such thing).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn scores(&mut self, improvement: f64, distortion: f64, distortions: &[MetricScore]) {
        self.f64(improvement);
        self.f64(distortion);
        self.u64(distortions.len() as u64);
        for d in distortions {
            self.f64(d.value);
        }
    }

    fn windows(&mut self, outcomes: &[WindowOutcome]) {
        self.u64(outcomes.len() as u64);
        for o in outcomes {
            self.u64(o.window_index as u64);
            self.u64(o.strategy_index as u64);
            self.scores(o.improvement, o.distortion, &o.distortions);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

const SEED: u64 = 2025;

fn experiment_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(15, SEED);
    config.replications = 2;
    config
}

fn strategies() -> Vec<CompositeStrategy> {
    vec![paper_strategy(1), paper_strategy(5)]
}

/// Every digest, keyed by workload.
fn digests() -> BTreeMap<&'static str, String> {
    let generated = generate(&NetsimConfig::small(SEED));
    let (data, topology) = (generated.dataset, NetsimConfig::small(SEED).topology);
    let mut out = BTreeMap::new();

    // `run_with` (through `run`), scored by every grid kernel.
    let mut config = experiment_config();
    config.metrics = vec![
        DistortionMetric::paper_default(),
        DistortionMetric::KlDivergence { bins: 6 },
        DistortionMetric::Energy { bins: 6 },
    ];
    let result = Experiment::new(config).run(&data, &strategies()).unwrap();
    let mut h = Fnv1a::new();
    h.u64(result.outcomes().len() as u64);
    for o in result.outcomes() {
        h.scores(o.improvement, o.distortion, &o.distortions);
    }
    out.insert("run_with", h.hex());

    let sweep = CostSweepConfig {
        experiment: experiment_config(),
        fractions: vec![0.0, 0.5, 1.0],
        strategies: strategies(),
        transport: TransportMode::Cold,
    };
    let points = cost_sweep(&data, &sweep).unwrap();
    let mut h = Fnv1a::new();
    h.u64(points.len() as u64);
    for p in &points {
        h.u64(p.series_cleaned as u64);
        h.scores(p.improvement, p.distortion, &p.distortions);
    }
    out.insert("cost_sweep", h.hex());

    let budget = BudgetOptimizerConfig {
        experiment: experiment_config(),
        strategies: vec![paper_strategy(1)],
        budgets: vec![0.0, 5.0, 20.0, 1e6],
        cost_model: CostModel::uniform(),
        policy: SelectionPolicy::Greedy,
        distortion_weight: 0.1,
        transport: TransportMode::Cold,
    };
    let frontier = budget_optimize(&data, &budget).unwrap();
    let mut h = Fnv1a::new();
    h.u64(frontier.len() as u64);
    for p in &frontier {
        h.f64(p.spent);
        h.u64(p.series_cleaned as u64);
        h.scores(p.improvement, p.distortion, &p.distortions);
    }
    out.insert("budget_optimize_greedy", h.hex());

    let windowed = strategies();
    for (name, pooling) in [
        ("windowed_own_only", NeighborPooling::OwnOnly),
        ("windowed_khop_1", NeighborPooling::KHop { hops: 1 }),
        (
            "windowed_weighted",
            NeighborPooling::Weighted {
                tower: 1.0,
                rnc: 0.3,
            },
        ),
    ] {
        let config = WindowedConfig::paper_default(20, 10, SEED).with_topology(topology, pooling);
        let result = WindowedExperiment::new(config)
            .run(&data, &windowed)
            .unwrap();
        let mut h = Fnv1a::new();
        h.windows(result.outcomes());
        out.insert(name, h.hex());
    }

    let config = WindowedConfig::paper_default(20, 10, SEED)
        .with_topology(topology, NeighborPooling::KHop { hops: 1 });
    let attributes = data.attributes().iter().map(|a| a.name.clone()).collect();
    let nodes = data.series().iter().map(|s| s.node()).collect();
    let service =
        StreamingService::launch(ServeConfig::new(config, attributes), nodes, windowed).unwrap();
    for row in stream_rows(&data) {
        service.ingest(row).unwrap();
    }
    let report = service.finish().unwrap();
    let mut h = Fnv1a::new();
    h.windows(report.outcomes());
    out.insert("serve_stream", h.hex());
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden.json")
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    // Published FNV-1a 64 test vectors: the empty input and "a".
    assert_eq!(Fnv1a::new().hex(), "cbf29ce484222325");
    let mut h = Fnv1a::new();
    h.0 ^= u64::from(b'a');
    h.0 = h.0.wrapping_mul(0x0000_0100_0000_01b3);
    assert_eq!(h.hex(), "af63dc4c8601ec8c");
}

#[test]
fn scored_bits_match_the_committed_digests() {
    let text = std::fs::read_to_string(golden_path()).unwrap();
    let golden = serde_json::from_str(&text).unwrap();
    let golden = golden.as_object().unwrap();
    let actual = digests();
    assert_eq!(
        golden.keys().map(String::as_str).collect::<Vec<_>>(),
        actual.keys().copied().collect::<Vec<_>>(),
        "workload set"
    );
    for (name, digest) in &actual {
        assert_eq!(
            golden[*name].as_str(),
            Some(digest.as_str()),
            "{name}: output bits moved; if on purpose, regenerate tests/golden.json \
             (see the module docs) and say why in CHANGES.md"
        );
    }
}

/// Rewrites `tests/golden.json` from this build's outputs.
#[test]
#[ignore = "rewrites tests/golden.json; run only when output bits move on purpose"]
fn regenerate_golden_digests() {
    let body: Vec<String> = digests()
        .iter()
        .map(|(name, digest)| format!("  \"{name}\": \"{digest}\""))
        .collect();
    std::fs::write(golden_path(), format!("{{\n{}\n}}\n", body.join(",\n"))).unwrap();
}
