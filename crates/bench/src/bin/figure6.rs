//! Figure 6 reproduction: statistical distortion (EMD) vs. glitch-score
//! improvement for the five cleaning strategies, in three configurations:
//! (a) B = 100 with log(Attribute 1), (b) B = 100 raw, (c) B = 500 with
//! log(Attribute 1).
//!
//! ```text
//! SD_SCALE=harness cargo run --release -p sd-bench --bin figure6
//! ```

use sd_bench::{gate_shape_checks, mean_sd, shape_check, HarnessConfig};
use sd_cleaning::{paper_strategy, CleaningStrategy};
use sd_core::{Experiment, ExperimentConfig};

fn main() {
    let harness = HarnessConfig::from_env();
    let data = harness.generate_data();
    let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();

    // (label, sample size, log factor) — the paper's three panels.
    let panels = [
        ("(a) n=100, log(attr1)", 100usize, true),
        ("(b) n=100, no log", 100usize, false),
        ("(c) n=500, log(attr1)", 500usize, true),
    ];

    let mut json_panels = Vec::new();
    // Remember panel means for the shape checks: (a) log and (b) raw.
    let mut panel_a_means: Vec<(String, f64, f64)> = Vec::new();
    let mut panel_b_means: Vec<(String, f64, f64)> = Vec::new();

    for (label, sample_size, log) in panels {
        let mut config = ExperimentConfig::paper_default(sample_size, harness.seed);
        config.replications = harness.replications;
        config.log_transform_attr1 = log;
        config.threads = harness.threads;

        let result = Experiment::new(config)
            .run(&data, &strategies)
            .expect("experiment must run");

        println!("\n== Figure 6 {label} ==");
        println!(
            "{:<32} {:>12} {:>10} {:>12} {:>10}",
            "strategy", "improvement", "±sd", "EMD", "±sd"
        );
        let mut spreads = Vec::new();
        for (si, s) in strategies.iter().enumerate() {
            let outcomes = result.for_strategy(si);
            let improvements: Vec<f64> = outcomes.iter().map(|o| o.improvement).collect();
            let distortions: Vec<f64> = outcomes.iter().map(|o| o.distortion).collect();
            let (mi, si_) = mean_sd(&improvements);
            let (md, sd_) = mean_sd(&distortions);
            println!(
                "{:<32} {mi:>12.3} {si_:>10.3} {md:>12.4} {sd_:>10.4}",
                s.name()
            );
            spreads.push((s.name(), mi, md, si_, sd_));
            if label.starts_with("(a)") {
                panel_a_means.push((s.name(), mi, md));
            } else if label.starts_with("(b)") {
                panel_b_means.push((s.name(), mi, md));
            }
        }

        // Self-describing schema: the scored metric names ride along with
        // every panel, and each point records its per-metric scores, so
        // multi-metric configurations need no side channel.
        let metrics = result.metrics().to_vec();
        json_panels.push(serde_json::json!({
            "panel": label,
            "sample_size": sample_size,
            "log_transform": log,
            "metrics": metrics,
            "means": spreads
                .iter()
                .map(|(name, mi, md, si_, sd_)| serde_json::json!({
                    "strategy": name,
                    "metric": metrics[0],
                    "improvement_mean": mi,
                    "distortion_mean": md,
                    "improvement_sd": si_,
                    "distortion_sd": sd_,
                }))
                .collect::<Vec<_>>(),
            "points": result.outcomes()
                .iter()
                .map(|o| serde_json::json!({
                    "strategy": o.strategy,
                    "improvement": o.improvement,
                    "metric": o.distortions[0].metric,
                    "emd": o.distortion,
                    "distortions": o.distortions
                        .iter()
                        .map(|s| serde_json::json!({ "metric": s.metric, "value": s.value }))
                        .collect::<Vec<_>>(),
                }))
                .collect::<Vec<_>>(),
        }));
    }

    // Shape checks against the paper's qualitative findings (§5.5).
    println!("\n== shape checks ==");
    let find = |means: &[(String, f64, f64)], name: &str| {
        means
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, imp, emd)| (imp, emd))
            .expect("strategy present")
    };
    let a1 = find(&panel_a_means, "winsorize and impute");
    let a2 = find(&panel_a_means, "impute only");
    let a3 = find(&panel_a_means, "winsorize only");
    let a4 = find(&panel_a_means, "replace with mean only");
    let a5 = find(&panel_a_means, "winsorize and replace with mean");
    let b2 = find(&panel_b_means, "impute only");
    let b3 = find(&panel_b_means, "winsorize only");
    let b4 = find(&panel_b_means, "replace with mean only");

    let mut passed = true;
    passed &= shape_check(
        "impute-only and mean-replacement treat the same glitches (similar improvement)",
        (a2.0 - a4.0).abs() < 0.5 * a2.0.max(a4.0),
    );
    passed &= shape_check(
        "raw panel: mean replacement distorts less than Gaussian imputation (b: s4 < s2)",
        b4.1 < b2.1,
    );
    passed &= shape_check(
        "composite strategies beat single-method improvement (s1 > s2, s5 > s4)",
        a1.0 > a2.0 && a5.0 > a4.0,
    );
    passed &= shape_check(
        "log transform flags more outliers: winsorize-only improves more in (a) than (b)",
        a3.0 > b3.0,
    );
    passed &= shape_check(
        "winsorize-only improves least among composite-treating strategies",
        a3.0 < a1.0 && a3.0 < a5.0,
    );
    // Documented deviation (EXPERIMENTS.md): in the log working space the
    // conditional Gaussian tracks the contaminated marginal closely, so
    // panel (a)'s impute-vs-mean distortion ordering flips relative to the
    // paper. The raw panel reproduces the paper's mechanism.
    println!(
        "note: panel (a) impute-only EMD {:.4} vs mean-replace {:.4} (paper orders these the other way; see EXPERIMENTS.md §deviations)",
        a2.1, a4.1
    );

    harness.write_json(
        "figure6.json",
        &serde_json::json!({ "panels": json_panels }),
    );
    gate_shape_checks(passed);
}
