//! Figure 7 reproduction: the cost of cleaning. Strategy 1 applied to the
//! dirtiest {0, 20, 50, 100} % of series (ranked by normalized glitch
//! score), in the paper's three configurations.
//!
//! ```text
//! SD_SCALE=harness cargo run --release -p sd-bench --bin figure7
//! ```

use sd_bench::{gate_shape_checks, mean_sd, shape_check, HarnessConfig};
use sd_cleaning::paper_strategy;
use sd_core::{cost_sweep, CostSweepConfig, ExperimentConfig, TransportMode};

fn main() {
    let harness = HarnessConfig::from_env();
    let data = harness.generate_data();
    let fractions = vec![0.0, 0.2, 0.5, 1.0];

    let panels = [
        ("(a) n=100, log(attr1)", 100usize, true),
        ("(b) n=100, no log", 100usize, false),
        ("(c) n=500, log(attr1)", 500usize, true),
    ];

    let mut json_panels = Vec::new();
    let mut panel_a: Vec<(f64, f64, f64)> = Vec::new();

    for (label, sample_size, log) in panels {
        let mut experiment = ExperimentConfig::paper_default(sample_size, harness.seed);
        experiment.replications = harness.replications;
        experiment.log_transform_attr1 = log;
        experiment.threads = harness.threads;
        let config = CostSweepConfig {
            experiment,
            fractions: fractions.clone(),
            strategies: vec![paper_strategy(1)],
            transport: TransportMode::Cold,
        };
        let points = cost_sweep(&data, &config).expect("cost sweep");

        println!("\n== Figure 7 {label} ==");
        println!(
            "{:>9} {:>12} {:>10} {:>12} {:>10}",
            "% cleaned", "improvement", "±sd", "EMD", "±sd"
        );
        let mut summary = Vec::new();
        for &fraction in &fractions {
            let imps: Vec<f64> = points
                .iter()
                .filter(|p| p.fraction == fraction)
                .map(|p| p.improvement)
                .collect();
            let emds: Vec<f64> = points
                .iter()
                .filter(|p| p.fraction == fraction)
                .map(|p| p.distortion)
                .collect();
            let (mi, si) = mean_sd(&imps);
            let (md, sd) = mean_sd(&emds);
            println!(
                "{:>9.0} {mi:>12.3} {si:>10.3} {md:>12.4} {sd:>10.4}",
                fraction * 100.0
            );
            summary.push(serde_json::json!({
                "fraction": fraction,
                "improvement_mean": mi,
                "distortion_mean": md,
            }));
            if label.starts_with("(a)") {
                panel_a.push((fraction, mi, md));
            }
        }
        // Self-describing schema: metric names ride along with the panel
        // and every point records its per-metric scores.
        let metrics: Vec<&'static str> = config
            .experiment
            .metrics
            .iter()
            .map(sd_core::DistortionMetric::name)
            .collect();
        json_panels.push(serde_json::json!({
            "panel": label,
            "metrics": metrics,
            "summary": summary,
            "points": points
                .iter()
                .map(|p| serde_json::json!({
                    "fraction": p.fraction,
                    "replication": p.replication,
                    "strategy": p.strategy,
                    "improvement": p.improvement,
                    "metric": p.distortions[0].metric,
                    "emd": p.distortion,
                    "distortions": p.distortions
                        .iter()
                        .map(|s| serde_json::json!({ "metric": s.metric, "value": s.value }))
                        .collect::<Vec<_>>(),
                }))
                .collect::<Vec<_>>(),
        }));
    }

    println!("\n== shape checks (panel a) ==");
    let at = |f: f64| panel_a.iter().find(|&&(x, _, _)| x == f).copied().unwrap();
    let f0 = at(0.0);
    let f20 = at(0.2);
    let f50 = at(0.5);
    let f100 = at(1.0);
    let mut passed = true;
    passed &= shape_check(
        "0 % cleaned: no improvement, no distortion",
        f0.1.abs() < 1e-9 && f0.2.abs() < 1e-9,
    );
    passed &= shape_check(
        "improvement grows monotonically with % cleaned",
        f20.1 > f0.1 && f50.1 > f20.1 && f100.1 >= f50.1 * 0.98,
    );
    passed &= shape_check(
        "distortion grows with % cleaned",
        f20.2 > f0.2 && f50.2 > f20.2 * 0.9 && f100.2 >= f50.2 * 0.9,
    );
    passed &= shape_check(
        "diminishing returns beyond 50 % (greedy dirtiest-first ranking)",
        (f100.1 - f50.1) < (f50.1 - f0.1),
    );

    harness.write_json(
        "figure7.json",
        &serde_json::json!({ "panels": json_panels }),
    );
    gate_shape_checks(passed);
}
