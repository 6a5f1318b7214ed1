//! Budgeted-cleaning frontier: strategy 1 under a fixed repair budget,
//! selected greedily by marginal glitch improvement per unit of cost
//! (distortion-penalized), against the paper's §5.2 dirtiest-first
//! ordering and a random control. Every point scores the full distortion
//! suite from one cleaning pass.
//!
//! ```text
//! SD_SCALE=harness cargo run --release -p sd-bench --bin figure_budget
//! ```

use sd_bench::{gate_shape_checks, mean_sd, shape_check, HarnessConfig};
use sd_cleaning::paper_strategy;
use sd_core::{
    budget_optimize, BudgetOptimizerConfig, CostModel, DistortionMetric, ExperimentConfig,
    FrontierPoint, SelectionPolicy, TransportMode,
};

fn main() {
    let harness = HarnessConfig::from_env();
    let data = harness.generate_data();
    let sample_size = 100usize;

    // A deployment-shaped cost model: re-measuring a missing value costs
    // more than reconciling an inconsistency, which costs more than
    // clipping an outlier, plus a fixed per-series visit cost.
    let cost_model = CostModel {
        base_per_series: 2.0,
        per_missing_cell: 3.0,
        per_inconsistent_cell: 2.0,
        per_outlier_cell: 1.0,
        strategy_factors: Vec::new(),
    };
    // Budget ladder in units of the replication sample size, so the
    // frontier shape is comparable across scales.
    let budgets: Vec<f64> = [0.0, 1.0, 3.0, 10.0]
        .iter()
        .map(|m| m * sample_size as f64)
        .collect();

    let config = |policy: SelectionPolicy| {
        let mut experiment = ExperimentConfig::paper_default(sample_size, harness.seed);
        experiment.replications = harness.replications;
        experiment.threads = harness.threads;
        experiment.metrics = DistortionMetric::full_suite();
        BudgetOptimizerConfig {
            experiment,
            strategies: vec![paper_strategy(1)],
            budgets: budgets.clone(),
            cost_model: cost_model.clone(),
            policy,
            distortion_weight: 0.1,
            transport: TransportMode::default(),
        }
    };

    let policies = [
        SelectionPolicy::Greedy,
        SelectionPolicy::DirtiestFirst,
        SelectionPolicy::Random,
    ];
    let mut frontiers: Vec<(SelectionPolicy, Vec<FrontierPoint>)> = Vec::new();
    for policy in policies {
        let points = budget_optimize(&data, &config(policy)).expect("budget optimizer");
        frontiers.push((policy, points));
    }

    // Per-budget mean of a field across one policy's replications.
    let mean_of = |points: &[FrontierPoint], budget: f64, f: &dyn Fn(&FrontierPoint) -> f64| {
        mean_sd(
            &points
                .iter()
                .filter(|p| p.budget == budget)
                .map(f)
                .collect::<Vec<f64>>(),
        )
    };

    let mut json_policies = Vec::new();
    for (policy, points) in &frontiers {
        println!("\n== Budget frontier: {} ==", policy.label());
        println!(
            "{:>8} {:>9} {:>8} {:>12} {:>8} {:>10}",
            "budget", "spent", "series", "improvement", "±sd", "EMD"
        );
        let mut summary = Vec::new();
        for &budget in &budgets {
            let (spent, _) = mean_of(points, budget, &|p| p.spent);
            let (series, _) = mean_of(points, budget, &|p| p.series_cleaned as f64);
            let (mi, si) = mean_of(points, budget, &|p| p.improvement);
            let (md, _) = mean_of(points, budget, &|p| p.distortion);
            println!("{budget:>8.0} {spent:>9.1} {series:>8.1} {mi:>12.3} {si:>8.3} {md:>10.4}");
            summary.push(serde_json::json!({
                "budget": budget,
                "spent_mean": spent,
                "series_cleaned_mean": series,
                "improvement_mean": mi,
                "distortion_mean": md,
            }));
        }
        json_policies.push(serde_json::json!({
            "policy": policy.label(),
            "summary": summary,
            "points": points
                .iter()
                .map(|p| serde_json::json!({
                    "budget": p.budget,
                    "replication": p.replication,
                    "strategy": p.strategy,
                    "spent": p.spent,
                    "series_cleaned": p.series_cleaned,
                    "improvement": p.improvement,
                    "distortions": p.distortions
                        .iter()
                        .map(|s| serde_json::json!({ "metric": s.metric, "value": s.value }))
                        .collect::<Vec<_>>(),
                }))
                .collect::<Vec<_>>(),
        }));
    }

    println!("\n== shape checks ==");
    let curve = |policy: SelectionPolicy| -> Vec<(f64, f64, f64)> {
        let points = &frontiers.iter().find(|(p, _)| *p == policy).unwrap().1;
        budgets
            .iter()
            .map(|&b| {
                let (mi, _) = mean_of(points, b, &|p| p.improvement);
                let (md, _) = mean_of(points, b, &|p| p.distortion);
                (b, mi, md)
            })
            .collect()
    };
    let greedy = curve(SelectionPolicy::Greedy);
    let dirtiest = curve(SelectionPolicy::DirtiestFirst);
    let random = curve(SelectionPolicy::Random);

    let mut passed = true;
    passed &= shape_check(
        "zero budget buys nothing: no improvement, no distortion",
        greedy[0].1.abs() < 1e-9 && greedy[0].2.abs() < 1e-9,
    );
    passed &= shape_check(
        "greedy improvement grows monotonically with budget",
        greedy.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9),
    );
    passed &= shape_check(
        "greedy distortion grows with the spend",
        greedy.windows(2).all(|w| w[1].2 >= w[0].2 - 1e-9),
    );
    passed &= shape_check(
        "greedy never loses to dirtiest-first at any budget",
        greedy.iter().zip(&dirtiest).all(|(g, d)| g.1 >= d.1 - 1e-9),
    );
    passed &= shape_check(
        "greedy never loses to the random control at any budget",
        greedy.iter().zip(&random).all(|(g, r)| g.1 >= r.1 - 1e-9),
    );

    harness.write_json(
        "figure_budget.json",
        &serde_json::json!({
            "sample_size": sample_size,
            "budgets": budgets,
            "cost_model": cost_model.to_json(),
            "distortion_weight": 0.1,
            "metrics": DistortionMetric::full_suite()
                .iter()
                .map(DistortionMetric::name)
                .collect::<Vec<_>>(),
            "policies": json_policies,
        }),
    );
    gate_shape_checks(passed);
}
