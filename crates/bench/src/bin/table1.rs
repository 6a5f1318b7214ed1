//! Table 1 reproduction: percentage of records carrying each glitch type,
//! before and after cleaning, for Strategies 1–5 in the paper's three
//! configuration blocks.
//!
//! ```text
//! SD_SCALE=harness cargo run --release -p sd-bench --bin table1
//! ```

use sd_bench::{gate_shape_checks, shape_check, HarnessConfig};
use sd_cleaning::paper_strategy;
use sd_core::{table1, Table1Config};

fn main() {
    let harness = HarnessConfig::from_env();
    let data = harness.generate_data();
    let config = Table1Config {
        blocks: vec![(100, true), (500, true), (100, false)],
        replications: harness.replications,
        seed: harness.seed,
        threads: harness.threads,
    };
    let strategies: Vec<_> = (1..=5).map(paper_strategy).collect();
    let rows = table1(&data, &config, &strategies).expect("table generation");

    println!("Table 1: Percentage of Glitches: Before and After Cleaning");
    println!(
        "{:<28} {:<11} {:>8} {:>8} {:>8}   {:>9} {:>8} {:>8}",
        "block", "strategy", "miss", "incon", "outl", "miss'", "incon'", "outl'"
    );
    for row in &rows {
        println!("{}", row.formatted());
    }

    // Shape checks against the paper's Table 1.
    println!();
    let find = |block_frag: &str, strategy: &str| {
        rows.iter()
            .find(|r| r.block.contains(block_frag) && r.strategy == strategy)
            .expect("row present")
    };
    let log100_s1 = find("n=100, log", "Strategy 1");
    let log100_s2 = find("n=100, log", "Strategy 2");
    let log100_s3 = find("n=100, log", "Strategy 3");
    let log100_s4 = find("n=100, log", "Strategy 4");
    let log100_s5 = find("n=100, log", "Strategy 5");
    let raw100_s1 = find("n=100, no log", "Strategy 1");

    let mut passed = true;
    passed &= shape_check(
        "dirty missing ≈ 15.8 % (±3)",
        (log100_s1.dirty_pct[0] - 15.8).abs() < 3.0,
    );
    passed &= shape_check(
        "dirty inconsistent ≈ 15.9 % (±3), co-occurring with missing",
        (log100_s1.dirty_pct[1] - 15.9).abs() < 3.0,
    );
    passed &= shape_check(
        "log flags ≈3× more outliers than raw (16.8 vs 5.1)",
        log100_s1.dirty_pct[2] > 2.0 * raw100_s1.dirty_pct[2],
    );
    passed &= shape_check(
        "strategy 1 leaves a tiny missing residual (≈0.03 %)",
        log100_s1.treated_pct[0] < 0.5 && log100_s1.treated_pct[0] > 0.0,
    );
    passed &= shape_check(
        "imputation creates new inconsistencies (treated > 0), more without log",
        log100_s1.treated_pct[1] > 0.1 && raw100_s1.treated_pct[1] > log100_s1.treated_pct[1],
    );
    passed &= shape_check(
        "winsorization clears outliers under strategies 1/5",
        log100_s1.treated_pct[2] < 0.2 && log100_s5.treated_pct[2] < 0.2,
    );
    passed &= shape_check(
        "strategy 2 leaves (and grows) outliers",
        log100_s2.treated_pct[2] >= log100_s2.dirty_pct[2] * 0.9,
    );
    // Strategy 3 never *treats* missing or inconsistent cells, so the
    // missing rate must be byte-identical. The inconsistent rate may dip
    // slightly: the value-based inconsistencies (negative loads, ratios
    // above one — ~1.4 % of records by injection rate) double as 3-σ
    // outliers, and winsorizing those cells resolves the violation as a
    // side effect. It must never increase.
    let s3_incon_drop = log100_s3.dirty_pct[1] - log100_s3.treated_pct[1];
    passed &= shape_check(
        "strategy 3 leaves missing untouched; inconsistent drops only via outlier overlap",
        (log100_s3.treated_pct[0] - log100_s3.dirty_pct[0]).abs() < 1e-9
            && (0.0..2.0).contains(&s3_incon_drop),
    );
    passed &= shape_check(
        "strategies 4/5 drive missing and inconsistent to zero",
        log100_s4.treated_pct[0] == 0.0
            && log100_s4.treated_pct[1] == 0.0
            && log100_s5.treated_pct[0] == 0.0
            && log100_s5.treated_pct[1] == 0.0,
    );

    harness.write_json(
        "table1.json",
        &serde_json::json!({
            // Table 1 reports glitch percentages, not distortion; the
            // configured metric set still rides along so every artifact
            // is self-describing.
            "metrics": [sd_core::DistortionMetric::paper_default().name()],
            "rows": rows
                .iter()
                .map(|r| serde_json::json!({
                    "block": r.block,
                    "strategy": r.strategy,
                    "dirty_pct": r.dirty_pct,
                    "treated_pct": r.treated_pct,
                }))
                .collect::<Vec<_>>(),
        }),
    );
    gate_shape_checks(passed);
}
