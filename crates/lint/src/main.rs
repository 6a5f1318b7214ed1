//! The `sd-lint` CLI.
//!
//! ```text
//! cargo run --release -p sd-lint -- check [--report PATH]
//! cargo run --release -p sd-lint -- ratchet
//! cargo run --release -p sd-lint -- rules
//! ```
//!
//! `check` lints the workspace and exits non-zero on any new violation or
//! P001/P002 ratchet regression; with `SD_OUT=<dir>` (or `--report <path>`) it
//! also writes the JSON report artifact. `ratchet` rewrites
//! `lint-baseline.json` downward after debt has been paid off. `rules`
//! prints the rule table.

#![forbid(unsafe_code)]

use sd_lint::baseline::{Baseline, RatchetDelta, BASELINE_FILE};
use sd_lint::diagnostics::{RuleId, ALL_RULES};
use sd_lint::{check_workspace, workspace_root};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("ratchet") => cmd_ratchet(),
        Some("rules") => {
            cmd_rules();
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("usage: sd-lint <check [--report PATH] | ratchet | rules>");
            Ok(ExitCode::from(2))
        }
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sd-lint: error: {message}");
            ExitCode::from(2)
        }
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let report_path = report_path(args)?;
    let root = workspace_root();
    let (outcome, baseline) = check_workspace(root)?;

    // Hard rules: every surviving finding is a failure.
    let mut hard = 0usize;
    for diag in &outcome.diagnostics {
        if !diag.rule.is_ratcheted() {
            println!("{diag}");
            hard += 1;
        }
    }

    // P001/P002: print sites only for crates over their ceiling (printing
    // the whole tolerated backlog every run would bury real regressions).
    let mut regressions = Vec::new();
    for delta in &outcome.deltas {
        if delta.regressed() {
            regressions.push(delta.clone());
        }
    }
    for delta in &regressions {
        println!(
            "{} ratchet regression in {}: {} sites, baseline allows {}",
            delta.rule, delta.crate_name, delta.current, delta.ceiling
        );
        for diag in &outcome.diagnostics {
            if diag.rule == delta.rule && crate_of(&diag.file) == delta.crate_name {
                println!("{diag}");
            }
        }
    }

    summary(&outcome.deltas, hard, &outcome);

    if let Some(path) = report_path {
        write_report(&path, &outcome, &baseline)?;
        println!("report: {}", path.display());
    }

    if hard > 0 || !regressions.is_empty() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_ratchet() -> Result<ExitCode, String> {
    let root = workspace_root();
    let (outcome, baseline) = check_workspace(root)?;
    // First run ever: no committed baseline means every ceiling reads as 0,
    // which would look like a regression. Initialization is exempt.
    let initializing = !root.join(BASELINE_FILE).exists();
    let regressed: Vec<&RatchetDelta> = outcome.deltas.iter().filter(|d| d.regressed()).collect();
    if !initializing && !regressed.is_empty() {
        for delta in &regressed {
            eprintln!(
                "cannot ratchet: {} has {} {} sites, baseline allows {}",
                delta.crate_name, delta.current, delta.rule, delta.ceiling
            );
        }
        return Err("the ratchet only turns downward; fix the regressions first".into());
    }
    let mut new_baseline = Baseline::default();
    for (counts, ceilings) in [
        (&outcome.p001_by_crate, &mut new_baseline.p001),
        (&outcome.p002_by_crate, &mut new_baseline.p002),
    ] {
        for (crate_name, &count) in counts {
            if count > 0 {
                ceilings.insert(crate_name.clone(), count);
            }
        }
    }
    for delta in &outcome.deltas {
        if delta.improvable() {
            println!(
                "ratchet: {} {} {} -> {}",
                delta.rule, delta.crate_name, delta.ceiling, delta.current
            );
        }
    }
    if new_baseline == baseline {
        println!("baseline already tight; nothing to ratchet");
    } else {
        new_baseline.save(root)?;
        println!("wrote {}", root.join(BASELINE_FILE).display());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_rules() {
    println!("sd-lint rules:");
    for rule in ALL_RULES {
        println!("  {}  {}", rule.as_str(), rule.summary());
    }
    println!("  escape hatch: // sd-lint: allow(RULE, reason) — counted in the report");
}

/// Resolves `--report PATH` or the `SD_OUT` convention used by the other
/// artifact-producing bins (`$SD_OUT/lint-report.json`).
fn report_path(args: &[String]) -> Result<Option<PathBuf>, String> {
    match args {
        [] => match std::env::var("SD_OUT") {
            Ok(dir) if !dir.is_empty() => Ok(Some(PathBuf::from(dir).join("lint-report.json"))),
            _ => Ok(None),
        },
        [flag, path] if flag == "--report" => Ok(Some(PathBuf::from(path))),
        [flag] if flag == "--report" => Err("--report needs a path".into()),
        [arg, ..] => Err(format!("unknown argument `{arg}`")),
    }
}

fn write_report(
    path: &PathBuf,
    outcome: &sd_lint::report::CheckOutcome,
    baseline: &Baseline,
) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let text = serde_json::to_string_pretty(&outcome.to_value(baseline))
        .map_err(|e| format!("cannot serialize report: {e}"))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Maps a diagnostic's workspace-relative path back to its crate name for
/// the regression listing (`crates/<dir>/…` → `sd-<dir>`, facade → the
/// package name).
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(dir)) => format!("sd-{dir}"),
        _ => "statistical-distortion".to_string(),
    }
}

fn summary(deltas: &[RatchetDelta], hard: usize, outcome: &sd_lint::report::CheckOutcome) {
    let allowed = outcome.allows.iter().filter(|a| a.used).count();
    let p001_total: usize = outcome.p001_by_crate.values().sum();
    let p002_total: usize = outcome.p002_by_crate.values().sum();
    println!(
        "sd-lint: {} files, {} hard violations, {} P001 and {} P002 sites (ratcheted), \
         {} allows in use",
        outcome.files_scanned, hard, p001_total, p002_total, allowed
    );
    let mut debt: BTreeMap<(RuleId, &str), (usize, usize)> = BTreeMap::new();
    for delta in deltas {
        if delta.current > 0 || delta.ceiling > 0 {
            debt.insert(
                (delta.rule, &delta.crate_name),
                (delta.current, delta.ceiling),
            );
        }
    }
    for ((rule, crate_name), (current, ceiling)) in &debt {
        let note = if current < ceiling {
            "  (below baseline — run `sd-lint ratchet`)"
        } else {
            ""
        };
        println!("  {rule} {crate_name}: {current}/{ceiling}{note}");
    }
}
