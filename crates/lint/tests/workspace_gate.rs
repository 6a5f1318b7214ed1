//! The meta-test: the live workspace must lint clean against the
//! committed baseline. This is the same predicate CI's `lint` job
//! enforces, so a PR that introduces a violation fails `cargo test`
//! locally before it ever reaches CI.

use sd_lint::{check_workspace, workspace_root};

#[test]
fn live_workspace_passes_the_lint_gate() {
    let (outcome, _baseline) =
        check_workspace(workspace_root()).expect("workspace walk and lint succeed");
    assert!(outcome.files_scanned > 50, "the walker found the workspace");

    let hard: Vec<_> = outcome
        .diagnostics
        .iter()
        .filter(|d| !d.rule.is_ratcheted())
        .collect();
    assert!(
        hard.is_empty(),
        "hard violations in the live tree: {hard:#?}"
    );

    let regressions: Vec<_> = outcome.deltas.iter().filter(|d| d.regressed()).collect();
    assert!(
        regressions.is_empty(),
        "P001 or P002 above the committed baseline: {regressions:#?}"
    );
    assert!(outcome.passes());
}

#[test]
fn sd_core_panic_debt_is_fully_paid() {
    // PR invariant: the result-producing engine crate carries zero
    // tolerated panic sites, and the baseline must not quietly re-admit
    // any (absence from the file means ceiling 0).
    let (outcome, baseline) =
        check_workspace(workspace_root()).expect("workspace walk and lint succeed");
    assert_eq!(outcome.p001_by_crate.get("sd-core"), None);
    assert_eq!(baseline.ceiling("sd-core"), 0);
}
