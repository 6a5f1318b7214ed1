//! `sd-lint` — the workspace determinism & panic-hygiene gate.
//!
//! The paper's claim (Dasu & Loh, PVLDB 2012) is that measured statistical
//! distortion is a property of the data and the cleaning strategy. The
//! dynamic suites *test* that (engine vs reference, threads 1 vs N); this
//! crate *enforces* the preconditions statically, as a fourth CI gate
//! beside fmt / clippy / doc:
//!
//! | rule | finds |
//! |------|-------|
//! | D001 | `HashMap`/`HashSet` in result-producing crates |
//! | D002 | entropy-seeded RNG (`thread_rng`, `from_entropy`, `from_os_rng`, `OsRng`) outside `sd-bench` |
//! | D003 | `Instant`/`SystemTime` in compute paths |
//! | D004 | thread spawn outside the approved `parallel_map` preallocated-slot idiom |
//! | P001 | `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library code (ratcheted) |
//! | P002 | `assert!`/`assert_eq!`/`assert_ne!` in non-test library code (ratcheted) |
//! | U001 | `unsafe` anywhere in an `sd-*` crate |
//!
//! D001–D004 and U001 fail on any finding. P001 and P002 tolerate
//! committed debt through a per-crate ratchet ([`baseline`],
//! `lint-baseline.json`): counts may only fall. Justified exceptions use an inline escape —
//! `// sd-lint: allow(RULE, reason)` — which is itself counted in the
//! report artifact, so suppressed debt stays visible.
//!
//! The pass is std-only (plus the vendored `serde_json` for artifacts): a
//! line/column-tracking lexer ([`lexer`]), structural context
//! ([`context`]: test regions, escape directives), token-level rules
//! ([`rules`]), and a workspace walk ([`walk`]). Run it as
//! `cargo run -p sd-lint -- check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod context;
pub mod diagnostics;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use baseline::{compare, Baseline};
use diagnostics::{sort_diagnostics, RuleId, RATCHETED_RULES};
use report::CheckOutcome;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Lints the whole workspace under `root` against its committed baseline.
///
/// This is the programmatic equivalent of `sd-lint check`: the CLI and the
/// self-gating meta-test both call it, so "what CI enforces" has exactly
/// one definition.
pub fn check_workspace(root: &Path) -> Result<(CheckOutcome, Baseline), String> {
    let baseline = Baseline::load(root)?;
    let files = walk::workspace_files(root)
        .map_err(|e| format!("cannot walk workspace at {}: {e}", root.display()))?;

    let mut outcome = CheckOutcome {
        files_scanned: files.len(),
        ..CheckOutcome::default()
    };
    let mut p001: BTreeMap<String, usize> = BTreeMap::new();
    let mut p002: BTreeMap<String, usize> = BTreeMap::new();
    for file in &files {
        let source = fs::read_to_string(&file.path)
            .map_err(|e| format!("cannot read {}: {e}", file.path.display()))?;
        let lint = engine::lint_source(&file.rel, &file.crate_name, &source);
        for diag in &lint.diagnostics {
            let counts = match diag.rule {
                RuleId::P001 => &mut p001,
                RuleId::P002 => &mut p002,
                _ => continue,
            };
            *counts.entry(file.crate_name.clone()).or_insert(0) += 1;
        }
        outcome.diagnostics.extend(lint.diagnostics);
        outcome.suppressed.extend(lint.suppressed);
        outcome.allows.extend(lint.allows);
    }
    sort_diagnostics(&mut outcome.diagnostics);
    sort_diagnostics(&mut outcome.suppressed);
    outcome.deltas = RATCHETED_RULES
        .into_iter()
        .zip([&p001, &p002])
        .flat_map(|(rule, counts)| compare(rule, counts, &baseline))
        .collect();
    outcome.p001_by_crate = p001;
    outcome.p002_by_crate = p002;
    Ok((outcome, baseline))
}

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/lint` → two levels up). Stable under `cargo run`/`cargo test`
/// from any working directory.
pub fn workspace_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.ancestors().nth(2) {
        Some(root) => root,
        // Unreachable in practice (the manifest dir always has two
        // ancestors); fall back to the manifest itself rather than panic.
        None => manifest,
    }
}
