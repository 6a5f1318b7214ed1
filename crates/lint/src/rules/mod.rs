//! The rule registry: every rule is a pure function from a lexed file (plus
//! its structural [`FileContext`]) to findings.
//!
//! Scoping lives here, in one place, so "which crates does this rule watch"
//! is auditable at a glance:
//!
//! | rule | scope |
//! |------|-------|
//! | D001 | every crate except `sd-bench` (result-producing code, tests included — order-dependent iteration makes tests flaky too) |
//! | D002 | every crate except `sd-bench` |
//! | D003 | every crate except `sd-bench` (the perf harness is *supposed* to read the clock) |
//! | D004 | every file except the approved spawn sites: `crates/core/src/runner.rs` (`parallel_map`) and `crates/serve/src/shard.rs` (the serving layer's shard/collector threads) |
//! | P001 | non-test code in every crate (ratcheted per crate via `lint-baseline.json`) |
//! | P002 | non-test code in every crate (ratcheted per crate via `lint-baseline.json`) |
//! | U001 | every crate (cross-checks the `#![forbid(unsafe_code)]` attributes) |

mod determinism;
mod panic_hygiene;
mod unsafe_use;

use crate::context::FileContext;
use crate::diagnostics::Diagnostic;
use crate::lexer::Lexed;

/// Everything a rule may look at for one file.
#[derive(Debug, Clone, Copy)]
pub struct RuleInput<'a> {
    /// Workspace-relative path, `/`-separated.
    pub file: &'a str,
    /// Cargo package name of the crate the file belongs to.
    pub crate_name: &'a str,
    /// The lexed file.
    pub lexed: &'a Lexed,
    /// Test regions and directives.
    pub ctx: &'a FileContext,
}

/// The perf/bench harness: exempt from the determinism rules whose whole
/// point it would defeat (it must read the clock, and nothing downstream
/// consumes its iteration order).
pub const BENCH_CRATE: &str = "sd-bench";

/// The files allowed to touch thread-spawn primitives: the
/// `parallel_map` preallocated-slot implementation every parallel
/// compute path must route through; the serving layer's shard module,
/// whose workers never fold floats across threads — every cross-thread
/// value travels a channel and is assembled in series order by a single
/// collector; and the serving layer's evaluator module, whose worker
/// pool scores windows that share no mutable state and whose reorder
/// stage republishes results strictly in window order.
pub const APPROVED_PARALLEL_FILES: [&str; 3] = [
    "crates/core/src/runner.rs",
    "crates/serve/src/shard.rs",
    "crates/serve/src/evaluator.rs",
];

/// Runs every rule over one file; returns raw findings (allow-directive
/// suppression happens in [`crate::engine`]).
pub fn run_all(input: RuleInput<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    determinism::check(input, &mut diags);
    panic_hygiene::check(input, &mut diags);
    unsafe_use::check(input, &mut diags);
    diags
}
