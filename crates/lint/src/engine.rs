//! The per-file lint pipeline: lex → context → rules → suppression.

use crate::context::FileContext;
use crate::diagnostics::{sort_diagnostics, Diagnostic, RuleId};
use crate::lexer::lex;
use crate::rules::{run_all, RuleInput};

/// One allow directive with its usage outcome, for the report artifact.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// The allowed rule.
    pub rule: RuleId,
    /// Workspace-relative file.
    pub file: String,
    /// Line the directive sits on.
    pub line: u32,
    /// The justification text.
    pub reason: String,
    /// Whether the directive actually suppressed a finding (a `false`
    /// here is stale debt worth deleting).
    pub used: bool,
}

/// The lint result for one file.
#[derive(Debug, Clone, Default)]
pub struct FileLint {
    /// Surviving findings (post-suppression), in reporting order.
    /// Malformed directives surface here as [`RuleId::A000`].
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by a directive (still counted in the report).
    pub suppressed: Vec<Diagnostic>,
    /// Every parsed directive with its usage outcome.
    pub allows: Vec<AllowRecord>,
}

/// Lints one file's source text.
///
/// `file` is the workspace-relative path used in diagnostics;
/// `crate_name` selects rule scopes (see [`crate::rules`]).
pub fn lint_source(file: &str, crate_name: &str, source: &str) -> FileLint {
    let lexed = lex(source);
    let ctx = FileContext::build(file, &lexed);
    let raw = run_all(RuleInput {
        file,
        crate_name,
        lexed: &lexed,
        ctx: &ctx,
    });

    let mut out = FileLint::default();
    let mut used = vec![false; ctx.allows.len()];
    for diag in raw {
        let hit = ctx
            .allows
            .iter()
            .position(|a| a.rule == diag.rule && a.target_line == diag.line);
        match hit {
            Some(k) => {
                used[k] = true;
                out.suppressed.push(diag);
            }
            None => out.diagnostics.push(diag),
        }
    }
    out.diagnostics.extend(ctx.malformed.iter().cloned());
    for (a, &was_used) in ctx.allows.iter().zip(&used) {
        out.allows.push(AllowRecord {
            rule: a.rule,
            file: file.to_string(),
            line: a.line,
            reason: a.reason.clone(),
            used: was_used,
        });
    }
    sort_diagnostics(&mut out.diagnostics);
    sort_diagnostics(&mut out.suppressed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_marks_the_directive_used() {
        let src = "fn f(v: Vec<u32>) -> u32 {\n    \
                   v.first().copied().unwrap() // sd-lint: allow(P001, caller guards non-empty)\n\
                   }\n";
        let lint = lint_source("crates/core/src/x.rs", "sd-core", src);
        assert!(lint.diagnostics.is_empty(), "{:?}", lint.diagnostics);
        assert_eq!(lint.suppressed.len(), 1);
        assert_eq!(lint.allows.len(), 1);
        assert!(lint.allows[0].used);
    }

    #[test]
    fn unused_directive_is_recorded_not_fatal() {
        let lint = lint_source(
            "crates/core/src/x.rs",
            "sd-core",
            "// sd-lint: allow(U001, nothing here)\nfn f() {}\n",
        );
        assert!(lint.diagnostics.is_empty());
        assert!(!lint.allows[0].used);
    }

    #[test]
    fn wrong_rule_directive_does_not_suppress() {
        let src = "fn f(v: Vec<u32>) -> u32 {\n    \
                   v.first().copied().unwrap() // sd-lint: allow(D001, wrong rule)\n\
                   }\n";
        let lint = lint_source("crates/core/src/x.rs", "sd-core", src);
        assert_eq!(lint.diagnostics.len(), 1);
        assert_eq!(lint.diagnostics[0].rule, RuleId::P001);
    }

    #[test]
    fn bench_crate_escapes_determinism_rules_only() {
        let src =
            "use std::time::Instant;\nfn t() { let x = Instant::now(); x.elapsed().unwrap(); }\n";
        let bench = lint_source("crates/bench/src/bin/figure7.rs", "sd-bench", src);
        assert!(
            bench.diagnostics.iter().all(|d| d.rule == RuleId::P001),
            "bench keeps P001 but sheds D003: {:?}",
            bench.diagnostics
        );
        let core = lint_source("crates/core/src/x.rs", "sd-core", src);
        assert!(core.diagnostics.iter().any(|d| d.rule == RuleId::D003));
    }
}
