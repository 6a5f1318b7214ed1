//! Structured diagnostics: rule identifiers and findings.

use std::fmt;

/// The identifier of a lint rule (or of the directive meta-check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in a result-producing crate.
    D001,
    /// Entropy-seeded RNG outside `sd-bench`.
    D002,
    /// Wall-clock time (`Instant`/`SystemTime`) in compute paths.
    D003,
    /// Thread-spawn primitives outside the approved `parallel_map` idiom.
    D004,
    /// `unwrap`/`expect`/`panic!`/`unreachable!` in non-test library code.
    P001,
    /// `assert!`/`assert_eq!`/`assert_ne!` in non-test library code.
    P002,
    /// `unsafe` in an `sd-*` crate.
    U001,
    /// A malformed `sd-lint: allow(...)` directive (always a failure).
    A000,
}

/// Every enforceable rule, in report order ([`RuleId::A000`] excluded — it
/// is the directive meta-check, not a subscribable rule).
pub const ALL_RULES: [RuleId; 7] = [
    RuleId::D001,
    RuleId::D002,
    RuleId::D003,
    RuleId::D004,
    RuleId::P001,
    RuleId::P002,
    RuleId::U001,
];

/// The rules that tolerate committed per-crate debt through the ratchet
/// baseline (`lint-baseline.json`) instead of failing on any finding.
pub const RATCHETED_RULES: [RuleId; 2] = [RuleId::P001, RuleId::P002];

impl RuleId {
    /// The stable textual id (`"D001"`, …) used in output, directives, and
    /// the report artifact.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::P001 => "P001",
            RuleId::P002 => "P002",
            RuleId::U001 => "U001",
            RuleId::A000 => "A000",
        }
    }

    /// Parses a directive rule id; `None` for unknown ids (including
    /// `A000`, which cannot be allowed away).
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D001" => Some(RuleId::D001),
            "D002" => Some(RuleId::D002),
            "D003" => Some(RuleId::D003),
            "D004" => Some(RuleId::D004),
            "P001" => Some(RuleId::P001),
            "P002" => Some(RuleId::P002),
            "U001" => Some(RuleId::U001),
            _ => None,
        }
    }

    /// Whether the rule is ratcheted per crate ([`RATCHETED_RULES`]) rather
    /// than failing on any finding.
    pub fn is_ratcheted(self) -> bool {
        RATCHETED_RULES.contains(&self)
    }

    /// One-line description, used by `sd-lint rules` and the docs table.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D001 => "HashMap/HashSet in result-producing code (iteration order leaks)",
            RuleId::D002 => "entropy-seeded RNG outside sd-bench (thread_rng, from_entropy, …)",
            RuleId::D003 => "wall-clock time (Instant/SystemTime) in compute paths",
            RuleId::D004 => {
                "thread spawn outside the approved parallel_map preallocated-slot idiom"
            }
            RuleId::P001 => {
                "unwrap/expect/panic!/unreachable! in non-test library code (ratcheted)"
            }
            RuleId::P002 => "assert!/assert_eq!/assert_ne! in non-test library code (ratcheted)",
            RuleId::U001 => "unsafe code in an sd-* crate",
            RuleId::A000 => "malformed sd-lint allow directive",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, anchored to a workspace-relative `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// How to fix it (or how to escape it, for justified exceptions).
    pub suggestion: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}\n    suggestion: {}",
            self.file, self.line, self.col, self.rule, self.message, self.suggestion
        )
    }
}

/// Sorts diagnostics into the stable reporting order (file, line, col,
/// rule) — the lint's own output must be deterministic.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(RuleId::parse(rule.as_str()), Some(rule));
        }
        assert_eq!(RuleId::parse("A000"), None, "A000 cannot be allowed away");
        assert_eq!(RuleId::parse("D999"), None);
    }

    #[test]
    fn display_is_clickable() {
        let d = Diagnostic {
            rule: RuleId::D001,
            file: "crates/stats/src/grid.rs".into(),
            line: 231,
            col: 12,
            message: "HashMap in a result path".into(),
            suggestion: "use BTreeMap".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("crates/stats/src/grid.rs:231:12: D001 "));
        assert!(s.contains("suggestion: use BTreeMap"));
    }
}
