//! P001 and P002: panic hygiene in non-test library code.
//!
//! The ROADMAP's north star is a long-lived sharded service; a panic there
//! is shard death, not a stack trace in a terminal. Library code must
//! surface failure as structured errors (`FrameworkError` and friends).
//! P001 counts `unwrap`/`expect`/`panic!`/`unreachable!`; P002 counts the
//! panics hidden in `assert!`/`assert_eq!`/`assert_ne!` (`debug_assert*`
//! is compiled out of release builds and not counted). Existing debt of
//! both is tolerated through the ratcheting baseline
//! (`lint-baseline.json`): counts may only go down.

use super::RuleInput;
use crate::diagnostics::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};

pub(super) fn check(input: RuleInput<'_>, diags: &mut Vec<Diagnostic>) {
    let tokens = &input.lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || input.ctx.in_test(t.line) {
            continue;
        }
        let name = t.text.as_str();
        let finding: Option<(RuleId, String, &str)> = match name {
            // Methods: only in receiver position (`.unwrap()`), so local
            // functions that happen to share the name do not fire.
            "unwrap" | "expect" if is_method_call(tokens, i) => Some((
                RuleId::P001,
                format!("`.{name}()` panics on the error path"),
                "return a structured error (`?`, `ok_or_else`, a FrameworkError \
                 variant) or restructure so the failure case cannot exist",
            )),
            // Macros: `panic!(…)`, `unreachable!(…)`.
            "panic" | "unreachable" if is_macro_bang(tokens, i) => Some((
                RuleId::P001,
                format!("`{name}!` in non-test library code"),
                "convert to a structured error variant; if the arm is provably \
                 dead, prefer restructuring the types over asserting at runtime",
            )),
            // `assert!(…)`, `assert_eq!(…)`, `assert_ne!(…)`.
            "assert" | "assert_eq" | "assert_ne" if is_macro_bang(tokens, i) => Some((
                RuleId::P002,
                format!("`{name}!` panics in non-test library code"),
                "return a structured error when a caller's input can fail the \
                 check; keep an internal invariant as `debug_assert!`",
            )),
            _ => None,
        };
        if let Some((rule, message, suggestion)) = finding {
            diags.push(Diagnostic {
                rule,
                file: input.file.to_string(),
                line: t.line,
                col: t.col,
                message,
                suggestion: suggestion.to_string(),
            });
        }
    }
}

fn is_method_call(tokens: &[Token], i: usize) -> bool {
    i > 0 && tokens[i - 1].kind == TokenKind::Punct && tokens[i - 1].text == "."
}

fn is_macro_bang(tokens: &[Token], i: usize) -> bool {
    tokens
        .get(i + 1)
        .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!")
}
