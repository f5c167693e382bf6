//! Rule `no-wall-clock`: simulated time only.
//!
//! The simulator has exactly one clock — `asan_sim::SimTime`, advanced
//! by the scheduler. A model that reads `std::time` couples its
//! behaviour to the machine it runs on, which is invisible until a
//! digest diverges on someone else's laptop. The rule applies to every
//! checked file; the few host-level timing reads (the benchmark's
//! clock, retry backoff) each carry an `allow(no-wall-clock)` waiver.

use super::{is_ident, is_punct, FileCtx, Rule};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::Kind;

pub(crate) struct NoWallClock;

impl Rule for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn describe(&self) -> &'static str {
        "deny std::time / Instant::now / SystemTime"
    }

    fn scope(&self) -> &'static str {
        "every checked file"
    }

    fn since_pr(&self) -> u32 {
        3
    }

    fn applies(&self, _rel_path: &str) -> bool {
        true
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
        let toks = ctx.tokens();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != Kind::Ident {
                continue;
            }
            let hit = match t.text.as_str() {
                // `std::time` in a use declaration or path.
                "std" => is_punct(toks, i + 1, "::") && is_ident(toks, i + 2, "time"),
                // Any `Instant::...` read (now / elapsed via now).
                "Instant" => is_punct(toks, i + 1, "::"),
                "SystemTime" => true,
                _ => false,
            };
            if hit {
                out.push(Diagnostic {
                    rule: self.name(),
                    severity: Severity::Deny,
                    file: ctx.rel_path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: "wall-clock time read; simulation code must use \
                              `asan_sim::SimTime`"
                        .to_string(),
                });
            }
        }
    }
}
