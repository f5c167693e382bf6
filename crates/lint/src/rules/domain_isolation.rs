//! Rule `domain-isolation`: no shared mutable state between engine
//! domains.
//!
//! ROADMAP item 2 (the parallel simulation core) partitions the event
//! loop by engine: each engine's state must be movable to its own
//! worker without hidden channels. Three things defeat that
//! partitioning and all three lex innocently in a single file:
//!
//! 1. process-wide mutable state (`static mut`, `thread_local!`),
//! 2. ad-hoc threading primitives outside the blessed worker pool
//!    (`std::sync::*`, `std::thread::*` anywhere but
//!    `asan-bench::pool`),
//! 3. interior mutability (`Rc`, `RefCell`, `Cell`, `OnceCell`) on a
//!    type that two different engines can reach through their fields —
//!    aliased mutation across the future thread boundary. (The fabric's
//!    lazily built routing rows are `OnceCell`s; the fabric is owned by
//!    the cluster and lent to engines per event, never a field of one.)
//!
//! Items 1–2 are token checks over every file; item 3 runs a
//! reachability walk over the phase-1 index: seed at every
//! `*Engine` struct, close over field-type identifiers, and deny any
//! type reached from two or more engines that carries an
//! interior-mutability wrapper in a field type.

use std::collections::{BTreeMap, BTreeSet};

use super::WorkspaceRule;
use crate::diag::{Diagnostic, Severity};
use crate::index::WorkspaceIndex;
use crate::lexer::Kind;

/// The one module allowed to touch `std::sync` / `std::thread`: the
/// bench harness's worker pool, which never runs inside a simulation.
const BLESSED: &str = "crates/bench/src/pool.rs";

/// Interior-mutability wrappers that alias mutation across engines.
const SHARED_MUT: &[&str] = &["Rc", "RefCell", "Cell", "OnceCell"];

pub(crate) struct DomainIsolation;

impl WorkspaceRule for DomainIsolation {
    fn name(&self) -> &'static str {
        "domain-isolation"
    }

    fn describe(&self) -> &'static str {
        "no static mut/thread_local, no std::sync|thread outside bench::pool, no Rc/RefCell/Cell/OnceCell on state shared by >1 engine"
    }

    fn scope(&self) -> &'static str {
        "workspace (std::sync/std::thread allowed only in crates/bench/src/pool.rs)"
    }

    fn since_pr(&self) -> u32 {
        8
    }

    fn check(&self, index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        self.check_ambient_state(index, out);
        self.check_shared_interior_mut(index, out);
    }
}

impl DomainIsolation {
    /// Items 1–2: token scan for process-wide state and stray
    /// threading primitives.
    fn check_ambient_state(&self, index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        for file in &index.files {
            if file.rel_path == BLESSED {
                continue;
            }
            let toks = &file.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != Kind::Ident {
                    continue;
                }
                match t.text.as_str() {
                    "static" if super::is_ident(toks, i + 1, "mut") => {
                        out.push(
                            self.deny(
                                file,
                                t.line,
                                t.col,
                                "`static mut` is process-wide mutable state; engine state \
                             must live in the engine struct so the parallel core can \
                             move it to a worker"
                                    .to_string(),
                            ),
                        );
                    }
                    "thread_local" if super::is_punct(toks, i + 1, "!") => {
                        out.push(
                            self.deny(
                                file,
                                t.line,
                                t.col,
                                "`thread_local!` pins state to whichever thread runs the \
                             engine; store it in the engine struct instead"
                                    .to_string(),
                            ),
                        );
                    }
                    "std" if super::is_punct(toks, i + 1, "::") => {
                        let Some(seg) = toks.get(i + 2) else { continue };
                        if seg.kind == Kind::Ident && (seg.text == "sync" || seg.text == "thread") {
                            out.push(self.deny(
                                file,
                                t.line,
                                t.col,
                                format!(
                                    "`std::{}` outside `asan-bench::pool`: simulation \
                                     code must not spawn or synchronize threads; \
                                     cross-engine traffic goes through the event bus",
                                    seg.text
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Item 3: interior mutability on types reachable from more than
    /// one engine.
    fn check_shared_interior_mut(&self, index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        let by_name = index.structs_by_name();
        // Seed the walk at every `*Engine` struct, then close over the
        // identifiers in field (and tuple newtype) types. Type names
        // are matched workspace-wide by bare name — coarse, but
        // collisions only widen the net, and findings anchor at real
        // field declarations.
        let mut reached_by: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for root in by_name.keys().filter(|n| n.ends_with("Engine")) {
            let mut stack = vec![*root];
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            while let Some(ty) = stack.pop() {
                if !seen.insert(ty) {
                    continue;
                }
                reached_by.entry(ty).or_default().insert(*root);
                let Some(defs) = by_name.get(ty) else {
                    continue;
                };
                for (_, s) in defs {
                    for id in s
                        .fields
                        .iter()
                        .flat_map(|f| f.ty.iter())
                        .chain(s.tuple_ty.iter())
                    {
                        if by_name.contains_key(id.as_str()) {
                            stack.push(id.as_str());
                        }
                    }
                }
            }
        }

        for (ty, roots) in &reached_by {
            if roots.len() < 2 {
                continue;
            }
            let Some(defs) = by_name.get(ty) else {
                continue;
            };
            for (fi, s) in defs {
                let file = &index.files[*fi];
                for f in &s.fields {
                    let Some(w) = SHARED_MUT.iter().find(|w| f.ty.iter().any(|t| t == **w)) else {
                        continue;
                    };
                    let owners: Vec<&str> = roots.iter().copied().collect();
                    out.push(self.deny(
                        file,
                        f.line,
                        f.col,
                        format!(
                            "field `{}.{}` wraps state in `{w}`, and `{}` is reachable \
                             from {} engines ({}); shared interior mutability aliases \
                             across the future engine/thread boundary — own the data \
                             in one engine and communicate through events",
                            ty,
                            f.name,
                            ty,
                            owners.len(),
                            owners.join(", "),
                        ),
                    ));
                }
            }
        }
    }

    fn deny(
        &self,
        file: &crate::index::FileIndex,
        line: u32,
        col: u32,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule: self.name(),
            severity: Severity::Deny,
            file: file.rel_path.clone(),
            line,
            col,
            message,
        }
    }
}
