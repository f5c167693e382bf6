//! `asan-lint` — the workspace's static determinism checker.
//!
//! The golden-digest regression (`tests/golden.rs`) proves after the
//! fact that a change kept all benchmarks bit-identical; this crate is
//! the *before* layer: a static pass over every `.rs` file that
//! rejects the constructs which historically cause digest drift —
//! unordered map iteration, wall-clock reads, ambient randomness,
//! silently truncating casts — plus the structural contract the
//! parallel-core refactor leans on (engine domains share no mutable
//! state).
//!
//! # How a run works
//!
//! The analyzer is two-phase:
//!
//! 1. **Index.** Every `.rs` file under the workspace root (plus any
//!    explicitly passed paths) is lexed once and folded into a
//!    [`index::WorkspaceIndex`]: per file, the `struct` definitions
//!    with field-type identifiers. The index is cheap — one lex plus a
//!    linear item scan per file — and it is *always* built over the
//!    whole workspace, even when only a subset of files is being
//!    reported on. That is what makes
//!    `check --paths $(git diff --name-only ...)` sound: a changed
//!    file is judged with full cross-file context, and only the
//!    *reporting* is narrowed.
//! 2. **Check.** Per-file rules ([`rules::Rule`]) run over each file's
//!    tokens; workspace rules ([`rules::WorkspaceRule`]) run once over
//!    the index. The driver then does the bookkeeping no rule can:
//!    `// asan-lint: allow(<rule>)` directives suppress findings on
//!    their own and the following line, and any directive that
//!    suppressed *nothing* (or names an unknown rule) becomes an
//!    `unused-allow` finding of its own — the escape-hatch inventory
//!    can only shrink. Finally diagnostics are filtered (`--paths`,
//!    `--diff-base`, `--baseline`) and sorted by (path, line, column,
//!    rule) so two runs over the same tree byte-diff cleanly.
//!
//! The container this workspace builds in has no crates.io access, so
//! the pass is built on a small in-tree lexer ([`lexer`]) rather than
//! `syn`; see `docs/DETERMINISM.md` for the rule catalog and the
//! `// asan-lint: allow(<rule>)` escape hatch.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

pub mod diag;
pub mod fix;
pub mod index;
pub mod lexer;
pub mod rules;

pub use diag::{render_human, render_json, Diagnostic, Severity, Summary};

use index::WorkspaceIndex;
use rules::FileCtx;

/// What to check and how.
#[derive(Debug, Default)]
pub struct Options {
    /// Workspace root (where `Cargo.toml` and `crates/` live).
    pub root: PathBuf,
    /// Report only on these files. The whole workspace is still
    /// indexed for cross-file context; empty means report on
    /// everything.
    pub paths: Vec<PathBuf>,
    /// Apply every rule to every file, ignoring per-rule path scopes
    /// (used by the fixture tests).
    pub scope_all: bool,
    /// Known-findings file (`rule<TAB>file<TAB>message` lines);
    /// matching findings are reported as baselined, not violations.
    pub baseline: Option<PathBuf>,
    /// Report only on files changed since this git ref.
    pub diff_base: Option<String>,
}

/// A finished run: what was checked and what was found.
#[derive(Debug)]
pub struct Report {
    /// Files that were lexed and checked.
    pub checked_files: usize,
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings matched and swallowed by `--baseline`.
    pub baselined: usize,
}

impl Report {
    /// Number of `Deny` findings (the exit-code driver).
    pub fn violations(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of findings `check --fix` can rewrite mechanically.
    pub fn fixable(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| fix::is_fixable(d))
            .count()
    }

    /// The run-level counters for rendering.
    pub fn summary(&self) -> Summary {
        Summary {
            checked_files: self.checked_files,
            catalog_version: rules::CATALOG_VERSION,
            baselined: self.baselined,
            fixable: self.fixable(),
        }
    }
}

/// Runs the checker. `Err` means an internal error (unreadable file),
/// not a lint finding.
pub fn run(opts: &Options) -> Result<Report, String> {
    // Phase 1: index the workspace walk plus any explicit paths,
    // deduplicated, sorted by relative path.
    let mut walked = Vec::new();
    walk(&opts.root, &mut walked);
    let mut files: BTreeMap<String, PathBuf> = walked
        .into_iter()
        .map(|p| (rel_path(&opts.root, &p), p))
        .collect();
    let mut requested: Vec<String> = Vec::new();
    for p in &opts.paths {
        let rel = rel_path(&opts.root, p);
        requested.push(rel.clone());
        files.entry(rel).or_insert_with(|| p.clone());
    }
    let mut lexed_files = Vec::with_capacity(files.len());
    for (rel, path) in &files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        lexed_files.push((rel.clone(), lexer::lex(&src)));
    }
    let index = WorkspaceIndex::build(lexed_files);

    // Phase 2: per-file rules, workspace rules, then driver
    // bookkeeping (allow suppression and the unused-allow audit).
    let raw = analyze(&index, opts.scope_all);
    let mut diagnostics = suppress_and_audit(&index, raw);

    // Narrow the *report* (never the analysis) to the requested files.
    let checked_files = if requested.is_empty() {
        files.len()
    } else {
        let keep: BTreeSet<&str> = requested.iter().map(String::as_str).collect();
        diagnostics.retain(|d| keep.contains(d.file.as_str()));
        requested.len()
    };
    if let Some(base) = &opts.diff_base {
        let changed = git_changed_files(&opts.root, base)?;
        diagnostics.retain(|d| changed.contains(d.file.as_str()));
    }

    // Baseline: swallow known findings (matched by rule + file +
    // message, deliberately line-insensitive so unrelated edits above
    // a baselined finding do not un-baseline it).
    let mut baselined = 0usize;
    if let Some(path) = &opts.baseline {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        let mut known: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let mut parts = line.splitn(3, '\t');
            let (Some(r), Some(f), Some(m)) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!(
                    "malformed baseline line (want rule<TAB>file<TAB>message): {line:?}"
                ));
            };
            *known
                .entry((r.to_string(), f.to_string(), m.to_string()))
                .or_default() += 1;
        }
        diagnostics.retain(|d| {
            let key = (d.rule.to_string(), d.file.clone(), d.message.clone());
            if let Some(n) = known.get_mut(&key) {
                if *n > 0 {
                    *n -= 1;
                    baselined += 1;
                    return false;
                }
            }
            true
        });
    }

    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    Ok(Report {
        checked_files,
        diagnostics,
        baselined,
    })
}

/// One line of the `--write-baseline` format for a finding.
pub fn baseline_line(d: &Diagnostic) -> String {
    format!("{}\t{}\t{}", d.rule, d.file, d.message)
}

/// Runs every rule over the index; returns raw (pre-suppression)
/// findings.
fn analyze(index: &WorkspaceIndex, scope_all: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let file_rules = rules::all_rules();
    for file in &index.files {
        let ctx = FileCtx {
            rel_path: &file.rel_path,
            lexed: &file.lexed,
        };
        for rule in &file_rules {
            if !scope_all && !rule.applies(&file.rel_path) {
                continue;
            }
            rule.check(&ctx, &mut out);
        }
    }
    for rule in rules::workspace_rules() {
        rule.check(index, &mut out);
    }
    out
}

/// Applies `// asan-lint: allow(..)` suppression and emits the
/// `unused-allow` audit: every directive must suppress at least one
/// finding and name only catalog rules. `unused-allow` findings are
/// not themselves suppressible.
fn suppress_and_audit(index: &WorkspaceIndex, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let catalog_names: BTreeSet<&str> = rules::catalog().iter().map(|e| e.name).collect();
    let file_of: BTreeMap<&str, &index::FileIndex> = index
        .files
        .iter()
        .map(|f| (f.rel_path.as_str(), f))
        .collect();
    // used[rel_path] = one flag per allow directive in that file.
    let mut used: BTreeMap<&str, Vec<bool>> = index
        .files
        .iter()
        .map(|f| (f.rel_path.as_str(), vec![false; f.lexed.allows.len()]))
        .collect();

    let mut kept = Vec::with_capacity(raw.len());
    for d in raw {
        let Some(file) = file_of.get(d.file.as_str()) else {
            kept.push(d);
            continue;
        };
        let mut suppressed = false;
        for (ai, a) in file.lexed.allows.iter().enumerate() {
            let in_range = a.line == d.line || a.line + 1 == d.line;
            if in_range && a.rules.iter().any(|r| r == d.rule || r == "all") {
                suppressed = true;
                used.get_mut(d.file.as_str()).expect("indexed file")[ai] = true;
            }
        }
        if !suppressed {
            kept.push(d);
        }
    }

    for file in &index.files {
        let flags = &used[file.rel_path.as_str()];
        for (ai, a) in file.lexed.allows.iter().enumerate() {
            let unknown: Vec<&str> = a
                .rules
                .iter()
                .map(String::as_str)
                .filter(|r| *r != "all" && !catalog_names.contains(r))
                .collect();
            if !unknown.is_empty() {
                kept.push(Diagnostic {
                    rule: rules::UNUSED_ALLOW,
                    severity: Severity::Deny,
                    file: file.rel_path.clone(),
                    line: a.line,
                    col: 0,
                    message: format!(
                        "allow directive names unknown rule(s) {}; see `--list-rules` \
                         for the catalog",
                        unknown
                            .iter()
                            .map(|r| format!("`{r}`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                });
            } else if !flags[ai] {
                kept.push(Diagnostic {
                    rule: rules::UNUSED_ALLOW,
                    severity: Severity::Deny,
                    file: file.rel_path.clone(),
                    line: a.line,
                    col: 0,
                    message: format!(
                        "`// asan-lint: allow({})` suppresses nothing on this or the \
                         next line; delete it (`check --fix` does) so the escape-hatch \
                         inventory stays honest",
                        a.rules.join(", "),
                    ),
                });
            }
        }
    }
    kept
}

/// Files changed since `base`, as workspace-relative paths.
fn git_changed_files(root: &Path, base: &str) -> Result<BTreeSet<String>, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--name-only", base])
        .output()
        .map_err(|e| format!("cannot run git diff: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git diff --name-only {base} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect())
}

/// Workspace-relative display path with `/` separators.
fn rel_path(root: &Path, file: &Path) -> String {
    let canonical = file.canonicalize();
    let file = canonical.as_deref().unwrap_or(file);
    let root_canonical = root.canonicalize();
    let root = root_canonical.as_deref().unwrap_or(root);
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Directories never scanned: build output, VCS, and the lint's own
/// known-bad fixture corpus.
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | "fixtures") || name.starts_with('.')
}

/// Recursively collects `.rs` files under `dir`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skip_dir(&name) {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_snippet(rel: &str, src: &str, scope_all: bool) -> Vec<Diagnostic> {
        let index = WorkspaceIndex::build(vec![(rel.to_string(), lexer::lex(src))]);
        suppress_and_audit(&index, analyze(&index, scope_all))
    }

    #[test]
    fn hashmap_denied_in_core_but_not_bench() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check_snippet("crates/core/src/x.rs", src, false).len(), 1);
        assert!(check_snippet("crates/bench/src/x.rs", src, false).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_and_counts_as_used() {
        let src = "use std::collections::HashMap; // asan-lint: allow(no-unordered-iteration)\n";
        assert!(check_snippet("crates/core/src/x.rs", src, false).is_empty());
    }

    #[test]
    fn unused_allow_is_itself_a_finding() {
        let src = "// asan-lint: allow(no-wall-clock)\nfn quiet() {}\n";
        let d = check_snippet("crates/core/src/x.rs", src, false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unused-allow");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn allow_naming_unknown_rule_is_flagged() {
        let src = "// asan-lint: allow(no-wall-clok)\nfn quiet() {}\n";
        let d = check_snippet("crates/core/src/x.rs", src, false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unused-allow");
        assert!(d[0].message.contains("no-wall-clok"));
    }

    #[test]
    fn wall_clock_denied_outside_benches() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(check_snippet("crates/cpu/src/x.rs", src, false).len(), 2);
        assert_eq!(check_snippet("crates/bench/src/x.rs", src, false).len(), 2);
    }

    #[test]
    fn randomness_denied_everywhere() {
        let src = "fn f() { let x = rand::random::<u64>(); }\n";
        assert_eq!(
            check_snippet("crates/bench/benches/x.rs", src, false).len(),
            1
        );
    }

    #[test]
    fn lossy_cast_on_model_quantity() {
        let src = "fn f(total_cycles: u64) -> u32 { total_cycles as u32 }\n";
        assert_eq!(check_snippet("crates/cpu/src/x.rs", src, false).len(), 1);
        // Widening is fine.
        let ok = "fn f(total_cycles: u32) -> u64 { u64::from(total_cycles) }\n";
        assert!(check_snippet("crates/cpu/src/x.rs", ok, false).is_empty());
    }
}
