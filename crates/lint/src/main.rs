//! `asan-lint` CLI. See `--help` for the exit-code contract.

use std::path::PathBuf;
use std::process::ExitCode;

use asan_lint::{diag, fix, render_human, render_json, rules, Options};

const USAGE: &str = "\
asan-lint — determinism checker for the Active SAN workspace

USAGE:
    cargo run -p asan-lint -- check [OPTIONS] [FILES...]

ARGS:
    [FILES...]        Report findings only for these .rs files. The whole
                      workspace is still indexed, so cross-file rules keep
                      full context. Default: report on every .rs file under
                      the workspace root (skipping target/, .git/ and
                      fixture directories). Non-.rs paths are ignored, so
                      `check --paths $(git diff --name-only main)` works.

OPTIONS:
    --format <human|json>   Output format (default: human)
    --root <DIR>            Workspace root (default: current directory)
    --paths                 No-op separator before a file list (readability)
    --scope-all             Apply every rule to every file, ignoring the
                            per-rule crate scopes (used by fixture tests)
    --baseline <FILE>       Swallow findings listed in FILE (one per line:
                            rule<TAB>file<TAB>message); they count as
                            `baselined`, not violations
    --write-baseline <FILE> Write the current findings to FILE in baseline
                            format and exit 0
    --diff-base <REF>       Report only findings in files changed since the
                            git ref REF
    --fix                   Mechanically rewrite fixable findings
                            (unused-allow removal, HashMap->BTreeMap), then
                            re-check and report what remains
    --fix-dry-run           Report what --fix would rewrite, writing nothing
    --fix-dirty             Let --fix touch files with unstaged git changes
    --list-rules            Print the rule catalog and exit (honors --format)
    -h, --help              Print this help

EXIT CODES:
    0    clean — no deny-level findings
    1    one or more deny-level findings
    2    internal error (bad arguments, unreadable file)

Findings can be suppressed per line with a trailing or preceding comment:
    // asan-lint: allow(<rule>[, <rule>...])
Each directive must suppress at least one finding — a stale one is an
`unused-allow` finding itself (and `--fix` deletes it). The rule catalog
lives in docs/DETERMINISM.md.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("asan-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if args.iter().any(|a| a == "--list-rules") {
        let json = args
            .iter()
            .position(|a| a == "--format")
            .and_then(|i| args.get(i + 1))
            .is_some_and(|f| f == "json");
        print!("{}", list_rules(json));
        return Ok(ExitCode::SUCCESS);
    }
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("check") => {}
        Some(other) => return Err(format!("unknown command `{other}` (try --help)")),
        None => return Err("missing command; try `asan-lint check` or --help".to_string()),
    }
    let mut opts = Options {
        root: std::env::current_dir().map_err(|e| e.to_string())?,
        ..Options::default()
    };
    let mut format = "human".to_string();
    let mut write_baseline: Option<PathBuf> = None;
    let mut named_paths = false;
    let mut do_fix = false;
    let mut fix_dry_run = false;
    let mut fix_dirty = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                format = it
                    .next()
                    .ok_or("--format needs a value (human|json)")?
                    .clone();
                if format != "human" && format != "json" {
                    return Err(format!("unknown format `{format}` (human|json)"));
                }
            }
            "--root" => {
                opts.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--scope-all" => opts.scope_all = true,
            "--paths" => {} // separator; the file list follows positionally
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?));
            }
            "--write-baseline" => {
                write_baseline = Some(PathBuf::from(
                    it.next().ok_or("--write-baseline needs a file")?,
                ));
            }
            "--diff-base" => {
                opts.diff_base = Some(it.next().ok_or("--diff-base needs a git ref")?.clone());
            }
            "--fix" => do_fix = true,
            "--fix-dry-run" => fix_dry_run = true,
            "--fix-dirty" => fix_dirty = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option `{flag}` (try --help)"));
            }
            path => {
                // Tolerate non-.rs and vanished paths so a raw
                // `git diff --name-only` file list just works.
                named_paths = true;
                if !path.ends_with(".rs") {
                    continue;
                }
                if std::path::Path::new(path).exists() {
                    opts.paths.push(PathBuf::from(path));
                } else {
                    eprintln!("asan-lint: skipping {path}: no such file (deleted?)");
                }
            }
        }
    }
    if named_paths && opts.paths.is_empty() {
        // Everything the caller named is gone or not Rust; an empty
        // file list is a clean run, not an error, so that a pure
        // deletion/docs diff passes the CI fast pass.
        eprintln!("asan-lint: no checkable files in the given list");
        return Ok(ExitCode::SUCCESS);
    }

    let mut report = asan_lint::run(&opts)?;
    if do_fix || fix_dry_run {
        let outcome = fix::apply(&opts.root, &report.diagnostics, fix_dirty, !do_fix)?;
        for f in &outcome.skipped_dirty {
            eprintln!("asan-lint: skipping {f}: unstaged changes (use --fix-dirty to override)");
        }
        if do_fix {
            eprintln!(
                "asan-lint: fixed {} finding(s) across {} file(s)",
                outcome.edits, outcome.files_fixed
            );
            report = asan_lint::run(&opts)?;
        } else {
            eprintln!(
                "asan-lint: --fix would rewrite {} finding(s) across {} file(s)",
                outcome.edits, outcome.files_fixed
            );
        }
    }
    if let Some(path) = write_baseline {
        let mut text = String::new();
        for d in &report.diagnostics {
            text.push_str(&asan_lint::baseline_line(d));
            text.push('\n');
        }
        std::fs::write(&path, text)
            .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
        eprintln!(
            "asan-lint: wrote {} finding(s) to {}",
            report.diagnostics.len(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let rendered = if format == "json" {
        render_json(&report.diagnostics, &report.summary())
    } else {
        render_human(&report.diagnostics, &report.summary())
    };
    print!("{rendered}");
    Ok(if report.violations() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Renders the rule catalog. The JSON shape is pinned by a golden test
/// in `crates/lint/tests` — changing the rule set means changing that
/// test, which is the point.
fn list_rules(json: bool) -> String {
    let catalog = rules::catalog();
    if !json {
        let mut out = String::new();
        for e in &catalog {
            out.push_str(&format!(
                "{:<24} [{}, since PR {}] {}\n                         scope: {}\n",
                e.name, e.analysis, e.since_pr, e.describe, e.scope
            ));
        }
        return out;
    }
    let mut out = String::from("{\n  \"catalog_version\": ");
    out.push_str(&rules::CATALOG_VERSION.to_string());
    out.push_str(",\n  \"rules\": [");
    for (i, e) in catalog.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": {}, \"severity\": \"deny\", \"scope\": {}, \"since_pr\": {}, \"analysis\": {}}}",
            diag::json_str(e.name),
            diag::json_str(e.scope),
            e.since_pr,
            diag::json_str(e.analysis),
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}
