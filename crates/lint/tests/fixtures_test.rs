//! End-to-end fixture tests: each rule has a known-bad fixture that
//! must fail and a corrected twin that must pass, asserted through the
//! real binary's `--format json` output so the CLI surface (flags,
//! exit codes, JSON shape) is under test too.

mod common;

use std::path::PathBuf;
use std::process::{Command, Output};

use common::Scratch;

/// The eight rules and their fixture basenames.
const RULES: [&str; 8] = [
    "no-unordered-iteration",
    "no-wall-clock",
    "no-ambient-randomness",
    "lossy-model-cast",
    "no-hot-path-clone",
    "no-unit-mixing",
    "domain-isolation",
    "unused-allow",
];

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs `asan-lint check --scope-all --format json` on one file.
fn lint_json(file: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asan-lint"))
        .args(["check", "--scope-all", "--format", "json"])
        .arg(file)
        .output()
        .expect("spawn asan-lint")
}

#[test]
fn every_rule_fails_its_bad_fixture() {
    for rule in RULES {
        let file = fixture(&format!("{}_bad.rs", rule.replace('-', "_")));
        let out = lint_json(&file);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{rule}: bad fixture must exit 1\n{stdout}"
        );
        assert!(
            stdout.contains(&format!("\"rule\": \"{rule}\"")),
            "{rule}: JSON must name the rule\n{stdout}"
        );
        assert!(
            stdout.contains("\"severity\": \"deny\""),
            "{rule}: finding must be deny-level\n{stdout}"
        );
    }
}

#[test]
fn every_rule_passes_its_corrected_twin() {
    for rule in RULES {
        let file = fixture(&format!("{}_good.rs", rule.replace('-', "_")));
        let out = lint_json(&file);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{rule}: corrected twin must exit 0\n{stdout}"
        );
        assert!(
            stdout.contains("\"violations\": 0"),
            "{rule}: corrected twin must be clean\n{stdout}"
        );
    }
}

#[test]
fn allow_comment_is_an_escape_hatch() {
    // The bad wall-clock fixture becomes clean when every finding line
    // carries an allow; simplest probe: a copy with a file built here.
    let dir = Scratch::new("allow-test");
    let file = dir.join("allowed.rs");
    std::fs::write(
        &file,
        "use std::time::Instant; // asan-lint: allow(no-wall-clock)\n\
         // asan-lint: allow(no-wall-clock)\n\
         pub fn t() -> Instant { Instant::now() }\n",
    )
    .expect("write");
    let out = lint_json(&file);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "allows must suppress\n{stdout}");
}

#[test]
fn exit_code_contract() {
    // 0: clean input (a corrected twin) — covered above.
    // 1: violations — covered above.
    // 0 + stderr note: a *vanished* named path is skipped, not fatal,
    // so `check --paths $(git diff --name-only)` tolerates deletions.
    let out = lint_json(&fixture("does_not_exist.rs"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "vanished named path must be skipped with exit 0"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("skipping") || stderr.contains("no checkable files"),
        "vanished path must be noted on stderr\n{stderr}"
    );
    // 2: internal error (path exists but cannot be read as a file).
    let dir = Scratch::new("unreadable-test");
    let bogus = dir.join("directory_named_like_a_file.rs");
    std::fs::create_dir_all(&bogus).expect("mkdir");
    let out = lint_json(&bogus);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unreadable existing path must exit 2"
    );
    // 2: bad arguments.
    let out = Command::new(env!("CARGO_BIN_EXE_asan-lint"))
        .args(["check", "--format", "yaml"])
        .output()
        .expect("spawn asan-lint");
    assert_eq!(out.status.code(), Some(2), "bad --format must exit 2");
    let out = Command::new(env!("CARGO_BIN_EXE_asan-lint"))
        .args(["frobnicate"])
        .output()
        .expect("spawn asan-lint");
    assert_eq!(out.status.code(), Some(2), "unknown command must exit 2");
}

#[test]
fn help_documents_the_contract() {
    let out = Command::new(env!("CARGO_BIN_EXE_asan-lint"))
        .arg("--help")
        .output()
        .expect("spawn asan-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "EXIT CODES",
        "0    clean",
        "1    one or more",
        "2    internal error",
    ] {
        assert!(stdout.contains(needle), "--help must document: {needle}");
    }
}

#[test]
fn human_format_names_file_and_line() {
    let file = fixture("no_wall_clock_bad.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_asan-lint"))
        .args(["check", "--scope-all", "--format", "human"])
        .arg(&file)
        .output()
        .expect("spawn asan-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout.contains("deny[no-wall-clock]") && stdout.contains("no_wall_clock_bad.rs:"),
        "human format must carry rule + file:line\n{stdout}"
    );
}

#[test]
fn list_rules_covers_the_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_asan-lint"))
        .arg("--list-rules")
        .output()
        .expect("spawn asan-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in RULES {
        assert!(stdout.contains(rule), "--list-rules must include {rule}");
    }
}
