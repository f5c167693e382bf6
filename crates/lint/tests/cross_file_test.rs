//! Workspace-level behaviour through the real binary: cross-file rules
//! that no per-file pass can express, ordering stability, the baseline
//! gate, `--fix` idempotence, the machine-readable rule catalog, and
//! lexer edge cases that would otherwise produce phantom findings.

mod common;

use std::path::Path;
use std::process::{Command, Output};

use common::Scratch;

fn lint(args: &[&str], paths: &[&Path]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_asan-lint"));
    cmd.arg("check").args(args);
    for p in paths {
        cmd.arg(p);
    }
    cmd.output().expect("spawn asan-lint")
}

/// Diagnostics come out sorted by (path, line, column, rule) and paths
/// are workspace-relative — byte-identical across runs.
#[test]
fn output_is_stable_and_workspace_relative() {
    let dir = Scratch::new("stable");
    std::fs::write(
        dir.join("b.rs"),
        "pub fn b() { let t = std::time::Instant::now(); let _ = t; }\n",
    )
    .expect("write");
    std::fs::write(
        dir.join("a.rs"),
        "pub fn a() { let t = std::time::Instant::now(); let _ = t; }\n",
    )
    .expect("write");
    let args = [
        "--root",
        dir.to_str().unwrap(),
        "--scope-all",
        "--format",
        "json",
    ];
    let first = lint(&args, &[]);
    let second = lint(&args, &[]);
    assert_eq!(first.stdout, second.stdout, "output must be deterministic");
    let stdout = String::from_utf8_lossy(&first.stdout);
    let a = stdout.find("\"file\": \"a.rs\"").expect("a.rs finding");
    let b = stdout.find("\"file\": \"b.rs\"").expect("b.rs finding");
    assert!(a < b, "findings must sort by path\n{stdout}");
    assert!(
        !stdout.contains(dir.to_str().unwrap()),
        "paths must be workspace-relative, not absolute\n{stdout}"
    );
}

/// `--write-baseline` then `--baseline` turns a dirty tree green while
/// still catching anything new.
#[test]
fn baseline_gates_only_new_findings() {
    let dir = Scratch::new("baseline");
    std::fs::write(
        dir.join("old.rs"),
        "pub fn old() { let t = std::time::Instant::now(); let _ = t; }\n",
    )
    .expect("write");
    let baseline = dir.join("lint-baseline.tsv");
    let out = lint(
        &[
            "--root",
            dir.to_str().unwrap(),
            "--scope-all",
            "--write-baseline",
            baseline.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "--write-baseline exits 0");
    // Baselined: the same findings no longer fail the gate.
    let out = lint(
        &[
            "--root",
            dir.to_str().unwrap(),
            "--scope-all",
            "--baseline",
            baseline.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "baselined findings must pass");
    // A new finding still fails.
    std::fs::write(
        dir.join("new.rs"),
        "pub fn fresh() { let t = std::time::Instant::now(); let _ = t; }\n",
    )
    .expect("write");
    let out = lint(
        &[
            "--root",
            dir.to_str().unwrap(),
            "--scope-all",
            "--baseline",
            baseline.to_str().unwrap(),
            "--format",
            "json",
        ],
        &[],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "new finding must fail\n{stdout}"
    );
    assert!(
        stdout.contains("new.rs") && !stdout.contains("old.rs"),
        "only the new finding is reported\n{stdout}"
    );
}

/// `check --fix` removes dead allows and rewrites HashMap→BTreeMap;
/// running it twice produces no further edits (idempotent).
#[test]
fn fix_is_idempotent() {
    let dir = Scratch::new("fix");
    let file = dir.join("core").join("mod.rs");
    std::fs::create_dir_all(file.parent().unwrap()).expect("mkdir");
    std::fs::write(
        &file,
        "// asan-lint: allow(no-wall-clock)\n\
         use std::collections::HashMap;\n\
         pub fn table() -> HashMap<u64, u64> {\n\
         \x20   HashMap::new()\n\
         }\n",
    )
    .expect("write");
    let args = ["--root", dir.to_str().unwrap(), "--scope-all", "--fix"];
    let out = lint(&args, &[]);
    assert_eq!(out.status.code(), Some(0), "fixed tree must be clean");
    let fixed = std::fs::read_to_string(&file).expect("read back");
    assert!(
        !fixed.contains("asan-lint: allow") && !fixed.contains("HashMap"),
        "fix must remove the dead allow and rewrite the map type\n{fixed}"
    );
    assert!(fixed.contains("BTreeMap"), "rewrite keeps the use\n{fixed}");
    let out = lint(&args, &[]);
    assert_eq!(out.status.code(), Some(0));
    let again = std::fs::read_to_string(&file).expect("read back");
    assert_eq!(fixed, again, "second --fix must be a no-op");
}

/// A lazily built cache (`OnceCell`) is interior mutability too: it is
/// denied on a type two engines reach, and allowed on a type only one
/// engine (or no engine, like the cluster-owned fabric) holds.
#[test]
fn once_cell_shared_by_two_engines_is_denied() {
    let dir = Scratch::new("once-cell");
    std::fs::write(
        dir.join("routes.rs"),
        "pub struct Routes {\n\
         \x20   pub rows: Vec<OnceCell<Box<[u32]>>>,\n\
         }\n",
    )
    .expect("write");
    std::fs::write(
        dir.join("engines.rs"),
        "pub struct IngressEngine { pub routes: Routes }\n\
         pub struct EgressEngine { pub routes: Routes }\n",
    )
    .expect("write");
    let run = || {
        let out = lint(
            &[
                "--root",
                dir.to_str().unwrap(),
                "--scope-all",
                "--format",
                "json",
            ],
            &[],
        );
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, stdout) = run();
    assert_eq!(code, Some(1), "shared OnceCell must be caught\n{stdout}");
    assert!(
        stdout.contains("\"rule\": \"domain-isolation\"") && stdout.contains("`OnceCell`"),
        "the finding names the wrapper\n{stdout}"
    );
    std::fs::write(
        dir.join("engines.rs"),
        "pub struct IngressEngine { pub routes: Routes }\n\
         pub struct EgressEngine { pub seen: u64 }\n",
    )
    .expect("write");
    let (code, stdout) = run();
    assert_eq!(code, Some(0), "one owner is fine\n{stdout}");
}

/// The machine-readable catalog is pinned: exact names, scopes, and
/// provenance. Any drift is a deliberate, reviewed change to this test.
#[test]
fn rule_catalog_json_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_asan-lint"))
        .args(["--list-rules", "--format", "json"])
        .output()
        .expect("spawn asan-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"catalog_version\": 4"),
        "catalog version pins the vocabulary\n{stdout}"
    );
    for (name, since, analysis) in [
        ("no-unordered-iteration", 3, "file"),
        ("no-wall-clock", 3, "file"),
        ("no-ambient-randomness", 3, "file"),
        ("lossy-model-cast", 3, "file"),
        ("no-hot-path-clone", 5, "file"),
        ("no-unit-mixing", 8, "file"),
        ("domain-isolation", 8, "workspace"),
        ("unused-allow", 8, "workspace"),
    ] {
        assert!(
            stdout.contains(&format!("\"name\": \"{name}\"")),
            "catalog must list {name}\n{stdout}"
        );
        let entry = stdout
            .split("\"name\": \"")
            .find(|s| s.starts_with(name))
            .unwrap();
        let entry = &entry[..entry.find('}').unwrap_or(entry.len())];
        assert!(
            entry.contains(&format!("\"since_pr\": {since}")),
            "{name}: since_pr must be {since}\n{entry}"
        );
        assert!(
            entry.contains(&format!("\"analysis\": \"{analysis}\"")),
            "{name}: analysis must be {analysis}\n{entry}"
        );
        assert!(
            entry.contains("\"severity\": \"deny\""),
            "{name}: all rules are deny-level\n{entry}"
        );
        assert!(entry.contains("\"scope\": \""), "{name}: scope present");
    }
    assert_eq!(
        stdout.matches("\"name\": \"").count(),
        8,
        "exactly eight rules\n{stdout}"
    );
}

/// Lexer edge cases, end to end: tokens that *look* like findings but
/// live inside raw strings, byte strings, nested block comments, or
/// lifetime syntax must not produce diagnostics.
#[test]
fn lexer_edge_cases_produce_no_phantom_findings() {
    let dir = Scratch::new("lexer-edge");
    std::fs::write(
        dir.join("edges.rs"),
        "pub fn raw() -> &'static str {\n\
         \x20   r##\"use std::collections::HashMap; # \"# Instant::now()\"##\n\
         }\n\
         pub fn bytes() -> (&'static [u8], &'static [u8]) {\n\
         \x20   (b\"thread_rng()\", br#\"static mut X: u8 = 0;\"#)\n\
         }\n\
         /* outer /* HashMap::new() */ still comment */\n\
         pub struct Holder<'a>(pub &'a str);\n\
         pub fn life<'x>(h: Holder<'x>) -> char {\n\
         \x20   let c: char = 'h';\n\
         \x20   let _ = h;\n\
         \x20   c\n\
         }\n",
    )
    .expect("write");
    let out = lint(
        &[
            "--root",
            dir.to_str().unwrap(),
            "--scope-all",
            "--format",
            "json",
        ],
        &[],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "no phantom findings\n{stdout}");
    assert!(stdout.contains("\"violations\": 0"), "clean\n{stdout}");

    // A nested block comment left open at EOF must not crash the lexer
    // (everything after the opener is comment; the file scans clean).
    std::fs::write(
        dir.join("edges.rs"),
        "pub fn ok() {}\n/* dangling /* nested */ never closed\n",
    )
    .expect("write");
    let out = lint(
        &[
            "--root",
            dir.to_str().unwrap(),
            "--scope-all",
            "--format",
            "json",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "unterminated comment tolerated");
}
