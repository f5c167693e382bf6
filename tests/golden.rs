//! Golden-digest regression tests. The rows of `asan_apps::catalog`
//! must print the committed digest files byte for byte:
//! [`tests/golden_digests.txt`](golden_digests.txt) pins the nine
//! single-switch paper benchmarks (small inputs, `normal` and `active`),
//! and [`tests/golden_digests_fabric.txt`](golden_digests_fabric.txt)
//! pins the collective reduction on the radix-4 fat tree at 64 hosts
//! under every handler placement, so the tree routes, per-link credit
//! chains and cross-switch handler placement all feed a digest here.
//!
//! The benchmark's five 1024-host runs must match the `fabric-1024` rows
//! of its committed baseline, `crates/benchmark/baseline/set1.json`, and
//! its paper-size database runs must match its `db-offload` rows and the
//! `select` rows of its `chaos` workload.
//! The committed `BENCH_PERF.json` (the `results.json` of a full
//! `asan-benchmark run`) must parse, record no failed operation, and
//! carry the same per-simulation results as that baseline.
//!
//! A mismatch means a change perturbed simulation results: either a
//! bug, or an intentional model change that must regenerate the golden
//! file (the command is in the failure message) and say so in the
//! commit message.

use asan_apps::catalog::{self, Size};
use asan_apps::reduce::{self, Mode, Mode::Distributed, Mode::ReduceToOne};
use asan_apps::{hashjoin, select, AppRun, Variant};
use asan_bench::json::{self, Value};
use asan_bench::run_catalog;
use asan_core::cluster::ClusterConfig;
use asan_core::HandlerPlacement::{self, Nca, Root, Striped};
use asan_sim::faults::FaultPlan;

/// Makes `rows` and asserts that they print `golden` line for line;
/// `regenerate` is the `repro` command line that rewrites the file.
fn assert_golden(golden: &str, rows: Vec<catalog::Run>, regenerate: &str) {
    let produced: String = run_catalog(rows).iter().map(|r| format!("{r}\n")).collect();
    let mismatches: Vec<String> = golden
        .lines()
        .zip(produced.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("golden: {want}\n   got: {got}"))
        .collect();
    assert_eq!(
        golden.lines().count(),
        produced.lines().count(),
        "golden file and produced digests differ in length:\n{produced}"
    );
    assert!(
        mismatches.is_empty(),
        "simulation results changed ({} of {} digests):\n{}\n\nIf intentional, regenerate \
         with `cargo run --release -p asan-bench --bin repro -- {regenerate}` and explain \
         the change.",
        mismatches.len(),
        golden.lines().count(),
        mismatches.join("\n")
    );
}

#[test]
fn stats_digests_match_committed_golden_file() {
    assert_golden(
        include_str!("golden_digests.txt"),
        catalog::golden(Size::Small),
        "--small golden > tests/golden_digests.txt",
    );
}

#[test]
fn fabric_digests_match_committed_golden_file() {
    assert_golden(
        include_str!("golden_digests_fabric.txt"),
        catalog::fabric(),
        "golden-fabric > tests/golden_digests_fabric.txt",
    );
}

/// The benchmark's five `fabric-1024` simulations on a radix-4 fat tree
/// of 1024 hosts, in baseline order: name, mode, active, placement.
const FABRIC_1024: [(&str, Mode, bool, HandlerPlacement); 5] = [
    ("reduce-to-one/host-mst", ReduceToOne, false, Nca),
    ("reduce-to-one/active-root", ReduceToOne, true, Root),
    ("reduce-to-one/active-nca", ReduceToOne, true, Nca),
    ("reduce-to-one/active-striped", ReduceToOne, true, Striped),
    ("distributed-reduce/active-nca", Distributed, true, Nca),
];

/// The benchmark's committed baseline.
const SET1: &str = include_str!("../crates/benchmark/baseline/set1.json");

/// One simulation row of an `asan-benchmark-v1` document: workload,
/// sim name, stats digest, metrics digest, events, simulated `exec_ps`.
type SimRow = (String, String, String, String, u64, u64);

/// The workload sections (one per round and workload) of an
/// `asan-benchmark-v1` document.
fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads array")
}

/// The simulation rows of one workload section, in document order.
fn section_rows(w: &Value) -> Vec<SimRow> {
    let text = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string {key}"))
            .to_string()
    };
    let num = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("missing number {key}"))
    };
    let sims = w.get("sims").and_then(Value::as_arr).expect("sims");
    sims.iter()
        .map(|sim| {
            (
                text(w, "workload"),
                text(sim, "name"),
                text(sim, "digest"),
                text(sim, "metrics_digest"),
                num(sim, "events"),
                num(sim, "exec_ps"),
            )
        })
        .collect()
}

/// Every simulation row of every workload section, in document order.
fn sim_rows(doc: &Value) -> Vec<SimRow> {
    workloads(doc).iter().flat_map(section_rows).collect()
}

/// The `fabric-1024` rows of `set1.json`, one list per round.
fn set1_fabric_1024_rounds() -> Vec<Vec<SimRow>> {
    let doc = json::parse(SET1).expect("set1.json parses");
    workloads(&doc)
        .iter()
        .filter(|w| w.get("workload").and_then(Value::as_str) == Some("fabric-1024"))
        .map(section_rows)
        .collect()
}

#[test]
fn set1_fabric_1024_rounds_are_identical_and_in_order() {
    let rounds = set1_fabric_1024_rounds();
    assert!(!rounds.is_empty());
    let names: Vec<&str> = FABRIC_1024.iter().map(|run| run.0).collect();
    for round in &rounds {
        let got: Vec<&str> = round.iter().map(|row| row.1.as_str()).collect();
        assert_eq!(got, names);
        assert_eq!(round, &rounds[0]);
    }
}

#[test]
fn fabric_1024_digests_match_benchmark_baseline() {
    const HOSTS: usize = 1024;
    const RADIX: usize = 4;
    let rounds = set1_fabric_1024_rounds();
    let baseline = rounds.first().expect("a fabric-1024 round");
    assert_eq!(baseline.len(), FABRIC_1024.len());
    for ((name, mode, active, placement), row) in FABRIC_1024.into_iter().zip(baseline) {
        let r = reduce::run_scaled(mode, active, HOSTS, RADIX, placement);
        let got = (
            name.to_string(),
            format!("{:016x}", r.stats_digest),
            format!("{:016x}", r.metrics.digest()),
            r.events,
            r.latency.as_ps(),
        );
        let want = (row.1.clone(), row.2.clone(), row.3.clone(), row.4, row.5);
        assert_eq!(got, want, "{name}");
    }
}

/// The first round of `workload` in `set1.json`: its seed and rows.
fn set1_first_round(workload: &str) -> (u64, Vec<SimRow>) {
    let doc = json::parse(SET1).expect("set1.json parses");
    let w = workloads(&doc)
        .iter()
        .find(|w| w.get("workload").and_then(Value::as_str) == Some(workload))
        .unwrap_or_else(|| panic!("no {workload} round"));
    let seed = w.get("seed").and_then(Value::as_u64).expect("seed");
    (seed, section_rows(w))
}

/// Checks each paper-size `(name, run)` against the baseline row of
/// the same name.
fn assert_runs_match(rows: &[SimRow], runs: Vec<(String, AppRun)>) {
    for (name, r) in runs {
        let row = rows
            .iter()
            .find(|row| row.1 == name)
            .unwrap_or_else(|| panic!("{name} is missing from set1.json"));
        let got = (
            format!("{:016x}", r.stats_digest),
            format!("{:016x}", r.metrics.digest()),
            r.events,
            r.exec.as_ps(),
        );
        let want = (row.2.clone(), row.3.clone(), row.4, row.5);
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn db_offload_digests_match_benchmark_baseline() {
    let (_, rows) = set1_first_round("db-offload");
    assert_eq!(rows.len(), 4);
    let (hj, sel) = (hashjoin::Params::paper(), select::Params::paper());
    let mut runs = Vec::new();
    for v in [Variant::Normal, Variant::Active] {
        runs.push((format!("hashjoin/{}", v.label()), hashjoin::run(v, &hj)));
    }
    for v in [Variant::Normal, Variant::Active] {
        runs.push((format!("select/{}", v.label()), select::run(v, &sel)));
    }
    assert_runs_match(&rows, runs);
}

#[test]
fn chaos_select_digests_match_benchmark_baseline() {
    let (seed, rows) = set1_first_round("chaos");
    let mut cfg = ClusterConfig::paper_db();
    cfg.faults = Some(FaultPlan::chaos(seed));
    let p = select::Params::paper();
    let runs = [Variant::NormalPref, Variant::ActivePref]
        .into_iter()
        .map(|v| {
            let name = format!("select/{}", v.label());
            (name, select::run_with_config(v, &p, cfg.clone()))
        })
        .collect();
    assert_runs_match(&rows, runs);
}

#[test]
fn bench_perf_json_matches_benchmark_baseline() {
    let doc = json::parse(include_str!("../BENCH_PERF.json")).expect("BENCH_PERF.json parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("asan-benchmark-v1")
    );
    for w in workloads(&doc) {
        let name = w.get("workload").and_then(Value::as_str);
        assert_eq!(w.get("failed").and_then(Value::as_u64), Some(0), "{name:?}");
    }

    let baseline = json::parse(SET1).expect("set1.json parses");
    let want = sim_rows(&baseline);
    let got = sim_rows(&doc);
    let same_sim = |a: &SimRow, b: &SimRow| (&a.0, &a.1) == (&b.0, &b.1);
    for row in &got {
        let base = want.iter().find(|b| same_sim(b, row));
        assert_eq!(Some(row), base, "{}/{}", row.0, row.1);
    }
    for base in &want {
        assert!(
            got.iter().any(|g| same_sim(g, base)),
            "{}/{} is missing from BENCH_PERF.json",
            base.0,
            base.1
        );
    }
}
