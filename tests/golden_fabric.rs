//! Multi-switch golden-digest regression test: the scaled collective
//! reduction on the radix-4 fat tree at 64 hosts, under every handler
//! placement, must match the committed
//! [`tests/golden_digests_fabric.txt`](golden_digests_fabric.txt) byte
//! for byte, and the benchmark's five 1024-host runs must match its
//! committed baseline. The committed `BENCH_PERF.json` (the
//! `results.json` of a full `asan-benchmark run`) must parse, record no
//! failed operation, and carry the same per-simulation results as that
//! baseline.
//!
//! This is the fabric counterpart of `tests/golden.rs`: where that file
//! pins the nine single-switch paper benchmarks, this one pins the
//! multi-hop topology — the BFS route tables, per-link credit chains,
//! and cross-switch handler placement all feed these digests, so any
//! perturbation of the fabric model surfaces here. The file is
//! regenerated with
//! `cargo run --release -p asan-bench --bin repro -- golden-fabric`.

use asan_apps::reduce::{self, Mode};
use asan_bench::json::{self, Value};
use asan_core::HandlerPlacement;

const GOLDEN: &str = include_str!("golden_digests_fabric.txt");
const P: usize = 64;
const RADIX: usize = 4;

/// Rebuilds the golden-fabric rows in file order: per mode, the
/// host-side baseline then every placement's active run.
fn digests() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for mode in [Mode::ReduceToOne, Mode::Distributed] {
        let base = reduce::run_scaled(mode, false, P, RADIX, HandlerPlacement::Nca);
        rows.push((
            format!("{}-r{RADIX}-p{P} normal", mode.tag()),
            base.stats_digest,
        ));
        for placement in HandlerPlacement::ALL {
            let r = reduce::run_scaled(mode, true, P, RADIX, placement);
            rows.push((
                format!("{}-r{RADIX}-p{P} {}", mode.tag(), placement.label()),
                r.stats_digest,
            ));
        }
    }
    rows
}

#[test]
fn fabric_digests_match_committed_golden_file() {
    let mut produced = String::new();
    for (name, digest) in digests() {
        produced.push_str(&format!("{name} {digest:016x}\n"));
    }
    let mut mismatches = Vec::new();
    for (want, got) in GOLDEN.lines().zip(produced.lines()) {
        if want != got {
            mismatches.push(format!("golden: {want}\n   got: {got}"));
        }
    }
    assert_eq!(
        GOLDEN.lines().count(),
        produced.lines().count(),
        "fabric golden file and produced digests differ in length:\n{produced}"
    );
    assert!(
        mismatches.is_empty(),
        "multi-switch simulation results changed ({} of {} digests):\n{}\n\nIf \
         intentional, regenerate with `cargo run --release -p asan-bench --bin repro \
         -- golden-fabric > tests/golden_digests_fabric.txt` and explain the change.",
        mismatches.len(),
        GOLDEN.lines().count(),
        mismatches.join("\n")
    );
}

/// The five `fabric-1024` simulations of `asan-benchmark` (1024 hosts,
/// radix-4 fat tree, 2 047 nodes): name, stats digest, metrics digest,
/// events, simulated finish in picoseconds. Copied from the benchmark's
/// committed baseline, `crates/benchmark/baseline/set1.json`, so the
/// 1024-host results are pinned by a test and not only by a benchmark
/// comparison.
const FABRIC_1024: [(&str, u64, u64, u64, u64); 5] = [
    (
        "reduce-to-one/host-mst",
        0x60ca5f39c262f21c,
        0xc08600ef00267ed1,
        2047,
        82_825_500,
    ),
    (
        "reduce-to-one/active-root",
        0x880bffe9f1fe7a99,
        0x02450cc10db9255a,
        2049,
        663_324_000,
    ),
    (
        "reduce-to-one/active-nca",
        0x878755f5e89fc9cb,
        0x31918df26795725b,
        3071,
        24_652_000,
    ),
    (
        "reduce-to-one/active-striped",
        0x0d785719d3fe961f,
        0x1b4948fadb817fef,
        2560,
        334_696_000,
    ),
    (
        "distributed-reduce/active-nca",
        0x883667a8611593f5,
        0xedd691529e6b5a74,
        4094,
        44_364_000,
    ),
];

#[test]
fn fabric_1024_digests_match_benchmark_baseline() {
    const HOSTS: usize = 1024;
    let one = Mode::ReduceToOne;
    let runs = [
        (one, false, HandlerPlacement::Nca),
        (one, true, HandlerPlacement::Root),
        (one, true, HandlerPlacement::Nca),
        (one, true, HandlerPlacement::Striped),
        (Mode::Distributed, true, HandlerPlacement::Nca),
    ];
    for ((mode, active, placement), (name, digest, metrics, events, exec_ps)) in
        runs.into_iter().zip(FABRIC_1024)
    {
        let r = reduce::run_scaled(mode, active, HOSTS, RADIX, placement);
        let got = (
            r.stats_digest,
            r.metrics.digest(),
            r.events,
            r.latency.as_ps(),
        );
        assert_eq!(got, (digest, metrics, events, exec_ps), "{name}");
    }
}

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

/// Every simulation row of every workload section, in document order.
fn sim_rows(doc: &Value) -> Vec<SimRow> {
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
    let mut rows = Vec::new();
    for w in workloads(doc) {
        for sim in w.get("sims").and_then(Value::as_arr).expect("sims") {
            rows.push((
                text(w, "workload"),
                text(sim, "name"),
                text(sim, "digest"),
                text(sim, "metrics_digest"),
                num(sim, "events"),
                num(sim, "exec_ps"),
            ));
        }
    }
    rows
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

    let baseline =
        json::parse(include_str!("../crates/benchmark/baseline/set1.json")).expect("set1.json");
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

    // Each round's five fabric-1024 rows, in order, are the pinned table.
    let fabric: Vec<&SimRow> = got.iter().filter(|r| r.0 == "fabric-1024").collect();
    assert!(!fabric.is_empty());
    for round in fabric.chunks(FABRIC_1024.len()) {
        assert_eq!(round.len(), FABRIC_1024.len());
        for (row, (name, digest, metrics, events, exec_ps)) in round.iter().zip(FABRIC_1024) {
            let pinned = (
                name.to_string(),
                format!("{digest:016x}"),
                format!("{metrics:016x}"),
                events,
                exec_ps,
            );
            assert_eq!(
                (row.1.clone(), row.2.clone(), row.3.clone(), row.4, row.5),
                pinned
            );
        }
    }
}
