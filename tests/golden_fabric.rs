//! Multi-switch golden-digest regression test: the scaled collective
//! reduction on the radix-4 fat tree at 64 hosts, under every handler
//! placement, must match the committed
//! [`tests/golden_digests_fabric.txt`](golden_digests_fabric.txt) byte
//! for byte, and the benchmark's five 1024-host runs must match its
//! committed baseline.
//!
//! This is the fabric counterpart of `tests/golden.rs`: where that file
//! pins the nine single-switch paper benchmarks, this one pins the
//! multi-hop topology — the BFS route tables, per-link credit chains,
//! and cross-switch handler placement all feed these digests, so any
//! perturbation of the fabric model surfaces here. The file is
//! regenerated with
//! `cargo run --release -p asan-bench --bin repro -- golden-fabric`.

use asan_apps::reduce::{self, Mode};
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
