//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--small] <experiment>...
//!
//! experiments:
//!   table1          application & problem-size table
//!   fig3 fig4       MPEG-filter overall / breakdown
//!   fig5 fig6       HashJoin overall / breakdown
//!   fig7 fig8       Select overall / breakdown
//!   fig9 fig10      Grep overall / breakdown
//!   fig11 fig12     Tar overall / breakdown
//!   fig13 fig14     Parallel Sort overall / breakdown
//!   fig15           Collective Reduce-to-one scaling (2..128 nodes)
//!   fig16           Collective Distributed Reduce scaling
//!   fig17           MD5 with 1/2/4 switch CPUs
//!   table2          reduction semantics check
//!   ablations       design-choice ablations (valid bits, ATB, D$, clock)
//!   twolevel        two-level active I/O (active disks + switches, §6)
//!   multiprog       co-scheduled background job (§7's throughput claim)
//!   chaos           benchmarks under seeded fault injection
//!   chaos-digest    deterministic fault-run digest (CI runs it twice)
//!   metrics         structured telemetry: per-phase time breakdown and
//!                   latency percentiles for all nine benchmarks,
//!                   normal + active (add --json for the analyzer's
//!                   input document)
//!   golden          per-benchmark stats digests (normal + active), the
//!                   golden-digest regression input (tests/golden_digests.txt)
//!   scale           multi-switch scale sweep: collective reduction
//!                   across node counts × fat-tree radices × handler
//!                   placements vs the host-side MST baseline (add
//!                   --json for the analyzer's bench-scale-v1 document)
//!   golden-fabric   multi-switch golden digests: reduction on a
//!                   radix-4 fat-tree at 64 hosts, every placement ×
//!                   mode (tests/golden_digests_fabric.txt)
//!   timeline        flight-recorder showcase: the fat-tree reduction
//!                   with NCA vs root handler placement, Perfetto
//!                   export on; writes timeline.json and one
//!                   *.perfetto.json per run under `--results <dir>`
//!                   (default sweep-results/), byte-identical across
//!                   reruns and worker counts
//!   sweep           fault-tolerant parameter sweep: the golden grid
//!                   plus the MD5-CPU and reduction node-count axes,
//!                   with a digest-keyed per-cell cache under
//!                   `--results <dir>` (default sweep-results/). A
//!                   killed sweep resumes from the cache and writes a
//!                   byte-identical sweep_results.json at any ASAN_JOBS
//!   snapcheck       crash-safety check: runs the golden sweep plain,
//!                   paused+snapshotted (ASAN_SNAPSHOT_EVENTS/_SAVE)
//!                   at 10 and at 500 events, and restored in a fresh
//!                   process (_LOAD); all outputs must be byte-identical
//!                   and the 10-event pause must snapshot every run
//!   fork            warmed-start check: snapshots a golden sweep
//!                   paused at 10 events (every run) once, then forks
//!                   several continuations from the same snapshots at
//!                   different worker counts; every fork must print
//!                   byte-identical digests
//!   all             everything above
//! ```
//!
//! `--csv` prints machine-readable rows for the overall figures
//! instead of the formatted tables (for plotting).
//!
//! `--small` substitutes the scaled-down test inputs so the whole suite
//! finishes in seconds (useful for CI smoke runs); omit it to run the
//! paper's full problem sizes.
//!
//! An unknown experiment name prints the usage and exits non-zero.
//!
//! The `golden` and `metrics` sweeps run their 18 independent
//! (benchmark × config) simulations on a worker pool
//! (`asan_bench::pool`); results are printed in submission order, so
//! output is byte-identical for any worker count. `ASAN_JOBS=<n>`
//! overrides the worker count (default: available parallelism).

use std::env;
use std::process::ExitCode;

use asan_apps::runner::{sweep, AppRun, Variant};
use asan_apps::{grep, hashjoin, md5app, mpeg, multiprog, psort, reduce, select, tar, twolevel};
use asan_bench::{
    breakdown_table, latency_report, metrics_json, overall_csv, overall_table, parse_metrics_doc,
    phase_breakdown_report, pool, scale, speedups, sweep as sweep_drv, timeline_report,
    BenchMetrics,
};
use asan_core::cluster::{Cluster, ClusterConfig, Dest, FileId, HostCtx, HostProgram, ReqId};
use asan_core::metrics::MetricsReport;
use asan_core::HandlerPlacement;
use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::LinkConfig;
use asan_sim::faults::{FaultPlan, HandlerTrap};

const USAGE: &str = "usage: repro [--small] [--csv] [--json] [--results <dir>] <experiment>...
experiments: table1 fig3..fig17 table2 ablations twolevel multiprog chaos chaos-digest
             metrics golden golden-fabric scale timeline sweep snapcheck fork all";

struct Scale {
    small: bool,
    csv: bool,
    json: bool,
}

impl Scale {
    fn mpeg(&self) -> mpeg::Params {
        if self.small {
            mpeg::Params::small()
        } else {
            mpeg::Params::paper()
        }
    }
    fn hashjoin(&self) -> hashjoin::Params {
        if self.small {
            hashjoin::Params::small()
        } else {
            hashjoin::Params::paper()
        }
    }
    fn select(&self) -> select::Params {
        if self.small {
            select::Params::small()
        } else {
            select::Params::paper()
        }
    }
    fn grep(&self) -> grep::Params {
        if self.small {
            grep::Params::small()
        } else {
            grep::Params::paper()
        }
    }
    fn tar(&self) -> tar::Params {
        if self.small {
            tar::Params::small()
        } else {
            tar::Params::paper()
        }
    }
    fn psort(&self) -> psort::Params {
        if self.small {
            psort::Params::small()
        } else {
            psort::Params::paper()
        }
    }
    fn md5(&self, cpus: usize) -> md5app::Params {
        let mut p = if self.small {
            md5app::Params::small()
        } else {
            md5app::Params::paper()
        };
        p.switch_cpus = cpus;
        p
    }
    fn reduce_nodes(&self) -> Vec<usize> {
        if self.small {
            vec![2, 4, 8, 16]
        } else {
            vec![2, 4, 8, 16, 32, 64, 128]
        }
    }
}

fn print_pair(sc: &Scale, name: &str, overall_id: &str, breakdown_id: &str, runs: &[AppRun]) {
    if sc.csv {
        print!("{}", overall_csv(overall_id, runs));
        return;
    }
    println!("{}", overall_table(&format!("{overall_id}: {name}"), runs));
    println!(
        "{}",
        breakdown_table(&format!("{breakdown_id}: {name} breakdown"), runs)
    );
    let (s, sp) = speedups(runs);
    println!("headline: active/normal = {s:.2}x, active+pref/normal+pref = {sp:.2}x\n");
}

fn table1(sc: &Scale) {
    println!("== Table 1: Applications and Problem Sizes ==");
    println!("{:<22} {:>20}", "Application", "Input Data Size (B)");
    println!("{:<22} {:>20}", "MPEG filter", sc.mpeg().video_bytes);
    let hj = sc.hashjoin();
    println!("{:<22} {:>9} x {:>8}", "HashJoin", hj.r_bytes, hj.s_bytes);
    println!("{:<22} {:>20}", "Select", sc.select().table_bytes);
    println!("{:<22} {:>20}", "Grep", sc.grep().file_bytes);
    let t = sc.tar();
    println!("{:<22} {:>20}", "Tar", t.files as u64 * t.file_bytes);
    println!("{:<22} {:>20}", "Parallel sort", sc.psort().total_bytes);
    println!("{:<22} {:>20}", "MD5", sc.md5(1).input_bytes);
    println!("{:<22} {:>20}", "Collective Reduction", 512);
    println!();
}

fn fig_reduce(mode: reduce::Mode, id: &str, name: &str, sc: &Scale) {
    println!("== {id}: {name} ==");
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "nodes", "normal (us)", "active (us)", "speedup"
    );
    for p in sc.reduce_nodes() {
        let n = reduce::run(mode, false, p);
        let a = reduce::run(mode, true, p);
        let nu = n.latency.as_ns() as f64 / 1000.0;
        let au = a.latency.as_ns() as f64 / 1000.0;
        println!("{p:<8} {nu:>14.2} {au:>14.2} {:>10.2}", nu / au);
    }
    println!();
}

fn fig17(sc: &Scale) {
    println!("== Figure 17: MD5 with multiple switch CPUs ==");
    let normal = md5app::run(Variant::Normal, &sc.md5(1));
    let normal_p = md5app::run(Variant::NormalPref, &sc.md5(1));
    println!("{:<16} {:>12} {:>10}", "config", "exec", "vs normal");
    let base = normal.exec.as_ps() as f64;
    let base_p = normal_p.exec.as_ps() as f64;
    println!(
        "{:<16} {:>12} {:>10.2}",
        "normal",
        format!("{}", normal.exec),
        1.0
    );
    println!(
        "{:<16} {:>12} {:>10.2}",
        "normal+pref",
        format!("{}", normal_p.exec),
        base / base_p.max(1.0)
    );
    for cpus in [1usize, 2, 4] {
        let a = md5app::run(Variant::Active, &sc.md5(cpus));
        let ap = md5app::run(Variant::ActivePref, &sc.md5(cpus));
        println!(
            "{:<16} {:>12} {:>10.2}",
            format!("active {cpus}cpu"),
            format!("{}", a.exec),
            base / a.exec.as_ps() as f64
        );
        println!(
            "{:<16} {:>12} {:>10.2}",
            format!("active+p {cpus}cpu"),
            format!("{}", ap.exec),
            base_p / ap.exec.as_ps() as f64
        );
    }
    println!();
}

/// Ablation studies of the design choices DESIGN.md calls out: the
/// per-line valid bits (overlap), the ATB (flat addressing), the switch
/// D-cache size (HashJoin's bit-vector), and the host:switch clock
/// ratio.
fn ablations(sc: &Scale) {
    let gp = sc.grep();

    println!("== Ablation A: per-line valid bits (Reduce-to-one, 8 nodes) ==");
    println!("(latency-bound: overlap lets the combine begin while the");
    println!(" vector is still arriving — §3's parallelism argument)");
    let on = reduce::run_with_config(reduce::Mode::ReduceToOne, true, 8, ClusterConfig::paper());
    let mut cfg = ClusterConfig::paper();
    cfg.active.valid_bit_overlap = false;
    let off = reduce::run_with_config(reduce::Mode::ReduceToOne, true, 8, cfg);
    println!("overlap on : {}", on.latency);
    println!(
        "overlap off: {}  (+{:.1}%)",
        off.latency,
        (off.latency.as_ps() as f64 / on.latency.as_ps() as f64 - 1.0) * 100.0
    );
    println!();

    println!("== Ablation B: ATB vs software translation (Reduce-to-one, 8 nodes) ==");
    let mut cfg = ClusterConfig::paper();
    cfg.active.atb_enabled = false;
    let sw_off = reduce::run_with_config(reduce::Mode::ReduceToOne, true, 8, cfg);
    println!("ATB on : {}", on.latency);
    println!(
        "ATB off: {}  (+{:.1}%)",
        sw_off.latency,
        (sw_off.latency.as_ps() as f64 / on.latency.as_ps() as f64 - 1.0) * 100.0
    );
    println!();

    println!("== Ablation C: switch D-cache size (HashJoin, active+pref) ==");
    let jp = sc.hashjoin();
    for kb in [1u64, 4, 16, 64] {
        let mut cfg = ClusterConfig::paper_db();
        cfg.active.cpu.hierarchy.l1d.size_bytes = kb * 1024;
        let r = hashjoin::run_with_config(Variant::ActivePref, &jp, cfg);
        println!(
            "D-cache {kb:>3} KB: exec {}  switch stall {:.1}%",
            r.exec,
            r.switch_breakdowns
                .first()
                .map_or(0.0, |b| b.stall_fraction() * 100.0)
        );
    }
    println!();

    println!("== Ablation D: switch CPU clock (Grep, active+pref) ==");
    for mhz in [250u64, 500, 1000, 2000] {
        let mut cfg = ClusterConfig::paper();
        cfg.active.cpu.hz = mhz * 1_000_000;
        cfg.active.cpu.hierarchy.hz = mhz * 1_000_000;
        let r = grep::run_with_config(Variant::ActivePref, &gp, cfg);
        println!(
            "switch {mhz:>4} MHz: exec {}  switch busy {:.1}%",
            r.exec,
            r.switch_breakdowns.first().map_or(0.0, |b| {
                let t = b.total().as_ps().max(1) as f64;
                b.busy.as_ps() as f64 / t * 100.0
            })
        );
    }
    println!();
}

/// §7's throughput claim: a background job soaks up the host cycles
/// each Grep configuration leaves idle; the makespan shows the effect.
fn multiprog_exp(sc: &Scale) {
    println!("== Multiprogrammed server: Grep + background job ==");
    let p = sc.grep();
    println!(
        "{:<14} {:>14} {:>12} {:>14} {:>12}",
        "bg job", "config", "grep done", "background", "makespan"
    );
    for bg_ms in [2u64, 10, 30] {
        let bg = asan_sim::SimDuration::from_ms(bg_ms);
        for v in [Variant::NormalPref, Variant::ActivePref] {
            let r = multiprog::run(v, &p, bg);
            println!(
                "{:<14} {:>14} {:>12} {:>14} {:>12}",
                format!("{bg_ms} ms"),
                v.label(),
                format!("{}", r.grep_done),
                format!("{}", r.background_done),
                format!("{}", r.makespan),
            );
        }
    }
    println!();
}

/// §6's two-level extension: where should the intelligence live?
fn twolevel(sc: &Scale) {
    println!("== Two-level active I/O: Select, four intelligence placements ==");
    println!(
        "{:<16} {:>12} {:>9} {:>16} {:>14}",
        "placement", "exec", "speedup", "host bytes", "SAN link bytes"
    );
    let p = sc.select();
    let runs: Vec<twolevel::PlacementRun> = twolevel::Placement::ALL
        .iter()
        .map(|&pl| twolevel::run(pl, &p))
        .collect();
    let base = runs[0].exec.as_ps() as f64;
    for r in &runs {
        println!(
            "{:<16} {:>12} {:>8.2}x {:>16} {:>14}",
            r.placement.label(),
            format!("{}", r.exec),
            base / r.exec.as_ps() as f64,
            r.host_traffic,
            r.san_bytes,
        );
    }
    println!();
}

/// Robustness: the benchmarks complete — and still validate — under the
/// seeded chaos fault plan (packet corruption + drops on the storage
/// data plane, soft disk errors, latency spikes).
fn chaos(sc: &Scale) {
    println!("== Chaos: benchmarks under seeded fault injection ==");
    println!("(FaultPlan::chaos — 1% corrupt, 0.5% drop, 2% disk error, 1% spike)");
    println!(
        "{:<14} {:>14} {:>14} {:>10} {:>9}",
        "app", "clean", "chaos", "overhead", "artifact"
    );
    type ChaosApp = Box<dyn Fn(ClusterConfig) -> AppRun>;
    let apps: [(&str, ChaosApp); 3] = [
        ("Grep", {
            let p = sc.grep();
            Box::new(move |cfg| grep::run_with_config(Variant::ActivePref, &p, cfg))
        }),
        ("Select", {
            let p = sc.select();
            Box::new(move |cfg| select::run_with_config(Variant::ActivePref, &p, cfg))
        }),
        ("HashJoin", {
            let p = sc.hashjoin();
            Box::new(move |cfg| hashjoin::run_with_config(Variant::ActivePref, &p, cfg))
        }),
    ];
    for (name, run) in &apps {
        let base = if *name == "HashJoin" {
            ClusterConfig::paper_db()
        } else {
            ClusterConfig::paper()
        };
        let clean = run(base.clone());
        let mut cfg = base;
        cfg.faults = Some(FaultPlan::chaos(0xC4A05));
        let faulted = run(cfg);
        assert_eq!(
            clean.artifact, faulted.artifact,
            "{name}: fault recovery changed the result"
        );
        println!(
            "{:<14} {:>14} {:>14} {:>9.1}% {:>9}",
            name,
            format!("{}", clean.exec),
            format!("{}", faulted.exec),
            (faulted.exec.as_ps() as f64 / clean.exec.as_ps().max(1) as f64 - 1.0) * 100.0,
            "ok",
        );
        // Per-fault-class recovery counts (injected/detected/recovered/
        // degraded) and the recovery mechanisms that absorbed them.
        let f = &faulted.faults;
        println!(
            "  recovery: corrupt {} | drop {} | disk-err {} | disk-lat {} \
             | {} retransmits, {} timeout retries",
            f.packet_corrupt,
            f.packet_drop,
            f.disk_error,
            f.disk_latency,
            f.retransmits,
            f.timeouts,
        );
    }

    // The collective reduction sends host-generated vectors (reliable
    // traffic), so its fault mode is the handler trap: every switch
    // combine engine traps and migrates to a host fallback.
    let clean = reduce::run_with_config(reduce::Mode::ReduceToOne, true, 8, ClusterConfig::paper());
    let mut cfg = ClusterConfig::paper();
    let mut plan = FaultPlan::quiet(0xC4A05);
    plan.handler_traps.push(HandlerTrap {
        node: None,
        handler: reduce::REDUCE_HANDLER.as_u8(),
        at_invocation: 2,
    });
    cfg.faults = Some(plan);
    let trapped = reduce::run_with_config(reduce::Mode::ReduceToOne, true, 8, cfg);
    println!(
        "{:<14} {:>14} {:>14} {:>9.1}% {:>9}",
        "Reduce (trap)",
        format!("{}", clean.latency),
        format!("{}", trapped.latency),
        (trapped.latency.as_ps() as f64 / clean.latency.as_ps().max(1) as f64 - 1.0) * 100.0,
        "ok",
    );
    let f = &trapped.faults;
    println!(
        "  recovery: trap {} | {} fallback packets rerouted through the host",
        f.handler_trap, f.fallback_packets
    );
    println!("(per-class counts are injected/detected/recovered/degraded)");
    println!();
}

/// Reads one region into host memory and finishes.
struct OneRead {
    file: FileId,
    len: u64,
}
impl HostProgram for OneRead {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.read_file(self.file, 0, self.len, Dest::HostBuf { addr: 0x1000_0000 });
    }
    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, _req: ReqId) {
        ctx.finish();
    }
}

/// CI determinism probe: one storage read under a dense fault plan,
/// reduced to the canonical stats digest. Same binary + same seed must
/// print the same digest on every run and every machine; the CI job
/// runs this twice and fails on a mismatch.
fn chaos_digest() {
    const FILE_BYTES: u64 = 256 * 1024;
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch(SwitchSpec::paper());
    let host = b.add_host();
    let tca = b.add_tca();
    b.connect(host, sw, LinkConfig::paper());
    b.connect(tca, sw, LinkConfig::paper());

    let mut cfg = ClusterConfig::paper();
    let mut plan = FaultPlan::chaos(0xD16E57);
    plan.packet_corrupt_prob = 0.05;
    plan.packet_drop_prob = 0.02;
    cfg.faults = Some(plan);

    let mut cl = Cluster::new(b, cfg);
    let data: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 251) as u8).collect();
    let file = cl.add_file(tca, data).expect("add file");
    cl.set_program(
        host,
        Box::new(OneRead {
            file,
            len: FILE_BYTES,
        }),
    )
    .expect("program");
    let report = cl
        .run()
        .expect("chaos run recovers from every injected fault");

    let stats = cl.stats();
    println!("chaos-digest: {:016x}", stats.digest());
    println!("finish: {}  events: {}", report.finish, report.events);
    println!("{}", cl.fault_stats());
}

/// One finished (benchmark × config) run, as collected by the parallel
/// sweep harness: everything `golden` and `metrics` need.
struct RunRecord {
    name: &'static str,
    config: &'static str,
    digest: u64,
    metrics: MetricsReport,
}

/// Boxes one benchmark run as a pool job producing a [`RunRecord`].
/// A macro (not a function) because `AppRun` and `ReduceRun` share the
/// field names but not a trait.
macro_rules! sweep_job {
    ($jobs:ident, $name:literal, $config:ident, $run:expr) => {
        $jobs.push(Box::new(move || {
            let r = $run;
            RunRecord {
                name: $name,
                config: $config,
                digest: r.stats_digest,
                metrics: r.metrics,
            }
        }) as pool::Job<RunRecord>);
    };
}

/// Runs all nine benchmarks in the `normal` and `active` configurations
/// on the worker pool and returns the 18 records in canonical order
/// (the committed golden-digest order): benchmarks within `normal`,
/// then within `active`. Index-ordered collection makes the order — and
/// thus every report built from it — independent of the worker count.
fn run_sweep(sc: &Scale) -> Vec<RunRecord> {
    let mut jobs: Vec<pool::Job<RunRecord>> = Vec::new();
    for (config, variant) in [("normal", Variant::Normal), ("active", Variant::Active)] {
        let p = sc.mpeg();
        sweep_job!(jobs, "mpeg", config, mpeg::run(variant, &p));
        let p = sc.hashjoin();
        sweep_job!(jobs, "hashjoin", config, hashjoin::run(variant, &p));
        let p = sc.select();
        sweep_job!(jobs, "select", config, select::run(variant, &p));
        let p = sc.grep();
        sweep_job!(jobs, "grep", config, grep::run(variant, &p));
        let p = sc.tar();
        sweep_job!(jobs, "tar", config, tar::run(variant, &p));
        let p = sc.psort();
        sweep_job!(jobs, "psort", config, psort::run(variant, &p));
        let p = sc.md5(1);
        sweep_job!(jobs, "md5", config, md5app::run(variant, &p));
        let active = variant.is_active();
        sweep_job!(
            jobs,
            "reduce-to-one",
            config,
            reduce::run(reduce::Mode::ReduceToOne, active, 8)
        );
        sweep_job!(
            jobs,
            "distributed-reduce",
            config,
            reduce::run(reduce::Mode::Distributed, active, 8)
        );
    }
    pool::run_indexed(jobs, pool::default_workers())
}

/// Golden digests: every benchmark's canonical `ClusterStats::digest()`
/// in the `normal` and `active` configurations. The committed
/// `tests/golden_digests.txt` holds the output of
/// `repro -- --small golden`; CI regenerates and diffs it, so any
/// change that silently perturbs simulation results fails loudly.
fn golden(sc: &Scale) {
    for r in run_sweep(sc) {
        println!("{} {} {:016x}", r.name, r.config, r.digest);
    }
}

/// The observability report: runs all nine benchmarks in the normal and
/// active configurations and prints the per-phase time breakdown plus
/// the latency percentiles (human tables, or the analyzer's JSON
/// document with `--json`).
fn metrics_exp(sc: &Scale) {
    let rows = run_sweep(sc);
    if sc.json {
        let refs: Vec<(&str, &str, &MetricsReport)> = rows
            .iter()
            .map(|r| (r.name, r.config, &r.metrics))
            .collect();
        println!("{}", metrics_json(&refs));
        return;
    }
    let summaries: Vec<BenchMetrics> = rows
        .iter()
        .map(|r| BenchMetrics::from_report(r.name, r.config, &r.metrics))
        .collect();
    println!("{}", phase_breakdown_report(&summaries));
    println!("{}", latency_report(&summaries));
}

/// Multi-switch scale sweep: the collective reduction across node
/// counts × fat-tree radices × handler placements, against the
/// host-side MST baseline on the same fabric. The cells run on the
/// worker pool and are collected in submission order, so the document
/// is byte-identical at any `ASAN_JOBS`.
fn scale_exp(sc: &Scale) {
    let (radices, hosts): (Vec<usize>, Vec<usize>) = if sc.small {
        (vec![4], vec![16, 64])
    } else {
        (vec![4, 16], vec![64, 256, 1024])
    };
    let mut jobs: Vec<pool::Job<u64>> = Vec::new();
    for &radix in &radices {
        for &p in &hosts {
            jobs.push(Box::new(move || {
                reduce::run_scaled(
                    reduce::Mode::ReduceToOne,
                    false,
                    p,
                    radix,
                    HandlerPlacement::Nca,
                )
                .latency
                .as_ps()
            }));
            for placement in HandlerPlacement::ALL {
                jobs.push(Box::new(move || {
                    reduce::run_scaled(reduce::Mode::ReduceToOne, true, p, radix, placement)
                        .latency
                        .as_ps()
                }));
            }
        }
    }
    let mut results = pool::run_indexed(jobs, pool::default_workers()).into_iter();
    let mut samples = Vec::new();
    for &radix in &radices {
        for &p in &hosts {
            let normal_ps = results.next().expect("baseline cell");
            for placement in HandlerPlacement::ALL {
                let active_ps = results.next().expect("active cell");
                samples.push(scale::ScaleSample {
                    hosts: p as u64,
                    topo: format!("fat-tree-r{radix}"),
                    placement: placement.label().to_string(),
                    normal_ps,
                    active_ps,
                });
            }
        }
    }
    if sc.json {
        print!("{}", scale::scale_json(&samples));
        return;
    }
    print!("{}", scale::scale_report(&scale::ScaleDoc { samples }));
    println!();
}

/// Multi-switch golden digests: the collective reduction on a radix-4
/// fat-tree at 64 hosts, every handler placement × result mode, plus
/// the host-side baseline. The committed
/// `tests/golden_digests_fabric.txt` holds this output; CI regenerates
/// and diffs it at ASAN_JOBS 1 and 4 and across snapshot/restore.
fn golden_fabric() {
    const P: usize = 64;
    const RADIX: usize = 4;
    let mut jobs: Vec<pool::Job<(String, u64)>> = Vec::new();
    for mode in [reduce::Mode::ReduceToOne, reduce::Mode::Distributed] {
        jobs.push(Box::new(move || {
            let r = reduce::run_scaled(mode, false, P, RADIX, HandlerPlacement::Nca);
            (
                format!("{}-r{RADIX}-p{P} normal", mode.tag()),
                r.stats_digest,
            )
        }));
        for placement in HandlerPlacement::ALL {
            jobs.push(Box::new(move || {
                let r = reduce::run_scaled(mode, true, P, RADIX, placement);
                (
                    format!("{}-r{RADIX}-p{P} {}", mode.tag(), placement.label()),
                    r.stats_digest,
                )
            }));
        }
    }
    for (name, digest) in pool::run_indexed(jobs, pool::default_workers()) {
        println!("{name} {digest:016x}");
    }
}

/// Flight-recorder showcase: the collective reduce-to-one on a radix-4
/// fat-tree, once with combine handlers at the participants' nearest
/// common ancestors and once all at the root switch. Each run exports
/// a Perfetto trace (`timeline-<tag>.perfetto.json`) via the
/// `ASAN_TRACE` shim, and the pair's metrics document — including the
/// windowed `timeline` section — lands in `timeline.json` under
/// `--results <dir>`. Rendered with `analyze timeline`, the per-link
/// sparklines show the congestion hotspot moving from the spread-out
/// NCA switches to the single root. Runs serially, so every output is
/// byte-identical across reruns and at any `ASAN_JOBS`.
fn timeline_exp(sc: &Scale, results_dir: &str) {
    const RADIX: usize = 4;
    let p = if sc.small { 16 } else { 64 };
    std::fs::create_dir_all(results_dir).expect("create results dir");
    let cases = [
        ("nca", asan_core::HandlerPlacement::Nca),
        ("root", asan_core::HandlerPlacement::Root),
    ];
    let mut reports = Vec::new();
    // A reduction finishes in tens of microseconds; narrow the window
    // from the 10 us default so the recorder resolves its phases.
    let mut cfg = ClusterConfig::paper();
    cfg.timeline_window = asan_sim::SimDuration::from_ns(500);
    for (tag, placement) in cases {
        let trace_path = format!("{results_dir}/timeline-{tag}.perfetto.json");
        env::set_var("ASAN_TRACE", &trace_path);
        let r = reduce::run_scaled_with_config(
            reduce::Mode::ReduceToOne,
            true,
            p,
            RADIX,
            placement,
            cfg.clone(),
        );
        env::remove_var("ASAN_TRACE");
        println!(
            "reduce-to-one r{RADIX} p{p} {tag}: latency {}, wrote {trace_path}",
            r.latency
        );
        reports.push((tag, r.metrics));
    }
    let rows: Vec<(&str, &str, &MetricsReport)> = reports
        .iter()
        .map(|(tag, m)| ("reduce-to-one", *tag, m))
        .collect();
    let doc = metrics_json(&rows);
    let json_path = format!("{results_dir}/timeline.json");
    std::fs::write(&json_path, &doc).expect("write timeline.json");
    let parsed = parse_metrics_doc(&doc).expect("timeline document round-trips");
    print!("{}", timeline_report(&parsed));
    println!("wrote {json_path}");
}

/// Boxes one benchmark run as a *re-runnable* sweep cell (the driver
/// re-invokes it on retry after a transient failure).
macro_rules! sweep_cell {
    ($cells:ident, $name:expr, $config:expr, $run:expr) => {
        $cells.push(sweep_drv::Cell {
            name: $name.to_string(),
            config: $config.to_string(),
            run: Box::new(move || {
                let r = $run;
                sweep_drv::CellResult {
                    digest: r.stats_digest,
                    events: r.events,
                    peak_queue: r.peak_queue,
                }
            }),
        });
    };
}

/// The sweep grid: the 18 golden (benchmark × config) cells plus the
/// parameter axes of Figures 15–17 — MD5 switch-CPU counts and
/// reduction node counts.
fn sweep_cells(sc: &Scale) -> Vec<sweep_drv::Cell> {
    let mut cells = Vec::new();
    for (config, variant) in [("normal", Variant::Normal), ("active", Variant::Active)] {
        let p = sc.mpeg();
        sweep_cell!(cells, "mpeg", config, mpeg::run(variant, &p));
        let p = sc.hashjoin();
        sweep_cell!(cells, "hashjoin", config, hashjoin::run(variant, &p));
        let p = sc.select();
        sweep_cell!(cells, "select", config, select::run(variant, &p));
        let p = sc.grep();
        sweep_cell!(cells, "grep", config, grep::run(variant, &p));
        let p = sc.tar();
        sweep_cell!(cells, "tar", config, tar::run(variant, &p));
        let p = sc.psort();
        sweep_cell!(cells, "psort", config, psort::run(variant, &p));
        let p = sc.md5(1);
        sweep_cell!(cells, "md5", config, md5app::run(variant, &p));
        let active = variant.is_active();
        sweep_cell!(
            cells,
            "reduce-to-one",
            config,
            reduce::run(reduce::Mode::ReduceToOne, active, 8)
        );
        sweep_cell!(
            cells,
            "distributed-reduce",
            config,
            reduce::run(reduce::Mode::Distributed, active, 8)
        );
    }
    for k in [2usize, 4] {
        let p = sc.md5(k);
        sweep_cell!(
            cells,
            "md5",
            format!("active-k{k}"),
            md5app::run(Variant::Active, &p)
        );
    }
    for p in sc.reduce_nodes() {
        sweep_cell!(
            cells,
            "reduce-to-one",
            format!("normal-p{p}"),
            reduce::run(reduce::Mode::ReduceToOne, false, p)
        );
        sweep_cell!(
            cells,
            "reduce-to-one",
            format!("active-p{p}"),
            reduce::run(reduce::Mode::ReduceToOne, true, p)
        );
        sweep_cell!(
            cells,
            "distributed-reduce",
            format!("active-p{p}"),
            reduce::run(reduce::Mode::Distributed, true, p)
        );
    }
    cells
}

/// The fault-tolerant parameter sweep. Cell records go to stdout in
/// canonical order (deterministic at any worker count and across
/// kill/resume); the cache-hit summary goes to stderr because it
/// legitimately differs between a fresh run and a resumed one.
fn sweep_exp(sc: &Scale, dir: &str) {
    let cfg = sweep_drv::SweepConfig::new(dir);
    let outcome = sweep_drv::run(sweep_cells(sc), &cfg).expect("sweep results dir is writable");
    println!("== Sweep: {} cells ==", outcome.records.len());
    for rec in &outcome.records {
        println!(
            "{:<20} {:<12} {:016x} {:>9} ev {:>5} pq",
            rec.name, rec.config, rec.result.digest, rec.result.events, rec.result.peak_queue
        );
    }
    println!("results: {dir}/sweep_results.json");
    eprintln!(
        "sweep: {} cached, {} computed, {} retries (workers = {})",
        outcome.cached, outcome.computed, outcome.retries, cfg.workers
    );
}

/// Re-runs this binary with `golden` under the given environment,
/// returning its stdout.
fn golden_child(sc: &Scale, envs: &[(&str, &str)]) -> String {
    let exe = env::current_exe().expect("own binary path");
    let mut cmd = std::process::Command::new(exe);
    if sc.small {
        cmd.arg("--small");
    }
    cmd.arg("golden");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn golden child");
    assert!(
        out.status.success(),
        "golden child {envs:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("digest output is UTF-8")
}

/// A pause point every run of the golden sweep is still running at, so
/// each one crosses a snapshot/restore.
const EVERY_RUN_PAUSE: &str = "10";

/// Runs the golden sweep paused after `events` events, saving each
/// paused run's snapshot into a fresh temp dir. Returns the digests,
/// the dir and the number of snapshots written.
fn paused_golden(sc: &Scale, tag: &str, events: &str) -> (String, String, usize) {
    let dir = env::temp_dir().join(format!("asan-{tag}-{events}-{}", std::process::id()));
    let dir = dir.to_str().expect("UTF-8 temp path").to_string();
    let _ = std::fs::remove_dir_all(&dir);
    let out = golden_child(
        sc,
        &[
            ("ASAN_SNAPSHOT_EVENTS", events),
            ("ASAN_SNAPSHOT_SAVE", &dir),
        ],
    );
    let snaps = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    (out, dir, snaps)
}

/// Fails unless the pause at [`EVERY_RUN_PAUSE`] snapshotted each of the
/// sweep's `runs` runs (one digest line per run).
fn assert_every_run_paused(snaps: usize, runs: usize) {
    assert_eq!(
        snaps, runs,
        "a pause at {EVERY_RUN_PAUSE} events must snapshot every golden run"
    );
}

/// Crash-safety check across real process boundaries: the golden sweep
/// must print byte-identical digests when run plain, when paused +
/// snapshotted + restored in-process, and when restored from the saved
/// snapshot files in a fresh process — pausing both early (every run
/// restores) and late (runs far into their event streams).
fn snapcheck(sc: &Scale) {
    let plain = golden_child(sc, &[]);
    let runs = plain.lines().count();
    for events in [EVERY_RUN_PAUSE, "500"] {
        let (paused, dir, snaps) = paused_golden(sc, "snapcheck", events);
        if events == EVERY_RUN_PAUSE {
            assert_every_run_paused(snaps, runs);
        }
        let restored = golden_child(sc, &[("ASAN_SNAPSHOT_LOAD", &dir)]);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(plain, paused, "pause+restore at {events} changed a digest");
        assert_eq!(
            plain, restored,
            "fresh-process restore at {events} changed a digest"
        );
        println!(
            "snapcheck: {runs} digests identical across plain / paused / fresh-process \
             restore at {events} events ({snaps} runs restored)"
        );
    }
}

/// Warmed-start check: snapshot a paused golden sweep once, then fork
/// several continuations from the same snapshot files at different
/// worker counts — every fork must print byte-identical digests.
fn fork_exp(sc: &Scale) {
    let (warmed, dir, snaps) = paused_golden(sc, "fork", EVERY_RUN_PAUSE);
    assert_every_run_paused(snaps, warmed.lines().count());
    let forks = ["1", "2", "4"];
    for jobs in forks {
        let fork = golden_child(sc, &[("ASAN_SNAPSHOT_LOAD", &dir), ("ASAN_JOBS", jobs)]);
        assert_eq!(
            warmed, fork,
            "fork at ASAN_JOBS={jobs} diverged from the warmed run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "fork: {} continuations byte-identical from one warmed snapshot set",
        forks.len()
    );
}

fn table2() {
    println!("== Table 2: Collective Reduction semantics ==");
    for p in [4usize, 8] {
        let want = reduce::reference_sum(p);
        // The simulation validates every delivered lane internally; a
        // passing run is the semantic check.
        reduce::run(reduce::Mode::Distributed, true, p);
        reduce::run(reduce::Mode::ReduceToOne, true, p);
        reduce::run(reduce::Mode::ToAll, true, p);
        println!(
            "p={p}: Distr. Reduce, Reduce-to-one and Reduce-to-all verified \
             against the scalar reference (lane0 = {})",
            u32::from_le_bytes(want[0..4].try_into().unwrap())
        );
    }
    println!();
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let csv = args.iter().any(|a| a == "--csv");
    let json = args.iter().any(|a| a == "--json");
    let sc = Scale { small, csv, json };
    let results_dir = args
        .iter()
        .position(|a| a == "--results")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "sweep-results".to_string());
    let mut skip_next = false;
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--results" {
                skip_next = true;
                return false;
            }
            *a != "--small" && *a != "--csv" && *a != "--json"
        })
        .map(String::as_str)
        .collect();
    let wanted: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        vec![
            "table1", "fig3", "fig5", "fig7", "fig9", "fig11", "fig13", "fig15", "fig16", "fig17",
            "table2", "chaos",
        ]
    } else {
        wanted
    };

    for w in wanted {
        match w {
            "table1" => table1(&sc),
            "fig3" | "fig4" => {
                let runs = sweep(|v| mpeg::run(v, &sc.mpeg()));
                print_pair(&sc, "MPEG-Filter", "Figure 3", "Figure 4", &runs);
            }
            "fig5" | "fig6" => {
                let runs = sweep(|v| hashjoin::run(v, &sc.hashjoin()));
                print_pair(&sc, "HashJoin", "Figure 5", "Figure 6", &runs);
            }
            "fig7" | "fig8" => {
                let runs = sweep(|v| select::run(v, &sc.select()));
                print_pair(&sc, "Select", "Figure 7", "Figure 8", &runs);
            }
            "fig9" | "fig10" => {
                let runs = sweep(|v| grep::run(v, &sc.grep()));
                print_pair(&sc, "Grep", "Figure 9", "Figure 10", &runs);
            }
            "fig11" | "fig12" => {
                let runs = sweep(|v| tar::run(v, &sc.tar()));
                print_pair(&sc, "Tar", "Figure 11", "Figure 12", &runs);
            }
            "fig13" | "fig14" => {
                let runs = sweep(|v| psort::run(v, &sc.psort()));
                print_pair(&sc, "Parallel Sort", "Figure 13", "Figure 14", &runs);
            }
            "fig15" => fig_reduce(
                reduce::Mode::ReduceToOne,
                "Figure 15",
                "Collective Reduce-to-one",
                &sc,
            ),
            "fig16" => fig_reduce(
                reduce::Mode::Distributed,
                "Figure 16",
                "Collective Distributed Reduce",
                &sc,
            ),
            "fig17" => fig17(&sc),
            "table2" => table2(),
            "ablations" => ablations(&sc),
            "chaos" => chaos(&sc),
            "chaos-digest" => chaos_digest(),
            "metrics" => metrics_exp(&sc),
            "golden" => golden(&sc),
            "golden-fabric" => golden_fabric(),
            "timeline" => timeline_exp(&sc, &results_dir),
            "scale" => scale_exp(&sc),
            "sweep" => sweep_exp(&sc, &results_dir),
            "snapcheck" => snapcheck(&sc),
            "fork" => fork_exp(&sc),
            "twolevel" => twolevel(&sc),
            "multiprog" => multiprog_exp(&sc),
            other => {
                eprintln!("repro: unknown experiment: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
