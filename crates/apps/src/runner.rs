//! The four standard configurations and shared run plumbing.
//!
//! §5 evaluates every benchmark in four configurations: `normal`
//! (host-only, synchronous I/O), `normal+pref` (two outstanding I/O
//! requests), `active` (host + switch handler) and `active+pref`.

use std::borrow::Cow;
use std::env;
use std::fs;
use std::path::Path;

use asan_core::cluster::{Cluster, ClusterConfig, RunReport};
use asan_core::metrics::MetricsReport;
use asan_net::{NodeId, TopoSpec};
use asan_sim::stats::TimeBreakdown;
use asan_sim::trace::{JsonlSink, NullSink, TraceSink};
use asan_sim::{PerfettoSink, SimTime};

/// One of the paper's four standard configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Host only, one outstanding I/O request.
    Normal,
    /// Host only, two outstanding I/O requests.
    NormalPref,
    /// Active switch, one outstanding I/O request.
    Active,
    /// Active switch, two outstanding I/O requests.
    ActivePref,
}

impl Variant {
    /// All four, in the paper's figure order.
    pub const ALL: [Variant; 4] = [
        Variant::Normal,
        Variant::NormalPref,
        Variant::Active,
        Variant::ActivePref,
    ];

    /// Whether the switch runs handlers in this configuration.
    pub fn is_active(self) -> bool {
        matches!(self, Variant::Active | Variant::ActivePref)
    }

    /// Number of outstanding I/O requests the host keeps in flight.
    pub fn outstanding(self) -> u64 {
        match self {
            Variant::Normal | Variant::Active => 1,
            Variant::NormalPref | Variant::ActivePref => 2,
        }
    }

    /// The figure label used in the paper ("normal", "normal+pref", …).
    pub fn label(self) -> &'static str {
        match self {
            Variant::Normal => "normal",
            Variant::NormalPref => "normal+pref",
            Variant::Active => "active",
            Variant::ActivePref => "active+pref",
        }
    }

    /// The breakdown-figure label prefix ("n", "n+p", "a", "a+p").
    pub fn short(self) -> &'static str {
        match self {
            Variant::Normal => "n",
            Variant::NormalPref => "n+p",
            Variant::Active => "a",
            Variant::ActivePref => "a+p",
        }
    }
}

/// The single-switch cluster every single-host benchmark runs on:
/// `hosts` compute nodes and `tcas` storage nodes on one switch.
pub fn standard_cluster(
    hosts: usize,
    tcas: usize,
    cfg: ClusterConfig,
) -> (Cluster, Vec<NodeId>, Vec<NodeId>, NodeId) {
    let (cl, map) = Cluster::from_spec(&TopoSpec::single_switch(hosts, tcas), cfg);
    (cl, map.hosts, map.tcas, map.root)
}

/// Result of one benchmark run in one configuration, with everything
/// the paper's two figures per application need.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Which configuration ran.
    pub variant: Variant,
    /// Application-level execution time.
    pub exec: SimTime,
    /// Host CPU breakdown (averaged over hosts for multi-node apps).
    pub host_breakdown: TimeBreakdown,
    /// Switch CPU breakdowns (one per switch CPU; empty for normal runs).
    pub switch_breakdowns: Vec<TimeBreakdown>,
    /// Host payload traffic in+out, summed over hosts (bytes).
    pub host_traffic: u64,
    /// Mean host utilization, the paper's `(1 − idle)/exec`.
    pub host_utilization: f64,
    /// Bytes carried by the fabric, summed over every link hop.
    pub link_bytes: u64,
    /// Application-specific correctness artifact (match count, digest…)
    /// for validation against a pure-Rust reference.
    pub artifact: u64,
    /// Canonical [`ClusterStats::digest`](asan_core::stats::ClusterStats::digest)
    /// of the run, for golden-digest regression checks.
    pub stats_digest: u64,
    /// Observability report: latency histograms (packet, handler, disk,
    /// buffer-wait, credit-stall) and the per-phase time breakdown.
    pub metrics: MetricsReport,
    /// Events the simulation processed (diagnostic, for events/sec
    /// accounting in the perf harness).
    pub events: u64,
    /// High-water mark of the scheduler's pending-event queue.
    pub peak_queue: u64,
    /// Fault-injection counters (all zero without an armed plan).
    pub faults: asan_sim::faults::FaultStats,
}

impl AppRun {
    /// Assembles an [`AppRun`] from a finished cluster and its report:
    /// derives the stats digest and the metrics report directly from
    /// the cluster so every benchmark gets them uniformly.
    pub fn from_report(
        variant: Variant,
        cl: &Cluster,
        report: &asan_core::cluster::RunReport,
        exec: SimTime,
        artifact: u64,
    ) -> AppRun {
        let stats_digest = cl.stats().digest();
        let metrics = cl.metrics(report);
        let exec_span = exec.since(asan_sim::SimTime::ZERO);
        let n = report.hosts.len().max(1) as u64;
        let host_breakdown = report
            .hosts
            .iter()
            .fold(TimeBreakdown::default(), |acc, h| acc.merged(&h.breakdown));
        let mut host_breakdown = TimeBreakdown {
            busy: host_breakdown.busy / n,
            stall: host_breakdown.stall / n,
            idle: host_breakdown.idle / n,
        };
        // The app-level execution time may extend past the last host's
        // finish (e.g. Tar's archive drain); the host idles until then.
        host_breakdown.pad_idle_to(exec_span);
        let switch_breakdowns: Vec<TimeBreakdown> = if variant.is_active() {
            report
                .switches
                .iter()
                .flat_map(|s| s.cpu_breakdowns.iter().copied())
                .map(|mut b| {
                    b.pad_idle_to(exec_span);
                    b
                })
                .collect()
        } else {
            Vec::new()
        };
        AppRun {
            variant,
            exec,
            host_utilization: host_breakdown.utilization(),
            host_breakdown,
            switch_breakdowns,
            host_traffic: report.total_host_payload(),
            link_bytes: report.link_bytes,
            artifact,
            stats_digest,
            metrics,
            events: report.events,
            peak_queue: report.peak_queue,
            faults: cl.fault_stats(),
        }
    }
}

/// The standard 4-variant sweep of a benchmark.
pub fn sweep(run: impl Fn(Variant) -> AppRun) -> Vec<AppRun> {
    Variant::ALL.iter().map(|&v| run(v)).collect()
}

/// Runs a benchmark cluster to completion, optionally tracing it and
/// exercising the crash-safe checkpoint path. `build` must construct
/// the cluster (and any auxiliary context `T`) identically every time
/// it is called — [`Cluster::restore`] rebuilds only dynamic state on
/// top of it. `tag` names the run's trace and snapshot files, followed
/// by `-<label>` when the cluster's [`ClusterConfig::label`] is set; the
/// result must be unique among the runs of one invocation.
///
/// Environment knobs (unset → a plain uninterrupted, untraced run):
///
/// - `ASAN_TRACE=<template>`: trace the run into its own file, the
///   template with `{tag}` replaced by `tag` (parent directories are
///   created). A `.json` suffix selects the Perfetto exporter, any
///   other the JSONL sink; both truncate. `null` installs the
///   drop-everything [`NullSink`] instead. A template without `{tag}`
///   panics: runs on several workers would race on one shared file.
/// - `ASAN_SNAPSHOT_EVENTS=<n>`: pause after `n` events, serialize the
///   full simulation state, rebuild a **fresh** cluster via `build`,
///   restore into it, and run that to completion with the paused
///   run's trace sink. The run's digests and trace must be
///   bit-identical to the uninterrupted run's.
/// - `ASAN_SNAPSHOT_SAVE=<dir>` (with `EVENTS`): also write the paused
///   snapshot to `<dir>/<tag>.snap` (creating `<dir>` if needed) for a
///   later process to resume.
/// - `ASAN_SNAPSHOT_LOAD=<dir>`: skip the initial run entirely; build
///   fresh, restore `<dir>/<tag>.snap` (a plain run if the saving
///   process finished before its pause point and wrote no file), and
///   run to completion — the cross-process half of the round trip. A
///   `<dir>` that does not exist is a configuration error and panics.
pub fn drive<T>(tag: &str, build: impl Fn() -> (Cluster, T)) -> (Cluster, T, RunReport) {
    let traced = |(mut cl, cx): (Cluster, T), sink: Option<Box<dyn TraceSink>>| {
        if let Some(sink) = sink {
            cl.set_trace_sink(sink);
        }
        (cl, cx)
    };
    let (cl, cx) = build();
    let tag: Cow<'_, str> = match cl.config().label.as_str() {
        "" => Cow::Borrowed(tag),
        label => Cow::Owned(format!("{tag}-{label}")),
    };
    let (mut cl, cx) = traced((cl, cx), trace_sink(&tag));
    if let Ok(dir) = env::var("ASAN_SNAPSHOT_LOAD") {
        let dir = Path::new(&dir);
        assert!(
            dir.is_dir(),
            "ASAN_SNAPSHOT_LOAD must name an existing directory: {}",
            dir.display()
        );
        let path = dir.join(format!("{tag}.snap"));
        match fs::read(&path) {
            Ok(bytes) => cl
                .restore(&bytes)
                .unwrap_or_else(|e| panic!("restore {}: {e:?}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("read {}: {e}", path.display()),
        }
        let report = cl.run().expect("restored run completes");
        return (cl, cx, report);
    }
    let Some(pause) = snapshot_events() else {
        let report = cl.run().expect("benchmark run completes");
        return (cl, cx, report);
    };
    if let Some(report) = cl.run_events(pause).expect("benchmark run completes") {
        return (cl, cx, report); // finished before the pause point
    }
    let bytes = cl.snapshot();
    if let Ok(dir) = env::var("ASAN_SNAPSHOT_SAVE") {
        let path = Path::new(&dir).join(format!("{tag}.snap"));
        fs::create_dir_all(&dir)
            .and_then(|()| fs::write(&path, &bytes))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    let sink = cl.take_trace_sink();
    drop(cl);
    let (mut fresh, cx) = traced(build(), sink);
    fresh
        .restore(&bytes)
        .expect("snapshot restores into an identical build");
    let report = fresh.run().expect("restored run completes");
    (fresh, cx, report)
}

/// Resolves `ASAN_TRACE` for the run `tag` (see [`drive`]). Reads the
/// variable without allocating when it is unset.
fn trace_sink(tag: &str) -> Option<Box<dyn TraceSink>> {
    let template = env::var_os("ASAN_TRACE")?;
    if template.is_empty() {
        return None;
    }
    if template == "null" {
        return Some(Box::new(NullSink));
    }
    let template = template.to_str().expect("ASAN_TRACE must be UTF-8");
    assert!(
        template.contains("{tag}"),
        "ASAN_TRACE must be a path template containing {{tag}} so each run \
         writes its own file (e.g. traces/{{tag}}.jsonl), got {template:?}"
    );
    let path = template.replace("{tag}", tag);
    if let Some(dir) = Path::new(&path).parent() {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("ASAN_TRACE: create {path}: {e}"));
    }
    if path.ends_with(".json") {
        Some(Box::new(PerfettoSink::create(&path)))
    } else {
        let sink =
            JsonlSink::create(&path).unwrap_or_else(|e| panic!("ASAN_TRACE: create {path}: {e}"));
        Some(Box::new(sink))
    }
}

/// Parses `ASAN_SNAPSHOT_EVENTS`; a set-but-unparsable value is a
/// configuration error worth failing loudly on.
fn snapshot_events() -> Option<u64> {
    let v = env::var("ASAN_SNAPSHOT_EVENTS").ok()?;
    Some(
        v.parse()
            .expect("ASAN_SNAPSHOT_EVENTS must be an event count"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_properties() {
        assert!(!Variant::Normal.is_active());
        assert!(Variant::ActivePref.is_active());
        assert_eq!(Variant::Normal.outstanding(), 1);
        assert_eq!(Variant::NormalPref.outstanding(), 2);
        assert_eq!(Variant::Active.label(), "active");
        assert_eq!(Variant::ActivePref.short(), "a+p");
        assert_eq!(Variant::ALL.len(), 4);
    }

    #[test]
    fn standard_cluster_builds() {
        let (cl, hs, ts, sw) = standard_cluster(2, 1, ClusterConfig::paper());
        assert_eq!(hs.len(), 2);
        assert_eq!(ts.len(), 1);
        assert!(cl.switch(sw).is_some());
    }
}
