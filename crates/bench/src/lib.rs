//! Benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§5).
//!
//! The `repro` binary drives full-size runs and prints the same rows
//! and series the paper reports; `asan-benchmark` (`crates/benchmark`)
//! times the simulator itself.
//!
//! Figures come in pairs per application: an *overall* chart
//! (execution time normalized to `normal`, host utilization, host I/O
//! traffic normalized to `normal`) and an execution-time *breakdown*
//! (CPU busy / cache stall / idle for the host CPU, plus the switch CPU
//! in the active cases).

pub mod json;
pub mod pool;
pub mod scale;

use std::fmt;

use asan_apps::catalog;
use asan_apps::runner::AppRun;
use asan_apps::Variant;
use asan_core::metrics::{MetricsReport, PhaseBreakdown};
use asan_sim::SimDuration;

/// Renders the overall figure (e.g. Figure 3: exec time, host
/// utilization, host I/O traffic; first row is the normalization base).
pub fn overall_table(title: &str, runs: &[AppRun]) -> String {
    let base = runs
        .iter()
        .find(|r| r.variant == Variant::Normal)
        .expect("normal run present");
    let base_exec = base.exec.as_ps().max(1) as f64;
    let base_traffic = base.host_traffic.max(1) as f64;
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<14} {:>12} {:>10} {:>10} {:>12} {:>10}\n",
        "config", "exec", "norm.time", "speedup", "host util", "traffic"
    ));
    for r in runs {
        let norm = r.exec.as_ps() as f64 / base_exec;
        out.push_str(&format!(
            "{:<14} {:>12} {:>10.3} {:>10.2} {:>11.1}% {:>10.3}\n",
            r.variant.label(),
            format!("{}", r.exec),
            norm,
            1.0 / norm,
            r.host_utilization * 100.0,
            r.host_traffic as f64 / base_traffic,
        ));
    }
    out
}

/// Renders the breakdown figure (e.g. Figure 4: busy / cache-stall /
/// idle shares for host and switch CPUs).
pub fn breakdown_table(title: &str, runs: &[AppRun]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10} {:>12}\n",
        "cpu", "busy%", "stall%", "idle%", "total"
    ));
    for r in runs {
        let b = &r.host_breakdown;
        let t = b.total().as_ps().max(1) as f64;
        out.push_str(&format!(
            "{:<10} {:>9.1}% {:>9.1}% {:>9.1}% {:>12}\n",
            format!("{}-HP", r.variant.short()),
            b.busy.as_ps() as f64 / t * 100.0,
            b.stall.as_ps() as f64 / t * 100.0,
            b.idle.as_ps() as f64 / t * 100.0,
            format!("{}", b.total()),
        ));
        for (i, sb) in r.switch_breakdowns.iter().enumerate() {
            let st = sb.total().as_ps().max(1) as f64;
            let tag = if r.switch_breakdowns.len() > 1 {
                format!("{}-SP{}", r.variant.short(), i)
            } else {
                format!("{}-SP", r.variant.short())
            };
            out.push_str(&format!(
                "{:<10} {:>9.1}% {:>9.1}% {:>9.1}% {:>12}\n",
                tag,
                sb.busy.as_ps() as f64 / st * 100.0,
                sb.stall.as_ps() as f64 / st * 100.0,
                sb.idle.as_ps() as f64 / st * 100.0,
                format!("{}", sb.total()),
            ));
        }
    }
    out
}

/// Renders an overall figure as CSV (`experiment,config,exec_ps,
/// normalized_time,host_utilization,traffic_ratio`), for plotting.
pub fn overall_csv(experiment: &str, runs: &[AppRun]) -> String {
    let base = runs
        .iter()
        .find(|r| r.variant == Variant::Normal)
        .expect("normal run present");
    let base_exec = base.exec.as_ps().max(1) as f64;
    let base_traffic = base.host_traffic.max(1) as f64;
    let mut out = String::from(
        "experiment,config,exec_ps,normalized_time,host_utilization,traffic_ratio
",
    );
    for r in runs {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6}
",
            experiment,
            r.variant.label(),
            r.exec.as_ps(),
            r.exec.as_ps() as f64 / base_exec,
            r.host_utilization,
            r.host_traffic as f64 / base_traffic,
        ));
    }
    out
}

/// One windowed time-series track as carried in the `timeline` section
/// of the metrics JSON document (see [`asan_sim::series::Timeline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineTrack {
    /// Track kind label ("link_util", "credit_stall", "queue_depth",
    /// "handler_occ").
    pub kind: String,
    /// Resource key: link index, node id, or 0 for global gauges.
    pub key: u64,
    /// Dense per-window values (picoseconds for occupancy kinds, a
    /// count for gauges), reconstructed from the sparse JSON encoding.
    pub samples: Vec<u64>,
}

/// Latency percentile summary of one span kind, as carried in the
/// metrics JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySummary {
    /// Span name ("packet", "handler", "disk", "buffer_wait",
    /// "credit_stall").
    pub span: String,
    /// Number of recorded spans.
    pub count: u64,
    /// 50th-percentile latency.
    pub p50: SimDuration,
    /// 90th-percentile latency.
    pub p90: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
}

/// One benchmark × configuration row of a metrics document: the phase
/// breakdown plus the latency percentile summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMetrics {
    /// Benchmark name ("mpeg", "grep", …).
    pub name: String,
    /// Configuration label ("normal", "active").
    pub config: String,
    /// Where the run's simulated cycles went.
    pub phases: PhaseBreakdown,
    /// Percentile summaries, in the report's canonical span order.
    pub latency: Vec<LatencySummary>,
    /// Width of one timeline window (zero when the run produced no
    /// timeline).
    pub timeline_window: SimDuration,
    /// Windowed time-series tracks, in the report's canonical
    /// (kind, key) order.
    pub timeline: Vec<TimelineTrack>,
}

impl BenchMetrics {
    /// Summarizes a full [`MetricsReport`] into one row (the in-process
    /// equivalent of emitting JSON and parsing it back).
    pub fn from_report(name: &str, config: &str, m: &MetricsReport) -> BenchMetrics {
        BenchMetrics {
            name: name.to_string(),
            config: config.to_string(),
            phases: m.phases,
            latency: m
                .latencies()
                .iter()
                .map(|(span, h)| LatencySummary {
                    span: (*span).to_string(),
                    count: h.count(),
                    p50: SimDuration::from_ps(h.percentile(50)),
                    p90: SimDuration::from_ps(h.percentile(90)),
                    p99: SimDuration::from_ps(h.percentile(99)),
                })
                .collect(),
            timeline_window: m.timeline.window,
            timeline: m
                .timeline
                .tracks
                .iter()
                .map(|t| TimelineTrack {
                    kind: asan_sim::series::kind_label(t.kind).to_string(),
                    key: t.key,
                    samples: t.samples.clone(),
                })
                .collect(),
        }
    }
}

/// Emits the metrics JSON document for a set of benchmark runs:
/// `{"benchmarks":[{"name":…,"config":…,"metrics":{…}},…]}`, with each
/// `metrics` member being [`MetricsReport::to_json`]. Deterministic:
/// fixed field order, integral picoseconds.
pub fn metrics_json(rows: &[(&str, &str, &MetricsReport)]) -> String {
    let mut out = String::from("{\"benchmarks\":[");
    for (i, (name, config, m)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"config\":\"{config}\",\"metrics\":{}}}",
            m.to_json()
        ));
    }
    out.push_str("]}");
    out
}

/// Parses a metrics JSON document (as produced by [`metrics_json`])
/// back into rows.
///
/// Every `metrics` member must carry the schema version this crate was
/// built against ([`MetricsReport::JSON_SCHEMA`]); documents written by
/// an older or newer simulator are rejected rather than silently
/// misread.
///
/// # Errors
///
/// Returns a description of the first malformed, missing, or
/// wrong-schema field.
pub fn parse_metrics_doc(text: &str) -> Result<Vec<BenchMetrics>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let benches = doc
        .get("benchmarks")
        .and_then(json::Value::as_arr)
        .ok_or("missing \"benchmarks\" array")?;
    let field = |v: &json::Value, k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("missing numeric field {k:?}"))
    };
    let mut rows = Vec::new();
    for b in benches {
        let name = b
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or("missing \"name\"")?
            .to_string();
        let config = b
            .get("config")
            .and_then(json::Value::as_str)
            .ok_or("missing \"config\"")?
            .to_string();
        let m = b.get("metrics").ok_or("missing \"metrics\"")?;
        match m.get("schema").and_then(json::Value::as_u64) {
            Some(v) if v == u64::from(MetricsReport::JSON_SCHEMA) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported metrics schema version {v}: this analyzer reads \
                     version {} — re-run the matching `repro` to regenerate the \
                     document",
                    MetricsReport::JSON_SCHEMA
                ));
            }
            None => {
                return Err(format!(
                    "missing \"schema\" version in metrics: the document predates \
                     schema version {} or is not a metrics document",
                    MetricsReport::JSON_SCHEMA
                ));
            }
        }
        let p = m.get("phases").ok_or("missing \"phases\"")?;
        let phases = PhaseBreakdown {
            host_ps: field(p, "host_ps")?,
            fabric_ps: field(p, "fabric_ps")?,
            handler_ps: field(p, "handler_ps")?,
            storage_ps: field(p, "storage_ps")?,
            total_ps: field(p, "total_ps")?,
        };
        let lat = m.get("latency").ok_or("missing \"latency\"")?;
        let mut latency = Vec::new();
        if let json::Value::Obj(members) = lat {
            for (span, v) in members {
                latency.push(LatencySummary {
                    span: span.clone(),
                    count: field(v, "count")?,
                    p50: SimDuration::from_ps(field(v, "p50_ps")?),
                    p90: SimDuration::from_ps(field(v, "p90_ps")?),
                    p99: SimDuration::from_ps(field(v, "p99_ps")?),
                });
            }
        }
        let tl = m.get("timeline").ok_or("missing \"timeline\"")?;
        let timeline_window = SimDuration::from_ps(field(tl, "window_ps")?);
        let tracks = tl
            .get("tracks")
            .and_then(json::Value::as_arr)
            .ok_or("missing \"tracks\" array in timeline")?;
        let mut timeline = Vec::new();
        for t in tracks {
            let kind = t
                .get("kind")
                .and_then(json::Value::as_str)
                .ok_or("missing track \"kind\"")?
                .to_string();
            let key = field(t, "key")?;
            let windows = field(t, "windows")? as usize;
            if windows > asan_sim::series::MAX_WINDOWS {
                return Err(format!("track of {windows} windows exceeds the cap"));
            }
            let mut samples = vec![0u64; windows];
            let pairs = t
                .get("samples")
                .and_then(json::Value::as_arr)
                .ok_or("missing track \"samples\"")?;
            for pair in pairs {
                let pair = pair.as_arr().ok_or("track sample is not a pair")?;
                let (w, v) = match pair {
                    [w, v] => (
                        w.as_u64().ok_or("non-numeric sample window")? as usize,
                        v.as_u64().ok_or("non-numeric sample value")?,
                    ),
                    _ => return Err("track sample is not an [index, value] pair".into()),
                };
                *samples
                    .get_mut(w)
                    .ok_or("sample window out of track range")? = v;
            }
            timeline.push(TimelineTrack { kind, key, samples });
        }
        rows.push(BenchMetrics {
            name,
            config,
            phases,
            latency,
            timeline_window,
            timeline,
        });
    }
    Ok(rows)
}

/// Renders the paper-style per-phase time-breakdown table: one row per
/// benchmark × configuration, phase occupancy as a share of total run
/// time. Phases overlap in time, so rows need not sum to 100%.
pub fn phase_breakdown_report(rows: &[BenchMetrics]) -> String {
    let mut out = String::new();
    out.push_str("== Per-phase time breakdown (share of total run time) ==\n");
    out.push_str(&format!(
        "{:<20} {:<8} {:>7} {:>8} {:>9} {:>9} {:>12}\n",
        "benchmark", "config", "host%", "fabric%", "handler%", "storage%", "total"
    ));
    for r in rows {
        let p = &r.phases;
        out.push_str(&format!(
            "{:<20} {:<8} {:>6.1}% {:>7.1}% {:>8.1}% {:>8.1}% {:>12}\n",
            r.name,
            r.config,
            p.share(p.host_ps) * 100.0,
            p.share(p.fabric_ps) * 100.0,
            p.share(p.handler_ps) * 100.0,
            p.share(p.storage_ps) * 100.0,
            format!("{}", SimDuration::from_ps(p.total_ps)),
        ));
    }
    out
}

/// Renders the latency-percentile table: p50/p90/p99 per span kind for
/// every benchmark × configuration row.
pub fn latency_report(rows: &[BenchMetrics]) -> String {
    let mut out = String::new();
    out.push_str("== Latency percentiles (simulated time) ==\n");
    out.push_str(&format!(
        "{:<20} {:<8} {:<13} {:>9} {:>12} {:>12} {:>12}\n",
        "benchmark", "config", "span", "count", "p50", "p90", "p99"
    ));
    for r in rows {
        for l in &r.latency {
            out.push_str(&format!(
                "{:<20} {:<8} {:<13} {:>9} {:>12} {:>12} {:>12}\n",
                r.name,
                r.config,
                l.span,
                l.count,
                format!("{}", l.p50),
                format!("{}", l.p90),
                format!("{}", l.p99),
            ));
        }
    }
    out
}

/// Renders one track as a fixed-width sparkline: samples are bucketed
/// down to at most `width` characters (per-bucket maximum), `.` marks
/// an all-zero bucket, and non-zero buckets scale linearly into eight
/// block levels against the track's own maximum.
fn sparkline(samples: &[u64], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if samples.is_empty() {
        return String::new();
    }
    let per = samples.len().div_ceil(width).max(1);
    let buckets: Vec<u64> = samples
        .chunks(per)
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .collect();
    let max = buckets.iter().copied().max().unwrap_or(0);
    buckets
        .iter()
        .map(|&v| {
            if v == 0 {
                '.'
            } else {
                LEVELS[((v as u128 * 7) / max as u128) as usize]
            }
        })
        .collect()
}

/// Renders the flight-recorder timeline: per-track sparklines (one row
/// per resource, one character per window bucket) followed by the
/// top-K hotspot table — the busiest single windows across all
/// occupancy tracks, ranked by busy time. Deterministic: ties break by
/// (benchmark, config, kind, key, window).
pub fn timeline_report(rows: &[BenchMetrics]) -> String {
    const WIDTH: usize = 64;
    const TOP_K: usize = 10;
    let mut out = String::new();
    out.push_str("== Timeline (per-window activity; '.' = idle window) ==\n");
    for r in rows {
        if r.timeline.is_empty() {
            out.push_str(&format!(
                "-- {} / {}: no timeline data --\n",
                r.name, r.config
            ));
            continue;
        }
        out.push_str(&format!(
            "-- {} / {} (window {}) --\n",
            r.name, r.config, r.timeline_window,
        ));
        for t in &r.timeline {
            out.push_str(&format!(
                "{:<13} {:>5} |{}|\n",
                t.kind,
                t.key,
                sparkline(&t.samples, WIDTH),
            ));
        }
    }
    // Hotspots: occupancy tracks only — gauge samples are counts, not
    // picoseconds, and cannot be ranked on the same axis.
    let mut hot: Vec<(u64, &BenchMetrics, &TimelineTrack, usize)> = Vec::new();
    for r in rows {
        for t in &r.timeline {
            if t.kind == "queue_depth" {
                continue;
            }
            for (w, &v) in t.samples.iter().enumerate() {
                if v > 0 {
                    hot.push((v, r, t, w));
                }
            }
        }
    }
    hot.sort_by(|a, b| {
        b.0.cmp(&a.0).then_with(|| {
            (
                a.1.name.as_str(),
                a.1.config.as_str(),
                a.2.kind.as_str(),
                a.2.key,
                a.3,
            )
                .cmp(&(
                    b.1.name.as_str(),
                    b.1.config.as_str(),
                    b.2.kind.as_str(),
                    b.2.key,
                    b.3,
                ))
        })
    });
    out.push_str("\n== Top busy windows (occupancy tracks) ==\n");
    out.push_str(&format!(
        "{:<20} {:<8} {:<13} {:>5} {:>7} {:>12} {:>12}\n",
        "benchmark", "config", "track", "key", "window", "starts", "busy"
    ));
    for &(v, r, t, w) in hot.iter().take(TOP_K) {
        out.push_str(&format!(
            "{:<20} {:<8} {:<13} {:>5} {:>7} {:>12} {:>12}\n",
            r.name,
            r.config,
            t.kind,
            t.key,
            w,
            format!("{}", r.timeline_window * w as u64),
            format!("{}", SimDuration::from_ps(v)),
        ));
    }
    out
}

/// Extracts the headline speedups (active vs normal, active+pref vs
/// normal+pref) for EXPERIMENTS.md-style summaries.
pub fn speedups(runs: &[AppRun]) -> (f64, f64) {
    let get = |v: Variant| {
        runs.iter()
            .find(|r| r.variant == v)
            .expect("variant present")
            .exec
            .as_ps() as f64
    };
    (
        get(Variant::Normal) / get(Variant::Active),
        get(Variant::NormalPref) / get(Variant::ActivePref),
    )
}

/// One finished [`catalog::Run`]. It displays as its golden-file line,
/// `"{name} {config} {digest:016x}"`.
pub struct Finished {
    /// The row's name.
    pub name: String,
    /// The row's configuration.
    pub config: &'static str,
    /// Canonical stats digest.
    pub digest: u64,
    /// The run's metrics report.
    pub metrics: MetricsReport,
}

impl fmt::Display for Finished {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {:016x}", self.name, self.config, self.digest)
    }
}

/// Makes catalog rows on the worker pool and returns them in catalog
/// order, so every report built from them is the same at any worker
/// count.
pub fn run_catalog(rows: Vec<catalog::Run>) -> Vec<Finished> {
    let (labels, jobs): (Vec<_>, Vec<_>) = rows
        .into_iter()
        .map(|r| ((r.name, r.config), r.job))
        .unzip();
    let outcomes = pool::run_indexed(jobs, pool::default_workers());
    labels
        .into_iter()
        .zip(outcomes)
        .map(|((name, config), (digest, metrics))| Finished {
            name,
            config,
            digest,
            metrics,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::stats::TimeBreakdown;
    use asan_sim::{SimDuration, SimTime};

    fn fake(variant: Variant, exec_ns: u64, traffic: u64) -> AppRun {
        AppRun {
            variant,
            exec: SimTime::from_ns(exec_ns),
            host_breakdown: TimeBreakdown {
                busy: SimDuration::from_ns(exec_ns / 2),
                stall: SimDuration::from_ns(exec_ns / 4),
                idle: SimDuration::from_ns(exec_ns / 4),
            },
            switch_breakdowns: vec![],
            host_traffic: traffic,
            host_utilization: 0.75,
            link_bytes: 0,
            artifact: 0,
            stats_digest: 0,
            metrics: MetricsReport::default(),
            events: 0,
            peak_queue: 0,
            faults: asan_sim::faults::FaultStats::default(),
        }
    }

    #[test]
    fn overall_table_normalizes_to_normal() {
        let runs = vec![
            fake(Variant::Normal, 1000, 100),
            fake(Variant::Active, 500, 25),
        ];
        let t = overall_table("Figure X", &runs);
        assert!(t.contains("Figure X"));
        assert!(t.contains("normal"));
        assert!(t.contains("active"));
        assert!(t.contains("2.00"), "table:\n{t}");
        assert!(t.contains("0.250"), "traffic ratio:\n{t}");
    }

    #[test]
    fn breakdown_table_shows_shares() {
        let runs = vec![fake(Variant::NormalPref, 1000, 1)];
        let t = breakdown_table("Figure Y", &runs);
        assert!(t.contains("n+p-HP"));
        assert!(t.contains("50.0%"));
        assert!(t.contains("25.0%"));
    }

    #[test]
    fn overall_csv_has_header_and_rows() {
        let runs = vec![
            fake(Variant::Normal, 1000, 100),
            fake(Variant::Active, 500, 25),
        ];
        let csv = overall_csv("fig3", &runs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("experiment,config"));
        assert!(lines[1].starts_with("fig3,normal,1000000,1.000000"));
        assert!(lines[2].contains("fig3,active,500000,0.500000"));
    }

    fn fake_metrics() -> MetricsReport {
        let mut m = MetricsReport::default();
        for v in [1_000u64, 2_000, 4_000] {
            m.packet_e2e.record(v);
            m.handler_occupancy.record(v * 2);
        }
        m.disk_service.record(1_000_000);
        m.phases = PhaseBreakdown {
            host_ps: 500_000,
            fabric_ps: 7_000,
            handler_ps: 14_000,
            storage_ps: 1_000_000,
            total_ps: 2_000_000,
        };
        m
    }

    #[test]
    fn metrics_json_roundtrips_through_the_parser() {
        let m = fake_metrics();
        let doc = metrics_json(&[("grep", "normal", &m), ("grep", "active", &m)]);
        let rows = parse_metrics_doc(&doc).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "grep");
        assert_eq!(rows[1].config, "active");
        assert_eq!(rows[0].phases, m.phases);
        let direct = BenchMetrics::from_report("grep", "normal", &m);
        assert_eq!(rows[0], direct, "JSON roundtrip equals in-process summary");
        assert_eq!(rows[0].latency.len(), 5);
        assert_eq!(rows[0].latency[0].span, "packet");
        assert_eq!(rows[0].latency[0].count, 3);
    }

    #[test]
    fn phase_and_latency_reports_render() {
        let m = fake_metrics();
        let rows = vec![
            BenchMetrics::from_report("mpeg", "normal", &m),
            BenchMetrics::from_report("mpeg", "active", &m),
        ];
        let pt = phase_breakdown_report(&rows);
        assert!(pt.contains("benchmark"), "table:\n{pt}");
        assert!(pt.contains("mpeg"));
        assert!(pt.contains("25.0%"), "host share 0.5/2.0:\n{pt}");
        assert!(pt.contains("50.0%"), "storage share 1.0/2.0:\n{pt}");
        let lt = latency_report(&rows);
        assert!(lt.contains("packet"));
        assert!(lt.contains("p99"));
        assert!(lt.contains("disk"));
    }

    #[test]
    fn parse_metrics_doc_rejects_malformed_input() {
        assert!(parse_metrics_doc("{}").is_err());
        assert!(parse_metrics_doc("not json").is_err());
        assert!(parse_metrics_doc("{\"benchmarks\":[{\"name\":\"x\"}]}").is_err());
    }

    #[test]
    fn parse_metrics_doc_rejects_unknown_schema_versions() {
        // A v2 document with its version tampered to a future value:
        // the parser must refuse rather than misread.
        let m = fake_metrics();
        let good = metrics_json(&[("grep", "normal", &m)]);
        let future = good.replace("\"schema\":2,", "\"schema\":99,");
        let err = parse_metrics_doc(&future).expect_err("future schema rejected");
        assert!(
            err.contains("unsupported metrics schema version 99"),
            "error names the offending version: {err}"
        );
        assert!(
            err.contains("version 2"),
            "error names the supported version: {err}"
        );
        // A pre-schema document (no version field at all).
        let legacy = good.replace("\"schema\":2,", "");
        let err = parse_metrics_doc(&legacy).expect_err("versionless doc rejected");
        assert!(
            err.contains("missing \"schema\""),
            "clear missing-version error: {err}"
        );
    }

    #[test]
    fn parse_metrics_doc_reconstructs_sparse_timelines() {
        let mut m = fake_metrics();
        m.timeline.window = SimDuration::from_us(1);
        m.timeline.tracks.push(asan_sim::series::Track {
            kind: asan_sim::series::KIND_LINK_UTIL,
            key: 3,
            samples: vec![0, 250_000, 0, 900_000],
        });
        let doc = metrics_json(&[("grep", "active", &m)]);
        let rows = parse_metrics_doc(&doc).expect("parses");
        assert_eq!(rows[0].timeline_window, SimDuration::from_us(1));
        assert_eq!(
            rows[0].timeline,
            vec![TimelineTrack {
                kind: "link_util".into(),
                key: 3,
                samples: vec![0, 250_000, 0, 900_000],
            }],
            "sparse JSON decodes back to the dense track"
        );
        assert_eq!(rows[0], BenchMetrics::from_report("grep", "active", &m));
    }

    #[test]
    fn timeline_report_renders_sparklines_and_hotspots() {
        let mut m = fake_metrics();
        m.timeline.window = SimDuration::from_us(1);
        m.timeline.tracks.push(asan_sim::series::Track {
            kind: asan_sim::series::KIND_LINK_UTIL,
            key: 0,
            samples: vec![100, 0, 1_000_000],
        });
        m.timeline.tracks.push(asan_sim::series::Track {
            kind: asan_sim::series::KIND_QUEUE_DEPTH,
            key: 0,
            samples: vec![4, 9],
        });
        let rows = vec![BenchMetrics::from_report("reduce", "nca", &m)];
        let t = timeline_report(&rows);
        assert!(t.contains("reduce / nca"), "header:\n{t}");
        assert!(t.contains("link_util"), "track label:\n{t}");
        assert!(t.contains("|▁.█|"), "sparkline scales to track max:\n{t}");
        // Hotspot table: the busiest window is link 0, window 2, 1 us;
        // the queue gauge is excluded (counts, not picoseconds).
        assert!(t.contains("Top busy windows"), "table:\n{t}");
        let hot = t.split("Top busy windows").nth(1).unwrap();
        assert!(hot.contains("1.000us"), "busiest window value:\n{t}");
        assert!(!hot.contains("queue_depth"), "gauges excluded:\n{t}");
    }

    #[test]
    fn sparkline_buckets_wide_tracks_to_width() {
        let samples: Vec<u64> = (0..512).map(|i| i % 7).collect();
        let s = sparkline(&samples, 64);
        assert_eq!(s.chars().count(), 64, "512 windows bucket to 64 chars");
        assert_eq!(sparkline(&[], 64), "");
        assert_eq!(sparkline(&[0, 0], 64), "..");
    }

    #[test]
    fn speedups_extracts_ratios() {
        let runs = vec![
            fake(Variant::Normal, 1000, 1),
            fake(Variant::NormalPref, 800, 1),
            fake(Variant::Active, 500, 1),
            fake(Variant::ActivePref, 400, 1),
        ];
        let (s, sp) = speedups(&runs);
        assert!((s - 2.0).abs() < 1e-9);
        assert!((sp - 2.0).abs() < 1e-9);
    }
}
