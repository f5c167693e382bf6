//! Perf-regression tracking: wall-clock samples per benchmark run,
//! emitted as `BENCH_PERF.json` and parsed back for reports.
//!
//! This is the only place outside `crates/bench/benches/` that reads
//! the wall clock, and it does so exclusively to time *real*
//! executions of the simulator — the harness's whole job. Simulated
//! results never depend on these readings: the JSON document carries
//! wall time, events/second and peak queue depth, all diagnostics.
//!
//! A committed `BENCH_PERF.json` from a full release run is the
//! trajectory: re-run `repro perf` on comparable hardware and diff the
//! `events_per_sec` column to see the simulator getting faster or
//! slower over time.

use crate::json::{self, Value};

/// Times one closure against the wall clock, returning its result and
/// the elapsed seconds. Harness-only: simulation code must never read
/// wall time (the `no-wall-clock` lint enforces this; the allowance
/// below is the perf harness's charter).
pub fn time_wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // asan-lint: allow(no-wall-clock)
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One benchmark × configuration wall-clock sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfSample {
    /// Benchmark name ("mpeg", "grep", …).
    pub name: String,
    /// Configuration label ("normal", "active").
    pub config: String,
    /// Topology the run simulated ([`asan_net::TopoSpec::label`]:
    /// "single-switch", "fat-tree-r16", …).
    pub topo: String,
    /// Wall-clock run time, integral microseconds.
    pub wall_us: u64,
    /// Events the simulation processed.
    pub events: u64,
    /// Simulation throughput, events per wall-clock second.
    pub events_per_sec: u64,
    /// High-water mark of the scheduler's pending-event queue.
    pub peak_queue: u64,
}

/// A full perf document: the samples plus sweep-level totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfDoc {
    /// Worker threads the sweep ran on.
    pub workers: u64,
    /// End-to-end wall time of the whole sweep, microseconds.
    pub total_wall_us: u64,
    /// Per-run samples, in canonical benchmark × config order.
    pub runs: Vec<PerfSample>,
}

/// Renders the perf JSON document (`BENCH_PERF.json`). Fixed field
/// order, integral values only, so diffs between trajectory points
/// stay readable.
pub fn perf_json(samples: &[PerfSample], total_wall_us: u64, workers: usize) -> String {
    let mut out = format!(
        "{{\"schema\":\"bench-perf-v2\",\"workers\":{workers},\
         \"total_wall_us\":{total_wall_us},\"runs\":["
    );
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"config\":\"{}\",\"topo\":\"{}\",\"wall_us\":{},\
             \"events\":{},\"events_per_sec\":{},\"peak_queue\":{}}}",
            s.name, s.config, s.topo, s.wall_us, s.events, s.events_per_sec, s.peak_queue
        ));
    }
    out.push_str("]}\n");
    out
}

/// Parses a `bench-perf-v2` document produced by [`perf_json`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub fn parse_perf_doc(text: &str) -> Result<PerfDoc, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let field = |v: &Value, k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing numeric field {k:?}"))
    };
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != "bench-perf-v2" {
        return Err(format!("unknown perf schema {schema:?}"));
    }
    let runs_arr = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("missing \"runs\" array")?;
    let mut runs = Vec::new();
    for r in runs_arr {
        runs.push(PerfSample {
            name: r
                .get("name")
                .and_then(Value::as_str)
                .ok_or("missing \"name\"")?
                .to_string(),
            config: r
                .get("config")
                .and_then(Value::as_str)
                .ok_or("missing \"config\"")?
                .to_string(),
            topo: r
                .get("topo")
                .and_then(Value::as_str)
                .ok_or("missing \"topo\"")?
                .to_string(),
            wall_us: field(r, "wall_us")?,
            events: field(r, "events")?,
            events_per_sec: field(r, "events_per_sec")?,
            peak_queue: field(r, "peak_queue")?,
        });
    }
    Ok(PerfDoc {
        workers: field(&doc, "workers")?,
        total_wall_us: field(&doc, "total_wall_us")?,
        runs,
    })
}

/// Renders the human perf table: one row per benchmark × config, plus
/// sweep totals.
pub fn perf_report(doc: &PerfDoc) -> String {
    let mut out = String::new();
    out.push_str("== Perf: wall-clock per benchmark run ==\n");
    out.push_str(&format!(
        "{:<20} {:<8} {:<14} {:>12} {:>12} {:>14} {:>11}\n",
        "benchmark", "config", "topology", "wall (ms)", "events", "events/sec", "peak queue"
    ));
    let mut events_total = 0u64;
    for s in &doc.runs {
        events_total += s.events;
        out.push_str(&format!(
            "{:<20} {:<8} {:<14} {:>12.2} {:>12} {:>14} {:>11}\n",
            s.name,
            s.config,
            s.topo,
            s.wall_us as f64 / 1000.0,
            s.events,
            s.events_per_sec,
            s.peak_queue,
        ));
    }
    let total_secs = doc.total_wall_us as f64 / 1e6;
    let agg = if total_secs > 0.0 {
        (events_total as f64 / total_secs) as u64
    } else {
        0
    };
    out.push_str(&format!(
        "total: {total_secs:.2} s wall on {} workers | {events_total} events | {agg} events/sec aggregate\n",
        doc.workers,
    ));
    out
}

/// Diffs two trajectory points: run `analyze perf <old> <new>` to see
/// the simulator getting faster or slower per benchmark. Runs are
/// matched by (name, config, topology); rows present on only one side
/// are listed as added/removed instead of silently dropped.
pub fn perf_diff(old: &PerfDoc, new: &PerfDoc) -> String {
    let key = |s: &PerfSample| (s.name.clone(), s.config.clone(), s.topo.clone());
    let mut out = String::new();
    out.push_str("== Perf diff: events/sec, old -> new ==\n");
    out.push_str(&format!(
        "{:<20} {:<8} {:<14} {:>14} {:>14} {:>9}\n",
        "benchmark", "config", "topology", "old ev/s", "new ev/s", "delta"
    ));
    for s in &new.runs {
        match old.runs.iter().find(|o| key(o) == key(s)) {
            Some(o) if o.events_per_sec > 0 => {
                let delta = (s.events_per_sec as f64 / o.events_per_sec as f64 - 1.0) * 100.0;
                out.push_str(&format!(
                    "{:<20} {:<8} {:<14} {:>14} {:>14} {:>+8.1}%\n",
                    s.name, s.config, s.topo, o.events_per_sec, s.events_per_sec, delta
                ));
            }
            Some(o) => {
                out.push_str(&format!(
                    "{:<20} {:<8} {:<14} {:>14} {:>14} {:>9}\n",
                    s.name, s.config, s.topo, o.events_per_sec, s.events_per_sec, "n/a"
                ));
            }
            None => {
                out.push_str(&format!(
                    "{:<20} {:<8} {:<14} {:>14} {:>14} {:>9}\n",
                    s.name, s.config, s.topo, "-", s.events_per_sec, "new"
                ));
            }
        }
    }
    for o in &old.runs {
        if !new.runs.iter().any(|s| key(s) == key(o)) {
            out.push_str(&format!(
                "{:<20} {:<8} {:<14} {:>14} {:>14} {:>9}\n",
                o.name, o.config, o.topo, o.events_per_sec, "-", "removed"
            ));
        }
    }
    let total = |d: &PerfDoc| d.total_wall_us.max(1) as f64 / 1e6;
    out.push_str(&format!(
        "total wall: {:.2} s -> {:.2} s ({:+.1}%) | workers {} -> {}\n",
        total(old),
        total(new),
        (total(new) / total(old) - 1.0) * 100.0,
        old.workers,
        new.workers,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, config: &str) -> PerfSample {
        PerfSample {
            name: name.to_string(),
            config: config.to_string(),
            topo: "single-switch".to_string(),
            wall_us: 1_500,
            events: 30_000,
            events_per_sec: 20_000_000,
            peak_queue: 42,
        }
    }

    #[test]
    fn perf_json_roundtrips_through_the_parser() {
        let samples = vec![sample("mpeg", "normal"), sample("mpeg", "active")];
        let text = perf_json(&samples, 3_000, 4);
        let doc = parse_perf_doc(&text).expect("parses");
        assert_eq!(doc.workers, 4);
        assert_eq!(doc.total_wall_us, 3_000);
        assert_eq!(doc.runs, samples);
    }

    #[test]
    fn perf_report_renders_rows_and_totals() {
        let doc = PerfDoc {
            workers: 2,
            total_wall_us: 2_000_000,
            runs: vec![sample("grep", "active")],
        };
        let t = perf_report(&doc);
        assert!(t.contains("grep"), "table:\n{t}");
        assert!(t.contains("active"));
        assert!(t.contains("1.50"), "wall ms:\n{t}");
        assert!(t.contains("2 workers"));
        assert!(t.contains("30000 events"));
    }

    #[test]
    fn parse_perf_doc_rejects_malformed_input() {
        assert!(parse_perf_doc("{}").is_err());
        assert!(parse_perf_doc("not json").is_err());
        assert!(parse_perf_doc("{\"schema\":\"bench-perf-v1\"}").is_err());
        assert!(
            parse_perf_doc("{\"schema\":\"bench-perf-v3\",\"workers\":1}").is_err(),
            "unknown schema must be rejected"
        );
    }

    #[test]
    fn parse_perf_doc_rejects_v1_as_unknown_schema() {
        let v1 = "{\"schema\":\"bench-perf-v1\",\"workers\":2,\"total_wall_us\":10,\
                  \"runs\":[{\"name\":\"grep\",\"config\":\"active\",\"wall_us\":5,\
                  \"events\":100,\"events_per_sec\":20,\"peak_queue\":3}]}";
        assert_eq!(
            parse_perf_doc(v1).unwrap_err(),
            "unknown perf schema \"bench-perf-v1\""
        );
    }

    #[test]
    fn perf_diff_matches_rows_and_flags_changes() {
        let old = PerfDoc {
            workers: 2,
            total_wall_us: 1_000_000,
            runs: vec![sample("grep", "active"), sample("tar", "normal")],
        };
        let mut faster = sample("grep", "active");
        faster.events_per_sec = 30_000_000;
        let mut fabric = sample("reduce-to-one", "active");
        fabric.topo = "fat-tree-r16".to_string();
        let new = PerfDoc {
            workers: 4,
            total_wall_us: 800_000,
            runs: vec![faster, fabric],
        };
        let d = perf_diff(&old, &new);
        assert!(d.contains("+50.0%"), "diff:\n{d}");
        assert!(d.contains("fat-tree-r16"), "diff:\n{d}");
        assert!(d.contains("new"), "added row flagged:\n{d}");
        assert!(d.contains("removed"), "removed row flagged:\n{d}");
        assert!(d.contains("workers 2 -> 4"), "totals:\n{d}");
    }

    #[test]
    fn time_wall_returns_closure_result() {
        let (v, secs) = time_wall(|| 7u32);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }
}
