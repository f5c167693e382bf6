//! The metric catalog: every metric the benchmark reports, its unit,
//! and which direction is better. `BENCHMARK.json` at the repository
//! root lists the same metrics; a test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    /// Unused for per-layer metrics.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    m(name, unit, Better::Lower, 0.0)
}

/// End-to-end metrics, all host time or host memory, measured with
/// detail spans off. A spread wider than a bound makes `compare` call
/// the metric unresolved rather than unchanged. The time bounds are wide
/// enough to hold the spread of ten runs on a loaded shared machine
/// (see the crate README).
pub const END_TO_END: [Metric; 4] = [
    m("wall_s", "s", Better::Lower, 0.25),
    m("events_per_s", "events/s", Better::Higher, 0.25),
    m("setup_s", "s", Better::Lower, 0.25),
    m("peak_rss_mb", "MiB", Better::Lower, 0.05),
];

/// Per-layer metrics from the traced run. Host times are per
/// iteration; counts and simulated times (`sim-ns`, `sim-ps`) are sums
/// (or merged percentiles) over the iteration's simulations and repeat
/// exactly.
pub const PER_LAYER: [Metric; 41] = [
    // Host time, from the spans around the public calls.
    layer("apps.data.ms", "ms"),
    layer("apps.reference.ms", "ms"),
    layer("core.build.ms", "ms"),
    layer("core.teardown.ms", "ms"),
    layer("core.run.self_ms", "ms"),
    layer("core.run.ns_per_event", "ns/event"),
    layer("trace.overhead_pct", "%"),
    m("trace.coverage_pct", "%", Better::Higher, 0.0),
    // Isolated per-operation probes.
    layer("sim.queue.ns_per_op.d128", "ns/op"),
    layer("sim.queue.ns_per_op.d8192", "ns/op"),
    layer("mem.cache.ns_per_access", "ns"),
    layer("mem.hierarchy.ns_per_load", "ns"),
    layer("net.crc32.ns_per_kb", "ns/KiB"),
    layer("apps.dfa.ns_per_kb", "ns/KiB"),
    layer("apps.md5.ns_per_kb", "ns/KiB"),
    layer("sim.rng.ns_per_draw", "ns"),
    // Counts and simulated time.
    layer("sim.events", "count"),
    layer("sim.queue.peak", "count"),
    layer("net.link_bytes", "B"),
    layer("net.packets", "count"),
    layer("net.hops.p50", "hops"),
    layer("net.credit_stall.count", "count"),
    layer("net.credit_stall.p99_ns", "sim-ns"),
    layer("core.handler.count", "count"),
    layer("core.handler.p99_ns", "sim-ns"),
    layer("core.buffer_wait.count", "count"),
    layer("core.buffer_wait.p99_ns", "sim-ns"),
    layer("io.disk.count", "count"),
    layer("io.disk.p99_ns", "sim-ns"),
    layer("phase.host_share", "share"),
    layer("phase.fabric_share", "share"),
    layer("phase.handler_share", "share"),
    layer("phase.storage_share", "share"),
    layer("faults.injected", "count"),
    m("faults.recovered", "count", Better::Higher, 0.0),
    layer("faults.degraded", "count"),
    layer("faults.retransmits", "count"),
    layer("faults.timeouts", "count"),
    layer("net.retransmit_ratio", "ratio"),
    layer("model.exec_ps", "sim-ps"),
    m("model.speedup", "x", Better::Higher, 0.0),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_bench::json::{self, Value};

    const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                let bound = match m.get("bound") {
                    Some(Value::Num(b)) => Some(*b),
                    _ => None,
                };
                (s("name"), s("unit"), s("better"), bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let (n, u, b) = (m.name.to_string(), m.unit.to_string(), m.better.label());
                (n, u, b.to_string(), Some(m.bound))
            })
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                let (n, u, b) = (m.name.to_string(), m.unit.to_string(), m.better.label());
                (n, u, b.to_string(), None)
            })
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
