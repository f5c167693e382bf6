//! Observability integration tests: trace sinks must never perturb
//! simulation results, sinks must capture well-formed spans, and the
//! metrics report must be populated for real benchmark runs.

use asan_core::cluster::{Cluster, ClusterConfig, Dest, FileId, HostCtx, HostMsg, HostProgram};
use asan_core::handler::{Handler, HandlerCtx};
use asan_core::metrics::MetricsReport;
use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::{HandlerId, LinkConfig, NodeId};
use asan_sim::perfetto::PerfettoSink;
use asan_sim::series::{KIND_LINK_UTIL, KIND_QUEUE_DEPTH};
use asan_sim::trace::{JsonlSink, NullSink, RingSink, SpanKind, TraceSink};

use asan_apps::runner::Variant;
use asan_apps::{grep, reduce};

/// Counts matching bytes on the switch, sends only the count home.
struct CountHandler {
    host: NodeId,
    count: u64,
    total: u64,
    expect: u64,
}
impl Handler for CountHandler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let data = ctx.payload();
        ctx.charge_stream(data.len(), 2);
        self.count += data.iter().filter(|&&b| b == b'x').count() as u64;
        self.total += data.len() as u64;
        if self.total >= self.expect {
            ctx.send(self.host, None, 0, &self.count.to_le_bytes());
        }
    }
}

/// Issues an active (mapped) read and waits for the handler's answer.
struct ActiveCount {
    file: FileId,
    sw: NodeId,
}
impl HostProgram for ActiveCount {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let len = ctx.file_len(self.file);
        ctx.read_file(
            self.file,
            0,
            len,
            Dest::Mapped {
                node: self.sw,
                handler: HandlerId::new(1),
                base_addr: 0,
            },
        );
    }
    fn on_message(&mut self, ctx: &mut HostCtx<'_>, _msg: &HostMsg) {
        ctx.finish();
    }
}

const FILE_BYTES: usize = 16 * 1024;

/// One host + one TCA + one active switch running a count handler: the
/// smallest cluster that produces packet, handler, disk, and buffer
/// spans in a single run.
fn build_active_cluster() -> Cluster {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch(SwitchSpec::paper());
    let h = b.add_host();
    let t = b.add_tca();
    b.connect(h, sw, LinkConfig::paper());
    b.connect(t, sw, LinkConfig::paper());
    let mut cl = Cluster::new(b, ClusterConfig::paper());
    let data: Vec<u8> = (0..FILE_BYTES)
        .map(|i| if i % 7 == 0 { b'x' } else { b'.' })
        .collect();
    let file = cl.add_file(t, data).unwrap();
    cl.register_handler(
        sw,
        HandlerId::new(1),
        Box::new(CountHandler {
            host: h,
            count: 0,
            total: 0,
            expect: FILE_BYTES as u64,
        }),
    )
    .unwrap();
    cl.set_program(h, Box::new(ActiveCount { file, sw }))
        .unwrap();
    cl
}

/// Runs the reference cluster with the given sink (or none) and
/// returns the stats digest and the metrics report.
fn run_with_sink(sink: Option<Box<dyn TraceSink>>) -> (u64, MetricsReport) {
    let mut cl = build_active_cluster();
    if let Some(s) = sink {
        cl.set_trace_sink(s);
    }
    let report = cl.run().unwrap();
    (cl.stats().digest(), cl.metrics(&report))
}

/// Tracing must be invisible to the simulation: the stats digest and
/// every metrics histogram (and the timeline folded into the metrics
/// digest) are bit-identical whether spans are discarded (no sink /
/// null sink) or recorded (ring / JSONL / Perfetto sink).
#[test]
fn digests_identical_across_all_sinks() {
    let jsonl_path =
        std::env::temp_dir().join(format!("asan-metrics-{}.jsonl", std::process::id()));
    let perfetto_path =
        std::env::temp_dir().join(format!("asan-metrics-{}.perfetto.json", std::process::id()));
    let (d_none, m_none) = run_with_sink(None);
    let (d_null, m_null) = run_with_sink(Some(Box::new(NullSink)));
    let (d_ring, m_ring) = run_with_sink(Some(Box::new(RingSink::new(1 << 16))));
    let (d_jsonl, m_jsonl) = run_with_sink(Some(Box::new(JsonlSink::create(&jsonl_path).unwrap())));
    let (d_perfetto, m_perfetto) =
        run_with_sink(Some(Box::new(PerfettoSink::create(&perfetto_path))));
    assert_eq!(d_none, d_null, "null sink perturbed the stats digest");
    assert_eq!(d_none, d_ring, "ring sink perturbed the stats digest");
    assert_eq!(d_none, d_jsonl, "jsonl sink perturbed the stats digest");
    assert_eq!(
        d_none, d_perfetto,
        "perfetto sink perturbed the stats digest"
    );
    assert_eq!(
        m_none.digest(),
        m_null.digest(),
        "null sink perturbed metrics"
    );
    assert_eq!(
        m_none.digest(),
        m_ring.digest(),
        "ring sink perturbed metrics"
    );
    assert_eq!(
        m_none.digest(),
        m_jsonl.digest(),
        "jsonl sink perturbed metrics"
    );
    assert_eq!(
        m_none.digest(),
        m_perfetto.digest(),
        "perfetto sink perturbed metrics"
    );
    let _ = std::fs::remove_file(&jsonl_path);
    let _ = std::fs::remove_file(&perfetto_path);
}

/// The windowed time-series is always on: every run carries link and
/// queue-depth tracks, and the timeline is identical with and without
/// a sink installed.
#[test]
fn timeline_is_always_on_and_sink_independent() {
    let (_, m_none) = run_with_sink(None);
    let (_, m_ring) = run_with_sink(Some(Box::new(RingSink::new(1 << 16))));
    let tl = &m_none.timeline;
    assert_eq!(
        tl.window,
        ClusterConfig::paper().timeline_window,
        "window comes from the cluster config"
    );
    assert!(
        tl.tracks_of(KIND_LINK_UTIL).next().is_some(),
        "no link-utilization track"
    );
    let q = tl
        .tracks_of(KIND_QUEUE_DEPTH)
        .next()
        .expect("no queue-depth track");
    assert!(
        q.samples.iter().any(|&v| v > 0),
        "queue gauge never sampled"
    );
    assert_eq!(tl, &m_ring.timeline, "sink changed the timeline");
}

/// Traced runs carry causal ids: every span of the active pipeline
/// belongs to a nonzero trace, and link/stall child spans reference
/// their packet span as parent.
#[test]
fn spans_carry_causal_trace_ids() {
    let mut cl = build_active_cluster();
    cl.set_trace_sink(Box::new(RingSink::new(1 << 16)));
    cl.run().unwrap();
    let ring = cl
        .trace_sink()
        .and_then(|s| s.as_any())
        .and_then(|a| a.downcast_ref::<RingSink>())
        .expect("ring sink");
    let spans: Vec<_> = ring.spans().copied().collect();
    let packet_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Packet)
        .map(|s| s.id)
        .collect();
    assert!(!packet_ids.is_empty());
    let mut saw_link_child = false;
    for s in &spans {
        match s.kind {
            SpanKind::Packet | SpanKind::Handler | SpanKind::Buffer => {
                assert_ne!(s.trace_id, 0, "untraced {:?} span: {s:?}", s.kind);
            }
            SpanKind::Link | SpanKind::Stall => {
                assert!(
                    packet_ids.contains(&s.parent),
                    "{:?} span not parented to a packet span: {s:?}",
                    s.kind
                );
                saw_link_child = true;
            }
            SpanKind::Disk => {} // archive writes aggregate chunks: untraced
        }
    }
    assert!(saw_link_child, "no per-hop link spans recorded");
    // The storage read of the mapped request is traced.
    assert!(
        spans
            .iter()
            .any(|s| s.kind == SpanKind::Disk && s.trace_id != 0),
        "storage read span untraced"
    );
}

/// The ring sink captures well-formed spans of every kind the active
/// storage pipeline produces, in nondecreasing start order.
#[test]
fn ring_sink_captures_well_formed_spans() {
    let mut cl = build_active_cluster();
    cl.set_trace_sink(Box::new(RingSink::new(1 << 16)));
    cl.run().unwrap();
    let ring = cl
        .trace_sink()
        .and_then(|s| s.as_any())
        .and_then(|a| a.downcast_ref::<RingSink>())
        .expect("installed sink should downcast to RingSink");
    assert!(!ring.is_empty(), "no spans recorded");
    let mut kinds = std::collections::BTreeSet::new();
    for span in ring.spans() {
        assert!(
            span.end >= span.start,
            "span ends before it starts: {span:?}"
        );
        kinds.insert(span.kind.label());
    }
    for kind in [
        SpanKind::Packet,
        SpanKind::Handler,
        SpanKind::Disk,
        SpanKind::Buffer,
    ] {
        assert!(
            kinds.contains(kind.label()),
            "no {} span recorded (got {kinds:?})",
            kind.label()
        );
    }
}

/// Every line the JSONL sink writes is a parseable JSON object with
/// the documented fields.
#[test]
fn jsonl_sink_writes_parseable_lines() {
    let path = std::env::temp_dir().join(format!("asan-spans-{}.jsonl", std::process::id()));
    let mut cl = build_active_cluster();
    cl.set_trace_sink(Box::new(JsonlSink::create(&path).unwrap()));
    cl.run().unwrap();
    drop(cl); // flush on drop
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "jsonl sink wrote nothing");
    for line in text.lines() {
        let v = asan_bench::json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        for key in [
            "kind", "node", "id", "start_ps", "end_ps", "bytes", "trace", "parent",
        ] {
            assert!(v.get(key).is_some(), "span line missing {key:?}: {line}");
        }
        let start = v
            .get("start_ps")
            .and_then(asan_bench::json::Value::as_u64)
            .unwrap();
        let end = v
            .get("end_ps")
            .and_then(asan_bench::json::Value::as_u64)
            .unwrap();
        assert!(end >= start, "span ends before it starts: {line}");
    }
}

/// Real benchmark runs populate the metrics report: packets and disk
/// service in every configuration, handler occupancy only when the
/// switches are active, and a nonzero phase breakdown.
#[test]
fn benchmarks_populate_metrics_report() {
    for variant in [Variant::Normal, Variant::Active] {
        let r = grep::run(variant, &grep::Params::small());
        let m = &r.metrics;
        assert!(m.packet_e2e.count() > 0, "{variant:?}: no packet spans");
        assert!(m.disk_service.count() > 0, "{variant:?}: no disk spans");
        assert!(m.phases.total_ps > 0, "{variant:?}: empty total");
        assert!(m.phases.host_ps > 0, "{variant:?}: empty host phase");
        assert!(m.phases.fabric_ps > 0, "{variant:?}: empty fabric phase");
        assert!(m.phases.storage_ps > 0, "{variant:?}: empty storage phase");
        if variant.is_active() {
            assert!(
                m.handler_occupancy.count() > 0,
                "active run recorded no handler spans"
            );
            assert!(
                m.phases.handler_ps > 0,
                "active run has empty handler phase"
            );
        } else {
            assert_eq!(
                m.handler_occupancy.count(),
                0,
                "normal run recorded handler spans"
            );
        }
        for (span, h) in m.latencies() {
            if h.count() == 0 {
                continue;
            }
            let (p50, p90, p99) = (h.percentile(50), h.percentile(90), h.percentile(99));
            assert!(
                p50 <= p90 && p90 <= p99 && p99 <= h.max(),
                "{variant:?}/{span}: percentiles out of order"
            );
            assert!(
                h.min() <= h.mean() && h.mean() <= h.max(),
                "{variant:?}/{span}: mean outside range"
            );
        }
    }
}

/// The collective-reduction runs carry a metrics report too, and the
/// active tree shows handler occupancy while the normal MST does not.
#[test]
fn reduce_runs_carry_metrics() {
    let normal = reduce::run(reduce::Mode::ReduceToOne, false, 8);
    let active = reduce::run(reduce::Mode::ReduceToOne, true, 8);
    assert!(normal.metrics.packet_e2e.count() > 0);
    assert_eq!(normal.metrics.handler_occupancy.count(), 0);
    assert!(active.metrics.handler_occupancy.count() > 0);
    assert!(active.metrics.phases.total_ps > 0);
}
