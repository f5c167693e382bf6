//! The observability layer: the in-run probe and the end-of-run
//! metrics report.
//!
//! [`Probe`] is the single point every engine reports to while a run is
//! in flight: each timed interval of simulated work becomes one latency
//! sample in a [`LogHistogram`] and — when a [`TraceSink`] is installed
//! — one typed [`Span`]. [`MetricsReport`] is the end-of-run snapshot:
//! the five latency distributions (packet end-to-end, handler
//! occupancy, disk service, buffer wait, credit stall) plus the
//! per-phase time breakdown the paper's evaluation figures are built
//! from.
//!
//! Instrumentation is observation-only: nothing here schedules events
//! or advances clocks, so golden digests are bit-identical whether a
//! sink is installed or not. All times are simulated picoseconds
//! ([`SimTime`]); `clippy.toml` disallows wall-clock reads.

use std::collections::BTreeMap;
use std::fmt;

use asan_net::{Hop, NodeId};
use asan_sim::faults::fnv1a_fold;
use asan_sim::hist::LogHistogram;
use asan_sim::series::{self, TimeSeries, Timeline};
use asan_sim::trace::{Span, SpanKind, TraceCtx, TraceSink};
use asan_sim::{SimDuration, SimTime};

/// Where the simulated cycles of a run went, one bucket per pipeline
/// phase. The buckets measure *occupancy*, not a partition: phases
/// overlap in time (a packet crosses the fabric while a disk seeks),
/// so the shares can sum past 100% of `total_ps` — exactly like the
/// stacked per-component bars in the paper's breakdown figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Host CPU busy + cache-stall picoseconds, summed over hosts.
    pub host_ps: u64,
    /// Picoseconds packets spent crossing the fabric (sum of packet
    /// end-to-end spans).
    pub fabric_ps: u64,
    /// Picoseconds switch handlers occupied engine CPUs (sum of
    /// handler-occupancy spans, including fallback engines).
    pub handler_ps: u64,
    /// Picoseconds disks spent servicing requests (sum of disk-service
    /// spans).
    pub storage_ps: u64,
    /// Total simulated run time (the drain time).
    pub total_ps: u64,
}

impl PhaseBreakdown {
    /// `part_ps` as a fraction of the total run time (0 when the run
    /// was empty).
    pub fn share(&self, part_ps: u64) -> f64 {
        if self.total_ps == 0 {
            0.0
        } else {
            part_ps as f64 / self.total_ps as f64
        }
    }
}

/// The end-of-run metrics snapshot: latency distributions plus the
/// per-phase time breakdown. Produced by
/// [`Cluster::metrics`](crate::cluster::Cluster::metrics) alongside
/// [`ClusterStats`](crate::stats::ClusterStats).
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Packet end-to-end latency (fabric injection → last byte
    /// delivered), all delivered packets.
    pub packet_e2e: LogHistogram,
    /// Handler occupancy (dispatch start → invocation complete),
    /// including host-side fallback engines.
    pub handler_occupancy: LogHistogram,
    /// Disk service time (request issue → service done), reads and
    /// aggregated archive writes.
    pub disk_service: LogHistogram,
    /// Buffer-allocation wait (dispatch request → buffer granted);
    /// zero when a buffer was free.
    pub buffer_wait: LogHistogram,
    /// Credit-stall durations on fabric links (merged over every link
    /// direction).
    pub credit_stall: LogHistogram,
    /// Links traversed per delivered packet (unitless counts, not
    /// picoseconds): 1–2 on a single switch, deeper on multi-switch
    /// fabrics — the per-switch transit dimension of a run.
    pub packet_hops: LogHistogram,
    /// Where the run's simulated cycles went.
    pub phases: PhaseBreakdown,
    /// Windowed time-series telemetry: per-link utilization and
    /// send-wait occupancy, per-node handler occupancy, and the event
    /// queue's per-window depth high-water mark.
    pub timeline: Timeline,
}

impl MetricsReport {
    /// FNV-1a digest over every counter: the six histograms' full
    /// bucket state, each phase bucket and the timeline, in fixed
    /// order. Keeps the metrics layer under the same determinism
    /// contract as `ClusterStats::digest`; the exhaustive destructure
    /// makes a new field a compile error until it is folded in.
    pub fn digest(&self) -> u64 {
        let MetricsReport {
            packet_e2e,
            handler_occupancy,
            disk_service,
            buffer_wait,
            credit_stall,
            packet_hops,
            phases,
            timeline,
        } = self;
        let h = [
            packet_e2e,
            handler_occupancy,
            disk_service,
            buffer_wait,
            credit_stall,
            packet_hops,
        ]
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, hist| hist.fold_digest(h));
        let PhaseBreakdown {
            host_ps,
            fabric_ps,
            handler_ps,
            storage_ps,
            total_ps,
        } = *phases;
        let h = [host_ps, fabric_ps, handler_ps, storage_ps, total_ps]
            .into_iter()
            .fold(h, fnv1a_fold);
        timeline.digest(h)
    }

    /// The named latency histograms, in canonical order.
    pub fn latencies(&self) -> [(&'static str, &LogHistogram); 5] {
        [
            ("packet", &self.packet_e2e),
            ("handler", &self.handler_occupancy),
            ("disk", &self.disk_service),
            ("buffer_wait", &self.buffer_wait),
            ("credit_stall", &self.credit_stall),
        ]
    }

    /// The metrics-JSON schema version emitted by [`Self::to_json`].
    /// Bumped whenever the document shape changes; the `asan-bench`
    /// analyzer refuses documents with any other version.
    pub const JSON_SCHEMA: u32 = 2;

    /// Deterministic JSON encoding (fixed field order, integral
    /// picoseconds) for the `asan-bench` analyzer. The leading
    /// `schema` field carries [`Self::JSON_SCHEMA`].
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema\":{},\"phases\":{{", Self::JSON_SCHEMA);
        let PhaseBreakdown {
            host_ps,
            fabric_ps,
            handler_ps,
            storage_ps,
            total_ps,
        } = self.phases;
        out.push_str(&format!(
            "\"host_ps\":{host_ps},\"fabric_ps\":{fabric_ps},\
             \"handler_ps\":{handler_ps},\"storage_ps\":{storage_ps},\
             \"total_ps\":{total_ps}}},\"latency\":{{"
        ));
        for (i, (name, h)) in self.latencies().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"p50_ps\":{},\"p90_ps\":{},\
                 \"p99_ps\":{},\"max_ps\":{},\"mean_ps\":{}}}",
                h.count(),
                h.percentile(50),
                h.percentile(90),
                h.percentile(99),
                h.max(),
                h.mean(),
            ));
        }
        out.push_str(&format!(
            "}},\"packet_hops\":{{\"count\":{},\"p50\":{},\"max\":{},\"mean\":{}}},\
             \"timeline\":{}}}",
            self.packet_hops.count(),
            self.packet_hops.percentile(50),
            self.packet_hops.max(),
            self.packet_hops.mean(),
            self.timeline.to_json(),
        ));
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.phases;
        writeln!(
            f,
            "  phase occupancy (of {} total):",
            SimDuration::from_ps(p.total_ps)
        )?;
        for (name, ps) in [
            ("host compute", p.host_ps),
            ("fabric", p.fabric_ps),
            ("switch handler", p.handler_ps),
            ("storage", p.storage_ps),
        ] {
            writeln!(
                f,
                "    {name:<15} {:>12} {:>6.1}%",
                format!("{}", SimDuration::from_ps(ps)),
                p.share(ps) * 100.0,
            )?;
        }
        writeln!(
            f,
            "  latency percentiles:\n    {:<15} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "p50", "p90", "p99"
        )?;
        for (name, h) in self.latencies() {
            writeln!(
                f,
                "    {name:<15} {:>8} {:>12} {:>12} {:>12}",
                h.count(),
                format!("{}", SimDuration::from_ps(h.percentile(50))),
                format!("{}", SimDuration::from_ps(h.percentile(90))),
                format!("{}", SimDuration::from_ps(h.percentile(99))),
            )?;
        }
        writeln!(
            f,
            "  fabric hops/packet: p50 {} max {} over {} packets",
            self.packet_hops.percentile(50),
            self.packet_hops.max(),
            self.packet_hops.count(),
        )?;
        Ok(())
    }
}

/// The in-run observability probe: engines report every timed interval
/// here. Histograms, the time-series, span ids and trace ids always
/// advance (they are cheap and deterministic, and the metrics digest
/// must not depend on whether anyone is watching); spans reach a
/// [`TraceSink`] only when one is installed, so the default
/// configuration pays no formatting or I/O cost.
#[derive(Debug, Default)]
pub struct Probe {
    sink: Option<Box<dyn TraceSink>>,
    /// Scratch buffer for per-hop records, reused across transmits
    /// (always empty between events, so never snapshotted).
    hop_buf: Vec<Hop>,
    packet_e2e: LogHistogram,
    handler_occupancy: LogHistogram,
    disk_service: LogHistogram,
    buffer_wait: LogHistogram,
    packet_hops: LogHistogram,
    /// Deterministic span sequence number (emission order).
    next_id: u64,
    /// Deterministic causal trace-id allocator; 0 means "untraced", so
    /// the first allocated trace is 1.
    next_trace: u64,
    /// Trace id of each in-flight I/O request, keyed by request id;
    /// entries are dropped when the request completes.
    req_traces: BTreeMap<u64, u64>,
    /// Always-on windowed time-series telemetry.
    series: TimeSeries,
}

// The histograms, the span and trace cursors, live request traces,
// and the time-series. The trace sink is a process-local resource and
// is not captured (a restored run re-installs one if tracing is
// enabled); the hop buffer is per-packet scratch.
asan_sim::snap_fields!(Probe {
    sink: skip,
    hop_buf: skip,
    packet_e2e,
    handler_occupancy,
    disk_service,
    buffer_wait,
    packet_hops,
    next_id,
    next_trace,
    req_traces,
    series,
});

impl Probe {
    /// Installs `sink`; subsequent spans are delivered to it.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Removes and returns the installed sink.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// The installed sink, for read-back (e.g. downcasting a
    /// `RingSink` in tests).
    pub fn sink(&self) -> Option<&dyn TraceSink> {
        self.sink.as_deref()
    }

    /// Flushes the sink (end of run).
    pub fn flush(&mut self) {
        if let Some(s) = self.sink.as_mut() {
            s.flush();
        }
    }

    /// Allocates a fresh causal trace id, rooting a new lifecycle
    /// (e.g. one host send with all its MTU chunks).
    pub(crate) fn fresh_trace(&mut self) -> TraceCtx {
        self.next_trace += 1;
        TraceCtx {
            trace: self.next_trace,
            parent: 0,
        }
    }

    /// The trace id of I/O request `req`, allocated on first use. Every
    /// span of the request's lifecycle — issue packet, retransmits,
    /// disk service, mapped-handler work, completion notice — shares
    /// it, so a flight-recorder query for the trace reconstructs the
    /// whole causal chain.
    pub(crate) fn trace_for_req(&mut self, req: u64) -> TraceCtx {
        if let Some(&trace) = self.req_traces.get(&req) {
            return TraceCtx { trace, parent: 0 };
        }
        let ctx = self.fresh_trace();
        self.req_traces.insert(req, ctx.trace);
        ctx
    }

    /// Forgets request `req`'s trace mapping (the request completed).
    pub(crate) fn end_req(&mut self, req: u64) {
        self.req_traces.remove(&req);
    }

    /// Hands out the reusable hop-record buffer (empty). Return it with
    /// [`Self::put_hop_buf`] after the transmit so the next packet
    /// reuses the allocation.
    pub(crate) fn take_hop_buf(&mut self) -> Vec<Hop> {
        std::mem::take(&mut self.hop_buf)
    }

    /// Returns the hop buffer taken by [`Self::take_hop_buf`].
    pub(crate) fn put_hop_buf(&mut self, mut buf: Vec<Hop>) {
        buf.clear();
        self.hop_buf = buf;
    }

    /// Resizes the time-series window (only before any sample exists;
    /// see [`TimeSeries::set_window`]).
    pub(crate) fn set_timeline_window(&mut self, window: SimDuration) {
        self.series.set_window(window);
    }

    /// Records the scheduler's pending-event count at instant `t` into
    /// the queue-depth track (per-window high-water mark).
    pub(crate) fn sample_queue_depth(&mut self, t: SimTime, depth: u64) {
        self.series.gauge_max(series::KIND_QUEUE_DEPTH, 0, t, depth);
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one Span, passed unpacked by every span helper"
    )]
    fn span(
        &mut self,
        kind: SpanKind,
        node: u64,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        trace_id: u64,
        parent: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&Span {
                kind,
                node,
                id,
                start,
                end,
                bytes,
                trace_id,
                parent,
            });
        }
        id
    }

    /// One packet delivered: injected at `start`, last byte at `end`,
    /// crossing the recorded `hops`. Emits the packet span plus one
    /// link-occupancy child span per hop (and a stall child when the
    /// hop waited before its wire accepted the bytes), and feeds the
    /// link-utilization and send-wait time-series tracks.
    pub(crate) fn packet(
        &mut self,
        dst: NodeId,
        start: SimTime,
        end: SimTime,
        wire: u64,
        hops: &[Hop],
        ctx: TraceCtx,
    ) {
        self.packet_e2e.record_duration(end.saturating_since(start));
        self.packet_hops.record(hops.len() as u64);
        let pid = self.span(
            SpanKind::Packet,
            dst.0 as u64,
            start,
            end,
            wire,
            ctx.trace,
            ctx.parent,
        );
        for &h in hops {
            self.series
                .add_occupancy(series::KIND_LINK_UTIL, h.link as u64, h.start, h.busy_until);
            self.span(
                SpanKind::Link,
                h.from.0 as u64,
                h.start,
                h.done,
                wire,
                ctx.trace,
                pid,
            );
            if h.wait > SimDuration::ZERO {
                let waited_from = h.start - h.wait;
                self.series.add_occupancy(
                    series::KIND_CREDIT_STALL,
                    h.link as u64,
                    waited_from,
                    h.start,
                );
                self.span(
                    SpanKind::Stall,
                    h.from.0 as u64,
                    waited_from,
                    h.start,
                    wire,
                    ctx.trace,
                    pid,
                );
            }
        }
    }

    /// One handler invocation on `node`'s engine. Also feeds the
    /// per-node handler-occupancy time-series track.
    pub(crate) fn handler(
        &mut self,
        node: NodeId,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        ctx: TraceCtx,
    ) {
        self.handler_occupancy
            .record_duration(end.saturating_since(start));
        self.series
            .add_occupancy(series::KIND_HANDLER_OCC, node.0 as u64, start, end);
        self.span(
            SpanKind::Handler,
            node.0 as u64,
            start,
            end,
            bytes,
            ctx.trace,
            ctx.parent,
        );
    }

    /// One disk request serviced by `tca`'s array.
    pub(crate) fn disk(
        &mut self,
        tca: NodeId,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        ctx: TraceCtx,
    ) {
        self.disk_service
            .record_duration(end.saturating_since(start));
        self.span(
            SpanKind::Disk,
            tca.0 as u64,
            start,
            end,
            bytes,
            ctx.trace,
            ctx.parent,
        );
    }

    /// One data buffer held on `node` from `seize` (grant) to
    /// `release`, after waiting `wait` for a free buffer.
    pub(crate) fn buffer(
        &mut self,
        node: NodeId,
        seize: SimTime,
        release: SimTime,
        wait: SimDuration,
        bytes: u64,
        ctx: TraceCtx,
    ) {
        self.buffer_wait.record_duration(wait);
        self.span(
            SpanKind::Buffer,
            node.0 as u64,
            seize,
            release,
            bytes,
            ctx.trace,
            ctx.parent,
        );
    }

    /// Copy of the probe-side histograms and timeline as a
    /// partially filled report (credit stalls and phases are merged in
    /// by [`Cluster::metrics`](crate::cluster::Cluster::metrics)).
    pub(crate) fn report(&self) -> MetricsReport {
        MetricsReport {
            packet_e2e: self.packet_e2e.clone(),
            handler_occupancy: self.handler_occupancy.clone(),
            disk_service: self.disk_service.clone(),
            buffer_wait: self.buffer_wait.clone(),
            credit_stall: LogHistogram::new(),
            packet_hops: self.packet_hops.clone(),
            phases: PhaseBreakdown::default(),
            timeline: self.series.timeline(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::snap::{Snap, SnapReader, SnapWriter};
    use asan_sim::trace::RingSink;

    fn hop(link: u32, from: u16, to: u16, wait_ns: u64, start_ns: u64, ser_ns: u64) -> Hop {
        let start = SimTime::from_ns(start_ns);
        Hop {
            link,
            from: NodeId(from),
            to: NodeId(to),
            wait: SimDuration::from_ns(wait_ns),
            start,
            busy_until: start + SimDuration::from_ns(ser_ns),
            done: start + SimDuration::from_ns(ser_ns + 10),
        }
    }

    #[test]
    fn probe_records_histograms_without_a_sink() {
        let mut p = Probe::default();
        let hops = [hop(0, 1, 9, 0, 0, 2), hop(1, 9, 2, 0, 2, 2)];
        p.packet(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_ns(5),
            528,
            &hops,
            TraceCtx::NONE,
        );
        p.handler(
            NodeId(2),
            SimTime::from_ns(5),
            SimTime::from_ns(9),
            512,
            TraceCtx::NONE,
        );
        p.disk(
            NodeId(3),
            SimTime::ZERO,
            SimTime::from_us(2),
            4096,
            TraceCtx::NONE,
        );
        p.buffer(
            NodeId(2),
            SimTime::from_ns(5),
            SimTime::from_ns(9),
            SimDuration::from_ns(1),
            512,
            TraceCtx::NONE,
        );
        let m = p.report();
        assert_eq!(m.packet_e2e.count(), 1);
        assert_eq!(m.handler_occupancy.count(), 1);
        assert_eq!(m.disk_service.count(), 1);
        assert_eq!(m.buffer_wait.count(), 1);
        assert_eq!(m.buffer_wait.max(), 1000);
        assert_eq!(m.packet_hops.count(), 1);
        assert_eq!(m.packet_hops.max(), 2);
        assert!(p.sink().is_none());
        // The hops fed the always-on link-utilization timeline.
        assert_eq!(m.timeline.tracks_of(series::KIND_LINK_UTIL).count(), 2);
    }

    #[test]
    fn probe_delivers_spans_to_the_sink_in_order() {
        let mut p = Probe::default();
        p.set_sink(Box::new(RingSink::new(16)));
        let ctx = p.fresh_trace();
        p.packet(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_ns(5),
            528,
            &[hop(3, 0, 1, 2, 2, 1)],
            ctx,
        );
        p.disk(
            NodeId(3),
            SimTime::ZERO,
            SimTime::from_us(2),
            4096,
            TraceCtx::NONE,
        );
        let ring = p
            .sink()
            .and_then(|s| s.as_any())
            .and_then(|a| a.downcast_ref::<RingSink>())
            .expect("ring sink");
        // Packet span, its link child, the stall child (wait > 0), then
        // the unrelated disk span — ids in emission order.
        let kinds: Vec<SpanKind> = ring.spans().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Packet,
                SpanKind::Link,
                SpanKind::Stall,
                SpanKind::Disk
            ]
        );
        let ids: Vec<u64> = ring.spans().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let spans: Vec<Span> = ring.spans().copied().collect();
        assert_eq!(spans[0].trace_id, 1);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].trace_id, 1);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        // The stall child covers the wait leading into the hop start.
        assert_eq!(spans[2].start, SimTime::ZERO);
        assert_eq!(spans[2].end, SimTime::from_ns(2));
        assert_eq!(spans[3].trace_id, 0);
    }

    #[test]
    fn trace_ids_are_stable_per_request_and_released_on_end() {
        let mut p = Probe::default();
        let a = p.trace_for_req(7);
        let b = p.trace_for_req(7);
        assert_eq!(a.trace, b.trace);
        let c = p.trace_for_req(9);
        assert_ne!(a.trace, c.trace);
        p.end_req(7);
        let d = p.trace_for_req(7);
        assert_ne!(a.trace, d.trace, "completed request gets a new trace");
        assert_eq!(p.fresh_trace().trace, d.trace + 1);
    }

    #[test]
    fn probe_state_snapshot_round_trips_traces_and_series() {
        let mut p = Probe::default();
        let ctx = p.trace_for_req(42);
        p.packet(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_ns(5),
            528,
            &[hop(0, 0, 1, 0, 0, 3)],
            ctx,
        );
        p.sample_queue_depth(SimTime::from_ns(3), 17);
        let mut w = SnapWriter::new();
        p.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut q = Probe::default();
        let mut r = SnapReader::new(&bytes).unwrap();
        q.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(q.trace_for_req(42).trace, ctx.trace);
        assert_eq!(q.report().timeline, p.report().timeline);
        assert_eq!(q.report().digest(), p.report().digest());
    }

    #[test]
    fn digest_covers_phases_and_histograms() {
        let mut a = MetricsReport::default();
        let b = MetricsReport::default();
        assert_eq!(a.digest(), b.digest());
        a.phases.handler_ps = 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = MetricsReport::default();
        c.packet_e2e.record(5);
        assert_ne!(c.digest(), b.digest());
        let mut d = MetricsReport::default();
        d.timeline.tracks.push(asan_sim::series::Track {
            kind: series::KIND_LINK_UTIL,
            key: 0,
            samples: vec![1],
        });
        assert_ne!(d.digest(), b.digest(), "digest covers the timeline");
    }

    #[test]
    fn json_has_fixed_shape() {
        let mut m = MetricsReport::default();
        m.packet_e2e.record(1000);
        m.phases.total_ps = 2000;
        let j = m.to_json();
        assert!(j.starts_with("{\"schema\":2,\"phases\":{\"host_ps\":0,"));
        assert!(j.contains("\"total_ps\":2000"));
        assert!(j.contains("\"packet\":{\"count\":1,\"p50_ps\":1000,"));
        assert!(j.contains("\"credit_stall\":{\"count\":0,"));
        assert!(j.ends_with("\"timeline\":{\"window_ps\":0,\"tracks\":[]}}"));
    }

    #[test]
    fn display_renders_phase_and_percentile_tables() {
        let mut m = MetricsReport::default();
        m.packet_e2e.record(1_000_000);
        m.phases = PhaseBreakdown {
            host_ps: 500,
            fabric_ps: 1_000_000,
            handler_ps: 0,
            storage_ps: 0,
            total_ps: 2_000_000,
        };
        let text = m.to_string();
        assert!(text.contains("phase occupancy"));
        assert!(text.contains("host compute"));
        assert!(text.contains("50.0%"), "text:\n{text}");
        assert!(text.contains("packet"));
        assert!(text.contains("credit_stall"));
    }
}
