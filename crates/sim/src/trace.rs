//! Structured trace spans and the sinks that receive them.
//!
//! The observability layer replaces the old on/off `eprintln!` tracer
//! with typed **spans**: a [`Span`] names one timed interval of
//! simulated work — a packet crossing the fabric, a handler occupying a
//! switch CPU, a disk servicing a request, a data buffer held between
//! seize and release. Engines emit spans; a [`TraceSink`] decides what
//! happens to them.
//!
//! Three sinks ship with the simulator:
//!
//! * [`NullSink`] — drops everything (the zero-cost default),
//! * [`JsonlSink`] — writes one deterministic JSON line per span to a
//!   file (a run's `ASAN_TRACE=<dir>/{tag}.jsonl` file is one),
//! * [`RingSink`] — keeps the last `cap` spans in memory for tests and
//!   interactive inspection.
//!
//! # Determinism rules
//!
//! Spans carry **simulated time only** ([`SimTime`], picoseconds).
//! Sinks must not read wall-clock time, environment state, or any other
//! ambient input while formatting (`clippy.toml` disallows the host
//! clock, which enforces the first of these): a trace file produced by
//! two runs of the same configuration must be byte-for-byte identical,
//! and CI diffs exactly that. Instrumentation must also never *change*
//! the simulation — a sink observes timings, it does not schedule
//! events — so golden digests are bit-identical with any sink
//! installed.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::time::SimTime;

/// What kind of timed interval a [`Span`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// A packet, from fabric injection to last-byte delivery.
    Packet,
    /// A handler invocation, from dispatch start to completion.
    Handler,
    /// A disk request, from issue to service done.
    Disk,
    /// A data buffer, from seize (grant) to release.
    Buffer,
    /// One hop of a packet across a single link (child of the packet's
    /// end-to-end span).
    Link,
    /// Time a send spent waiting before a link accepted it — credit
    /// exhaustion, wire busy, or an outage deferral (child of the
    /// packet's end-to-end span).
    Stall,
}

impl SpanKind {
    /// Stable lower-case label, used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Packet => "packet",
            SpanKind::Handler => "handler",
            SpanKind::Disk => "disk",
            SpanKind::Buffer => "buffer",
            SpanKind::Link => "link",
            SpanKind::Stall => "stall",
        }
    }

    /// Stable small integer for each kind — the Perfetto exporter's
    /// `tid` derivation and any fixed-width encoding use this, so the
    /// values are part of the export contract and never reordered.
    pub fn index(self) -> u64 {
        match self {
            SpanKind::Packet => 0,
            SpanKind::Handler => 1,
            SpanKind::Disk => 2,
            SpanKind::Buffer => 3,
            SpanKind::Link => 4,
            SpanKind::Stall => 5,
        }
    }
}

/// Causal trace context carried alongside a span: which logical flow
/// (trace) the span belongs to and which span caused it.
///
/// Trace ids are allocated deterministically from simulation state
/// (never wall clock): the probe hands out consecutive ids starting at
/// 1, and id 0 means "untraced" — work that is not attributable to a
/// single flow (e.g. aggregated archive writes that combine many
/// packets). `parent` is the span id of the causing span within the
/// same trace, or 0 for a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The flow this span belongs to (0 = untraced).
    pub trace: u64,
    /// Span id of the causing span (0 = root of its trace).
    pub parent: u64,
}

impl TraceCtx {
    /// The untraced context: no flow, no parent.
    pub const NONE: TraceCtx = TraceCtx {
        trace: 0,
        parent: 0,
    };
}

/// One timed interval of simulated work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What this interval measures.
    pub kind: SpanKind,
    /// The node the work is attributed to (destination node for
    /// packets, the engine's node for handlers/buffers, the TCA for
    /// disk requests).
    pub node: u64,
    /// Deterministic per-kind sequence number (emission order).
    pub id: u64,
    /// When the interval began.
    pub start: SimTime,
    /// When the interval ended.
    pub end: SimTime,
    /// Bytes involved (wire bytes, payload bytes, or request length).
    pub bytes: u64,
    /// The flow (trace) this span belongs to; 0 = untraced. Allocated
    /// deterministically from simulation state, never wall clock.
    pub trace_id: u64,
    /// Span id of the causing span within the same trace; 0 = root.
    pub parent: u64,
}

impl Span {
    /// The canonical JSONL encoding: fixed field order, integral
    /// picoseconds, no floats — byte-identical across runs and
    /// platforms.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"node\":{},\"id\":{},\"start_ps\":{},\"end_ps\":{},\
             \"bytes\":{},\"trace\":{},\"parent\":{}}}",
            self.kind.label(),
            self.node,
            self.id,
            self.start.as_ps(),
            self.end.as_ps(),
            self.bytes,
            self.trace_id,
            self.parent,
        )
    }
}

/// Receives spans as engines emit them.
///
/// The contract: `record` must be deterministic (no wall clock, no
/// randomness, no environment reads), must not panic on any span, and
/// must not feed anything back into the simulation. `flush` is called
/// once at the end of a run.
pub trait TraceSink {
    /// Receives one span.
    fn record(&mut self, span: &Span);

    /// Flushes buffered output (end of run).
    fn flush(&mut self) {}

    /// Downcast support, so tests can read a concrete sink back out of
    /// a `Box<dyn TraceSink>`. Sinks meant for inspection return
    /// `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

impl fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<trace sink>")
    }
}

/// The zero-cost sink: every span is dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _span: &Span) {}
}

/// A bounded in-memory sink keeping the most recent `cap` spans.
///
/// # Capacity and eviction semantics
///
/// The ring holds **exactly the last `cap` spans recorded**, in
/// emission order. Recording into a full ring evicts the *oldest*
/// retained span (FIFO) before the new span is appended — one eviction
/// per record, never a batch. Consequences callers rely on:
///
/// * [`RingSink::spans`] always iterates oldest → newest, and that
///   order is the probe's emission order restricted to the retained
///   window — wrapping never reorders, only truncates the front.
/// * Span `id`s therefore remain strictly increasing across the
///   iterator even after arbitrarily many wraps.
/// * `cap == 0` is a valid degenerate ring: every record is dropped
///   immediately and the ring stays empty (it never allocates).
/// * The ring never grows past `cap`: `len() <= cap` at all times.
#[derive(Debug, Default)]
pub struct RingSink {
    cap: usize,
    spans: VecDeque<Span>,
}

impl RingSink {
    /// Creates a ring holding at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap,
            spans: VecDeque::new(),
        }
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, span: &Span) {
        if self.cap == 0 {
            return;
        }
        if self.spans.len() == self.cap {
            self.spans.pop_front();
        }
        self.spans.push_back(*span);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A deterministic JSONL file sink: one [`Span::to_jsonl`] line per
/// span, in emission order.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes spans to it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, span: &Span) {
        // Writing can only fail on I/O errors (disk full); a trace must
        // never abort the simulation, so the error is ignored here and
        // surfaces on flush at the latest.
        let _ = writeln!(self.out, "{}", span.to_jsonl());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> Span {
        Span {
            kind: SpanKind::Packet,
            node: 3,
            id,
            start: SimTime::from_ns(10),
            end: SimTime::from_ns(25),
            bytes: 528,
            trace_id: 1,
            parent: 0,
        }
    }

    #[test]
    fn jsonl_encoding_is_canonical() {
        assert_eq!(
            span(7).to_jsonl(),
            "{\"kind\":\"packet\",\"node\":3,\"id\":7,\"start_ps\":10000,\
             \"end_ps\":25000,\"bytes\":528,\"trace\":1,\"parent\":0}"
        );
    }

    #[test]
    fn span_kind_indices_are_pinned() {
        // The Perfetto exporter derives tids from these; reordering
        // the enum must not silently change exported traces.
        let kinds = [
            SpanKind::Packet,
            SpanKind::Handler,
            SpanKind::Disk,
            SpanKind::Buffer,
            SpanKind::Link,
            SpanKind::Stall,
        ];
        let idx: Vec<u64> = kinds.iter().map(|k| k.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
        let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["packet", "handler", "disk", "buffer", "link", "stall"]
        );
    }

    #[test]
    fn ring_sink_is_bounded_and_keeps_newest() {
        let mut s = RingSink::new(3);
        for i in 0..5 {
            s.record(&span(i));
        }
        assert_eq!(s.len(), 3);
        let ids: Vec<u64> = s.spans().map(|sp| sp.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert!(!s.is_empty());
        assert!(RingSink::new(0).is_empty());
    }

    #[test]
    fn ring_sink_preserves_emission_order_after_wrap() {
        // Wrap the ring several times over: the retained window must
        // always be the newest `cap` spans in exact emission order —
        // eviction is strictly FIFO, one span per record.
        let mut s = RingSink::new(4);
        for i in 0..11 {
            s.record(&span(i));
            assert!(s.len() <= 4, "ring grew past cap at i={i}");
            let ids: Vec<u64> = s.spans().map(|sp| sp.id).collect();
            let lo = (i + 1).saturating_sub(4);
            let want: Vec<u64> = (lo..=i).collect();
            assert_eq!(ids, want, "window after recording span {i}");
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "ids must stay strictly increasing after wrap"
            );
        }
        // A zero-capacity ring drops everything even under wrap load.
        let mut z = RingSink::new(0);
        for i in 0..3 {
            z.record(&span(i));
        }
        assert!(z.is_empty());
    }

    #[test]
    fn ring_sink_downcasts() {
        let mut boxed: Box<dyn TraceSink> = Box::new(RingSink::new(2));
        boxed.record(&span(0));
        let ring = boxed
            .as_any()
            .and_then(|a| a.downcast_ref::<RingSink>())
            .expect("ring downcast");
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn null_sink_has_no_observable_effect() {
        let mut s = NullSink;
        s.record(&span(1));
        s.flush();
        assert!(s.as_any().is_none());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_span() {
        let path =
            std::env::temp_dir().join(format!("asan-trace-test-{}.jsonl", std::process::id()));
        {
            let mut s = JsonlSink::create(&path).expect("create");
            s.record(&span(0));
            s.record(&span(1));
            s.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\":0"));
        assert!(lines[1].contains("\"id\":1"));
        let _ = std::fs::remove_file(&path);
    }
}
