//! Perfetto / Chrome `trace_event` JSON exporter.
//!
//! [`PerfettoSink`] buffers every span of a run and, on flush, writes
//! one self-contained JSON document in the Chrome `trace_event` array
//! format (loadable in `ui.perfetto.dev` or `chrome://tracing`).
//!
//! # Export contract
//!
//! The output is **byte-reproducible**: two runs of the same
//! configuration produce byte-identical files, and CI diffs exactly
//! that. The contract that makes this hold:
//!
//! * Every event is a complete-duration event (`"ph":"X"`).
//! * `ts` and `dur` are **integral simulated picoseconds** — no floats,
//!   no unit conversion, no wall clock. (Perfetto nominally renders
//!   `ts` as microseconds; the absolute numbers on its axis are
//!   therefore scaled, but relative structure — ordering, nesting,
//!   proportions — is exact. The trade is deliberate: integers diff,
//!   floats drift.)
//! * `pid` is the simulated node id the span is attributed to, so each
//!   node renders as one process track.
//! * `tid` is the stable [`SpanKind::index`](crate::trace::SpanKind)
//!   of the span's kind, so packets, handlers, disk service, buffers,
//!   hops and stalls each get their own row per node.
//! * Events are emitted sorted by `(start, node, kind index, span id)`
//!   — a total order independent of emission interleaving.
//! * `args` carries the span id, byte count, and causal identity
//!   (`trace`, `parent`) so flows can be followed across rows.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::trace::{Span, TraceSink};

/// Renders spans (sorted per the export contract) as one Chrome
/// `trace_event` JSON document.
pub fn render(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.node, s.kind.index(), s.id));
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"bytes\":{},\"trace\":{},\
             \"parent\":{}}}}}",
            s.kind.label(),
            s.start.as_ps(),
            s.end.as_ps().saturating_sub(s.start.as_ps()),
            s.node,
            s.kind.index(),
            s.id,
            s.bytes,
            s.trace_id,
            s.parent,
        ));
    }
    out.push_str("]}\n");
    out
}

/// A trace sink exporting the whole run as one Perfetto/Chrome
/// `trace_event` JSON file, written atomically-in-one-write on flush.
///
/// The file is created (truncating) at flush time, so several clusters
/// flushing to the same path in one process leave the *last* run's
/// trace: one run, one trace file, as an `ASAN_TRACE=<dir>/{tag}.json`
/// template gives each benchmark run.
#[derive(Debug)]
pub struct PerfettoSink {
    path: PathBuf,
    spans: Vec<Span>,
    written: bool,
}

impl PerfettoSink {
    /// Creates a sink that will write `path` on flush. The path itself
    /// is not touched until then.
    pub fn create(path: impl AsRef<Path>) -> Self {
        PerfettoSink {
            path: path.as_ref().to_path_buf(),
            spans: Vec::new(),
            written: false,
        }
    }

    /// Number of spans buffered so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been buffered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn write_out(&mut self) -> io::Result<()> {
        let doc = render(&self.spans);
        let mut f = File::create(&self.path)?;
        f.write_all(doc.as_bytes())?;
        self.written = true;
        Ok(())
    }
}

impl TraceSink for PerfettoSink {
    fn record(&mut self, span: &Span) {
        self.spans.push(*span);
        self.written = false;
    }

    fn flush(&mut self) {
        // A trace must never abort the simulation: I/O errors are
        // swallowed here, exactly like the JSONL sink.
        let _ = self.write_out();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl Drop for PerfettoSink {
    fn drop(&mut self) {
        if !self.written {
            let _ = self.write_out();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::trace::SpanKind;

    fn span(kind: SpanKind, id: u64, start_ns: u64) -> Span {
        Span {
            kind,
            node: 2,
            id,
            start: SimTime::from_ns(start_ns),
            end: SimTime::from_ns(start_ns + 5),
            bytes: 100,
            trace_id: 1,
            parent: 0,
        }
    }

    #[test]
    fn rendered_event_shape_is_pinned() {
        let doc = render(&[span(SpanKind::Packet, 7, 10)]);
        assert_eq!(
            doc,
            "{\"traceEvents\":[{\"name\":\"packet\",\"cat\":\"span\",\"ph\":\"X\",\
             \"ts\":10000,\"dur\":5000,\"pid\":2,\"tid\":0,\"args\":{\"id\":7,\
             \"bytes\":100,\"trace\":1,\"parent\":0}}]}\n"
        );
    }

    #[test]
    fn events_sort_by_start_node_kind_id() {
        let mut spans = vec![
            span(SpanKind::Handler, 3, 20),
            span(SpanKind::Packet, 1, 20),
            span(SpanKind::Packet, 0, 5),
        ];
        spans[0].node = 1; // earlier node sorts first at equal start
        let doc = render(&spans);
        let i_first = doc.find("\"id\":0").unwrap();
        let i_handler = doc.find("\"name\":\"handler\"").unwrap();
        let i_packet20 = doc.find("\"id\":1").unwrap();
        assert!(i_first < i_handler, "t=5ns span leads");
        assert!(
            i_handler < i_packet20,
            "node 1 precedes node 2 at equal start"
        );
        // Render is insensitive to buffer order.
        let mut rev = spans.clone();
        rev.reverse();
        assert_eq!(doc, render(&rev));
    }

    #[test]
    fn sink_writes_byte_identical_files() {
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("asan-perfetto-a-{}.json", std::process::id()));
        let p2 = dir.join(format!("asan-perfetto-b-{}.json", std::process::id()));
        for p in [&p1, &p2] {
            let mut s = PerfettoSink::create(p);
            s.record(&span(SpanKind::Packet, 0, 5));
            s.record(&span(SpanKind::Disk, 1, 7));
            s.flush();
        }
        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(&p2).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn drop_flushes_unwritten_spans() {
        let path =
            std::env::temp_dir().join(format!("asan-perfetto-drop-{}.json", std::process::id()));
        {
            let mut s = PerfettoSink::create(&path);
            s.record(&span(SpanKind::Buffer, 4, 1));
            assert!(!s.is_empty());
            assert_eq!(s.len(), 1);
            // No explicit flush: Drop must write the file.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"buffer\""));
        let _ = std::fs::remove_file(&path);
    }
}
