//! Host-time spans recorded around the public calls the benchmark
//! makes, kept in memory and written out as Chrome `trace_event` JSON
//! when the run ends.
//!
//! The clock is injected, so tests drive the tracer with a fake one.
//! Spans opened with [`Tracer::span`] are always recorded, because the
//! end-to-end metrics are read from them; those opened with
//! [`Tracer::detail`] only once detail is switched on, in the traced
//! iterations.

use std::panic::{self, AssertUnwindSafe};

use crate::report::quote;

/// One timed interval, in seconds since the clock's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`iteration`, `setup`, `setup:<app>`, `apps.data`, …).
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Iteration the span belongs to.
    pub iteration: u32,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans against an injected clock.
pub struct Tracer<'c> {
    clock: &'c dyn Fn() -> f64,
    detailed: bool,
    iteration: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl<'c> Tracer<'c> {
    /// A tracer reading `clock` (seconds, monotone), detail spans off.
    pub fn new(clock: &'c dyn Fn() -> f64) -> Self {
        Tracer {
            clock,
            detailed: false,
            iteration: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns the detail spans of [`Tracer::detail`] on or off.
    pub fn set_detailed(&mut self, on: bool) {
        self.detailed = on;
    }

    /// Tags the spans opened from now on with iteration `i`.
    pub fn set_iteration(&mut self, i: u32) {
        self.iteration = i;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let now = (self.clock)();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(idx);
        // Close the span even when `f` panics, so a caller that catches
        // the panic keeps a consistent span stack.
        let out = panic::catch_unwind(AssertUnwindSafe(|| f(self)));
        self.open.pop();
        self.spans[idx].end = (self.clock)();
        out.unwrap_or_else(|p| panic::resume_unwind(p))
    }

    /// Like [`Tracer::span`] when detail spans are on; otherwise just
    /// runs `f`.
    pub fn detail<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.detailed {
            self.span(name, f)
        } else {
            f(self)
        }
    }

    /// Hands over the spans recorded so far and starts an empty list.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Self time of `spans[idx]`: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let s = &spans[idx];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(idx))
        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
        .filter(|(a, b)| b > a)
        .collect();
    s.duration() - union_len(&mut kids)
}

/// Renders `spans` as a Chrome `trace_event` document (complete `X`
/// events, microsecond timestamps) that Perfetto and `chrome://tracing`
/// open directly.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or(-1, |p| p as i64);
            format!(
                "{{\"name\":{},\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"iteration\":{},\"self_us\":{}}}}}",
                quote(&s.name),
                s.start * 1e6,
                s.duration() * 1e6,
                s.iteration,
                self_time(spans, i) * 1e6,
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_bench::json::{self, Value};
    use std::cell::Cell;

    /// A fake clock reading 0, 1, 2, … seconds.
    fn ticker() -> impl Fn() -> f64 {
        let ticks = Cell::new(0.0);
        move || {
            let t = ticks.get();
            ticks.set(t + 1.0);
            t
        }
    }

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("parent", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),  // overlaps a: union is 1..6
            span("c", 8.0, 12.0, Some(0)), // clipped to 8..10
            span("grandchild", 1.0, 2.0, Some(1)),
        ];
        // 10 - (5 + 2): a sum of the children would give 10 - 9.
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_and_skips_detail_unless_enabled() {
        let clock = ticker();
        let mut t = Tracer::new(&clock);
        t.span("outer", |t| t.detail("hidden", |_| ()));
        t.set_detailed(true);
        t.set_iteration(3);
        t.span("outer", |t| t.detail("shown", |_| ()));
        let spans = t.take_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "outer", "shown"]);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].iteration, 3);
        assert_eq!((spans[1].start, spans[1].end), (2.0, 5.0));
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn a_panicking_span_is_closed_before_the_panic_propagates() {
        let clock = ticker();
        let mut t = Tracer::new(&clock);
        t.span("outer", |t| {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                t.span("doomed", |_| panic!("expected in this test"));
            }));
            assert!(caught.is_err());
            t.span("after", |_| ());
        });
        let spans = t.take_spans();
        assert_eq!((spans[1].start, spans[1].end), (1.0, 2.0));
        assert_eq!(spans[2].name, "after");
        assert_eq!(spans[2].parent, Some(0), "stack restored after the panic");
    }

    #[test]
    fn chrome_export_parses_and_carries_every_span() {
        let spans = vec![
            span("iteration", 0.0, 2.0, None),
            span("run:x", 0.5, 1.5, Some(0)),
        ];
        let doc = json::parse(&chrome_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some("run:x"));
        assert_eq!(
            events[0].get("dur").and_then(Value::as_u64),
            Some(2_000_000)
        );
    }
}
