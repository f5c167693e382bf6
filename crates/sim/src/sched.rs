//! Run-loop facade over the [`EventQueue`]: pop counting in one place.
//!
//! Simulators that drive an [`EventQueue`] by hand end up re-implementing
//! the same bookkeeping: a processed-event counter for safety limits and
//! diagnostics. [`Scheduler`] bundles it with the queue. Structured
//! event observability lives elsewhere — engines emit typed spans to a
//! [`crate::trace::TraceSink`] instead of the scheduler printing lines
//! (the old `Tracer` eprintln tracer this facade once carried).
//!
//! # Example
//!
//! ```
//! use asan_sim::sched::{Scheduler, Traceable};
//! use asan_sim::SimTime;
//!
//! struct Tick;
//! impl Traceable for Tick {
//!     fn trace_label(&self) -> &'static str {
//!         "Tick"
//!     }
//! }
//!
//! let mut s: Scheduler<Tick> = Scheduler::new();
//! s.push(SimTime::from_ns(3), Tick);
//! let (t, _) = s.pop().unwrap();
//! assert_eq!(t, SimTime::from_ns(3));
//! assert_eq!(s.processed(), 1);
//! ```

use crate::queue::EventQueue;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;

/// Types that can name themselves for diagnostics and traces.
pub trait Traceable {
    /// A short static label naming this event's kind.
    fn trace_label(&self) -> &'static str;
}

/// The pending-event set plus run bookkeeping: a processed-event
/// counter.
///
/// Ordering semantics are exactly those of [`EventQueue`]: events pop
/// in `(time, insertion sequence)` order, so simulations stay
/// reproducible bit for bit.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    processed: u64,
    peak_len: usize,
}

impl<E: Traceable> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            processed: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.queue.push(time, event);
        self.peak_len = self.peak_len.max(self.queue.len());
    }

    /// Removes and returns the earliest event, counting it as
    /// processed.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        self.processed += 1;
        Some((t, ev))
    }

    /// Events popped so far (across every run driven by this scheduler).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The deepest the pending-event set has ever been.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Events per wall-clock second given an externally measured
    /// elapsed time. The scheduler itself never reads a clock — the
    /// caller (a benchmark harness) supplies the seconds, keeping this
    /// crate free of wall-clock dependence.
    pub fn events_per_sec(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.processed as f64 / elapsed_secs
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Writes the pending-event set (via `enc`) and the run
    /// bookkeeping, so a restored scheduler continues both the event
    /// stream and the processed/peak counters exactly.
    pub fn snapshot_with(&self, w: &mut SnapWriter, enc: impl FnMut(&mut SnapWriter, &E)) {
        let Scheduler {
            queue,
            processed,
            peak_len,
        } = self;
        queue.snapshot_with(w, enc);
        w.u64(*processed);
        w.usize(*peak_len);
    }

    /// Rebuilds a scheduler from [`Scheduler::snapshot_with`] output.
    pub fn restore_with(
        r: &mut SnapReader<'_>,
        dec: impl FnMut(&mut SnapReader<'_>) -> Result<E, SnapError>,
    ) -> Result<Self, SnapError> {
        Ok(Scheduler {
            queue: EventQueue::restore_with(r, dec)?,
            processed: r.u64()?,
            peak_len: r.usize()?,
        })
    }
}

impl<E: Traceable> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ev(u32);
    impl Traceable for Ev {
        fn trace_label(&self) -> &'static str {
            "Ev"
        }
    }

    #[test]
    fn pops_in_order_and_counts() {
        let mut s = Scheduler::new();
        s.push(SimTime::from_ns(5), Ev(2));
        s.push(SimTime::from_ns(1), Ev(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop().unwrap().1, Ev(1));
        assert_eq!(s.pop().unwrap().1, Ev(2));
        assert!(s.pop().is_none());
        assert_eq!(s.processed(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.push(SimTime::from_ns(7), Ev(i));
        }
        for i in 0..10 {
            assert_eq!(s.pop().unwrap().1, Ev(i));
        }
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut s = Scheduler::new();
        assert_eq!(s.peak_len(), 0);
        s.push(SimTime::ZERO, Ev(0));
        s.push(SimTime::ZERO, Ev(1));
        s.pop();
        s.pop();
        s.push(SimTime::ZERO, Ev(2));
        assert_eq!(s.peak_len(), 2);
        assert_eq!(s.events_per_sec(0.0), 0.0);
        assert_eq!(s.events_per_sec(2.0), 1.0);
    }

    #[test]
    fn snapshot_restores_counters_and_events() {
        let mut s = Scheduler::new();
        s.push(SimTime::from_ns(1), Ev(1));
        s.push(SimTime::from_ns(2), Ev(2));
        s.push(SimTime::from_ns(3), Ev(3));
        s.pop();
        let mut w = SnapWriter::new();
        s.snapshot_with(&mut w, |w, e| w.u32(e.0));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut s2: Scheduler<Ev> = Scheduler::restore_with(&mut r, |r| Ok(Ev(r.u32()?))).unwrap();
        r.finish().unwrap();
        assert_eq!(s2.processed(), 1);
        assert_eq!(s2.peak_len(), 3);
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.pop().unwrap().1, Ev(2));
        assert_eq!(s2.pop().unwrap().1, Ev(3));
        assert_eq!(s2.processed(), 3);
    }

    #[test]
    fn processed_persists_across_drains() {
        let mut s = Scheduler::default();
        s.push(SimTime::ZERO, Ev(0));
        s.pop();
        s.push(SimTime::ZERO, Ev(1));
        s.pop();
        assert_eq!(s.processed(), 2);
    }
}
