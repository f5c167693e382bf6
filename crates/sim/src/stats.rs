//! Statistics primitives used for the paper's metrics.
//!
//! The evaluation section reports, per benchmark and configuration:
//! execution time (normalized), host processor utilization
//! `(1 - idle/exec)`, host I/O traffic, and an execution-time breakdown
//! into CPU-busy, cache-stall and idle components. The types here gather
//! the raw ingredients of those metrics.

use std::fmt;

use crate::snap_fields;
use crate::time::{SimDuration, SimTime};

/// A simple named event counter.
///
/// # Example
///
/// ```
/// use asan_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

snap_fields!(Counter(count));

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Accumulates a CPU's time breakdown: busy, memory (cache) stall, and
/// idle time, in the style of Figures 4/6/8/10/12/14 of the paper.
///
/// The three components are disjoint by construction: the CPU models add
/// to exactly one bucket for every interval of simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Time spent executing instructions.
    pub busy: SimDuration,
    /// Time stalled waiting on the memory hierarchy (cache/TLB/DRAM).
    pub stall: SimDuration,
    /// Time with no work available (waiting on I/O or messages).
    pub idle: SimDuration,
}

impl TimeBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> SimDuration {
        self.busy + self.stall + self.idle
    }

    /// Utilization as defined in the paper: `(1 - idle) / total`.
    ///
    /// Returns 0 when no time has been accounted.
    pub fn utilization(&self) -> f64 {
        let total = self.total().as_ps();
        if total == 0 {
            return 0.0;
        }
        (total - self.idle.as_ps()) as f64 / total as f64
    }

    /// Fraction of total time spent in memory stalls.
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total().as_ps();
        if total == 0 {
            return 0.0;
        }
        self.stall.as_ps() as f64 / total as f64
    }

    /// Extends the idle component so the breakdown covers `total`
    /// (used at end of run: a CPU that finished early idles to the end).
    pub fn pad_idle_to(&mut self, total: SimDuration) {
        let t = self.total();
        if total > t {
            self.idle += total - t;
        }
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            busy: self.busy + other.busy,
            stall: self.stall + other.stall,
            idle: self.idle + other.idle,
        }
    }
}

snap_fields!(TimeBreakdown { busy, stall, idle });

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "busy={} stall={} idle={}",
            self.busy, self.stall, self.idle
        )
    }
}

/// Tracks bytes moved across an interface (e.g. "host I/O traffic": all
/// data in/out of the host, Figures 3/5/9/11/13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes into the observed component.
    pub bytes_in: u64,
    /// Bytes out of the observed component.
    pub bytes_out: u64,
}

impl Traffic {
    /// Total bytes in either direction.
    pub fn total(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Records `n` bytes inbound.
    pub fn record_in(&mut self, n: u64) {
        self.bytes_in += n;
    }

    /// Records `n` bytes outbound.
    pub fn record_out(&mut self, n: u64) {
        self.bytes_out += n;
    }
}

snap_fields!(Traffic {
    bytes_in,
    bytes_out
});

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in={}B out={}B", self.bytes_in, self.bytes_out)
    }
}

/// A running min/max/mean over `u64` samples (queue depths, latencies).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Summary {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

snap_fields!(Summary {
    count,
    sum,
    min,
    max
});

/// Tracks a busy/idle state machine over simulated time; used to compute
/// link and switch-CPU occupancy.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyTracker {
    busy_since: Option<SimTime>,
    accumulated: SimDuration,
}

impl BusyTracker {
    /// Marks the component busy starting at `now` (idempotent).
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the component idle at `now`, accumulating the busy span.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the busy start.
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(start) = self.busy_since.take() {
            self.accumulated += now.since(start);
        }
    }

    /// Total busy time accumulated, counting an open busy span up to `now`.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(start) => self.accumulated + now.since(start),
            None => self.accumulated,
        }
    }

    /// Whether the component is currently busy.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }
}

snap_fields!(BusyTracker {
    busy_since,
    accumulated,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn breakdown_utilization_matches_paper_definition() {
        let b = TimeBreakdown {
            busy: SimDuration::from_ns(30),
            stall: SimDuration::from_ns(20),
            idle: SimDuration::from_ns(50),
        };
        assert_eq!(b.total(), SimDuration::from_ns(100));
        assert!((b.utilization() - 0.5).abs() < 1e-12);
        assert!((b.stall_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn breakdown_empty_is_zero_utilization() {
        let b = TimeBreakdown::default();
        assert_eq!(b.utilization(), 0.0);
        assert_eq!(b.stall_fraction(), 0.0);
    }

    #[test]
    fn pad_idle_extends_only_forward() {
        let mut b = TimeBreakdown {
            busy: SimDuration::from_ns(10),
            ..TimeBreakdown::default()
        };
        b.pad_idle_to(SimDuration::from_ns(25));
        assert_eq!(b.idle, SimDuration::from_ns(15));
        // Padding to a smaller total is a no-op.
        b.pad_idle_to(SimDuration::from_ns(5));
        assert_eq!(b.total(), SimDuration::from_ns(25));
    }

    #[test]
    fn merged_sums_components() {
        let a = TimeBreakdown {
            busy: SimDuration::from_ns(1),
            stall: SimDuration::from_ns(2),
            idle: SimDuration::from_ns(3),
        };
        let m = a.merged(&a);
        assert_eq!(m.busy, SimDuration::from_ns(2));
        assert_eq!(m.stall, SimDuration::from_ns(4));
        assert_eq!(m.idle, SimDuration::from_ns(6));
    }

    #[test]
    fn traffic_totals() {
        let mut t = Traffic::default();
        t.record_in(100);
        t.record_out(50);
        assert_eq!(t.total(), 150);
    }

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let mut s = Summary::default();
        assert!(s.min().is_none());
        for v in [5u64, 1, 9, 5] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(9));
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stats_snapshot_round_trips() {
        let mut c = Counter::default();
        c.add(11);
        let b = TimeBreakdown {
            busy: SimDuration::from_ns(1),
            stall: SimDuration::from_ns(2),
            idle: SimDuration::from_ns(3),
        };
        let mut t = Traffic::default();
        t.record_in(9);
        t.record_out(4);
        let mut s = Summary::default();
        s.record(3);
        s.record(u64::MAX); // exercises the u128 sum
        let mut bt = BusyTracker::default();
        bt.set_busy(SimTime::from_ns(2));
        bt.set_idle(SimTime::from_ns(5));
        bt.set_busy(SimTime::from_ns(7)); // open span must survive

        let mut w = SnapWriter::new();
        c.snapshot(&mut w);
        b.snapshot(&mut w);
        t.snapshot(&mut w);
        s.snapshot(&mut w);
        bt.snapshot(&mut w);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.read::<Counter>().unwrap(), c);
        assert_eq!(r.read::<TimeBreakdown>().unwrap(), b);
        assert_eq!(r.read::<Traffic>().unwrap(), t);
        assert_eq!(r.read::<Summary>().unwrap(), s);
        let bt2: BusyTracker = r.read().unwrap();
        r.finish().unwrap();
        assert!(bt2.is_busy());
        assert_eq!(
            bt2.busy_time(SimTime::from_ns(10)),
            bt.busy_time(SimTime::from_ns(10))
        );
    }

    #[test]
    fn busy_tracker_accumulates_spans() {
        let mut b = BusyTracker::default();
        b.set_busy(SimTime::from_ns(10));
        assert!(b.is_busy());
        b.set_busy(SimTime::from_ns(12)); // idempotent
        b.set_idle(SimTime::from_ns(20));
        assert!(!b.is_busy());
        assert_eq!(b.busy_time(SimTime::from_ns(100)), SimDuration::from_ns(10));
        b.set_busy(SimTime::from_ns(30));
        // Open span counts up to `now`.
        assert_eq!(b.busy_time(SimTime::from_ns(35)), SimDuration::from_ns(15));
    }
}
