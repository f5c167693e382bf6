//! Point-to-point link with serialization and credit-based flow control.
//!
//! Each network link (§4) runs at 1 GB/s per direction and uses
//! credit-based flow control: the sender may only inject a packet when
//! the receiver has a free input buffer. We track the times at which the
//! receiver drains each in-flight packet; when all credits are consumed,
//! the next send stalls until the oldest drain completes.

use std::collections::VecDeque;

use asan_sim::hist::LogHistogram;
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::stats::Counter;
use asan_sim::{Period, SimDuration, SimTime};

/// Configuration of one link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Serialization bandwidth in bytes/second.
    pub bytes_per_sec: u64,
    /// Propagation delay (cable + PHY).
    pub propagation: SimDuration,
    /// Number of receiver buffers (credits).
    pub credits: usize,
}

impl LinkConfig {
    /// The paper's SAN link: 1 GB/s, short SAN cable, 8 credits
    /// (half the 16 data buffers of a switch input side).
    pub fn paper() -> Self {
        LinkConfig {
            bytes_per_sec: 1_000_000_000,
            propagation: SimDuration::from_ns(10),
            credits: 8,
        }
    }
}

/// Timing of one packet traversal of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTiming {
    /// When the first byte left the sender (after credit + serialization
    /// availability).
    pub start: SimTime,
    /// When the header (first 16 bytes) is available at the receiver —
    /// cut-through forwarding and handler dispatch may begin here.
    pub header_at: SimTime,
    /// When the last byte arrived at the receiver.
    pub done: SimTime,
}

/// One direction of a network link.
///
/// # Example
///
/// ```
/// use asan_net::link::{Link, LinkConfig};
/// use asan_sim::SimTime;
/// let mut l = Link::new(LinkConfig::paper());
/// let t = l.send(528, SimTime::ZERO); // 512 B payload + 16 B header
/// l.note_drain(t.done);               // receiver consumed it instantly
/// assert_eq!(t.done.as_ns(), 538);    // 528 ns wire + 10 ns propagation
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    /// Serialization time per byte, from `cfg.bytes_per_sec`.
    byte: Period,
    busy_until: SimTime,
    /// Drain times of packets currently occupying receiver buffers.
    inflight: VecDeque<SimTime>,
    /// Total bytes carried.
    bytes: Counter,
    /// Packets carried.
    packets: Counter,
    /// Sends that had to wait for a credit.
    credit_stalls: Counter,
    /// Distribution of credit-stall durations (simulated picoseconds).
    /// Only observable here: the stall is the gap between when the send
    /// could otherwise start and when the oldest in-flight packet
    /// drains.
    stall_hist: LogHistogram,
    /// Total busy (serializing) time.
    busy_time: SimDuration,
    /// Injected link-down windows `[from, until)`: sends starting inside
    /// one are deferred to its end (the PHY retrains, nothing is lost).
    outages: Vec<(SimTime, SimTime)>,
    /// Sends deferred by an outage window.
    outage_deferrals: Counter,
}

impl Link {
    /// Creates an idle link with all credits available.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero bandwidth or zero credits.
    pub fn new(cfg: LinkConfig) -> Self {
        assert!(cfg.bytes_per_sec > 0, "zero link bandwidth");
        assert!(cfg.credits > 0, "links need at least one credit");
        Link {
            byte: Period::of(cfg.bytes_per_sec),
            cfg,
            busy_until: SimTime::ZERO,
            inflight: VecDeque::new(),
            bytes: Counter::default(),
            packets: Counter::default(),
            credit_stalls: Counter::default(),
            stall_hist: LogHistogram::new(),
            busy_time: SimDuration::ZERO,
            outages: Vec::new(),
            outage_deferrals: Counter::default(),
        }
    }

    /// Injects a transient link-down window: any send whose start falls
    /// in `[from, until)` is deferred to `until`.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    pub fn inject_outage(&mut self, from: SimTime, until: SimTime) {
        assert!(from <= until, "outage window ends before it starts");
        self.outages.push((from, until));
    }

    /// Tightens the credit limit (models a receiver advertising fewer
    /// buffers, e.g. after losing some to errors). Cannot raise it.
    ///
    /// # Panics
    ///
    /// Panics if `credits` is zero.
    pub fn restrict_credits(&mut self, credits: usize) {
        assert!(credits > 0, "links need at least one credit");
        self.cfg.credits = self.cfg.credits.min(credits);
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Sends `wire_bytes` (header + payload) that are ready at `ready`.
    ///
    /// The send waits for (a) a credit, (b) the previous packet to finish
    /// serializing; it then occupies the wire for `wire_bytes / bw`.
    /// Callers **must** later report when the receiver freed the buffer
    /// via [`note_drain`](Link::note_drain), otherwise credits leak and
    /// the link eventually stalls forever (deadlock detection in the
    /// cluster will flag this).
    pub fn send(&mut self, wire_bytes: u64, ready: SimTime) -> LinkTiming {
        let mut start = ready.max(self.busy_until);
        // Credit check: all buffers full ⇒ wait for the oldest drain.
        if self.inflight.len() >= self.cfg.credits {
            let oldest = *self.inflight.front().expect("non-empty");
            if oldest > start {
                self.credit_stalls.inc();
                self.stall_hist.record_duration(oldest.since(start));
                start = oldest;
            }
            self.inflight.pop_front();
        }
        // Outage windows: keep deferring while the start lands in one
        // (windows may chain or overlap).
        while let Some(&(_, until)) = self
            .outages
            .iter()
            .find(|&&(from, until)| from <= start && start < until)
        {
            self.outage_deferrals.inc();
            start = until;
        }
        let serialization = self.byte.times(wire_bytes);
        let header_ser = self
            .byte
            .times(wire_bytes.min(crate::packet::HEADER_BYTES as u64));
        let done = start + serialization + self.cfg.propagation;
        let header_at = start + header_ser + self.cfg.propagation;
        self.busy_until = start + serialization;
        self.busy_time += serialization;
        self.bytes.add(wire_bytes);
        self.packets.inc();
        LinkTiming {
            start,
            header_at,
            done,
        }
    }

    /// Reports that the receiver freed the buffer of the *oldest*
    /// undrained packet at time `t` (credits return in FIFO order).
    pub fn note_drain(&mut self, t: SimTime) {
        self.inflight.push_back(t);
    }

    /// Bytes carried so far.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes.get()
    }

    /// Packets carried so far.
    pub fn packets_carried(&self) -> u64 {
        self.packets.get()
    }

    /// Number of sends that stalled waiting for a credit.
    pub fn credit_stalls(&self) -> u64 {
        self.credit_stalls.get()
    }

    /// Distribution of credit-stall durations on this link direction.
    pub fn credit_stall_hist(&self) -> &LogHistogram {
        &self.stall_hist
    }

    /// Number of sends deferred by an injected outage window.
    pub fn outage_deferrals(&self) -> u64 {
        self.outage_deferrals.get()
    }

    /// Total time the wire spent serializing data.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Utilization of the wire over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let t = now.as_ps();
        if t == 0 {
            0.0
        } else {
            self.busy_time.as_ps() as f64 / t as f64
        }
    }
}

/// The (possibly restricted) credit limit, wire occupancy, in-flight
/// drain times, outage windows and all counters/histograms. Restore
/// takes a snapshot of a link with the same static configuration; the
/// snapshotted credit limit must not exceed this link's (it may be
/// lower, since [`restrict_credits`](Link::restrict_credits) only
/// tightens).
impl Snap for Link {
    fn snapshot(&self, w: &mut SnapWriter) {
        let Link {
            cfg,
            byte: _,
            busy_until,
            inflight,
            bytes,
            packets,
            credit_stalls,
            stall_hist,
            busy_time,
            outages,
            outage_deferrals,
        } = self;
        cfg.credits.snapshot(w);
        busy_until.snapshot(w);
        inflight.snapshot(w);
        bytes.snapshot(w);
        packets.snapshot(w);
        credit_stalls.snapshot(w);
        stall_hist.snapshot(w);
        busy_time.snapshot(w);
        outages.snapshot(w);
        outage_deferrals.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Link {
            cfg,
            byte: _,
            busy_until,
            inflight,
            bytes,
            packets,
            credit_stalls,
            stall_hist,
            busy_time,
            outages,
            outage_deferrals,
        } = self;
        let credits = r.usize()?;
        if credits == 0 || credits > cfg.credits {
            return Err(SnapError::Malformed("link credit limit out of range"));
        }
        cfg.credits = credits;
        busy_until.restore(r)?;
        inflight.restore(r)?;
        bytes.restore(r)?;
        packets.restore(r)?;
        credit_stalls.restore(r)?;
        stall_hist.restore(r)?;
        busy_time.restore(r)?;
        outages.restore(r)?;
        outage_deferrals.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_drain(l: &mut Link, wire: u64, ready: SimTime) -> LinkTiming {
        let t = l.send(wire, ready);
        l.note_drain(t.done);
        t
    }

    #[test]
    fn serialization_time_matches_bandwidth() {
        let mut l = Link::new(LinkConfig::paper());
        let t = fast_drain(&mut l, 528, SimTime::ZERO);
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.done.as_ns(), 528 + 10);
        // Header cut-through point: 16 B + propagation.
        assert_eq!(t.header_at.as_ns(), 16 + 10);
    }

    #[test]
    fn back_to_back_sends_serialize() {
        let mut l = Link::new(LinkConfig::paper());
        let a = fast_drain(&mut l, 528, SimTime::ZERO);
        let b = fast_drain(&mut l, 528, SimTime::ZERO);
        assert_eq!(b.start, a.done - l.config().propagation);
        assert_eq!(b.done.since(a.done).as_ns(), 528);
    }

    #[test]
    fn credit_exhaustion_stalls_sender() {
        let cfg = LinkConfig {
            credits: 2,
            ..LinkConfig::paper()
        };
        let mut l = Link::new(cfg);
        // Two packets sent, neither drained yet.
        let a = l.send(528, SimTime::ZERO);
        let _b = l.send(528, SimTime::ZERO);
        // Receiver is slow: drains the first at 10 us.
        let drain0 = SimTime::from_us(10);
        l.note_drain(drain0);
        l.note_drain(SimTime::from_us(20));
        // Third send must wait for the first drain, not just the wire.
        let c = l.send(528, a.done);
        assert_eq!(c.start, drain0);
        assert_eq!(l.credit_stalls(), 1);
    }

    #[test]
    fn credits_do_not_stall_when_receiver_keeps_up() {
        let mut l = Link::new(LinkConfig::paper());
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            let timing = fast_drain(&mut l, 528, t);
            t = timing.done;
        }
        assert_eq!(l.credit_stalls(), 0);
        assert_eq!(l.packets_carried(), 100);
        assert_eq!(l.bytes_carried(), 52_800);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut l = Link::new(LinkConfig::paper());
        fast_drain(&mut l, 1000, SimTime::ZERO); // busy 1000 ns
        let u = l.utilization(SimTime::from_us(2));
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
        assert_eq!(
            Link::new(LinkConfig::paper()).utilization(SimTime::ZERO),
            0.0
        );
    }

    #[test]
    fn small_packet_header_at_equals_done() {
        let mut l = Link::new(LinkConfig::paper());
        let t = fast_drain(&mut l, 16, SimTime::ZERO);
        assert_eq!(t.header_at, t.done);
    }

    #[test]
    fn outage_window_defers_sends() {
        let mut l = Link::new(LinkConfig::paper());
        l.inject_outage(SimTime::from_us(1), SimTime::from_us(3));
        // Before the window: unaffected.
        let a = fast_drain(&mut l, 528, SimTime::ZERO);
        assert_eq!(a.start, SimTime::ZERO);
        // Inside the window: deferred to its end.
        let b = fast_drain(&mut l, 528, SimTime::from_us(2));
        assert_eq!(b.start, SimTime::from_us(3));
        assert_eq!(l.outage_deferrals(), 1);
        // After the window: unaffected again.
        let c = fast_drain(&mut l, 528, SimTime::from_us(10));
        assert_eq!(c.start, SimTime::from_us(10));
    }

    #[test]
    fn snapshot_restores_credits_and_wire_state() {
        let cfg = LinkConfig {
            credits: 3,
            ..LinkConfig::paper()
        };
        let mut l = Link::new(cfg);
        l.inject_outage(SimTime::from_us(50), SimTime::from_us(52));
        l.restrict_credits(2);
        // Fill both credits, no drains yet: the next send must stall.
        let a = l.send(528, SimTime::ZERO);
        let _b = l.send(528, SimTime::ZERO);
        l.note_drain(SimTime::from_us(10));
        l.note_drain(SimTime::from_us(20));

        let mut w = SnapWriter::new();
        l.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = Link::new(cfg); // fresh link: 3 credits, no outage
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();

        // Identical future behaviour: credit stall to the first drain,
        // then the outage window still defers later sends.
        let c1 = l.send(528, a.done);
        let c2 = back.send(528, a.done);
        assert_eq!(c1, c2);
        assert_eq!(c1.start, SimTime::from_us(10));
        assert_eq!(back.credit_stalls(), l.credit_stalls());
        let d1 = l.send(528, SimTime::from_us(51));
        let d2 = back.send(528, SimTime::from_us(51));
        assert_eq!(d1, d2);
        assert_eq!(d1.start, SimTime::from_us(52));
        assert_eq!(back.bytes_carried(), l.bytes_carried());
        assert_eq!(
            back.credit_stall_hist().count(),
            l.credit_stall_hist().count()
        );
    }

    #[test]
    fn restrict_credits_only_tightens() {
        let mut l = Link::new(LinkConfig::paper());
        l.restrict_credits(2);
        assert_eq!(l.config().credits, 2);
        l.restrict_credits(5); // cannot loosen back up
        assert_eq!(l.config().credits, 2);
    }
}
