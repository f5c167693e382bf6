//! Windowed time-series telemetry: deterministic fixed-window samplers
//! and the [`Timeline`] report they produce.
//!
//! End-of-run aggregates (histograms, phase breakdowns) say *how much*
//! time a run spent where; they cannot say *when* a link saturated or
//! which window of a reduction stalled. [`TimeSeries`] fills that gap:
//! it buckets per-resource occupancy into fixed simulated-time windows
//! — "link 3 was busy 412 ns during window 7" — with no dependencies,
//! no floats in state, and no wall-clock reads.
//!
//! # Window semantics
//!
//! Windows are half-open intervals of simulated time:
//! window `w` covers `[w * window_ps, (w + 1) * window_ps)`. Edges are
//! therefore a pure function of the configured width — two runs with
//! the same width always agree on every bucket boundary, which is what
//! makes exported timelines byte-diffable in CI.
//!
//! * **Occupancy tracks** (link utilization, credit stalls, handler
//!   occupancy) split each busy interval across the windows it
//!   overlaps, attributing to each window exactly the picoseconds of
//!   overlap. Sample values are picoseconds-of-busy-time per window.
//! * **Gauge tracks** (event-queue depth) keep the *maximum* value
//!   observed in each window.
//!
//! A run longer than [`MAX_WINDOWS`] windows does not grow without
//! bound: every window index at or past the cap clamps to the final
//! window, which then accumulates the entire tail of the run. Choose
//! the width so the interesting part of the run fits; the clamp is a
//! safety valve, not a sampling strategy.
//!
//! # Determinism
//!
//! Sampling is always on and independent of any installed trace sink,
//! so the [`Timeline`] folded into the metrics digest is identical
//! whether tracing is off, on with a null sink, or exporting Perfetto
//! JSON. Nothing here schedules events or feeds back into the
//! simulation.

use std::collections::BTreeMap;

use crate::faults::fnv1a_fold;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};

/// Track kind: per-link wire occupancy (sample = busy ps per window).
pub const KIND_LINK_UTIL: u8 = 0;
/// Track kind: per-link credit-stall time (sample = stalled ps per
/// window, attributed to the windows the wait overlapped).
pub const KIND_CREDIT_STALL: u8 = 1;
/// Track kind: event-queue depth (gauge; sample = max pending events
/// observed in the window; key 0 — the queue is global).
pub const KIND_QUEUE_DEPTH: u8 = 2;
/// Track kind: per-node handler occupancy (sample = ps handler code
/// occupied the node's engine CPUs per window).
pub const KIND_HANDLER_OCC: u8 = 3;

/// Hard cap on windows per track; indices past it clamp to the last
/// window (see module docs).
pub const MAX_WINDOWS: usize = 512;

/// Stable lower-case label for a track kind (JSON encoding and
/// rendering). Unknown kinds (future schema versions) get `"unknown"`.
pub fn kind_label(kind: u8) -> &'static str {
    match kind {
        KIND_LINK_UTIL => "link_util",
        KIND_CREDIT_STALL => "credit_stall",
        KIND_QUEUE_DEPTH => "queue_depth",
        KIND_HANDLER_OCC => "handler_occ",
        _ => "unknown",
    }
}

/// The in-run collector: fixed-window samplers keyed by
/// `(kind, resource)`.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: SimDuration,
    tracks: BTreeMap<(u8, u64), Vec<u64>>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(SimDuration::from_us(10))
    }
}

impl TimeSeries {
    /// Creates a collector with the given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width window (bucket edges would be undefined).
    pub fn new(window: SimDuration) -> Self {
        assert!(window.as_ps() > 0, "time-series window must be non-zero");
        TimeSeries {
            window,
            tracks: BTreeMap::new(),
        }
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Replaces the window width. Only legal before any sample has been
    /// recorded — resizing would silently re-bucket history.
    ///
    /// # Panics
    ///
    /// Panics if samples exist or `window` is zero.
    pub fn set_window(&mut self, window: SimDuration) {
        assert!(window.as_ps() > 0, "time-series window must be non-zero");
        assert!(
            self.tracks.is_empty(),
            "cannot resize a time-series that already holds samples"
        );
        self.window = window;
    }

    /// Window index of instant `t`, clamped to the cap.
    fn index(&self, t: SimTime) -> usize {
        usize::try_from(t.as_ps() / self.window.as_ps())
            .map_or(MAX_WINDOWS - 1, |w| w.min(MAX_WINDOWS - 1))
    }

    fn track(&mut self, kind: u8, key: u64, upto: usize) -> &mut Vec<u64> {
        let v = self.tracks.entry((kind, key)).or_default();
        if v.len() <= upto {
            v.resize(upto + 1, 0);
        }
        v
    }

    /// Attributes the busy interval `[start, end)` of resource
    /// `(kind, key)` to the windows it overlaps, proportionally in
    /// exact integer picoseconds. Empty or inverted intervals record
    /// nothing.
    pub fn add_occupancy(&mut self, kind: u8, key: u64, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let (w0, w1) = (self.index(start), self.index(end));
        let window_ps = self.window.as_ps();
        let track = self.track(kind, key, w1);
        if w0 == w1 {
            track[w0] += end.since(start).as_ps();
            return;
        }
        let mut cursor = start.as_ps();
        for (w, slot) in track.iter_mut().enumerate().take(w1 + 1).skip(w0) {
            // The last window is unbounded when clamped at the cap, so
            // the tail of the interval lands there in full.
            let edge = if w == w1 {
                end.as_ps()
            } else {
                ((w as u64 + 1) * window_ps).min(end.as_ps())
            };
            *slot += edge - cursor;
            cursor = edge;
        }
    }

    /// Records gauge `value` at instant `t` for `(kind, key)`, keeping
    /// the per-window maximum.
    pub fn gauge_max(&mut self, kind: u8, key: u64, t: SimTime, value: u64) {
        let w = self.index(t);
        let track = self.track(kind, key, w);
        track[w] = track[w].max(value);
    }

    /// Snapshot of the collected series as a [`Timeline`] report,
    /// tracks in ascending `(kind, key)` order.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            window: self.window,
            tracks: self
                .tracks
                .iter()
                .map(|(&(kind, key), samples)| Track {
                    kind,
                    key,
                    samples: samples.clone(),
                })
                .collect(),
        }
    }
}

/// The window width, then every track's `(kind, key)` and dense
/// samples, in key order.
impl Snap for TimeSeries {
    fn snapshot(&self, w: &mut SnapWriter) {
        let TimeSeries { window, tracks } = self;
        window.snapshot(w);
        tracks.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let TimeSeries { window, tracks } = self;
        window.restore(r)?;
        if *window == SimDuration::ZERO {
            return Err(SnapError::Malformed("zero time-series window"));
        }
        tracks.restore(r)?;
        if tracks.values().any(|s| s.len() > MAX_WINDOWS) {
            return Err(SnapError::Malformed("time-series track over cap"));
        }
        Ok(())
    }
}

/// One resource's sampled series: `samples[w]` is the value for window
/// `w` (dense from window 0; trailing windows the run never reached are
/// simply absent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Track {
    /// What the samples measure ([`KIND_LINK_UTIL`] …).
    pub kind: u8,
    /// Which resource: link index for link tracks, node id for handler
    /// occupancy, 0 for the global queue gauge.
    pub key: u64,
    /// Per-window values (picoseconds for occupancy kinds, a count for
    /// gauges).
    pub samples: Vec<u64>,
}

/// The end-of-run windowed time-series report: the `timeline` section
/// of the metrics JSON. Fixed shape, schema-versioned at the metrics
/// layer, deterministic track order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Window width (zero only in an empty default report).
    pub window: SimDuration,
    /// All tracks, ascending `(kind, key)`.
    pub tracks: Vec<Track>,
}

impl Timeline {
    /// Folds every counter into an FNV-1a digest continuation: the
    /// window width, then each track's kind, key, length, and full
    /// dense sample values. Keeps the timeline under the same
    /// digest contract as the histograms.
    pub fn digest(&self, seed: u64) -> u64 {
        let Timeline { window, tracks } = self;
        let mut h = fnv1a_fold(seed, window.as_ps());
        for Track { kind, key, samples } in tracks {
            h = fnv1a_fold(h, u64::from(*kind));
            h = fnv1a_fold(h, *key);
            h = fnv1a_fold(h, samples.len() as u64);
            for &s in samples {
                h = fnv1a_fold(h, s);
            }
        }
        h
    }

    /// Tracks of one kind, in ascending key order.
    pub fn tracks_of(&self, kind: u8) -> impl Iterator<Item = &Track> {
        self.tracks.iter().filter(move |t| t.kind == kind)
    }

    /// Deterministic JSON encoding: fixed field order, integral values,
    /// sparse samples (only non-zero windows, as `[index, value]`
    /// pairs) so quiet tracks stay small.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"window_ps\":{},\"tracks\":[", self.window.as_ps());
        for (i, t) in self.tracks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"key\":{},\"windows\":{},\"samples\":[",
                kind_label(t.kind),
                t.key,
                t.samples.len(),
            ));
            let mut first = true;
            for (w, &v) in t.samples.iter().enumerate() {
                if v == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{w},{v}]"));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_splits_across_window_boundaries() {
        let mut s = TimeSeries::new(SimDuration::from_us(1));
        // 0.5 us .. 2.5 us: 500 ns in window 0, 1000 in 1, 500 in 2.
        s.add_occupancy(
            KIND_LINK_UTIL,
            3,
            SimTime::from_ns(500),
            SimTime::from_ns(2500),
        );
        let tl = s.timeline();
        assert_eq!(tl.tracks.len(), 1);
        let t = &tl.tracks[0];
        assert_eq!((t.kind, t.key), (KIND_LINK_UTIL, 3));
        assert_eq!(
            t.samples,
            vec![500_000, 1_000_000, 500_000],
            "ps per window"
        );
        // Total is exactly the interval length: no rounding loss.
        assert_eq!(t.samples.iter().sum::<u64>(), 2_000_000);
    }

    #[test]
    fn empty_and_inverted_intervals_record_nothing() {
        let mut s = TimeSeries::new(SimDuration::from_us(1));
        s.add_occupancy(KIND_LINK_UTIL, 0, SimTime::from_ns(5), SimTime::from_ns(5));
        s.add_occupancy(KIND_LINK_UTIL, 0, SimTime::from_ns(9), SimTime::from_ns(5));
        assert!(s.timeline().tracks.is_empty());
    }

    #[test]
    fn gauge_keeps_per_window_maximum() {
        let mut s = TimeSeries::new(SimDuration::from_us(1));
        s.gauge_max(KIND_QUEUE_DEPTH, 0, SimTime::from_ns(100), 4);
        s.gauge_max(KIND_QUEUE_DEPTH, 0, SimTime::from_ns(900), 9);
        s.gauge_max(KIND_QUEUE_DEPTH, 0, SimTime::from_ns(950), 2);
        s.gauge_max(KIND_QUEUE_DEPTH, 0, SimTime::from_ns(1100), 1);
        let tl = s.timeline();
        assert_eq!(tl.tracks[0].samples, vec![9, 1]);
    }

    #[test]
    fn windows_clamp_at_the_cap() {
        let mut s = TimeSeries::new(SimDuration::from_ns(1));
        let far = SimTime::from_ps(MAX_WINDOWS as u64 * 1000 * 10);
        s.add_occupancy(KIND_HANDLER_OCC, 7, far, far + SimDuration::from_ns(2));
        s.gauge_max(KIND_QUEUE_DEPTH, 0, far, 5);
        let tl = s.timeline();
        for t in &tl.tracks {
            assert_eq!(t.samples.len(), MAX_WINDOWS, "clamped to the cap");
        }
        // The whole tail landed in the final window.
        assert_eq!(
            tl.tracks_of(KIND_HANDLER_OCC).next().unwrap().samples[MAX_WINDOWS - 1],
            2000
        );
    }

    #[test]
    fn interval_spanning_the_cap_keeps_exact_total() {
        let mut s = TimeSeries::new(SimDuration::from_ns(1));
        let start = SimTime::from_ps((MAX_WINDOWS as u64 - 2) * 1000);
        let end = SimTime::from_ps((MAX_WINDOWS as u64 + 5) * 1000);
        s.add_occupancy(KIND_LINK_UTIL, 0, start, end);
        let t = &s.timeline().tracks[0];
        assert_eq!(t.samples.iter().sum::<u64>(), end.since(start).as_ps());
        assert_eq!(t.samples[MAX_WINDOWS - 2], 1000);
        // Final window absorbed its own 1000 ps plus the 5-window tail.
        assert_eq!(t.samples[MAX_WINDOWS - 1], 6000);
    }

    #[test]
    fn timeline_digest_covers_every_sample() {
        let mut a = TimeSeries::new(SimDuration::from_us(1));
        a.add_occupancy(KIND_LINK_UTIL, 1, SimTime::ZERO, SimTime::from_ns(100));
        let base = a.timeline().digest(0);
        assert_eq!(base, a.timeline().digest(0), "digest is stable");
        let mut b = a.clone();
        b.add_occupancy(KIND_LINK_UTIL, 1, SimTime::ZERO, SimTime::from_ps(1));
        assert_ne!(base, b.timeline().digest(0), "sample value folds in");
        let mut c = a.clone();
        c.gauge_max(KIND_QUEUE_DEPTH, 0, SimTime::ZERO, 1);
        assert_ne!(base, c.timeline().digest(0), "new track folds in");
        assert_ne!(
            Timeline::default().digest(0),
            a.timeline().digest(0),
            "window width folds in"
        );
    }

    #[test]
    fn json_is_sparse_and_fixed_shape() {
        let mut s = TimeSeries::new(SimDuration::from_us(1));
        s.add_occupancy(
            KIND_LINK_UTIL,
            2,
            SimTime::from_us(3),
            SimTime::from_ns(3100),
        );
        let j = s.timeline().to_json();
        assert_eq!(
            j,
            "{\"window_ps\":1000000,\"tracks\":[{\"kind\":\"link_util\",\"key\":2,\
             \"windows\":4,\"samples\":[[3,100000]]}]}"
        );
        assert_eq!(
            Timeline::default().to_json(),
            "{\"window_ps\":0,\"tracks\":[]}"
        );
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut s = TimeSeries::new(SimDuration::from_us(2));
        s.add_occupancy(KIND_LINK_UTIL, 4, SimTime::ZERO, SimTime::from_us(5));
        s.gauge_max(KIND_QUEUE_DEPTH, 0, SimTime::from_us(1), 17);
        let mut w = SnapWriter::new();
        s.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = r.read::<TimeSeries>().unwrap();
        r.finish().unwrap();
        assert_eq!(back.timeline(), s.timeline());
        assert_eq!(back.window(), s.window());
    }

    #[test]
    fn set_window_only_before_samples() {
        let mut s = TimeSeries::default();
        s.set_window(SimDuration::from_us(50));
        assert_eq!(s.window(), SimDuration::from_us(50));
        s.gauge_max(KIND_QUEUE_DEPTH, 0, SimTime::ZERO, 1);
        let r = std::panic::catch_unwind(move || s.set_window(SimDuration::from_us(1)));
        assert!(r.is_err(), "resizing with samples must panic");
    }
}
