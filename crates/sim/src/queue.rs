//! Deterministic pending-event set.
//!
//! A two-level bucketed calendar queue ordered by `(time, sequence)`.
//! The monotonically increasing sequence number guarantees FIFO ordering
//! among events scheduled for the same instant, which makes whole-system
//! simulations reproducible regardless of queue internals.
//!
//! # Design
//!
//! The queue keeps a *ring* of `RING_BUCKETS` time buckets, each
//! `BUCKET_WIDTH_PS` picoseconds wide, covering a sliding near-future
//! horizon of about 67 µs ahead of the drain cursor. An event whose time
//! falls inside the horizon lands in its bucket; everything farther out
//! goes to a sorted *overflow* map keyed by `(time, seq)`. Within a
//! bucket, entries are kept ascending by `(time, seq)`, so the common
//! case — engines scheduling monotonically increasing times — is an O(1)
//! `push_back`, and a same-instant burst stays FIFO by construction.
//!
//! `pop` scans the ring forward from the cursor to the first non-empty
//! bucket and compares that bucket's head against the overflow's first
//! entry, taking whichever `(time, seq)` is smaller. Comparing both
//! sides on every pop (rather than assuming the ring always wins) keeps
//! the order exact even when an overflow entry predates ring entries
//! inserted after the horizon moved. When the ring drains empty, the
//! cursor re-anchors at the next pending time and the overflow's
//! now-in-horizon prefix migrates into the ring in one `split_off`.
//!
//! Events pushed *earlier* than the cursor (allowed by the API, unused
//! by the simulator's causal engines) are clamped into the cursor's
//! bucket at their sorted position; since the cursor bucket is always
//! scanned first and buckets order entries by exact `(time, seq)`, the
//! global pop order is still exact.

use std::collections::{BTreeMap, VecDeque};

use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;

/// Width of one ring bucket in picoseconds (65 536 ps ≈ 65.5 ns — a few
/// switch cycles).
const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_WIDTH_BITS;
const BUCKET_WIDTH_BITS: u32 = 16;
/// Number of buckets in the near-future ring (horizon ≈ 67 µs).
const RING_BUCKETS: u64 = 1024;

/// A time-ordered queue of events of type `E`.
///
/// # Example
///
/// ```
/// use asan_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(10), 'b');
/// q.push(SimTime::from_ns(10), 'c'); // same time: FIFO after 'b'
/// q.push(SimTime::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of near-future buckets; bucket for absolute bucket index
    /// `b` is `ring[b % RING_BUCKETS]`.
    ring: Vec<VecDeque<Entry<E>>>,
    /// Absolute bucket index (`time_ps >> BUCKET_WIDTH_BITS`) the drain
    /// cursor is at. Every live ring entry sits in a bucket whose
    /// absolute index is in `[cursor, cursor + RING_BUCKETS)`.
    /// Rebuilt on restore by re-placing entries, so its exact value is
    /// not part of the snapshot (pop order is cursor-independent).
    cursor: u64,
    /// Events currently in the ring.
    ring_len: usize,
    /// Far-future events, sorted by `(time, seq)`.
    overflow: BTreeMap<(SimTime, u64), E>,
    /// Occupancy bitmap over ring slots: bit `s` of word `s / 64` is
    /// set iff `ring[s]` is non-empty. Makes find-next-non-empty a few
    /// `trailing_zeros` instead of a bucket walk. Derived state,
    /// rebuilt on restore.
    occupied: [u64; (RING_BUCKETS / 64) as usize],
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..RING_BUCKETS).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            ring_len: 0,
            overflow: BTreeMap::new(),
            occupied: [0; (RING_BUCKETS / 64) as usize],
            next_seq: 0,
        }
    }

    /// The first occupied ring slot at ring distance ≥ `from mod RING`
    /// from `from`, as an *absolute* bucket index ≥ `from`. Must only
    /// be called while the ring holds at least one event.
    fn next_occupied_abs(&self, from: u64) -> u64 {
        debug_assert!(self.ring_len > 0);
        let start = (from % RING_BUCKETS) as usize;
        let words = self.occupied.len();
        // First word: mask off slots before `start`.
        let mut w = start / 64;
        let mut word = self.occupied[w] & (!0u64 << (start % 64));
        let mut dist_base = 0u64; // ring distance of word w's bit 0 from `start`'s word
        loop {
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                // Ring distance from `start`, wrapping once at most.
                let dist = (slot as u64 + RING_BUCKETS - start as u64) % RING_BUCKETS;
                return from + dist;
            }
            dist_base += 64;
            debug_assert!(dist_base <= RING_BUCKETS + 64, "ring occupancy desynced");
            w = (w + 1) % words;
            word = self.occupied[w];
            if w == start / 64 {
                // Wrapped to the starting word: only slots before
                // `start` remain.
                word &= !(!0u64 << (start % 64));
            }
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.place(Entry { time, seq, event });
    }

    fn place(&mut self, e: Entry<E>) {
        let abs = e.time.as_ps() >> BUCKET_WIDTH_BITS;
        if self.ring_len == 0 {
            // Nothing constrains the ring: re-anchor the horizon at the
            // new event (overflow entries are compared at pop time, so
            // an earlier overflow minimum stays correct).
            self.cursor = abs;
        }
        if abs >= self.cursor + RING_BUCKETS {
            self.overflow.insert((e.time, e.seq), e.event);
            return;
        }
        // Clamp past-of-cursor times into the cursor's bucket: it is
        // always the first bucket scanned, and in-bucket order is by
        // exact (time, seq), so ordering is preserved.
        let slot = abs.max(self.cursor);
        let ring_idx = (slot % RING_BUCKETS) as usize;
        self.occupied[ring_idx / 64] |= 1u64 << (ring_idx % 64);
        let bucket = &mut self.ring[ring_idx];
        let key = (e.time, e.seq);
        // Common case: monotonically nondecreasing keys append in O(1).
        match bucket.back() {
            Some(last) if (last.time, last.seq) > key => {
                let at = bucket.partition_point(|x| (x.time, x.seq) < key);
                bucket.insert(at, e);
            }
            _ => bucket.push_back(e),
        }
        self.ring_len += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ring_len == 0 && !self.overflow.is_empty() {
            self.refill_from_overflow();
        }
        // First non-empty ring bucket at or after the cursor.
        let ring_head = (self.ring_len > 0).then(|| {
            let b = self.next_occupied_abs(self.cursor);
            let front = self.ring[(b % RING_BUCKETS) as usize]
                .front()
                .expect("occupied slot non-empty");
            (front.time, front.seq, b)
        });
        // The overflow's first entry can predate the ring head when the
        // horizon has moved since it was inserted; compare every pop.
        let overflow_head = self.overflow.first_key_value().map(|(&k, _)| k);
        let ring_wins = match (ring_head, overflow_head) {
            (Some((t, seq, _)), Some(o)) => (t, seq) < o,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if ring_wins {
            let (_, _, bucket_abs) = ring_head.expect("ring wins");
            self.cursor = bucket_abs;
            let ring_idx = (bucket_abs % RING_BUCKETS) as usize;
            let e = self.ring[ring_idx]
                .pop_front()
                .expect("selected bucket non-empty");
            if self.ring[ring_idx].is_empty() {
                self.occupied[ring_idx / 64] &= !(1u64 << (ring_idx % 64));
            }
            self.ring_len -= 1;
            Some((e.time, e.event))
        } else {
            let ((t, _), event) = self.overflow.pop_first().expect("overflow wins");
            Some((t, event))
        }
    }

    /// Re-anchors the cursor at the overflow's first entry and migrates
    /// the now-in-horizon prefix into the (empty) ring.
    fn refill_from_overflow(&mut self) {
        let (&(first, _), _) = self.overflow.first_key_value().expect("non-empty");
        self.cursor = first.as_ps() >> BUCKET_WIDTH_BITS;
        let horizon_ps = (self.cursor + RING_BUCKETS).saturating_mul(BUCKET_WIDTH_PS);
        let far = self
            .overflow
            .split_off(&(SimTime::from_ps(horizon_ps), u64::MIN));
        let near = std::mem::replace(&mut self.overflow, far);
        for ((time, seq), event) in near {
            // Ascending order: every insert is an O(1) append.
            self.place(Entry { time, seq, event });
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let ring_head = (self.ring_len > 0).then(|| {
            let b = self.next_occupied_abs(self.cursor);
            let front = self.ring[(b % RING_BUCKETS) as usize]
                .front()
                .expect("occupied slot non-empty");
            (front.time, front.seq)
        });
        let overflow_head = self.overflow.first_key_value().map(|(&k, _)| k);
        match (ring_head, overflow_head) {
            (Some(r), Some(o)) => Some(r.min(o).0),
            (Some(r), None) => Some(r.0),
            (None, Some(o)) => Some(o.0),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every pending entry in exact `(time, seq)` order using
    /// `enc` to encode each event, followed by the sequence cursor.
    ///
    /// The ring geometry (cursor position, bucket occupancy) is *not*
    /// serialized: pop order depends only on `(time, seq)` keys, so
    /// [`EventQueue::restore_with`] rebuilds an equivalent queue by
    /// re-placing the entries with their original sequence numbers.
    pub fn snapshot_with(&self, w: &mut SnapWriter, mut enc: impl FnMut(&mut SnapWriter, &E)) {
        let EventQueue {
            ring,
            cursor: _,
            ring_len: _,
            overflow,
            occupied: _,
            next_seq,
        } = self;
        w.usize(self.len());
        let mut ring_entries: Vec<&Entry<E>> = ring.iter().flatten().collect();
        ring_entries.sort_by_key(|e| (e.time, e.seq));
        let mut ring_iter = ring_entries.into_iter().peekable();
        let mut over_iter = overflow.iter().peekable();
        loop {
            let take_ring = match (ring_iter.peek(), over_iter.peek()) {
                (Some(e), Some((&(t, s), _))) => (e.time, e.seq) < (t, s),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (time, seq, event) = if take_ring {
                let e = ring_iter.next().expect("ring head present");
                (e.time, e.seq, &e.event)
            } else {
                let (&(t, s), ev) = over_iter.next().expect("overflow head present");
                (t, s, ev)
            };
            w.time(time);
            w.u64(seq);
            enc(w, event);
        }
        w.u64(*next_seq);
    }

    /// Rebuilds a queue from a snapshot written by
    /// [`EventQueue::snapshot_with`], decoding each event with `dec`.
    /// The restored queue pops the exact same `(time, event)` sequence
    /// the snapshotted queue would have, and new pushes continue the
    /// original sequence-number stream.
    pub fn restore_with(
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> Result<E, SnapError>,
    ) -> Result<Self, SnapError> {
        let n = r.usize()?;
        let mut q = EventQueue::new();
        let mut last: Option<(SimTime, u64)> = None;
        for _ in 0..n {
            let time = r.time()?;
            let seq = r.u64()?;
            if last.is_some_and(|k| k >= (time, seq)) {
                return Err(SnapError::Malformed("queue entries out of order"));
            }
            last = Some((time, seq));
            let event = dec(r)?;
            // Ascending (time, seq): every place is an append, and the
            // first entry re-anchors the cursor.
            q.place(Entry { time, seq, event });
        }
        q.next_seq = r.u64()?;
        if let Some((_, s)) = last {
            if q.next_seq <= s {
                return Err(SnapError::Malformed("queue seq cursor behind live entry"));
            }
        }
        Ok(q)
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.ring {
            b.clear();
        }
        self.ring_len = 0;
        self.occupied = [0; (RING_BUCKETS / 64) as usize];
        self.overflow.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(3), 3u32);
        q.push(SimTime::from_ns(1), 1);
        q.push(SimTime::from_ns(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_ns(5), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_ns(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(9)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "late");
        q.push(SimTime::from_ns(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_ns(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn far_future_spill_round_trips_through_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the ~67 µs horizon: milliseconds out.
        q.push(SimTime::from_ms(5), "far");
        q.push(SimTime::from_ns(1), "near");
        q.push(SimTime::from_ms(5), "far2"); // same instant: FIFO
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(5)));
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_entry_beats_later_ring_entry() {
        let mut q = EventQueue::new();
        // Anchor the horizon at ~0, spill an entry just past it…
        q.push(SimTime::ZERO, "t0");
        q.push(SimTime::from_us(100), "t100us");
        assert_eq!(q.pop().unwrap().1, "t0");
        // …then re-anchor far ahead so the old overflow entry is now
        // before the ring entry pushed after it.
        q.push(SimTime::from_us(200), "t200us");
        assert_eq!(q.pop().unwrap().1, "t100us");
        assert_eq!(q.pop().unwrap().1, "t200us");
    }

    /// Exact-order reference model: a binary heap over `(time, seq, id)`
    /// with an explicit FIFO sequence — the specification the calendar
    /// queue must match pop for pop.
    struct RefQueue {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, u32)>>,
        next_seq: u64,
    }

    impl RefQueue {
        fn new() -> RefQueue {
            RefQueue {
                heap: std::collections::BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, t: SimTime, id: u32) {
            self.heap.push(std::cmp::Reverse((t, self.next_seq, id)));
            self.next_seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.heap.pop().map(|std::cmp::Reverse((t, _, id))| (t, id))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|std::cmp::Reverse((t, _, _))| *t)
        }
    }

    /// Fixed-seed xorshift64* — deterministic on every run and machine.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Randomized-but-deterministic equivalence with the heap reference
    /// under an adversarial operation mix: same-instant bursts (FIFO),
    /// far-future spills through the overflow, pushes into the cursor's
    /// past, and interleaved pops that drag the horizon forward.
    #[test]
    fn property_matches_binary_heap_reference() {
        for seed in [1u64, 0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF_CAFE_F00D] {
            let mut rng = seed;
            let mut q = EventQueue::new();
            let mut model = RefQueue::new();
            let mut id = 0u32;
            let mut now = SimTime::ZERO;
            let mut last_push = SimTime::ZERO;
            for _ in 0..5_000 {
                let r = xorshift(&mut rng);
                if r % 100 < 40 {
                    let got = q.pop();
                    assert_eq!(got, model.pop(), "seed {seed:#x}, pop #{id}");
                    if let Some((t, _)) = got {
                        now = t;
                    }
                } else {
                    let t = match (r >> 8) % 5 {
                        // Same-instant burst: exercises in-bucket FIFO.
                        0 => last_push,
                        // Near future, inside the ring horizon.
                        1 => SimTime::from_ps(now.as_ps() + (r >> 16) % 1_000_000),
                        // Far future: spills into the overflow map.
                        2 => {
                            SimTime::from_ps(now.as_ps() + 100_000_000 + (r >> 16) % 1_000_000_000)
                        }
                        // The cursor's past (allowed by the API).
                        3 => SimTime::from_ps(now.as_ps().saturating_sub((r >> 16) % 1_000_000)),
                        // Right at the horizon boundary.
                        _ => SimTime::from_ps(
                            now.as_ps() + RING_BUCKETS * BUCKET_WIDTH_PS - 2 * BUCKET_WIDTH_PS
                                + (r >> 16) % (4 * BUCKET_WIDTH_PS),
                        ),
                    };
                    q.push(t, id);
                    model.push(t, id);
                    last_push = t;
                    id += 1;
                }
                assert_eq!(q.len(), model.heap.len(), "seed {seed:#x}");
                assert_eq!(q.peek_time(), model.peek_time(), "seed {seed:#x}");
            }
            // Drain: every remaining event must come out in exact order.
            loop {
                let got = q.pop();
                assert_eq!(got, model.pop(), "seed {seed:#x}, drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// Snapshot → restore must preserve pop order exactly, including
    /// entries split across the ring and the overflow map, and new
    /// pushes after restore must continue the original FIFO stream.
    #[test]
    fn snapshot_restore_preserves_pop_order() {
        let mut rng = 0xA5A5_5A5A_1234_5678u64;
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        for id in 0..2_000u32 {
            let r = xorshift(&mut rng);
            if r % 100 < 30 {
                if let Some((t, _)) = q.pop() {
                    now = t;
                }
            } else {
                let t = match (r >> 8) % 4 {
                    0 => now,
                    1 => SimTime::from_ps(now.as_ps() + (r >> 16) % 1_000_000),
                    2 => SimTime::from_ps(now.as_ps() + 100_000_000 + (r >> 16) % 1_000_000_000),
                    _ => SimTime::from_ps(now.as_ps().saturating_sub((r >> 16) % 1_000_000)),
                };
                q.push(t, id);
            }
        }
        let mut w = SnapWriter::new();
        q.snapshot_with(&mut w, |w, e| w.u32(*e));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        #[expect(
            clippy::redundant_closure_for_method_calls,
            reason = "the decoder must be higher-ranked over the reader's lifetime"
        )]
        let mut q2: EventQueue<u32> = EventQueue::restore_with(&mut r, |r| r.u32()).unwrap();
        r.finish().unwrap();

        assert_eq!(q.len(), q2.len());
        // Interleave further pushes so new seq numbers are exercised.
        for id in 9_000..9_050u32 {
            let t = SimTime::from_ps(now.as_ps() + (id as u64) * 17);
            q.push(t, id);
            q2.push(t, id);
        }
        loop {
            let a = q.pop();
            let b = q2.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn restore_rejects_corrupt_order() {
        let mut w = SnapWriter::new();
        // Two entries with non-ascending (time, seq).
        w.usize(2);
        w.time(SimTime::from_ns(5));
        w.u64(1);
        w.u32(0);
        w.time(SimTime::from_ns(5));
        w.u64(1);
        w.u32(1);
        w.u64(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        #[expect(
            clippy::redundant_closure_for_method_calls,
            reason = "the decoder must be higher-ranked over the reader's lifetime"
        )]
        let got: Result<EventQueue<u32>, _> = EventQueue::restore_with(&mut r, |r| r.u32());
        assert!(matches!(got, Err(SnapError::Malformed(_))));
    }

    #[test]
    fn push_earlier_than_cursor_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(50), "anchor");
        assert_eq!(q.pop().unwrap().1, "anchor");
        // The cursor now sits at 50 µs; a push in its past must still
        // pop before anything later.
        q.push(SimTime::from_us(60), "later");
        q.push(SimTime::from_ns(1), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "later");
    }
}
