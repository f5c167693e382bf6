//! The data buffer administrator (DBA).
//!
//! §3: "a data buffer administrator that aids in buffer allocation and
//! de-allocation … In our design, we have 16 data buffers, each 512
//! bytes long (MTU of the network)."
//!
//! Allocation is time-aware: a request made at time `t` when all buffers
//! are busy returns the buffer that frees earliest together with the
//! time the allocation actually succeeds, so callers (the dispatch unit
//! and handler send paths) naturally model buffer back-pressure.

use asan_sim::snap::{FixedShape, Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::stats::{Counter, Summary};
use asan_sim::SimTime;

use crate::buffer::{BufId, DataBuffer};

/// Number of data buffers in the paper's switch.
pub const NUM_BUFFERS: usize = 16;

/// The buffer file plus its administrator.
#[derive(Debug)]
pub struct BufferAdmin {
    buffers: Vec<DataBuffer>,
    /// `None` = free; `Some(t)` = busy, frees at `t` (MAX if open-ended).
    busy: Vec<Option<SimTime>>,
    allocs: Counter,
    alloc_waits: Counter,
    occupancy: Summary,
}

impl BufferAdmin {
    /// Creates an administrator over `n` buffers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 255 (the `BufId` range).
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n <= 255, "buffer count out of range");
        BufferAdmin {
            buffers: (0..n).map(|_| DataBuffer::new()).collect(),
            busy: vec![None; n],
            allocs: Counter::default(),
            alloc_waits: Counter::default(),
            occupancy: Summary::default(),
        }
    }

    /// The paper's 16-buffer administrator.
    pub fn paper() -> Self {
        BufferAdmin::new(NUM_BUFFERS)
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether there are no buffers (never true for a valid admin).
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Buffers currently busy at `t`.
    pub fn busy_count(&self, t: SimTime) -> usize {
        self.busy
            .iter()
            .filter(|b| matches!(b, Some(free) if *free > t))
            .count()
    }

    /// Allocates a buffer for use starting at `now`. If all are busy,
    /// the allocation waits for the earliest release. Returns the buffer
    /// and the time the allocation succeeded.
    pub fn alloc(&mut self, now: SimTime) -> (BufId, SimTime) {
        self.allocs.inc();
        self.occupancy.record(self.busy_count(now) as u64);
        // Prefer a buffer already free at `now`.
        let mut best: Option<(usize, SimTime)> = None;
        for (i, b) in self.busy.iter().enumerate() {
            let free_at = match b {
                None => SimTime::ZERO,
                Some(t) => *t,
            };
            if best.is_none_or(|(_, bt)| free_at < bt) {
                best = Some((i, free_at));
            }
        }
        let (idx, free_at) = best.expect("non-empty buffer file");
        let granted = now.max(free_at);
        if free_at > now {
            self.alloc_waits.inc();
        }
        // Mark open-ended busy; `release` closes it.
        self.busy[idx] = Some(SimTime::MAX);
        self.buffers[idx].reset();
        (BufId(u8::try_from(idx).expect("a buffer index")), granted)
    }

    /// Releases `id` at time `t` (handler done with it, or the send unit
    /// finished draining it).
    ///
    /// # Panics
    ///
    /// Panics if the buffer was not allocated.
    pub fn release(&mut self, id: BufId, t: SimTime) {
        let slot = &mut self.busy[id.0 as usize];
        assert!(slot.is_some(), "releasing free buffer {id:?}");
        *slot = Some(t);
    }

    /// Access to a buffer's contents.
    pub fn buffer(&self, id: BufId) -> &DataBuffer {
        &self.buffers[id.0 as usize]
    }

    /// Mutable access to a buffer's contents.
    pub fn buffer_mut(&mut self, id: BufId) -> &mut DataBuffer {
        &mut self.buffers[id.0 as usize]
    }

    /// Total allocations.
    pub fn allocs(&self) -> u64 {
        self.allocs.get()
    }

    /// Allocations that had to wait for a release.
    pub fn alloc_waits(&self) -> u64 {
        self.alloc_waits.get()
    }

    /// Occupancy distribution sampled at each allocation.
    pub fn occupancy(&self) -> &Summary {
        &self.occupancy
    }
}

/// Every buffer's contents, the busy map (one entry per buffer, so no
/// second length prefix), and the allocation statistics. The buffer
/// count is configuration and must match on restore.
impl Snap for BufferAdmin {
    fn snapshot(&self, w: &mut SnapWriter) {
        let BufferAdmin {
            buffers,
            busy,
            allocs,
            alloc_waits,
            occupancy,
        } = self;
        buffers.snapshot_fixed(w);
        busy.iter().for_each(|b| b.snapshot(w));
        allocs.snapshot(w);
        alloc_waits.snapshot(w);
        occupancy.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let BufferAdmin {
            buffers,
            busy,
            allocs,
            alloc_waits,
            occupancy,
        } = self;
        buffers.restore_fixed(r)?;
        busy.iter_mut().try_for_each(|b| b.restore(r))?;
        allocs.restore(r)?;
        alloc_waits.restore(r)?;
        occupancy.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_buffer_is_immediate() {
        let mut a = BufferAdmin::paper();
        let (id, t) = a.alloc(SimTime::from_ns(5));
        assert_eq!(t, SimTime::from_ns(5));
        assert_eq!(a.busy_count(SimTime::from_ns(5)), 1);
        a.release(id, SimTime::from_ns(100));
        assert_eq!(a.busy_count(SimTime::from_ns(101)), 0);
    }

    #[test]
    fn exhaustion_waits_for_earliest_release() {
        let mut a = BufferAdmin::new(2);
        let (b0, _) = a.alloc(SimTime::ZERO);
        let (b1, _) = a.alloc(SimTime::ZERO);
        a.release(b0, SimTime::from_ns(300));
        a.release(b1, SimTime::from_ns(200));
        let (id, t) = a.alloc(SimTime::from_ns(10));
        // b1 frees first.
        assert_eq!(id, b1);
        assert_eq!(t, SimTime::from_ns(200));
        assert_eq!(a.alloc_waits(), 1);
    }

    #[test]
    fn streaming_needs_only_two_buffers() {
        // The paper's observation: one input + one output stream = 2
        // buffers. Simulate 100 packets with prompt release.
        let mut a = BufferAdmin::new(2);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            let (inb, granted) = a.alloc(t);
            let done = granted + asan_sim::SimDuration::from_ns(500);
            a.release(inb, done);
            let (outb, granted_o) = a.alloc(granted);
            a.release(outb, granted_o + asan_sim::SimDuration::from_ns(600));
            t = done;
        }
        // Two buffers sustain the pipeline: every allocation succeeds and
        // at most both are ever in flight.
        assert_eq!(a.allocs(), 200);
        assert!(a.occupancy().max().unwrap() <= 2);
    }

    #[test]
    #[should_panic(expected = "releasing free buffer")]
    fn releasing_unallocated_buffer_panics() {
        let mut a = BufferAdmin::new(2);
        a.release(BufId(1), SimTime::ZERO);
    }

    #[test]
    fn occupancy_summary_tracks_high_water() {
        let mut a = BufferAdmin::new(4);
        let (x, _) = a.alloc(SimTime::ZERO);
        let (_y, _) = a.alloc(SimTime::ZERO);
        let (_z, _) = a.alloc(SimTime::ZERO);
        a.release(x, SimTime::from_ns(1));
        let _ = a.alloc(SimTime::from_ns(2));
        assert_eq!(a.occupancy().max(), Some(2));
        assert_eq!(a.occupancy().count(), 4);
    }

    #[test]
    fn buffer_contents_reset_on_alloc() {
        let mut a = BufferAdmin::new(1);
        let (id, _) = a.alloc(SimTime::ZERO);
        a.buffer_mut(id)
            .fill(&[1u8; 64], SimTime::ZERO, SimTime::ZERO);
        a.release(id, SimTime::from_ns(1));
        let (id2, _) = a.alloc(SimTime::from_ns(2));
        assert_eq!(id, id2);
        assert!(a.buffer(id2).is_empty());
    }
}
