//! The address translation buffer (ATB).
//!
//! §3: "we introduce a direct-mapped ATB that maps a memory address into
//! a buffer ID and offset pair, creating the illusion of a flat memory
//! for switch programmers … each switch CPU has its own 16-entry ATB
//! (one entry per data buffer) that also assists with data buffer
//! de-allocation. When a handler needs to release data buffers, it
//! simply provides an address to the ATB, which translates it into the
//! buffer IDs that map all valid addresses less than the given address."
//!
//! Entries are direct-mapped by `(addr / 512) % 16`, exploiting the
//! streaming ("in order") arrival of mapped data: consecutive MTU-sized
//! chunks of a mapped file land in consecutive ATB slots.

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::stats::Counter;

use crate::buffer::{BufId, BUFFER_BYTES};

/// Number of ATB entries (one per data buffer in the paper).
pub const ATB_ENTRIES: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Base address of the mapped 512 B window.
    base: u32,
    buf: BufId,
}

/// A per-switch-CPU, direct-mapped address translation buffer.
///
/// # Example
///
/// ```
/// use asan_core::atb::Atb;
/// use asan_core::buffer::BufId;
///
/// let mut atb = Atb::new();
/// atb.map(0x1000, BufId(3));
/// assert_eq!(atb.translate(0x1005), Some((BufId(3), 5)));
/// assert_eq!(atb.translate(0x2000), None);
/// ```
#[derive(Debug)]
pub struct Atb {
    entries: [Option<Entry>; ATB_ENTRIES],
    hits: Counter,
    misses: Counter,
    conflict_evictions: Counter,
}

impl Atb {
    /// Creates an empty ATB.
    pub fn new() -> Self {
        Atb {
            entries: [None; ATB_ENTRIES],
            hits: Counter::default(),
            misses: Counter::default(),
            conflict_evictions: Counter::default(),
        }
    }

    #[inline]
    fn slot(addr: u32) -> usize {
        (addr as usize / BUFFER_BYTES) % ATB_ENTRIES
    }

    /// Maps the 512 B window at `base` (the header's address field) to
    /// data buffer `buf`. Returns the buffer previously occupying the
    /// slot, if a live mapping was evicted (a conflict — the dispatch
    /// unit must have freed it first in a correct run).
    pub fn map(&mut self, base: u32, buf: BufId) -> Option<BufId> {
        debug_assert_eq!(
            base as usize % BUFFER_BYTES,
            0,
            "mapped windows are MTU-aligned"
        );
        let slot = Self::slot(base);
        let old = self.entries[slot].map(|e| e.buf);
        if old.is_some() {
            self.conflict_evictions.inc();
        }
        self.entries[slot] = Some(Entry { base, buf });
        old
    }

    /// Translates `addr` to a `(buffer, offset)` pair, if mapped.
    pub fn translate(&mut self, addr: u32) -> Option<(BufId, usize)> {
        let base = addr - (addr % BUFFER_BYTES as u32);
        let slot = Self::slot(base);
        match self.entries[slot] {
            Some(e) if e.base == base => {
                self.hits.inc();
                Some((e.buf, (addr - base) as usize))
            }
            _ => {
                self.misses.inc();
                None
            }
        }
    }

    /// Checks a mapping without counting statistics.
    pub fn probe(&self, addr: u32) -> Option<(BufId, usize)> {
        let base = addr - (addr % BUFFER_BYTES as u32);
        match self.entries[Self::slot(base)] {
            Some(e) if e.base == base => Some((e.buf, (addr - base) as usize)),
            _ => None,
        }
    }

    /// Implements `Deallocate_Buffer(end)`: removes every mapping whose
    /// window lies entirely below `end`, returning the freed buffer IDs
    /// (the DBA releases them).
    pub fn deallocate_below(&mut self, end: u32) -> Vec<BufId> {
        let mut freed = Vec::new();
        for e in &mut self.entries {
            if let Some(entry) = e {
                if (entry.base as u64) + BUFFER_BYTES as u64 <= end as u64 {
                    freed.push(entry.buf);
                    *e = None;
                }
            }
        }
        freed.sort();
        freed
    }

    /// Removes the mapping of the window containing `addr`, if any.
    pub fn unmap(&mut self, addr: u32) -> Option<BufId> {
        let base = addr - (addr % BUFFER_BYTES as u32);
        let slot = Self::slot(base);
        match self.entries[slot] {
            Some(e) if e.base == base => {
                self.entries[slot] = None;
                Some(e.buf)
            }
            _ => None,
        }
    }

    /// Live mappings.
    pub fn mapped_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Translation hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Translation misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Mappings evicted by a conflicting `map` (should be zero in
    /// correct streaming runs).
    pub fn conflict_evictions(&self) -> u64 {
        self.conflict_evictions.get()
    }
}

impl Default for Atb {
    fn default() -> Self {
        Atb::new()
    }
}

/// Every slot as a presence byte plus, when live, its mapping; then the
/// translation counters. The slot count is fixed, so it is not written.
impl Snap for Atb {
    fn snapshot(&self, w: &mut SnapWriter) {
        let Atb {
            entries,
            hits,
            misses,
            conflict_evictions,
        } = self;
        for e in entries {
            w.bool(e.is_some());
            if let Some(Entry { base, buf }) = e {
                w.u32(*base);
                w.u8(buf.0);
            }
        }
        hits.snapshot(w);
        misses.snapshot(w);
        conflict_evictions.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Atb {
            entries,
            hits,
            misses,
            conflict_evictions,
        } = self;
        for e in entries {
            *e = if r.bool()? {
                let base = r.u32()?;
                let buf = BufId(r.u8()?);
                Some(Entry { base, buf })
            } else {
                None
            };
        }
        hits.restore(r)?;
        misses.restore(r)?;
        conflict_evictions.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_roundtrip() {
        let mut atb = Atb::new();
        atb.map(0x4000, BufId(7));
        assert_eq!(atb.translate(0x4000), Some((BufId(7), 0)));
        assert_eq!(atb.translate(0x41FF), Some((BufId(7), 511)));
        assert_eq!(atb.translate(0x4200), None);
        assert_eq!(atb.hits(), 2);
        assert_eq!(atb.misses(), 1);
    }

    #[test]
    fn sixteen_consecutive_windows_coexist() {
        let mut atb = Atb::new();
        for i in 0..16u32 {
            assert_eq!(atb.map(i * 512, BufId(i as u8)), None);
        }
        assert_eq!(atb.mapped_count(), 16);
        for i in 0..16u32 {
            assert_eq!(atb.probe(i * 512 + 100), Some((BufId(i as u8), 100)));
        }
        // The 17th window conflicts with the 1st (direct-mapped).
        assert_eq!(atb.map(16 * 512, BufId(0)), Some(BufId(0)));
        assert_eq!(atb.conflict_evictions(), 1);
    }

    #[test]
    fn deallocate_below_frees_prefix() {
        let mut atb = Atb::new();
        for i in 0..4u32 {
            atb.map(i * 512, BufId(i as u8));
        }
        // Free everything below 1024: windows 0 and 1.
        let freed = atb.deallocate_below(1024);
        assert_eq!(freed, vec![BufId(0), BufId(1)]);
        assert_eq!(atb.probe(0), None);
        assert_eq!(atb.probe(512), None);
        assert!(atb.probe(1024).is_some());
        // A partial window (end inside window 2) frees nothing more.
        assert!(atb.deallocate_below(1025).is_empty());
        assert_eq!(atb.deallocate_below(2048), vec![BufId(2), BufId(3)]);
    }

    #[test]
    fn unmap_specific_window() {
        let mut atb = Atb::new();
        atb.map(0x8000, BufId(2));
        assert_eq!(atb.unmap(0x8010), Some(BufId(2)));
        assert_eq!(atb.unmap(0x8010), None);
    }

    #[test]
    fn streaming_pattern_never_conflicts_within_window_reuse() {
        // Simulate the paper's streaming pattern: map window i, process,
        // deallocate, map window i+16 into the same slot.
        let mut atb = Atb::new();
        for i in 0..100u32 {
            let base = i * 512;
            if i >= 16 {
                // Streaming handler deallocated older windows already.
                let _ = atb.deallocate_below(base - 15 * 512);
            }
            assert_eq!(atb.map(base, BufId((i % 16) as u8)), None, "window {i}");
        }
        assert_eq!(atb.conflict_evictions(), 0);
    }
}
