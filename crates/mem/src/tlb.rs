//! Fully-associative TLB model.
//!
//! The paper's host processor has fully-associative, 64-entry instruction
//! and data TLBs, and "accurately models the latency and cache effects
//! of TLB misses" (§4). Our model tracks resident page translations with
//! LRU replacement; on a miss, the memory hierarchy charges a page-table
//! walk (two dependent memory reads through the cache hierarchy).

use asan_sim::snap::{SnapError, SnapReader, SnapWriter};
use asan_sim::stats::Counter;

/// Configuration for a [`Tlb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// The paper's 64-entry TLB over 4 KB pages.
    pub fn paper() -> Self {
        TlbConfig {
            entries: 64,
            page_bytes: 4096,
        }
    }
}

/// TLB access statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbStats {
    /// Accesses that found the translation resident.
    pub hits: Counter,
    /// Accesses that required a page-table walk.
    pub misses: Counter,
}

/// A fully-associative, LRU, tagged TLB.
///
/// # Example
///
/// ```
/// use asan_mem::tlb::{Tlb, TlbConfig};
/// let mut t = Tlb::new(TlbConfig::paper());
/// assert!(!t.access(0x1234));          // cold
/// assert!(t.access(0x1FFF));           // same 4 KB page
/// assert!(!t.access(0x2000));          // next page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// (page number, recency stamp) pairs; vector scan is fine at 64 entries.
    entries: Vec<(u64, u64)>,
    stamp: u64,
    stats: TlbStats,
    page_shift: u32, // asan-lint: allow(snapshot-completeness)
    /// Index of the entry touched last, checked before the scan. Only a
    /// hint: pages are unique, so it finds the entry the scan would.
    mru: usize, // asan-lint: allow(snapshot-completeness)
}

impl Tlb {
    /// Builds a TLB.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `entries` is zero.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.page_bytes.is_power_of_two(), "page size must be 2^k");
        assert!(cfg.entries > 0, "TLB needs at least one entry");
        Tlb {
            page_shift: cfg.page_bytes.trailing_zeros(),
            cfg,
            entries: Vec::new(),
            stamp: 0,
            stats: TlbStats::default(),
            mru: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Looks up the page containing `addr`, inserting it on miss.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        self.stamp += 1;
        let found = match self.entries.get(self.mru) {
            Some(e) if e.0 == page => Some(self.mru),
            _ => self.entries.iter().position(|e| e.0 == page),
        };
        if let Some(i) = found {
            self.entries[i].1 = self.stamp;
            self.mru = i;
            self.stats.hits.inc();
            return true;
        }
        self.stats.misses.inc();
        if self.entries.len() < self.cfg.entries {
            self.mru = self.entries.len();
            self.entries.push((page, self.stamp));
        } else {
            let (victim, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .expect("non-empty");
            self.entries[victim] = (page, self.stamp);
            self.mru = victim;
        }
        false
    }

    /// Bulk-records `n` lookups that are known to hit resident
    /// translations (see [`Cache::record_warm_hits`] for the soundness
    /// conditions — the caller must have proven residency and
    /// exclusivity first).
    ///
    /// [`Cache::record_warm_hits`]: crate::Cache::record_warm_hits
    pub fn record_warm_hits(&mut self, n: u64) {
        self.stats.hits.add(n);
    }

    /// Checks residency without updating LRU, statistics, or contents.
    pub fn probe(&self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        self.entries.iter().any(|e| e.0 == page)
    }

    /// Drops all translations.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Writes the resident translations (in insertion order), the
    /// recency stamp and the statistics.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        w.u64(self.stamp);
        self.stats.hits.snapshot(w);
        self.stats.misses.snapshot(w);
        w.usize(self.entries.len());
        for &(page, lru) in &self.entries {
            w.u64(page);
            w.u64(lru);
        }
    }

    /// Overwrites this TLB's dynamic state from a snapshot taken of a
    /// TLB with the same configuration.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stamp = r.u64()?;
        self.stats = TlbStats {
            hits: Counter::restore(r)?,
            misses: Counter::restore(r)?,
        };
        let n = r.usize()?;
        if n > self.cfg.entries {
            return Err(SnapError::Malformed("TLB snapshot exceeds capacity"));
        }
        self.entries.clear();
        for _ in 0..n {
            let page = r.u64()?;
            let lru = r.u64()?;
            self.entries.push((page, lru));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = tiny();
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.stats().hits.get(), 1);
        assert_eq!(t.stats().misses.get(), 2);
    }

    #[test]
    fn lru_replacement() {
        let mut t = tiny();
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // refresh page 0
        t.access(0x2000); // evicts page 1
        assert!(t.access(0x0000));
        assert!(!t.access(0x1000));
    }

    #[test]
    fn flush_forgets_everything() {
        let mut t = tiny();
        t.access(0);
        t.flush();
        assert!(!t.access(0));
    }

    #[test]
    fn snapshot_restores_residency_and_lru() {
        let mut t = tiny();
        t.access(0x0000);
        t.access(0x1000);
        t.access(0x0000); // page 0 most recent
        let mut w = SnapWriter::new();
        t.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = tiny();
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.stats().hits.get(), t.stats().hits.get());
        assert_eq!(back.stats().misses.get(), t.stats().misses.get());
        // Same LRU victim on the next insertion (page 1 evicted).
        assert!(!back.access(0x2000));
        assert!(back.probe(0x0000));
        assert!(!back.probe(0x1000));
    }

    #[test]
    fn paper_config_covers_256kb_working_set() {
        let mut t = Tlb::new(TlbConfig::paper());
        // Touch 64 pages; all fit.
        for p in 0..64u64 {
            t.access(p * 4096);
        }
        for p in 0..64u64 {
            assert!(t.access(p * 4096), "page {p} evicted prematurely");
        }
        // A 65th page evicts exactly one of the originals (the LRU).
        t.access(64 * 4096);
        let resident = (0..64u64).filter(|p| t.probe(p * 4096)).count();
        assert_eq!(resident, 63);
        assert!(!t.probe(0)); // page 0 was least recently used
    }
}
