//! Fully-associative TLB model.
//!
//! The paper's host processor has fully-associative, 64-entry instruction
//! and data TLBs, and "accurately models the latency and cache effects
//! of TLB misses" (§4). Our model tracks resident page translations with
//! LRU replacement; on a miss, the memory hierarchy charges a page-table
//! walk (two dependent memory reads through the cache hierarchy).

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
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
    /// (page number, recency stamp) pairs in slot order; a victim's
    /// slot is reused in place.
    entries: Vec<(u64, u64)>,
    stamp: u64,
    stats: TlbStats,
    page_shift: u32,
    /// Index of the entry touched last, checked before any search. Only
    /// a hint: pages are unique, so it finds the entry a search would.
    mru: usize,
    /// Page lookup and recency order over `entries`, built when the TLB
    /// first fills (until then nothing is evicted, and a scan finds a
    /// page among the few resident ones). Rebuilt on restore, dropped
    /// on flush.
    index: Option<Index>,
}

/// "No slot" in [`Index`] links.
const NIL: u8 = u8::MAX;

/// A page→slot hash index and a most- to least-recent list over the
/// slots of a [`Tlb`], in one allocation of `u8` links.
///
/// Stamps are unique and increase with every access, so the list tail
/// is the entry with the smallest stamp: the LRU victim a scan finds.
#[derive(Debug, Clone)]
struct Index {
    /// `prev[0..cap]`, `next[0..cap]`, then an open-addressed table of
    /// `1 << bits` cells holding `slot + 1` (0 = empty).
    links: Box<[u8]>,
    cap: usize,
    bits: u32,
    head: u8,
    tail: u8,
}

impl Index {
    /// Indexes `entries`, a TLB's slots.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Malformed`] if a page is resident twice or
    /// two entries share a stamp.
    fn build(entries: &[(u64, u64)]) -> Result<Self, SnapError> {
        let cap = entries.len();
        let cells = (2 * cap).next_power_of_two().max(2);
        let mut links = vec![0; 2 * cap + cells];
        links[..2 * cap].fill(NIL);
        let mut index = Index {
            links: links.into_boxed_slice(),
            cap,
            bits: cells.trailing_zeros(),
            head: NIL,
            tail: NIL,
        };
        for (slot, &(page, _)) in entries.iter().enumerate() {
            if index.find(page, &entries[..slot]).is_some() {
                return Err(SnapError::Malformed("TLB page resident twice"));
            }
            index.insert(page, slot);
        }
        let mut order: Vec<u8> = (0..cap as u8).collect();
        order.sort_unstable_by_key(|&slot| entries[usize::from(slot)].1);
        if order
            .windows(2)
            .any(|w| entries[usize::from(w[0])].1 == entries[usize::from(w[1])].1)
        {
            return Err(SnapError::Malformed("TLB stamp shared by two entries"));
        }
        for slot in order {
            index.push_front(slot);
        }
        Ok(index)
    }

    fn mask(&self) -> usize {
        (1 << self.bits) - 1
    }

    /// The page's home cell in the table.
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize
    }

    fn cell(&self, i: usize) -> u8 {
        self.links[2 * self.cap + i]
    }

    fn set_cell(&mut self, i: usize, v: u8) {
        self.links[2 * self.cap + i] = v;
    }

    /// The table cell holding `page`, if it is resident.
    fn find_cell(&self, page: u64, entries: &[(u64, u64)]) -> Option<usize> {
        let mask = self.mask();
        let mut i = self.home(page);
        loop {
            match self.cell(i) {
                0 => return None,
                v if entries[usize::from(v - 1)].0 == page => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot holding `page`, if it is resident.
    fn find(&self, page: u64, entries: &[(u64, u64)]) -> Option<usize> {
        self.find_cell(page, entries)
            .map(|i| usize::from(self.cell(i) - 1))
    }

    /// Indexes `slot` under `page`, which must not be resident.
    fn insert(&mut self, page: u64, slot: usize) {
        let mask = self.mask();
        let mut i = self.home(page);
        while self.cell(i) != 0 {
            i = (i + 1) & mask;
        }
        self.set_cell(i, slot as u8 + 1);
    }

    /// Unindexes resident `page` (backward-shift deletion, so probe
    /// chains stay unbroken without tombstones).
    fn remove(&mut self, page: u64, entries: &[(u64, u64)]) {
        let mask = self.mask();
        let mut hole = self.find_cell(page, entries).expect("resident page");
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let v = self.cell(j);
            if v == 0 {
                break;
            }
            let home = self.home(entries[usize::from(v - 1)].0);
            // The entry at `j` may fill the hole unless its home lies
            // cyclically in `(hole, j]`.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.set_cell(hole, v);
                hole = j;
            }
        }
        self.set_cell(hole, 0);
    }

    fn prev(&self, slot: u8) -> u8 {
        self.links[usize::from(slot)]
    }

    fn next(&self, slot: u8) -> u8 {
        self.links[self.cap + usize::from(slot)]
    }

    fn set_prev(&mut self, slot: u8, v: u8) {
        self.links[usize::from(slot)] = v;
    }

    fn set_next(&mut self, slot: u8, v: u8) {
        self.links[self.cap + usize::from(slot)] = v;
    }

    /// Makes `slot` (not currently listed) the most recent.
    fn push_front(&mut self, slot: u8) {
        self.set_prev(slot, NIL);
        self.set_next(slot, self.head);
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.set_prev(self.head, slot);
        }
        self.head = slot;
    }

    /// Moves listed `slot` to the front.
    fn touch(&mut self, slot: u8) {
        if self.head == slot {
            return;
        }
        let (p, n) = (self.prev(slot), self.next(slot));
        self.set_next(p, n); // `slot` is not the head, so `p` is a slot
        if n == NIL {
            self.tail = p;
        } else {
            self.set_prev(n, p);
        }
        self.push_front(slot);
    }
}

impl Tlb {
    /// Builds a TLB.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `entries` is not
    /// in `1..=255`.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.page_bytes.is_power_of_two(), "page size must be 2^k");
        assert!(cfg.entries > 0, "TLB needs at least one entry");
        assert!(
            cfg.entries <= usize::from(NIL),
            "TLB holds at most 255 entries"
        );
        Tlb {
            page_shift: cfg.page_bytes.trailing_zeros(),
            cfg,
            entries: Vec::new(),
            stamp: 0,
            stats: TlbStats::default(),
            mru: 0,
            index: None,
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

    /// Looks up the page containing `addr`, inserting it on miss and
    /// evicting the least recently used entry when full. Returns `true`
    /// on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        self.stamp += 1;
        let found = match self.entries.get(self.mru) {
            Some(e) if e.0 == page => Some(self.mru),
            _ => self.find(page),
        };
        if let Some(i) = found {
            self.entries[i].1 = self.stamp;
            if let Some(index) = &mut self.index {
                index.touch(i as u8);
            }
            self.mru = i;
            self.stats.hits.inc();
            return true;
        }
        self.stats.misses.inc();
        if let Some(index) = &mut self.index {
            let victim = index.tail;
            let v = usize::from(victim);
            index.remove(self.entries[v].0, &self.entries);
            self.entries[v] = (page, self.stamp);
            index.insert(page, v);
            index.touch(victim);
            self.mru = v;
        } else {
            self.mru = self.entries.len();
            self.entries.push((page, self.stamp));
            if self.entries.len() == self.cfg.entries {
                self.index =
                    Some(Index::build(&self.entries).expect("live entries are consistent"));
            }
        }
        false
    }

    /// The slot holding `page`, if it is resident.
    fn find(&self, page: u64) -> Option<usize> {
        match &self.index {
            Some(index) => index.find(page, &self.entries),
            None => self.entries.iter().position(|e| e.0 == page),
        }
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
        self.find(addr >> self.page_shift).is_some()
    }

    /// Drops all translations.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.index = None;
    }
}

asan_sim::snap_fields!(TlbStats { hits, misses });

/// The recency stamp, the statistics and the resident translations in
/// slot order. Restore rejects more entries than the TLB holds, a page
/// resident twice, two entries with one stamp, or a stamp above the
/// saved clock: the recency order is rebuilt from the stamps and needs
/// all of them to hold.
impl Snap for Tlb {
    fn snapshot(&self, w: &mut SnapWriter) {
        let Tlb {
            cfg: _,
            entries,
            stamp,
            stats,
            page_shift: _,
            mru: _,
            index: _,
        } = self;
        stamp.snapshot(w);
        stats.snapshot(w);
        entries.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Tlb {
            cfg,
            entries,
            stamp,
            stats,
            page_shift: _,
            mru: _,
            index,
        } = self;
        stamp.restore(r)?;
        stats.restore(r)?;
        let n = r.usize()?;
        if n > cfg.entries {
            return Err(SnapError::Malformed("TLB snapshot exceeds capacity"));
        }
        entries.clear();
        *index = None;
        for _ in 0..n {
            let (page, lru) = r.read()?;
            if lru > *stamp {
                return Err(SnapError::Malformed("TLB stamp above its clock"));
            }
            entries.push((page, lru));
        }
        let built = Index::build(entries)?;
        *index = (n == cfg.entries).then_some(built);
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

    /// The scan-LRU TLB the indexed one must match: the same slot
    /// order, stamps and snapshot layout, with a linear search for the
    /// page and a second one for the smallest stamp.
    struct ScanLru {
        cap: usize,
        entries: Vec<(u64, u64)>,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanLru {
        fn new(cap: usize) -> Self {
            ScanLru {
                cap,
                entries: Vec::new(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, page: u64) -> bool {
            self.stamp += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
                e.1 = self.stamp;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.entries.len() < self.cap {
                self.entries.push((page, self.stamp));
            } else {
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .expect("full");
                self.entries[victim] = (page, self.stamp);
            }
            false
        }

        fn snapshot_bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.u64(self.stamp);
            for n in [self.hits, self.misses] {
                let mut c = Counter::default();
                c.add(n);
                c.snapshot(&mut w);
            }
            w.usize(self.entries.len());
            for &(page, lru) in &self.entries {
                w.u64(page);
                w.u64(lru);
            }
            w.into_bytes()
        }
    }

    fn snapshot_bytes(t: &Tlb) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.snapshot(&mut w);
        w.into_bytes()
    }

    fn restored(cfg: TlbConfig, bytes: &[u8]) -> Result<Tlb, SnapError> {
        let mut t = Tlb::new(cfg);
        let mut r = SnapReader::new(bytes)?;
        t.restore(&mut r)?;
        r.finish()?;
        Ok(t)
    }

    #[test]
    fn matches_scan_lru_reference_model() {
        let tiny = TlbConfig {
            entries: 2,
            page_bytes: 4096,
        };
        for cfg in [TlbConfig::paper(), tiny] {
            for working_set in [32u64, 64, 65, 200] {
                let label = format!("tlb-{}-{working_set}", cfg.entries);
                let mut rng = asan_sim::SimRng::from_label(&label);
                let mut tlb = Tlb::new(cfg);
                let mut model = ScanLru::new(cfg.entries);
                let steps = 20_000;
                for step in 0..steps {
                    if step % (steps / 4) == steps / 8 {
                        let bytes = snapshot_bytes(&tlb);
                        assert_eq!(bytes, model.snapshot_bytes(), "{label} step {step}");
                        tlb = restored(cfg, &bytes).unwrap();
                        assert_eq!(snapshot_bytes(&tlb), bytes, "{label} step {step}");
                    }
                    // Half the accesses revisit a hot eighth of the set.
                    let page = if rng.chance(0.5) {
                        rng.below(working_set.div_ceil(8))
                    } else {
                        rng.below(working_set)
                    };
                    let addr = page * cfg.page_bytes + rng.below(cfg.page_bytes);
                    assert_eq!(tlb.access(addr), model.access(page), "{label} step {step}");
                    assert!(tlb.probe(addr), "{label} step {step}");
                }
                assert_eq!(snapshot_bytes(&tlb), model.snapshot_bytes(), "{label}");
                assert!(model.hits > 0, "{label}");
                if working_set > cfg.entries as u64 {
                    assert!(model.misses > cfg.entries as u64, "{label}: no evictions");
                }
            }
        }
    }

    #[test]
    fn restore_survives_seeded_mutations() {
        let tiny = TlbConfig {
            entries: 2,
            page_bytes: 4096,
        };
        for cfg in [TlbConfig::paper(), tiny] {
            // Snapshots along a seeded stream over 100 pages: filling,
            // full and thrashing.
            let label = format!("tlb-mutations-{}", cfg.entries);
            let mut rng = asan_sim::SimRng::from_label(&label);
            let mut tlb = Tlb::new(cfg);
            let mut bases = Vec::new();
            for step in 0..4_000 {
                if step % 250 == 0 {
                    bases.push(snapshot_bytes(&tlb));
                }
                tlb.access(rng.below(100) * cfg.page_bytes);
            }
            let ok = asan_sim::mutate::check_restore(
                &label,
                &bases,
                2_000,
                || Tlb::new(cfg),
                Tlb::restore,
                Tlb::snapshot,
            );
            assert!(0 < ok && ok < 2_000, "{label}: {ok} of 2000 restored");
        }
    }

    /// A snapshot of a 2-entry TLB with clock `clock` and `entries`.
    fn crafted(clock: u64, entries: &[(u64, u64)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(clock);
        Counter::default().snapshot(&mut w);
        Counter::default().snapshot(&mut w);
        w.usize(entries.len());
        for &(page, lru) in entries {
            w.u64(page);
            w.u64(lru);
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_inconsistent_entries() {
        let cfg = tiny().cfg;
        assert!(restored(cfg, &crafted(9, &[(1, 8), (2, 9)])).is_ok());
        for (entries, why) in [
            (&[(1, 8), (1, 9)], "TLB page resident twice"),
            (&[(1, 9), (2, 9)], "TLB stamp shared by two entries"),
            (&[(1, 8), (2, 10)], "TLB stamp above its clock"),
        ] {
            assert_eq!(
                restored(cfg, &crafted(9, entries)).unwrap_err(),
                SnapError::Malformed(why)
            );
        }
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
