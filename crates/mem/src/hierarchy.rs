//! The full memory hierarchy walk: TLB → L1 → (L2) → RDRAM.
//!
//! Implements the paper's host memory-system semantics (§4):
//!
//! * a **load miss stalls the processor until the first double-word of
//!   data is returned** (critical-word-first timing from the DRAM model);
//! * **prefetch and store misses do not stall** unless there are already
//!   references outstanding to four different cache lines (an MSHR file
//!   with a configurable number of entries, 4 for the host);
//! * TLB misses charge a hardware page-table walk (two dependent reads
//!   through the cache hierarchy), modeling both the latency and the
//!   cache effects of the walk.
//!
//! The same type models the switch CPU's single-level data cache by
//! setting `l2` to `None` and `mshr_entries` to 1 ("supporting only one
//! outstanding request", §4).

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::{SimDuration, SimTime};

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::tlb::{Tlb, TlbConfig};

/// Synthetic page-table region (far above any application data region).
const PAGE_TABLE_BASE: u64 = 0xF000_0000_0000;

/// Configuration of a complete hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Instruction cache geometry.
    pub l1i: CacheConfig,
    /// Data cache geometry.
    pub l1d: CacheConfig,
    /// Unified second-level cache, if present.
    pub l2: Option<CacheConfig>,
    /// Instruction TLB, if modeled.
    pub itlb: Option<TlbConfig>,
    /// Data TLB, if modeled.
    pub dtlb: Option<TlbConfig>,
    /// Memory channel behind the last cache level.
    pub dram: DramConfig,
    /// Clock of the CPU this hierarchy serves (for cycle-denominated
    /// latencies).
    pub hz: u64,
    /// L2 hit latency in CPU cycles (charged as stall on an L1 miss).
    pub l2_hit_cycles: u64,
    /// Maximum outstanding line fills before a non-blocking access stalls.
    pub mshr_entries: usize,
}

impl HierarchyConfig {
    /// The paper's host hierarchy: 32 KB 2-way L1s, 512 KB 2-way L2
    /// (128 B lines), 64-entry TLBs, RDRAM, 2 GHz, 4 outstanding lines.
    pub fn host() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::host_l1i(),
            l1d: CacheConfig::host_l1d(),
            l2: Some(CacheConfig::host_l2()),
            itlb: Some(TlbConfig::paper()),
            dtlb: Some(TlbConfig::paper()),
            dram: DramConfig::paper(),
            hz: 2_000_000_000,
            l2_hit_cycles: 12,
            mshr_entries: 4,
        }
    }

    /// The database-scaled host hierarchy used for HashJoin and Select:
    /// 8 KB L1D and 64 KB L2, same line sizes and associativities (§4).
    pub fn host_db() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::host_l1d_db(),
            l2: Some(CacheConfig::host_l2_db()),
            ..HierarchyConfig::host()
        }
    }

    /// The switch CPU's hierarchy: 4 KB I-cache, 1 KB D-cache, no L2,
    /// one outstanding request, 500 MHz, same RDRAM parameters (§4).
    pub fn switch_cpu() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::switch_icache(),
            l1d: CacheConfig::switch_dcache(),
            l2: None,
            itlb: None,
            dtlb: None,
            dram: DramConfig::paper(),
            hz: 500_000_000,
            l2_hit_cycles: 0,
            mshr_entries: 1,
        }
    }
}

/// What happened on one memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOutcome {
    /// Stall time beyond the pipelined L1 hit (zero on an L1 hit).
    pub stall: SimDuration,
    /// L1 hit?
    pub l1_hit: bool,
    /// L2 hit (only meaningful when L1 missed and an L2 exists)?
    pub l2_hit: bool,
    /// Did this reference take a TLB miss?
    pub tlb_miss: bool,
}

/// Aggregate hierarchy statistics useful for reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    /// Demand loads issued.
    pub loads: u64,
    /// Demand stores issued.
    pub stores: u64,
    /// Software prefetches issued.
    pub prefetches: u64,
    /// Instruction fetch accesses (one per line crossed).
    pub ifetches: u64,
}

asan_sim::snap_fields!(HierarchyStats {
    loads,
    stores,
    prefetches,
    ifetches,
});

/// One outstanding line fill.
#[derive(Debug, Clone, Copy, Default)]
struct Mshr {
    line: u64,
    fill_done: SimTime,
}

asan_sim::snap_fields!(Mshr { line, fill_done });

/// A complete cache/TLB/DRAM hierarchy serving one CPU.
///
/// All methods take the current simulated time and return a
/// [`MemOutcome`] whose `stall` the CPU adds to its cache-stall bucket.
///
/// # Example
///
/// ```
/// use asan_mem::hierarchy::{MemoryHierarchy, HierarchyConfig};
/// use asan_sim::SimTime;
/// let mut m = MemoryHierarchy::new(HierarchyConfig::host());
/// let miss = m.load(0x10_0000, SimTime::ZERO);
/// assert!(!miss.l1_hit && miss.stall.as_ns() > 0);
/// let hit = m.load(0x10_0000, SimTime::from_ns(500));
/// assert!(hit.l1_hit && hit.stall.as_ns() == 0);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    /// `cfg.l2_hit_cycles` at `cfg.hz`.
    l2_hit: SimDuration,
    l1i: Cache,
    l1d: Cache,
    l2: Option<Cache>,
    itlb: Option<Tlb>,
    dtlb: Option<Tlb>,
    dram: Dram,
    mshrs: Vec<Mshr>,
    stats: HierarchyStats,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from its configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            l2: cfg.l2.clone().map(Cache::new),
            itlb: cfg.itlb.map(Tlb::new),
            dtlb: cfg.dtlb.map(Tlb::new),
            dram: Dram::new(cfg.dram),
            mshrs: Vec::new(),
            stats: HierarchyStats::default(),
            l2_hit: SimDuration::cycles(cfg.l2_hit_cycles, cfg.hz),
            cfg,
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Aggregate access counts.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// The L1 data cache (for inspection in tests and reports).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The unified L2, if configured.
    pub fn l2(&self) -> Option<&Cache> {
        self.l2.as_ref()
    }

    /// The instruction TLB, if configured.
    pub fn itlb(&self) -> Option<&Tlb> {
        self.itlb.as_ref()
    }

    /// The DRAM channel.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Charges a hardware page-table walk: two dependent 8-byte reads
    /// through the L2 (they often hit — page tables are small and hot).
    fn walk_page_table(&mut self, addr: u64, mut now: SimTime) -> SimDuration {
        let start = now;
        let page = addr >> 12;
        let entries = [
            PAGE_TABLE_BASE + (page >> 9) * 8,
            PAGE_TABLE_BASE + 0x1000_0000 + page * 8,
        ];
        for pte in entries {
            match &mut self.l2 {
                Some(l2) => {
                    if l2.access(pte, AccessKind::Read).hit {
                        now += self.l2_hit;
                    } else {
                        let a = self.dram.access(pte, 8, now + self.l2_hit);
                        now = a.first_data;
                    }
                }
                None => {
                    let a = self.dram.access(pte, 8, now);
                    now = a.first_data;
                }
            }
        }
        now.since(start)
    }

    /// Looks `addr` up in `tlb` (if any); returns the walk stall.
    fn tlb_check(tlb: &mut Option<Tlb>, addr: u64) -> bool {
        match tlb {
            Some(t) => !t.access(addr),
            None => false,
        }
    }

    /// Retires MSHR entries whose fills completed by `now`.
    fn drain_mshrs(&mut self, now: SimTime) {
        self.mshrs.retain(|m| m.fill_done > now);
    }

    /// If `line` is already being fetched, the time its fill completes.
    fn outstanding_fill(&self, line: u64) -> Option<SimTime> {
        self.mshrs
            .iter()
            .find(|m| m.line == line)
            .map(|m| m.fill_done)
    }

    /// A blocking data load. Returns the stall beyond a pipelined L1 hit.
    pub fn load(&mut self, addr: u64, now: SimTime) -> MemOutcome {
        self.stats.loads += 1;
        self.data_access(addr, now, DataKind::Load)
    }

    /// A store. Non-blocking on miss while MSHRs are available.
    pub fn store(&mut self, addr: u64, now: SimTime) -> MemOutcome {
        self.stats.stores += 1;
        self.data_access(addr, now, DataKind::Store)
    }

    /// A software prefetch. Non-blocking on miss while MSHRs are
    /// available; never stalls for the fill itself.
    pub fn prefetch(&mut self, addr: u64, now: SimTime) -> MemOutcome {
        self.stats.prefetches += 1;
        self.data_access(addr, now, DataKind::Prefetch)
    }

    /// An instruction fetch of the line containing `addr`.
    pub fn ifetch(&mut self, addr: u64, now: SimTime) -> MemOutcome {
        self.stats.ifetches += 1;
        let mut stall = SimDuration::ZERO;
        let tlb_miss = Self::tlb_check(&mut self.itlb, addr);
        if tlb_miss {
            stall += self.walk_page_table(addr, now);
        }
        let out = self.l1i.access(addr, AccessKind::Read);
        if out.hit {
            return MemOutcome {
                stall,
                l1_hit: true,
                l2_hit: false,
                tlb_miss,
            };
        }
        // Instruction misses always block (in-order front end).
        let (fill_stall, l2_hit) =
            self.fill_from_below(addr, self.cfg.l1i.line_bytes, now + stall, true);
        MemOutcome {
            stall: stall + fill_stall,
            l1_hit: false,
            l2_hit,
            tlb_miss,
        }
    }

    /// Whether every instruction line in `[base, base + bytes)` is
    /// resident in the L1I *and* every page it spans is resident in the
    /// I-TLB (trivially true when no I-TLB is configured). Uses
    /// stats-neutral probes, so checking residency never perturbs the
    /// counters.
    ///
    /// Once this holds, it holds forever *provided only instruction
    /// fetches within the same range touch the L1I and I-TLB*: hits
    /// never replace, so nothing can be evicted.
    pub fn ifetch_resident(&self, base: u64, bytes: u64) -> bool {
        let line = self.cfg.l1i.line_bytes;
        let mut addr = base & !(line - 1);
        while addr < base + bytes {
            if !self.l1i.probe(addr) {
                return false;
            }
            addr += line;
        }
        if let Some(t) = &self.itlb {
            let page = t.config().page_bytes;
            let mut addr = base & !(page - 1);
            while addr < base + bytes {
                if !t.probe(addr) {
                    return false;
                }
                addr += page;
            }
        }
        true
    }

    /// Bulk-accounts `fetches` instruction fetches that are known to hit
    /// (see [`ifetch_resident`](MemoryHierarchy::ifetch_resident)):
    /// bumps exactly the counters `fetches` calls to
    /// [`ifetch`](MemoryHierarchy::ifetch) would — `ifetches`, I-TLB
    /// hits, L1I hits — with zero stall and no state changes.
    pub fn ifetch_warm(&mut self, fetches: u64) {
        self.stats.ifetches += fetches;
        if let Some(t) = &mut self.itlb {
            t.record_warm_hits(fetches);
        }
        self.l1i.record_warm_hits(fetches);
    }

    /// Fetches a line from L2/DRAM. Returns (stall-until-first-data,
    /// l2_hit). When `blocking` is false the returned stall is zero and
    /// the fill occupies an MSHR instead.
    fn fill_from_below(
        &mut self,
        addr: u64,
        line_bytes: u64,
        now: SimTime,
        blocking: bool,
    ) -> (SimDuration, bool) {
        // Merge with an outstanding fill of the same L1 line.
        let l1_line = addr & !(line_bytes - 1);
        if let Some(done) = self.outstanding_fill(l1_line) {
            return if blocking {
                (done.saturating_since(now), false)
            } else {
                (SimDuration::ZERO, false)
            };
        }

        let (first_data, fill_done, l2_hit) = match &mut self.l2 {
            Some(l2) => {
                let l2_out = l2.access(addr, AccessKind::Read);
                if l2_out.hit {
                    let t = now + self.l2_hit;
                    (t, t, true)
                } else {
                    // L2 miss: fetch the (larger) L2 line from DRAM; any
                    // dirty victim is written back, consuming channel time
                    // but not stalling the CPU.
                    let l2_line = self.cfg.l2.as_ref().expect("l2 exists").line_bytes;
                    let issue = now + self.l2_hit;
                    let a = self.dram.access(addr & !(l2_line - 1), l2_line, issue);
                    if let Some(victim) = l2_out.writeback {
                        self.dram.access(victim, l2_line, a.complete);
                    }
                    (a.first_data, a.complete, false)
                }
            }
            None => {
                let a = self.dram.access(l1_line, line_bytes, now);
                (a.first_data, a.complete, false)
            }
        };

        if blocking {
            (first_data.saturating_since(now), l2_hit)
        } else {
            self.mshrs.push(Mshr {
                line: l1_line,
                fill_done,
            });
            (SimDuration::ZERO, l2_hit)
        }
    }

    fn data_access(&mut self, addr: u64, now: SimTime, kind: DataKind) -> MemOutcome {
        let mut stall = SimDuration::ZERO;
        let tlb_miss = Self::tlb_check(&mut self.dtlb, addr);
        if tlb_miss {
            stall += self.walk_page_table(addr, now);
        }
        let mut now = now + stall;
        self.drain_mshrs(now);

        let access_kind = match kind {
            DataKind::Store => AccessKind::Write,
            _ => AccessKind::Read,
        };
        let out = self.l1d.access(addr, access_kind);
        if out.hit {
            // A load that hits L1 on a line still being filled must wait
            // for the fill (the tag was installed at fetch time).
            let line = self.l1d.line_base(addr);
            if kind == DataKind::Load {
                if let Some(done) = self.outstanding_fill(line) {
                    stall += done.saturating_since(now);
                }
            }
            return MemOutcome {
                stall,
                l1_hit: true,
                l2_hit: false,
                tlb_miss,
            };
        }
        // Dirty L1 victim is written into L2 (tag update only at this
        // fidelity; the L2 line becomes dirty and eventually pays DRAM
        // bandwidth when evicted).
        if let Some(victim) = out.writeback {
            if let Some(l2) = &mut self.l2 {
                l2.access(victim, AccessKind::Write);
            } else {
                self.dram.access(victim, self.cfg.l1d.line_bytes, now);
            }
        }

        let blocking = match kind {
            DataKind::Load => true,
            DataKind::Store | DataKind::Prefetch => {
                // Non-blocking while MSHRs are free; otherwise stall until
                // the earliest outstanding fill retires (the paper's
                // "four different cache lines" rule).
                if self.mshrs.len() >= self.cfg.mshr_entries {
                    let earliest = self
                        .mshrs
                        .iter()
                        .map(|m| m.fill_done)
                        .min()
                        .expect("mshrs non-empty");
                    stall += earliest.saturating_since(now);
                    now = now.max(earliest);
                    self.drain_mshrs(now);
                }
                false
            }
        };
        let (fill_stall, l2_hit) =
            self.fill_from_below(addr, self.cfg.l1d.line_bytes, now, blocking);
        MemOutcome {
            stall: stall + fill_stall,
            l1_hit: false,
            l2_hit,
            tlb_miss,
        }
    }

    /// Clears the aggregate access counters (used after warm-up).
    pub fn reset_access_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// Flushes all caches, TLBs and DRAM row state.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        if let Some(l2) = &mut self.l2 {
            l2.flush();
        }
        if let Some(t) = &mut self.itlb {
            t.flush();
        }
        if let Some(t) = &mut self.dtlb {
            t.flush();
        }
        self.dram.flush();
        self.mshrs.clear();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DataKind {
    Load,
    Store,
    Prefetch,
}

/// The dynamic state of every level — both L1s, the L2 and TLBs when
/// present, the DRAM channel, outstanding line fills, and the aggregate
/// access counters. Which levels exist is configuration: each optional
/// level carries a presence byte that must match on restore.
impl Snap for MemoryHierarchy {
    fn snapshot(&self, w: &mut SnapWriter) {
        let MemoryHierarchy {
            cfg: _,
            l2_hit: _,
            l1i,
            l1d,
            l2,
            itlb,
            dtlb,
            dram,
            mshrs,
            stats,
        } = self;
        l1i.snapshot(w);
        l1d.snapshot(w);
        snapshot_level(w, l2.as_ref());
        snapshot_level(w, itlb.as_ref());
        snapshot_level(w, dtlb.as_ref());
        dram.snapshot(w);
        mshrs.snapshot(w);
        stats.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let MemoryHierarchy {
            cfg: _,
            l2_hit: _,
            l1i,
            l1d,
            l2,
            itlb,
            dtlb,
            dram,
            mshrs,
            stats,
        } = self;
        l1i.restore(r)?;
        l1d.restore(r)?;
        restore_level(r, l2.as_mut(), "L2 presence mismatch")?;
        restore_level(r, itlb.as_mut(), "I-TLB presence mismatch")?;
        restore_level(r, dtlb.as_mut(), "D-TLB presence mismatch")?;
        dram.restore(r)?;
        mshrs.restore(r)?;
        stats.restore(r)
    }
}

/// Writes an optional level: a presence byte, then its state.
fn snapshot_level(w: &mut SnapWriter, level: Option<&impl Snap>) {
    w.bool(level.is_some());
    if let Some(l) = level {
        l.snapshot(w);
    }
}

/// Restores an optional level written by [`snapshot_level`] into a
/// hierarchy built with the same levels.
fn restore_level(
    r: &mut SnapReader<'_>,
    level: Option<&mut impl Snap>,
    mismatch: &'static str,
) -> Result<(), SnapError> {
    if r.bool()? != level.is_some() {
        return Err(SnapError::Malformed(mismatch));
    }
    level.map_or(Ok(()), |l| l.restore(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::host())
    }

    /// A hierarchy with TLBs disabled, to test pure cache behaviour.
    fn host_no_tlb() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            itlb: None,
            dtlb: None,
            ..HierarchyConfig::host()
        })
    }

    #[test]
    fn l1_hit_has_zero_stall() {
        let mut m = host_no_tlb();
        m.load(0x1000, SimTime::ZERO);
        let t = SimTime::from_ns(1000);
        let out = m.load(0x1000, t);
        assert!(out.l1_hit);
        assert_eq!(out.stall, SimDuration::ZERO);
    }

    #[test]
    fn load_miss_stalls_until_first_data() {
        let mut m = host_no_tlb();
        let out = m.load(0x1000, SimTime::ZERO);
        assert!(!out.l1_hit && !out.l2_hit);
        // 12-cycle L2 lookup (6 ns) + 122 ns page miss + 5 ns first 8 B.
        let ns = out.stall.as_ns();
        assert!((120..140).contains(&ns), "stall = {ns} ns");
    }

    #[test]
    fn l2_hit_is_cheap() {
        let mut m = host_no_tlb();
        m.load(0x1000, SimTime::ZERO); // fills L1 and L2
                                       // Evict from tiny? L1 is 32 KB; instead touch a second address in
                                       // the same L1 set far apart to evict, then re-load: should hit L2.
                                       // L1D: 256 sets * 64 B = 16 KB stride per way.
        m.load(0x1000 + 16 * 1024, SimTime::from_ns(1000));
        m.load(0x1000 + 32 * 1024, SimTime::from_ns(2000)); // evicts 0x1000 from L1
        let out = m.load(0x1000, SimTime::from_ns(3000));
        assert!(!out.l1_hit);
        assert!(out.l2_hit, "expected L2 hit: {out:?}");
        assert_eq!(out.stall.as_ns(), 6); // 12 cycles at 2 GHz
    }

    #[test]
    fn store_miss_does_not_stall_when_mshrs_free() {
        let mut m = host_no_tlb();
        let out = m.store(0x9000, SimTime::ZERO);
        assert!(!out.l1_hit);
        assert_eq!(out.stall, SimDuration::ZERO);
    }

    #[test]
    fn fifth_outstanding_line_stalls() {
        let mut m = host_no_tlb();
        let t = SimTime::ZERO;
        for i in 0..4u64 {
            let out = m.store(0x10_0000 + i * 4096, t);
            assert_eq!(out.stall, SimDuration::ZERO, "store {i} stalled");
        }
        let out = m.store(0x10_0000 + 4 * 4096, t);
        assert!(
            out.stall.as_ns() > 0,
            "fifth outstanding store should stall: {out:?}"
        );
    }

    #[test]
    fn mshrs_drain_over_time() {
        let mut m = host_no_tlb();
        for i in 0..4u64 {
            m.store(0x10_0000 + i * 4096, SimTime::ZERO);
        }
        // Long after all fills have completed, a new store is free again.
        let out = m.store(0x20_0000, SimTime::from_us(10));
        assert_eq!(out.stall, SimDuration::ZERO);
    }

    #[test]
    fn load_merges_with_outstanding_prefetch() {
        let mut m = host_no_tlb();
        m.prefetch(0x5000, SimTime::ZERO);
        // Immediately loading the same line stalls only the fill
        // remainder, not a fresh DRAM access.
        let misses_before = m.dram().stats().page_misses.get() + m.dram().stats().page_hits.get();
        let out = m.load(0x5000, SimTime::from_ns(10));
        let misses_after = m.dram().stats().page_misses.get() + m.dram().stats().page_hits.get();
        assert_eq!(misses_before, misses_after, "no second DRAM access");
        assert!(out.stall.as_ns() > 0, "fill not yet complete");
        // And long after the fill, it's a plain hit.
        let out2 = m.load(0x5000, SimTime::from_us(5));
        assert!(out2.l1_hit);
        assert_eq!(out2.stall, SimDuration::ZERO);
    }

    #[test]
    fn tlb_miss_charges_walk() {
        let mut m = host();
        let cold = m.load(0x4000_0000, SimTime::ZERO);
        assert!(cold.tlb_miss);
        let mut warm = host();
        warm.load(0x4000_0000, SimTime::ZERO);
        // Second access to the same page: no TLB miss.
        let again = warm.load(0x4000_0040, SimTime::from_us(1));
        assert!(!again.tlb_miss);
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut m = host_no_tlb();
        let out = m.ifetch(0x100, SimTime::ZERO);
        assert!(!out.l1_hit);
        let out2 = m.ifetch(0x104, SimTime::from_ns(500));
        assert!(out2.l1_hit);
        assert_eq!(m.stats().ifetches, 2);
    }

    #[test]
    fn switch_cpu_hierarchy_has_no_l2_and_blocks() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::switch_cpu());
        let out = m.load(0x2000, SimTime::ZERO);
        assert!(!out.l1_hit && !out.l2_hit);
        // No L2: straight to DRAM. 122 ns + 5 ns first data.
        assert_eq!(out.stall.as_ns(), 127);
        // One outstanding request: a second store miss while one is in
        // flight stalls.
        m.store(0x4000, SimTime::from_us(1));
        let out2 = m.store(0x8000, SimTime::from_us(1));
        assert!(out2.stall.as_ns() > 0);
    }

    #[test]
    fn streaming_working_set_thrashes_l2_and_stalls() {
        let mut m = host_no_tlb();
        // Stream 2 MB (4x the 512 KB L2); every line is a cold miss.
        let mut t = SimTime::ZERO;
        let mut total_stall = SimDuration::ZERO;
        for addr in (0u64..2 * 1024 * 1024).step_by(128) {
            let out = m.load(0x4000_0000 + addr, t);
            assert!(!out.l1_hit);
            total_stall += out.stall;
            t = t + out.stall + SimDuration::from_ns(10);
        }
        assert!(
            total_stall.as_us() > 500,
            "streaming should be memory-bound"
        );
    }

    #[test]
    fn l2_dirty_eviction_consumes_dram_bandwidth() {
        let mut m = host_no_tlb();
        // Dirty many distinct L2 sets then stream far past capacity so
        // dirty L2 lines get evicted to DRAM.
        for i in 0..8192u64 {
            m.store(0x1000_0000 + i * 128, SimTime::from_ns(i * 10));
        }
        let bytes_before = m.dram().stats().bytes.get();
        for i in 0..8192u64 {
            m.load(
                0x3000_0000 + i * 128,
                SimTime::from_ms(1) + SimDuration::from_ns(i * 200),
            );
        }
        let bytes_after = m.dram().stats().bytes.get();
        // The second stream fetches 1 MB and must also write back a
        // substantial share of the dirtied first megabyte.
        assert!(
            bytes_after - bytes_before > 1024 * 1024 + 256 * 1024,
            "no write-back traffic observed: {} -> {}",
            bytes_before,
            bytes_after
        );
    }

    #[test]
    fn db_hierarchy_thrashes_sooner_than_default() {
        // The 8x scaled caches exist precisely to make the working set
        // exceed L2: a 128 KB stream misses in the 64 KB DB L2 but fits
        // the 512 KB default L2 on the second pass.
        let run = |cfg: HierarchyConfig| {
            let mut m = MemoryHierarchy::new(HierarchyConfig {
                itlb: None,
                dtlb: None,
                ..cfg
            });
            let mut t = SimTime::ZERO;
            // First pass: populate.
            for i in 0..2048u64 {
                let o = m.load(0x5000_0000 + i * 64, t);
                t = t + o.stall + SimDuration::from_ns(5);
            }
            // Second pass: measure stalls.
            let mut stall = SimDuration::ZERO;
            for i in 0..2048u64 {
                let o = m.load(0x5000_0000 + i * 64, t);
                stall += o.stall;
                t = t + o.stall + SimDuration::from_ns(5);
            }
            stall
        };
        let default = run(HierarchyConfig::host());
        let db = run(HierarchyConfig::host_db());
        assert!(
            db > default * 2,
            "scaled caches should thrash: db {db} vs default {default}"
        );
    }

    #[test]
    fn flush_resets_everything() {
        let mut m = host_no_tlb();
        m.load(0x1000, SimTime::ZERO);
        m.flush();
        let out = m.load(0x1000, SimTime::from_us(1));
        assert!(!out.l1_hit);
    }

    #[test]
    fn hierarchy_snapshot_preserves_future_timing() {
        let drive = |m: &mut MemoryHierarchy, base: u64, t0: SimTime| {
            let mut outs = Vec::new();
            let mut t = t0;
            for i in 0..200u64 {
                let o = match i % 4 {
                    0 => m.load(base + i * 72, t),
                    1 => m.store(base + i * 72, t),
                    2 => m.prefetch(base + (i + 7) * 72, t),
                    _ => m.ifetch(0x100 + i * 4, t),
                };
                outs.push(o);
                t = t + o.stall + SimDuration::from_ns(3);
            }
            outs
        };
        let mut m = MemoryHierarchy::new(HierarchyConfig::host());
        drive(&mut m, 0x4000_0000, SimTime::ZERO);

        let mut w = SnapWriter::new();
        m.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = MemoryHierarchy::new(HierarchyConfig::host());
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();

        // Continue both with the same access stream: every outcome
        // (stall timing, hit levels, TLB behaviour) must match.
        let a = drive(&mut m, 0x4000_2000, SimTime::from_us(40));
        let b = drive(&mut back, 0x4000_2000, SimTime::from_us(40));
        assert_eq!(a, b);
        assert_eq!(m.stats().loads, back.stats().loads);
        assert_eq!(
            m.dram().stats().bytes.get(),
            back.dram().stats().bytes.get()
        );
    }

    #[test]
    fn switch_hierarchy_snapshot_round_trips() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::switch_cpu());
        m.load(0x2000, SimTime::ZERO);
        m.store(0x4000, SimTime::from_ns(500));
        let mut w = SnapWriter::new();
        m.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = MemoryHierarchy::new(HierarchyConfig::switch_cpu());
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();
        let t = SimTime::from_us(2);
        assert_eq!(m.load(0x2000, t), back.load(0x2000, t));
        // Restoring into a mismatched geometry fails loudly.
        let mut wrong = MemoryHierarchy::new(HierarchyConfig::host());
        let mut r2 = SnapReader::new(&bytes).unwrap();
        assert!(wrong.restore(&mut r2).is_err());
    }

    #[test]
    fn stats_track_access_kinds() {
        let mut m = host_no_tlb();
        m.load(0, SimTime::ZERO);
        m.store(64, SimTime::ZERO);
        m.prefetch(128, SimTime::ZERO);
        m.ifetch(0, SimTime::ZERO);
        let s = m.stats();
        assert_eq!((s.loads, s.stores, s.prefetches, s.ifetches), (1, 1, 1, 1));
    }
}
