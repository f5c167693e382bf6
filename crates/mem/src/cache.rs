//! Generic set-associative cache timing model.
//!
//! Write-back, write-allocate, true-LRU replacement. This is a *timing*
//! model: it tracks tags, dirtiness and recency, not data (data lives in
//! the applications themselves). It is used for the host L1I/L1D/L2 and
//! the switch CPU's 4 KB I-cache and 1 KB D-cache.

use std::ops::Range;

use asan_sim::snap::{SnapError, SnapReader, SnapWriter};
use asan_sim::stats::Counter;

/// Configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in statistics dumps (e.g. `"L1D"`).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `line_bytes * assoc`, or line size not a power of two).
    pub fn num_sets(&self) -> u64 {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(self.assoc > 0, "associativity must be positive");
        let set_bytes = self.line_bytes * self.assoc as u64;
        assert!(
            self.size_bytes.is_multiple_of(set_bytes) && self.size_bytes > 0,
            "cache size {} not divisible by way size {}",
            self.size_bytes,
            set_bytes
        );
        self.size_bytes / set_bytes
    }

    /// The paper's host L1 instruction cache: 32 KB, 2-way.
    pub fn host_l1i() -> Self {
        CacheConfig {
            name: "L1I",
            size_bytes: 32 * 1024,
            line_bytes: 64,
            assoc: 2,
        }
    }

    /// The paper's host L1 data cache: 32 KB, 2-way.
    pub fn host_l1d() -> Self {
        CacheConfig {
            name: "L1D",
            size_bytes: 32 * 1024,
            line_bytes: 64,
            assoc: 2,
        }
    }

    /// The paper's host unified L2: 512 KB, 2-way, 128 B lines.
    pub fn host_l2() -> Self {
        CacheConfig {
            name: "L2",
            size_bytes: 512 * 1024,
            line_bytes: 128,
            assoc: 2,
        }
    }

    /// Database-scaled host L1D (8 KB) used for HashJoin/Select (§4).
    pub fn host_l1d_db() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            ..CacheConfig::host_l1d()
        }
    }

    /// Database-scaled host L2 (64 KB) used for HashJoin/Select (§4).
    pub fn host_l2_db() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ..CacheConfig::host_l2()
        }
    }

    /// The switch CPU's 4 KB 2-way I-cache with 64 B lines (§4).
    pub fn switch_icache() -> Self {
        CacheConfig {
            name: "SP-I",
            size_bytes: 4 * 1024,
            line_bytes: 64,
            assoc: 2,
        }
    }

    /// The switch CPU's 1 KB 2-way D-cache with 32 B lines (§4).
    pub fn switch_dcache() -> Self {
        CacheConfig {
            name: "SP-D",
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 2,
        }
    }
}

/// Kind of access presented to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand load (or instruction fetch).
    Read,
    /// A store; allocates on miss (write-allocate) and dirties the line.
    Write,
}

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// If a dirty line was evicted to make room, its base address
    /// (the caller charges the write-back to the next level).
    pub writeback: Option<u64>,
}

/// Per-cache hit/miss statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: Counter,
    /// Demand accesses that missed.
    pub misses: Counter,
    /// Dirty evictions.
    pub writebacks: Counter,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Miss ratio over all accesses (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }

    /// Writes all three counters.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        self.hits.snapshot(w);
        self.misses.snapshot(w);
        self.writebacks.snapshot(w);
    }

    /// Reads stats written by [`CacheStats::snapshot`].
    pub fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(CacheStats {
            hits: Counter::restore(r)?,
            misses: Counter::restore(r)?,
            writebacks: Counter::restore(r)?,
        })
    }
}

/// The valid bit of [`Line::word`].
const VALID: u64 = 1 << 63;
/// The dirty bit of [`Line::word`].
const DIRTY: u64 = 1 << 62;
/// Both flag bits; a tag must stay clear of them.
const FLAGS: u64 = VALID | DIRTY;

/// One way of a set in 16 bytes. Tags never reach the flag bits:
/// [`Cache::new`] requires at least two offset-plus-index bits, so the
/// tag of any 64-bit address stays below 2^62.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// The tag, with [`VALID`] and [`DIRTY`] in the top two bits.
    word: u64,
    /// Recency stamp; larger = more recently used.
    lru: u64,
}

impl Line {
    #[inline]
    fn tag(self) -> u64 {
        self.word & !FLAGS
    }

    #[inline]
    fn valid(self) -> bool {
        self.word & VALID != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.word & DIRTY != 0
    }

    /// Whether this line is valid and holds `tag`.
    #[inline]
    fn holds(self, tag: u64) -> bool {
        self.word & !DIRTY == tag | VALID
    }
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// # Example
///
/// ```
/// use asan_mem::cache::{Cache, CacheConfig, AccessKind};
/// let mut c = Cache::new(CacheConfig::host_l1d());
/// assert!(!c.access(0x1000, AccessKind::Read).hit);  // cold miss
/// assert!(c.access(0x1000, AccessKind::Read).hit);   // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig, // asan-lint: allow(snapshot-completeness)
    /// Every line, set-major: set `i` is `lines[i * assoc..(i + 1) * assoc]`.
    lines: Vec<Line>,
    stamp: u64,
    stats: CacheStats,
    line_shift: u32, // asan-lint: allow(snapshot-completeness)
    set_mask: u64,   // asan-lint: allow(snapshot-completeness)
    /// `log2(num_sets)`: the tag is the line number shifted right by this.
    set_bits: u32, // asan-lint: allow(snapshot-completeness)
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        assert!(num_sets.is_power_of_two(), "set count must be 2^k");
        let lines = vec![Line::default(); num_sets as usize * cfg.assoc];
        let line_shift = cfg.line_bytes.trailing_zeros();
        let set_bits = num_sets.trailing_zeros();
        assert!(
            line_shift + set_bits >= 2,
            "tags of a {}-set cache of {} B lines would reach the flag bits",
            num_sets,
            cfg.line_bytes
        );
        Cache {
            set_mask: num_sets - 1,
            set_bits,
            line_shift,
            cfg,
            lines,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit/miss statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Line base address containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The range of `lines` holding the ways of set `set_idx`.
    #[inline]
    fn ways(&self, set_idx: usize) -> Range<usize> {
        let assoc = self.cfg.assoc;
        set_idx * assoc..(set_idx + 1) * assoc
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// Presents an access; returns whether it hit and any dirty eviction.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        let (set_idx, tag) = self.index(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.ways(set_idx);
        let set = &mut self.lines[ways];

        if let Some(line) = set.iter_mut().find(|l| l.holds(tag)) {
            line.lru = stamp;
            if kind == AccessKind::Write {
                line.word |= DIRTY;
            }
            self.stats.hits.inc();
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        self.stats.misses.inc();
        // Choose victim: an invalid way if one exists, else true LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid() { l.lru + 1 } else { 0 })
            .expect("assoc > 0");
        let writeback = if victim.valid() && victim.dirty() {
            self.stats.writebacks.inc();
            let victim_line = (victim.tag() << self.set_bits) | set_idx as u64;
            Some(victim_line << self.line_shift)
        } else {
            None
        };
        victim.word = tag | VALID;
        if kind == AccessKind::Write {
            victim.word |= DIRTY;
        }
        victim.lru = stamp;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Bulk-records `n` accesses that are known to hit resident lines.
    ///
    /// This is the accounting half of a warm-path optimisation: when a
    /// caller has proven (via [`probe`](Cache::probe)) that every line
    /// it will touch is resident — and that nothing else can evict them
    /// — it may skip the per-access lookup and record the hits in one
    /// step. Recency stamps are *not* advanced; that is only sound
    /// while the proven residency holds (no future miss means no future
    /// victim selection in the touched sets).
    pub fn record_warm_hits(&mut self, n: u64) {
        self.stats.hits.add(n);
    }

    /// Checks residency without updating LRU or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.lines[self.ways(set_idx)].iter().any(|l| l.holds(tag))
    }

    /// Invalidates the line containing `addr` if present, returning
    /// whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let ways = self.ways(set_idx);
        for l in &mut self.lines[ways] {
            if l.holds(tag) {
                let dirty = l.dirty();
                l.word &= !FLAGS;
                return dirty;
            }
        }
        false
    }

    /// Invalidates everything (e.g. between benchmark configurations).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.word &= !FLAGS;
        }
    }

    /// Writes the dynamic state — every line's tag/valid/dirty/recency,
    /// the recency stamp, and the statistics. Geometry is configuration
    /// and is rebuilt by the caller before [`Cache::restore`].
    pub fn snapshot(&self, w: &mut SnapWriter) {
        w.u64(self.stamp);
        self.stats.snapshot(w);
        for &line in &self.lines {
            w.u64(line.tag());
            w.bool(line.valid());
            w.bool(line.dirty());
            w.u64(line.lru);
        }
    }

    /// Overwrites this cache's dynamic state from a snapshot taken of a
    /// cache with the same geometry.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for a tag that reaches the valid/dirty
    /// bits (no address maps to one), as well as any read error.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stamp = r.u64()?;
        self.stats = CacheStats::restore(r)?;
        for line in &mut self.lines {
            let tag = r.u64()?;
            if tag & FLAGS != 0 {
                return Err(SnapError::Malformed("cache tag overlaps the flag bits"));
            }
            let valid = r.bool()?;
            let dirty = r.bool()?;
            line.word = tag | if valid { VALID } else { 0 } | if dirty { DIRTY } else { 0 };
            line.lru = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16 B lines = 128 B.
        Cache::new(CacheConfig {
            name: "tiny",
            size_bytes: 128,
            line_bytes: 16,
            assoc: 2,
        })
    }

    #[test]
    fn snapshot_restores_tags_and_recency() {
        let mut c = tiny();
        for addr in [0u64, 16, 64, 80, 0, 128] {
            c.access(addr, AccessKind::Read);
        }
        c.access(64, AccessKind::Write); // dirty a line
        let mut w = SnapWriter::new();
        c.snapshot(&mut w);
        let bytes = w.into_bytes();

        let mut back = tiny();
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(back.stats().hits.get(), c.stats().hits.get());
        assert_eq!(back.stats().misses.get(), c.stats().misses.get());
        // Identical future behaviour: same hits, same victims.
        for addr in [0u64, 16, 32, 48, 64, 96, 112, 144, 0, 160] {
            assert_eq!(
                c.access(addr, AccessKind::Read),
                back.access(addr, AccessKind::Read),
                "divergence at {addr:#x}"
            );
        }
        assert_eq!(back.stats().writebacks.get(), c.stats().writebacks.get());
    }

    #[test]
    fn restore_rejects_tags_reaching_the_flag_bits() {
        let lines = tiny().lines.len();
        let write = |tag3: u64| {
            let mut w = SnapWriter::new();
            w.u64(0);
            CacheStats::default().snapshot(&mut w);
            for i in 0..lines {
                w.u64(if i == 3 { tag3 } else { i as u64 });
                w.bool(true);
                w.bool(false);
                w.u64(0);
            }
            w.into_bytes()
        };
        let restore = |bytes: &[u8]| {
            let mut r = SnapReader::new(bytes).unwrap();
            tiny().restore(&mut r)
        };
        assert!(restore(&write(DIRTY - 1)).is_ok());
        for bad in [DIRTY, VALID, FLAGS | 5, u64::MAX] {
            assert!(
                matches!(restore(&write(bad)), Err(SnapError::Malformed(_))),
                "tag {bad:#x} accepted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "flag bits")]
    fn geometry_whose_tags_reach_the_flag_bits_is_rejected() {
        Cache::new(CacheConfig {
            name: "one-line",
            size_bytes: 2,
            line_bytes: 2,
            assoc: 1,
        });
    }

    /// A naive true-LRU reference: per set, resident line numbers with
    /// their dirty bit, most recently used first.
    struct LruModel {
        sets: Vec<Vec<(u64, bool)>>,
        assoc: usize,
        line_bytes: u64,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }

    impl LruModel {
        fn new(cfg: &CacheConfig) -> Self {
            LruModel {
                sets: vec![Vec::new(); cfg.num_sets() as usize],
                assoc: cfg.assoc,
                line_bytes: cfg.line_bytes,
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
            let line = addr / self.line_bytes;
            let num_sets = self.sets.len() as u64;
            let set = &mut self.sets[(line % num_sets) as usize];
            let write = kind == AccessKind::Write;
            if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
                let (_, dirty) = set.remove(pos);
                set.insert(0, (line, dirty || write));
                self.hits += 1;
                return AccessOutcome {
                    hit: true,
                    writeback: None,
                };
            }
            self.misses += 1;
            let mut writeback = None;
            if set.len() == self.assoc {
                let (victim, dirty) = set.pop().expect("full set");
                if dirty {
                    self.writebacks += 1;
                    writeback = Some(victim * self.line_bytes);
                }
            }
            set.insert(0, (line, write));
            AccessOutcome {
                hit: false,
                writeback,
            }
        }
    }

    fn snapshot_bytes(c: &Cache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn matches_naive_lru_reference_model() {
        let toy = CacheConfig {
            name: "toy",
            size_bytes: 4 * 4 * 32,
            line_bytes: 32,
            assoc: 4,
        };
        for cfg in [
            CacheConfig::host_l1d(),
            CacheConfig::host_l2(),
            CacheConfig::switch_dcache(),
            toy,
        ] {
            let mut rng = asan_sim::SimRng::from_label(cfg.name);
            let mut cache = Cache::new(cfg.clone());
            let mut model = LruModel::new(&cfg);
            // Addresses over twice the capacity, half of them in a hot
            // eighth, give a mix of hits, misses and dirty evictions.
            let span = 2 * cfg.size_bytes;
            let steps = 20_000;
            for step in 0..steps {
                if step == steps / 2 {
                    let bytes = snapshot_bytes(&cache);
                    let mut back = Cache::new(cfg.clone());
                    let mut r = SnapReader::new(&bytes).unwrap();
                    back.restore(&mut r).unwrap();
                    r.finish().unwrap();
                    assert_eq!(snapshot_bytes(&back), bytes, "{}", cfg.name);
                    cache = back;
                }
                let addr = if rng.chance(0.5) {
                    rng.below(span / 8)
                } else {
                    rng.below(span)
                };
                let kind = if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                assert_eq!(
                    cache.access(addr, kind),
                    model.access(addr, kind),
                    "{} step {step} addr {addr:#x}",
                    cfg.name
                );
            }
            let stats = cache.stats();
            assert_eq!(stats.hits.get(), model.hits, "{}", cfg.name);
            assert_eq!(stats.misses.get(), model.misses, "{}", cfg.name);
            assert_eq!(stats.writebacks.get(), model.writebacks, "{}", cfg.name);
            assert!(model.hits > 0 && model.writebacks > 0, "{}", cfg.name);
        }
    }

    #[test]
    fn geometry_of_paper_configs() {
        assert_eq!(CacheConfig::host_l1d().num_sets(), 256);
        assert_eq!(CacheConfig::host_l2().num_sets(), 2048);
        assert_eq!(CacheConfig::host_l1d_db().num_sets(), 64);
        assert_eq!(CacheConfig::host_l2_db().num_sets(), 256);
        assert_eq!(CacheConfig::switch_icache().num_sets(), 32);
        assert_eq!(CacheConfig::switch_dcache().num_sets(), 16);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40, AccessKind::Read).hit);
        assert!(c.access(0x40, AccessKind::Read).hit);
        assert!(c.access(0x4F, AccessKind::Read).hit); // same line
        assert!(!c.access(0x50, AccessKind::Read).hit); // next line
        assert_eq!(c.stats().hits.get(), 2);
        assert_eq!(c.stats().misses.get(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with addr bits [5:4] == 0: 0x00, 0x80, 0x100...
        c.access(0x000, AccessKind::Read);
        c.access(0x080, AccessKind::Read);
        c.access(0x000, AccessKind::Read); // refresh 0x000
        c.access(0x100, AccessKind::Read); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn writeback_reported_with_correct_address() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Write);
        c.access(0x080, AccessKind::Read);
        // Next distinct line in set 0 evicts dirty 0x000.
        let out = c.access(0x100, AccessKind::Read);
        assert_eq!(out.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Read);
        c.access(0x080, AccessKind::Read);
        let out = c.access(0x100, AccessKind::Read);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Read);
        c.access(0x000, AccessKind::Write); // hit, dirties
        c.access(0x080, AccessKind::Read);
        let out = c.access(0x100, AccessKind::Read);
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny();
        c.access(0x40, AccessKind::Write);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        c.access(0x40, AccessKind::Read);
        assert!(!c.invalidate(0x40));
        assert!(!c.invalidate(0x40)); // already gone
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        for a in (0..128).step_by(16) {
            c.access(a, AccessKind::Read);
        }
        c.flush();
        for a in (0..128).step_by(16) {
            assert!(!c.probe(a));
        }
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.access(0x000, AccessKind::Read);
        c.access(0x080, AccessKind::Read);
        let before_hits = c.stats().hits.get();
        assert!(c.probe(0x000));
        assert_eq!(c.stats().hits.get(), before_hits);
        // LRU untouched by probe: 0x000 is still the LRU victim.
        c.access(0x100, AccessKind::Read);
        assert!(!c.probe(0x000));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        // 16 distinct lines > 8-line capacity: second pass still misses.
        for pass in 0..2 {
            for a in (0u64..256).step_by(16) {
                let out = c.access(a, AccessKind::Read);
                assert!(!out.hit, "pass {pass} addr {a:#x} unexpectedly hit");
            }
        }
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(
            Cache::new(CacheConfig::host_l1i()).stats().miss_ratio(),
            0.0
        );
    }
}
