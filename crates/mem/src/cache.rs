//! Generic set-associative cache timing model.
//!
//! Write-back, write-allocate, true-LRU replacement. This is a *timing*
//! model: it tracks tags, dirtiness and recency, not data (data lives in
//! the applications themselves). It is used for the host L1I/L1D/L2 and
//! the switch CPU's 4 KB I-cache and 1 KB D-cache.

use std::ops::Range;

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
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
}

asan_sim::snap_fields!(CacheStats {
    hits,
    misses,
    writebacks,
});

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

    /// Whether this line is indistinguishable from one never written.
    fn is_zero(self) -> bool {
        self.word == 0 && self.lru == 0
    }
}

/// Target size of a storage chunk, in lines: 64 lines of 16 B, 1 KiB.
const CHUNK_LINES: usize = 64;

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
    cfg: CacheConfig,
    /// The lines in chunks of `1 << chunk_bits` whole sets, set-major:
    /// set `i` is in chunk `i >> chunk_bits`, at the position of
    /// `i % (1 << chunk_bits)` among its sets ([`Cache::locate`]). A
    /// chunk is allocated when one of its sets is first written; until
    /// then it is empty (which allocates nothing) and reads as all-zero
    /// (invalid) lines, so a clone copies only the chunks a run has
    /// touched.
    chunks: Vec<Box<[Line]>>,
    /// `log2` of the sets per chunk.
    chunk_bits: u32,
    stamp: u64,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
    /// `log2(num_sets)`: the tag is the line number shifted right by this.
    set_bits: u32,
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
        // As many whole sets as fit in a chunk (at least one, at most
        // all), a power of two so a set's chunk is a shift away.
        let fit = (CHUNK_LINES / cfg.assoc).max(1) as u64;
        let chunk_bits = fit.ilog2().min(num_sets.trailing_zeros());
        let chunks =
            vec![Box::default(); usize::try_from(num_sets >> chunk_bits).expect("a chunk count")];
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
            chunks,
            chunk_bits,
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

    /// Lines per chunk.
    fn chunk_len(&self) -> usize {
        self.cfg.assoc << self.chunk_bits
    }

    /// Lines allocated so far: the lines of every chunk that has been
    /// written. The rest read as invalid without taking memory.
    pub fn allocated_lines(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// The chunk holding set `set_idx`, and the range of the set's ways
    /// within it. A chunk never written is empty, so indexing it with
    /// `get` finds no ways.
    #[inline]
    fn locate(&self, set_idx: usize) -> (usize, Range<usize>) {
        let first = (set_idx & ((1 << self.chunk_bits) - 1)) * self.cfg.assoc;
        (set_idx >> self.chunk_bits, first..first + self.cfg.assoc)
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = usize::try_from(line & self.set_mask).expect("a set index below num_sets");
        (set, line >> self.set_bits)
    }

    /// Presents an access; returns whether it hit and any dirty eviction.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        let (set_idx, tag) = self.index(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let (chunk, ways) = self.locate(set_idx);
        let set = match self.chunks[chunk].get_mut(ways.clone()) {
            Some(set) => set,
            None => {
                // A chunk never written: allocate it (every way invalid).
                self.chunks[chunk] = zero_chunk(self.chunk_len());
                &mut self.chunks[chunk][ways]
            }
        };

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
        let (chunk, ways) = self.locate(set_idx);
        self.chunks[chunk]
            .get(ways)
            .is_some_and(|set| set.iter().any(|l| l.holds(tag)))
    }

    /// Invalidates the line containing `addr` if present, returning
    /// whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        let (chunk, ways) = self.locate(set_idx);
        let Some(set) = self.chunks[chunk].get_mut(ways) else {
            return false;
        };
        for l in set {
            if l.holds(tag) {
                let dirty = l.dirty();
                l.word &= !FLAGS;
                return dirty;
            }
        }
        false
    }

    /// Invalidates everything (e.g. between benchmark configurations).
    /// Tags and recency stamps stay, as the snapshot shows; a chunk left
    /// all zero is freed.
    pub fn flush(&mut self) {
        for chunk in &mut self.chunks {
            for l in chunk.iter_mut() {
                l.word &= !FLAGS;
            }
            if chunk.iter().all(|l| l.is_zero()) {
                *chunk = Box::default();
            }
        }
    }
}

/// The dynamic state — the recency stamp, the statistics, and every
/// line's tag/valid/dirty/recency, unallocated chunks as zero lines.
/// Geometry is configuration, rebuilt by the caller before restoring.
/// Restore rejects a tag that reaches the valid/dirty bits: no address
/// maps to one.
impl Snap for Cache {
    fn snapshot(&self, w: &mut SnapWriter) {
        let chunk_len = self.chunk_len();
        let Cache {
            cfg: _,
            chunks,
            chunk_bits: _,
            stamp,
            stats,
            line_shift: _,
            set_mask: _,
            set_bits: _,
        } = self;
        stamp.snapshot(w);
        stats.snapshot(w);
        let put = |w: &mut SnapWriter, line: Line| {
            w.u64(line.tag());
            w.bool(line.valid());
            w.bool(line.dirty());
            w.u64(line.lru);
        };
        for chunk in chunks {
            if chunk.is_empty() {
                (0..chunk_len).for_each(|_| put(w, Line::default()));
            } else {
                chunk.iter().for_each(|&l| put(w, l));
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut buf = zero_chunk(self.chunk_len());
        let Cache {
            cfg: _,
            chunks,
            chunk_bits: _,
            stamp,
            stats,
            line_shift: _,
            set_mask: _,
            set_bits: _,
        } = self;
        stamp.restore(r)?;
        stats.restore(r)?;
        for chunk in chunks {
            for line in buf.iter_mut() {
                let tag = r.u64()?;
                if tag & FLAGS != 0 {
                    return Err(SnapError::Malformed("cache tag overlaps the flag bits"));
                }
                let valid = r.bool()?;
                let dirty = r.bool()?;
                line.word = tag | if valid { VALID } else { 0 } | if dirty { DIRTY } else { 0 };
                line.lru = r.u64()?;
            }
            *chunk = if buf.iter().all(|l| l.is_zero()) {
                Box::default()
            } else {
                buf.clone()
            };
        }
        Ok(())
    }
}

/// A chunk of `len` never-written lines.
#[cold]
fn zero_chunk(len: usize) -> Box<[Line]> {
    vec![Line::default(); len].into_boxed_slice()
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
        let lines = 8;
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
                sets: vec![Vec::new(); usize::try_from(cfg.num_sets()).expect("a set count")],
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
            let set = &mut self.sets[usize::try_from(line % num_sets).expect("a set index")];
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

    /// One step of the reference-model streams: addresses over twice
    /// the capacity, half of them in a hot eighth, 30 % writes — a mix of
    /// hits, misses and dirty evictions.
    fn random_access(rng: &mut asan_sim::SimRng, cfg: &CacheConfig) -> (u64, AccessKind) {
        let span = 2 * cfg.size_bytes;
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
        (addr, kind)
    }

    /// A geometry for the reference streams: `sets` sets of `assoc`
    /// ways of `line_bytes` lines.
    fn geometry(name: &'static str, sets: u64, assoc: usize, line_bytes: u64) -> CacheConfig {
        CacheConfig {
            name,
            size_bytes: sets * assoc as u64 * line_bytes,
            line_bytes,
            assoc,
        }
    }

    /// Reference-stream geometries beyond the paper's: a non-power-of-
    /// two associativity, a cache smaller than one storage chunk, and
    /// sets wider than a chunk (one set per chunk).
    fn odd_geometries() -> [CacheConfig; 4] {
        [
            geometry("toy", 4, 4, 32),
            geometry("three-way", 64, 3, 32),
            geometry("five-way-sub-chunk", 4, 5, 32),
            geometry("wide-sets", 4, 80, 16),
        ]
    }

    #[test]
    fn matches_naive_lru_reference_model() {
        // The switch D-cache (32 lines) is also smaller than one chunk.
        let paper = [
            CacheConfig::host_l1d(),
            CacheConfig::host_l2(),
            CacheConfig::switch_dcache(),
        ];
        for cfg in paper.into_iter().chain(odd_geometries()) {
            let mut rng = asan_sim::SimRng::from_label(cfg.name);
            let mut cache = Cache::new(cfg.clone());
            let mut model = LruModel::new(&cfg);
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
                let (addr, kind) = random_access(&mut rng, &cfg);
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

    /// The snapshot of a cache of `lines` lines in the flat layout, set
    /// by set and way by way, written by hand: every line zero except
    /// `set` = `(index, tag, valid, dirty, lru)`.
    fn flat_snapshot(
        stamp: u64,
        (hits, misses, writebacks): (u64, u64, u64),
        lines: usize,
        set: &[(usize, u64, bool, bool, u64)],
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(stamp);
        for n in [hits, misses, writebacks] {
            let mut c = Counter::default();
            c.add(n);
            c.snapshot(&mut w);
        }
        for i in 0..lines {
            let (tag, valid, dirty, lru) = set
                .iter()
                .find(|l| l.0 == i)
                .map_or((0, false, false, 0), |l| (l.1, l.2, l.3, l.4));
            w.u64(tag);
            w.bool(valid);
            w.bool(dirty);
            w.u64(lru);
        }
        w.into_bytes()
    }

    #[test]
    fn chunked_snapshot_matches_flat_layout() {
        // 128 sets of 2 ways of 64 B lines: four chunks of 32 sets.
        let cfg = geometry("four-chunks", 128, 2, 64);
        let lines = 256;
        let mut c = Cache::new(cfg.clone());
        assert_eq!(c.allocated_lines(), 0);
        assert_eq!(snapshot_bytes(&c), flat_snapshot(0, (0, 0, 0), lines, &[]));

        // Set 0 and set 100 (chunk 3); the tag is the line number >> 7.
        c.access(0, AccessKind::Write);
        c.access(100 * 64, AccessKind::Read);
        c.access(128 * 64, AccessKind::Read); // set 0, tag 1, way 1
        c.access(100 * 64, AccessKind::Read); // hit
        assert_eq!(c.allocated_lines(), 2 * 64);
        let warm = [
            (0, 0, true, true, 1),
            (1, 1, true, false, 3),
            (200, 0, true, false, 4),
        ];
        assert_eq!(
            snapshot_bytes(&c),
            flat_snapshot(4, (1, 3, 0), lines, &warm)
        );

        // A flush keeps tags and stamps, so both chunks stay.
        c.flush();
        assert_eq!(c.allocated_lines(), 2 * 64);
        let flushed = warm.map(|(i, tag, _, _, lru)| (i, tag, false, false, lru));
        assert_eq!(
            snapshot_bytes(&c),
            flat_snapshot(4, (1, 3, 0), lines, &flushed)
        );
    }

    #[test]
    fn restoring_zero_lines_allocates_nothing() {
        for cfg in [CacheConfig::host_l2(), geometry("wide-sets", 4, 80, 16)] {
            let fresh = snapshot_bytes(&Cache::new(cfg.clone()));
            let mut c = Cache::new(cfg.clone());
            let mut rng = asan_sim::SimRng::from_label(cfg.name);
            for _ in 0..1000 {
                let (addr, kind) = random_access(&mut rng, &cfg);
                c.access(addr, kind);
            }
            assert!(c.allocated_lines() > 0, "{}", cfg.name);
            let mut r = SnapReader::new(&fresh).unwrap();
            c.restore(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(c.allocated_lines(), 0, "{}", cfg.name);
            assert_eq!(snapshot_bytes(&c), fresh, "{}", cfg.name);
        }
    }

    #[test]
    fn allocated_chunks_hold_valid_lines() {
        // The host warm-up pattern: one pass over a code range. Only the
        // chunks of the sets it maps to may be allocated, and a clone
        // copies exactly those.
        let cfg = CacheConfig::host_l2();
        let mut c = Cache::new(cfg.clone());
        for addr in (0x0040_0000..0x0040_4000).step_by(64) {
            c.access(addr, AccessKind::Read);
        }
        // 128 lines of 128 B in 128 consecutive sets: 4 chunks of 32.
        assert_eq!(c.allocated_lines(), 4 * 64);
        let clone = c.clone();
        assert_eq!(clone.allocated_lines(), 4 * 64);
        assert_eq!(snapshot_bytes(&clone), snapshot_bytes(&c));
        for chunk in clone.chunks.iter().filter(|c| !c.is_empty()) {
            assert!(chunk.iter().any(|l| l.valid()));
        }
    }

    #[test]
    fn restore_survives_seeded_mutations() {
        let mut bases = Vec::new();
        for cfg in [CacheConfig::switch_dcache(), CacheConfig::host_l1d_db()]
            .into_iter()
            .chain(odd_geometries())
        {
            let mut rng = asan_sim::SimRng::from_label(cfg.name);
            let mut c = Cache::new(cfg.clone());
            for step in 0..2_000 {
                if step % 500 == 0 {
                    bases.push((cfg.clone(), snapshot_bytes(&c)));
                }
                let (addr, kind) = random_access(&mut rng, &cfg);
                c.access(addr, kind);
            }
        }
        let per_base = 2_000 / bases.len() + 1;
        let mut ok = 0;
        for (k, (cfg, base)) in bases.iter().enumerate() {
            ok += asan_sim::mutate::check_restore(
                &format!("cache-mutations-{k}"),
                std::slice::from_ref(base),
                per_base,
                || Cache::new(cfg.clone()),
                Cache::restore,
                Cache::snapshot,
            );
        }
        let total = per_base * bases.len();
        assert!(0 < ok && ok < total, "{ok} of {total} mutations restored");
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
