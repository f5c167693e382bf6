//! In-order, single-issue CPU timing model.
//!
//! The paper's host processor (§4) is a MIPS-like single-issue core at
//! 2 GHz whose memory behaviour dominates: loads block until the first
//! double-word returns, stores/prefetches are non-blocking up to four
//! outstanding cache lines, and I/D TLB misses are charged. All of that
//! lives in [`asan_mem::MemoryHierarchy`]; this type adds instruction
//! accounting (1 cycle per instruction), instruction fetch through the
//! L1I over a configurable hot-code footprint, and the busy/stall/idle
//! breakdown reported in the paper's figures.
//!
//! The same type models the embedded 500 MHz switch processor (with the
//! switch hierarchy config and a smaller code footprint).

use asan_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use asan_sim::stats::TimeBreakdown;
use asan_sim::{Period, SimDuration, SimTime};

/// Static configuration of a CPU core.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Clock frequency in Hz.
    pub hz: u64,
    /// Memory hierarchy serving this core.
    pub hierarchy: HierarchyConfig,
    /// Base address of the code region instruction fetches walk.
    pub code_base: u64,
    /// Size of the hot code footprint in bytes; fetch wraps around it.
    pub code_bytes: u64,
    /// Bytes per instruction (4 for the MIPS-like ISA).
    pub instr_bytes: u64,
}

impl CpuConfig {
    /// The paper's 2 GHz host CPU with a default 16 KB hot-code footprint.
    pub fn host() -> Self {
        CpuConfig {
            hz: 2_000_000_000,
            hierarchy: HierarchyConfig::host(),
            code_base: 0x0040_0000,
            code_bytes: 16 * 1024,
            instr_bytes: 4,
        }
    }

    /// Host CPU with the database-scaled cache hierarchy (HashJoin/Select).
    pub fn host_db() -> Self {
        CpuConfig {
            hierarchy: HierarchyConfig::host_db(),
            ..CpuConfig::host()
        }
    }

    /// The paper's 500 MHz embedded switch CPU; handlers are small, so
    /// the default footprint is 2 KB (fits the 4 KB I-cache).
    pub fn switch_cpu() -> Self {
        CpuConfig {
            hz: 500_000_000,
            hierarchy: HierarchyConfig::switch_cpu(),
            code_base: 0x0010_0000,
            code_bytes: 2 * 1024,
            instr_bytes: 4,
        }
    }
}

/// An in-order CPU core with its private memory hierarchy and local time.
///
/// Application drivers call the charge methods ([`compute`], [`load`],
/// [`store`], [`prefetch`], [`scan`]) as they process real data; each
/// advances the core's local clock and files the elapsed time under
/// *busy* or *stall*. The cluster scheduler moves the clock forward with
/// [`idle_until`] when the core waits for I/O or messages.
///
/// [`compute`]: Cpu::compute
/// [`load`]: Cpu::load
/// [`store`]: Cpu::store
/// [`prefetch`]: Cpu::prefetch
/// [`scan`]: Cpu::scan
/// [`idle_until`]: Cpu::idle_until
///
/// # Example
///
/// ```
/// use asan_cpu::{Cpu, CpuConfig};
/// use asan_sim::SimTime;
///
/// let mut cpu = Cpu::new(CpuConfig::host());
/// cpu.compute(1000);          // 1000 instructions = 500 ns at 2 GHz
/// cpu.load(0xA000);           // cold miss: stall time accrues
/// assert!(cpu.breakdown().busy.as_ns() >= 500);
/// assert!(cpu.breakdown().stall.as_ns() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    cfg: CpuConfig,
    /// One clock cycle, from `cfg.hz`.
    cycle: Period,
    mem: MemoryHierarchy,
    now: SimTime,
    breakdown: TimeBreakdown,
    /// Instruction-fetch cursor within the code footprint.
    fetch_cursor: u64,
    /// Instructions retired.
    instructions: u64,
    /// Proven at construction: the whole code footprint is resident in
    /// the L1I (and I-TLB), and the footprint geometry is line-aligned,
    /// so instruction fetches can be bulk-accounted without walking the
    /// cache model line by line. Cleared whenever the hierarchy is
    /// handed out mutably, since external mutation could evict lines.
    warm_code: bool,
}

asan_sim::snap_fields!(Cpu @ "cpu" {
    cfg: skip,
    cycle: skip,
    now,
    breakdown,
    fetch_cursor,
    instructions,
    warm_code,
    mem,
});

impl Cpu {
    /// Creates a core at time zero with a *warm instruction cache*: the
    /// hot-code footprint is pre-resident, as it would be for any
    /// measured steady-state region (the benchmarks time application
    /// phases, not program startup). Data caches start cold.
    pub fn new(cfg: CpuConfig) -> Self {
        let mut mem = MemoryHierarchy::new(cfg.hierarchy.clone());
        let line = cfg.hierarchy.l1i.line_bytes;
        let mut addr = cfg.code_base;
        while addr < cfg.code_base + cfg.code_bytes {
            mem.ifetch(addr, SimTime::ZERO);
            addr += line;
        }
        // The fast path's segment arithmetic assumes footprint wrap
        // lands on a line boundary; both paper configs satisfy this.
        let aligned = cfg.code_base.is_multiple_of(line) && cfg.code_bytes.is_multiple_of(line);
        let warm_code = aligned && mem.ifetch_resident(cfg.code_base, cfg.code_bytes);
        // Forget the warm-up traffic in the statistics.
        let mut cpu = Cpu {
            cycle: Period::of(cfg.hz),
            mem,
            now: SimTime::ZERO,
            breakdown: TimeBreakdown::default(),
            fetch_cursor: 0,
            instructions: 0,
            warm_code,
            cfg,
        };
        cpu.mem.reset_access_stats();
        cpu
    }

    /// The core's configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Current local time of this core.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Busy/stall/idle breakdown accumulated so far.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The memory hierarchy, for statistics inspection.
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Mutable access to the hierarchy (used by the cluster to model DMA
    /// traffic that invalidates or touches lines). External mutation
    /// could evict code lines, so this conservatively drops back to the
    /// line-by-line instruction-fetch path.
    pub fn memory_mut(&mut self) -> &mut MemoryHierarchy {
        self.warm_code = false;
        &mut self.mem
    }

    fn charge_busy(&mut self, d: SimDuration) {
        self.now += d;
        self.breakdown.busy += d;
    }

    fn charge_stall(&mut self, d: SimDuration) {
        self.now += d;
        self.breakdown.stall += d;
    }

    /// `offset` wrapped into the code footprint; divides only when the
    /// walk actually passes its end.
    #[inline]
    fn wrap_code(&self, offset: u64) -> u64 {
        if offset < self.cfg.code_bytes {
            offset
        } else {
            offset % self.cfg.code_bytes
        }
    }

    /// Fetches `n` instructions through the L1I, walking the hot-code
    /// footprint; returns the fetch-stall charged.
    fn fetch(&mut self, n: u64) {
        let line = self.cfg.hierarchy.l1i.line_bytes;
        let line_mask = line - 1;
        let mut remaining_bytes = n * self.cfg.instr_bytes;
        if remaining_bytes == 0 {
            return;
        }
        if self.warm_code {
            // Residency was proven at construction and nothing else
            // touches the L1I/I-TLB, so every line access below would
            // hit with zero stall. Bulk-account the exact number of
            // line-sized accesses the loop would make: the walk starts
            // at offset `cursor % line` into a line and wrap coincides
            // with a line boundary (alignment checked at construction).
            // (Line sizes are powers of two: shifts, not divisions.)
            let span = (self.fetch_cursor & line_mask) + remaining_bytes;
            let fetches = (span >> line.trailing_zeros()) + u64::from(span & line_mask != 0);
            self.mem.ifetch_warm(fetches);
            self.fetch_cursor = self.wrap_code(self.fetch_cursor + remaining_bytes);
            return;
        }
        while remaining_bytes > 0 {
            let addr = self.cfg.code_base + self.fetch_cursor;
            let line_off = addr & line_mask;
            let in_line = (line - line_off).min(remaining_bytes);
            let out = self.mem.ifetch(addr, self.now);
            if out.stall > SimDuration::ZERO {
                self.charge_stall(out.stall);
            }
            self.fetch_cursor = self.wrap_code(self.fetch_cursor + in_line);
            remaining_bytes -= in_line;
        }
    }

    /// Executes `instrs` ALU/branch instructions (1 cycle each), fetching
    /// them through the I-cache.
    pub fn compute(&mut self, instrs: u64) {
        if instrs == 0 {
            return;
        }
        self.fetch(instrs);
        self.instructions += instrs;
        self.charge_busy(self.cycle.times(instrs));
    }

    /// Executes a load instruction from `addr` (blocking on miss).
    pub fn load(&mut self, addr: u64) {
        self.fetch(1);
        self.instructions += 1;
        self.charge_busy(self.cycle.times(1));
        let out = self.mem.load(addr, self.now);
        self.charge_stall(out.stall);
    }

    /// Executes a store instruction to `addr` (non-blocking while MSHRs
    /// are free).
    pub fn store(&mut self, addr: u64) {
        self.fetch(1);
        self.instructions += 1;
        self.charge_busy(self.cycle.times(1));
        let out = self.mem.store(addr, self.now);
        self.charge_stall(out.stall);
    }

    /// Executes a software prefetch of `addr`.
    pub fn prefetch(&mut self, addr: u64) {
        self.fetch(1);
        self.instructions += 1;
        self.charge_busy(self.cycle.times(1));
        let out = self.mem.prefetch(addr, self.now);
        self.charge_stall(out.stall);
    }

    /// Streams over `[base, base + bytes)` in `stride`-byte elements,
    /// charging `instr_per_elem` compute instructions and one load (or
    /// store when `write`) per element.
    ///
    /// This is the workhorse for record-scanning loops; it is exactly
    /// equivalent to calling [`compute`](Cpu::compute) and
    /// [`load`](Cpu::load) in a loop, just more convenient.
    pub fn scan(&mut self, base: u64, bytes: u64, stride: u64, instr_per_elem: u64, write: bool) {
        assert!(stride > 0, "zero stride");
        let mut off = 0;
        while off < bytes {
            self.compute(instr_per_elem);
            if write {
                self.store(base + off);
            } else {
                self.load(base + off);
            }
            off += stride;
        }
    }

    /// Touches every cache line in `[base, base + bytes)` once (bulk copy
    /// or checksum-style access), charging `instr_per_line` per line.
    pub fn touch_lines(&mut self, base: u64, bytes: u64, instr_per_line: u64, write: bool) {
        let line = self.cfg.hierarchy.l1d.line_bytes;
        let first = base / line * line;
        let last = (base + bytes).div_ceil(line) * line;
        self.scan(first, last - first, line, instr_per_line, write);
    }

    /// Advances local time to `t`, filing the gap as idle. No-op if the
    /// core is already past `t`.
    pub fn idle_until(&mut self, t: SimTime) {
        if t > self.now {
            self.breakdown.idle += t.since(self.now);
            self.now = t;
        }
    }

    /// Advances local time to `t`, filing the gap as memory/data stall
    /// (used by the active switch for data-buffer valid-bit stalls).
    pub fn stall_until(&mut self, t: SimTime) {
        if t > self.now {
            self.breakdown.stall += t.since(self.now);
            self.now = t;
        }
    }

    /// Advances local time to `t`, filing the gap as *busy* (used for
    /// fixed-cost OS work like interrupt processing, which executes
    /// instructions we do not model individually).
    pub fn busy_until(&mut self, t: SimTime) {
        if t > self.now {
            self.breakdown.busy += t.since(self.now);
            self.now = t;
        }
    }

    /// Charges a fixed amount of busy time (modeled OS overhead).
    pub fn charge_fixed_busy(&mut self, d: SimDuration) {
        self.charge_busy(d);
    }

    /// Resets time and statistics but keeps cache contents (used between
    /// measurement phases).
    pub fn reset_accounting(&mut self) {
        self.now = SimTime::ZERO;
        self.breakdown = TimeBreakdown::default();
        self.instructions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::snap::{Snap, SnapWriter};

    fn host() -> Cpu {
        Cpu::new(CpuConfig::host())
    }

    fn snapshot_bytes(c: &Cpu) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn cloned_warm_core_matches_a_fresh_one() {
        for (name, cfg) in [
            ("host", CpuConfig::host()),
            ("host_db", CpuConfig::host_db()),
            ("switch_cpu", CpuConfig::switch_cpu()),
        ] {
            let warm = Cpu::new(cfg.clone());
            let warm_bytes = snapshot_bytes(&warm);
            let mut fresh = Cpu::new(cfg.clone());
            let mut clone = warm.clone();
            assert_eq!(snapshot_bytes(&clone), snapshot_bytes(&fresh), "{name}");
            // Loads, stores and prefetches over twice the L2 (hits,
            // misses, TLB walks, write-backs), mixed with compute.
            let mut rng = asan_sim::SimRng::from_label(name);
            for step in 0..20_000 {
                let addr = 0x100_0000 + rng.below(1 << 20);
                for c in [&mut fresh, &mut clone] {
                    match step % 4 {
                        0 => c.load(addr),
                        1 => c.store(addr),
                        2 => c.prefetch(addr),
                        _ => c.compute(addr % 64),
                    }
                }
                assert_eq!(clone.now(), fresh.now(), "{name} step {step}");
                assert_eq!(clone.breakdown(), fresh.breakdown(), "{name} step {step}");
            }
            assert_eq!(snapshot_bytes(&clone), snapshot_bytes(&fresh), "{name}");
            // The clone owns its state: running it left the original as
            // `Cpu::new` made it.
            assert_eq!(snapshot_bytes(&warm), warm_bytes, "{name}");
        }
    }

    #[test]
    fn cloned_warm_core_allocates_only_code_chunks() {
        // Cache lines are stored in chunks of whole sets (here 32 two-way
        // sets, 64 lines), allocated on first write. The warm-up fetches the
        // code footprint once; its I-TLB walks read two page-table lines
        // through the L2, which map to sets the code already occupies.
        // The L1D is never touched.
        for (name, cfg, l1i, l2) in [
            // 16 KiB of code: 256 L1I lines fill all 256 sets (8 chunks),
            // 128 L2 lines fill sets 0..128 (4 chunks).
            ("host", CpuConfig::host(), 8, Some(4)),
            ("host_db", CpuConfig::host_db(), 8, Some(4)),
            // 2 KiB of code in a 32-set, one-chunk I-cache and no L2.
            ("switch_cpu", CpuConfig::switch_cpu(), 1, None),
        ] {
            let clone = Cpu::new(cfg).clone();
            let mem = clone.memory();
            assert_eq!(mem.l1i().allocated_lines(), l1i * 64, "{name}");
            assert_eq!(mem.l1d().allocated_lines(), 0, "{name}");
            assert_eq!(
                mem.l2().map(asan_mem::Cache::allocated_lines),
                l2.map(|n| n * 64),
                "{name}"
            );
        }
    }

    #[test]
    fn compute_charges_one_cycle_per_instruction() {
        let mut c = host();
        c.compute(2000);
        // 2000 cycles at 2 GHz = 1000 ns busy; fetch may add stalls but
        // not busy time.
        assert_eq!(c.breakdown().busy.as_ns(), 1000);
        assert_eq!(c.instructions(), 2000);
    }

    #[test]
    fn code_footprint_is_warm_from_construction() {
        // Cores measure steady-state phases: the hot-code footprint is
        // pre-resident, so instruction fetch never stalls while the
        // footprint fits the L1I.
        let mut c = host();
        c.compute(2 * 16 * 1024 / 4); // two full laps
        assert_eq!(c.breakdown().stall, SimDuration::ZERO);
        // A footprint larger than the 32 KB L1I does stall.
        let mut big = Cpu::new(CpuConfig {
            code_bytes: 128 * 1024,
            ..CpuConfig::host()
        });
        big.compute(2 * 128 * 1024 / 4);
        assert!(big.breakdown().stall.as_ns() > 0, "thrashing footprint");
    }

    #[test]
    fn load_miss_files_stall_not_busy() {
        let mut c = host();
        c.compute(16 * 1024 / 4 * 2); // warm the code footprint
        let busy0 = c.breakdown().busy;
        let stall0 = c.breakdown().stall;
        c.load(0x8000_0000);
        assert_eq!((c.breakdown().busy - busy0).as_ps(), 500); // 1 cycle
        assert!((c.breakdown().stall - stall0).as_ns() > 100);
    }

    #[test]
    fn stores_overlap_loads_do_not() {
        // Disable TLBs so the page-table walk (paid by loads and stores
        // alike) does not mask the MSHR overlap effect under test.
        let no_tlb = || {
            let mut cfg = CpuConfig::host();
            cfg.hierarchy.itlb = None;
            cfg.hierarchy.dtlb = None;
            Cpu::new(cfg)
        };
        let mut a = no_tlb();
        let mut b = no_tlb();
        let t0a = a.now();
        for i in 0..4u64 {
            a.store(0x9000_0000 + i * 4096);
        }
        let store_time = a.now().since(t0a);
        let t0b = b.now();
        for i in 0..4u64 {
            b.load(0x9000_0000 + i * 4096);
        }
        let load_time = b.now().since(t0b);
        assert!(
            store_time < load_time / 2,
            "stores ({store_time}) should overlap far better than loads ({load_time})"
        );
    }

    #[test]
    fn scan_equivalent_to_manual_loop() {
        let mut a = host();
        let mut b = host();
        a.scan(0x1000, 1024, 64, 10, false);
        for i in 0..16u64 {
            b.compute(10);
            b.load(0x1000 + i * 64);
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.breakdown(), b.breakdown());
    }

    #[test]
    fn touch_lines_covers_unaligned_ranges() {
        let mut c = host();
        let loads0 = c.memory().stats().loads;
        // 100 bytes starting mid-line spans 3 lines (offset 32..132).
        c.touch_lines(0x1020, 100, 1, false);
        assert_eq!(c.memory().stats().loads - loads0, 3);
    }

    #[test]
    fn idle_accrues_only_forward() {
        let mut c = host();
        c.compute(100);
        let t = c.now();
        c.idle_until(t + SimDuration::from_us(5));
        assert_eq!(c.breakdown().idle, SimDuration::from_us(5));
        c.idle_until(SimTime::ZERO); // no-op
        assert_eq!(c.breakdown().idle, SimDuration::from_us(5));
    }

    #[test]
    fn busy_until_files_busy() {
        let mut c = host();
        c.busy_until(SimTime::from_us(30)); // the paper's per-request OS cost
        assert_eq!(c.breakdown().busy, SimDuration::from_us(30));
        assert!((c.breakdown().utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn switch_cpu_runs_4x_slower() {
        let mut h = host();
        let mut s = Cpu::new(CpuConfig::switch_cpu());
        h.compute(1000);
        s.compute(1000);
        assert_eq!(h.breakdown().busy * 4, s.breakdown().busy);
    }

    #[test]
    fn breakdown_total_equals_now() {
        let mut c = host();
        c.compute(500);
        c.load(0x5000);
        c.store(0x6000);
        c.idle_until(c.now() + SimDuration::from_us(1));
        assert_eq!(c.breakdown().total(), c.now().since(SimTime::ZERO));
    }

    #[test]
    fn prefetch_hides_latency_for_later_loads() {
        let mut warm = host();
        let mut cold = host();
        // Prefetch well in advance, then idle past the fill.
        warm.prefetch(0xA000_0000);
        warm.idle_until(warm.now() + SimDuration::from_us(2));
        cold.idle_until(cold.now() + SimDuration::from_us(2));
        let s0 = warm.breakdown().stall;
        warm.load(0xA000_0000);
        let warm_stall = warm.breakdown().stall - s0;
        let c0 = cold.breakdown().stall;
        cold.load(0xA000_0000);
        let cold_stall = cold.breakdown().stall - c0;
        assert_eq!(warm_stall, SimDuration::ZERO, "prefetched line should hit");
        assert!(cold_stall.as_ns() > 50);
    }

    #[test]
    fn scan_write_mode_uses_stores() {
        let mut c = host();
        let stores0 = c.memory().stats().stores;
        c.scan(0x2000_0000, 1024, 128, 5, true);
        assert_eq!(c.memory().stats().stores - stores0, 8);
        assert_eq!(c.memory().stats().loads, 0);
    }

    #[test]
    fn fetch_cursor_wraps_footprint() {
        // Many small computes must keep fetching without growing the
        // cursor past the footprint.
        let mut c = Cpu::new(CpuConfig::switch_cpu());
        for _ in 0..10_000 {
            c.compute(3);
        }
        // Warm footprint: no ifetch stalls at steady state.
        assert_eq!(c.breakdown().stall, SimDuration::ZERO);
        assert_eq!(c.instructions(), 30_000);
    }

    #[test]
    fn warm_fetch_fast_path_matches_slow_path_exactly() {
        // `memory_mut` drops the fast path, so `slow` walks the cache
        // model line by line while `fast` bulk-accounts. Every counter
        // and every picosecond must agree.
        for cfg in [CpuConfig::host(), CpuConfig::switch_cpu()] {
            let mut fast = Cpu::new(cfg.clone());
            let mut slow = Cpu::new(cfg);
            let _ = slow.memory_mut();
            for &n in &[1u64, 3, 15, 16, 17, 1000, 4097] {
                fast.compute(n);
                slow.compute(n);
                fast.load(0x8000_0000 + n * 8);
                slow.load(0x8000_0000 + n * 8);
            }
            assert_eq!(fast.now(), slow.now());
            assert_eq!(fast.breakdown(), slow.breakdown());
            assert_eq!(
                fast.memory().stats().ifetches,
                slow.memory().stats().ifetches
            );
            let (f, s) = (fast.memory().l1i().stats(), slow.memory().l1i().stats());
            assert_eq!(f.hits.get(), s.hits.get());
            assert_eq!(f.misses.get(), s.misses.get());
            let tlb_hits = |c: &Cpu| c.memory().itlb().map(|t| t.stats().hits.get());
            assert_eq!(tlb_hits(&fast), tlb_hits(&slow));
        }
    }

    #[test]
    fn oversized_footprint_disables_fast_path() {
        // A footprint that cannot be L1I-resident must take (and keep
        // taking) the stalling slow path.
        let mut big = Cpu::new(CpuConfig {
            code_bytes: 128 * 1024,
            ..CpuConfig::host()
        });
        big.compute(128 * 1024 / 4);
        assert!(big.breakdown().stall.as_ns() > 0);
    }

    #[test]
    fn snapshot_restores_clock_caches_and_fast_path() {
        use asan_sim::snap::{SnapReader, SnapWriter};
        for cfg in [CpuConfig::host(), CpuConfig::switch_cpu()] {
            let mut c = Cpu::new(cfg.clone());
            c.compute(1234);
            c.scan(0x3000_0000, 4096, 64, 7, false);
            c.store(0x3000_2000);
            c.idle_until(c.now() + SimDuration::from_us(3));

            let mut w = SnapWriter::new();
            c.snapshot(&mut w);
            let bytes = w.into_bytes();
            let mut back = Cpu::new(cfg);
            let mut r = SnapReader::new(&bytes).unwrap();
            back.restore(&mut r).unwrap();
            r.finish().unwrap();

            assert_eq!(back.now(), c.now());
            assert_eq!(back.breakdown(), c.breakdown());
            assert_eq!(back.instructions(), c.instructions());
            // Continue both: identical timing picosecond for picosecond,
            // including warm-fetch bulk accounting and D-cache residency.
            for &n in &[5u64, 100, 4099] {
                c.compute(n);
                back.compute(n);
                c.load(0x3000_0000 + n * 8);
                back.load(0x3000_0000 + n * 8);
            }
            assert_eq!(back.now(), c.now());
            assert_eq!(back.breakdown(), c.breakdown());
            assert_eq!(back.memory().stats().ifetches, c.memory().stats().ifetches);
        }
    }

    #[test]
    fn snapshot_preserves_disabled_fast_path() {
        use asan_sim::snap::{SnapReader, SnapWriter};
        let mut c = host();
        let _ = c.memory_mut(); // drops to the line-by-line fetch path
        c.compute(64);
        let mut w = SnapWriter::new();
        c.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = host(); // constructs with warm_code = true
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();
        c.compute(10_000);
        back.compute(10_000);
        assert_eq!(back.now(), c.now());
        assert_eq!(
            back.memory().l1i().stats().hits.get(),
            c.memory().l1i().stats().hits.get()
        );
    }

    #[test]
    fn reset_accounting_keeps_cache_state() {
        let mut c = host();
        c.load(0x7000);
        c.reset_accounting();
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.breakdown().total(), SimDuration::ZERO);
        c.load(0x7000);
        // Warm cache: only the 1-cycle busy charge, no stall.
        assert_eq!(c.breakdown().stall, SimDuration::ZERO);
    }
}
