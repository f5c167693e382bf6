//! HashJoin with bit-vector filter (§5, DeWitt-Gerber style).
//!
//! Phase 1: scan relation R (16 MB), build the host hash table and set
//! bits of the 128 KB bit-vector. Phase 2: scan relation S (128 MB);
//! records whose bit is clear are discarded before the join.
//!
//! * **normal**: both the bit-vector check and the join probe run on
//!   the host.
//! * **active**: the bit-vector lives in the switch ("the bit-vector is
//!   stored in the switch while the relation R passes through the
//!   switch"); the switch filters S and forwards only the surviving
//!   ~24 % to the host, which runs the real join probe.
//!
//! Shape to reproduce (Figures 5–6): active beats normal by ~1.10×
//! without prefetch; the two prefetched cases tie; host traffic drops
//! by ~76 %; the host cache-stall share drops (27.6 % → 16.1 % for the
//! prefetched cases) because the unrelated records never pollute the
//! host caches; the switch CPU sees misses on its 128 KB bit-vector
//! (≫ its 1 KB D-cache) but the impact is small.
//!
//! Beside the timing model, each run keeps the real join state that
//! computes its artifact, the match count: a packed `BitVector` filter (on the
//! host in `normal`, in the switch handler in `active`) and the host's
//! `JoinTable` of R's keys, sized once from [`Params`]. Their simulated
//! memory traffic is modelled separately, at the host's `BITVEC` and
//! `HASHTAB` addresses and the switch's `bv_base`, so the layout of the
//! Rust-side state moves no simulated cost. [`reference()`] recomputes
//! both counts without either.

use std::hash::{BuildHasherDefault, Hasher};

use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{HandlerId, NodeId};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data::{self, RecordTable};
use crate::runner::{drive, standard_cluster, AppRun, Variant};

/// Handler that observes R and sets bit-vector bits.
pub const BUILD_HANDLER: HandlerId = HandlerId::new_const(3);

/// Handler that filters S against the bit-vector.
pub const PROBE_HANDLER: HandlerId = HandlerId::new_const(4);

/// Flow tag of the final statistics message.
pub const DONE_HANDLER: HandlerId = HandlerId::new_const(62);

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Relation R size in bytes (16 MB in Table 1).
    pub r_bytes: u64,
    /// Relation S size in bytes (128 MB in Table 1).
    pub s_bytes: u64,
    /// Record size (128 B, §5).
    pub record_bytes: u64,
    /// Bit-vector size in bits (≈1 M bits = 128 KB, §5).
    pub bits: u64,
    /// I/O request size.
    pub io_block: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            r_bytes: 16 << 20,
            s_bytes: 128 << 20,
            record_bytes: 128,
            bits: 1 << 20,
            io_block: 64 * 1024,
        }
    }

    /// A scaled-down configuration for tests (keeps the R:S ratio).
    pub fn small() -> Self {
        Params {
            r_bytes: 512 << 10,
            s_bytes: 4 << 20,
            bits: 1 << 15,
            ..Params::paper()
        }
    }
}

/// The hash function both sides use for the bit-vector: the top 24 bits
/// of a multiplicative hash, masked to `bits`, which must be a power of
/// two (every run's filter asserts it where it is sized).
#[inline]
pub fn hash_bit(key: u64, bits: u64) -> u64 {
    debug_assert!(bits.is_power_of_two(), "{bits} filter bits");
    (key.wrapping_mul(0x9E3779B97F4A7C15) >> 40) & (bits - 1)
}

/// A clear bit-vector filter of `p.bits` bits.
///
/// # Panics
///
/// Panics unless `p.bits` is a power of two, which [`hash_bit`]'s mask
/// needs.
fn new_filter(p: &Params) -> BitVector {
    assert!(
        p.bits.is_power_of_two(),
        "the bit-vector needs a power-of-two size, not {}",
        p.bits
    );
    BitVector::new(p.bits)
}

/// Pure-Rust reference over the relations' bytes: (bit-vector pass
/// count, true join matches), computed over their keys.
pub fn reference(r: &[u8], s: &[u8], p: &Params) -> (u64, u64) {
    let rb = crate::to_usize(p.record_bytes);
    reference_keys(data::record_keys(r, rb), data::record_keys(s, rb), p)
}

/// Pure-Rust reference over R's and S's keys, in record order.
///
/// Independent of the simulated join state: it sorts R's keys and the
/// S keys that pass its own bit-vector, then counts the S keys present
/// in R in one merge walk.
pub(crate) fn reference_keys(
    r: impl Iterator<Item = u64>,
    s: impl Iterator<Item = u64>,
    p: &Params,
) -> (u64, u64) {
    let mut bv = new_filter(p);
    let mut r_keys: Vec<u64> = r.collect();
    for &k in &r_keys {
        bv.set(hash_bit(k, p.bits));
    }
    let mut s_keys: Vec<u64> = s.filter(|&k| bv.get(hash_bit(k, p.bits))).collect();
    r_keys.sort_unstable();
    s_keys.sort_unstable();
    let mut r_iter = r_keys.iter().peekable();
    let mut matches = 0u64;
    for &k in &s_keys {
        while r_iter.next_if(|&&rk| rk < k).is_some() {}
        if r_iter.peek() == Some(&&k) {
            matches += 1;
        }
    }
    (s_keys.len() as u64, matches)
}

/// A fixed-length bit-vector packed eight bits to a byte: bit `i` is
/// bit `i % 8` of byte `i / 8`.
///
/// Its snapshot is the length-prefixed byte string; restore takes only
/// a string of the same length with no bit set past the end.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BitVector {
    bytes: Vec<u8>,
    len: u64,
}

impl BitVector {
    /// `len` clear bits.
    pub(crate) fn new(len: u64) -> Self {
        BitVector {
            bytes: vec![0; crate::to_usize(len.div_ceil(8))],
            len,
        }
    }

    /// Sets bit `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: u64) {
        debug_assert!(i < self.len, "bit {i} of {}", self.len);
        self.bytes[crate::to_usize(i / 8)] |= 1 << (i % 8);
    }

    /// Whether bit `i` is set.
    #[inline]
    pub(crate) fn get(&self, i: u64) -> bool {
        debug_assert!(i < self.len, "bit {i} of {}", self.len);
        self.bytes[crate::to_usize(i / 8)] >> (i % 8) & 1 != 0
    }
}

impl Snap for BitVector {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.bytes(&self.bytes);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let bytes = r.bytes()?;
        if bytes.len() != self.bytes.len() {
            return Err(SnapError::Malformed("bit-vector length"));
        }
        let tail = self.len % 8;
        if tail != 0 && bytes.last().is_some_and(|&b| b >> tail != 0) {
            return Err(SnapError::Malformed("bit-vector bit past its length"));
        }
        self.bytes = bytes;
        Ok(())
    }
}

/// A multiplicative hash for the join keys, fixed so that the table
/// never depends on a per-process seed. Folding the product's top half
/// into its bottom half mixes both the low bits std's table picks a
/// slot with and the top bits it tags the slot with.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("join keys hash through write_u64")
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let product = key.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0 = product ^ product >> 32;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// R's join keys with how often each occurs, in a std table presized
/// for a known number of distinct keys so it never grows.
///
/// Its snapshot is the entry count, then each `(key, count)` in
/// ascending key order: the encoding of a `BTreeMap<u64, u32>`, so the
/// table's slot order never reaches a snapshot.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "a fixed hasher and no iteration outside the sorted snapshot keep it deterministic"
)]
struct JoinTable {
    counts: std::collections::HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// The most distinct keys a restored snapshot may hold.
    max_len: usize,
}

impl JoinTable {
    /// An empty table for up to `keys` distinct keys.
    #[expect(
        clippy::disallowed_types,
        reason = "a fixed hasher and no iteration outside the sorted snapshot keep it deterministic"
    )]
    fn for_keys(keys: usize) -> Self {
        JoinTable {
            counts: std::collections::HashMap::with_capacity_and_hasher(
                keys,
                BuildHasherDefault::default(),
            ),
            max_len: keys,
        }
    }

    /// Adds one occurrence of `key`.
    #[inline]
    fn add(&mut self, key: u64) {
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Whether `key` was added.
    #[inline]
    fn contains(&self, key: u64) -> bool {
        self.counts.contains_key(&key)
    }
}

impl Snap for JoinTable {
    fn snapshot(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(u64, u32)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        w.usize(entries.len());
        for (k, count) in entries {
            k.snapshot(w);
            count.snapshot(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len_prefix()?;
        if n > self.max_len {
            return Err(SnapError::Malformed("more join keys than the table holds"));
        }
        self.counts.clear();
        let mut last = None;
        for _ in 0..n {
            let key = r.u64()?;
            let count = r.u32()?;
            if last.is_some_and(|l| l >= key) {
                return Err(SnapError::Malformed("map keys not ascending"));
            }
            if count == 0 {
                return Err(SnapError::Malformed("join key with count 0"));
            }
            self.counts.insert(key, count);
            last = Some(key);
        }
        Ok(())
    }
}

/// The host's join state in both variants: R's keys in a [`JoinTable`]
/// (the real hash table; its simulated memory traffic is modelled
/// separately at `HASHTAB`) and the S records that passed the
/// bit-vector and matched.
#[derive(Debug)]
struct JoinState {
    table: JoinTable,
    bv_pass: u64,
    matches: u64,
}

impl JoinState {
    /// An empty state, its table sized for every R record.
    fn new(p: &Params) -> Self {
        JoinState {
            table: JoinTable::for_keys(crate::to_usize(p.r_bytes / p.record_bytes)),
            bv_pass: 0,
            matches: 0,
        }
    }
}

asan_sim::snap_fields!(JoinState {
    table,
    bv_pass,
    matches,
});

/// Memory regions used by the host program.
const R_BUF: u64 = 0x1000_0000;
const S_BUF: u64 = 0x3000_0000;
const HASHTAB: u64 = 0x8000_0000;
const BITVEC: u64 = 0x7000_0000;

/// Normal-case host program: build then probe, all on the host.
struct NormalJoin {
    r: RecordTable,
    s: RecordTable,
    p: Params,
    phase: u8,
    reader: BlockReader,
    s_plan: BlockPlan,
    bv: BitVector,
    st: JoinState,
}

impl NormalJoin {
    fn scan_r(&mut self, ctx: &mut HostCtx<'_>, off: u64, len: u64) {
        let rb = self.p.record_bytes;
        for i in 0..len / rb {
            let idx = crate::to_usize((off + i * rb) / rb);
            let key = self.r.key(idx);
            ctx.cpu().load(R_BUF + off + i * rb);
            ctx.cpu()
                .compute(cost::JOIN_HASH_INSTR + cost::JOIN_INSERT_INSTR);
            let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
            ctx.cpu().load(bucket);
            ctx.cpu().store(bucket);
            let bit = hash_bit(key, self.p.bits);
            ctx.cpu().load(BITVEC + bit / 8);
            ctx.cpu().store(BITVEC + bit / 8);
            self.bv.set(bit);
            self.st.table.add(key);
        }
    }

    fn scan_s(&mut self, ctx: &mut HostCtx<'_>, off: u64, len: u64) {
        let rb = self.p.record_bytes;
        for i in 0..len / rb {
            let idx = crate::to_usize((off + i * rb) / rb);
            let key = self.s.key(idx);
            ctx.cpu().load(S_BUF + off + i * rb);
            ctx.cpu().compute(cost::JOIN_HASH_INSTR);
            let bit = hash_bit(key, self.p.bits);
            ctx.cpu().load(BITVEC + bit / 8);
            if self.bv.get(bit) {
                self.st.bv_pass += 1;
                ctx.cpu().compute(cost::JOIN_PROBE_INSTR);
                let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
                ctx.cpu().load(bucket);
                ctx.cpu().load(bucket + 64); // bucket chain / key page
                if self.st.table.contains(key) {
                    self.st.matches += 1;
                }
            }
        }
    }
}

impl HostProgram for NormalJoin {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Zero the bit-vector (touch all 128 KB of it).
        ctx.cpu().touch_lines(BITVEC, self.p.bits / 8, 1, true);
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        let Some((off, len)) = self.reader.on_complete(ctx, req) else {
            return;
        };
        if self.phase == 0 {
            self.scan_r(ctx, off, len);
            self.reader.refill(ctx);
            if self.reader.done() {
                self.phase = 1;
                self.reader = BlockReader::new(self.s_plan);
                self.reader.start(ctx);
            }
        } else {
            self.scan_s(ctx, off, len);
            self.reader.refill(ctx);
            if self.reader.done() {
                ctx.finish();
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let NormalJoin {
            r: _,
            s: _,
            p: _,
            phase,
            reader,
            s_plan: _,
            bv,
            st,
        } = self;
        phase.snapshot(w);
        reader.snapshot(w);
        bv.snapshot(w);
        st.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let NormalJoin {
            r: _,
            s: _,
            p: _,
            phase,
            reader,
            s_plan,
            bv,
            st,
        } = self;
        phase.restore(r)?;
        // The reader is replaced when phase 1 starts; rebuild it over
        // the right plan before restoring its cursor state.
        if *phase == 1 {
            *reader = BlockReader::new(*s_plan);
        }
        reader.restore(r)?;
        bv.restore(r)?;
        st.restore(r)
    }
}

/// The switch handler: builds the bit-vector as R streams by (while
/// forwarding R to the host), then filters S.
pub struct JoinFilter {
    p: Params,
    host: NodeId,
    /// The real bit-vector.
    bv: BitVector,
    /// Base address of the bit-vector in switch-local memory.
    bv_base: u64,
    seen: u64,
    expect_r: u64,
    expect_s: u64,
    pass: u64,
    batch: Vec<u8>,
    batch_buf: Option<asan_core::BufId>,
    out_addr: u32,
}

impl JoinFilter {
    fn new(p: Params, host: NodeId) -> Self {
        JoinFilter {
            bv: new_filter(&p),
            bv_base: 0x4_0000,
            seen: 0,
            expect_r: p.r_bytes,
            expect_s: p.s_bytes,
            pass: 0,
            batch: Vec::new(),
            batch_buf: None,
            out_addr: 0,
            p,
            host,
        }
    }

    /// S records that passed the filter.
    pub fn pass_count(&self) -> u64 {
        self.pass
    }

    fn flush(&mut self, ctx: &mut HandlerCtx<'_>) {
        if let Some(buf) = self.batch_buf.take() {
            if self.batch.is_empty() {
                ctx.free_buffer(buf);
            } else {
                ctx.send_buffer(buf, self.host, None, self.out_addr);
                let len = u32::try_from(self.batch.len()).expect("a batch length");
                self.out_addr = self.out_addr.wrapping_add(len);
                self.batch.clear();
            }
        }
    }
}

impl Handler for JoinFilter {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let is_build = ctx.msg().handler == BUILD_HANDLER;
        let payload = ctx.payload();
        let rb = crate::to_usize(self.p.record_bytes);
        if is_build {
            // R streaming through: set bits, forward the record stream
            // onward to the host unchanged (the host builds the real
            // hash table from it).
            for rec in payload.chunks_exact(rb) {
                ctx.compute(cost::JOIN_HASH_INSTR);
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                let bit = hash_bit(key, self.p.bits);
                // 128 KB bit-vector in switch memory: real D-cache
                // behaviour (the paper: "the bit-vector is too big for
                // its limited L1 data cache").
                ctx.mem_load(self.bv_base + bit / 8);
                ctx.mem_store(self.bv_base + bit / 8);
                self.bv.set(bit);
            }
            ctx.send(self.host, Some(BUILD_HANDLER), self.out_addr, &payload);
            let len = u32::try_from(payload.len()).expect("a packet payload length");
            self.out_addr = self.out_addr.wrapping_add(len);
            self.seen += payload.len() as u64;
            if self.seen >= self.expect_r {
                self.seen = 0;
                self.out_addr = 0;
            }
        } else {
            for rec in payload.chunks_exact(rb) {
                ctx.compute(cost::JOIN_HASH_INSTR);
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                let bit = hash_bit(key, self.p.bits);
                ctx.mem_load(self.bv_base + bit / 8);
                if self.bv.get(bit) {
                    self.pass += 1;
                    if self.batch_buf.is_none() {
                        self.batch_buf = Some(ctx.alloc_buffer());
                    }
                    let buf = self.batch_buf.expect("just set");
                    ctx.buffer_write(buf, self.batch.len(), rec);
                    self.batch.extend_from_slice(rec);
                    if self.batch.len() + rb > asan_core::BUFFER_BYTES {
                        self.flush(ctx);
                    }
                }
            }
            self.seen += payload.len() as u64;
            if self.seen >= self.expect_s {
                self.flush(ctx);
                ctx.send(self.host, Some(DONE_HANDLER), 0, &self.pass.to_le_bytes());
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let JoinFilter {
            p: _,
            host: _,
            bv,
            bv_base: _,
            seen,
            expect_r: _,
            expect_s: _,
            pass,
            batch,
            batch_buf,
            out_addr,
        } = self;
        bv.snapshot(w);
        seen.snapshot(w);
        pass.snapshot(w);
        batch.snapshot(w);
        batch_buf.snapshot(w);
        out_addr.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let JoinFilter {
            p: _,
            host: _,
            bv,
            bv_base: _,
            seen,
            expect_r: _,
            expect_s: _,
            pass,
            batch,
            batch_buf,
            out_addr,
        } = self;
        bv.restore(r)?;
        seen.restore(r)?;
        pass.restore(r)?;
        batch.restore(r)?;
        batch_buf.restore(r)?;
        out_addr.restore(r)
    }
}

/// Shares one [`JoinFilter`] between the BUILD and PROBE handler IDs
/// (the jump table holds one entry per ID; the state — the bit-vector —
/// is common). Each jump-table slot snapshots the shared state; the
/// restores write identical bytes, so the duplication is harmless.
#[derive(Clone)]
#[expect(
    clippy::disallowed_types,
    reason = "both handler IDs live in one switch's jump table, never in two engines"
)]
pub struct SharedFilter(pub std::rc::Rc<std::cell::RefCell<JoinFilter>>);

impl SharedFilter {
    #[expect(
        clippy::disallowed_types,
        reason = "both handler IDs live in one switch's jump table, never in two engines"
    )]
    fn new(filter: JoinFilter) -> Self {
        SharedFilter(std::rc::Rc::new(std::cell::RefCell::new(filter)))
    }
}

impl Handler for SharedFilter {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        self.0.borrow_mut().on_message(ctx);
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.0.borrow().snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.borrow_mut().restore_state(r)
    }
}

/// Active-case host program: R arrives via the switch (hash-table
/// build); filtered S arrives as batches (probe).
struct ActiveJoin {
    p: Params,
    reader: BlockReader,
    s_plan: BlockPlan,
    phase: u8,
    st: JoinState,
    bv_pass_reported: Option<u64>,
    r_bytes_in: u64,
}

impl HostProgram for ActiveJoin {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        if self.reader.on_complete(ctx, req).is_none() {
            return;
        }
        self.reader.refill(ctx);
        if self.reader.done() && self.phase == 0 {
            self.phase = 1;
            self.reader = BlockReader::new(self.s_plan);
            self.reader.start(ctx);
        }
        // Phase 1 end: wait for the DONE message (data may still be in
        // flight through the switch).
    }

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        let rb = crate::to_usize(self.p.record_bytes);
        if msg.handler == Some(DONE_HANDLER) {
            self.bv_pass_reported =
                Some(u64::from_le_bytes(msg.data[..8].try_into().expect("count")));
            ctx.finish();
        } else if msg.handler == Some(BUILD_HANDLER) {
            // R records: build the real hash table.
            self.r_bytes_in += msg.data.len() as u64;
            for rec in msg.data.chunks_exact(rb) {
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                ctx.cpu()
                    .compute(cost::JOIN_HASH_INSTR + cost::JOIN_INSERT_INSTR);
                let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
                ctx.cpu().load(bucket);
                ctx.cpu().store(bucket);
                self.st.table.add(key);
            }
        } else {
            // Surviving S records: the real join probe.
            for rec in msg.data.chunks_exact(rb) {
                let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
                self.st.bv_pass += 1;
                ctx.cpu().compute(cost::JOIN_PROBE_INSTR);
                let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
                ctx.cpu().load(bucket);
                ctx.cpu().load(bucket + 64); // bucket chain / key page
                if self.st.table.contains(key) {
                    self.st.matches += 1;
                }
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let ActiveJoin {
            p: _,
            reader,
            s_plan: _,
            phase,
            st,
            bv_pass_reported,
            r_bytes_in,
        } = self;
        phase.snapshot(w);
        reader.snapshot(w);
        st.snapshot(w);
        bv_pass_reported.snapshot(w);
        r_bytes_in.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ActiveJoin {
            p: _,
            reader,
            s_plan,
            phase,
            st,
            bv_pass_reported,
            r_bytes_in,
        } = self;
        phase.restore(r)?;
        if *phase == 1 {
            *reader = BlockReader::new(*s_plan);
        }
        reader.restore(r)?;
        st.restore(r)?;
        bv_pass_reported.restore(r)?;
        r_bytes_in.restore(r)
    }
}

/// Runs HashJoin in one configuration, validating pass and match
/// counts against the pure-Rust reference.
///
/// # Panics
///
/// Panics on any result mismatch.
pub fn run(variant: Variant, p: &Params) -> AppRun {
    run_with_config(variant, p, ClusterConfig::paper_db())
}

/// [`run`] with an explicit cluster configuration (used by the
/// ablation studies to vary the active-switch hardware).
pub fn run_with_config(variant: Variant, p: &Params, cfg: ClusterConfig) -> AppRun {
    let (r, s) = RecordTable::join_pair(
        crate::to_usize(p.r_bytes),
        crate::to_usize(p.s_bytes),
        crate::to_usize(p.record_bytes),
    );
    let (want_pass, want_matches) = reference_keys(r.keys(), s.keys(), p);

    let build = || {
        let (mut cl, hs, ts, sw) = standard_cluster(1, 1, cfg.clone());
        let rf = cl.add_file(ts[0], r.clone()).expect("cluster setup");
        let sf = cl.add_file(ts[0], s.clone()).expect("cluster setup");
        let host = hs[0];

        let filter = SharedFilter::new(JoinFilter::new(p.clone(), host));
        if variant.is_active() {
            cl.register_handler(sw, BUILD_HANDLER, Box::new(filter.clone()))
                .expect("cluster setup");
            cl.register_handler(sw, PROBE_HANDLER, Box::new(filter.clone()))
                .expect("cluster setup");
            let s_plan = BlockPlan {
                file: sf,
                total: p.s_bytes,
                block: p.io_block,
                outstanding: variant.outstanding(),
                dest: Dest::Mapped {
                    node: sw,
                    handler: PROBE_HANDLER,
                    base_addr: 0,
                },
            };
            cl.set_program(
                host,
                Box::new(ActiveJoin {
                    p: p.clone(),
                    reader: BlockReader::new(BlockPlan {
                        file: rf,
                        total: p.r_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::Mapped {
                            node: sw,
                            handler: BUILD_HANDLER,
                            base_addr: 0,
                        },
                    }),
                    s_plan,
                    phase: 0,
                    st: JoinState::new(p),
                    bv_pass_reported: None,
                    r_bytes_in: 0,
                }),
            )
            .expect("cluster setup");
        } else {
            let s_plan = BlockPlan {
                file: sf,
                total: p.s_bytes,
                block: p.io_block,
                outstanding: variant.outstanding(),
                dest: Dest::HostBuf { addr: S_BUF },
            };
            cl.set_program(
                host,
                Box::new(NormalJoin {
                    r: r.clone(),
                    s: s.clone(),
                    p: p.clone(),
                    phase: 0,
                    reader: BlockReader::new(BlockPlan {
                        file: rf,
                        total: p.r_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::HostBuf { addr: R_BUF },
                    }),
                    s_plan,
                    bv: new_filter(p),
                    st: JoinState::new(p),
                }),
            )
            .expect("cluster setup");
        }
        (cl, (host, filter))
    };

    let (mut cl, (host, filter), report) = drive(&format!("hashjoin-{}", variant.label()), build);
    let (got_pass, got_matches) = if variant.is_active() {
        let program = cl.take_program(host).expect("program");
        let prog = program
            .as_any()
            .and_then(|a| a.downcast_ref::<ActiveJoin>())
            .expect("active join");
        assert_eq!(prog.r_bytes_in, p.r_bytes, "R did not fully reach host");
        assert_eq!(prog.bv_pass_reported, Some(want_pass), "switch pass count");
        assert_eq!(filter.0.borrow().pass_count(), want_pass, "filter state");
        (prog.st.bv_pass, prog.st.matches)
    } else {
        let program = cl.take_program(host).expect("program");
        let prog = program
            .as_any()
            .and_then(|a| a.downcast_ref::<NormalJoin>())
            .expect("normal join");
        (prog.st.bv_pass, prog.st.matches)
    };
    assert_eq!(got_pass, want_pass, "bit-vector pass count mismatch");
    assert_eq!(got_matches, want_matches, "join match count mismatch");
    AppRun::from_report(variant, &cl, &report, report.finish, got_matches)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use asan_sim::SimRng;

    use super::*;

    #[test]
    fn reference_pass_rate_near_024() {
        let p = Params::small();
        let (r, s) = data::join_tables(
            crate::to_usize(p.r_bytes),
            crate::to_usize(p.s_bytes),
            crate::to_usize(p.record_bytes),
        );
        let (pass, matches) = reference(&r, &s, &p);
        let rate = pass as f64 / (s.len() as f64 / 128.0);
        assert!((0.16..0.34).contains(&rate), "pass rate {rate}");
        assert!(matches <= pass);
        assert!(matches > 0);
    }

    #[test]
    fn hash_bit_mask_equals_the_modulus() {
        let mut rng = SimRng::from_label("hashjoin-mask");
        for bits in [1 << 20, 1 << 16, 1 << 15] {
            for _ in 0..10_000 {
                for key in [rng.below(1 << 32), rng.next_u64()] {
                    let h = key.wrapping_mul(0x9E3779B97F4A7C15) >> 40;
                    assert_eq!(hash_bit(key, bits), h % bits, "key {key:#x}, {bits} bits");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two size")]
    fn filters_need_a_power_of_two_size() {
        new_filter(&Params {
            bits: 3 << 14,
            ..Params::small()
        });
    }

    #[test]
    fn all_variants_agree() {
        let p = Params::small();
        let runs: Vec<AppRun> = Variant::ALL.iter().map(|&v| run(v, &p)).collect();
        let m = runs[0].artifact;
        for r in &runs {
            assert_eq!(r.artifact, m, "{:?}", r.variant);
        }
    }

    #[test]
    fn active_cuts_s_traffic() {
        let p = Params::small();
        let normal = run(Variant::NormalPref, &p);
        let active = run(Variant::ActivePref, &p);
        assert!(
            active.host_traffic < normal.host_traffic / 2,
            "active {} vs normal {}",
            active.host_traffic,
            normal.host_traffic
        );
    }

    fn snap_bytes(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snapshot(&mut w);
        w.into_bytes()
    }

    /// The encoding the old `Vec<bool>` filter was snapshotted with.
    fn old_bits_bytes(model: &[bool]) -> Vec<u8> {
        let mut packed = vec![0u8; model.len().div_ceil(8)];
        for (i, &b) in model.iter().enumerate() {
            if b {
                packed[i / 8] |= 1 << (i % 8);
            }
        }
        let mut w = SnapWriter::new();
        w.bytes(&packed);
        w.into_bytes()
    }

    fn restore_into(v: &mut impl Snap, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes)?;
        v.restore(&mut r)?;
        r.finish()
    }

    #[test]
    fn bit_vector_matches_vec_bool_model() {
        let mut rng = SimRng::from_label("hashjoin-bits");
        for len in [0, 1, 7, 8, 9, 63, 100, 1 << 12] {
            let mut bv = BitVector::new(len);
            let mut model = vec![false; crate::to_usize(len)];
            for _ in 0..2 * len {
                let i = rng.below(len);
                if rng.chance(0.5) {
                    bv.set(i);
                    model[crate::to_usize(i)] = true;
                }
                let j = rng.below(len);
                assert_eq!(bv.get(j), model[crate::to_usize(j)], "len {len} bit {j}");
            }
            let bytes = snap_bytes(&bv);
            assert_eq!(bytes, old_bits_bytes(&model), "len {len}");
            let mut back = BitVector::new(len);
            restore_into(&mut back, &bytes).expect("a clean snapshot restores");
            assert_eq!(back, bv);
        }
    }

    #[test]
    fn join_table_matches_btreemap_model() {
        let mut rng = SimRng::from_label("hashjoin-table");
        for keys in [0, 1, 2, 3, 8, 100, 1_000] {
            let mut table = JoinTable::for_keys(keys);
            let mut model = BTreeMap::<u64, u32>::new();
            // Draws from a range not much wider than the key count, so
            // keys repeat.
            let range = 2 * keys as u64 + 1;
            for _ in 0..4 * keys {
                let k = rng.below(range);
                if model.len() < keys || model.contains_key(&k) {
                    table.add(k);
                    *model.entry(k).or_insert(0) += 1;
                }
                let probe = rng.below(range);
                assert_eq!(table.contains(probe), model.contains_key(&probe));
            }
            assert!(!table.contains(u64::MAX));
            let bytes = snap_bytes(&table);
            assert_eq!(bytes, snap_bytes(&model), "{keys} keys");
            let mut back = JoinTable::for_keys(keys);
            restore_into(&mut back, &bytes).expect("a clean snapshot restores");
            assert_eq!(snap_bytes(&back), bytes);
            assert!(model.keys().all(|&k| back.contains(k)));
        }
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let table = |pairs: &[(u64, u32)]| {
            let mut w = SnapWriter::new();
            w.usize(pairs.len());
            for &(k, c) in pairs {
                w.u64(k);
                w.u32(c);
            }
            w.into_bytes()
        };
        let fresh = || JoinTable::for_keys(4);
        assert!(restore_into(&mut fresh(), &table(&[(1, 2), (5, 1)])).is_ok());
        for (what, bytes) in [
            ("descending keys", table(&[(5, 1), (1, 1)])),
            ("duplicate keys", table(&[(5, 1), (5, 1)])),
            ("zero count", table(&[(1, 1), (2, 0)])),
            (
                "more entries than the table holds",
                table(&[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]),
            ),
        ] {
            assert!(restore_into(&mut fresh(), &bytes).is_err(), "{what}");
        }

        let bits = |packed: &[u8]| {
            let mut w = SnapWriter::new();
            w.bytes(packed);
            w.into_bytes()
        };
        assert!(restore_into(&mut BitVector::new(12), &bits(&[0xFF, 0x0F])).is_ok());
        assert!(
            restore_into(&mut BitVector::new(12), &bits(&[0, 0x10])).is_err(),
            "bit 12 of 12"
        );
        assert!(
            restore_into(&mut BitVector::new(12), &bits(&[0])).is_err(),
            "short"
        );
        assert!(
            restore_into(&mut BitVector::new(12), &bits(&[0, 0, 0])).is_err(),
            "long"
        );
    }

    #[test]
    fn mutated_snapshots_restore_or_err() {
        let mut rng = SimRng::from_label("hashjoin-mutate");
        let mut table = JoinTable::for_keys(16);
        let mut bv = BitVector::new(45);
        let (mut tables, mut bvs) = (Vec::new(), Vec::new());
        for step in 0..16 {
            table.add(rng.below(24));
            bv.set(rng.below(45));
            if step % 4 == 3 {
                tables.push(snap_bytes(&table));
                bvs.push(snap_bytes(&bv));
            }
        }
        let ok = asan_sim::mutate::check_restore(
            "hashjoin-table-mutations",
            &tables,
            2_000,
            || JoinTable::for_keys(16),
            JoinTable::restore,
            JoinTable::snapshot,
        );
        assert!(
            0 < ok && ok < 2_000,
            "{ok} of 2000 table mutations restored"
        );
        let ok = asan_sim::mutate::check_restore(
            "hashjoin-bits-mutations",
            &bvs,
            2_000,
            || BitVector::new(45),
            BitVector::restore,
            BitVector::snapshot,
        );
        assert!(
            0 < ok && ok < 2_000,
            "{ok} of 2000 bit-vector mutations restored"
        );
    }
}
