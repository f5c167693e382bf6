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

use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{Bytes, HandlerId, NodeId};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data;
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

/// The hash function both sides use for the bit-vector.
#[inline]
pub fn hash_bit(key: u64, bits: u64) -> u64 {
    (key.wrapping_mul(0x9E3779B97F4A7C15) >> 40) % bits
}

/// Pure-Rust reference: (bit-vector pass count, true join matches).
///
/// Independent of the simulated join state: R's keys go into a
/// sorted `Vec` that S probes by binary search.
pub fn reference(r: &[u8], s: &[u8], p: &Params) -> (u64, u64) {
    let rb = p.record_bytes as usize;
    let mut bv = vec![false; p.bits as usize];
    let mut keys = Vec::with_capacity(r.len() / rb);
    for i in 0..r.len() / rb {
        let k = data::record_key(r, rb, i);
        bv[hash_bit(k, p.bits) as usize] = true;
        keys.push(k);
    }
    keys.sort_unstable();
    let mut pass = 0u64;
    let mut matches = 0u64;
    for i in 0..s.len() / rb {
        let k = data::record_key(s, rb, i);
        if bv[hash_bit(k, p.bits) as usize] {
            pass += 1;
            if keys.binary_search(&k).is_ok() {
                matches += 1;
            }
        }
    }
    (pass, matches)
}

/// Host-side join state shared by both variants: the real hash table.
#[derive(Debug, Default)]
struct JoinState {
    table: std::collections::BTreeMap<u64, u32>,
    bv_pass: u64,
    matches: u64,
}

asan_sim::snap_fields!(JoinState {
    table,
    bv_pass,
    matches,
});

/// Packs a bit-vector into bytes for snapshotting.
fn pack_bits(bv: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bv.len().div_ceil(8)];
    for (i, &b) in bv.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks a snapshot bit-vector of a statically known length.
fn unpack_bits(bytes: &[u8], len: usize) -> Result<Vec<bool>, SnapError> {
    if bytes.len() != len.div_ceil(8) {
        return Err(SnapError::Malformed("bit-vector length"));
    }
    Ok((0..len)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

/// Memory regions used by the host program.
const R_BUF: u64 = 0x1000_0000;
const S_BUF: u64 = 0x3000_0000;
const HASHTAB: u64 = 0x8000_0000;
const BITVEC: u64 = 0x7000_0000;

/// Normal-case host program: build then probe, all on the host.
struct NormalJoin {
    r: Bytes,
    s: Bytes,
    p: Params,
    phase: u8,
    reader: BlockReader,
    s_plan: BlockPlan,
    bv: Vec<bool>,
    st: JoinState,
}

impl NormalJoin {
    fn scan_r(&mut self, ctx: &mut HostCtx<'_>, off: u64, len: u64) {
        let rb = self.p.record_bytes;
        for i in 0..len / rb {
            let idx = ((off + i * rb) / rb) as usize;
            let key = data::record_key(&self.r, rb as usize, idx);
            ctx.cpu().load(R_BUF + off + i * rb);
            ctx.cpu()
                .compute(cost::JOIN_HASH_INSTR + cost::JOIN_INSERT_INSTR);
            let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
            ctx.cpu().load(bucket);
            ctx.cpu().store(bucket);
            let bit = hash_bit(key, self.p.bits);
            ctx.cpu().load(BITVEC + bit / 8);
            ctx.cpu().store(BITVEC + bit / 8);
            self.bv[bit as usize] = true;
            *self.st.table.entry(key).or_insert(0) += 1;
        }
    }

    fn scan_s(&mut self, ctx: &mut HostCtx<'_>, off: u64, len: u64) {
        let rb = self.p.record_bytes;
        for i in 0..len / rb {
            let idx = ((off + i * rb) / rb) as usize;
            let key = data::record_key(&self.s, rb as usize, idx);
            ctx.cpu().load(S_BUF + off + i * rb);
            ctx.cpu().compute(cost::JOIN_HASH_INSTR);
            let bit = hash_bit(key, self.p.bits);
            ctx.cpu().load(BITVEC + bit / 8);
            if self.bv[bit as usize] {
                self.st.bv_pass += 1;
                ctx.cpu().compute(cost::JOIN_PROBE_INSTR);
                let bucket = HASHTAB + (key.wrapping_mul(0x2545F4914F6CDD1D) % (32 << 20));
                ctx.cpu().load(bucket);
                ctx.cpu().load(bucket + 64); // bucket chain / key page
                if self.st.table.contains_key(&key) {
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
        w.bytes(&pack_bits(bv));
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
        *bv = unpack_bits(&r.bytes()?, bv.len())?;
        st.restore(r)
    }
}

/// The switch handler: builds the bit-vector as R streams by (while
/// forwarding R to the host), then filters S.
pub struct JoinFilter {
    p: Params,
    host: NodeId,
    /// The real bit-vector.
    bv: Vec<bool>,
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
            bv: vec![false; p.bits as usize],
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
                self.out_addr = self.out_addr.wrapping_add(self.batch.len() as u32);
                self.batch.clear();
            }
        }
    }
}

impl Handler for JoinFilter {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let is_build = ctx.msg().handler == BUILD_HANDLER;
        let payload = ctx.payload();
        let rb = self.p.record_bytes as usize;
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
                self.bv[bit as usize] = true;
            }
            ctx.send(self.host, Some(BUILD_HANDLER), self.out_addr, &payload);
            self.out_addr = self.out_addr.wrapping_add(payload.len() as u32);
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
                if self.bv[bit as usize] {
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
        w.bytes(&pack_bits(bv));
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
        *bv = unpack_bits(&r.bytes()?, bv.len())?;
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
pub struct SharedFilter(pub std::rc::Rc<std::cell::RefCell<JoinFilter>>);

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
        let rb = self.p.record_bytes as usize;
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
                *self.st.table.entry(key).or_insert(0) += 1;
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
                if self.st.table.contains_key(&key) {
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
    let (r, s) = data::join_tables(
        p.r_bytes as usize,
        p.s_bytes as usize,
        p.record_bytes as usize,
    );
    let (want_pass, want_matches) = reference(&r, &s, p);
    let (r, s) = (Bytes::from(r), Bytes::from(s));

    let build = || {
        let (mut cl, hs, ts, sw) = standard_cluster(1, 1, cfg.clone());
        let rf = cl.add_file(ts[0], r.clone()).expect("cluster setup");
        let sf = cl.add_file(ts[0], s.clone()).expect("cluster setup");
        let host = hs[0];

        let filter = std::rc::Rc::new(std::cell::RefCell::new(JoinFilter::new(p.clone(), host)));
        if variant.is_active() {
            cl.register_handler(sw, BUILD_HANDLER, Box::new(SharedFilter(filter.clone())))
                .expect("cluster setup");
            cl.register_handler(sw, PROBE_HANDLER, Box::new(SharedFilter(filter.clone())))
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
                    st: JoinState::default(),
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
                    bv: vec![false; p.bits as usize],
                    st: JoinState::default(),
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
        assert_eq!(filter.borrow().pass_count(), want_pass, "filter state");
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
    use super::*;

    #[test]
    fn reference_pass_rate_near_024() {
        let p = Params::small();
        let (r, s) = data::join_tables(
            p.r_bytes as usize,
            p.s_bytes as usize,
            p.record_bytes as usize,
        );
        let (pass, matches) = reference(&r, &s, &p);
        let rate = pass as f64 / (s.len() as f64 / 128.0);
        assert!((0.16..0.34).contains(&rate), "pass rate {rate}");
        assert!(matches <= pass);
        assert!(matches > 0);
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
}
