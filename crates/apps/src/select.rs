//! Database Select (§5): "a sequential range selection that checks if
//! one integer field of a record falls within a specific range".
//!
//! * **normal**: the host streams the 128 MB table from disk and
//!   evaluates the predicate on every 128 B record.
//! * **active**: the selection runs in the switch's data buffers; only
//!   matching records travel to the host, which merely counts them.
//!
//! The paper's observations to reproduce (Figures 7–8): the `normal`
//! case loses to everything because of synchronous I/O stalls; the
//! other three are I/O-bound and tie; the *average host utilization of
//! the normal cases is ~21× that of the active cases*; active host I/O
//! traffic is ~25 % of normal.

use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{HandlerId, NodeId};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data::{self, RecordTable};
use crate::runner::{drive, standard_cluster, AppRun, Variant};

/// Handler ID used by the select filter.
pub const SELECT_HANDLER: HandlerId = HandlerId::new_const(1);

/// Flow tag of the final count message.
pub const DONE_HANDLER: HandlerId = HandlerId::new_const(60);

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Table size in bytes (128 MB in Table 1).
    pub table_bytes: u64,
    /// Record size (128 B, as in HashJoin).
    pub record_bytes: u64,
    /// I/O request size.
    pub io_block: u64,
    /// Predicate: `key < hi` with keys uniform in `[0, 2^32)`.
    pub key_hi: u64,
}

impl Params {
    /// The paper's configuration: 128 MB table, 25 % selectivity.
    pub fn paper() -> Self {
        Params {
            table_bytes: 128 << 20,
            record_bytes: 128,
            io_block: 64 * 1024,
            key_hi: 1 << 30, // 25 % of the 32-bit key space
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Self {
        Params {
            table_bytes: 2 << 20,
            ..Params::paper()
        }
    }
}

/// Reference result computed in plain Rust (no simulation) over the
/// table's bytes, counted over its keys.
pub fn reference_count(table: &[u8], p: &Params) -> u64 {
    reference_count_keys(data::record_keys(table, crate::to_usize(p.record_bytes)), p)
}

/// Reference result computed in plain Rust (no simulation) over the
/// table's keys: how many fall below `p.key_hi`.
pub(crate) fn reference_count_keys(keys: impl Iterator<Item = u64>, p: &Params) -> u64 {
    keys.filter(|&k| k < p.key_hi).count() as u64
}

/// Normal-case host program: scan every record of every block.
struct NormalSelect {
    table: RecordTable,
    p: Params,
    reader: BlockReader,
    matches: u64,
    buf_base: u64,
}

asan_sim::snap_fields!(NormalSelect {
    table: skip,
    p: skip,
    reader,
    matches,
    buf_base: skip,
});

impl HostProgram for NormalSelect {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        let Some((off, len)) = self.reader.on_complete(ctx, req) else {
            return;
        };
        // Evaluate the predicate on the real records just DMA'd in.
        let rb = self.p.record_bytes;
        let n = len / rb;
        for i in 0..n {
            let rec = crate::to_usize((off + i * rb) / rb);
            ctx.cpu().compute(cost::SELECT_PREDICATE_INSTR);
            ctx.cpu().load(self.buf_base + off + i * rb);
            let key = self.table.key(rec);
            if key < self.p.key_hi {
                self.matches += 1;
                ctx.cpu().compute(cost::SELECT_COUNT_INSTR);
            }
        }
        self.reader.refill(ctx);
        if self.reader.done() {
            ctx.finish();
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.restore(r)
    }
}

/// The switch handler: evaluates the predicate inside the data buffers
/// and forwards only matching records, batched into full packets.
pub struct SelectHandler {
    p: Params,
    host: NodeId,
    /// Handler tag put on outgoing record batches (None for plain data
    /// to a host; a switch handler ID in the two-level pipeline).
    out_handler: Option<HandlerId>,
    expect_bytes: u64,
    seen_bytes: u64,
    matches: u64,
    /// Matching-record batch being assembled (mirrors a held buffer).
    batch: Vec<u8>,
    batch_buf: Option<asan_core::BufId>,
    out_addr: u32,
}

asan_sim::snap_fields!(SelectHandler {
    p: skip,
    host: skip,
    out_handler: skip,
    expect_bytes: skip,
    seen_bytes,
    matches,
    batch,
    batch_buf,
    out_addr,
});

impl SelectHandler {
    /// Creates the filter stage, forwarding matches to `host`.
    pub fn new(p: Params, host: NodeId, expect_bytes: u64) -> Self {
        SelectHandler {
            p,
            host,
            out_handler: None,
            expect_bytes,
            seen_bytes: 0,
            matches: 0,
            batch: Vec::new(),
            batch_buf: None,
            out_addr: 0,
        }
    }

    /// Tags outgoing record batches with `h` (for a downstream switch
    /// stage in the two-level pipeline).
    pub fn with_out_handler(mut self, h: HandlerId) -> Self {
        self.out_handler = Some(h);
        self
    }

    /// Matches found (read back after the run).
    pub fn matches(&self) -> u64 {
        self.matches
    }

    fn flush(&mut self, ctx: &mut HandlerCtx<'_>) {
        if let Some(buf) = self.batch_buf.take() {
            if self.batch.is_empty() {
                ctx.free_buffer(buf);
            } else {
                ctx.send_buffer(buf, self.host, self.out_handler, self.out_addr);
                let len = u32::try_from(self.batch.len()).expect("a batch length");
                self.out_addr = self.out_addr.wrapping_add(len);
                self.batch.clear();
            }
        }
    }
}

impl Handler for SelectHandler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let payload = ctx.payload();
        let rb = crate::to_usize(self.p.record_bytes);
        debug_assert_eq!(payload.len() % rb, 0, "packets are record-aligned");
        for rec in payload.chunks_exact(rb) {
            ctx.compute(cost::SELECT_PREDICATE_INSTR);
            let key = u64::from_le_bytes(rec[..8].try_into().expect("key"));
            if key < self.p.key_hi {
                self.matches += 1;
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
        self.seen_bytes += payload.len() as u64;
        if self.seen_bytes >= self.expect_bytes {
            self.flush(ctx);
            // Tell the host the final count.
            ctx.send(
                self.host,
                Some(DONE_HANDLER),
                0,
                &self.matches.to_le_bytes(),
            );
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.restore(r)
    }
}

/// Active-case host program: issue mapped reads, count arrivals.
struct ActiveSelect {
    p: Params,
    reader: BlockReader,
    records_in: u64,
    final_count: Option<u64>,
}

asan_sim::snap_fields!(ActiveSelect {
    p: skip,
    reader,
    records_in,
    final_count,
});

impl HostProgram for ActiveSelect {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        self.reader.on_complete(ctx, req);
        self.reader.refill(ctx);
    }

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        if msg.handler == Some(DONE_HANDLER) {
            self.final_count = Some(u64::from_le_bytes(msg.data[..8].try_into().expect("count")));
            ctx.finish();
            return;
        }
        // A batch of matching records: the count comes from the
        // message descriptor's length — the host never touches the
        // record bytes ("the host CPU just counts the number of
        // matching records", §5).
        let n = msg.data.len() as u64 / self.p.record_bytes;
        self.records_in += n;
        ctx.cpu().compute(cost::SELECT_COUNT_INSTR);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.restore(r)
    }
}

/// Runs Select in one configuration, returning metrics and validating
/// the match count against the pure-Rust reference.
///
/// # Panics
///
/// Panics if the simulated result disagrees with the reference.
pub fn run(variant: Variant, p: &Params) -> AppRun {
    run_with_config(variant, p, ClusterConfig::paper_db())
}

/// [`run`] with an explicit cluster configuration (used by the fault
/// injection experiments to attach a [`asan_sim::faults::FaultPlan`]).
pub fn run_with_config(variant: Variant, p: &Params, cfg: ClusterConfig) -> AppRun {
    run_on(variant, p, cfg, &table(p))
}

/// The table `p` describes, held as its keys.
pub(crate) fn table(p: &Params) -> RecordTable {
    RecordTable::uniform(
        crate::to_usize(p.table_bytes),
        crate::to_usize(p.record_bytes),
        "select-table",
    )
}

/// [`run_with_config`] over a caller-supplied `table`, whose keys the
/// cluster's file and the host program share; the file writes each
/// disk read's bytes as the read happens.
fn run_on(variant: Variant, p: &Params, cfg: ClusterConfig, table: &RecordTable) -> AppRun {
    let want = reference_count_keys(table.keys(), p);
    let build = || {
        let (mut cl, hs, ts, sw) = standard_cluster(1, 1, cfg.clone());
        let file = cl.add_file(ts[0], table.clone()).expect("cluster setup");
        let host = hs[0];

        if variant.is_active() {
            cl.register_handler(
                sw,
                SELECT_HANDLER,
                Box::new(SelectHandler::new(p.clone(), host, p.table_bytes)),
            )
            .expect("cluster setup");
            cl.set_program(
                host,
                Box::new(ActiveSelect {
                    p: p.clone(),
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.table_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::Mapped {
                            node: sw,
                            handler: SELECT_HANDLER,
                            base_addr: 0,
                        },
                    }),
                    records_in: 0,
                    final_count: None,
                }),
            )
            .expect("cluster setup");
        } else {
            cl.set_program(
                host,
                Box::new(NormalSelect {
                    table: table.clone(),
                    p: p.clone(),
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.table_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::HostBuf { addr: 0x1000_0000 },
                    }),
                    matches: 0,
                    buf_base: 0x1000_0000,
                }),
            )
            .expect("cluster setup");
        }
        (cl, (host, sw))
    };

    let (mut cl, (host, sw), report) = drive(&format!("select-{}", variant.label()), build);
    // Validate the computed answer against the pure-Rust reference.
    let got = if variant.is_active() {
        let program = cl.take_program(host).expect("program installed");
        let prog = program
            .as_any()
            .and_then(|a| a.downcast_ref::<ActiveSelect>())
            .expect("active select program");
        let handler = cl.take_handler(sw, SELECT_HANDLER).expect("handler");
        let h = handler
            .as_any()
            .and_then(|a| a.downcast_ref::<SelectHandler>())
            .expect("select handler");
        assert_eq!(h.matches(), want, "handler count mismatch");
        assert_eq!(prog.records_in, want, "host received wrong record count");
        prog.final_count.expect("done message arrived")
    } else {
        let program = cl.take_program(host).expect("program installed");
        program
            .as_any()
            .and_then(|a| a.downcast_ref::<NormalSelect>())
            .expect("normal select program")
            .matches
    };
    assert_eq!(got, want, "select match count mismatch");
    AppRun::from_report(variant, &cl, &report, report.finish, got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_leaves_the_shared_input_untouched() {
        let p = Params::small();
        let table = table(&p);
        let mut cfg = ClusterConfig::paper_db();
        cfg.faults = Some(asan_sim::faults::FaultPlan::chaos(7));
        for v in [Variant::NormalPref, Variant::ActivePref] {
            let run = run_on(v, &p, cfg.clone(), &table);
            assert!(
                run.faults.packet_corrupt.injected > 0,
                "{v:?}: no packet corrupted"
            );
            let fresh = data::db_table(crate::to_usize(p.table_bytes), 128, "select-table");
            assert!(table.to_vec() == fresh, "{v:?}: input changed");
        }
    }

    #[test]
    fn reference_selectivity_near_25pct() {
        let p = Params::small();
        let table = data::db_table(crate::to_usize(p.table_bytes), 128, "select-table");
        let count = reference_count(&table, &p);
        assert_eq!(count, reference_count_keys(self::table(&p).keys(), &p));
        let frac = count as f64 / (table.len() / 128) as f64;
        assert!((frac - 0.25).abs() < 0.02, "selectivity {frac}");
    }

    #[test]
    fn all_variants_agree_on_count() {
        let p = Params::small();
        let runs: Vec<AppRun> = Variant::ALL.iter().map(|&v| run(v, &p)).collect();
        let c0 = runs[0].artifact;
        for r in &runs {
            assert_eq!(r.artifact, c0, "{:?}", r.variant);
        }
    }

    #[test]
    fn active_reduces_host_traffic_to_a_quarter() {
        let p = Params::small();
        let normal = run(Variant::NormalPref, &p);
        let active = run(Variant::ActivePref, &p);
        let ratio = active.host_traffic as f64 / normal.host_traffic as f64;
        assert!((0.18..0.35).contains(&ratio), "traffic ratio {ratio}");
    }

    #[test]
    fn normal_is_slowest() {
        let p = Params::small();
        let n = run(Variant::Normal, &p);
        let np = run(Variant::NormalPref, &p);
        assert!(n.exec >= np.exec, "prefetch should not hurt");
    }
}
