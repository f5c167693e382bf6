//! Grep (§5): GNU-grep-style literal search for "Big Red Bear".
//!
//! * **normal**: the host streams the 1 146 880-byte file in 32 KB
//!   requests and runs the DFA over every byte.
//! * **active**: the DFA runs on the switch ("the Grep handler can
//!   start searching as soon as the first data enters the switch");
//!   only the 16 matching lines travel to the host.
//!
//! Shape to reproduce (Figures 9–10): active beats normal by ~1.14×;
//! `normal+pref` beats plain `active`; `active+pref` is best; active
//! host utilization is ≈ 0 and host traffic ≈ 0.

use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{Bytes, HandlerId, NodeId};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data;
use crate::dfa::LiteralDfa;
use crate::runner::{drive, standard_cluster, AppRun, Variant};

/// Handler ID of the grep searcher.
pub const GREP_HANDLER: HandlerId = HandlerId::new_const(2);

/// Flow tag of the final result message.
pub const DONE_HANDLER: HandlerId = HandlerId::new_const(61);

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// File size (1 146 880 B in Table 1).
    pub file_bytes: u64,
    /// The literal pattern.
    pub pattern: &'static str,
    /// Number of matching lines to plant.
    pub matches: usize,
    /// I/O request size (32 KB, §5).
    pub io_block: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            file_bytes: 1_146_880,
            pattern: "Big Red Bear",
            matches: 16,
            io_block: 32 * 1024,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Self {
        Params {
            file_bytes: 128 * 1024,
            matches: 4,
            ..Params::paper()
        }
    }
}

/// Normal-case host program: DFA over every DMA'd block.
struct NormalGrep {
    corpus: Bytes,
    reader: BlockReader,
    dfa: LiteralDfa,
    state: usize,
    matches: u64,
    buf_base: u64,
}

asan_sim::snap_fields!(NormalGrep {
    corpus: skip,
    reader,
    dfa: skip,
    state,
    matches,
    buf_base: skip,
});

impl HostProgram for NormalGrep {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Step 2 of grep: build the DFA structure.
        ctx.cpu().compute(20_000);
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        let Some((off, len)) = self.reader.on_complete(ctx, req) else {
            return;
        };
        // Search the real bytes: one DFA step per byte; memory
        // references one load per 8 bytes (double-word reads).
        let chunk = &self.corpus[crate::byte_range(off, len)];
        let (state, hits) = self.dfa.search(self.state, chunk);
        self.state = state;
        self.matches += hits.len() as u64;
        ctx.cpu().scan(
            self.buf_base + off,
            len,
            8,
            cost::GREP_DFA_INSTR_PER_BYTE * 8,
            false,
        );
        ctx.cpu()
            .compute(hits.len() as u64 * cost::GREP_MATCH_LINE_INSTR);
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

/// The grep switch handler: DFA over the packet stream, forwarding the
/// matched lines.
pub struct GrepHandler {
    dfa: LiteralDfa,
    state: usize,
    host: NodeId,
    expect_bytes: u64,
    seen: u64,
    matches: u64,
    /// Trailing window kept to reconstruct a matched line (64 B lines).
    line_tail: Vec<u8>,
    out_addr: u32,
}

asan_sim::snap_fields!(GrepHandler {
    dfa: skip,
    state,
    host: skip,
    expect_bytes: skip,
    seen,
    matches,
    line_tail,
    out_addr,
});

impl GrepHandler {
    fn new(pattern: &str, host: NodeId, expect_bytes: u64) -> Self {
        GrepHandler {
            dfa: LiteralDfa::new(pattern.as_bytes()),
            state: 0,
            host,
            expect_bytes,
            seen: 0,
            matches: 0,
            line_tail: Vec::new(),
            out_addr: 0,
        }
    }

    /// Matches found so far.
    pub fn matches(&self) -> u64 {
        self.matches
    }
}

impl Handler for GrepHandler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let payload = ctx.payload();
        // DFA cost: steps per byte, charged per dword of stream.
        ctx.charge_stream(payload.len(), cost::GREP_DFA_INSTR_PER_BYTE * 8);
        // Maintain a line-reconstruction tail (last 128 bytes).
        for (i, &b) in payload.iter().enumerate() {
            let (s, hit) = self.dfa.step(self.state, b);
            self.state = s;
            if hit {
                self.matches += 1;
                ctx.compute(cost::GREP_MATCH_LINE_INSTR);
                // Send the matched line (tail window + rest to newline;
                // a 64-byte line in our corpus).
                let start = self.line_tail.len() + i;
                let from = start.saturating_sub(63);
                let mut line: Vec<u8> = self
                    .line_tail
                    .iter()
                    .chain(payload.iter())
                    .skip(from)
                    .take(64)
                    .copied()
                    .collect();
                line.truncate(64);
                ctx.send(self.host, None, self.out_addr, &line);
                let len = u32::try_from(line.len()).expect("a line of at most 64 bytes");
                self.out_addr = self.out_addr.wrapping_add(len);
            }
        }
        self.line_tail = payload;
        if self.line_tail.len() > 128 {
            let cut = self.line_tail.len() - 128;
            self.line_tail.drain(..cut);
        }
        self.seen += ctx.msg().len as u64;
        if self.seen >= self.expect_bytes {
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

/// Active-case host program.
struct ActiveGrep {
    reader: BlockReader,
    lines_in: u64,
    final_count: Option<u64>,
}

asan_sim::snap_fields!(ActiveGrep {
    reader,
    lines_in,
    final_count,
});

impl HostProgram for ActiveGrep {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // Option parsing stays on the host (step 1 of grep).
        ctx.cpu().compute(5_000);
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
        self.lines_in += 1;
        // Print/store the matched line.
        ctx.cpu().compute(500);
        ctx.cpu().touch_lines(
            0x3000_0000 + msg.addr as u64,
            msg.data.len() as u64,
            1,
            false,
        );
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

/// Runs Grep in one configuration, validating the match count.
///
/// # Panics
///
/// Panics if the simulated match count disagrees with the pure-Rust
/// reference.
pub fn run(variant: Variant, p: &Params) -> AppRun {
    run_with_config(variant, p, ClusterConfig::paper())
}

/// [`run`] with a co-scheduled background job: returns Grep's finish
/// time, when the background job completed (if it did), and any CPU
/// time it had left. Used by the multiprogrammed-server experiment.
pub fn run_with_background(
    variant: Variant,
    p: &Params,
    cfg: ClusterConfig,
    background: asan_sim::SimDuration,
) -> (
    asan_sim::SimTime,
    Option<asan_sim::SimTime>,
    asan_sim::SimDuration,
) {
    let r = run_inner(variant, p, cfg, background);
    (r.0.exec, r.1, r.2)
}

/// [`run`] with an explicit cluster configuration (used by the
/// ablation studies to vary the active-switch hardware).
pub fn run_with_config(variant: Variant, p: &Params, cfg: ClusterConfig) -> AppRun {
    run_inner(variant, p, cfg, asan_sim::SimDuration::ZERO).0
}

fn run_inner(
    variant: Variant,
    p: &Params,
    cfg: ClusterConfig,
    background: asan_sim::SimDuration,
) -> (AppRun, Option<asan_sim::SimTime>, asan_sim::SimDuration) {
    let corpus = Bytes::from(data::grep_corpus(
        crate::to_usize(p.file_bytes),
        p.pattern,
        p.matches,
    ));
    let dfa = LiteralDfa::new(p.pattern.as_bytes());
    let want = dfa.count(&corpus) as u64;
    assert_eq!(want, p.matches as u64, "generator planted wrong matches");

    let build = || {
        let (mut cl, hs, ts, sw) = standard_cluster(1, 1, cfg.clone());
        let file = cl.add_file(ts[0], corpus.clone()).expect("cluster setup");
        let host = hs[0];

        if variant.is_active() {
            cl.register_handler(
                sw,
                GREP_HANDLER,
                Box::new(GrepHandler::new(p.pattern, host, p.file_bytes)),
            )
            .expect("cluster setup");
            cl.set_program(
                host,
                Box::new(ActiveGrep {
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.file_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::Mapped {
                            node: sw,
                            handler: GREP_HANDLER,
                            base_addr: 0,
                        },
                    }),
                    lines_in: 0,
                    final_count: None,
                }),
            )
            .expect("cluster setup");
        } else {
            cl.set_program(
                host,
                Box::new(NormalGrep {
                    corpus: corpus.clone(),
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.file_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::HostBuf { addr: 0x1000_0000 },
                    }),
                    dfa: LiteralDfa::new(p.pattern.as_bytes()),
                    state: 0,
                    matches: 0,
                    buf_base: 0x1000_0000,
                }),
            )
            .expect("cluster setup");
        }

        if background > asan_sim::SimDuration::ZERO {
            cl.set_background_job(host, background)
                .expect("cluster setup");
        }
        (cl, host)
    };

    let (mut cl, host, report) = drive(&format!("grep-{}", variant.label()), build);
    let got = if variant.is_active() {
        let program = cl.take_program(host).expect("program");
        let prog = program
            .as_any()
            .and_then(|a| a.downcast_ref::<ActiveGrep>())
            .expect("active grep");
        assert_eq!(prog.lines_in, want, "host got wrong number of lines");
        prog.final_count.expect("done message")
    } else {
        cl.take_program(host)
            .expect("program")
            .as_any()
            .and_then(|a| a.downcast_ref::<NormalGrep>())
            .map(|g| g.matches)
            .expect("normal grep")
    };
    assert_eq!(got, want, "grep match count mismatch");
    let hr = report.host(host).expect("node report");
    let bg = (hr.background_done, hr.background_left);
    (
        AppRun::from_report(variant, &cl, &report, report.finish, got),
        bg.0,
        bg.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_find_all_matches() {
        let p = Params::small();
        for v in Variant::ALL {
            let r = run(v, &p);
            assert_eq!(r.artifact, p.matches as u64, "{v:?}");
        }
    }

    #[test]
    fn active_host_traffic_is_negligible() {
        let p = Params::small();
        let normal = run(Variant::Normal, &p);
        let active = run(Variant::Active, &p);
        assert!(
            active.host_traffic * 20 < normal.host_traffic,
            "active {} vs normal {}",
            active.host_traffic,
            normal.host_traffic
        );
    }

    #[test]
    fn active_host_utilization_near_zero() {
        let p = Params::small();
        let active = run(Variant::ActivePref, &p);
        assert!(
            active.host_utilization < 0.1,
            "util = {}",
            active.host_utilization
        );
    }
}
