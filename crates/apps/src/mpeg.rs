//! MPEG-filter (§5): video stream filtering + colour reduction.
//!
//! Two filtering tasks run over a 2 202 640-byte clip: *frame filtering*
//! (drop all P-type frames — cheap header checks, ideal for the switch)
//! and *colour reduction* of the surviving I-frames (decode/re-encode,
//! compute-heavy — stays on the host).
//!
//! * **normal**: the host does both stages per 64 KB block.
//! * **active**: the switch handler drops P-frames as data streams by
//!   and forwards only I-frame bytes; the host colour-reduces them —
//!   the cooperating pipeline the paper highlights ("the switch CPU is
//!   almost fully utilized, achieving a balanced computing pipeline
//!   with the host CPU").
//!
//! Shape (Figures 3–4): speedups ≈ 1.13 (`normal+pref`), 1.23
//! (`active`), 1.36 (`active+pref`) over `normal`; host traffic reduced
//! by 36.5 % in both active cases.

use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{Bytes, HandlerId, NodeId};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data::{self, FrameScanner, FrameType};
use crate::runner::{drive, standard_cluster, AppRun, Variant};

/// Handler ID of the frame filter.
pub const MPEG_HANDLER: HandlerId = HandlerId::new_const(6);

/// Flow tag of the final statistics message.
pub const DONE_HANDLER: HandlerId = HandlerId::new_const(63);

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Video size in bytes (2 202 640 in Table 1).
    pub video_bytes: u64,
    /// I/O request size (64 KB, §5).
    pub io_block: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            video_bytes: 2_202_640,
            io_block: 64 * 1024,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Self {
        Params {
            video_bytes: 256 * 1024,
            ..Params::paper()
        }
    }
}

/// Pure-Rust reference: bytes belonging to I-frames.
pub fn reference_i_bytes(video: &[u8]) -> u64 {
    let mut sc = FrameScanner::new();
    sc.feed(video)
        .into_iter()
        .filter(|(ty, _)| *ty == FrameType::I)
        .map(|(_, n)| n as u64)
        .sum()
}

/// Normal-case host program: filter + colour-reduce per block.
struct NormalMpeg {
    video: Bytes,
    reader: BlockReader,
    scanner: FrameScanner,
    i_bytes: u64,
    buf_base: u64,
}

asan_sim::snap_fields!(NormalMpeg {
    video: skip,
    reader,
    scanner,
    i_bytes,
    buf_base: skip,
});

impl HostProgram for NormalMpeg {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        let Some((off, len)) = self.reader.on_complete(ctx, req) else {
            return;
        };
        let chunk = &self.video[crate::byte_range(off, len)];
        let segs = self.scanner.feed(chunk);
        let mut pos = off;
        for (ty, n) in segs {
            let n = n as u64;
            // Frame filtering: header checks + copying survivors.
            ctx.cpu().compute(cost::MPEG_FRAME_PARSE_INSTR);
            ctx.cpu().scan(
                self.buf_base + pos,
                n,
                64,
                cost::MPEG_FILTER_INSTR_PER_BYTE * 64,
                false,
            );
            if ty == FrameType::I {
                self.i_bytes += n;
                // Colour reduction: heavy per-byte transform.
                ctx.cpu().scan(
                    self.buf_base + pos,
                    n,
                    64,
                    cost::MPEG_COLOR_INSTR_PER_BYTE * 64,
                    false,
                );
            }
            pos += n;
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

/// The switch handler: per-packet frame filtering.
pub struct MpegFilter {
    scanner: FrameScanner,
    host: NodeId,
    seen: u64,
    expect: u64,
    i_bytes: u64,
    out_addr: u32,
    /// Partial outgoing packet of I-frame bytes.
    batch: Vec<u8>,
    batch_buf: Option<asan_core::BufId>,
}

asan_sim::snap_fields!(MpegFilter {
    scanner,
    host: skip,
    seen,
    expect: skip,
    i_bytes,
    out_addr,
    batch,
    batch_buf,
});

impl MpegFilter {
    fn new(host: NodeId, expect: u64) -> Self {
        MpegFilter {
            scanner: FrameScanner::new(),
            host,
            seen: 0,
            expect,
            i_bytes: 0,
            out_addr: 0,
            batch: Vec::new(),
            batch_buf: None,
        }
    }

    /// I-frame bytes forwarded.
    pub fn i_bytes(&self) -> u64 {
        self.i_bytes
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

    fn emit(&mut self, ctx: &mut HandlerCtx<'_>, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            if self.batch_buf.is_none() {
                self.batch_buf = Some(ctx.alloc_buffer());
            }
            let room = asan_core::BUFFER_BYTES - self.batch.len();
            let take = room.min(rest.len());
            let buf = self.batch_buf.expect("just set");
            ctx.buffer_write(buf, self.batch.len(), &rest[..take]);
            self.batch.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.batch.len() == asan_core::BUFFER_BYTES {
                self.flush(ctx);
            }
        }
    }
}

impl Handler for MpegFilter {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let payload = ctx.payload();
        // Header checks across the packet.
        ctx.charge_stream(payload.len(), cost::MPEG_FILTER_INSTR_PER_BYTE * 8);
        let segs = self.scanner.feed(&payload);
        let mut pos = 0usize;
        for (ty, n) in segs {
            let end = (pos + n).min(payload.len());
            if ty == FrameType::I {
                let bytes = &payload[pos.min(payload.len())..end];
                self.i_bytes += bytes.len() as u64;
                let bytes = bytes.to_vec();
                self.emit(ctx, &bytes);
            }
            pos = end;
        }
        self.seen += payload.len() as u64;
        if self.seen >= self.expect {
            self.flush(ctx);
            ctx.send(
                self.host,
                Some(DONE_HANDLER),
                0,
                &self.i_bytes.to_le_bytes(),
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

/// Active-case host program: colour-reduce arriving I-frame data.
struct ActiveMpeg {
    reader: BlockReader,
    i_bytes_in: u64,
    reported: Option<u64>,
}

asan_sim::snap_fields!(ActiveMpeg {
    reader,
    i_bytes_in,
    reported,
});

impl HostProgram for ActiveMpeg {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        self.reader.on_complete(ctx, req);
        self.reader.refill(ctx);
    }

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        if msg.handler == Some(DONE_HANDLER) {
            self.reported = Some(u64::from_le_bytes(msg.data[..8].try_into().expect("count")));
            ctx.finish();
            return;
        }
        let n = msg.data.len() as u64;
        self.i_bytes_in += n;
        // Colour reduction on the arriving I-frame bytes.
        ctx.cpu().scan(
            0x2000_0000 + msg.addr as u64,
            n,
            64,
            cost::MPEG_COLOR_INSTR_PER_BYTE * 64,
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

/// Runs MPEG-filter in one configuration, validating the surviving
/// byte count against the pure-Rust reference.
///
/// # Panics
///
/// Panics if the filtered byte count disagrees with the reference.
pub fn run(variant: Variant, p: &Params) -> AppRun {
    let video = Bytes::from(data::mpeg_stream(crate::to_usize(p.video_bytes)));
    let want = reference_i_bytes(&video);
    let build = || {
        let (mut cl, hs, ts, sw) = standard_cluster(1, 1, ClusterConfig::paper());
        let file = cl.add_file(ts[0], video.clone()).expect("cluster setup");
        let host = hs[0];

        if variant.is_active() {
            cl.register_handler(
                sw,
                MPEG_HANDLER,
                Box::new(MpegFilter::new(host, p.video_bytes)),
            )
            .expect("cluster setup");
            cl.set_program(
                host,
                Box::new(ActiveMpeg {
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.video_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::Mapped {
                            node: sw,
                            handler: MPEG_HANDLER,
                            base_addr: 0,
                        },
                    }),
                    i_bytes_in: 0,
                    reported: None,
                }),
            )
            .expect("cluster setup");
        } else {
            cl.set_program(
                host,
                Box::new(NormalMpeg {
                    video: video.clone(),
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.video_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::HostBuf { addr: 0x1000_0000 },
                    }),
                    scanner: FrameScanner::new(),
                    i_bytes: 0,
                    buf_base: 0x1000_0000,
                }),
            )
            .expect("cluster setup");
        }
        (cl, host)
    };

    let (mut cl, host, report) = drive(&format!("mpeg-{}", variant.label()), build);
    let got = if variant.is_active() {
        let program = cl.take_program(host).expect("program");
        let prog = program
            .as_any()
            .and_then(|a| a.downcast_ref::<ActiveMpeg>())
            .expect("active mpeg");
        assert_eq!(
            prog.i_bytes_in,
            prog.reported.expect("done message"),
            "host received bytes vs handler report"
        );
        prog.i_bytes_in
    } else {
        cl.take_program(host)
            .expect("program")
            .as_any()
            .and_then(|a| a.downcast_ref::<NormalMpeg>())
            .map(|m| m.i_bytes)
            .expect("normal mpeg")
    };
    // The scanner may defer a few header bytes at chunk boundaries.
    assert!(
        got.abs_diff(want) <= 64,
        "I-byte count mismatch: {got} vs {want}"
    );
    AppRun::from_report(variant, &cl, &report, report.finish, got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_keeps_about_63_5_percent() {
        let p = Params::small();
        let video = data::mpeg_stream(crate::to_usize(p.video_bytes));
        let frac = reference_i_bytes(&video) as f64 / video.len() as f64;
        assert!((frac - 0.635).abs() < 0.02, "I share = {frac}");
    }

    #[test]
    fn variants_agree_on_filtered_bytes() {
        let p = Params::small();
        let runs: Vec<AppRun> = Variant::ALL.iter().map(|&v| run(v, &p)).collect();
        for r in &runs {
            assert!(
                r.artifact.abs_diff(runs[0].artifact) <= 128,
                "{:?}: {} vs {}",
                r.variant,
                r.artifact,
                runs[0].artifact
            );
        }
    }

    #[test]
    fn active_reduces_host_traffic() {
        let p = Params::small();
        let normal = run(Variant::NormalPref, &p);
        let active = run(Variant::ActivePref, &p);
        let ratio = active.host_traffic as f64 / normal.host_traffic as f64;
        // ~63.5 % of the data survives the filter.
        assert!((0.55..0.75).contains(&ratio), "traffic ratio {ratio}");
    }
}
