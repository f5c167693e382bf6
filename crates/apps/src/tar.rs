//! Tar with `-cf` (§5): archive a set of input files.
//!
//! * **normal**: the host reads each input file, prepends a real ustar
//!   header, and streams header + data to the archive target (a remote
//!   storage node).
//! * **active**: the host only parses options and generates the 512 B
//!   headers; the switch handler *initiates the disk reads itself* (the
//!   only benchmark where the switch issues I/O) and redirects the file
//!   data straight to the archive node, "completely bypassing the
//!   host".
//!
//! Shape (Figures 11–12): `normal` is worst; the other three tie
//! (I/O-bound); active host utilization ≈ 0; active host I/O traffic is
//! just the 512 B headers per file.

use asan_core::cluster::{ClusterConfig, Dest, FileId, HostCtx, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{Bytes, HandlerId, NodeId};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data;
use crate::runner::{drive, standard_cluster, AppRun, Variant};
use crate::tar_fmt;

/// Handler ID of the tar streamer.
pub const TAR_HANDLER: HandlerId = HandlerId::new_const(7);

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of input files.
    pub files: usize,
    /// Bytes per input file (total 4 MB in Table 1).
    pub file_bytes: u64,
    /// I/O request size.
    pub io_block: u64,
}

impl Params {
    /// The paper's configuration: 4 MB of input as 16 × 256 KB files.
    pub fn paper() -> Self {
        Params {
            files: 16,
            file_bytes: 256 * 1024,
            io_block: 64 * 1024,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Self {
        Params {
            files: 4,
            file_bytes: 64 * 1024,
            ..Params::paper()
        }
    }

    /// Total archive size (headers + padded data + terminator).
    pub fn archive_bytes(&self) -> u64 {
        tar_fmt::archive_size(&vec![self.file_bytes; self.files])
    }
}

/// Normal-case host program: read each file, send header + data to the
/// archive node.
struct NormalTar {
    p: Params,
    files: Vec<FileId>,
    contents: Vec<Bytes>,
    archive: NodeId,
    outstanding: u64,
    current: usize,
    reader: Option<BlockReader>,
    sent: u64,
}

impl NormalTar {
    fn start_file(&mut self, ctx: &mut HostCtx<'_>) {
        if self.current >= self.files.len() {
            // Two terminating zero blocks.
            ctx.send(self.archive, None, 0, vec![0u8; 1024]);
            self.sent += 1024;
            ctx.finish();
            return;
        }
        // Generate and emit the real ustar header.
        ctx.cpu().compute(cost::TAR_HEADER_INSTR);
        let h = tar_fmt::ustar_header(&format!("file{:03}", self.current), self.p.file_bytes, 0);
        ctx.send(self.archive, None, 0, h.to_vec());
        self.sent += h.len() as u64;
        let mut reader = BlockReader::new(BlockPlan {
            file: self.files[self.current],
            total: self.p.file_bytes,
            block: self.p.io_block,
            outstanding: self.outstanding,
            dest: Dest::HostBuf { addr: 0x1000_0000 },
        });
        reader.start(ctx);
        self.reader = Some(reader);
    }
}

impl HostProgram for NormalTar {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.cpu().compute(10_000); // option parsing
        self.start_file(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        let Some(reader) = self.reader.as_mut() else {
            return;
        };
        let Some((off, len)) = reader.on_complete(ctx, req) else {
            return;
        };
        // Copy the real block out to the archive stream.
        ctx.cpu().touch_lines(
            0x1000_0000 + off,
            len,
            cost::TAR_COPY_INSTR_PER_BYTE * 64,
            false,
        );
        let bytes = self.contents[self.current][off as usize..(off + len) as usize].to_vec();
        ctx.send(self.archive, None, 0, bytes);
        self.sent += len;
        if let Some(r) = self.reader.as_mut() {
            r.refill(ctx);
        }
        let reader = self.reader.as_mut().expect("still reading");
        if reader.done() {
            self.current += 1;
            self.reader = None;
            self.start_file(ctx);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let NormalTar {
            p: _,
            files: _,
            contents: _,
            archive: _,
            outstanding: _,
            current,
            reader,
            sent,
        } = self;
        current.snapshot(w);
        sent.snapshot(w);
        w.bool(reader.is_some());
        if let Some(reader) = reader {
            reader.snapshot(w);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let NormalTar {
            p,
            files,
            contents: _,
            archive: _,
            outstanding,
            current,
            reader,
            sent,
        } = self;
        current.restore(r)?;
        sent.restore(r)?;
        // The reader is rebuilt over the current file's plan before its
        // cursor state is restored.
        *reader = if r.bool()? {
            let file = *files
                .get(*current)
                .ok_or(SnapError::Malformed("tar file cursor out of range"))?;
            let mut rd = BlockReader::new(BlockPlan {
                file,
                total: p.file_bytes,
                block: p.io_block,
                outstanding: *outstanding,
                dest: Dest::HostBuf { addr: 0x1000_0000 },
            });
            rd.restore(r)?;
            Some(rd)
        } else {
            None
        };
        Ok(())
    }
}

/// The tar switch handler: receives a per-file trigger carrying the
/// header, forwards the header to the archive, then pulls the file from
/// its TCA straight to the archive node.
pub struct TarHandler {
    tca: NodeId,
    archive: NodeId,
    files_streamed: u64,
}

asan_sim::snap_fields!(TarHandler {
    tca: skip,
    archive: skip,
    files_streamed,
});

impl TarHandler {
    fn new(tca: NodeId, archive: NodeId) -> Self {
        TarHandler {
            tca,
            archive,
            files_streamed: 0,
        }
    }

    /// Files the handler has initiated streams for.
    pub fn files_streamed(&self) -> u64 {
        self.files_streamed
    }
}

impl Handler for TarHandler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        // Trigger payload: file id + length (the host already appended
        // the 512 B ustar header to the archive stream itself).
        let payload = ctx.payload();
        let file = u64::from_le_bytes(payload[0..8].try_into().expect("file id")) as usize;
        let len = u64::from_le_bytes(payload[8..16].try_into().expect("len"));
        // Initiate the disk read, delivering straight to the archive.
        ctx.request_disk_read(self.tca, file, 0, len, self.archive, None, 0);
        self.files_streamed += 1;
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

/// Active-case host program: just headers and triggers.
struct ActiveTar {
    p: Params,
    files: Vec<FileId>,
    sw: NodeId,
    archive: NodeId,
}

impl HostProgram for ActiveTar {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.cpu().compute(10_000); // option parsing
        for (i, f) in self.files.clone().into_iter().enumerate() {
            ctx.cpu().compute(cost::TAR_HEADER_INSTR);
            // The host stores the real header into the archive stream…
            let h = tar_fmt::ustar_header(&format!("file{i:03}"), self.p.file_bytes, 0);
            ctx.send(self.archive, None, 0, h.to_vec());

            // …and asks the switch handler to stream the file body.
            let mut trigger = (f.0 as u64).to_le_bytes().to_vec();
            trigger.extend_from_slice(&self.p.file_bytes.to_le_bytes());
            ctx.send(self.sw, Some(TAR_HANDLER), (i as u32) * 1024, trigger);
        }
        ctx.finish();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Runs Tar in one configuration. Execution time is the archive drain
/// time (the host may finish long before the data stops flowing).
///
/// # Panics
///
/// Panics if the archive stream does not carry the expected bytes.
pub fn run(variant: Variant, p: &Params) -> AppRun {
    let contents: Vec<Bytes> = data::file_set(p.files, p.file_bytes as usize)
        .into_iter()
        .map(Bytes::from)
        .collect();
    let build = || {
        // Input files on TCA 0; the archive target is TCA 1.
        let (mut cl, hs, ts, sw) = standard_cluster(1, 2, ClusterConfig::paper());
        let files: Vec<FileId> = contents
            .iter()
            .map(|c| cl.add_file(ts[0], c.clone()).expect("cluster setup"))
            .collect();
        let host = hs[0];
        let archive = ts[1];

        if variant.is_active() {
            cl.register_handler(sw, TAR_HANDLER, Box::new(TarHandler::new(ts[0], archive)))
                .expect("cluster setup");
            cl.set_program(
                host,
                Box::new(ActiveTar {
                    p: p.clone(),
                    files,
                    sw,
                    archive,
                }),
            )
            .expect("cluster setup");
        } else {
            cl.set_program(
                host,
                Box::new(NormalTar {
                    p: p.clone(),
                    files,
                    contents: contents.clone(),
                    archive,
                    outstanding: variant.outstanding(),
                    current: 0,
                    reader: None,
                    sent: 0,
                }),
            )
            .expect("cluster setup");
        }
        (cl, sw)
    };

    let (mut cl, sw, report) = drive(&format!("tar-{}", variant.label()), build);
    let streamed = if variant.is_active() {
        let handler = cl.take_handler(sw, TAR_HANDLER).expect("handler");
        let h = handler
            .as_any()
            .and_then(|a| a.downcast_ref::<TarHandler>())
            .expect("tar handler");
        assert_eq!(h.files_streamed(), p.files as u64, "all files streamed");
        h.files_streamed()
    } else {
        p.files as u64
    };
    // Tar's execution time is until the archive is fully written.
    AppRun::from_report(variant, &cl, &report, report.drain, streamed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_stream_all_files() {
        let p = Params::small();
        for v in Variant::ALL {
            let r = run(v, &p);
            assert_eq!(r.artifact, p.files as u64, "{v:?}");
        }
    }

    #[test]
    fn active_host_traffic_is_headers_only() {
        let p = Params::small();
        let normal = run(Variant::Normal, &p);
        let active = run(Variant::Active, &p);
        // Normal moves the data in AND out of the host; active moves
        // only headers + triggers.
        assert!(
            active.host_traffic * 100 < normal.host_traffic,
            "active {} vs normal {}",
            active.host_traffic,
            normal.host_traffic
        );
    }

    #[test]
    fn active_host_utilization_near_zero() {
        let p = Params::small();
        let active = run(Variant::Active, &p);
        assert!(
            active.host_utilization < 0.05,
            "util = {}",
            active.host_utilization
        );
    }
}
