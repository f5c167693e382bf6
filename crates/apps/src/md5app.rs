//! MD5 (§5): message digest of a 256 KB input.
//!
//! The deliberately *unsuccessful* partitioning example: MD5 is
//! compute-intensive and its block chaining prevents parallelism, so
//! putting it on the 4× slower switch CPU **slows the program down** —
//! until the paper's K-way interleaved variant spreads independent
//! chains over 2 or 4 switch CPUs (Figure 17: 4 CPUs give 1.50× without
//! prefetch and 1.18× with prefetch, vs the host-only normal case).
//!
//! Digests are real (RFC 1321): the simulated runs produce exactly the
//! digest of the reference implementation.

use asan_core::active::ActiveSwitchConfig;
use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx, MsgInfo};
use asan_net::{Bytes, HandlerId, NodeId, MTU};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data;
use crate::md5::{md5, md5_interleaved, Md5};
use crate::runner::{drive, standard_cluster, AppRun, Variant};

/// Handler ID of the MD5 handler.
pub const MD5_HANDLER: HandlerId = HandlerId::new_const(8);

/// Flow tag of the digest result message.
pub const DONE_HANDLER: HandlerId = HandlerId::new_const(59);

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input size (256 KB in Table 1).
    pub input_bytes: u64,
    /// I/O request size.
    pub io_block: u64,
    /// Number of switch CPUs (1, 2 or 4; also the number of chains K).
    pub switch_cpus: usize,
}

impl Params {
    /// The paper's configuration with one switch CPU.
    pub fn paper() -> Self {
        Params {
            input_bytes: 256 * 1024,
            io_block: 64 * 1024,
            switch_cpus: 1,
        }
    }

    /// The multi-processor variant (Figure 17).
    pub fn with_cpus(k: usize) -> Self {
        Params {
            switch_cpus: k,
            ..Params::paper()
        }
    }

    /// A scaled-down configuration for tests.
    pub fn small() -> Self {
        Params {
            input_bytes: 32 * 1024,
            ..Params::paper()
        }
    }
}

/// Writes a finished digest as a presence byte, then its bytes.
fn snapshot_digest(w: &mut SnapWriter, digest: &Option<[u8; 16]>) {
    w.bool(digest.is_some());
    if let Some(d) = digest {
        w.bytes(d);
    }
}

/// Reads a digest written by [`snapshot_digest`].
fn restore_digest(r: &mut SnapReader<'_>) -> Result<Option<[u8; 16]>, SnapError> {
    if !r.bool()? {
        return Ok(None);
    }
    let d = r.bytes()?;
    let d = <[u8; 16]>::try_from(d.as_slice())
        .map_err(|_| SnapError::Malformed("md5 digest length"))?;
    Ok(Some(d))
}

/// First 8 bytes of a digest, used as the validation artifact.
fn digest_tag(d: &[u8; 16]) -> u64 {
    u64::from_le_bytes(d[..8].try_into().expect("8 bytes"))
}

/// Normal-case host program: read and hash the whole file (original
/// single-chain MD5).
struct NormalMd5 {
    input: Bytes,
    reader: BlockReader,
    hasher: Option<Md5>,
    digest: Option<[u8; 16]>,
}

impl HostProgram for NormalMd5 {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        let Some((off, len)) = self.reader.on_complete(ctx, req) else {
            return;
        };
        let chunk = &self.input[off as usize..(off + len) as usize];
        self.hasher.as_mut().expect("hashing").update(chunk);
        // Charge the compression: per-byte cost + streaming loads.
        ctx.cpu().scan(
            0x1000_0000 + off,
            len,
            64,
            cost::MD5_INSTR_PER_BYTE * 64,
            false,
        );
        self.reader.refill(ctx);
        if self.reader.done() {
            self.digest = Some(self.hasher.take().expect("hashing").finalize());
            ctx.finish();
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let NormalMd5 {
            input: _,
            reader,
            hasher,
            digest,
        } = self;
        reader.snapshot(w);
        w.bool(hasher.is_some());
        if let Some(h) = hasher {
            h.snapshot(w);
        }
        snapshot_digest(w, digest);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let NormalMd5 {
            input: _,
            reader,
            hasher,
            digest,
        } = self;
        reader.restore(r)?;
        *hasher = if r.bool()? { Some(r.read()?) } else { None };
        *digest = restore_digest(r)?;
        Ok(())
    }
}

/// The MD5 switch handler: K independent chains, packet `seq % K`
/// pinned to switch CPU `seq % K` (the paper's added "switch CPU Id
/// field in the message header").
pub struct Md5Handler {
    k: usize,
    chains: Vec<Md5>,
    host: NodeId,
    seen: u64,
    expect: u64,
}

asan_sim::snap_fields!(Md5Handler {
    k: skip,
    chains,
    host: skip,
    seen,
    expect: skip,
});

impl Md5Handler {
    fn new(k: usize, host: NodeId, expect: u64) -> Self {
        Md5Handler {
            k,
            chains: (0..k).map(|_| Md5::new()).collect(),
            host,
            seen: 0,
            expect,
        }
    }
}

impl Handler for Md5Handler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let msg = ctx.msg();
        let payload = ctx.payload();
        let chain = msg.seq as usize % self.k;
        self.chains[chain].update(&payload);
        ctx.charge_stream(payload.len(), cost::MD5_INSTR_PER_BYTE * 8);
        self.seen += payload.len() as u64;
        if self.seen >= self.expect {
            // Finalize all chains, digest the digests, send the result.
            let mut combined = Md5::new();
            for c in std::mem::take(&mut self.chains) {
                combined.update(&c.finalize());
            }
            // Final combination cost: K digests of 16 B each.
            ctx.compute(self.k as u64 * 16 * cost::MD5_INSTR_PER_BYTE + 2_000);
            let digest = combined.finalize();
            ctx.send(self.host, Some(DONE_HANDLER), 0, &digest);
        }
    }

    fn cpu_affinity(&self, msg: &MsgInfo) -> Option<usize> {
        Some(msg.seq as usize % self.k)
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

/// Active-case host program: issue mapped reads, receive the digest.
struct ActiveMd5 {
    reader: BlockReader,
    digest: Option<[u8; 16]>,
}

impl HostProgram for ActiveMd5 {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        self.reader.on_complete(ctx, req);
        self.reader.refill(ctx);
    }

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        if msg.handler == Some(DONE_HANDLER) {
            self.digest = Some(msg.data[..16].try_into().expect("digest"));
            ctx.finish();
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let ActiveMd5 { reader, digest } = self;
        reader.snapshot(w);
        snapshot_digest(w, digest);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ActiveMd5 { reader, digest } = self;
        reader.restore(r)?;
        *digest = restore_digest(r)?;
        Ok(())
    }
}

/// Runs MD5 in one configuration, validating the digest bit-for-bit
/// against the reference implementation.
///
/// # Panics
///
/// Panics if the digest is wrong.
pub fn run(variant: Variant, p: &Params) -> AppRun {
    let input = Bytes::from(data::md5_input(p.input_bytes as usize));
    // Reference: single chain for normal, K-way interleave (per MTU
    // packet) for active.
    let want = if variant.is_active() {
        md5_interleaved(&input, p.switch_cpus, MTU)
    } else {
        md5(&input)
    };

    let build = || {
        let mut cfg = ClusterConfig::paper();
        cfg.active = ActiveSwitchConfig::with_cpus(p.switch_cpus);
        let (mut cl, hs, ts, sw) = standard_cluster(1, 1, cfg);
        let file = cl.add_file(ts[0], input.clone()).expect("cluster setup");
        let host = hs[0];

        if variant.is_active() {
            cl.register_handler(
                sw,
                MD5_HANDLER,
                Box::new(Md5Handler::new(p.switch_cpus, host, p.input_bytes)),
            )
            .expect("cluster setup");
            cl.set_program(
                host,
                Box::new(ActiveMd5 {
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.input_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::Mapped {
                            node: sw,
                            handler: MD5_HANDLER,
                            base_addr: 0,
                        },
                    }),
                    digest: None,
                }),
            )
            .expect("cluster setup");
        } else {
            cl.set_program(
                host,
                Box::new(NormalMd5 {
                    input: input.clone(),
                    reader: BlockReader::new(BlockPlan {
                        file,
                        total: p.input_bytes,
                        block: p.io_block,
                        outstanding: variant.outstanding(),
                        dest: Dest::HostBuf { addr: 0x1000_0000 },
                    }),
                    hasher: Some(Md5::new()),
                    digest: None,
                }),
            )
            .expect("cluster setup");
        }
        (cl, host)
    };

    let (mut cl, host, report) = drive(&format!("md5-{}", variant.label()), build);
    let got = if variant.is_active() {
        cl.take_program(host)
            .expect("program")
            .as_any()
            .and_then(|a| a.downcast_ref::<ActiveMd5>())
            .and_then(|m| m.digest)
            .expect("digest arrived")
    } else {
        cl.take_program(host)
            .expect("program")
            .as_any()
            .and_then(|a| a.downcast_ref::<NormalMd5>())
            .and_then(|m| m.digest)
            .expect("digest computed")
    };
    assert_eq!(got, want, "MD5 digest mismatch");
    AppRun::from_report(variant, &cl, &report, report.finish, digest_tag(&got))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_correct_for_all_k() {
        for k in [1usize, 2, 4] {
            let p = Params {
                switch_cpus: k,
                ..Params::small()
            };
            let input = data::md5_input(p.input_bytes as usize);
            let r = run(Variant::Active, &p);
            assert_eq!(
                r.artifact,
                digest_tag(&md5_interleaved(&input, k, MTU)),
                "k = {k}"
            );
        }
    }

    #[test]
    fn normal_digest_matches_reference() {
        let p = Params::small();
        let input = data::md5_input(p.input_bytes as usize);
        let r = run(Variant::Normal, &p);
        assert_eq!(r.artifact, digest_tag(&md5(&input)));
    }

    #[test]
    fn one_switch_cpu_is_slower_than_host() {
        // Enough input that compute outweighs the initial disk seek.
        let p = Params {
            input_bytes: 128 * 1024,
            ..Params::small()
        };
        let normal = run(Variant::NormalPref, &p);
        let active1 = run(Variant::ActivePref, &p);
        assert!(
            active1.exec > normal.exec,
            "1 switch CPU should lose: active {} vs normal {}",
            active1.exec,
            normal.exec
        );
    }

    #[test]
    fn four_switch_cpus_beat_one() {
        let p1 = Params {
            input_bytes: 128 * 1024,
            ..Params::small()
        };
        let p4 = Params {
            switch_cpus: 4,
            input_bytes: 128 * 1024,
            ..Params::small()
        };
        let a1 = run(Variant::Active, &p1);
        let a4 = run(Variant::Active, &p4);
        assert!(
            a4.exec < a1.exec,
            "4 CPUs {} should beat 1 CPU {}",
            a4.exec,
            a1.exec
        );
    }
}
