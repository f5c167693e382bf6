//! The host subsystem: programs, their CPUs/HCAs, OS cost charging,
//! and I/O completion delivery.
//!
//! Host programs are state machines ([`HostProgram`]): the engine calls
//! their hooks in simulated-time order and the program charges CPU time
//! through the [`HostCtx`] as it processes real data. Everything a
//! program *does* — issue a read, send a message, finish — is collected
//! as an effect and applied after the hook returns, so a hook never
//! re-enters the simulation.

use std::collections::BTreeMap;

use asan_cpu::Cpu;
use asan_io::OsCost;
use asan_net::{HandlerId, Hca, NodeId, HEADER_BYTES, MTU};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::stats::Traffic;
use asan_sim::{SimDuration, SimTime};

use crate::cluster::{ClusterConfig, HostReport};
use crate::error::SimError;
use crate::events::{
    Dest, EventBus, FabricEvent, FileId, FileMeta, HostEvent, HostMsg, IoState, ReqId, StorageEvent,
};
use crate::stats::{snap_cpu, HostSnapshot};

/// A host-resident application (one per compute node).
///
/// Programs are state machines: the cluster calls these hooks in
/// simulated-time order, and the program charges CPU time through the
/// [`HostCtx`] as it processes real data.
pub trait HostProgram {
    /// Called once at time zero.
    fn on_start(&mut self, ctx: &mut HostCtx<'_>);

    /// Called when an I/O request previously issued via
    /// [`HostCtx::read_file`] has fully delivered its data.
    fn on_io_complete(&mut self, _ctx: &mut HostCtx<'_>, _req: ReqId) {}

    /// Called when a message arrives for this host.
    fn on_message(&mut self, _ctx: &mut HostCtx<'_>, _msg: &HostMsg) {}

    /// Downcasting hook so benchmarks can read back program state after
    /// a run (`Some(self)` in implementations that support it).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Writes this program's persistent state into a snapshot. Stateful
    /// programs (anything whose behaviour depends on values mutated
    /// across hook calls) must override this together with
    /// [`HostProgram::restore_state`]; the default writes nothing.
    /// Declare the state once with `asan_sim::snap_fields!` and
    /// delegate both hooks to it.
    fn snapshot_state(&self, _w: &mut SnapWriter) {}

    /// Restores the state written by [`HostProgram::snapshot_state`]
    /// into a freshly constructed program.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the stream is malformed.
    fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

impl std::fmt::Debug for dyn HostProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<host program>")
    }
}

#[derive(Debug)]
enum Effect {
    Io {
        req: ReqId,
        file: FileId,
        offset: u64,
        len: u64,
        dest: Dest,
        issue_at: SimTime,
    },
    Send {
        dst: NodeId,
        handler: Option<HandlerId>,
        addr: u32,
        data: Vec<u8>,
        ready: SimTime,
    },
    Finish,
}

/// Kernel/OS services available to a host program during a callback.
#[derive(Debug)]
pub struct HostCtx<'a> {
    cpu: &'a mut Cpu,
    hca: &'a mut Hca,
    node: NodeId,
    os: OsCost,
    files: &'a [FileMeta],
    next_req: &'a mut u64,
    effects: Vec<Effect>,
}

impl HostCtx<'_> {
    /// This host's node ID.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current local time.
    pub fn now(&self) -> SimTime {
        self.cpu.now()
    }

    /// The CPU model, for charging application work (compute, loads,
    /// scans over real data).
    pub fn cpu(&mut self) -> &mut Cpu {
        self.cpu
    }

    /// Length of a stored file.
    pub fn file_len(&self, file: FileId) -> u64 {
        self.files[file.0].len
    }

    /// Issues an asynchronous read of `[offset, offset+len)` of `file`,
    /// delivering to `dest`. Charges the issue share of the OS
    /// per-request cost now; the completion share (and the per-KB cost
    /// for host-destined data) is charged when the request completes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the file or is empty.
    pub fn read_file(&mut self, file: FileId, offset: u64, len: u64, dest: Dest) -> ReqId {
        let meta = self.files[file.0];
        assert!(offset + len <= meta.len, "read beyond file end");
        assert!(len > 0, "zero-length read");
        // Issue share only; the completion share is charged at
        // IoComplete. Active (mapped) requests bypass the heavyweight
        // OS path entirely.
        match dest {
            Dest::HostBuf { .. } => self.cpu.charge_fixed_busy(self.os.per_request / 2),
            Dest::Mapped { .. } => self.cpu.charge_fixed_busy(self.os.active_request),
        }
        let req = ReqId(*self.next_req);
        *self.next_req += 1;
        self.effects.push(Effect::Io {
            req,
            file,
            offset,
            len,
            dest,
            issue_at: self.cpu.now(),
        });
        req
    }

    /// Sends `data` to `dst` (packetized into MTU packets by the HCA).
    /// `handler` names the switch handler for active messages, or tags
    /// the flow for host receivers.
    pub fn send(&mut self, dst: NodeId, handler: Option<HandlerId>, addr: u32, data: Vec<u8>) {
        let ready = self.hca.post_send(self.cpu);
        self.effects.push(Effect::Send {
            dst,
            handler,
            addr,
            data,
            ready,
        });
    }

    /// Declares this host's program finished.
    pub fn finish(&mut self) {
        self.effects.push(Effect::Finish);
    }
}

#[derive(Debug)]
struct HostNode {
    cpu: Cpu,
    hca: Hca,
    program: Option<Box<dyn HostProgram>>,
    finished_at: Option<SimTime>,
    payload: Traffic,
    /// Remaining CPU time of a co-scheduled background job that soaks
    /// up this host's idle time (the paper's "multi-programmed server"
    /// scenario: freed host cycles are usable by other tasks).
    background_left: SimDuration,
    /// When the background job completed, if it did.
    background_done: Option<SimTime>,
}

/// CPU, HCA, program state (via [`HostProgram::snapshot_state`]) behind
/// a presence byte that must match the installed program on restore,
/// finish/background state and traffic.
impl Snap for HostNode {
    fn snapshot(&self, w: &mut SnapWriter) {
        let HostNode {
            cpu,
            hca,
            program,
            finished_at,
            payload,
            background_left,
            background_done,
        } = self;
        cpu.snapshot(w);
        hca.snapshot(w);
        w.bool(program.is_some());
        if let Some(p) = program {
            p.snapshot_state(w);
        }
        finished_at.snapshot(w);
        payload.snapshot(w);
        background_left.snapshot(w);
        background_done.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let HostNode {
            cpu,
            hca,
            program,
            finished_at,
            payload,
            background_left,
            background_done,
        } = self;
        cpu.restore(r)?;
        hca.restore(r)?;
        match (r.bool()?, program.as_mut()) {
            (true, Some(p)) => p.restore_state(r)?,
            (false, None) => {}
            _ => return Err(SnapError::Malformed("program placement mismatch")),
        }
        finished_at.restore(r)?;
        payload.restore(r)?;
        background_left.restore(r)?;
        background_done.restore(r)
    }
}

/// The host subsystem engine: owns every host node (CPU, HCA, program,
/// traffic counters) and the request-ID allocator.
#[derive(Debug, Default)]
pub struct HostEngine {
    hosts: BTreeMap<NodeId, HostNode>,
    next_req: u64,
}

// The request-ID allocator, then every host node; the host set is
// the topology's and must match on restore.
asan_sim::snap_fields!(HostEngine @ "host" {
    next_req,
    hosts: fixed,
});

impl HostEngine {
    /// Handles one host event popped at time `t`.
    pub(crate) fn on_event(
        &mut self,
        t: SimTime,
        ev: HostEvent,
        bus: &mut EventBus<'_>,
    ) -> Result<(), SimError> {
        match ev {
            HostEvent::Start(h) => {
                self.call_host(h, t, None, None, bus);
            }
            HostEvent::PacketToHost { host, msg, io_req } => {
                let bytes = msg.data.len() as u64;
                let seq = msg.seq;
                let lat = self.hosts[&host].hca.config().recv_latency;
                match io_req {
                    Some(req) => {
                        // DMA of request data: no per-packet CPU cost.
                        let Some(st) = bus.reqs.get_mut(&req) else {
                            // Late duplicate for a completed request (a
                            // timeout retransmit racing a NAK one).
                            return Ok(());
                        };
                        let done = if st.got.is_empty() {
                            st.remaining -= 1;
                            st.remaining == 0
                        } else {
                            let i = seq as usize;
                            if st.got[i] {
                                return Ok(()); // duplicate delivery
                            }
                            st.got[i] = true;
                            let cat = std::mem::take(&mut st.faulted[i]);
                            let all = st.got.iter().all(|&g| g);
                            bus.note_recovered(cat);
                            all
                        };
                        // Only accepted stripes count as host payload:
                        // the HCA discards duplicates before DMA.
                        self.hosts
                            .get_mut(&host)
                            .expect("host exists")
                            .payload
                            .record_in(bytes);
                        if done {
                            bus.push(t + lat, HostEvent::IoComplete { host, req });
                        }
                    }
                    None => {
                        self.hosts
                            .get_mut(&host)
                            .expect("host exists")
                            .payload
                            .record_in(bytes);
                        self.call_host(host, t, None, Some(msg), bus);
                    }
                }
            }
            HostEvent::IoComplete { host, req } => {
                // The dispatch engine's reorder buffer for this flow, if
                // any, was already cleared when its last packet arrived.
                let st = bus.reqs.remove(&req).expect("live request");
                bus.probe.end_req(req.0);
                // Completion-side OS cost: the interrupt/copy share, plus
                // the per-KB cost — only for data that landed in host
                // memory (active completions are consumed by polling).
                let (per_req, per_kb) = if matches!(st.dest, Dest::HostBuf { .. }) {
                    (
                        bus.cfg.os.per_request / 2,
                        SimDuration::from_ns_f64(
                            st.bytes as f64 * bus.cfg.os.per_kb_ns as f64 / 1024.0,
                        ),
                    )
                } else {
                    (SimDuration::ZERO, SimDuration::ZERO)
                };
                {
                    let node = self.hosts.get_mut(&host).expect("host exists");
                    advance_host(node, t);
                    node.cpu.charge_fixed_busy(per_req + per_kb);
                }
                let at = self.hosts[&host].cpu.now();
                self.call_host(host, at, Some(req), None, bus);
            }
        }
        Ok(())
    }

    /// Adds one host node per id, configured per `cfg`. `Cpu::new`
    /// leaves every core of one configuration in the same warmed state,
    /// so it runs once: the other hosts get clones, the last the
    /// original.
    pub(crate) fn add_hosts(&mut self, ids: &[NodeId], cfg: &ClusterConfig) {
        let cpus = vec![Cpu::new(cfg.host_cpu.clone()); ids.len()];
        for (&id, cpu) in ids.iter().zip(cpus) {
            self.hosts.insert(
                id,
                HostNode {
                    cpu,
                    hca: Hca::new(cfg.hca),
                    program: None,
                    finished_at: None,
                    payload: Traffic::default(),
                    background_left: SimDuration::ZERO,
                    background_done: None,
                },
            );
        }
    }

    /// Installs `program` on host `node`.
    pub(crate) fn set_program(
        &mut self,
        node: NodeId,
        program: Box<dyn HostProgram>,
    ) -> Result<(), SimError> {
        let h = self.hosts.get_mut(&node).ok_or(SimError::NotAHost(node))?;
        if h.program.is_some() {
            return Err(SimError::ProgramAlreadyInstalled(node));
        }
        h.program = Some(program);
        Ok(())
    }

    /// Removes a host's program (for post-run state readback).
    pub(crate) fn take_program(&mut self, node: NodeId) -> Option<Box<dyn HostProgram>> {
        self.hosts.get_mut(&node)?.program.take()
    }

    /// Co-schedules `cpu_time` of background computation on `node`.
    pub(crate) fn set_background_job(
        &mut self,
        node: NodeId,
        cpu_time: SimDuration,
    ) -> Result<(), SimError> {
        let h = self.hosts.get_mut(&node).ok_or(SimError::NotAHost(node))?;
        h.background_left = cpu_time;
        h.background_done = None;
        Ok(())
    }

    /// Hosts with a program installed, in ascending node order.
    pub(crate) fn nodes_with_programs(&self) -> Vec<NodeId> {
        self.hosts
            .iter()
            .filter(|(_, h)| h.program.is_some())
            .map(|(&id, _)| id)
            .collect()
    }

    /// The lowest-numbered host (the fallback host under fault plans).
    pub(crate) fn first_host(&self) -> Option<NodeId> {
        self.hosts.keys().copied().min_by_key(|n| n.0)
    }

    /// When the last host program finished ([`SimTime::ZERO`] if none
    /// did).
    pub(crate) fn finish_time(&self) -> SimTime {
        self.hosts
            .values()
            .filter_map(|h| h.finished_at)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Per-host reports, idle-padded to `finish`.
    pub(crate) fn reports(&self, finish: SimTime) -> Vec<HostReport> {
        self.hosts
            .iter()
            .map(|(&id, h)| {
                let mut b = *h.cpu.breakdown();
                b.pad_idle_to(finish.since(SimTime::ZERO));
                HostReport {
                    node: id,
                    breakdown: b,
                    payload: h.payload,
                    finished_at: h.finished_at.unwrap_or(finish),
                    background_done: h.background_done,
                    background_left: h.background_left,
                }
            })
            .collect()
    }

    /// Per-host low-level statistics snapshots.
    pub(crate) fn snapshots(&self) -> Vec<HostSnapshot> {
        self.hosts
            .iter()
            .map(|(&id, h)| HostSnapshot {
                node: id,
                cpu: snap_cpu(&h.cpu),
                hca_sends: h.hca.sends(),
                hca_recvs: h.hca.recvs(),
            })
            .collect()
    }

    /// Invokes a host program hook. `io` = completed request;
    /// `msg` = arrived message; neither = start.
    fn call_host(
        &mut self,
        host: NodeId,
        at: SimTime,
        io: Option<ReqId>,
        msg: Option<HostMsg>,
        bus: &mut EventBus<'_>,
    ) {
        let node = self.hosts.get_mut(&host).expect("host exists");
        if node.finished_at.is_some() {
            // Finished programs ignore late traffic (e.g. trailing
            // completion notifications).
            return;
        }
        let mut program = match node.program.take() {
            Some(p) => p,
            None => return,
        };
        advance_host(node, at);
        if msg.is_some() {
            // Poll + consume the completion.
            let instr = node.hca.config().recv_instr;
            node.cpu.compute(instr);
        }
        let mut ctx = HostCtx {
            cpu: &mut node.cpu,
            hca: &mut node.hca,
            node: host,
            os: bus.cfg.os,
            files: bus.files.meta(),
            next_req: &mut self.next_req,
            effects: Vec::new(),
        };
        match (io, &msg) {
            (Some(req), _) => program.on_io_complete(&mut ctx, req),
            (None, Some(m)) => program.on_message(&mut ctx, m),
            (None, None) => program.on_start(&mut ctx),
        }
        let effects = std::mem::take(&mut ctx.effects);
        drop(ctx);
        self.hosts.get_mut(&host).expect("host exists").program = Some(program);
        self.apply_effects(host, effects, bus);
    }

    fn apply_effects(&mut self, host: NodeId, effects: Vec<Effect>, bus: &mut EventBus<'_>) {
        for e in effects {
            match e {
                Effect::Io {
                    req,
                    file,
                    offset,
                    len,
                    dest,
                    issue_at,
                } => {
                    let tca = bus.files.meta[file.0].tca;
                    let wire = (HEADER_BYTES * 2) as u64;
                    // Root of the request's causal trace: the issue
                    // packet and everything downstream (disk service,
                    // data injection, retransmits, completion) share it.
                    let ctx = bus.probe.trace_for_req(req.0);
                    let d = bus.transmit(wire, host, tca, issue_at, ctx);
                    let timeout = bus
                        .injector
                        .as_ref()
                        .map_or(SimDuration::ZERO, |i| i.plan().request_timeout);
                    bus.reqs.insert(
                        req,
                        IoState {
                            host,
                            dest,
                            remaining: usize::MAX, // set when the read starts
                            bytes: len,
                            tca,
                            file,
                            offset,
                            got: Vec::new(),
                            lens: Vec::new(),
                            faulted: Vec::new(),
                            attempt: 0,
                            timeout,
                        },
                    );
                    bus.push(
                        d.arrival,
                        StorageEvent::IoRequestAtTca {
                            tca,
                            req,
                            file,
                            offset,
                            len,
                            dest,
                            attempt: 0,
                        },
                    );
                    // The end-to-end timeout only guards flows whose
                    // data actually crosses the fabric (and can
                    // therefore be dropped): local active-disk
                    // deliveries are reliable by construction.
                    let faultable = bus.injector.is_some()
                        && match dest {
                            Dest::HostBuf { .. } => true,
                            Dest::Mapped { node, .. } => node != tca,
                        };
                    if faultable {
                        bus.push(
                            issue_at + timeout,
                            FabricEvent::RequestTimeout { req, attempt: 0 },
                        );
                    }
                }
                Effect::Send {
                    dst,
                    handler,
                    addr,
                    data,
                    ready,
                } => {
                    self.hosts
                        .get_mut(&host)
                        .expect("host exists")
                        .payload
                        .record_out(data.len() as u64);
                    // Packetize; each packet is its own fabric
                    // transfer. The message is interned once so every
                    // chunk payload is an O(1) view.
                    let data = asan_net::Bytes::from(data);
                    let chunks: Vec<(usize, usize)> = if data.is_empty() {
                        vec![(0, 0)]
                    } else {
                        (0..data.len())
                            .step_by(MTU)
                            .map(|o| (o, (data.len() - o).min(MTU)))
                            .collect()
                    };
                    // One causal trace per message: every MTU chunk
                    // (and the handler work it triggers) shares it.
                    let ctx = bus.probe.fresh_trace();
                    for (i, (off, clen)) in chunks.into_iter().enumerate() {
                        let payload = data.slice(off..off + clen);
                        let wire = (clen + HEADER_BYTES) as u64;
                        let d = bus.transmit(wire, host, dst, ready, ctx);
                        bus.deliver(
                            host,
                            dst,
                            handler,
                            addr.wrapping_add(off as u32),
                            payload,
                            i as u32,
                            d,
                            None,
                            ctx.trace,
                        );
                    }
                }
                Effect::Finish => {
                    let node = self.hosts.get_mut(&host).expect("host exists");
                    node.finished_at = Some(node.cpu.now());
                }
            }
        }
    }
}

/// Advances `node`'s CPU to `at`, letting any co-scheduled background
/// job consume the gap as busy time before the rest is filed as idle.
fn advance_host(node: &mut HostNode, at: SimTime) {
    if at <= node.cpu.now() {
        return;
    }
    if node.background_left > SimDuration::ZERO {
        let gap = at.since(node.cpu.now());
        let take = gap.min(node.background_left);
        node.cpu.busy_until(node.cpu.now() + take);
        node.background_left -= take;
        if node.background_left == SimDuration::ZERO {
            node.background_done = Some(node.cpu.now());
        }
    }
    node.cpu.idle_until(at);
}
