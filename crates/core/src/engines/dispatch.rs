//! The dispatch subsystem: active switches, active TCAs, and the
//! handler-trap fallback path.
//!
//! Owns every active engine in the cluster — the switch-resident ones,
//! the optional active-TCA engines ("two-level active I/O", §6), and
//! the host-side software engines that inherit handlers disabled by an
//! injected trap. Also owns the per-request reorder buffers that keep
//! mapped storage flows in sequence order under fault injection.

use std::collections::{BTreeMap, BTreeSet};

use asan_cpu::Cpu;
use asan_net::{HandlerId, NodeId, HEADER_BYTES};
use asan_sim::faults::{BufferSeize, FaultInjector};
use asan_sim::snap::{FixedShape, Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::trace::TraceCtx;
use asan_sim::SimTime;

use crate::active::{ActiveSwitch, ActiveSwitchConfig, DispatchResult};
use crate::cluster::{ClusterConfig, SwitchReport};
use crate::error::SimError;
use crate::events::{DispatchEvent, EventBus, FabricEvent, FlowState, ReqId, StorageEvent};
use crate::handler::Handler;
use crate::stats::{snap_cpu, SwitchSnapshot};

/// The dispatch subsystem engine: every active engine plus the trap /
/// fallback machinery.
#[derive(Debug, Default)]
pub struct DispatchEngine {
    switches: BTreeMap<NodeId, ActiveSwitch>,
    /// Optional active engines on TCA nodes: "a two-level active I/O
    /// system" (§6) — intelligent disks below the active switches.
    active_tcas: BTreeMap<NodeId, ActiveSwitch>,
    /// `(switch, handler)` pairs whose jump-table entry was disabled by
    /// a trap; their streams route to the fallback host.
    trapped: BTreeSet<(NodeId, HandlerId)>,
    /// Host-side software engines holding migrated handlers, keyed by
    /// the original switch so handler state stays per-switch.
    fallback_engines: BTreeMap<NodeId, ActiveSwitch>,
    /// The host that runs fallback engines (lowest-numbered host).
    fallback_host: Option<NodeId>,
    /// Memoized configuration for host-side fallback engines, built
    /// once on first trap instead of recloning `ActiveCfg`/`CpuCfg`
    /// inside the event loop for every trapping switch.
    fallback_cfg: Option<ActiveSwitchConfig>,
    /// Reorder buffers for mapped flows under faults.
    flows: BTreeMap<ReqId, FlowState>,
}

impl DispatchEngine {
    /// Handles one dispatch event popped at time `t`.
    pub(crate) fn on_event(
        &mut self,
        t: SimTime,
        ev: DispatchEvent,
        bus: &mut EventBus<'_>,
    ) -> Result<(), SimError> {
        match ev {
            DispatchEvent::PacketToSwitch {
                sw,
                pkt,
                payload_start,
                payload_end,
                io_req,
                trace,
            } => match io_req {
                // Mapped storage data under a fault plan: release to
                // the handler strictly in sequence order.
                Some(req) => self.mapped_arrival(req, sw, pkt, t, bus, trace),
                None => self.dispatch_active(sw, &pkt, t, payload_start, payload_end, bus, trace),
            },
            DispatchEvent::FallbackDispatch { sw, pkt, trace } => {
                let fb = self.fallback_host.expect("fallback host exists");
                let result = self
                    .fallback_engines
                    .get_mut(&sw)
                    .expect("fallback engine exists")
                    .dispatch(&pkt, t, t, t);
                bus.injector.as_mut().expect("armed").stats.fallback_packets += 1;
                Self::record_dispatch_spans(sw, &pkt, t, &result, bus, trace);
                self.apply_dispatch_result(sw, fb, pkt.header.seq, result, bus, trace);
            }
        }
        Ok(())
    }

    /// Adds one active switch engine per id, every switch CPU cloned
    /// from one warmed core.
    pub(crate) fn add_switches(&mut self, ids: &[NodeId], cfg: &ActiveSwitchConfig) {
        let warm = Cpu::new(cfg.cpu.clone());
        for &id in ids {
            self.switches
                .insert(id, ActiveSwitch::with_warm_cpu(id, cfg.clone(), &warm));
        }
    }

    /// Registers `handler` under `id` on switch `node`.
    pub(crate) fn register(
        &mut self,
        node: NodeId,
        id: HandlerId,
        handler: Box<dyn Handler>,
    ) -> Result<(), SimError> {
        self.switches
            .get_mut(&node)
            .ok_or(SimError::NotASwitch(node))?
            .register(id, handler);
        Ok(())
    }

    /// Places one handler per switch of an aggregation tree: the
    /// placement policy decided *where* (see [`crate::placement`]),
    /// this installs the handlers there, ascending node id.
    pub(crate) fn place(
        &mut self,
        tree: &crate::placement::AggregationTree,
        id: HandlerId,
        make: &mut dyn FnMut(NodeId, &crate::placement::AggNode) -> Box<dyn Handler>,
    ) -> Result<(), SimError> {
        for (&sw, role) in &tree.nodes {
            self.register(sw, id, make(sw, role))?;
        }
        Ok(())
    }

    /// Removes a handler: the original engine first, then any host-side
    /// fallback engine a trap migrated it to.
    pub(crate) fn take_handler(&mut self, node: NodeId, id: HandlerId) -> Option<Box<dyn Handler>> {
        if let Some(h) = self
            .switches
            .get_mut(&node)
            .and_then(|s| s.take_handler(id))
        {
            return Some(h);
        }
        if let Some(h) = self
            .active_tcas
            .get_mut(&node)
            .and_then(|e| e.take_handler(id))
        {
            return Some(h);
        }
        self.fallback_engines.get_mut(&node)?.take_handler(id)
    }

    /// Installs an active engine on TCA node `node`.
    pub(crate) fn enable_active_tca(&mut self, node: NodeId, cfg: ActiveSwitchConfig) {
        self.active_tcas.insert(node, ActiveSwitch::new(node, cfg));
    }

    /// Registers `handler` on an active TCA's engine.
    pub(crate) fn register_tca_handler(
        &mut self,
        node: NodeId,
        id: HandlerId,
        handler: Box<dyn Handler>,
    ) -> Result<(), SimError> {
        self.active_tcas
            .get_mut(&node)
            .ok_or(SimError::TcaNotActive(node))?
            .register(id, handler);
        Ok(())
    }

    /// The active switch at `node`, if any.
    pub(crate) fn switch(&self, node: NodeId) -> Option<&ActiveSwitch> {
        self.switches.get(&node)
    }

    /// Sets the host that runs fallback engines under a fault plan.
    pub(crate) fn set_fallback_host(&mut self, host: Option<NodeId>) {
        self.fallback_host = host;
    }

    /// Seizes `seize.count` buffers on every active engine (switches,
    /// then active TCAs, each in ascending node order) and books the
    /// injected/degraded counts.
    pub(crate) fn arm_buffer_seize(&mut self, seize: BufferSeize, inj: &mut FaultInjector) {
        let mut seized = 0u64;
        for engine in self
            .switches
            .values_mut()
            .chain(self.active_tcas.values_mut())
        {
            seized += seize
                .count
                .min(engine.config().num_buffers.saturating_sub(1)) as u64;
            engine.seize_buffers(seize.count, seize.release_at);
        }
        let s = &mut inj.stats.buffer_seize;
        s.injected += seized;
        s.degraded += seized;
    }

    /// Per-switch reports, idle-padded to `finish`. A trapped handler's
    /// work continued on a host-side fallback engine; its counters
    /// still belong to the original switch logically.
    pub(crate) fn reports(&self, finish: SimTime) -> Vec<SwitchReport> {
        self.switches
            .iter()
            .map(|(&id, s)| {
                let fb = self.fallback_engines.get(&id);
                let mut bs = s.cpu_breakdowns();
                for b in &mut bs {
                    b.pad_idle_to(finish.since(SimTime::ZERO));
                }
                SwitchReport {
                    node: id,
                    cpu_breakdowns: bs,
                    invocations: s.stats().invocations.get()
                        + fb.map_or(0, |f| f.stats().invocations.get()),
                    bytes_in: s.stats().bytes_in.get() + fb.map_or(0, |f| f.stats().bytes_in.get()),
                    bytes_out: s.stats().bytes_out.get()
                        + fb.map_or(0, |f| f.stats().bytes_out.get()),
                }
            })
            .collect()
    }

    /// Per-switch low-level statistics snapshots (fallback counters
    /// folded into their original switch, as in [`Self::reports`]).
    pub(crate) fn snapshots(&self) -> Vec<SwitchSnapshot> {
        self.switches
            .iter()
            .map(|(&id, s)| {
                let fb = self.fallback_engines.get(&id);
                SwitchSnapshot {
                    node: id,
                    invocations: s.stats().invocations.get()
                        + fb.map_or(0, |f| f.stats().invocations.get()),
                    bytes_in: s.stats().bytes_in.get() + fb.map_or(0, |f| f.stats().bytes_in.get()),
                    bytes_out: s.stats().bytes_out.get()
                        + fb.map_or(0, |f| f.stats().bytes_out.get()),
                    buffer_allocs: s.dba().allocs(),
                    buffer_waits: s.dba().alloc_waits(),
                    buffer_peak: s.dba().occupancy().max().unwrap_or(0),
                    atb_hits: (0..s.config().num_cpus).map(|i| s.atb(i).hits()).sum(),
                    atb_misses: (0..s.config().num_cpus).map(|i| s.atb(i).misses()).sum(),
                    cpus: s.cpus().iter().map(snap_cpu).collect(),
                }
            })
            .collect()
    }

    /// Writes the engine's dynamic state: the fallback host, the trap
    /// set, every active engine (switches, active TCAs, fallback
    /// engines), and the per-request reorder buffers.
    pub(crate) fn snapshot(&self, w: &mut SnapWriter) {
        let DispatchEngine {
            switches,
            active_tcas,
            trapped,
            fallback_engines,
            fallback_host,
            fallback_cfg: _,
            flows,
        } = self;
        w.section("dispatch");
        w.opt_u64(fallback_host.map(|n| u64::from(n.0)));
        w.usize(trapped.len());
        for (sw, hid) in trapped {
            sw.snapshot(w);
            w.u8(hid.as_u8());
        }
        switches.snapshot_fixed(w);
        active_tcas.snapshot_fixed(w);
        fallback_engines.snapshot_fixed(w);
        flows.snapshot(w);
    }

    /// Overwrites the engine's dynamic state from a snapshot taken of
    /// an identically built engine (same switches, active TCAs, and
    /// registered handlers).
    ///
    /// Handler traps are replayed first: each `(switch, handler)` pair
    /// in the snapshotted trap set has its (freshly re-registered)
    /// handler migrated from the original engine to a host-side
    /// fallback engine — exactly as the live trap did — so jump-table
    /// occupancy matches before engine state is overwritten.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the stream is malformed or the
    /// engine set does not match.
    pub(crate) fn restore(
        &mut self,
        r: &mut SnapReader<'_>,
        cfg: &ClusterConfig,
    ) -> Result<(), SnapError> {
        let DispatchEngine {
            switches,
            active_tcas,
            trapped,
            fallback_engines,
            fallback_host,
            fallback_cfg,
            flows,
        } = self;
        r.section("dispatch")?;
        *fallback_host = match r.opt_u64()? {
            Some(v) => Some(NodeId(
                u16::try_from(v).map_err(|_| SnapError::Malformed("fallback host id"))?,
            )),
            None => None,
        };
        let ntrap = r.len_prefix()?;
        for _ in 0..ntrap {
            let sw: NodeId = r.read()?;
            let raw = r.u8()?;
            if raw >= 64 {
                return Err(SnapError::Malformed("trapped handler id out of range"));
            }
            let hid = HandlerId::new(raw);
            if trapped.last().is_some_and(|&last| last >= (sw, hid)) {
                return Err(SnapError::Malformed("trapped handlers out of order"));
            }
            let handler = switches
                .get_mut(&sw)
                .or_else(|| active_tcas.get_mut(&sw))
                .and_then(|e| e.take_handler(hid))
                .ok_or(SnapError::Malformed("trapped handler not registered"))?;
            let fallback_cfg = fallback_cfg.get_or_insert_with(|| {
                let mut fcfg = cfg.active.clone();
                fcfg.cpu = cfg.host_cpu.clone();
                fcfg.num_cpus = 1;
                fcfg.dispatch_cycles = 64;
                fcfg
            });
            fallback_engines
                .entry(sw)
                .or_insert_with(|| ActiveSwitch::new(sw, fallback_cfg.clone()))
                .register(hid, handler);
            trapped.insert((sw, hid));
        }
        switches.restore_fixed(r)?;
        active_tcas.restore_fixed(r)?;
        fallback_engines.restore_fixed(r)?;
        flows.restore(r)
    }

    /// One mapped storage data packet arrived at an active engine under
    /// a fault plan: dedup, recovery accounting, in-order release
    /// through the reorder buffer, and completion detection.
    fn mapped_arrival(
        &mut self,
        req: ReqId,
        sw: NodeId,
        pkt: asan_net::Packet,
        t: SimTime,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        let seq = pkt.header.seq as usize;
        let Some(st) = bus.reqs.get_mut(&req) else {
            return; // late duplicate after completion
        };
        if st.got[seq] {
            return; // duplicate delivery
        }
        st.got[seq] = true;
        let cat = std::mem::take(&mut st.faulted[seq]);
        let all = st.got.iter().all(|&g| g);
        let (host, tca) = (st.host, st.tca);
        bus.note_recovered(cat);
        let flow = self.flows.entry(req).or_default();
        flow.buffered.insert(pkt.header.seq, pkt);
        let mut release = Vec::new();
        while let Some(p) = flow.buffered.remove(&flow.next_seq) {
            flow.next_seq += 1;
            release.push(p);
        }
        for p in release {
            // Store-and-forward under faults: the whole payload is
            // present by the time the handler runs. Every packet of the
            // flow shares the request's trace.
            self.dispatch_active(sw, &p, t, t, t, bus, trace);
        }
        if all {
            self.flows.remove(&req);
            bus.push(t, FabricEvent::CompletionNotice { tca, host, req });
        }
    }

    /// Dispatches one active packet on the engine at `sw`, first
    /// consulting the injector's handler-trap schedule. A trapped
    /// handler is disabled in the switch's jump table and migrated —
    /// with its accumulated state — to a software engine on the
    /// fallback host; the stream's packets then cross the fabric to
    /// that host (graceful degradation: slower, still correct).
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one PacketToSwitch event, passed unpacked"
    )]
    fn dispatch_active(
        &mut self,
        sw: NodeId,
        pkt: &asan_net::Packet,
        t: SimTime,
        payload_start: SimTime,
        payload_end: SimTime,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        if bus.injector.is_some() {
            if let Some(hid) = pkt.header.handler {
                if self.trapped.contains(&(sw, hid)) {
                    self.forward_to_fallback(sw, pkt.clone(), t, bus, trace);
                    return;
                }
                let installed = self
                    .switches
                    .get(&sw)
                    .or_else(|| self.active_tcas.get(&sw))
                    .is_some_and(|e| e.has_handler(hid));
                if installed
                    && bus
                        .injector
                        .as_mut()
                        .expect("armed")
                        .should_trap(sw.0, hid.as_u8())
                {
                    let handler = self
                        .switches
                        .get_mut(&sw)
                        .or_else(|| self.active_tcas.get_mut(&sw))
                        .and_then(|e| e.take_handler(hid))
                        .expect("trapped handler installed");
                    let fallback_cfg = self.fallback_cfg.get_or_insert_with(|| {
                        // Software demultiplexing on a host CPU: one
                        // engine, slower dispatch, same handler model.
                        let mut fcfg = bus.cfg.active.clone();
                        fcfg.cpu = bus.cfg.host_cpu.clone();
                        fcfg.num_cpus = 1;
                        fcfg.dispatch_cycles = 64;
                        fcfg
                    });
                    self.fallback_engines
                        .entry(sw)
                        .or_insert_with(|| ActiveSwitch::new(sw, fallback_cfg.clone()))
                        .register(hid, handler);
                    self.trapped.insert((sw, hid));
                    bus.injector
                        .as_mut()
                        .expect("armed")
                        .stats
                        .handler_trap
                        .degraded += 1;
                    self.forward_to_fallback(sw, pkt.clone(), t, bus, trace);
                    return;
                }
            }
        }
        let engine = self
            .switches
            .get_mut(&sw)
            .or_else(|| self.active_tcas.get_mut(&sw))
            .expect("active engine exists");
        let result = engine.dispatch(pkt, t, payload_start, payload_end);
        Self::record_dispatch_spans(sw, pkt, t, &result, bus, trace);
        self.apply_dispatch_result(sw, sw, pkt.header.seq, result, bus, trace);
    }

    /// Reports one invocation's handler-occupancy and buffer spans to
    /// the probe, on the triggering packet's causal trace. The buffer
    /// span covers the dispatch window (grant → invocation done); a
    /// handler that keeps its input buffer holds it longer, which the
    /// occupancy gauge in the DBA tracks separately.
    fn record_dispatch_spans(
        sw: NodeId,
        pkt: &asan_net::Packet,
        header_at: SimTime,
        result: &DispatchResult,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        let ctx = TraceCtx { trace, parent: 0 };
        let bytes = pkt.payload.len() as u64;
        bus.probe
            .handler(sw, result.started, result.done, bytes, ctx);
        bus.probe.buffer(
            sw,
            result.granted,
            result.done,
            result.granted.saturating_since(header_at),
            bytes,
            ctx,
        );
    }

    /// Forwards a packet for a trapped handler from its switch to the
    /// fallback host over the fabric (the measurable cost of
    /// degradation): one extra wire crossing plus the OS software-demux
    /// cost of receiving a packet the switch hardware no longer handles.
    fn forward_to_fallback(
        &mut self,
        sw: NodeId,
        pkt: asan_net::Packet,
        t: SimTime,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        let fb = self.fallback_host.expect("fault plan requires a host");
        let ctx = TraceCtx { trace, parent: 0 };
        let d = bus.transmit(pkt.wire_bytes(), sw, fb, t, ctx);
        let demux = bus.cfg.os.per_request;
        bus.push(
            d.arrival + demux,
            DispatchEvent::FallbackDispatch { sw, pkt, trace },
        );
    }

    /// Applies a dispatch result: transmits the handler's output
    /// messages and forwards its disk requests. `origin` names the
    /// logical engine in delivered messages; `from` is the node the
    /// bytes physically leave (these differ under host fallback).
    fn apply_dispatch_result(
        &mut self,
        origin: NodeId,
        from: NodeId,
        seq: u32,
        result: DispatchResult,
        bus: &mut EventBus<'_>,
        trace: u64,
    ) {
        // Everything the handler emits — output messages and posted
        // disk requests — stays on the triggering packet's trace.
        let ctx = TraceCtx { trace, parent: 0 };
        for m in result.outbox {
            let d = if m.dst == from {
                // Output for the very node the engine runs on: local.
                asan_net::Delivery {
                    header_at: m.ready,
                    payload_start: m.ready,
                    arrival: m.ready,
                    hops: 0,
                }
            } else {
                let wire = (m.data.len() + HEADER_BYTES) as u64;
                bus.transmit(wire, from, m.dst, m.ready, ctx)
            };
            bus.deliver(
                origin,
                m.dst,
                m.handler,
                m.addr,
                m.data.into(),
                seq,
                d,
                None,
                trace,
            );
        }
        for r in result.io_reqs {
            if r.tca == from {
                // An active TCA requesting its own disks: the request
                // never leaves the node.
                bus.push(r.ready, StorageEvent::SwitchIoAtTca { r, attempt: 0 });
            } else {
                let wire = (HEADER_BYTES * 2) as u64;
                let d = bus.transmit(wire, from, r.tca, r.ready, ctx);
                bus.push(d.arrival, StorageEvent::SwitchIoAtTca { r, attempt: 0 });
            }
        }
    }
}
