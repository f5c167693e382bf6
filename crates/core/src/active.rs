//! The active switch: dispatch unit, jump table, switch CPUs, buffers.
//!
//! §3 / Figure 2: the active hardware added to a conventional
//! central-output-queue switch is a Dispatch unit (header → handler PC
//! via the jump table, buffer → ATB mapping), 16 data buffers with a
//! buffer administrator, a Send unit, and 1–4 embedded 500 MHz MIPS-like
//! switch CPUs with private 4 KB I / 1 KB D caches. Because the data and
//! control paths are separate, a handler starts as soon as the *header*
//! arrives, overlapping execution with the payload's arrival into the
//! data buffer (per-line valid bits).
//!
//! Non-active traffic never touches any of this — it flows through the
//! crossbar as in a conventional switch (modeled by
//! [`asan_net::topo::Fabric`]), which is the paper's first design goal.

use asan_cpu::{Cpu, CpuConfig};
use asan_net::{HandlerId, Packet};
use asan_net::{NodeId, MTU_U32};
use asan_sim::snap::{FixedShape, Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::stats::{Counter, TimeBreakdown};
use asan_sim::{Period, SimDuration, SimTime};

use crate::atb::Atb;
use crate::buffer::line_schedule;
use crate::dba::BufferAdmin;
use crate::handler::{Handler, HandlerCtx, MsgInfo, OutMsg, SwitchIoReq};

/// Static configuration of the active parts of a switch.
#[derive(Debug, Clone)]
pub struct ActiveSwitchConfig {
    /// Number of embedded switch CPUs (1–4 in the paper).
    pub num_cpus: usize,
    /// Per-CPU core configuration.
    pub cpu: CpuConfig,
    /// Dispatch unit latency in switch cycles (header decode, jump table
    /// lookup, ATB map, scheduling).
    pub dispatch_cycles: u64,
    /// Data buffers in the buffer file.
    pub num_buffers: usize,
    /// Send unit posting cost in switch-CPU cycles.
    pub send_unit_cycles: u64,
    /// Injection bandwidth from the send unit into the crossbar
    /// (matches the 1 GB/s port speed of §4).
    pub injection_bytes_per_sec: u64,
    /// Per-line valid bits (§3). When disabled, a handler's loads wait
    /// for the *whole* payload (store-and-forward into the buffer) —
    /// the ablation of the paper's overlap argument.
    pub valid_bit_overlap: bool,
    /// The ATB (§3). When disabled, handlers translate addresses to
    /// (buffer, offset) pairs in software, paying extra instructions on
    /// every buffer window crossing.
    pub atb_enabled: bool,
}

impl ActiveSwitchConfig {
    /// The paper's configuration with one switch CPU.
    pub fn paper() -> Self {
        ActiveSwitchConfig {
            num_cpus: 1,
            cpu: CpuConfig::switch_cpu(),
            dispatch_cycles: 8,
            num_buffers: crate::dba::NUM_BUFFERS,
            send_unit_cycles: 4,
            injection_bytes_per_sec: 1_000_000_000,
            valid_bit_overlap: true,
            atb_enabled: true,
        }
    }

    /// The multi-processor variant (§5, "Multiple Switch Processors").
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the paper's maximum of 4.
    pub fn with_cpus(n: usize) -> Self {
        assert!((1..=4).contains(&n), "the design supports 1–4 switch CPUs");
        ActiveSwitchConfig {
            num_cpus: n,
            ..ActiveSwitchConfig::paper()
        }
    }
}

/// Statistics of one active switch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActiveStats {
    /// Handler invocations dispatched.
    pub invocations: Counter,
    /// Active payload bytes consumed.
    pub bytes_in: Counter,
    /// Payload bytes emitted by handlers.
    pub bytes_out: Counter,
    /// Messages emitted by handlers.
    pub msgs_out: Counter,
    /// Switch-initiated I/O requests.
    pub io_reqs: Counter,
}

asan_sim::snap_fields!(ActiveStats {
    invocations,
    bytes_in,
    bytes_out,
    msgs_out,
    io_reqs,
});

/// Effects of dispatching one active message: what the cluster layer
/// must inject into the fabric / I/O system, and when the CPU finished.
#[derive(Debug)]
pub struct DispatchResult {
    /// Messages to transmit (their buffers are already scheduled for
    /// release as the send unit drains them).
    pub outbox: Vec<OutMsg>,
    /// Switch-initiated disk requests.
    pub io_reqs: Vec<SwitchIoReq>,
    /// When the input data buffer was granted by the buffer
    /// administrator (buffer-wait span: dispatch request → here).
    pub granted: SimTime,
    /// When the handler began executing on its CPU (after buffer grant
    /// and the dispatch-unit latency).
    pub started: SimTime,
    /// When the handler invocation completed.
    pub done: SimTime,
    /// Which CPU ran it.
    pub cpu: usize,
}

/// One active switch instance, attached to a switch node of the fabric.
#[derive(Debug)]
pub struct ActiveSwitch {
    node: NodeId,
    cfg: ActiveSwitchConfig,
    cpus: Vec<Cpu>,
    atbs: Vec<Atb>,
    dba: BufferAdmin,
    /// The jump table: handler ID → handler. `Option` so invocations can
    /// temporarily take the box (borrow discipline).
    jump: Vec<Option<Box<dyn Handler>>>,
    /// The send unit's injection port busy-until time.
    send_unit_free: SimTime,
    stats: ActiveStats,
    /// The dispatch unit's latency, `cfg.dispatch_cycles` at the CPU clock.
    dispatch_lat: SimDuration,
    /// The send unit's per-byte injection time.
    injection: Period,
}

impl std::fmt::Debug for dyn Handler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<handler>")
    }
}

impl ActiveSwitch {
    /// Creates an active switch bound to fabric node `node`.
    pub fn new(node: NodeId, cfg: ActiveSwitchConfig) -> Self {
        let warm = Cpu::new(cfg.cpu.clone());
        ActiveSwitch::with_warm_cpu(node, cfg, &warm)
    }

    /// [`ActiveSwitch::new`] with every CPU cloned from `warm`, which
    /// must be `Cpu::new(cfg.cpu)` untouched: switches of one
    /// configuration then share the cost of warming one core.
    pub(crate) fn with_warm_cpu(node: NodeId, cfg: ActiveSwitchConfig, warm: &Cpu) -> Self {
        assert!(cfg.num_cpus >= 1, "need at least one switch CPU");
        let mut jump = Vec::with_capacity(64);
        jump.resize_with(64, || None);
        ActiveSwitch {
            node,
            cpus: vec![warm.clone(); cfg.num_cpus],
            atbs: (0..cfg.num_cpus).map(|_| Atb::new()).collect(),
            dba: BufferAdmin::new(cfg.num_buffers),
            jump,
            send_unit_free: SimTime::ZERO,
            stats: ActiveStats::default(),
            dispatch_lat: SimDuration::cycles(cfg.dispatch_cycles, cfg.cpu.hz),
            injection: Period::of(cfg.injection_bytes_per_sec),
            cfg,
        }
    }

    /// The fabric node this switch occupies.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configuration.
    pub fn config(&self) -> &ActiveSwitchConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ActiveStats {
        &self.stats
    }

    /// Per-CPU busy/stall/idle breakdowns.
    pub fn cpu_breakdowns(&self) -> Vec<TimeBreakdown> {
        self.cpus.iter().map(|c| *c.breakdown()).collect()
    }

    /// The buffer administrator (for inspection).
    pub fn dba(&self) -> &BufferAdmin {
        &self.dba
    }

    /// The per-CPU ATBs (for inspection).
    pub fn atb(&self, cpu: usize) -> &Atb {
        &self.atbs[cpu]
    }

    /// The embedded switch CPUs (for statistics inspection).
    pub fn cpus(&self) -> &[Cpu] {
        &self.cpus
    }

    /// Latest local time across the switch CPUs.
    pub fn latest_cpu_time(&self) -> SimTime {
        self.cpus
            .iter()
            .map(asan_cpu::Cpu::now)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Installs `handler` in the jump table at `id`, replacing any
    /// previous entry.
    pub fn register(&mut self, id: HandlerId, handler: Box<dyn Handler>) {
        self.jump[id.as_u8() as usize] = Some(handler);
    }

    /// Whether a handler is installed at `id`.
    pub fn has_handler(&self, id: HandlerId) -> bool {
        self.jump[id.as_u8() as usize].is_some()
    }

    /// Removes and returns the handler at `id` (end of run, so apps can
    /// read back results accumulated in handler state).
    pub fn take_handler(&mut self, id: HandlerId) -> Option<Box<dyn Handler>> {
        self.jump[id.as_u8() as usize].take()
    }

    /// Seizes `count` data buffers from the start of the run, releasing
    /// them at `until` — injected DBA exhaustion that forces later
    /// dispatches through the allocation-stall path. Always leaves at
    /// least one buffer free so the pipeline cannot deadlock.
    pub fn seize_buffers(&mut self, count: usize, until: SimTime) {
        for _ in 0..count.min(self.cfg.num_buffers.saturating_sub(1)) {
            let (buf, granted) = self.dba.alloc(SimTime::ZERO);
            self.dba.release(buf, until.max(granted));
        }
    }

    /// Dispatches an arriving active message.
    ///
    /// * `header_at` — when the header reached the switch (dispatch can
    ///   begin: control and data paths are separate);
    /// * `payload_start`/`payload_end` — the payload's serialization
    ///   window, which becomes the data buffer's per-line valid times.
    ///
    /// # Panics
    ///
    /// Panics if no handler is registered for the message's handler ID.
    pub fn dispatch(
        &mut self,
        pkt: &Packet,
        header_at: SimTime,
        payload_start: SimTime,
        payload_end: SimTime,
    ) -> DispatchResult {
        let hid = pkt
            .header
            .handler
            .expect("dispatch called on a non-active message");
        assert!(
            self.has_handler(hid),
            "no handler registered for {hid} on {}",
            self.node
        );
        self.stats.invocations.inc();
        self.stats.bytes_in.add(pkt.payload.len() as u64);

        let msg = MsgInfo {
            src: pkt.header.src,
            handler: hid,
            addr: pkt.header.addr,
            len: pkt.payload.len(),
            seq: pkt.header.seq,
        };

        // The Dispatch unit: allocate a data buffer, map it in the ATB,
        // choose a CPU.
        let (buf, granted) = self.dba.alloc(header_at);
        let schedule = if self.cfg.valid_bit_overlap {
            line_schedule(pkt.payload.len(), payload_start, payload_end)
        } else {
            // Store-and-forward: nothing is readable before the last
            // byte arrived.
            vec![payload_end; pkt.payload.len().div_ceil(crate::buffer::LINE_BYTES)]
        };
        self.dba.buffer_mut(buf).fill(&pkt.payload, &schedule);

        let mut handler = self.jump[hid.as_u8() as usize].take().expect("checked");
        let cpu_idx = match handler.cpu_affinity(&msg) {
            Some(a) => a % self.cfg.num_cpus,
            None => {
                // Earliest-free CPU.
                (0..self.cpus.len())
                    .min_by_key(|&i| self.cpus[i].now())
                    .expect("at least one CPU")
            }
        };

        let window_base = msg.addr - (msg.addr % MTU_U32);
        self.atbs[cpu_idx].map(window_base, buf);

        let start = granted.max(header_at + self.dispatch_lat);
        let cpu = &mut self.cpus[cpu_idx];
        cpu.idle_until(start);

        let mut outbox = Vec::new();
        let mut io_reqs = Vec::new();
        let keep_input;
        let input_freed;
        {
            let mut ctx = HandlerCtx {
                cpu,
                dba: &mut self.dba,
                atb: &mut self.atbs[cpu_idx],
                msg,
                input: buf,
                outbox: &mut outbox,
                io_reqs: &mut io_reqs,
                switch_node: self.node,
                keep_input: false,
                input_freed: false,
                send_unit_cycles: self.cfg.send_unit_cycles,
                send_unit_free: &mut self.send_unit_free,
                injection: self.injection,
                atb_enabled: self.cfg.atb_enabled,
            };
            handler.on_message(&mut ctx);
            keep_input = ctx.keep_input;
            input_freed = ctx.input_freed;
        }
        self.jump[hid.as_u8() as usize] = Some(handler);

        let done = self.cpus[cpu_idx].now();
        if !keep_input && !input_freed {
            self.dba.release(buf, done);
            self.atbs[cpu_idx].unmap(window_base);
        }
        for m in &outbox {
            self.stats.bytes_out.add(m.data.len() as u64);
            self.stats.msgs_out.inc();
        }
        self.stats.io_reqs.add(io_reqs.len() as u64);

        DispatchResult {
            outbox,
            io_reqs,
            granted,
            started: start,
            done,
            cpu: cpu_idx,
        }
    }
}

/// The switch's dynamic state: CPUs, ATBs, buffer file, each installed
/// handler's persistent state (via [`Handler::snapshot_state`]),
/// send-unit occupancy and statistics. Restore takes a snapshot of a
/// switch with the same node, configuration, and registered handler
/// set, and rejects one whose shape (node, CPU count, jump-table
/// occupancy) differs.
impl Snap for ActiveSwitch {
    fn snapshot(&self, w: &mut SnapWriter) {
        let ActiveSwitch {
            node,
            cfg: _,
            cpus,
            atbs,
            dba,
            jump,
            send_unit_free,
            stats,
            dispatch_lat: _,
            injection: _,
        } = self;
        w.section("active");
        node.snapshot(w);
        cpus.snapshot_fixed(w);
        atbs.iter().for_each(|a| a.snapshot(w));
        dba.snapshot(w);
        for slot in jump {
            w.bool(slot.is_some());
            if let Some(h) = slot {
                h.snapshot_state(w);
            }
        }
        send_unit_free.snapshot(w);
        stats.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ActiveSwitch {
            node,
            cfg: _,
            cpus,
            atbs,
            dba,
            jump,
            send_unit_free,
            stats,
            dispatch_lat: _,
            injection: _,
        } = self;
        r.section("active")?;
        if r.read::<NodeId>()? != *node {
            return Err(SnapError::Malformed("active switch node mismatch"));
        }
        cpus.restore_fixed(r)?;
        atbs.iter_mut().try_for_each(|a| a.restore(r))?;
        dba.restore(r)?;
        for slot in jump {
            match (r.bool()?, slot.as_mut()) {
                (true, Some(h)) => h.restore_state(r)?,
                (false, None) => {}
                _ => return Err(SnapError::Malformed("jump table occupancy mismatch")),
            }
        }
        send_unit_free.restore(r)?;
        stats.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_net::{packetize, Header};

    /// A handler that counts bytes and echoes half of them to a sink.
    struct Echo {
        seen: u64,
        sink: NodeId,
    }

    impl Handler for Echo {
        fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
            let msg = ctx.msg();
            let data = ctx.payload();
            self.seen += data.len() as u64;
            ctx.compute(data.len() as u64 / 4);
            let half = &data[..data.len() / 2];
            ctx.send(self.sink, None, msg.addr, half);
        }
    }

    fn active_pkt(addr: u32, len: usize, seq: u32) -> Packet {
        let payload = vec![0xAB; len];
        Packet::new(
            Header {
                src: NodeId(1),
                dst: NodeId(0),
                len: u16::try_from(len).expect("payload bounded by MTU"),
                handler: Some(HandlerId::new(3)),
                addr,
                seq,
            },
            payload,
        )
    }

    #[test]
    fn dispatch_runs_handler_and_emits() {
        let mut sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
        sw.register(
            HandlerId::new(3),
            Box::new(Echo {
                seen: 0,
                sink: NodeId(2),
            }),
        );
        let pkt = active_pkt(0, 512, 0);
        let r = sw.dispatch(
            &pkt,
            SimTime::from_ns(100),
            SimTime::from_ns(100),
            SimTime::from_ns(612),
        );
        assert_eq!(r.outbox.len(), 1);
        assert_eq!(r.outbox[0].data.len(), 256);
        assert_eq!(r.outbox[0].dst, NodeId(2));
        // The handler read the whole payload: cannot finish before the
        // last line arrived.
        assert!(r.done >= SimTime::from_ns(612));
        assert_eq!(sw.stats().invocations.get(), 1);
        assert_eq!(sw.stats().bytes_in.get(), 512);
        assert_eq!(sw.stats().bytes_out.get(), 256);
        // The send unit releases the out buffer as it drains.
        assert_eq!(sw.dba().busy_count(r.done + SimDuration::from_us(1)), 0);
    }

    #[test]
    fn valid_bit_overlap_beats_store_and_forward() {
        // With per-line valid bits the handler finishes soon after the
        // last byte arrives; without them it could not even start until
        // then.
        let mut sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
        sw.register(
            HandlerId::new(3),
            Box::new(Echo {
                seen: 0,
                sink: NodeId(2),
            }),
        );
        // Warm the instruction cache with a few invocations (the fetch
        // model walks the whole 2 KB hot-code footprint), then measure.
        for i in 0..4u32 {
            let t = SimTime::from_us(i as u64 * 10);
            sw.dispatch(
                &active_pkt(i * 512, 512, i),
                t,
                t,
                t + SimDuration::from_ns(512),
            );
        }
        let pkt = active_pkt(4 * 512, 512, 4);
        let base = SimTime::from_us(100);
        let payload_end = base + SimDuration::from_ns(512);
        let r = sw.dispatch(&pkt, base, base, payload_end);
        // Processing cost alone (reads + compute + send) at 500 MHz is
        // ~(64 + 128 + 32 + …) cycles ≈ 500 ns; overlapped with the
        // 512 ns arrival it must finish well before arrival + cost.
        let overlap_bound = payload_end + SimDuration::from_ns(400);
        assert!(
            r.done < overlap_bound,
            "no overlap: done={:?} bound={overlap_bound:?}",
            r.done
        );
    }

    #[test]
    fn consecutive_messages_serialize_on_one_cpu() {
        let mut sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
        sw.register(
            HandlerId::new(3),
            Box::new(Echo {
                seen: 0,
                sink: NodeId(2),
            }),
        );
        let a = sw.dispatch(
            &active_pkt(0, 512, 0),
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_ns(512),
        );
        let b = sw.dispatch(
            &active_pkt(512, 512, 1),
            SimTime::from_ns(10),
            SimTime::from_ns(10),
            SimTime::from_ns(522),
        );
        assert!(b.done > a.done);
        assert_eq!(a.cpu, b.cpu);
    }

    #[test]
    fn multiple_cpus_run_in_parallel() {
        struct Pinned;
        impl Handler for Pinned {
            fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
                let _ = ctx.payload();
                ctx.compute(10_000);
            }
            fn cpu_affinity(&self, msg: &MsgInfo) -> Option<usize> {
                Some(msg.seq as usize)
            }
        }
        let mut sw2 = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::with_cpus(2));
        sw2.register(HandlerId::new(1), Box::new(Pinned));
        let mk = |seq: u32| {
            Packet::new(
                Header {
                    src: NodeId(1),
                    dst: NodeId(0),
                    len: 512,
                    handler: Some(HandlerId::new(1)),
                    addr: seq * 512,
                    seq,
                },
                vec![1; 512],
            )
        };
        let a = sw2.dispatch(&mk(0), SimTime::ZERO, SimTime::ZERO, SimTime::from_ns(512));
        let b = sw2.dispatch(&mk(1), SimTime::ZERO, SimTime::ZERO, SimTime::from_ns(512));
        assert_ne!(a.cpu, b.cpu);
        // Both ran concurrently: neither waited for the other.
        let span = SimDuration::from_ns(2); // tolerance
        assert!(b.done.saturating_since(a.done) < SimDuration::cycles(10_000, 500_000_000) + span);
    }

    #[test]
    fn handler_state_persists_across_invocations() {
        let mut sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
        sw.register(
            HandlerId::new(3),
            Box::new(Echo {
                seen: 0,
                sink: NodeId(2),
            }),
        );
        for (i, pkt) in packetize(
            NodeId(1),
            NodeId(0),
            Some(HandlerId::new(3)),
            0,
            &[5u8; 1024],
        )
        .iter()
        .enumerate()
        {
            let t = SimTime::from_us(i as u64 * 2);
            sw.dispatch(pkt, t, t, t + SimDuration::from_ns(512));
        }
        let h = sw.take_handler(HandlerId::new(3)).unwrap();
        // Downcast via a fresh trait-object read: use stats instead.
        drop(h);
        assert_eq!(sw.stats().bytes_in.get(), 1024);
        assert_eq!(sw.stats().bytes_out.get(), 512);
    }

    #[test]
    fn store_and_forward_buffers_delay_handler_completion() {
        // With valid-bit overlap disabled, the handler cannot read any
        // line before the whole payload arrived.
        let mk = |overlap: bool| {
            let mut cfg = ActiveSwitchConfig::paper();
            cfg.valid_bit_overlap = overlap;
            let mut sw = ActiveSwitch::new(NodeId(0), cfg);
            sw.register(
                HandlerId::new(3),
                Box::new(Echo {
                    seen: 0,
                    sink: NodeId(2),
                }),
            );
            // Warm the I-cache, then measure a payload with a LONG
            // arrival window so the overlap effect dominates.
            for i in 0..4u32 {
                let t = SimTime::from_us(i as u64 * 10);
                sw.dispatch(
                    &active_pkt(i * 512, 512, i),
                    t,
                    t,
                    t + SimDuration::from_ns(512),
                );
            }
            let base = SimTime::from_ms(1);
            let r = sw.dispatch(
                &active_pkt(4 * 512, 512, 4),
                base,
                base,
                base + SimDuration::from_us(100),
            );
            r.done
        };
        let with_overlap = mk(true);
        let without = mk(false);
        assert!(without >= with_overlap, "{without} < {with_overlap}");
    }

    #[test]
    fn atb_disabled_charges_software_translation() {
        // The extra software-translation instructions often hide inside
        // the valid-bit stall shadow, so compare retired instructions
        // (the cost the paper's ATB removes) rather than wall time.
        let mk = |atb: bool| {
            let mut cfg = ActiveSwitchConfig::paper();
            cfg.atb_enabled = atb;
            let mut sw = ActiveSwitch::new(NodeId(0), cfg);
            sw.register(
                HandlerId::new(3),
                Box::new(Echo {
                    seen: 0,
                    sink: NodeId(2),
                }),
            );
            for i in 0..4u32 {
                let t = SimTime::from_us(i as u64 * 10);
                sw.dispatch(
                    &active_pkt(i * 512, 512, i),
                    t,
                    t,
                    t + SimDuration::from_ns(512),
                );
            }
            sw.cpus()[0].instructions()
        };
        let with_atb = mk(true);
        let without = mk(false);
        assert!(
            without > with_atb,
            "software translation must retire extra instructions: {without} vs {with_atb}"
        );
    }

    #[test]
    #[should_panic(expected = "no handler registered")]
    fn unregistered_handler_panics() {
        let mut sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
        let pkt = active_pkt(0, 16, 0);
        sw.dispatch(&pkt, SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
    }
}
