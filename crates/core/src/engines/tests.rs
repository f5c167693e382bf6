//! Per-engine unit tests: each engine is driven standalone with a
//! scripted event sequence over a hand-built [`EventBus`], asserting on
//! the follow-up events it schedules and the shared state it mutates —
//! no full cluster run involved.

use std::collections::{BTreeMap, BTreeSet};

use asan_net::topo::{SwitchSpec, TopologyBuilder};
use asan_net::{Fabric, HandlerId, LinkConfig, NodeId, MTU};
use asan_sim::faults::FaultInjector;
use asan_sim::sched::Scheduler;
use asan_sim::{SimDuration, SimTime};

use crate::cluster::ClusterConfig;
use crate::events::{
    Dest, DispatchEvent, Event, EventBus, FabricEvent, FileId, FileMeta, FileStore, HostEvent,
    HostMsg, IoState, ReqId, StorageEvent,
};
use crate::handler::{Handler, HandlerCtx};
use crate::metrics::Probe;

use super::{DispatchEngine, FabricEngine, HostCtx, HostEngine, HostProgram, StorageEngine};

/// A one-host/one-switch/one-TCA bus rig: everything an [`EventBus`]
/// lends out, plus the node IDs, so a single engine can be driven in
/// isolation.
struct Rig {
    sched: Scheduler<Event>,
    fabric: Fabric,
    injector: Option<FaultInjector>,
    reqs: BTreeMap<ReqId, IoState>,
    files: FileStore,
    cfg: ClusterConfig,
    active_tca_nodes: BTreeSet<NodeId>,
    probe: Probe,
    host: NodeId,
    host2: NodeId,
    sw: NodeId,
    tca: NodeId,
}

impl Rig {
    fn new() -> Self {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch(SwitchSpec::paper());
        let host = b.add_host();
        let host2 = b.add_host();
        let tca = b.add_tca();
        b.connect(host, sw, LinkConfig::paper());
        b.connect(host2, sw, LinkConfig::paper());
        b.connect(tca, sw, LinkConfig::paper());
        Rig {
            sched: Scheduler::new(),
            fabric: b.build(),
            injector: None,
            reqs: BTreeMap::new(),
            files: FileStore::default(),
            cfg: ClusterConfig::paper(),
            active_tca_nodes: BTreeSet::new(),
            probe: Probe::default(),
            host,
            host2,
            sw,
            tca,
        }
    }

    fn bus(&mut self) -> EventBus<'_> {
        EventBus {
            sched: &mut self.sched,
            fabric: &mut self.fabric,
            injector: &mut self.injector,
            reqs: &mut self.reqs,
            files: &mut self.files,
            cfg: &self.cfg,
            active_tca_nodes: &self.active_tca_nodes,
            probe: &mut self.probe,
        }
    }

    /// Stores a `len`-byte file on the rig's TCA at disk offset 0.
    fn add_file(&mut self, len: usize) -> FileId {
        self.files.push(
            FileMeta {
                tca: self.tca,
                len: len as u64,
                disk_offset: 0,
            },
            vec![0xAB; len].into(),
        )
    }

    /// A fresh in-flight request entry, as the host engine would record
    /// for a plain buffered read.
    fn io_state(&self, bytes: u64) -> IoState {
        IoState {
            host: self.host,
            dest: Dest::HostBuf { addr: 0x100 },
            remaining: usize::MAX,
            bytes,
            tca: self.tca,
            file: FileId(0),
            offset: 0,
            got: Vec::new(),
            lens: Vec::new(),
            faulted: Vec::new(),
            attempt: 0,
            timeout: SimDuration::ZERO,
        }
    }

    /// Pops every scheduled event, in deterministic order.
    fn drain(&mut self) -> Vec<(SimTime, Event)> {
        let mut out = Vec::new();
        while let Some(e) = self.sched.pop() {
            out.push(e);
        }
        out
    }
}

/// Reads one block on start, nothing more.
struct ReadOnStart {
    file: FileId,
    len: u64,
}

impl HostProgram for ReadOnStart {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.read_file(self.file, 0, self.len, Dest::HostBuf { addr: 0x100 });
    }
}

#[test]
fn host_engine_start_issues_read_and_tracks_request() {
    let mut rig = Rig::new();
    let file = rig.add_file(8192);
    let mut eng = HostEngine::default();
    eng.add_hosts(&[rig.host], &rig.cfg);
    eng.set_program(rig.host, Box::new(ReadOnStart { file, len: 4096 }))
        .unwrap();
    eng.on_event(SimTime::ZERO, HostEvent::Start(rig.host), &mut rig.bus())
        .unwrap();

    // The request landed in the shared in-flight table.
    assert_eq!(rig.reqs.len(), 1);
    let st = &rig.reqs[&ReqId(0)];
    assert_eq!(st.host, rig.host);
    assert_eq!(st.tca, rig.tca);
    assert_eq!(st.bytes, 4096);

    // Exactly one follow-up: the control packet arriving at the TCA,
    // after real wire time (no fault plan, so no watchdog timer).
    let evs = rig.drain();
    assert_eq!(evs.len(), 1);
    let (at, ev) = &evs[0];
    assert!(*at > SimTime::ZERO, "control packet pays wire time");
    match ev {
        Event::Storage(StorageEvent::IoRequestAtTca {
            tca,
            req,
            len,
            attempt,
            ..
        }) => {
            assert_eq!(*tca, rig.tca);
            assert_eq!(*req, ReqId(0));
            assert_eq!(*len, 4096);
            assert_eq!(*attempt, 0);
        }
        other => panic!("expected IoRequestAtTca, got {other:?}"),
    }
}

/// Sends one MTU-crossing message to a peer host, then finishes.
struct SendAndQuit {
    peer: NodeId,
    len: usize,
}

impl HostProgram for SendAndQuit {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.send(self.peer, None, 0, vec![7; self.len]);
        ctx.finish();
    }
}

#[test]
fn host_engine_send_packetizes_per_mtu_and_finishes() {
    let mut rig = Rig::new();
    let mut eng = HostEngine::default();
    eng.add_hosts(&[rig.host], &rig.cfg);
    eng.set_program(
        rig.host,
        Box::new(SendAndQuit {
            peer: rig.host2,
            len: MTU + 10,
        }),
    )
    .unwrap();
    eng.on_event(SimTime::ZERO, HostEvent::Start(rig.host), &mut rig.bus())
        .unwrap();

    let finish = eng.finish_time();
    assert!(finish > SimTime::ZERO, "program declared itself finished");

    // One message over MTU ⇒ two packets, sequenced, full payload.
    let evs = rig.drain();
    let mut lens = Vec::new();
    for (i, (_, ev)) in evs.iter().enumerate() {
        match ev {
            Event::Host(HostEvent::PacketToHost { host, msg, io_req }) => {
                assert_eq!(*host, rig.host2);
                assert_eq!(msg.src, rig.host);
                assert_eq!(usize::try_from(msg.seq), Ok(i));
                assert!(io_req.is_none());
                lens.push(msg.data.len());
            }
            other => panic!("expected PacketToHost, got {other:?}"),
        }
    }
    assert_eq!(lens, vec![MTU, 10]);

    // The send is booked as outbound host payload.
    let reports = eng.reports(finish);
    let hr = reports.iter().find(|h| h.node == rig.host).unwrap();
    assert_eq!(hr.payload.bytes_out, (MTU + 10) as u64);
}

#[test]
fn host_engine_completes_request_after_last_packet() {
    let mut rig = Rig::new();
    let mut eng = HostEngine::default();
    eng.add_hosts(&[rig.host], &rig.cfg);
    let req = ReqId(3);
    let mut st = rig.io_state(2 * 1024);
    st.remaining = 2;
    rig.reqs.insert(req, st);

    let (host, tca) = (rig.host, rig.tca);
    let arrival = move |seq: u32| HostEvent::PacketToHost {
        host,
        msg: HostMsg {
            src: tca,
            handler: None,
            addr: 0,
            data: vec![0; 1024].into(),
            seq,
        },
        io_req: Some(req),
    };

    // First of two packets: request stays open, nothing scheduled.
    eng.on_event(SimTime::from_ns(100), arrival(0), &mut rig.bus())
        .unwrap();
    assert_eq!(rig.reqs[&req].remaining, 1);
    assert!(rig.sched.is_empty());

    // Last packet: IoComplete fires after the HCA receive latency.
    eng.on_event(SimTime::from_ns(200), arrival(1), &mut rig.bus())
        .unwrap();
    let evs = rig.drain();
    assert_eq!(evs.len(), 1);
    assert!(evs[0].0 > SimTime::from_ns(200));
    assert!(matches!(
        evs[0].1,
        Event::Host(HostEvent::IoComplete { host, req: r }) if host == rig.host && r == req
    ));

    // Both DMA'd stripes count as inbound payload.
    let reports = eng.reports(SimTime::from_ns(200));
    let hr = reports.iter().find(|h| h.node == rig.host).unwrap();
    assert_eq!(hr.payload.bytes_in, 2 * 1024);
}

#[test]
fn fabric_engine_completion_notice_crosses_wire_to_io_complete() {
    let mut rig = Rig::new();
    let mut eng = FabricEngine;
    let t = SimTime::from_us(5);
    eng.on_event(
        t,
        FabricEvent::CompletionNotice {
            tca: rig.tca,
            host: rig.host,
            req: ReqId(9),
        },
        &mut rig.bus(),
    )
    .unwrap();
    let evs = rig.drain();
    assert_eq!(evs.len(), 1);
    assert!(evs[0].0 > t, "the notice pays header wire time");
    assert!(matches!(
        evs[0].1,
        Event::Host(HostEvent::IoComplete { host, req }) if host == rig.host && req == ReqId(9)
    ));
}

#[test]
fn fabric_engine_injects_and_delivers_by_node_kind() {
    let mut rig = Rig::new();
    let mut eng = FabricEngine;
    let inject = |src: NodeId, dst: NodeId| FabricEvent::InjectIoPacket {
        src,
        dst,
        handler: None,
        addr: 0,
        payload: vec![0xEE; 256].into(),
        seq: 0,
        io_req: None,
        trace: 0,
    };
    // To a host: arrives as a host packet carrying the payload.
    eng.on_event(SimTime::ZERO, inject(rig.tca, rig.host), &mut rig.bus())
        .unwrap();
    // To a plain (non-active) TCA: arrives as a raw archive write.
    eng.on_event(SimTime::ZERO, inject(rig.host, rig.tca), &mut rig.bus())
        .unwrap();
    let evs = rig.drain();
    assert_eq!(evs.len(), 2);
    assert!(evs.iter().any(|(_, ev)| matches!(
        ev,
        Event::Host(HostEvent::PacketToHost { host, msg, .. }) if *host == rig.host && msg.data.len() == 256
    )));
    assert!(evs.iter().any(|(_, ev)| matches!(
        ev,
        Event::Storage(StorageEvent::PacketToTca { tca, bytes }) if *tca == rig.tca && *bytes == 256
    )));
}

#[test]
fn storage_engine_turns_request_into_per_mtu_packet_schedule() {
    let mut rig = Rig::new();
    let len = 8192u64;
    let file = rig.add_file(usize::try_from(len).expect("a file length"));
    let req = ReqId(0);
    let st = rig.io_state(len);
    rig.reqs.insert(req, st);

    let mut eng = StorageEngine::default();
    eng.add_tca(rig.tca, &rig.cfg);
    eng.on_event(
        SimTime::ZERO,
        StorageEvent::IoRequestAtTca {
            tca: rig.tca,
            req,
            file,
            offset: 0,
            len,
            dest: Dest::HostBuf { addr: 0x100 },
            attempt: 0,
        },
        &mut rig.bus(),
    )
    .unwrap();

    let evs = rig.drain();
    // Host-destined data: every packet is a tracked fabric injection at
    // its disk-schedule ready time, and the expected stripe count was
    // recorded on the request.
    assert_eq!(rig.reqs[&req].remaining, evs.len());
    let mut total = 0usize;
    let mut last = SimTime::ZERO;
    for (i, (ready, ev)) in evs.iter().enumerate() {
        assert!(*ready >= last, "ready times are monotone");
        last = *ready;
        match ev {
            Event::Fabric(FabricEvent::InjectIoPacket {
                src,
                dst,
                payload,
                seq,
                io_req,
                ..
            }) => {
                assert_eq!(*src, rig.tca);
                assert_eq!(*dst, rig.host);
                assert_eq!(usize::try_from(*seq), Ok(i));
                assert_eq!(*io_req, Some(req));
                assert!(payload.len() <= MTU);
                total += payload.len();
            }
            other => panic!("expected InjectIoPacket, got {other:?}"),
        }
    }
    assert_eq!(total as u64, len, "every byte of the read is scheduled");
}

#[test]
fn storage_engine_aggregates_archive_writes() {
    let mut rig = Rig::new();
    let mut eng = StorageEngine::default();
    eng.add_tca(rig.tca, &rig.cfg);
    // Nothing pending: flush is the identity on the drain time.
    assert_eq!(eng.flush(SimTime::ZERO, &mut rig.probe), SimTime::ZERO);
    // 63 KB + 1 KB cross the 64 KB aggregation chunk: the write is
    // issued eagerly at arrival, and flush() reports its completion.
    for bytes in [63 * 1024, 1024] {
        eng.on_event(
            SimTime::ZERO,
            StorageEvent::PacketToTca {
                tca: rig.tca,
                bytes,
            },
            &mut rig.bus(),
        )
        .unwrap();
    }
    assert!(eng.flush(SimTime::ZERO, &mut rig.probe) > SimTime::ZERO);

    // A trailing sub-chunk residue is written out by flush() itself.
    let mut eng2 = StorageEngine::default();
    eng2.add_tca(rig.tca, &rig.cfg);
    eng2.on_event(
        SimTime::ZERO,
        StorageEvent::PacketToTca {
            tca: rig.tca,
            bytes: 10 * 1024,
        },
        &mut rig.bus(),
    )
    .unwrap();
    assert!(eng2.flush(SimTime::ZERO, &mut rig.probe) > SimTime::ZERO);
}

/// Charges per-byte stream work and forwards a 4-byte digest home.
struct Shrink {
    home: NodeId,
}

impl Handler for Shrink {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        let data = ctx.payload();
        ctx.charge_stream(data.len(), 2);
        ctx.send(self.home, None, 0, &data[..4]);
    }
}

#[test]
fn dispatch_engine_invokes_handler_and_routes_its_output() {
    let mut rig = Rig::new();
    let mut eng = DispatchEngine::default();
    eng.add_switches(&[rig.sw], &rig.cfg.active);
    eng.register(
        rig.sw,
        HandlerId::new(1),
        Box::new(Shrink { home: rig.host }),
    )
    .unwrap();

    let pkt = asan_net::Packet::new(
        asan_net::Header {
            src: rig.host2,
            dst: rig.sw,
            len: 64,
            handler: Some(HandlerId::new(1)),
            addr: 0,
            seq: 0,
        },
        vec![0x11; 64],
    );
    let t = SimTime::from_us(1);
    eng.on_event(
        t,
        DispatchEvent::PacketToSwitch {
            sw: rig.sw,
            pkt,
            payload_start: t,
            payload_end: t,
            io_req: None,
            trace: 0,
        },
        &mut rig.bus(),
    )
    .unwrap();

    // The switch engine ran the handler over the real bytes…
    let s = eng.switch(rig.sw).unwrap();
    assert_eq!(s.stats().invocations.get(), 1);
    assert_eq!(s.stats().bytes_in.get(), 64);
    assert_eq!(s.stats().bytes_out.get(), 4);

    // …and its 4-byte output crossed the fabric to the home host.
    let evs = rig.drain();
    assert_eq!(evs.len(), 1);
    match &evs[0].1 {
        Event::Host(HostEvent::PacketToHost { host, msg, io_req }) => {
            assert_eq!(*host, rig.host);
            assert_eq!(msg.src, rig.sw, "messages carry the logical origin");
            assert_eq!(&*msg.data, &[0x11; 4]);
            assert!(io_req.is_none());
        }
        other => panic!("expected PacketToHost, got {other:?}"),
    }
}

/// Every scheduled event runs exactly one engine's `on_event`, so a
/// `.clone()` there is a per-event allocation or payload copy; payloads
/// are [`asan_net::Bytes`] so the handlers can share them instead.
#[test]
fn on_event_bodies_do_not_clone() {
    for (file, src) in [
        ("host.rs", include_str!("host.rs")),
        ("fabric.rs", include_str!("fabric.rs")),
        ("dispatch.rs", include_str!("dispatch.rs")),
        ("storage.rs", include_str!("storage.rs")),
    ] {
        let body = on_event_body(src).unwrap_or_else(|| panic!("{file}: no on_event body"));
        assert!(
            !body.contains(".clone()"),
            "{file}: on_event clones on the per-event path"
        );
    }
}

/// The text of `fn on_event`'s body, from its opening brace to the
/// matching closing one (braces are counted, not parsed).
fn on_event_body(src: &str) -> Option<&str> {
    let sig = src.find("fn on_event(")?;
    let open = sig + src[sig..].find('{')?;
    let mut depth = 0;
    for (i, c) in src[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&src[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}
