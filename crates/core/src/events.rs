//! The typed event vocabulary and the shared bus the subsystem engines
//! communicate through.
//!
//! Every state change in the cluster simulation is an [`Event`] popped
//! from the scheduler. Each engine owns one event enum ([`HostEvent`],
//! [`FabricEvent`], [`DispatchEvent`], [`StorageEvent`]) and [`Event`]
//! wraps them, so the type of an event names the one engine that
//! handles it (see [`crate::engines`]). Engines never call each other:
//! anything that crosses a subsystem boundary goes back through the
//! [`EventBus`] as a freshly scheduled event, which keeps the causal
//! order explicit and the simulation deterministic (ties in time break
//! by push order).
//!
//! The bus itself is a per-event bundle of the *shared* services —
//! scheduler, fabric, fault injector, in-flight request table, file
//! store, configuration — while each engine owns its subsystem-private
//! state (host CPUs, switch engines, disk arrays, …).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use asan_net::topo::NodeKind;
use asan_net::{Bytes, Fabric, HandlerId, NodeId};
use asan_sim::faults::FaultInjector;
use asan_sim::sched::{Scheduler, Traceable};
use asan_sim::trace::TraceCtx;
use asan_sim::{SimDuration, SimTime};

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::cluster::ClusterConfig;
use crate::handler::SwitchIoReq;
use crate::metrics::Probe;

/// Writes a [`NodeId`].
fn snap_node(w: &mut SnapWriter, n: NodeId) {
    w.u16(n.0);
}

/// Reads a [`NodeId`].
fn read_node(r: &mut SnapReader<'_>) -> Result<NodeId, SnapError> {
    Ok(NodeId(r.u16()?))
}

/// Writes an optional [`HandlerId`] as presence byte + raw value.
fn snap_opt_handler(w: &mut SnapWriter, h: Option<HandlerId>) {
    match h {
        Some(h) => {
            w.bool(true);
            w.u8(h.as_u8());
        }
        None => w.bool(false),
    }
}

/// Reads a raw handler ID, validating the 6-bit range (so a malformed
/// snapshot errors instead of panicking in [`HandlerId::new`]).
fn read_handler(r: &mut SnapReader<'_>) -> Result<HandlerId, SnapError> {
    let v = r.u8()?;
    if v >= 64 {
        return Err(SnapError::Malformed("handler id out of range"));
    }
    Ok(HandlerId::new(v))
}

/// Reads an optional [`HandlerId`].
fn read_opt_handler(r: &mut SnapReader<'_>) -> Result<Option<HandlerId>, SnapError> {
    if r.bool()? {
        Ok(Some(read_handler(r)?))
    } else {
        Ok(None)
    }
}

/// Writes a whole [`asan_net::Packet`]: encoded header, payload bytes,
/// and the ICRC *as stamped* (so simulated corruption survives a
/// snapshot/restore round trip).
pub(crate) fn snap_packet(w: &mut SnapWriter, pkt: &asan_net::Packet) {
    w.bytes(&pkt.header.encode());
    w.bytes(&pkt.payload);
    w.u32(pkt.icrc());
}

/// Reads a [`asan_net::Packet`] written by [`snap_packet`].
pub(crate) fn read_packet(r: &mut SnapReader<'_>) -> Result<asan_net::Packet, SnapError> {
    let hb = r.bytes()?;
    let hb: [u8; asan_net::HEADER_BYTES] = hb
        .as_slice()
        .try_into()
        .map_err(|_| SnapError::Malformed("packet header size"))?;
    let header =
        asan_net::Header::decode(&hb).map_err(|_| SnapError::Malformed("packet header"))?;
    let payload = r.bytes()?;
    if payload.len() != header.len as usize {
        return Err(SnapError::Malformed("packet payload length"));
    }
    let icrc = r.u32()?;
    Ok(asan_net::Packet::from_parts(header, payload, icrc))
}

/// A tag byte, then the variant's fields.
impl Snap for Dest {
    fn snapshot(&self, w: &mut SnapWriter) {
        match self {
            Dest::HostBuf { addr } => {
                w.u8(0);
                w.u64(*addr);
            }
            Dest::Mapped {
                node,
                handler,
                base_addr,
            } => {
                w.u8(1);
                node.snapshot(w);
                w.u8(handler.as_u8());
                w.u32(*base_addr);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => Dest::HostBuf { addr: r.u64()? },
            1 => Dest::Mapped {
                node: r.read()?,
                handler: read_handler(r)?,
                base_addr: r.u32()?,
            },
            _ => return Err(SnapError::Malformed("dest tag")),
        };
        Ok(())
    }
}

/// An unmapped host buffer at address 0: the blank a restore overwrites.
impl Default for Dest {
    fn default() -> Self {
        Dest::HostBuf { addr: 0 }
    }
}

impl HostMsg {
    /// Writes this message (payload as an owned byte copy).
    fn snapshot(&self, w: &mut SnapWriter) {
        let HostMsg {
            src,
            handler,
            addr,
            data,
            seq,
        } = self;
        src.snapshot(w);
        snap_opt_handler(w, *handler);
        w.u32(*addr);
        w.bytes(data);
        w.u32(*seq);
    }

    /// Reads a message written by [`HostMsg::snapshot`].
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(HostMsg {
            src: read_node(r)?,
            handler: read_opt_handler(r)?,
            addr: r.u32()?,
            data: Bytes::from(r.bytes()?),
            seq: r.u32()?,
        })
    }
}

/// Identifies an I/O request issued by a host program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

asan_sim::snap_fields!(ReqId(id));

/// Identifies a stored file (placed on one TCA's disk array).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub usize);

asan_sim::snap_fields!(FileId(index));

/// Where a read's data should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// DMA into the issuing host's memory at `addr` (the normal path).
    HostBuf {
        /// Physical base address of the host buffer.
        addr: u64,
    },
    /// Stream to `node` as active messages mapped at `base_addr`,
    /// invoking `handler` per packet (the active path: the host "maps
    /// the file into memory" on the switch, §2.2).
    Mapped {
        /// Destination node (an active switch, usually).
        node: NodeId,
        /// Handler invoked per arriving packet.
        handler: HandlerId,
        /// Base of the mapped address window.
        base_addr: u32,
    },
}

impl Dest {
    /// The data packets' destination node, handler and base address
    /// for a read issued by `host`.
    pub(crate) fn packet_target(self, host: NodeId) -> (NodeId, Option<HandlerId>, u32) {
        match self {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the 32-bit header address carries the low bits of a host buffer address"
            )]
            Dest::HostBuf { addr } => (host, None, addr as u32),
            Dest::Mapped {
                node,
                handler,
                base_addr,
            } => (node, Some(handler), base_addr),
        }
    }
}

/// A message as seen by a host program.
#[derive(Debug, Clone)]
pub struct HostMsg {
    /// Sending node.
    pub src: NodeId,
    /// Active-handler field, if the sender set one (lets programs
    /// demultiplex flows).
    pub handler: Option<HandlerId>,
    /// Address field of the header.
    pub addr: u32,
    /// Real payload bytes (a cheap shared view — call
    /// [`asan_net::Bytes::to_vec`] for an owned copy).
    pub data: Bytes,
    /// Flow sequence number.
    pub seq: u32,
}

/// Metadata of a stored file.
#[derive(Debug, Clone, Copy)]
pub struct FileMeta {
    /// The TCA whose disks hold the file.
    pub tca: NodeId,
    /// File length in bytes.
    pub len: u64,
    /// Byte offset of the file on the array.
    pub disk_offset: u64,
}

/// A file whose bytes are produced on demand, a range at a time.
///
/// A generated file (a database table held as its keys, say) writes
/// each read's bytes only when the read happens. The storage engine
/// reads once per request and slices every packet from that region, so
/// a read costs one call however many packets it makes.
pub trait FileSource: std::fmt::Debug {
    /// File length in bytes.
    fn len(&self) -> usize;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within `0..len()`.
    fn read(&self, range: Range<usize>) -> Bytes;
}

/// The contents of a stored file.
#[derive(Debug)]
pub enum FileData {
    /// Bytes held in memory: a read is an O(1) slice, never a copy.
    Bytes(Bytes),
    /// Bytes written a read at a time.
    Source(Box<dyn FileSource>),
}

impl FileData {
    /// File length in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            FileData::Bytes(b) => b.len(),
            FileData::Source(f) => f.len(),
        }
    }

    /// The bytes of `range`.
    pub(crate) fn read(&self, range: Range<usize>) -> Bytes {
        match self {
            FileData::Bytes(b) => b.slice(range),
            FileData::Source(f) => f.read(range),
        }
    }
}

impl From<Bytes> for FileData {
    fn from(data: Bytes) -> Self {
        FileData::Bytes(data)
    }
}

impl From<Vec<u8>> for FileData {
    /// Adopts the `Vec` as a [`Bytes`] file without copying it.
    fn from(data: Vec<u8>) -> Self {
        FileData::Bytes(Bytes::from(data))
    }
}

impl<F: FileSource + 'static> From<F> for FileData {
    fn from(file: F) -> Self {
        FileData::Source(Box::new(file))
    }
}

/// The cluster's stored files: metadata plus their contents.
#[derive(Debug, Default)]
pub struct FileStore {
    pub(crate) meta: Vec<FileMeta>,
    /// File contents, read once per request.
    pub(crate) data: Vec<FileData>,
}

impl FileStore {
    /// File metadata, indexed by [`FileId`].
    pub fn meta(&self) -> &[FileMeta] {
        &self.meta
    }

    /// Appends a file without copying its bytes, returning its ID.
    pub(crate) fn push(&mut self, meta: FileMeta, data: FileData) -> FileId {
        let id = FileId(self.meta.len());
        self.meta.push(meta);
        self.data.push(data);
        id
    }

    /// The `len` bytes at file-relative `offset` of `file`.
    pub(crate) fn read(&self, file: FileId, offset: u64, len: u64) -> Bytes {
        let start = usize::try_from(offset).expect("a file offset");
        let len = usize::try_from(len).expect("a read length");
        self.data[file.0].read(start..start + len)
    }
}

/// Shared in-flight state of one host-issued I/O request.
#[derive(Debug, Default)]
pub(crate) struct IoState {
    pub(crate) host: NodeId,
    pub(crate) dest: Dest,
    pub(crate) remaining: usize,
    pub(crate) bytes: u64,
    /// The TCA serving this request.
    pub(crate) tca: NodeId,
    /// The file being read.
    pub(crate) file: FileId,
    /// File-relative byte offset of the read.
    pub(crate) offset: u64,
    /// Per-sequence-number delivery flags (populated when the storage
    /// read schedule is known; only under an armed fault plan).
    pub(crate) got: Vec<bool>,
    /// Per-sequence-number payload lengths, for buffer-cache re-reads
    /// on retransmission.
    pub(crate) lens: Vec<u32>,
    /// First fault category seen per sequence number (0 = none,
    /// 1 = corrupt, 2 = drop) — attributes eventual recovery.
    pub(crate) faulted: Vec<u8>,
    /// End-to-end timeout attempts so far.
    pub(crate) attempt: u32,
    /// Current (exponentially backed-off) timeout.
    pub(crate) timeout: SimDuration,
}

/// Per-request reorder buffer for mapped flows under fault injection:
/// a stream handler must see its packets in sequence order, so late
/// retransmits park arrivals here until the gap fills.
#[derive(Debug, Default)]
pub(crate) struct FlowState {
    pub(crate) next_seq: u32,
    pub(crate) buffered: BTreeMap<u32, asan_net::Packet>,
}

/// One scheduled occurrence in the cluster simulation, wrapped in the
/// variant of the engine that owns it. `Cluster::handle` hands the inner
/// event to that engine, whose `on_event` matches every variant of it.
#[derive(Debug)]
pub(crate) enum Event {
    /// A host event.
    Host(HostEvent),
    /// A fabric event.
    Fabric(FabricEvent),
    /// A dispatch event.
    Dispatch(DispatchEvent),
    /// A storage event.
    Storage(StorageEvent),
}

// The calendar queue stores `Event`s by value: the nesting must not
// grow its entries past the flat enum's 96 bytes.
const _: () = assert!(std::mem::size_of::<Event>() <= 96);

/// Events owned by the host engine ([`crate::engines::HostEngine`]).
#[derive(Debug)]
pub(crate) enum HostEvent {
    /// A host program's `on_start` hook fires.
    Start(NodeId),
    /// A whole packet finished arriving at a host.
    PacketToHost {
        /// Receiving host.
        host: NodeId,
        /// The arrived message.
        msg: HostMsg,
        /// The I/O request this packet belongs to, if it is request
        /// data (DMA'd without a per-packet CPU cost).
        io_req: Option<ReqId>,
    },
    /// All data of `req` delivered; notify the issuing host.
    IoComplete {
        /// The issuing host.
        host: NodeId,
        /// The completed request.
        req: ReqId,
    },
}

impl From<HostEvent> for Event {
    fn from(ev: HostEvent) -> Self {
        Event::Host(ev)
    }
}

/// Events owned by the fabric engine ([`crate::engines::FabricEngine`]): the
/// packet reliability protocol.
#[derive(Debug)]
pub(crate) enum FabricEvent {
    /// One MTU packet of a storage read becomes ready at its TCA: inject
    /// it into the fabric *now*. Deferring each injection to its ready
    /// time keeps every link's sends causally ordered, so small control
    /// messages interleave with bulk data instead of queueing behind
    /// pre-booked future transfers.
    InjectIoPacket {
        /// Injecting node (the TCA).
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Active handler to invoke, if any.
        handler: Option<HandlerId>,
        /// Address field of the header.
        addr: u32,
        /// Payload bytes (shared view into the file store).
        payload: Bytes,
        /// Flow sequence number.
        seq: u32,
        /// The request this packet belongs to, when tracked.
        io_req: Option<ReqId>,
        /// Causal trace id of the owning request's lifecycle (set even
        /// when `io_req` is not tracked; 0 = untraced).
        trace: u64,
    },
    /// Retransmit packet `seq` of `req` from the TCA's buffer cache
    /// (NAK- or timeout-driven).
    Retransmit {
        /// The request.
        req: ReqId,
        /// The missing sequence number.
        seq: u32,
    },
    /// End-to-end watchdog for `req`; stale timers carry an old
    /// `attempt` and are ignored.
    RequestTimeout {
        /// The guarded request.
        req: ReqId,
        /// The attempt this timer was armed for.
        attempt: u32,
    },
    /// The TCA finished injecting a mapped read's data: send the small
    /// completion notification to the issuing host *now* (deferred so
    /// the fabric only ever sees causally-ordered sends per link).
    CompletionNotice {
        /// The serving TCA.
        tca: NodeId,
        /// The issuing host.
        host: NodeId,
        /// The completed request.
        req: ReqId,
    },
}

impl From<FabricEvent> for Event {
    fn from(ev: FabricEvent) -> Self {
        Event::Fabric(ev)
    }
}

/// Events owned by the dispatch engine ([`crate::engines::DispatchEngine`]):
/// active switches and active TCAs.
#[derive(Debug)]
pub(crate) enum DispatchEvent {
    /// An active packet's header reached a switch (payload window given).
    /// `io_req` is set for mapped storage data under a fault plan, which
    /// is tracked per sequence number and delivered in order.
    PacketToSwitch {
        /// The switch (or active TCA) engine dispatching the packet.
        sw: NodeId,
        /// The packet itself.
        pkt: asan_net::Packet,
        /// When the payload starts streaming into the data buffer.
        payload_start: SimTime,
        /// When the payload has fully arrived.
        payload_end: SimTime,
        /// Set for per-sequence tracked storage data under faults.
        io_req: Option<ReqId>,
        /// Causal trace id of the packet's lifecycle (0 = untraced);
        /// the dispatch spans it triggers inherit it.
        trace: u64,
    },
    /// A packet for a trapped handler reached the fallback host and is
    /// dispatched on its software engine.
    FallbackDispatch {
        /// The switch the handler originally lived on.
        sw: NodeId,
        /// The forwarded packet.
        pkt: asan_net::Packet,
        /// Causal trace id carried over from the original packet.
        trace: u64,
    },
}

impl From<DispatchEvent> for Event {
    fn from(ev: DispatchEvent) -> Self {
        Event::Dispatch(ev)
    }
}

/// Events owned by the storage engine ([`crate::engines::StorageEngine`]):
/// TCAs and their disk arrays.
#[expect(
    clippy::enum_variant_names,
    reason = "the variant names are the events' trace labels, which stay fixed"
)]
#[derive(Debug)]
pub(crate) enum StorageEvent {
    /// Raw data arrived at a TCA (archive-write stream).
    PacketToTca {
        /// The receiving TCA.
        tca: NodeId,
        /// Payload bytes arrived.
        bytes: u64,
    },
    /// A host-issued I/O request's control packet reached its TCA (or a
    /// soft-errored disk attempt is being retried).
    IoRequestAtTca {
        /// The serving TCA.
        tca: NodeId,
        /// The request.
        req: ReqId,
        /// File to read.
        file: FileId,
        /// File-relative offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
        /// Delivery destination.
        dest: Dest,
        /// Disk retry attempt (0 = first try).
        attempt: u32,
    },
    /// A switch-initiated I/O request reached its TCA.
    SwitchIoAtTca {
        /// The request a handler posted.
        r: SwitchIoReq,
        /// Disk retry attempt (0 = first try).
        attempt: u32,
    },
}

impl From<StorageEvent> for Event {
    fn from(ev: StorageEvent) -> Self {
        Event::Storage(ev)
    }
}

// Every field; each length prefix is capped by the bytes left before
// it sizes an allocation.
asan_sim::snap_fields!(IoState {
    host,
    dest,
    remaining,
    bytes,
    tca,
    file,
    offset,
    got,
    lens,
    faulted,
    attempt,
    timeout,
});

/// The reorder cursor, then the parked packets in sequence order.
impl Snap for FlowState {
    fn snapshot(&self, w: &mut SnapWriter) {
        let FlowState { next_seq, buffered } = self;
        next_seq.snapshot(w);
        w.usize(buffered.len());
        for (seq, pkt) in buffered {
            seq.snapshot(w);
            snap_packet(w, pkt);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let FlowState { next_seq, buffered } = self;
        next_seq.restore(r)?;
        let n = r.len_prefix()?;
        buffered.clear();
        for _ in 0..n {
            let seq: u32 = r.read()?;
            if buffered
                .last_key_value()
                .is_some_and(|(&last, _)| last >= seq)
            {
                return Err(SnapError::Malformed("parked packets out of order"));
            }
            buffered.insert(seq, read_packet(r)?);
        }
        Ok(())
    }
}

impl Event {
    /// Writes this event: one tag byte from a single flat table across
    /// the four engines' enums (0 `Start` … 11 `RequestTimeout`, the
    /// order of the event vocabulary before it was split per engine, so
    /// older snapshots still load), then the fields in declaration order.
    pub(crate) fn snapshot(&self, w: &mut SnapWriter) {
        match self {
            Event::Host(HostEvent::Start(n)) => {
                w.u8(0);
                snap_node(w, *n);
            }
            Event::Host(HostEvent::PacketToHost { host, msg, io_req }) => {
                w.u8(1);
                snap_node(w, *host);
                msg.snapshot(w);
                io_req.snapshot(w);
            }
            Event::Dispatch(DispatchEvent::PacketToSwitch {
                sw,
                pkt,
                payload_start,
                payload_end,
                io_req,
                trace,
            }) => {
                w.u8(2);
                snap_node(w, *sw);
                snap_packet(w, pkt);
                w.time(*payload_start);
                w.time(*payload_end);
                io_req.snapshot(w);
                w.u64(*trace);
            }
            Event::Dispatch(DispatchEvent::FallbackDispatch { sw, pkt, trace }) => {
                w.u8(3);
                snap_node(w, *sw);
                snap_packet(w, pkt);
                w.u64(*trace);
            }
            Event::Storage(StorageEvent::PacketToTca { tca, bytes }) => {
                w.u8(4);
                snap_node(w, *tca);
                w.u64(*bytes);
            }
            Event::Storage(StorageEvent::IoRequestAtTca {
                tca,
                req,
                file,
                offset,
                len,
                dest,
                attempt,
            }) => {
                w.u8(5);
                snap_node(w, *tca);
                w.u64(req.0);
                w.usize(file.0);
                w.u64(*offset);
                w.u64(*len);
                dest.snapshot(w);
                w.u32(*attempt);
            }
            Event::Storage(StorageEvent::SwitchIoAtTca { r, attempt }) => {
                w.u8(6);
                snap_node(w, r.tca);
                w.usize(r.file);
                w.u64(r.offset);
                w.u64(r.len);
                snap_node(w, r.deliver_to);
                snap_opt_handler(w, r.deliver_handler);
                w.u32(r.deliver_addr);
                w.time(r.ready);
                w.u32(*attempt);
            }
            Event::Host(HostEvent::IoComplete { host, req }) => {
                w.u8(7);
                snap_node(w, *host);
                w.u64(req.0);
            }
            Event::Fabric(FabricEvent::CompletionNotice { tca, host, req }) => {
                w.u8(8);
                snap_node(w, *tca);
                snap_node(w, *host);
                w.u64(req.0);
            }
            Event::Fabric(FabricEvent::InjectIoPacket {
                src,
                dst,
                handler,
                addr,
                payload,
                seq,
                io_req,
                trace,
            }) => {
                w.u8(9);
                snap_node(w, *src);
                snap_node(w, *dst);
                snap_opt_handler(w, *handler);
                w.u32(*addr);
                w.bytes(payload);
                w.u32(*seq);
                io_req.snapshot(w);
                w.u64(*trace);
            }
            Event::Fabric(FabricEvent::Retransmit { req, seq }) => {
                w.u8(10);
                w.u64(req.0);
                w.u32(*seq);
            }
            Event::Fabric(FabricEvent::RequestTimeout { req, attempt }) => {
                w.u8(11);
                w.u64(req.0);
                w.u32(*attempt);
            }
        }
    }

    /// Reads an event written by [`Event::snapshot`].
    pub(crate) fn restore(r: &mut SnapReader<'_>) -> Result<Event, SnapError> {
        Ok(match r.u8()? {
            0 => HostEvent::Start(read_node(r)?).into(),
            1 => HostEvent::PacketToHost {
                host: read_node(r)?,
                msg: HostMsg::restore(r)?,
                io_req: r.read()?,
            }
            .into(),
            2 => DispatchEvent::PacketToSwitch {
                sw: read_node(r)?,
                pkt: read_packet(r)?,
                payload_start: r.time()?,
                payload_end: r.time()?,
                io_req: r.read()?,
                trace: r.u64()?,
            }
            .into(),
            3 => DispatchEvent::FallbackDispatch {
                sw: read_node(r)?,
                pkt: read_packet(r)?,
                trace: r.u64()?,
            }
            .into(),
            4 => StorageEvent::PacketToTca {
                tca: read_node(r)?,
                bytes: r.u64()?,
            }
            .into(),
            5 => StorageEvent::IoRequestAtTca {
                tca: read_node(r)?,
                req: ReqId(r.u64()?),
                file: FileId(r.usize()?),
                offset: r.u64()?,
                len: r.u64()?,
                dest: r.read()?,
                attempt: r.u32()?,
            }
            .into(),
            6 => StorageEvent::SwitchIoAtTca {
                r: SwitchIoReq {
                    tca: read_node(r)?,
                    file: r.usize()?,
                    offset: r.u64()?,
                    len: r.u64()?,
                    deliver_to: read_node(r)?,
                    deliver_handler: read_opt_handler(r)?,
                    deliver_addr: r.u32()?,
                    ready: r.time()?,
                },
                attempt: r.u32()?,
            }
            .into(),
            7 => HostEvent::IoComplete {
                host: read_node(r)?,
                req: ReqId(r.u64()?),
            }
            .into(),
            8 => FabricEvent::CompletionNotice {
                tca: read_node(r)?,
                host: read_node(r)?,
                req: ReqId(r.u64()?),
            }
            .into(),
            9 => FabricEvent::InjectIoPacket {
                src: read_node(r)?,
                dst: read_node(r)?,
                handler: read_opt_handler(r)?,
                addr: r.u32()?,
                payload: Bytes::from(r.bytes()?),
                seq: r.u32()?,
                io_req: r.read()?,
                trace: r.u64()?,
            }
            .into(),
            10 => FabricEvent::Retransmit {
                req: ReqId(r.u64()?),
                seq: r.u32()?,
            }
            .into(),
            11 => FabricEvent::RequestTimeout {
                req: ReqId(r.u64()?),
                attempt: r.u32()?,
            }
            .into(),
            _ => return Err(SnapError::Malformed("event tag")),
        })
    }
}

impl Traceable for Event {
    fn trace_label(&self) -> &'static str {
        match self {
            Event::Host(HostEvent::Start(_)) => "Start",
            Event::Host(HostEvent::PacketToHost { .. }) => "PacketToHost",
            Event::Dispatch(DispatchEvent::PacketToSwitch { .. }) => "PacketToSwitch",
            Event::Dispatch(DispatchEvent::FallbackDispatch { .. }) => "FallbackDispatch",
            Event::Storage(StorageEvent::PacketToTca { .. }) => "PacketToTca",
            Event::Storage(StorageEvent::IoRequestAtTca { .. }) => "IoRequestAtTca",
            Event::Storage(StorageEvent::SwitchIoAtTca { .. }) => "SwitchIoAtTca",
            Event::Host(HostEvent::IoComplete { .. }) => "IoComplete",
            Event::Fabric(FabricEvent::CompletionNotice { .. }) => "CompletionNotice",
            Event::Fabric(FabricEvent::InjectIoPacket { .. }) => "InjectIoPacket",
            Event::Fabric(FabricEvent::Retransmit { .. }) => "Retransmit",
            Event::Fabric(FabricEvent::RequestTimeout { .. }) => "RequestTimeout",
        }
    }
}

/// The services shared by every engine, lent out for the duration of
/// one event.
///
/// [`crate::cluster::Cluster`] assembles a fresh bus from its own
/// fields for each popped event and hands it to the owning engine's
/// `on_event`. Engines mutate shared state
/// through the bus and schedule follow-up events with [`EventBus::push`];
/// subsystem-private state stays inside the engines themselves.
#[derive(Debug)]
pub struct EventBus<'a> {
    /// The scheduler (push side of the event loop).
    pub sched: &'a mut Scheduler<Event>,
    /// The switching fabric (wire timing, link accounting, routing).
    pub fabric: &'a mut Fabric,
    /// The armed fault injector, if the run has a fault plan.
    pub injector: &'a mut Option<FaultInjector>,
    /// In-flight host-issued I/O requests, shared across engines
    /// (ordered so any future iteration is deterministic).
    pub(crate) reqs: &'a mut BTreeMap<ReqId, IoState>,
    /// The stored files (metadata + bytes).
    pub files: &'a mut FileStore,
    /// The cluster configuration.
    pub cfg: &'a ClusterConfig,
    /// Nodes whose TCA has an active engine: handler-addressed packets
    /// for these nodes route to the dispatch subsystem instead of the
    /// raw archive-write path.
    pub active_tca_nodes: &'a BTreeSet<NodeId>,
    /// The observability probe: engines report timed spans (packet,
    /// handler, disk, buffer) here.
    pub probe: &'a mut Probe,
}

impl EventBus<'_> {
    /// Schedules `event` at absolute time `time`.
    pub(crate) fn push(&mut self, time: SimTime, event: impl Into<Event>) {
        self.sched.push(time, event.into());
    }

    /// Injects `wire_bytes` into the fabric from `src` toward `dst` and
    /// records the packet's end-to-end span (injection → last byte at
    /// the destination) with the probe, tagged with `ctx`'s causal
    /// trace, plus one per-hop link span (and stall span when the hop
    /// waited). Engines use this for every *delivered* packet; sends
    /// that a fault swallows (drops, corrupt payloads discarded by
    /// ICRC) call [`Fabric::transmit`] directly so the latency
    /// distribution — and the timeline — only contain real deliveries.
    pub(crate) fn transmit(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
        ctx: TraceCtx,
    ) -> asan_net::Delivery {
        let mut hops = self.probe.take_hop_buf();
        let d = self
            .fabric
            .transmit_recorded(wire_bytes, src, dst, ready, Some(&mut hops));
        self.probe
            .packet(dst, ready, d.arrival, wire_bytes, &hops, ctx);
        self.probe.put_hop_buf(hops);
        d
    }

    /// Notes a transparently recovered fault of category `cat`
    /// (1 = corrupt, 2 = drop): the faulted packet's data has now
    /// arrived via retransmission.
    pub(crate) fn note_recovered(&mut self, cat: u8) {
        if let Some(inj) = self.injector.as_mut() {
            match cat {
                1 => inj.stats.packet_corrupt.recovered += 1,
                2 => inj.stats.packet_drop.recovered += 1,
                _ => {}
            }
        }
    }

    /// Records the first fault category seen for `seq` of `req`, for
    /// recovery attribution.
    pub(crate) fn mark_faulted(&mut self, req: ReqId, seq: u32, cat: u8) {
        if let Some(st) = self.reqs.get_mut(&req) {
            if let Some(f) = st.faulted.get_mut(seq as usize) {
                if *f == 0 {
                    *f = cat;
                }
            }
        }
    }

    /// Schedules the delivery events for one packet already injected
    /// into the fabric: the receiving node's kind decides which
    /// subsystem sees it next. `trace` is the causal trace id stamped
    /// on switch-bound follow-up events (0 = untraced).
    #[expect(
        clippy::too_many_arguments,
        reason = "one injected packet's header fields and timing, passed unpacked"
    )]
    pub(crate) fn deliver(
        &mut self,
        src: NodeId,
        dst: NodeId,
        handler: Option<HandlerId>,
        addr: u32,
        data: Bytes,
        seq: u32,
        d: asan_net::Delivery,
        io_req: Option<ReqId>,
        trace: u64,
    ) {
        match self.fabric.kind(dst) {
            NodeKind::Host => {
                self.push(
                    d.arrival,
                    HostEvent::PacketToHost {
                        host: dst,
                        msg: HostMsg {
                            src,
                            handler,
                            addr,
                            data,
                            seq,
                        },
                        io_req,
                    },
                );
            }
            NodeKind::Switch => {
                let h = handler.expect("messages to a switch must be active");
                self.push_switch_packet(src, dst, h, addr, data, seq, d, io_req, trace);
            }
            NodeKind::Tca => {
                if let Some(h) = handler.filter(|_| self.active_tca_nodes.contains(&dst)) {
                    self.push_switch_packet(src, dst, h, addr, data, seq, d, io_req, trace);
                } else {
                    self.push(
                        d.arrival,
                        StorageEvent::PacketToTca {
                            tca: dst,
                            bytes: data.len() as u64,
                        },
                    );
                }
            }
        }
    }

    /// Schedules the [`DispatchEvent::PacketToSwitch`] for one active packet.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one PacketToSwitch event, passed unpacked"
    )]
    fn push_switch_packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        h: HandlerId,
        addr: u32,
        data: Bytes,
        seq: u32,
        d: asan_net::Delivery,
        io_req: Option<ReqId>,
        trace: u64,
    ) {
        let len = data.len();
        let pkt = asan_net::Packet::new(
            asan_net::Header {
                src,
                dst,
                len: u16::try_from(len).expect("payload bounded by MTU"),
                handler: Some(h),
                addr,
                seq,
            },
            data,
        );
        if io_req.is_some() {
            // Faultable storage data: the engine store-and-forwards
            // (full payload verified by ICRC before dispatch), so
            // everything happens at arrival.
            self.push(
                d.arrival,
                DispatchEvent::PacketToSwitch {
                    sw: dst,
                    pkt,
                    payload_start: d.arrival,
                    payload_end: d.arrival,
                    io_req,
                    trace,
                },
            );
        } else {
            self.push(
                d.header_at,
                DispatchEvent::PacketToSwitch {
                    sw: dst,
                    pkt,
                    payload_start: d.payload_start,
                    payload_end: d.arrival,
                    io_req: None,
                    trace,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a valid [`IoState`] snapshot up to its `got` count.
    fn header(w: &mut SnapWriter) {
        snap_node(w, NodeId(1));
        Dest::HostBuf { addr: 0x4000 }.snapshot(w);
        w.usize(2); // remaining
        w.u64(8192); // bytes
        snap_node(w, NodeId(3));
        w.usize(0); // file
        w.u64(4096); // offset
    }

    #[test]
    fn io_state_rejects_huge_length_prefixes() {
        // A `got` count far beyond the stream must not size an allocation.
        let mut w = SnapWriter::new();
        header(&mut w);
        w.usize(usize::MAX / 2);
        w.bool(true);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            r.read::<IoState>().unwrap_err(),
            SnapError::Malformed("length prefix exceeds snapshot")
        );

        // Likewise `lens`: 3 bytes left cannot hold even one `u32`.
        let mut w = SnapWriter::new();
        header(&mut w);
        w.usize(0);
        w.usize(usize::MAX / 2);
        w.u8(0);
        w.u16(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            r.read::<IoState>().unwrap_err(),
            SnapError::Malformed("length prefix exceeds snapshot")
        );
    }

    #[test]
    fn corrupted_packet_keeps_its_icrc_mismatch_through_the_codec() {
        let data: Vec<u8> = (0..=u8::MAX)
            .cycle()
            .take(700)
            .map(|i| i.wrapping_mul(13))
            .collect();
        let mut pkt = asan_net::packetize(NodeId(0), NodeId(1), None, 0, &data).remove(1);
        assert!(pkt.icrc_ok());
        pkt.corrupt_payload_bit(41);
        assert!(!pkt.icrc_ok());
        let mut w = SnapWriter::new();
        snap_packet(&mut w, &pkt);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = read_packet(&mut r).unwrap();
        assert_eq!(back, pkt);
        assert_eq!(back.icrc(), pkt.icrc());
        assert!(!back.icrc_ok(), "the mismatch survives the codec");
    }

    /// One event of each kind, in snapshot-tag order (0..=11).
    fn one_of_each() -> Vec<Event> {
        let (host, sw, tca) = (NodeId(1), NodeId(2), NodeId(3));
        let h = HandlerId::new(5);
        let req = ReqId(77);
        let pkt = asan_net::packetize(tca, sw, Some(h), 0x40, &[9u8; 300]).remove(0);
        let msg = HostMsg {
            src: sw,
            handler: Some(h),
            addr: 0x80,
            data: Bytes::from(vec![1u8, 2, 3]),
            seq: 4,
        };
        let at = SimTime::from_ps(12_345);
        vec![
            HostEvent::Start(host).into(),
            HostEvent::PacketToHost {
                host,
                msg,
                io_req: Some(req),
            }
            .into(),
            DispatchEvent::PacketToSwitch {
                sw,
                pkt: pkt.clone(),
                payload_start: at,
                payload_end: at + SimDuration::from_ps(10),
                io_req: None,
                trace: 6,
            }
            .into(),
            DispatchEvent::FallbackDispatch { sw, pkt, trace: 7 }.into(),
            StorageEvent::PacketToTca { tca, bytes: 512 }.into(),
            StorageEvent::IoRequestAtTca {
                tca,
                req,
                file: FileId(2),
                offset: 4096,
                len: 8192,
                dest: Dest::Mapped {
                    node: sw,
                    handler: h,
                    base_addr: 0x100,
                },
                attempt: 1,
            }
            .into(),
            StorageEvent::SwitchIoAtTca {
                r: SwitchIoReq {
                    tca,
                    file: 1,
                    offset: 0,
                    len: 2048,
                    deliver_to: sw,
                    deliver_handler: None,
                    deliver_addr: 0x200,
                    ready: at,
                },
                attempt: 2,
            }
            .into(),
            HostEvent::IoComplete { host, req }.into(),
            FabricEvent::CompletionNotice { tca, host, req }.into(),
            FabricEvent::InjectIoPacket {
                src: tca,
                dst: host,
                handler: None,
                addr: 0x300,
                payload: Bytes::from(vec![7u8; 64]),
                seq: 3,
                io_req: Some(req),
                trace: 8,
            }
            .into(),
            FabricEvent::Retransmit { req, seq: 3 }.into(),
            FabricEvent::RequestTimeout { req, attempt: 4 }.into(),
        ]
    }

    #[test]
    fn event_codec_tag_table_is_pinned() {
        for (tag, ev) in one_of_each().iter().enumerate() {
            let mut w = SnapWriter::new();
            ev.snapshot(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes).unwrap();
            assert_eq!(r.u8().unwrap() as usize, tag, "{ev:?}");
            let mut r = SnapReader::new(&bytes).unwrap();
            let back = Event::restore(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.trace_label(), ev.trace_label());
            let mut w = SnapWriter::new();
            back.snapshot(&mut w);
            assert_eq!(w.into_bytes(), bytes, "{ev:?} re-snapshots identically");
        }
        let mut w = SnapWriter::new();
        w.u8(12);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            Event::restore(&mut r).unwrap_err(),
            SnapError::Malformed("event tag")
        );
    }
}
