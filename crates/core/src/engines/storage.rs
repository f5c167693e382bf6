//! The storage subsystem: TCAs, their SCSI/disk arrays, read
//! scheduling, and archive-write aggregation.
//!
//! Serves host-issued and switch-issued read requests by turning each
//! into a per-MTU packet schedule off the two-disk array, and absorbs
//! raw archive-write streams in aggregated chunks. Disk fault fates
//! (soft CRC errors with retry, latency spikes) are decided here, at
//! the subsystem boundary where the disk request is about to start.

use std::collections::BTreeMap;

use asan_io::Storage;
use asan_net::{NodeId, MTU_U32};
use asan_sim::trace::TraceCtx;
use asan_sim::{SimDuration, SimTime};

use crate::cluster::ClusterConfig;
use crate::error::SimError;
use crate::events::{Dest, DispatchEvent, EventBus, FabricEvent, FileId, ReqId, StorageEvent};
use crate::handler::SwitchIoReq;
use crate::stats::StorageSnapshot;

use asan_sim::faults::DiskFate;

#[derive(Debug)]
struct TcaNode {
    storage: Storage,
    /// Next free byte on the array (files are placed sequentially).
    alloc_cursor: u64,
    /// Archive-write aggregation.
    write_pending: u64,
    write_cursor: u64,
    last_write_done: SimTime,
    write_chunk: u64,
}

asan_sim::snap_fields!(TcaNode {
    storage,
    alloc_cursor,
    write_pending,
    write_cursor,
    last_write_done,
    write_chunk,
});

/// The storage subsystem engine: every TCA node and its disk array.
#[derive(Debug, Default)]
pub struct StorageEngine {
    tcas: BTreeMap<NodeId, TcaNode>,
}

// Every TCA node's disk array, allocation cursor, and archive-write
// aggregation state; the TCA set must match on restore.
asan_sim::snap_fields!(StorageEngine @ "storage" { tcas: fixed });

impl StorageEngine {
    /// Handles one storage event popped at time `t`.
    pub(crate) fn on_event(
        &mut self,
        t: SimTime,
        ev: StorageEvent,
        bus: &mut EventBus<'_>,
    ) -> Result<(), SimError> {
        match ev {
            StorageEvent::PacketToTca { tca, bytes } => {
                let node = self.tcas.get_mut(&tca).expect("tca exists");
                node.write_pending += bytes;
                if node.write_pending >= node.write_chunk {
                    let chunk = node.write_pending;
                    let done = node.storage.write(node.write_cursor, chunk, t);
                    node.write_cursor += chunk;
                    node.write_pending = 0;
                    node.last_write_done = node.last_write_done.max(done);
                    // Aggregated archive chunks mix bytes from many
                    // senders: no single causal trace applies.
                    bus.probe.disk(tca, t, done, chunk, TraceCtx::NONE);
                }
            }
            StorageEvent::IoRequestAtTca {
                tca,
                req,
                file,
                offset,
                len,
                dest,
                attempt,
            } => match self.disk_attempt(tca, req.0, attempt, bus)? {
                Some(delay) => {
                    bus.push(
                        t + delay,
                        StorageEvent::IoRequestAtTca {
                            tca,
                            req,
                            file,
                            offset,
                            len,
                            dest,
                            attempt: attempt + 1,
                        },
                    );
                }
                None => self.start_storage_read(tca, req, file, offset, len, dest, t, bus),
            },
            StorageEvent::SwitchIoAtTca { r, attempt } => {
                match self.disk_attempt(r.tca, r.file as u64, attempt, bus)? {
                    Some(delay) => {
                        bus.push(
                            t + delay,
                            StorageEvent::SwitchIoAtTca {
                                r,
                                attempt: attempt + 1,
                            },
                        );
                    }
                    None => self.start_switch_read(&r, t, bus),
                }
            }
        }
        Ok(())
    }

    /// Adds the TCA node at `id`, configured per `cfg`.
    pub(crate) fn add_tca(&mut self, id: NodeId, cfg: &ClusterConfig) {
        self.tcas.insert(
            id,
            TcaNode {
                storage: Storage::new(cfg.storage),
                alloc_cursor: 0,
                write_pending: 0,
                write_cursor: 1 << 40, // archive region
                last_write_done: SimTime::ZERO,
                write_chunk: 64 * 1024,
            },
        );
    }

    /// Whether `node` is a TCA.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.tcas.contains_key(&node)
    }

    /// Allocates `len` stripe-aligned bytes on `tca`'s array, returning
    /// the placement offset. Files never share a stripe unit but
    /// consecutively-added files stay contiguous on the platters (as a
    /// freshly written file set would be).
    pub(crate) fn alloc(&mut self, tca: NodeId, len: u64, stripe: u64) -> Result<u64, SimError> {
        let t = self.tcas.get_mut(&tca).ok_or(SimError::NotATca(tca))?;
        let offset = t.alloc_cursor;
        t.alloc_cursor += len.div_ceil(stripe).max(1) * stripe;
        Ok(offset)
    }

    /// Flushes trailing archive writes on every TCA (ascending node
    /// order), reporting each as a disk span, and returns the updated
    /// drain time.
    pub(crate) fn flush(
        &mut self,
        mut drain: SimTime,
        probe: &mut crate::metrics::Probe,
    ) -> SimTime {
        for (&id, tca) in self.tcas.iter_mut() {
            if tca.write_pending > 0 {
                let chunk = tca.write_pending;
                let done = tca.storage.write(tca.write_cursor, chunk, drain);
                tca.write_cursor += chunk;
                tca.write_pending = 0;
                tca.last_write_done = tca.last_write_done.max(done);
                probe.disk(id, drain, done, chunk, TraceCtx::NONE);
            }
            drain = drain.max(tca.last_write_done);
        }
        drain
    }

    /// Per-array low-level statistics snapshots, in ascending node
    /// order.
    pub(crate) fn snapshots(&self) -> Vec<StorageSnapshot> {
        self.tcas
            .iter()
            .map(|(&id, t)| StorageSnapshot {
                node: id,
                disk_bytes: t
                    .storage
                    .disks()
                    .iter()
                    .map(|d| d.stats().bytes.get())
                    .collect(),
                disk_seeks: t
                    .storage
                    .disks()
                    .iter()
                    .map(|d| d.stats().seeks.get())
                    .collect(),
                bus_bursts: t.storage.bus().stats().bursts.get(),
                bus_bytes: t.storage.bus().stats().bytes.get(),
            })
            .collect()
    }

    /// Decides the fate of one disk request attempt. `Ok(Some(delay))`
    /// means the attempt soft-errored (controller CRC caught it) and
    /// must be retried after `delay`; `Ok(None)` means proceed now.
    fn disk_attempt(
        &mut self,
        tca: NodeId,
        label: u64,
        attempt: u32,
        bus: &mut EventBus<'_>,
    ) -> Result<Option<SimDuration>, SimError> {
        let fate = match bus.injector.as_mut() {
            Some(inj) => inj.disk_fate(),
            None => return Ok(None),
        };
        match fate {
            DiskFate::Ok => {
                if attempt > 0 {
                    bus.injector
                        .as_mut()
                        .expect("armed")
                        .stats
                        .disk_error
                        .recovered += 1;
                }
                Ok(None)
            }
            DiskFate::Error => {
                let inj = bus.injector.as_mut().expect("armed");
                inj.stats.disk_error.detected += 1;
                if attempt >= inj.plan().max_retries {
                    return Err(SimError::RetriesExhausted {
                        req: label,
                        attempts: attempt + 1,
                    });
                }
                Ok(Some(inj.plan().disk_retry_delay))
            }
            DiskFate::Spike => {
                // The request completes, but the disk pays a full
                // mechanical reposition first.
                let inj = bus.injector.as_mut().expect("armed");
                inj.stats.disk_latency.detected += 1;
                inj.stats.disk_latency.degraded += 1;
                self.tcas
                    .get_mut(&tca)
                    .expect("tca exists")
                    .storage
                    .force_seek_next();
                Ok(None)
            }
        }
    }

    /// Starts a host-requested storage read at its TCA.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one IoRequestAtTca event, passed unpacked"
    )]
    fn start_storage_read(
        &mut self,
        tca: NodeId,
        req: ReqId,
        file: FileId,
        offset: u64,
        len: u64,
        dest: Dest,
        now: SimTime,
        bus: &mut EventBus<'_>,
    ) {
        let meta = bus.files.meta[file.0];
        let sched = {
            let node = self.tcas.get_mut(&tca).expect("tca exists");
            node.storage
                .read_stream(meta.disk_offset + offset, len, now)
        };
        // The whole read rides the issuing request's causal trace.
        let ctx = bus.probe.trace_for_req(req.0);
        if let Some(&last) = sched.packet_ready.last() {
            // One disk-service span per read request: issue → last
            // stripe ready off the array.
            bus.probe.disk(tca, now, last, len, ctx);
        }
        let host = bus.reqs[&req].host;
        let (dst, handler, base_addr) = dest.packet_target(host);
        let track_packets = matches!(dest, Dest::HostBuf { .. });
        // Under an armed fault plan every fabric-crossing data packet is
        // tracked per sequence number, so drops/corruption can be
        // detected, retransmitted, and the request completed exactly
        // once.
        let faulted_path = bus.injector.is_some() && dst != tca;
        if track_packets || faulted_path {
            if let Some(st) = bus.reqs.get_mut(&req) {
                st.remaining = sched.len();
                if faulted_path {
                    st.got = vec![false; sched.len()];
                    st.faulted = vec![0; sched.len()];
                    st.lens = sched.packet_len.clone();
                }
            }
        }
        let region = bus.files.read(file, offset, len);
        let mut cursor = 0;
        for (i, (&ready, &plen)) in sched
            .packet_ready
            .iter()
            .zip(sched.packet_len.iter())
            .enumerate()
        {
            let seq = u32::try_from(i).expect("a packet sequence number");
            let addr = base_addr.wrapping_add(seq.wrapping_mul(MTU_U32));
            let plen = plen as usize;
            let payload = region.slice(cursor..cursor + plen);
            cursor += plen;
            if dst == tca {
                // Mapped to the TCA's own active engine (an active
                // disk): no fabric traversal — the buffer fills as the
                // bus delivers.
                let h = handler.expect("local TCA delivery is active");
                let pkt = asan_net::Packet::new(
                    asan_net::Header {
                        src: tca,
                        dst,
                        len: u16::try_from(plen).expect("packet bounded by MTU"),
                        handler: Some(h),
                        addr,
                        seq,
                    },
                    payload,
                );
                let window = SimDuration::transfer(plen as u64, 320_000_000);
                bus.push(
                    ready,
                    DispatchEvent::PacketToSwitch {
                        sw: tca,
                        pkt,
                        payload_start: ready - window.min(SimDuration::from_ps(ready.as_ps())),
                        payload_end: ready,
                        io_req: None,
                        trace: ctx.trace,
                    },
                );
                continue;
            }
            bus.push(
                ready,
                FabricEvent::InjectIoPacket {
                    src: tca,
                    dst,
                    handler,
                    addr,
                    payload,
                    seq,
                    io_req: (track_packets || faulted_path).then_some(req),
                    trace: ctx.trace,
                },
            );
        }
        // For mapped (active) destinations, the host still needs its
        // completion notification: a small message from the TCA once the
        // last data packet has been injected. Deferred via an event so
        // the link sees it in causal order. Under a fault plan the
        // notice instead fires when the last data packet actually
        // arrives (handled by the dispatch engine's reorder buffer).
        if !track_packets && !faulted_path {
            let last_ready = *sched.packet_ready.last().expect("non-empty read");
            bus.push(last_ready, FabricEvent::CompletionNotice { tca, host, req });
        }
    }

    /// Starts a switch-initiated storage read (Tar): stream a file
    /// region to any node without host involvement.
    fn start_switch_read(&mut self, r: &SwitchIoReq, now: SimTime, bus: &mut EventBus<'_>) {
        let meta = bus.files.meta[r.file];
        assert_eq!(meta.tca, r.tca, "file lives on a different TCA");
        let sched = {
            let node = self.tcas.get_mut(&r.tca).expect("tca exists");
            node.storage
                .read_stream(meta.disk_offset + r.offset, r.len, now)
        };
        // Switch-initiated reads are not tied to a host request id, so
        // each read roots a fresh trace covering its disk service and
        // every injected data packet (documented compromise: the
        // triggering handler's trace is not carried through the
        // `SwitchIoAtTca` event).
        let ctx = bus.probe.fresh_trace();
        if let Some(&last) = sched.packet_ready.last() {
            bus.probe.disk(r.tca, now, last, r.len, ctx);
        }
        let region = bus.files.read(FileId(r.file), r.offset, r.len);
        let mut cursor = 0;
        for (i, (&ready, &plen)) in sched
            .packet_ready
            .iter()
            .zip(sched.packet_len.iter())
            .enumerate()
        {
            let seq = u32::try_from(i).expect("a packet sequence number");
            let plen = plen as usize;
            let payload = region.slice(cursor..cursor + plen);
            cursor += plen;
            bus.push(
                ready,
                FabricEvent::InjectIoPacket {
                    src: r.tca,
                    dst: r.deliver_to,
                    handler: r.deliver_handler,
                    addr: r.deliver_addr.wrapping_add(seq.wrapping_mul(MTU_U32)),
                    payload,
                    seq,
                    io_req: None,
                    trace: ctx.trace,
                },
            );
        }
    }
}
