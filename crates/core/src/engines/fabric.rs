//! The fabric subsystem: packet injection, fault fates, and the
//! retransmit/timeout reliability protocol.
//!
//! This engine is (almost) stateless: the protocol state it operates on
//! — per-request delivery bitmaps, retry counters, backed-off timeouts —
//! lives in the shared request table on the [`EventBus`], because the
//! host and dispatch subsystems consult the same state when packets
//! arrive. What belongs *here* is every decision made while a packet is
//! in flight: whether it is delivered, corrupted, or dropped, and how
//! the loss is detected and repaired (NAK retransmits, end-to-end
//! timeouts with exponential backoff).

use asan_net::{Fabric, HEADER_BYTES, MTU_U32};
use asan_sim::faults::{FaultInjector, FaultPlan, PacketFate};
use asan_sim::trace::TraceCtx;
use asan_sim::SimTime;

use crate::error::SimError;
use crate::events::{EventBus, FabricEvent, HostEvent, ReqId};

/// The fabric subsystem engine: the packet reliability protocol over
/// the shared request table.
#[derive(Debug, Default)]
pub struct FabricEngine;

impl FabricEngine {
    /// Handles one fabric event popped at time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RetriesExhausted`] when a request's timeout
    /// budget runs out under fault injection.
    pub(crate) fn on_event(
        &mut self,
        t: SimTime,
        ev: FabricEvent,
        bus: &mut EventBus<'_>,
    ) -> Result<(), SimError> {
        match ev {
            FabricEvent::InjectIoPacket {
                src,
                dst,
                handler,
                addr,
                payload,
                seq,
                io_req,
                trace,
            } => {
                let wire = (payload.len() + HEADER_BYTES) as u64;
                if let Some(req) = io_req.filter(|_| bus.injector.is_some()) {
                    match bus.injector.as_mut().expect("armed").packet_fate() {
                        PacketFate::Deliver => {}
                        PacketFate::Corrupt(bit) => {
                            // The corrupted packet still occupies the
                            // wire; the receiver's ICRC check rejects it
                            // on arrival.
                            let d = bus.fabric.transmit(wire, src, dst, t);
                            let mut pkt = asan_net::Packet::new(
                                asan_net::Header {
                                    src,
                                    dst,
                                    len: u16::try_from(payload.len())
                                        .expect("payload bounded by MTU"),
                                    handler,
                                    addr,
                                    seq,
                                },
                                payload,
                            );
                            pkt.corrupt_payload_bit(bit);
                            debug_assert!(!pkt.icrc_ok(), "corruption must break the ICRC");
                            bus.mark_faulted(req, seq, 1);
                            let inj = bus.injector.as_mut().expect("armed");
                            inj.stats.packet_corrupt.detected += 1;
                            let nak = inj.plan().nak_retransmit;
                            let delay = inj.plan().nak_delay;
                            if nak {
                                bus.push(d.arrival + delay, FabricEvent::Retransmit { req, seq });
                            }
                            return Ok(());
                        }
                        PacketFate::Drop => {
                            // Lost in flight: the wire was consumed, and
                            // the receiver's sequence-gap NAK (or the
                            // end-to-end timeout) detects the hole.
                            let d = bus.fabric.transmit(wire, src, dst, t);
                            bus.mark_faulted(req, seq, 2);
                            let inj = bus.injector.as_mut().expect("armed");
                            inj.stats.packet_drop.detected += 1;
                            let nak = inj.plan().nak_retransmit;
                            let delay = inj.plan().nak_delay;
                            if nak {
                                bus.push(d.arrival + delay, FabricEvent::Retransmit { req, seq });
                            }
                            return Ok(());
                        }
                    }
                }
                let d = bus.transmit(wire, src, dst, t, TraceCtx { trace, parent: 0 });
                bus.deliver(src, dst, handler, addr, payload, seq, d, io_req, trace);
            }
            FabricEvent::Retransmit { req, seq } => {
                let Some(st) = bus.reqs.get(&req) else {
                    return Ok(());
                };
                if st.got.get(seq as usize).copied().unwrap_or(true) {
                    return Ok(()); // delivered in the meantime
                }
                Self::retransmit_seq(req, seq, t, bus);
            }
            FabricEvent::RequestTimeout { req, attempt } => {
                let max = match bus.injector.as_ref() {
                    Some(i) => i.plan().max_retries,
                    None => return Ok(()),
                };
                let Some(st) = bus.reqs.get_mut(&req) else {
                    return Ok(());
                };
                if st.attempt != attempt {
                    return Ok(()); // superseded by a newer timer
                }
                if !st.got.is_empty() && st.got.iter().all(|&g| g) {
                    return Ok(()); // fully delivered; completion in flight
                }
                if attempt >= max {
                    return Err(SimError::RetriesExhausted {
                        req: req.0,
                        attempts: attempt + 1,
                    });
                }
                st.attempt += 1;
                // Exponential backoff; saturates so a timer armed near
                // the u64-picosecond horizon clamps instead of wrapping
                // to the past (which would busy-loop the watchdog).
                st.timeout = st.timeout.saturating_add(st.timeout);
                let next_attempt = st.attempt;
                let next_at = t.saturating_add(st.timeout);
                let missing: Vec<u32> = (0u32..)
                    .zip(&st.got)
                    .filter(|&(_, &g)| !g)
                    .map(|(seq, _)| seq)
                    .collect();
                bus.injector.as_mut().expect("armed").stats.timeouts += 1;
                for seq in missing {
                    Self::retransmit_seq(req, seq, t, bus);
                }
                bus.push(
                    next_at,
                    FabricEvent::RequestTimeout {
                        req,
                        attempt: next_attempt,
                    },
                );
            }
            FabricEvent::CompletionNotice { tca, host, req } => {
                let wire = HEADER_BYTES as u64;
                let ctx = bus.probe.trace_for_req(req.0);
                let d = bus.transmit(wire, tca, host, t, ctx);
                bus.push(d.arrival, HostEvent::IoComplete { host, req });
            }
        }
        Ok(())
    }
}

impl FabricEngine {
    /// Arms the run-scoped fabric faults of `plan`: scheduled link
    /// outages and the restricted credit limit.
    pub(crate) fn arm(plan: &FaultPlan, fabric: &mut Fabric) {
        for &(from, until) in &plan.link_outages {
            fabric.inject_outage(from, until);
        }
        if let Some(credits) = plan.credit_limit {
            fabric.restrict_credits(credits);
        }
    }

    /// Link-outage accounting at end of run: each deferred send hit a
    /// down window (detected by the link layer) and was delayed
    /// (degradation).
    pub(crate) fn outage_accounting(injector: &mut Option<FaultInjector>, fabric: &Fabric) {
        if let Some(inj) = injector.as_mut() {
            let deferrals = fabric.total_outage_deferrals();
            inj.stats.link_outage.injected = inj.plan().link_outages.len() as u64;
            inj.stats.link_outage.detected = deferrals;
            inj.stats.link_outage.degraded = deferrals;
        }
    }

    /// Re-injects packet `seq` of `req` from its TCA. The TCA keeps a
    /// request's transmitted stripes in its buffer cache until the
    /// request completes, so a retransmission is a memory re-read, not
    /// a disk I/O — it pays only wire time (plus the NAK/timeout delay
    /// that scheduled it), and it passes through fault injection again.
    fn retransmit_seq(req: ReqId, seq: u32, now: SimTime, bus: &mut EventBus<'_>) {
        let st = &bus.reqs[&req];
        let (dst, handler, base_addr) = st.dest.packet_target(st.host);
        let prefix: u64 = st.lens[..seq as usize].iter().map(|&l| l as u64).sum();
        let start = usize::try_from(st.offset + prefix).expect("a file offset");
        let plen = st.lens[seq as usize] as usize;
        let payload = bus.files.data[st.file.0].slice(start..start + plen);
        let src = st.tca;
        bus.injector.as_mut().expect("armed").stats.retransmits += 1;
        // Retransmits stay on the original request's causal trace.
        let trace = bus.probe.trace_for_req(req.0).trace;
        bus.push(
            now,
            FabricEvent::InjectIoPacket {
                src,
                dst,
                handler,
                addr: base_addr.wrapping_add(seq.wrapping_mul(MTU_U32)),
                payload,
                seq,
                io_req: Some(req),
                trace,
            },
        );
    }
}
