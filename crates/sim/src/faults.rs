//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] names *what* can go wrong — packet corruption and
//! drop probabilities, disk soft-error and latency-spike rates, link
//! outage windows, credit starvation, handler traps, buffer seizure —
//! and a [`FaultInjector`] turns the plan into concrete, reproducible
//! fate decisions using independent [`SimRng`] streams per fault
//! category. Every layer of the simulator consults the injector at its
//! natural fault point; the injector also accumulates the per-fault
//! [`FaultStats`] (injected / detected / recovered / degraded) whose
//! digest must be bit-identical for identical `(seed, plan)` pairs.

use std::collections::BTreeMap;
use std::fmt;

use crate::rng::SimRng;
use crate::snap_fields;
use crate::time::{SimDuration, SimTime};

/// Traps one handler after a given number of invocations, modeling a
/// handler bug (illegal instruction, runaway loop caught by the
/// dispatch watchdog). The trap fires *before* the n-th invocation
/// executes, so the handler's state has no partial effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerTrap {
    /// Raw node id of the switch to trap on, or `None` for any switch.
    pub node: Option<u16>,
    /// Raw 6-bit handler id to trap.
    pub handler: u8,
    /// 1-based invocation count at which the trap fires.
    pub at_invocation: u64,
}

/// Seizes DBA buffers at simulation start, releasing them at a fixed
/// time — models firmware hogging staging memory and exercises the
/// dispatch unit's allocation-stall path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSeize {
    /// Number of buffers to seize on every active engine.
    pub count: usize,
    /// When the seized buffers are released.
    pub release_at: SimTime,
}

/// A deterministic fault schedule for one simulation run.
///
/// All probabilities are per-decision (per storage data packet, per
/// disk request). A default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault-decision RNG streams.
    pub seed: u64,
    /// Probability a storage data packet is bit-corrupted in flight
    /// (detected by the receiver's ICRC check).
    pub packet_corrupt_prob: f64,
    /// Probability a storage data packet is dropped in flight.
    pub packet_drop_prob: f64,
    /// Probability a disk read/write request fails with a soft error
    /// (detected by the controller's sector CRC; retried).
    pub disk_error_prob: f64,
    /// Probability a disk request pays a full mechanical repositioning
    /// even when sequential (a latency spike: thermal recalibration,
    /// sector remap).
    pub disk_latency_spike_prob: f64,
    /// Transient link-down windows applied to every link.
    pub link_outages: Vec<(SimTime, SimTime)>,
    /// Credit limit forced onto every link (credit starvation), if any.
    pub credit_limit: Option<usize>,
    /// Handler traps to arm.
    pub handler_traps: Vec<HandlerTrap>,
    /// DBA buffer seizure, if any.
    pub buffer_seize: Option<BufferSeize>,
    /// Whether receivers NAK corrupt/missing packets immediately
    /// (per-packet retransmission). With `false`, recovery relies
    /// solely on the end-to-end request timeout.
    pub nak_retransmit: bool,
    /// Delay from fault detection to the retransmitted packet leaving
    /// the TCA again (NAK propagation + buffer-cache re-read).
    pub nak_delay: SimDuration,
    /// Initial end-to-end request timeout; doubles per retry attempt.
    pub request_timeout: SimDuration,
    /// Delay before a failed disk request is retried.
    pub disk_retry_delay: SimDuration,
    /// Bound on retry attempts (request timeouts and per-request disk
    /// retries) before the run aborts with a structured error.
    pub max_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            packet_corrupt_prob: 0.0,
            packet_drop_prob: 0.0,
            disk_error_prob: 0.0,
            disk_latency_spike_prob: 0.0,
            link_outages: Vec::new(),
            credit_limit: None,
            handler_traps: Vec::new(),
            buffer_seize: None,
            nak_retransmit: true,
            nak_delay: SimDuration::from_us(5),
            request_timeout: SimDuration::from_ms(20),
            disk_retry_delay: SimDuration::from_ms(10),
            max_retries: 8,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (but arms the recovery machinery).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The standard chaos preset: 1% packet corruption, 0.5% drop,
    /// 2% disk soft errors, 1% disk latency spikes.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            packet_corrupt_prob: 0.01,
            packet_drop_prob: 0.005,
            disk_error_prob: 0.02,
            disk_latency_spike_prob: 0.01,
            ..FaultPlan::default()
        }
    }
}

/// Fate of one storage data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Delivered intact.
    Deliver,
    /// Bit-corrupted in flight; carries the payload bit to flip.
    Corrupt(usize),
    /// Dropped in flight.
    Drop,
}

/// Fate of one disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFate {
    /// Completes normally.
    Ok,
    /// Soft error: detected by the controller, must be retried.
    Error,
    /// Latency spike: completes, but pays a full mechanical reposition.
    Spike,
}

/// Injected / detected / recovered / degraded counts for one fault
/// category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults the plan injected.
    pub injected: u64,
    /// Faults a checker (ICRC, controller CRC, watchdog) caught.
    pub detected: u64,
    /// Faults recovered transparently (retransmit, retry).
    pub recovered: u64,
    /// Faults survived by degrading service (host fallback, stalls).
    pub degraded: u64,
}

impl FaultCounters {
    fn fold(&self, h: u64) -> u64 {
        let FaultCounters {
            injected,
            detected,
            recovered,
            degraded,
        } = *self;
        [injected, detected, recovered, degraded]
            .into_iter()
            .fold(h, fnv1a_fold)
    }
}

snap_fields!(FaultCounters {
    injected,
    detected,
    recovered,
    degraded,
});

/// All fault counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packet bit-corruption (detected via ICRC).
    pub packet_corrupt: FaultCounters,
    /// Packet drops.
    pub packet_drop: FaultCounters,
    /// Disk soft errors.
    pub disk_error: FaultCounters,
    /// Disk latency spikes.
    pub disk_latency: FaultCounters,
    /// Link outage windows.
    pub link_outage: FaultCounters,
    /// Handler traps.
    pub handler_trap: FaultCounters,
    /// DBA buffer seizures.
    pub buffer_seize: FaultCounters,
    /// Packets retransmitted (NAK or timeout driven).
    pub retransmits: u64,
    /// End-to-end request timeouts that fired on a live request.
    pub timeouts: u64,
    /// Packets processed on a host-side fallback engine after a trap.
    pub fallback_packets: u64,
}

impl FaultStats {
    /// FNV-1a digest over every counter, in a fixed field order. Two
    /// runs with the same seed and plan must produce equal digests.
    pub fn digest(&self) -> u64 {
        let FaultStats {
            packet_corrupt,
            packet_drop,
            disk_error,
            disk_latency,
            link_outage,
            handler_trap,
            buffer_seize,
            retransmits,
            timeouts,
            fallback_packets,
        } = self;
        let h = [
            packet_corrupt,
            packet_drop,
            disk_error,
            disk_latency,
            link_outage,
            handler_trap,
            buffer_seize,
        ]
        .into_iter()
        .fold(FNV_OFFSET, |h, c| c.fold(h));
        [retransmits, timeouts, fallback_packets]
            .into_iter()
            .fold(h, |h, &v| fnv1a_fold(h, v))
    }
}

// Same field order as `FaultStats::digest`.
snap_fields!(FaultStats {
    packet_corrupt,
    packet_drop,
    disk_error,
    disk_latency,
    link_outage,
    handler_trap,
    buffer_seize,
    retransmits,
    timeouts,
    fallback_packets,
});

impl fmt::Display for FaultCounters {
    /// `injected/detected/recovered/degraded`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.injected, self.detected, self.recovered, self.degraded
        )
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt {} | drop {} | disk-err {} | disk-lat {} | outage {} | trap {} | seize {} \
             | {} retransmits, {} timeouts, {} fallback pkts",
            self.packet_corrupt,
            self.packet_drop,
            self.disk_error,
            self.disk_latency,
            self.link_outage,
            self.handler_trap,
            self.buffer_seize,
            self.retransmits,
            self.timeouts,
            self.fallback_packets,
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one `u64` into an FNV-1a hash, byte by byte.
pub fn fnv1a_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Turns a [`FaultPlan`] into concrete fate decisions, one independent
/// RNG stream per fault category so adding a fault type never perturbs
/// the others' streams.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// The armed plan. Static for the life of a run — restore rebuilds
    /// the injector from the same plan, so it is not serialized.
    plan: FaultPlan,
    packet_rng: SimRng,
    disk_rng: SimRng,
    /// Per-`(node, handler)` invocation counts for trap matching.
    trap_counts: BTreeMap<(u16, u8), u64>,
    /// Accumulated fault statistics.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Arms a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let packet_rng = SimRng::from_seed(plan.seed ^ 0x7061_636b_6574_0001); // "packet"
        let disk_rng = SimRng::from_seed(plan.seed ^ 0x6469_736b_0000_0002); // "disk"
        FaultInjector {
            plan,
            packet_rng,
            disk_rng,
            trap_counts: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one storage data packet (called once per
    /// transmission attempt, including retransmissions).
    pub fn packet_fate(&mut self) -> PacketFate {
        if self.packet_rng.chance(self.plan.packet_corrupt_prob) {
            self.stats.packet_corrupt.injected += 1;
            let bit = self.packet_rng.next_u64() as usize;
            return PacketFate::Corrupt(bit);
        }
        if self.packet_rng.chance(self.plan.packet_drop_prob) {
            self.stats.packet_drop.injected += 1;
            return PacketFate::Drop;
        }
        PacketFate::Deliver
    }

    /// Decides the fate of one disk request attempt.
    pub fn disk_fate(&mut self) -> DiskFate {
        if self.disk_rng.chance(self.plan.disk_error_prob) {
            self.stats.disk_error.injected += 1;
            return DiskFate::Error;
        }
        if self.disk_rng.chance(self.plan.disk_latency_spike_prob) {
            self.stats.disk_latency.injected += 1;
            return DiskFate::Spike;
        }
        DiskFate::Ok
    }

    /// Counts an invocation of `handler` on `node` and reports whether
    /// an armed trap fires *before* this invocation executes.
    pub fn should_trap(&mut self, node: u16, handler: u8) -> bool {
        let n = self.trap_counts.entry((node, handler)).or_insert(0);
        *n += 1;
        let count = *n;
        let fired = self.plan.handler_traps.iter().any(|t| {
            t.handler == handler && t.node.is_none_or(|tn| tn == node) && t.at_invocation == count
        });
        if fired {
            self.stats.handler_trap.injected += 1;
            self.stats.handler_trap.detected += 1; // the watchdog caught it
        }
        fired
    }
}

// The plan is static configuration, re-armed by whoever rebuilds the
// simulation before restoring; every later fate decision continues
// the snapshotted RNG streams exactly.
snap_fields!(FaultInjector {
    plan: skip,
    packet_rng,
    disk_rng,
    trap_counts,
    stats,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn default_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..10_000 {
            assert_eq!(inj.packet_fate(), PacketFate::Deliver);
            assert_eq!(inj.disk_fate(), DiskFate::Ok);
        }
        assert!(!inj.should_trap(0, 1));
        assert_eq!(inj.stats, FaultStats::default());
    }

    #[test]
    fn same_seed_same_fates() {
        let fates = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::chaos(seed));
            (0..1000).map(|_| inj.packet_fate()).collect::<Vec<_>>()
        };
        assert_eq!(fates(7), fates(7));
        assert_ne!(fates(7), fates(8));
    }

    #[test]
    fn chaos_rates_roughly_match() {
        let mut inj = FaultInjector::new(FaultPlan::chaos(42));
        let n = 100_000;
        for _ in 0..n {
            inj.packet_fate();
        }
        let corrupt = inj.stats.packet_corrupt.injected as f64 / n as f64;
        let drop = inj.stats.packet_drop.injected as f64 / n as f64;
        assert!((corrupt - 0.01).abs() < 0.003, "corrupt rate {corrupt}");
        assert!((drop - 0.005).abs() < 0.003, "drop rate {drop}");
    }

    #[test]
    fn trap_fires_exactly_once_at_nth_invocation() {
        let mut plan = FaultPlan::default();
        plan.handler_traps.push(HandlerTrap {
            node: Some(3),
            handler: 9,
            at_invocation: 5,
        });
        let mut inj = FaultInjector::new(plan);
        let fired: Vec<bool> = (0..10).map(|_| inj.should_trap(3, 9)).collect();
        assert_eq!(fired.iter().filter(|&&f| f).count(), 1);
        assert!(fired[4], "trap must fire on the 5th invocation");
        // Other (node, handler) pairs are independent.
        assert!(!inj.should_trap(4, 9));
        assert_eq!(inj.stats.handler_trap.injected, 1);
    }

    #[test]
    fn injector_snapshot_resumes_fate_streams() {
        let mut plan = FaultPlan::chaos(99);
        plan.handler_traps.push(HandlerTrap {
            node: None,
            handler: 2,
            at_invocation: 10,
        });
        let mut orig = FaultInjector::new(plan.clone());
        for _ in 0..500 {
            orig.packet_fate();
            orig.disk_fate();
        }
        for _ in 0..7 {
            orig.should_trap(1, 2);
        }
        let mut w = SnapWriter::new();
        orig.snapshot(&mut w);
        let bytes = w.into_bytes();

        // Fresh injector from the same plan, as a rebuilt run would.
        let mut restored = FaultInjector::new(plan);
        let mut r = SnapReader::new(&bytes).unwrap();
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.stats, orig.stats);
        for _ in 0..500 {
            assert_eq!(orig.packet_fate(), restored.packet_fate());
            assert_eq!(orig.disk_fate(), restored.disk_fate());
        }
        // Trap counts resumed: the 10th invocation still fires once.
        for i in 0..5 {
            assert_eq!(orig.should_trap(1, 2), restored.should_trap(1, 2), "{i}");
        }
        assert_eq!(orig.stats.digest(), restored.stats.digest());
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = FaultStats::default();
        a.packet_corrupt.injected = 1;
        let mut b = FaultStats::default();
        b.packet_drop.injected = 1;
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest());
        assert_ne!(FaultStats::default().digest(), a.digest());
    }
}
