//! The storage subsystem behind one TCA: striped disks on a SCSI bus.
//!
//! Composes the [`Disk`] and [`ScsiBus`]
//! models into the paper's I/O system:
//! two disks striped for an aggregate 100 MB/s, sharing one Ultra-320
//! bus, fronted by a TCA that packetizes data into MTU-sized network
//! packets. The key output is a *per-packet ready time* schedule — when
//! each 512-byte packet of a read is available at the TCA's network
//! port — which the cluster feeds into the fabric.

use asan_sim::{SimDuration, SimTime};

use crate::disk::{Disk, DiskConfig};
use crate::scsi::{ScsiBus, ScsiConfig};

/// Configuration of the storage array + TCA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Number of disks (2 in the paper).
    pub num_disks: usize,
    /// Per-disk mechanical parameters.
    pub disk: DiskConfig,
    /// Shared bus parameters.
    pub scsi: ScsiConfig,
    /// Striping unit across the disks.
    pub stripe_bytes: u64,
    /// SCSI burst size (one arbitration per burst).
    pub burst_bytes: u64,
    /// TCA processing latency per outgoing network packet.
    pub tca_packet_latency: SimDuration,
    /// Network MTU used for packetization.
    pub mtu: u64,
}

impl StorageConfig {
    /// The paper's I/O subsystem: 2 × 50 MB/s disks, Ultra-320 bus,
    /// 16 KB stripes (so even a single 64 KB request engages both
    /// disks, delivering the paper's 100 MB/s aggregate), 4 KB bus
    /// bursts, 512 B MTU.
    pub fn paper() -> Self {
        StorageConfig {
            num_disks: 2,
            disk: DiskConfig::paper(),
            scsi: ScsiConfig::ultra320(),
            stripe_bytes: 16 * 1024,
            burst_bytes: 4 * 1024,
            tca_packet_latency: SimDuration::from_ns(300),
            mtu: 512,
        }
    }
}

/// Schedule of one streamed read: when each MTU packet is ready to
/// leave the TCA.
#[derive(Debug, Clone)]
pub struct ReadSchedule {
    /// Ready time of each MTU packet, in logical byte order.
    pub packet_ready: Vec<SimTime>,
    /// Payload length of each packet (the last may be short).
    pub packet_len: Vec<u32>,
    /// When the final byte cleared the SCSI bus.
    pub complete: SimTime,
}

impl ReadSchedule {
    /// Number of packets in the read.
    pub fn len(&self) -> usize {
        self.packet_ready.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.packet_ready.is_empty()
    }
}

/// The storage array owned by one TCA.
///
/// # Example
///
/// ```
/// use asan_io::storage::{Storage, StorageConfig};
/// use asan_sim::SimTime;
/// let mut s = Storage::new(StorageConfig::paper());
/// let sched = s.read_stream(0, 64 * 1024, SimTime::ZERO);
/// assert_eq!(sched.len(), 128); // 64 KB / 512 B
/// ```
#[derive(Debug)]
pub struct Storage {
    cfg: StorageConfig,
    disks: Vec<Disk>,
    bus: ScsiBus,
}

// The disk count is configuration and must match on restore.
asan_sim::snap_fields!(Storage @ "storage" {
    cfg: skip,
    disks: fixed,
    bus,
});

impl Storage {
    /// Creates the array with all disks cold.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero disks or a stripe/burst/MTU
    /// of zero.
    pub fn new(cfg: StorageConfig) -> Self {
        assert!(cfg.num_disks > 0, "need at least one disk");
        assert!(
            cfg.stripe_bytes > 0 && cfg.burst_bytes > 0 && cfg.mtu > 0,
            "zero-sized unit"
        );
        Storage {
            disks: (0..cfg.num_disks).map(|_| Disk::new(cfg.disk)).collect(),
            bus: ScsiBus::new(cfg.scsi),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.cfg
    }

    /// Per-disk models, for statistics.
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// The shared bus, for statistics.
    pub fn bus(&self) -> &ScsiBus {
        &self.bus
    }

    /// Injects a latency spike: every disk's next request pays full
    /// mechanical positioning even if sequential.
    pub fn force_seek_next(&mut self) {
        for d in &mut self.disks {
            d.force_seek_next();
        }
    }

    /// Holds the SCSI bus busy until `until` (injected bus reset).
    pub fn inject_bus_stall(&mut self, until: SimTime) {
        self.bus.inject_stall(until);
    }

    /// Streams a read of `len` bytes at logical `offset`, requested at
    /// `now`; returns the per-packet ready schedule at the TCA.
    ///
    /// The stripe units are read in logical order; each unit's bytes
    /// cross the bus in `burst_bytes` bursts as the platter delivers
    /// them, and every `mtu` bytes that clear the bus become one network
    /// packet after the TCA's per-packet latency.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn read_stream(&mut self, offset: u64, len: u64, now: SimTime) -> ReadSchedule {
        assert!(len > 0, "zero-length read");
        let stripe = self.cfg.stripe_bytes;
        let n_disks = self.cfg.num_disks as u64;

        // Issue each disk's portion as one sequential request covering
        // all its stripe units in this read (they are contiguous in the
        // per-disk address space).
        let first_unit = offset / stripe;
        let last_unit = (offset + len - 1) / stripe;
        let mut disk_xfers = Vec::new(); // per unit: (disk xfer, base within xfer)
        let mut per_disk_span: Vec<Option<(u64, u64)>> = vec![None; self.cfg.num_disks];
        for unit in first_unit..=last_unit {
            let disk = (unit % n_disks) as usize;
            let unit_start = (unit * stripe).max(offset);
            let unit_end = ((unit + 1) * stripe).min(offset + len);
            let disk_off = (unit / n_disks) * stripe + (unit_start - unit * stripe);
            let span = per_disk_span[disk].get_or_insert((disk_off, 0));
            span.1 += unit_end - unit_start;
        }
        let mut per_disk_xfer = Vec::with_capacity(self.cfg.num_disks);
        for (d, span) in per_disk_span.iter().enumerate() {
            per_disk_xfer.push(span.map(|(off, bytes)| self.disks[d].read(off, bytes, now)));
        }
        // Cursor into each disk's transfer as units consume it.
        let mut disk_cursor = vec![0u64; self.cfg.num_disks];
        for unit in first_unit..=last_unit {
            let disk = (unit % n_disks) as usize;
            let unit_start = (unit * stripe).max(offset);
            let unit_end = ((unit + 1) * stripe).min(offset + len);
            let xfer = per_disk_xfer[disk].expect("disk has data");
            disk_xfers.push((xfer, disk_cursor[disk], unit_end - unit_start));
            disk_cursor[disk] += unit_end - unit_start;
        }

        // Move each unit across the bus in bursts, in logical order, and
        // cut packets as bytes clear the bus.
        let mut packet_ready = Vec::with_capacity((len / self.cfg.mtu + 1) as usize);
        let mut packet_len = Vec::with_capacity(packet_ready.capacity());
        let mut pkt_fill = 0u64; // bytes of the current packet already crossed
        let mut complete = now;
        for (xfer, base, unit_len) in disk_xfers {
            let mut done = 0u64;
            while done < unit_len {
                let burst = self.cfg.burst_bytes.min(unit_len - done);
                // The burst can start once its last byte is off the platter.
                let ready = xfer.byte_ready(base + done + burst);
                let bx = self.bus.burst(burst, ready);
                complete = complete.max(bx.complete);
                // Cut MTU packets as bytes cross.
                let mut in_burst = 0u64;
                while in_burst < burst {
                    let need = self.cfg.mtu - pkt_fill;
                    let take = need.min(burst - in_burst);
                    in_burst += take;
                    pkt_fill += take;
                    if pkt_fill == self.cfg.mtu {
                        packet_ready.push(bx.byte_ready(in_burst) + self.cfg.tca_packet_latency);
                        packet_len.push(self.cfg.mtu as u32);
                        pkt_fill = 0;
                    }
                }
                done += burst;
            }
        }
        if pkt_fill > 0 {
            packet_ready.push(complete + self.cfg.tca_packet_latency);
            packet_len.push(pkt_fill as u32);
        }
        ReadSchedule {
            packet_ready,
            packet_len,
            complete,
        }
    }

    /// Writes `len` bytes at logical `offset`, with the data fully
    /// available at the TCA at `now`; returns the completion time.
    pub fn write(&mut self, offset: u64, len: u64, now: SimTime) -> SimTime {
        assert!(len > 0, "zero-length write");
        let stripe = self.cfg.stripe_bytes;
        let n_disks = self.cfg.num_disks as u64;
        let first_unit = offset / stripe;
        let last_unit = (offset + len - 1) / stripe;
        let mut per_disk: Vec<Option<(u64, u64)>> = vec![None; self.cfg.num_disks];
        for unit in first_unit..=last_unit {
            let disk = (unit % n_disks) as usize;
            let unit_start = (unit * stripe).max(offset);
            let unit_end = ((unit + 1) * stripe).min(offset + len);
            let disk_off = (unit / n_disks) * stripe + (unit_start - unit * stripe);
            let span = per_disk[disk].get_or_insert((disk_off, 0));
            span.1 += unit_end - unit_start;
        }
        let mut complete = now;
        for (d, span) in per_disk.iter().enumerate() {
            if let Some((off, bytes)) = span {
                // Data crosses the bus first, then lands on the platter.
                let bx = self.bus.burst(*bytes, now);
                let dx = self.disks[d].write(*off, *bytes, bx.complete);
                complete = complete.max(dx.complete);
            }
        }
        complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn packet_count_and_sizes() {
        let mut s = Storage::new(StorageConfig::paper());
        let sched = s.read_stream(0, 1300, SimTime::ZERO);
        assert_eq!(sched.len(), 3);
        assert_eq!(sched.packet_len, vec![512, 512, 276]);
    }

    #[test]
    fn ready_times_are_nondecreasing() {
        let mut s = Storage::new(StorageConfig::paper());
        let sched = s.read_stream(0, 256 * 1024, SimTime::ZERO);
        assert_eq!(sched.len(), 512);
        for w in sched.packet_ready.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(*sched.packet_ready.last().unwrap() >= sched.complete);
    }

    #[test]
    fn aggregate_bandwidth_approaches_100mbs() {
        let mut s = Storage::new(StorageConfig::paper());
        // Stream 8 MB from the start (heads parked at 0: no seek).
        let sched = s.read_stream(0, 8 << 20, SimTime::ZERO);
        let secs = sched.complete.as_secs_f64();
        let rate = (8 << 20) as f64 / secs;
        assert!(
            (80e6..105e6).contains(&rate),
            "aggregate disk rate = {rate:.1} B/s"
        );
    }

    #[test]
    fn both_disks_participate() {
        let mut s = Storage::new(StorageConfig::paper());
        s.read_stream(0, 256 * 1024, SimTime::ZERO);
        assert!(s.disks()[0].stats().bytes.get() > 0);
        assert!(s.disks()[1].stats().bytes.get() > 0);
        assert_eq!(
            s.disks()[0].stats().bytes.get() + s.disks()[1].stats().bytes.get(),
            256 * 1024
        );
    }

    #[test]
    fn sequential_requests_avoid_reseeking() {
        let mut s = Storage::new(StorageConfig::paper());
        let a = s.read_stream(0, 128 * 1024, SimTime::ZERO);
        s.read_stream(128 * 1024, 128 * 1024, a.complete);
        // Heads start parked at 0 and the stream is contiguous per
        // disk: no positioning at all.
        assert_eq!(s.disks()[0].stats().seeks.get(), 0);
        assert_eq!(s.disks()[1].stats().seeks.get(), 0);
    }

    #[test]
    fn small_unaligned_read() {
        let mut s = Storage::new(StorageConfig::paper());
        let sched = s.read_stream(1000, 100, SimTime::ZERO);
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.packet_len, vec![100]);
    }

    #[test]
    fn write_spanning_stripes_uses_both_disks() {
        let mut s = Storage::new(StorageConfig::paper());
        s.write(0, 64 * 1024, SimTime::ZERO); // 4 stripes of 16 KB
        assert!(s.disks()[0].stats().bytes.get() > 0);
        assert!(s.disks()[1].stats().bytes.get() > 0);
        assert_eq!(
            s.disks()[0].stats().bytes.get() + s.disks()[1].stats().bytes.get(),
            64 * 1024
        );
    }

    #[test]
    fn interleaved_reads_stay_causal() {
        // Two reads issued close together: the second's packets never
        // become ready before the first's last packet.
        let mut s = Storage::new(StorageConfig::paper());
        let a = s.read_stream(0, 64 * 1024, SimTime::ZERO);
        let b = s.read_stream(64 * 1024, 64 * 1024, SimTime::from_us(5));
        assert!(b.packet_ready[0] >= *a.packet_ready.last().unwrap());
    }

    #[test]
    fn write_touches_bus_and_disk() {
        let mut s = Storage::new(StorageConfig::paper());
        let t = s.write(0, 64 * 1024, SimTime::ZERO);
        assert!(t > SimTime::ZERO);
        assert!(s.bus().stats().bytes.get() >= 64 * 1024);
    }

    #[test]
    fn snapshot_restores_heads_and_bus_occupancy() {
        let mut s = Storage::new(StorageConfig::paper());
        s.read_stream(0, 128 * 1024, SimTime::ZERO);
        let mut w = SnapWriter::new();
        s.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = Storage::new(StorageConfig::paper());
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();
        // Continuing the contiguous stream: identical packet schedules
        // (no re-seek, same bus queueing).
        let t = SimTime::from_us(10);
        let a = s.read_stream(128 * 1024, 64 * 1024, t);
        let b = back.read_stream(128 * 1024, 64 * 1024, t);
        assert_eq!(a.packet_ready, b.packet_ready);
        assert_eq!(a.packet_len, b.packet_len);
        assert_eq!(a.complete, b.complete);
        assert_eq!(back.disks()[0].stats().seeks.get(), 0);
    }

    #[test]
    fn read_spanning_many_stripes_is_in_logical_order() {
        let mut s = Storage::new(StorageConfig::paper());
        // 3 stripes + a bit: packets must still be monotonic.
        let sched = s.read_stream(0, 200 * 1024, SimTime::ZERO);
        for w in sched.packet_ready.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let total: u64 = sched.packet_len.iter().map(|&l| l as u64).sum();
        assert_eq!(total, 200 * 1024);
    }
}
