//! Ultra-320 SCSI bus model.
//!
//! §4: "The SCSI bus models the overhead of arbitration and selection
//! transactions and has a peak throughput of 320 MB/s." The bus is a
//! shared medium: the two disks' streams interleave in bursts, each
//! burst paying arbitration + selection before its data phase.

use asan_sim::stats::Counter;
use asan_sim::{SimDuration, SimTime};

/// Electrical/protocol parameters of the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScsiConfig {
    /// Peak data-phase throughput in bytes/second.
    pub bytes_per_sec: u64,
    /// Arbitration phase duration before each burst.
    pub arbitration: SimDuration,
    /// (Re)selection phase duration before each burst.
    pub selection: SimDuration,
}

impl ScsiConfig {
    /// Ultra-320: 320 MB/s, with SPI-4 arbitration (~1 µs) and
    /// selection (~0.5 µs) overheads per bus transaction.
    pub fn ultra320() -> Self {
        ScsiConfig {
            bytes_per_sec: 320_000_000,
            arbitration: SimDuration::from_ns(1_000),
            selection: SimDuration::from_ns(500),
        }
    }
}

/// Timing of one burst over the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusXfer {
    /// When arbitration for this burst began.
    pub start: SimTime,
    /// When the data phase began (arbitration + selection done).
    pub data_start: SimTime,
    /// When the last byte crossed the bus.
    pub complete: SimTime,
    /// Data-phase rate for interpolation.
    pub bytes_per_sec: u64,
    /// Burst length.
    pub len: u64,
}

impl BusXfer {
    /// Time at which byte `k` of the burst has crossed the bus.
    pub fn byte_ready(&self, k: u64) -> SimTime {
        debug_assert!(k <= self.len);
        self.data_start + SimDuration::transfer(k, self.bytes_per_sec)
    }
}

/// Bus statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScsiStats {
    /// Bursts carried.
    pub bursts: Counter,
    /// Bytes carried.
    pub bytes: Counter,
}

asan_sim::snap_fields!(ScsiStats { bursts, bytes });

/// The shared SCSI bus.
///
/// # Example
///
/// ```
/// use asan_io::scsi::{ScsiBus, ScsiConfig};
/// use asan_sim::SimTime;
/// let mut bus = ScsiBus::new(ScsiConfig::ultra320());
/// let x = bus.burst(4096, SimTime::ZERO);
/// assert_eq!(x.data_start.as_ns(), 1_500); // arbitration + selection
/// ```
#[derive(Debug, Clone)]
pub struct ScsiBus {
    cfg: ScsiConfig,
    busy_until: SimTime,
    stats: ScsiStats,
}

asan_sim::snap_fields!(ScsiBus {
    cfg: skip,
    busy_until,
    stats,
});

impl ScsiBus {
    /// Creates an idle bus.
    pub fn new(cfg: ScsiConfig) -> Self {
        assert!(cfg.bytes_per_sec > 0, "zero bus rate");
        ScsiBus {
            cfg,
            busy_until: SimTime::ZERO,
            stats: ScsiStats::default(),
        }
    }

    /// The bus parameters.
    pub fn config(&self) -> &ScsiConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ScsiStats {
        &self.stats
    }

    /// Holds the bus busy until `until` (models a bus reset/retrain
    /// after a parity error); later bursts queue behind it.
    pub fn inject_stall(&mut self, until: SimTime) {
        self.busy_until = self.busy_until.max(until);
    }

    /// Transfers one burst of `len` bytes whose data is ready at the
    /// initiator at `ready`. The bus is exclusive for
    /// arbitration + selection + data phase.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn burst(&mut self, len: u64, ready: SimTime) -> BusXfer {
        assert!(len > 0, "zero-length SCSI burst");
        let start = ready.max(self.busy_until);
        let data_start = start + self.cfg.arbitration + self.cfg.selection;
        let complete = data_start + SimDuration::transfer(len, self.cfg.bytes_per_sec);
        self.busy_until = complete;
        self.stats.bursts.inc();
        self.stats.bytes.add(len);
        BusXfer {
            start,
            data_start,
            complete,
            bytes_per_sec: self.cfg.bytes_per_sec,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_pays_arbitration_and_selection() {
        let mut bus = ScsiBus::new(ScsiConfig::ultra320());
        let x = bus.burst(3200, SimTime::ZERO);
        assert_eq!(x.data_start.as_ns(), 1500);
        // 3200 B at 320 MB/s = 10 us data phase.
        assert_eq!(x.complete.since(x.data_start).as_us(), 10);
    }

    #[test]
    fn competing_bursts_serialize() {
        let mut bus = ScsiBus::new(ScsiConfig::ultra320());
        let a = bus.burst(4096, SimTime::ZERO);
        let b = bus.burst(4096, SimTime::ZERO);
        assert_eq!(b.start, a.complete);
        assert_eq!(bus.stats().bursts.get(), 2);
        assert_eq!(bus.stats().bytes.get(), 8192);
    }

    #[test]
    fn effective_throughput_below_peak_due_to_overheads() {
        let mut bus = ScsiBus::new(ScsiConfig::ultra320());
        // 100 bursts of 4 KB.
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t = bus.burst(4096, t).complete;
        }
        let eff = (100.0 * 4096.0) / t.as_secs_f64();
        assert!(eff < 320e6, "must be below peak");
        assert!(eff > 250e6, "4 KB bursts should still be efficient: {eff}");
    }

    #[test]
    fn injected_stall_delays_bursts() {
        let mut bus = ScsiBus::new(ScsiConfig::ultra320());
        bus.inject_stall(SimTime::from_us(50));
        let x = bus.burst(4096, SimTime::ZERO);
        assert_eq!(x.start, SimTime::from_us(50));
    }

    #[test]
    fn byte_ready_interpolates() {
        let mut bus = ScsiBus::new(ScsiConfig::ultra320());
        let x = bus.burst(3200, SimTime::ZERO);
        assert_eq!(x.byte_ready(0), x.data_start);
        assert_eq!(x.byte_ready(3200), x.complete);
    }
}
