//! RDRAM memory timing model.
//!
//! The paper (§4, citing the Direct RDRAM 256/288-Mbit datasheet) models a
//! memory system with 1.6 GB/s peak bandwidth, 100 ns page-hit latency and
//! 122 ns page-miss latency, for both the host and the switch. We model an
//! open-page policy over interleaved banks plus a single data channel whose
//! occupancy enforces the bandwidth limit.

use asan_sim::stats::Counter;
use asan_sim::{Period, SimDuration, SimTime};

/// Configuration of an RDRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency from request issue to first data when the bank row is open.
    pub page_hit: SimDuration,
    /// Latency from request issue to first data on a row conflict/closed row.
    pub page_miss: SimDuration,
    /// Peak data bandwidth in bytes/second.
    pub bytes_per_sec: u64,
    /// Number of interleaved banks.
    pub num_banks: usize,
    /// Device page (row) size in bytes.
    pub page_bytes: u64,
}

impl DramConfig {
    /// The paper's RDRAM: 1.6 GB/s, 100 ns hit, 122 ns miss.
    pub fn paper() -> Self {
        DramConfig {
            page_hit: SimDuration::from_ns(100),
            page_miss: SimDuration::from_ns(122),
            bytes_per_sec: 1_600_000_000,
            num_banks: 16,
            page_bytes: 2048,
        }
    }
}

/// Timing of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// When the request was presented to the controller.
    pub issued: SimTime,
    /// When the first double-word of data is available (critical word
    /// first; a blocked load may resume here).
    pub first_data: SimTime,
    /// When the full transfer finishes (the channel is busy until then).
    pub complete: SimTime,
    /// Whether the access hit an open row.
    pub page_hit: bool,
}

/// DRAM statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramStats {
    /// Row-buffer hits.
    pub page_hits: Counter,
    /// Row-buffer misses (activation required).
    pub page_misses: Counter,
    /// Total bytes transferred.
    pub bytes: Counter,
}

/// An RDRAM channel with open-page banks.
///
/// # Example
///
/// ```
/// use asan_mem::dram::{Dram, DramConfig};
/// use asan_sim::SimTime;
/// let mut d = Dram::new(DramConfig::paper());
/// let a = d.access(0, 128, SimTime::ZERO);
/// assert!(!a.page_hit); // cold bank
/// let b = d.access(128, 128, a.complete);
/// assert!(b.page_hit);  // same row
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// Transfer time per byte, from `cfg.bytes_per_sec`.
    byte: Period,
    open_row: Vec<Option<u64>>,
    channel_free: SimTime,
    stats: DramStats,
}

impl Dram {
    /// Builds a channel with all banks closed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks, zero bandwidth, or a
    /// non-power-of-two page size.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.num_banks > 0, "need at least one bank");
        assert!(cfg.bytes_per_sec > 0, "zero bandwidth");
        assert!(cfg.page_bytes.is_power_of_two(), "page size must be 2^k");
        Dram {
            open_row: vec![None; cfg.num_banks],
            byte: Period::of(cfg.bytes_per_sec),
            cfg,
            channel_free: SimTime::ZERO,
            stats: DramStats::default(),
        }
    }

    /// The configured timing parameters.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Performs an access of `bytes` bytes at `addr`, arriving at the
    /// controller at `now`. Returns the access timing; the channel is
    /// reserved until `complete`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn access(&mut self, addr: u64, bytes: u64, now: SimTime) -> DramAccess {
        assert!(bytes > 0, "zero-length DRAM access");
        let page = addr / self.cfg.page_bytes;
        let bank = (page % self.cfg.num_banks as u64) as usize;
        let row = page / self.cfg.num_banks as u64;

        let page_hit = self.open_row[bank] == Some(row);
        let lat = if page_hit {
            self.stats.page_hits.inc();
            self.cfg.page_hit
        } else {
            self.stats.page_misses.inc();
            self.cfg.page_miss
        };
        self.open_row[bank] = Some(row);
        self.stats.bytes.add(bytes);

        // The activation/CAS latency pipelines behind the previous
        // transfer: data starts moving when both the latency has elapsed
        // and the channel is free, so back-to-back streaming reaches peak
        // bandwidth while an isolated access sees the full latency.
        let data_start = (now + lat).max(self.channel_free);
        // Critical word (8 B) first, then the remainder streams out.
        let first_burst = self.byte.times(bytes.min(8));
        let full_burst = self.byte.times(bytes);
        let first_data = data_start + first_burst;
        let complete = data_start + full_burst;
        self.channel_free = complete;

        DramAccess {
            issued: now,
            first_data,
            complete,
            page_hit,
        }
    }

    /// Closes all rows (e.g. between benchmark configurations).
    pub fn flush(&mut self) {
        self.open_row.iter_mut().for_each(|r| *r = None);
        self.channel_free = SimTime::ZERO;
    }
}

asan_sim::snap_fields!(DramStats {
    page_hits,
    page_misses,
    bytes,
});

// Each bank's open row, the channel cursor and the statistics; the
// bank count is configuration and must match on restore.
asan_sim::snap_fields!(Dram {
    cfg: skip,
    byte: skip,
    open_row: fixed,
    channel_free,
    stats,
});

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn cold_access_is_page_miss_with_paper_latency() {
        let mut d = Dram::new(DramConfig::paper());
        let a = d.access(0, 8, SimTime::ZERO);
        assert!(!a.page_hit);
        // 122 ns activation + 5 ns to move 8 B at 1.6 GB/s.
        assert_eq!(a.first_data.as_ns(), 127);
        assert_eq!(a.complete, a.first_data);
    }

    #[test]
    fn open_row_hits_are_faster() {
        let mut d = Dram::new(DramConfig::paper());
        let a = d.access(64, 8, SimTime::ZERO);
        let b = d.access(72, 8, a.complete);
        assert!(b.page_hit);
        assert_eq!(b.first_data.since(b.issued).as_ns(), 105); // 100 + 5
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let cfg = DramConfig::paper();
        let mut d = Dram::new(cfg);
        let stride = cfg.page_bytes * cfg.num_banks as u64; // same bank, next row
        d.access(0, 8, SimTime::ZERO);
        let b = d.access(stride, 8, SimTime::from_ns(1000));
        assert!(!b.page_hit);
    }

    #[test]
    fn adjacent_pages_hit_different_banks() {
        let cfg = DramConfig::paper();
        let mut d = Dram::new(cfg);
        d.access(0, 8, SimTime::ZERO);
        // Next page lands in the next bank; both rows stay open.
        d.access(cfg.page_bytes, 8, SimTime::from_ns(500));
        let again = d.access(16, 8, SimTime::from_ns(1000));
        assert!(again.page_hit);
    }

    #[test]
    fn channel_contention_serializes_requests() {
        let mut d = Dram::new(DramConfig::paper());
        let a = d.access(0, 128, SimTime::ZERO);
        // A second request presented at time zero cannot move data until
        // the channel frees up.
        let b = d.access(1 << 20, 128, SimTime::ZERO);
        assert!(b.first_data > a.complete);
        assert_eq!(
            b.complete.since(a.complete),
            SimDuration::transfer(128, 1_600_000_000)
        );
    }

    #[test]
    fn bandwidth_bound_matches_config() {
        let mut d = Dram::new(DramConfig::paper());
        // Stream 1 MB in 128 B lines, all requests queued up front; the
        // total time must be close to 1 MB / 1.6 GB/s = 655 us since the
        // per-access latency pipelines behind the channel.
        let mut t = SimTime::ZERO;
        let total: u64 = 1 << 20;
        for off in (0..total).step_by(128) {
            t = d.access(off, 128, SimTime::ZERO).complete;
        }
        let secs = t.as_secs_f64();
        let ideal = total as f64 / 1.6e9;
        assert!(
            secs >= ideal,
            "faster than peak bandwidth: {secs} < {ideal}"
        );
        assert!(secs < ideal * 1.2, "too much overhead: {secs} vs {ideal}");
    }

    #[test]
    fn snapshot_restores_rows_and_channel() {
        let mut d = Dram::new(DramConfig::paper());
        d.access(0, 128, SimTime::ZERO);
        d.access(4096, 64, SimTime::from_ns(50));
        let mut w = SnapWriter::new();
        d.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = Dram::new(DramConfig::paper());
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();
        // Identical future timing: open rows and channel occupancy match.
        let t = SimTime::from_ns(300);
        assert_eq!(d.access(16, 8, t), back.access(16, 8, t));
        assert_eq!(d.access(1 << 24, 128, t), back.access(1 << 24, 128, t));
        assert_eq!(back.stats().bytes.get(), d.stats().bytes.get());
    }

    #[test]
    fn flush_closes_rows() {
        let mut d = Dram::new(DramConfig::paper());
        let a = d.access(0, 8, SimTime::ZERO);
        d.flush();
        let b = d.access(8, 8, a.complete);
        assert!(!b.page_hit);
    }

    #[test]
    fn stats_count_bytes_and_hits() {
        let mut d = Dram::new(DramConfig::paper());
        let a = d.access(0, 128, SimTime::ZERO);
        d.access(128, 128, a.complete);
        assert_eq!(d.stats().bytes.get(), 256);
        assert_eq!(d.stats().page_misses.get(), 1);
        assert_eq!(d.stats().page_hits.get(), 1);
    }
}
