//! Disk timing model.
//!
//! §4: "The disk model includes three timing related parameters: seek
//! time, rotation speed and peak bandwidth. For all the experiments in
//! this paper, we use two disks with a total peak bandwidth of 100 MB/s
//! and we assume a sequential access pattern because most of our
//! applications deal with large files."
//!
//! Each disk keeps a head position; a request contiguous with the
//! previous one streams at the platter rate, anything else pays the
//! average seek plus half a rotation.

use asan_sim::stats::Counter;
use asan_sim::{SimDuration, SimTime};

/// Mechanical parameters of one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Average seek time for a non-sequential access.
    pub seek: SimDuration,
    /// Average rotational delay (half a revolution).
    pub half_rotation: SimDuration,
    /// Peak media transfer rate in bytes/second.
    pub bytes_per_sec: u64,
}

impl DiskConfig {
    /// One of the paper's two disks: 50 MB/s media rate (2 × 50 = the
    /// paper's 100 MB/s aggregate), 5 ms average seek, 10 000 RPM
    /// (3 ms half-rotation) — typical of 2002-era enterprise drives.
    pub fn paper() -> Self {
        DiskConfig {
            seek: SimDuration::from_ms(5),
            half_rotation: SimDuration::from_ns(3_000_000),
            bytes_per_sec: 50_000_000,
        }
    }
}

/// Timing of one disk read/write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskXfer {
    /// When the mechanism started servicing the request.
    pub start: SimTime,
    /// When the first byte was available in the drive buffer.
    pub first_byte: SimTime,
    /// When the last byte was available.
    pub complete: SimTime,
    /// Whether the access was sequential (no seek charged).
    pub sequential: bool,
    /// Media rate for interpolating intermediate byte times.
    pub bytes_per_sec: u64,
    /// Length of the transfer.
    pub len: u64,
}

impl DiskXfer {
    /// Time at which byte `k` (0-based) of the transfer is available.
    pub fn byte_ready(&self, k: u64) -> SimTime {
        debug_assert!(k <= self.len);
        self.first_byte + SimDuration::transfer(k, self.bytes_per_sec)
    }
}

/// Per-disk statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Requests serviced.
    pub requests: Counter,
    /// Requests that required a seek.
    pub seeks: Counter,
    /// Bytes transferred.
    pub bytes: Counter,
}

asan_sim::snap_fields!(DiskStats {
    requests,
    seeks,
    bytes,
});

/// A single disk mechanism.
///
/// The head starts parked at byte 0 — the paper "assumes a
/// sequential access pattern because most of our applications deal
/// with large files", so the first access of a sequential stream from
/// the start of the array pays no positioning cost; any discontiguous
/// access (a different file, a different region) does.
///
/// # Example
///
/// ```
/// use asan_io::disk::{Disk, DiskConfig};
/// use asan_sim::SimTime;
/// let mut d = Disk::new(DiskConfig::paper());
/// let a = d.read(0, 65536, SimTime::ZERO);       // head parked at 0: streams
/// assert!(a.sequential);
/// let b = d.read(1 << 30, 65536, a.complete);    // far away: seek + rotation
/// assert!(!b.sequential);
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    cfg: DiskConfig,
    head_pos: Option<u64>,
    busy_until: SimTime,
    stats: DiskStats,
    /// When set, the next request pays full positioning even if
    /// sequential (injected latency spike: thermal recalibration or a
    /// sector remap). One-shot; cleared by the next request.
    force_seek: bool,
}

asan_sim::snap_fields!(Disk {
    cfg: skip,
    head_pos,
    busy_until,
    force_seek,
    stats,
});

impl Disk {
    /// Creates a disk with the head parked at byte 0.
    pub fn new(cfg: DiskConfig) -> Self {
        assert!(cfg.bytes_per_sec > 0, "zero media rate");
        Disk {
            cfg,
            head_pos: Some(0),
            busy_until: SimTime::ZERO,
            stats: DiskStats::default(),
            force_seek: false,
        }
    }

    /// Forces the next request to pay full mechanical positioning even
    /// if it is sequential — an injected latency spike.
    pub fn force_seek_next(&mut self) {
        self.force_seek = true;
    }

    /// The mechanical parameters.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Services a read of `len` bytes at byte `offset`, requested at
    /// `now`. The mechanism is exclusive: overlapping requests queue.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn read(&mut self, offset: u64, len: u64, now: SimTime) -> DiskXfer {
        assert!(len > 0, "zero-length disk read");
        let start = now.max(self.busy_until);
        let sequential = self.head_pos == Some(offset) && !self.force_seek;
        self.force_seek = false;
        let positioning = if sequential {
            SimDuration::ZERO
        } else {
            self.stats.seeks.inc();
            self.cfg.seek + self.cfg.half_rotation
        };
        let first_byte = start + positioning;
        let complete = first_byte + SimDuration::transfer(len, self.cfg.bytes_per_sec);
        self.head_pos = Some(offset + len);
        self.busy_until = complete;
        self.stats.requests.inc();
        self.stats.bytes.add(len);
        DiskXfer {
            start,
            first_byte,
            complete,
            sequential,
            bytes_per_sec: self.cfg.bytes_per_sec,
            len,
        }
    }

    /// Services a write; identical timing to a read at this fidelity.
    pub fn write(&mut self, offset: u64, len: u64, now: SimTime) -> DiskXfer {
        self.read(offset, len, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn discontiguous_access_pays_seek_and_rotation() {
        let mut d = Disk::new(DiskConfig::paper());
        // Head parked at 0: reading from the start is free of seeks.
        let x = d.read(0, 1024, SimTime::ZERO);
        assert!(x.sequential);
        assert_eq!(x.first_byte, SimTime::ZERO);
        // Jumping elsewhere pays 5 ms + 3 ms positioning.
        let y = d.read(1 << 20, 1024, x.complete);
        assert!(!y.sequential);
        assert_eq!(y.first_byte.since(y.start).as_ns(), 8_000_000);
        assert_eq!(d.stats().seeks.get(), 1);
    }

    #[test]
    fn sequential_read_streams_at_media_rate() {
        let mut d = Disk::new(DiskConfig::paper());
        let a = d.read(0, 65536, SimTime::ZERO);
        let b = d.read(65536, 65536, a.complete);
        assert!(b.sequential);
        assert_eq!(b.first_byte, b.start);
        // 64 KB at 50 MB/s ≈ 1.31 ms.
        let us = b.complete.since(b.start).as_us();
        assert!((1300..1320).contains(&us), "{us} us");
    }

    #[test]
    fn non_contiguous_read_seeks_again() {
        let mut d = Disk::new(DiskConfig::paper());
        let a = d.read(0, 4096, SimTime::ZERO);
        let b = d.read(1 << 30, 4096, a.complete);
        assert!(!b.sequential);
        // Coming back also seeks.
        let c = d.read(8192, 4096, b.complete);
        assert!(!c.sequential);
        assert_eq!(d.stats().seeks.get(), 2);
    }

    #[test]
    fn overlapping_requests_queue() {
        let mut d = Disk::new(DiskConfig::paper());
        let a = d.read(0, 65536, SimTime::ZERO);
        let b = d.read(65536, 65536, SimTime::ZERO);
        assert_eq!(b.start, a.complete);
    }

    #[test]
    fn byte_ready_interpolates() {
        let mut d = Disk::new(DiskConfig::paper());
        let x = d.read(0, 50_000_000, SimTime::ZERO);
        // Byte 25 MB ready half a second after first byte.
        let mid = x.byte_ready(25_000_000);
        assert_eq!(mid.since(x.first_byte).as_us(), 500_000);
        assert_eq!(x.byte_ready(x.len), x.complete);
    }

    #[test]
    fn forced_seek_spikes_one_request() {
        let mut d = Disk::new(DiskConfig::paper());
        let a = d.read(0, 4096, SimTime::ZERO);
        assert!(a.sequential);
        d.force_seek_next();
        // Contiguous, but the injected spike forces positioning.
        let b = d.read(4096, 4096, a.complete);
        assert!(!b.sequential);
        assert_eq!(b.first_byte.since(b.start).as_ns(), 8_000_000);
        // One-shot: the following contiguous read streams again.
        let c = d.read(8192, 4096, b.complete);
        assert!(c.sequential);
    }

    #[test]
    fn snapshot_restores_head_and_spike() {
        let mut d = Disk::new(DiskConfig::paper());
        d.read(0, 4096, SimTime::ZERO);
        d.force_seek_next();
        let mut w = SnapWriter::new();
        d.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut back = Disk::new(DiskConfig::paper());
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();
        // Contiguous read: the restored disk still pays the one-shot
        // forced seek and queues behind the same busy window.
        let t = SimTime::ZERO;
        assert_eq!(d.read(4096, 4096, t), back.read(4096, 4096, t));
        assert_eq!(back.stats().seeks.get(), d.stats().seeks.get());
        assert_eq!(back.stats().bytes.get(), d.stats().bytes.get());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Disk::new(DiskConfig::paper());
        let a = d.read(0, 100, SimTime::ZERO);
        d.write(100, 200, a.complete);
        assert_eq!(d.stats().requests.get(), 2);
        assert_eq!(d.stats().bytes.get(), 300);
    }
}
