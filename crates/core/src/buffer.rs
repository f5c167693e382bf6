//! On-chip data buffers with cache-line-granularity valid bits.
//!
//! §3: "Each data buffer is an independently managed chunk of memory
//! equipped with cache-line based valid bits to allow more parallelism
//! and pipelined data transfers. When a line of data is ready, its
//! corresponding valid bit is set. Accessing an invalid line in a data
//! buffer will stall the switch CPU until that line becomes valid."
//!
//! A buffer holds up to one MTU (512 B) in 32 B lines (matching the
//! switch D-cache line size), so 16 valid bits per buffer. For incoming
//! messages the fill schedule is derived from the link serialization
//! times; the switch CPU can therefore begin processing the first lines
//! while the tail of the packet is still on the wire — the overlap the
//! paper credits for much of the active switch's efficiency.

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::SimTime;

/// Bytes per data buffer (one MTU).
pub const BUFFER_BYTES: usize = 512;

/// Bytes per valid-bit line.
pub const LINE_BYTES: usize = 32;

/// Lines per buffer.
pub const LINES: usize = BUFFER_BYTES / LINE_BYTES;

/// Index of a data buffer within the switch's buffer file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub u8);

/// Written as a `u64`: the width handler snapshots hold buffer ids in.
impl Snap for BufId {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.u64(u64::from(self.0));
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0 =
            u8::try_from(r.u64()?).map_err(|_| SnapError::Malformed("buffer id out of range"))?;
        Ok(())
    }
}

/// One on-chip data buffer: real bytes plus per-line valid times.
///
/// # Example
///
/// ```
/// use asan_core::buffer::DataBuffer;
/// use asan_sim::SimTime;
///
/// let mut b = DataBuffer::new();
/// // A 64-byte payload whose lines become valid at 100 ns and 200 ns.
/// b.fill(&[7u8; 64], &[SimTime::from_ns(100), SimTime::from_ns(200)]);
/// assert_eq!(b.valid_at(0), Some(SimTime::from_ns(100)));
/// assert_eq!(b.valid_at(63), Some(SimTime::from_ns(200)));
/// assert_eq!(b.byte(5), 7);
/// ```
#[derive(Debug, Clone)]
pub struct DataBuffer {
    data: [u8; BUFFER_BYTES],
    len: usize,
    /// Valid time per line; `None` = never filled.
    valid: [Option<SimTime>; LINES],
}

impl DataBuffer {
    /// Creates an empty, all-invalid buffer.
    pub fn new() -> Self {
        DataBuffer {
            data: [0; BUFFER_BYTES],
            len: 0,
            valid: [None; LINES],
        }
    }

    /// Number of payload bytes currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fills the buffer with `payload`, marking each 32 B line valid at
    /// the corresponding entry of `line_valid_times` (the time the last
    /// byte of that line arrived).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`BUFFER_BYTES`] or the time slice
    /// does not cover every line of the payload.
    pub fn fill(&mut self, payload: &[u8], line_valid_times: &[SimTime]) {
        assert!(payload.len() <= BUFFER_BYTES, "payload exceeds buffer");
        let lines = payload.len().div_ceil(LINE_BYTES);
        assert_eq!(
            line_valid_times.len(),
            lines,
            "need one valid time per {LINE_BYTES}-byte line"
        );
        self.data[..payload.len()].copy_from_slice(payload);
        self.len = payload.len();
        self.valid = [None; LINES];
        for (i, &t) in line_valid_times.iter().enumerate() {
            self.valid[i] = Some(t);
        }
    }

    /// Fills the buffer with locally produced data (e.g. an outgoing
    /// message composed by the switch CPU), valid immediately at `now`.
    pub fn fill_local(&mut self, payload: &[u8], now: SimTime) {
        let lines = payload.len().div_ceil(LINE_BYTES);
        let times = vec![now; lines];
        self.fill(payload, &times);
    }

    /// The time at which the line containing byte `offset` becomes
    /// valid, or `None` if that line was never filled.
    pub fn valid_at(&self, offset: usize) -> Option<SimTime> {
        if offset >= self.len {
            return None;
        }
        self.valid[offset / LINE_BYTES]
    }

    /// Reads byte `offset` (data only — the caller models timing via
    /// [`valid_at`](DataBuffer::valid_at)).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is beyond the payload.
    pub fn byte(&self, offset: usize) -> u8 {
        assert!(
            offset < self.len,
            "read past payload ({offset} >= {})",
            self.len
        );
        self.data[offset]
    }

    /// A slice of the payload.
    ///
    /// # Panics
    ///
    /// Panics if the range is beyond the payload.
    pub fn bytes(&self, offset: usize, len: usize) -> &[u8] {
        assert!(offset + len <= self.len, "slice past payload");
        &self.data[offset..offset + len]
    }

    /// Writes `data` at `offset`, marking the affected lines valid at
    /// `now` and extending the payload if needed.
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds [`BUFFER_BYTES`].
    pub fn write(&mut self, offset: usize, data: &[u8], now: SimTime) {
        assert!(offset + data.len() <= BUFFER_BYTES, "write past buffer");
        self.data[offset..offset + data.len()].copy_from_slice(data);
        self.len = self.len.max(offset + data.len());
        let first = offset / LINE_BYTES;
        let last = (offset + data.len()).div_ceil(LINE_BYTES);
        for l in first..last {
            // Keep the earliest validity if data arrived before.
            if self.valid[l].is_none() {
                self.valid[l] = Some(now);
            }
        }
    }

    /// Clears content and valid bits (buffer returned to the free pool).
    pub fn reset(&mut self) {
        self.len = 0;
        self.valid = [None; LINES];
    }

    /// The latest line-valid time, i.e. when the whole payload is
    /// present. `None` for an empty buffer.
    pub fn all_valid_at(&self) -> Option<SimTime> {
        let lines = self.len.div_ceil(LINE_BYTES);
        if lines == 0 {
            return None;
        }
        (0..lines)
            .map(|l| self.valid[l])
            .try_fold(SimTime::ZERO, |acc, t| t.map(|t| acc.max(t)))
    }
}

impl Default for DataBuffer {
    fn default() -> Self {
        DataBuffer::new()
    }
}

/// Builds the per-line valid schedule for a payload that starts arriving
/// at `first` and finishes at `last` (linear serialization, as on a
/// link): line `i` is valid when its final byte has arrived.
pub fn line_schedule(payload_len: usize, first: SimTime, last: SimTime) -> Vec<SimTime> {
    let lines = payload_len.div_ceil(LINE_BYTES);
    if lines == 0 {
        return Vec::new();
    }
    let span = last.since(first).as_ps();
    (0..lines)
        .map(|i| {
            let end_byte = ((i + 1) * LINE_BYTES).min(payload_len) as u64;
            let frac = span as u128 * end_byte as u128 / payload_len as u128;
            first + asan_sim::SimDuration::from_ps(u64::try_from(frac).expect("at most the span"))
        })
        .collect()
}

/// The full byte array, payload length, and per-line valid times. The
/// whole array is written (not just `len` bytes) because a later
/// extending [`write`](DataBuffer::write) can expose bytes beyond the
/// current payload.
impl Snap for DataBuffer {
    fn snapshot(&self, w: &mut SnapWriter) {
        let DataBuffer { data, len, valid } = self;
        w.bytes(data);
        len.snapshot(w);
        valid.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let DataBuffer { data, len, valid } = self;
        *data = r
            .bytes()?
            .try_into()
            .map_err(|_| SnapError::Malformed("data buffer size mismatch"))?;
        len.restore(r)?;
        if *len > BUFFER_BYTES {
            return Err(SnapError::Malformed("data buffer payload too long"));
        }
        valid.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_read_back() {
        let mut b = DataBuffer::new();
        let payload: Vec<u8> = (0..=u8::MAX).cycle().take(512).collect();
        let times: Vec<SimTime> = (0..16).map(|i| SimTime::from_ns(i * 10)).collect();
        b.fill(&payload, &times);
        assert_eq!(b.len(), 512);
        assert_eq!(b.byte(0), 0);
        assert_eq!(b.byte(511), 255);
        assert_eq!(b.bytes(100, 4), &[100, 101, 102, 103]);
    }

    #[test]
    fn valid_times_follow_lines() {
        let mut b = DataBuffer::new();
        let times: Vec<SimTime> = (0..16).map(|i| SimTime::from_ns(i * 10)).collect();
        b.fill(&[0u8; 512], &times);
        assert_eq!(b.valid_at(0), Some(SimTime::ZERO));
        assert_eq!(b.valid_at(31), Some(SimTime::ZERO));
        assert_eq!(b.valid_at(32), Some(SimTime::from_ns(10)));
        assert_eq!(b.valid_at(511), Some(SimTime::from_ns(150)));
        assert_eq!(b.all_valid_at(), Some(SimTime::from_ns(150)));
    }

    #[test]
    fn partial_payload() {
        let mut b = DataBuffer::new();
        b.fill(&[1u8; 100], &[SimTime::from_ns(1); 4]);
        assert_eq!(b.len(), 100);
        assert_eq!(b.valid_at(99), Some(SimTime::from_ns(1)));
        assert_eq!(b.valid_at(100), None);
    }

    #[test]
    #[should_panic(expected = "read past payload")]
    fn read_past_payload_panics() {
        let mut b = DataBuffer::new();
        b.fill(&[1u8; 10], &[SimTime::ZERO]);
        b.byte(10);
    }

    #[test]
    fn local_write_marks_valid_immediately() {
        let mut b = DataBuffer::new();
        b.write(0, &[9u8; 64], SimTime::from_ns(5));
        assert_eq!(b.len(), 64);
        assert_eq!(b.valid_at(63), Some(SimTime::from_ns(5)));
        // Extending write.
        b.write(64, &[8u8; 32], SimTime::from_ns(7));
        assert_eq!(b.len(), 96);
        assert_eq!(b.valid_at(64), Some(SimTime::from_ns(7)));
    }

    #[test]
    fn reset_invalidates() {
        let mut b = DataBuffer::new();
        b.fill_local(&[3u8; 512], SimTime::ZERO);
        b.reset();
        assert!(b.is_empty());
        assert_eq!(b.valid_at(0), None);
        assert_eq!(b.all_valid_at(), None);
    }

    #[test]
    fn overlapping_writes_keep_earliest_validity() {
        let mut b = DataBuffer::new();
        b.write(0, &[1u8; 32], SimTime::from_ns(10));
        // A later write to the same line must not push validity later.
        b.write(16, &[2u8; 16], SimTime::from_ns(99));
        assert_eq!(b.valid_at(0), Some(SimTime::from_ns(10)));
        assert_eq!(b.byte(20), 2);
        assert_eq!(b.byte(10), 1);
    }

    #[test]
    #[should_panic(expected = "write past buffer")]
    fn write_past_buffer_panics() {
        let mut b = DataBuffer::new();
        b.write(500, &[0u8; 20], SimTime::ZERO);
    }

    #[test]
    fn line_schedule_is_monotone_and_ends_at_last() {
        let s = line_schedule(512, SimTime::from_ns(100), SimTime::from_ns(612));
        assert_eq!(s.len(), 16);
        for w in s.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*s.last().unwrap(), SimTime::from_ns(612));
        // First line valid once its 32 bytes arrived: 100 + 32 ns.
        assert_eq!(s[0], SimTime::from_ns(132));
    }

    #[test]
    fn line_schedule_short_payload() {
        let s = line_schedule(40, SimTime::ZERO, SimTime::from_ns(40));
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], SimTime::from_ns(32));
        assert_eq!(s[1], SimTime::from_ns(40));
        assert!(line_schedule(0, SimTime::ZERO, SimTime::ZERO).is_empty());
    }
}
