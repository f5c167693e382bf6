//! Versioned, dependency-free binary snapshot encoding.
//!
//! Crash-safe simulation needs a way to freeze a mid-run cluster —
//! event queue, RNG cursors, engine state, fault counters — and revive
//! it in a fresh process such that the continued run is bit-identical
//! to one that never stopped. The encoding here is deliberately dumb:
//! little-endian fixed-width primitives behind a magic/version
//! envelope, with named section tags so a reader that drifts out of
//! sync fails loudly at the next section boundary instead of silently
//! misinterpreting bytes.
//!
//! Every stateful type in the workspace exposes hand-written
//! `snapshot(&self, &mut SnapWriter)` / `restore(...)` methods built
//! on these primitives. Hand-written (rather than derived) codecs keep
//! the field list visible in source, which is what lets `asan-lint`'s
//! `snapshot-completeness` rule check that no state field is silently
//! left out of its snapshot.
//!
//! # Example
//!
//! ```
//! use asan_sim::snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! w.section("demo");
//! w.u64(42);
//! w.str("hello");
//! let bytes = w.into_bytes();
//!
//! let mut r = SnapReader::new(&bytes).unwrap();
//! r.section("demo").unwrap();
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.str().unwrap(), "hello");
//! r.finish().unwrap();
//! ```

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Magic bytes opening every snapshot (`ASNP` — Active SAN snapshot).
const MAGIC: [u8; 4] = *b"ASNP";

/// Current encoding version. Bump on any incompatible layout change;
/// readers reject snapshots from other versions rather than guessing.
pub const SNAP_VERSION: u16 = 1;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested value.
    Truncated {
        /// Bytes needed beyond the end of the buffer.
        needed: usize,
    },
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible encoder version.
    BadVersion {
        /// The version found in the envelope.
        found: u16,
    },
    /// A section tag did not match the expected name.
    BadSection {
        /// The section the reader expected.
        expected: String,
        /// The section actually present.
        found: String,
    },
    /// A value decoded but is semantically impossible.
    Malformed(&'static str),
    /// Trailing bytes remained after [`SnapReader::finish`].
    TrailingBytes {
        /// Number of undecoded bytes left.
        left: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed } => {
                write!(f, "snapshot truncated ({needed} more bytes needed)")
            }
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (want {SNAP_VERSION})"
                )
            }
            SnapError::BadSection { expected, found } => {
                write!(
                    f,
                    "snapshot section mismatch: expected `{expected}`, found `{found}`"
                )
            }
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapError::TrailingBytes { left } => {
                write!(f, "snapshot has {left} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializes primitives into a versioned snapshot buffer.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

impl SnapWriter {
    /// Creates a writer with the magic/version envelope already
    /// emitted.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        SnapWriter { buf }
    }

    /// Emits a named section tag. Readers that call
    /// [`SnapReader::section`] with the same name verify the stream is
    /// still in sync.
    pub fn section(&mut self, name: &str) {
        self.str(name);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a [`SimTime`] (raw picoseconds).
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_ps());
    }

    /// Writes a [`SimDuration`] (raw picoseconds).
    pub fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_ps());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes `Some(v)`/`None` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        self.bool(v.is_some());
        self.u64(v.unwrap_or(0));
    }

    /// Writes an optional [`SimTime`].
    pub fn opt_time(&mut self, t: Option<SimTime>) {
        self.opt_u64(t.map(SimTime::as_ps));
    }

    /// Finishes the snapshot, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Decodes a snapshot buffer produced by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Opens a snapshot, validating the magic/version envelope.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader { buf, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u16()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion { found: version });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated {
                needed: end - self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Verifies the next section tag is `name`.
    pub fn section(&mut self, name: &str) -> Result<(), SnapError> {
        let found = self.str()?;
        if found != name {
            return Err(SnapError::BadSection {
                expected: name.to_owned(),
                found,
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed("usize out of range"))
    }

    /// Reads a `u32` index widened to `usize`.
    pub fn usize_from_u32(&mut self) -> Result<usize, SnapError> {
        let v = self.u32()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed("u32 index out of range"))
    }

    /// Reads a boolean.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Malformed("bool byte not 0/1")),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`SimTime`].
    pub fn time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_ps(self.u64()?))
    }

    /// Reads a [`SimDuration`].
    pub fn dur(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_ps(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| SnapError::Malformed("invalid UTF-8 string"))
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        let present = self.bool()?;
        let v = self.u64()?;
        Ok(present.then_some(v))
    }

    /// Reads an optional [`SimTime`].
    pub fn opt_time(&mut self) -> Result<Option<SimTime>, SnapError> {
        Ok(self.opt_u64()?.map(SimTime::from_ps))
    }

    /// Bytes not yet decoded. Restore code checks a length prefix
    /// against this before allocating for it.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the whole buffer has been consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        let left = self.remaining();
        if left != 0 {
            return Err(SnapError::TrailingBytes { left });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX - 2);
        w.usize(usize::MAX);
        w.bool(true);
        w.bool(false);
        w.f64(0.015_625);
        w.time(SimTime::from_ns(9));
        w.dur(SimDuration::from_us(3));
        w.bytes(&[1, 2, 3]);
        w.str("héllo");
        w.opt_u64(Some(5));
        w.opt_u64(None);
        w.opt_time(Some(SimTime::from_ps(1)));
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX - 2);
        assert_eq!(r.usize().unwrap(), usize::MAX);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), 0.015_625);
        assert_eq!(r.time().unwrap(), SimTime::from_ns(9));
        assert_eq!(r.dur().unwrap(), SimDuration::from_us(3));
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), Some(5));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_time().unwrap(), Some(SimTime::from_ps(1)));
        r.finish().unwrap();
    }

    #[test]
    fn envelope_rejects_garbage() {
        assert_eq!(SnapReader::new(b"nope").err(), Some(SnapError::BadMagic));
        assert!(matches!(
            SnapReader::new(b"xx"),
            Err(SnapError::Truncated { .. })
        ));
        // Right magic, wrong version.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&999u16.to_le_bytes());
        assert_eq!(
            SnapReader::new(&buf).err(),
            Some(SnapError::BadVersion { found: 999 })
        );
    }

    #[test]
    fn section_tags_catch_desync() {
        let mut w = SnapWriter::new();
        w.section("alpha");
        w.u64(1);
        w.section("beta");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes).unwrap();
        r.section("alpha").unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        let err = r.section("gamma").unwrap_err();
        assert!(matches!(err, SnapError::BadSection { .. }));
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(12345);
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.u64(), Err(SnapError::Truncated { needed: 3 })));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.u8(1);
        let bytes = w.into_bytes();
        let r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.finish().err(), Some(SnapError::TrailingBytes { left: 1 }));
    }

    #[test]
    fn bad_bool_is_malformed() {
        let mut w = SnapWriter::new();
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.bool(), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn errors_display() {
        let msgs = [
            SnapError::Truncated { needed: 4 }.to_string(),
            SnapError::BadMagic.to_string(),
            SnapError::BadVersion { found: 3 }.to_string(),
            SnapError::BadSection {
                expected: "a".into(),
                found: "b".into(),
            }
            .to_string(),
            SnapError::Malformed("x").to_string(),
            SnapError::TrailingBytes { left: 2 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
