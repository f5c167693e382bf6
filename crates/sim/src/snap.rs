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
//! Stateful types implement [`Snap`]. A struct declares its codec once
//! with [`snap_fields!`](crate::snap_fields): one ordered field list,
//! static configuration marked `skip`, from which both directions are
//! generated. Each generated body opens with an exhaustive destructure
//! of the struct, so a field added to the struct but not to the list
//! is a compile error, and the writer and reader cannot transpose
//! because they share the list. The few codecs no generic impl
//! reproduces byte for byte (event variants, sparse or packed
//! encodings, shape checks) are written by hand and open with the same
//! exhaustive destructure.
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

use std::collections::{BTreeMap, VecDeque};
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

    /// Reads an optional `u64`. A `None` must carry a zero payload,
    /// so every accepted encoding re-snapshots to the same bytes.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        self.read()
    }

    /// Reads a fresh value of any [`Snap`] type.
    pub fn read<T: Snap + Default>(&mut self) -> Result<T, SnapError> {
        let mut v = T::default();
        v.restore(self)?;
        Ok(v)
    }

    /// Reads a sequence length prefix. Every element encodes to at
    /// least one byte, so a prefix above [`SnapReader::remaining`] is
    /// malformed and is rejected before it sizes an allocation.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Malformed("length prefix exceeds snapshot"));
        }
        Ok(n)
    }

    /// Bytes not yet decoded.
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

/// A value with a snapshot encoding.
///
/// `restore` overwrites the value in place, so static configuration
/// the encoding leaves out survives it. Implement it with
/// [`snap_fields!`](crate::snap_fields) unless no generic encoding
/// gives the bytes required.
pub trait Snap {
    /// Appends this value's dynamic state to `w`.
    fn snapshot(&self, w: &mut SnapWriter);

    /// Overwrites this value's dynamic state from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the stream is truncated or holds a
    /// value this type cannot take.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

macro_rules! snap_primitive {
    ($($t:ty => $method:ident),* $(,)?) => {$(
        impl Snap for $t {
            fn snapshot(&self, w: &mut SnapWriter) {
                w.$method(*self);
            }
            fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                *self = r.$method()?;
                Ok(())
            }
        }
    )*};
}

snap_primitive! {
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, u128 => u128, usize => usize,
    bool => bool, f64 => f64, SimTime => time, SimDuration => dur,
}

/// A presence byte, then the value — or `T::default()` for `None`, so
/// the width does not depend on presence. A `None` whose payload is
/// not the default is rejected: it would re-snapshot differently.
impl<T: Snap + Default + PartialEq> Snap for Option<T> {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        match self {
            Some(v) => v.snapshot(w),
            None => T::default().snapshot(w),
        }
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let present = r.bool()?;
        let v: T = r.read()?;
        if !present && v != T::default() {
            return Err(SnapError::Malformed("payload after a None"));
        }
        *self = present.then_some(v);
        Ok(())
    }
}

/// A length prefix, then each element; restore replaces the contents.
impl<T: Snap + Default> Snap for Vec<T> {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.iter().for_each(|v| v.snapshot(w));
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len_prefix()?;
        *self = (0..n).map(|_| r.read()).collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// Encoded as [`Vec`].
impl<T: Snap + Default> Snap for VecDeque<T> {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.iter().for_each(|v| v.snapshot(w));
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len_prefix()?;
        *self = (0..n).map(|_| r.read()).collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// A length prefix, then each `(key, value)` in key order; restore
/// replaces the contents and rejects keys that are not ascending.
impl<K: Snap + Default + Ord, V: Snap + Default> Snap for BTreeMap<K, V> {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.snapshot(w);
            v.snapshot(w);
        }
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len_prefix()?;
        self.clear();
        for _ in 0..n {
            let k: K = r.read()?;
            if self.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapError::Malformed("map keys not ascending"));
            }
            let v = r.read()?;
            self.insert(k, v);
        }
        Ok(())
    }
}

/// An array's length is part of its type, so it carries no prefix.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snapshot(&self, w: &mut SnapWriter) {
        self.iter().for_each(|v| v.snapshot(w));
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|v| v.restore(r))
    }
}

/// A collection whose shape — its length, or its keys — is fixed when
/// the simulation is built, and whose elements carry static fields of
/// their own. It is encoded as the matching [`Snap`] collection, and
/// restore requires the same shape and overwrites each element in
/// place.
pub trait FixedShape {
    /// Writes the length prefix and every element.
    fn snapshot_fixed(&self, w: &mut SnapWriter);

    /// Restores every element in place.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] when the snapshot's shape differs, or
    /// any error of an element's restore.
    fn restore_fixed(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: Snap> FixedShape for [T] {
    fn snapshot_fixed(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        self.iter().for_each(|v| v.snapshot(w));
    }
    fn restore_fixed(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.len() {
            return Err(SnapError::Malformed("sequence length mismatch"));
        }
        self.iter_mut().try_for_each(|v| v.restore(r))
    }
}

impl<T: Snap> FixedShape for Vec<T> {
    fn snapshot_fixed(&self, w: &mut SnapWriter) {
        self[..].snapshot_fixed(w);
    }
    fn restore_fixed(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self[..].restore_fixed(r)
    }
}

impl<K: Snap + Default + PartialEq, V: Snap> FixedShape for BTreeMap<K, V> {
    fn snapshot_fixed(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.snapshot(w);
            v.snapshot(w);
        }
    }
    fn restore_fixed(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.len() {
            return Err(SnapError::Malformed("map length mismatch"));
        }
        for (k, v) in self {
            if r.read::<K>()? != *k {
                return Err(SnapError::Malformed("map key mismatch"));
            }
            v.restore(r)?;
        }
        Ok(())
    }
}

/// Each element in order.
impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snapshot(&self, w: &mut SnapWriter) {
        self.0.snapshot(w);
        self.1.snapshot(w);
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore(r)?;
        self.1.restore(r)
    }
}

/// Implements [`Snap`] for a struct from one ordered field list.
///
/// Fields are encoded in list order. A field marked `skip` is static
/// configuration: it is neither written nor restored. A field marked
/// `fixed` is a collection whose shape is fixed at build time: it is
/// coded through [`FixedShape`], which rejects a shape change and keeps
/// each element's own static fields. An optional
/// `@ "name"` writes a section tag first. Tuple structs list one name
/// per position.
///
/// Both directions open with an exhaustive destructure (no `..`), so
/// a struct field missing from the list does not compile:
///
/// ```compile_fail,E0027
/// use asan_sim::snap_fields;
///
/// #[derive(Default)]
/// struct Port {
///     seq: u32,
///     credits: u64, // added to the struct, not to the list
/// }
/// snap_fields!(Port { seq });
/// ```
///
/// `skip` keeps static fields out of the bytes and intact on restore:
///
/// ```
/// use asan_sim::snap::{Snap, SnapReader, SnapWriter};
/// use asan_sim::{snap_fields, SimTime};
///
/// struct Port {
///     seq: u32,
///     busy_until: SimTime,
///     capacity: usize,
/// }
/// snap_fields!(Port @ "port" { seq, busy_until, capacity: skip });
///
/// let a = Port { seq: 7, busy_until: SimTime::from_ns(3), capacity: 8 };
/// let mut w = SnapWriter::new();
/// a.snapshot(&mut w);
/// let bytes = w.into_bytes();
///
/// let mut b = Port { seq: 0, busy_until: SimTime::ZERO, capacity: 16 };
/// let mut r = SnapReader::new(&bytes).unwrap();
/// b.restore(&mut r).unwrap();
/// r.finish().unwrap();
/// assert_eq!((b.seq, b.busy_until, b.capacity), (7, SimTime::from_ns(3), 16));
/// ```
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident $(@ $section:literal)? { $($field:ident $(: $mode:ident)?),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn snapshot(&self, w: &mut $crate::snap::SnapWriter) {
                let $ty { $($field: $crate::__snap_bind!($field $(: $mode)?)),* } = self;
                $(w.section($section);)?
                $($crate::__snap_field!(snapshot, w, $field $(: $mode)?);)*
            }
            fn restore(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let $ty { $($field: $crate::__snap_bind!($field $(: $mode)?)),* } = self;
                $(r.section($section)?;)?
                $($crate::__snap_field!(restore, r, $field $(: $mode)?);)*
                Ok(())
            }
        }
    };
    ($ty:ident ( $($field:ident),+ $(,)? )) => {
        impl $crate::snap::Snap for $ty {
            fn snapshot(&self, w: &mut $crate::snap::SnapWriter) {
                let $ty($($field),+) = self;
                $($crate::snap::Snap::snapshot($field, w);)+
            }
            fn restore(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let $ty($($field),+) = self;
                $($crate::snap::Snap::restore($field, r)?;)+
                Ok(())
            }
        }
    };
}

/// The pattern [`snap_fields!`] binds one field to.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_bind {
    ($field:ident : skip) => {
        _
    };
    ($field:ident $(: fixed)?) => {
        $field
    };
}

/// One field's step in a [`snap_fields!`] body.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_field {
    ($dir:ident, $io:ident, $field:ident : skip) => {};
    (snapshot, $w:ident, $field:ident : fixed) => {
        $crate::snap::FixedShape::snapshot_fixed($field, $w)
    };
    (snapshot, $w:ident, $field:ident) => {
        $crate::snap::Snap::snapshot($field, $w)
    };
    (restore, $r:ident, $field:ident : fixed) => {
        $crate::snap::FixedShape::restore_fixed($field, $r)?
    };
    (restore, $r:ident, $field:ident) => {
        $crate::snap::Snap::restore($field, $r)?
    };
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
    fn none_with_a_payload_is_malformed() {
        let mut w = SnapWriter::new();
        w.bool(false);
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            r.opt_u64().unwrap_err(),
            SnapError::Malformed("payload after a None")
        );
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(
            r.read::<Option<SimTime>>(),
            Err(SnapError::Malformed(_))
        ));
    }

    #[test]
    fn generic_codecs_match_the_primitives() {
        let encode = |f: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            f(&mut w);
            w.into_bytes()
        };
        let data = vec![3u8, 1, 4, 1, 5];
        assert_eq!(encode(&|w| data.snapshot(w)), encode(&|w| w.bytes(&data)));
        for v in [Some(9u64), None] {
            assert_eq!(encode(&|w| v.snapshot(w)), encode(&|w| w.opt_u64(v)));
        }
        assert_eq!(encode(&|w| 77usize.snapshot(w)), encode(&|w| w.usize(77)));

        let bytes = encode(&|w| {
            data.snapshot(w);
            Some(9u64).snapshot(w);
        });
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.bytes().unwrap(), data);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        r.finish().unwrap();
    }

    #[test]
    fn collections_round_trip_and_stay_canonical() {
        let map: BTreeMap<u16, (u8, u64)> = [(1, (2, 3)), (4, (5, 6))].into();
        let queue: VecDeque<SimTime> = [SimTime::from_ns(1)].into();
        let mut w = SnapWriter::new();
        map.snapshot(&mut w);
        queue.snapshot(&mut w);
        [7u32; 3].snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.read::<BTreeMap<u16, (u8, u64)>>().unwrap(), map);
        assert_eq!(r.read::<VecDeque<SimTime>>().unwrap(), queue);
        assert_eq!(r.read::<[u32; 3]>().unwrap(), [7; 3]);
        r.finish().unwrap();

        // Keys out of order would re-encode in a different order.
        let mut w = SnapWriter::new();
        w.usize(2);
        for k in [4u16, 1] {
            w.u16(k);
            w.u8(0);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(r.read::<BTreeMap<u16, u8>>().is_err());

        // A length prefix beyond the bytes left sizes no allocation.
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            r.read::<Vec<u64>>().unwrap_err(),
            SnapError::Malformed("length prefix exceeds snapshot")
        );
    }

    #[test]
    fn fixed_shapes_restore_in_place() {
        let mut w = SnapWriter::new();
        vec![1u8, 2].snapshot_fixed(&mut w);
        let bytes = w.into_bytes();
        let mut same = vec![0u8; 2];
        let mut r = SnapReader::new(&bytes).unwrap();
        same.restore_fixed(&mut r).unwrap();
        assert_eq!(same, [1, 2]);
        let mut longer = vec![0u8; 3];
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(longer.restore_fixed(&mut r).is_err());

        let mut w = SnapWriter::new();
        BTreeMap::from([(1u16, 5u64)]).snapshot_fixed(&mut w);
        let bytes = w.into_bytes();
        let mut other_key = BTreeMap::from([(2u16, 0u64)]);
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            other_key.restore_fixed(&mut r).unwrap_err(),
            SnapError::Malformed("map key mismatch")
        );
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
