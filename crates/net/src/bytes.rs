//! Cheaply cloneable, sliceable byte buffers for packet payloads.
//!
//! Every fabric hop, retransmit-cache entry, and fallback forward used
//! to deep-copy its payload `Vec<u8>`. [`Bytes`] replaces those copies
//! with a reference-counted view: a shared backing buffer plus a
//! `(start, len)` window. Cloning a [`Bytes`] or taking a sub-[`slice`]
//! is O(1) and allocation-free, so a file region read off a disk array
//! is interned once and every per-MTU packet payload is a view into it.
//!
//! [`slice`]: Bytes::slice
//!
//! The type is deliberately read-only: simulated corruption (the one
//! hot-path writer) goes through copy-on-write in
//! [`Packet::corrupt_payload_bit`](crate::Packet::corrupt_payload_bit),
//! so no holder can observe another's mutation.
//!
//! `Rc` (not `Arc`) keeps the refcount bump free of atomics; a whole
//! cluster simulation is single-threaded by design, and parallel
//! harnesses run one simulation per thread, never sharing packets
//! across threads.
#![expect(
    clippy::disallowed_types,
    reason = "`Rc` sharing of immutable payload bytes is this module's purpose"
)]

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// A cheaply cloneable view into a shared, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// Shared backing storage (`Rc<Vec<u8>>` adopts a `Vec` without
    /// copying, unlike `Rc<[u8]>`).
    data: Rc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An O(1) sub-view of `range` within this view (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {}..{} out of bounds for Bytes of length {}",
            range.start,
            range.end,
            self.len
        );
        Bytes {
            data: Rc::clone(&self.data),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// Copies the visible bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts the `Vec` as shared storage without copying its contents.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Rc::new(v),
            start: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes::from(a.to_vec())
    }
}

impl PartialEq for Bytes {
    /// Content equality: two views are equal iff their visible bytes
    /// are, regardless of backing buffer identity.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_zero_copy_and_slices_share() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(&*b, &[1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&*s, &[2, 3, 4]);
        let ss = s.slice(1..2);
        assert_eq!(&*ss, &[3]);
        // Clones and slices point at the same backing buffer.
        assert!(Rc::ptr_eq(&b.data, &ss.data));
    }

    #[test]
    fn equality_is_by_contents() {
        let a = Bytes::from(vec![9u8, 8, 7]);
        let b = Bytes::from(vec![0u8, 9, 8, 7]).slice(1..4);
        assert_eq!(a, b);
        assert_ne!(a, Bytes::from(vec![9u8, 8]));
    }

    #[test]
    fn empty_views() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let b = Bytes::from(vec![1u8]);
        assert!(b.slice(1..1).is_empty());
        assert_eq!(b.to_vec(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_bounds_checked() {
        Bytes::from(vec![1u8, 2]).slice(0..3);
    }
}
