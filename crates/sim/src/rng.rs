//! Deterministic pseudo-random number generation for workload synthesis.
//!
//! Every input in the reproduction (MPEG frame sizes, database records,
//! Datamation keys, …) is generated from a [`SimRng`] seeded from a stable
//! textual label, so runs are reproducible across machines and the same
//! experiment always sees the same bytes.
//!
//! The generator is xoshiro256\*\* seeded through SplitMix64, the standard
//! dependency-free construction; statistical quality is far beyond what
//! workload generation needs.

/// A small, fast, deterministic PRNG (xoshiro256\*\*).
///
/// # Example
///
/// ```
/// use asan_sim::SimRng;
/// let mut a = SimRng::from_label("grep-input");
/// let mut b = SimRng::from_label("grep-input");
/// assert_eq!(a.next_u64(), b.next_u64()); // same label => same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Creates a generator from a stable textual label (FNV-1a hashed).
    pub fn from_label(label: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        SimRng::from_seed(h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniformly distributed value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range({lo}, {hi})");
        lo + self.below(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }

    /// Random printable ASCII byte (space through `~`).
    pub fn ascii(&mut self) -> u8 {
        b' ' + self.below(95) as u8
    }
}

crate::snap_fields!(SimRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = SimRng::from_label("x");
        let mut b = SimRng::from_label("y");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::from_seed(7);
        for _ in 0..10_000 {
            assert!(r.below(37) < 37);
        }
        for _ in 0..1000 {
            assert!(r.below(1) == 0);
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = SimRng::from_seed(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = SimRng::from_seed(11);
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_respects_probability_roughly() {
        let mut r = SimRng::from_seed(13);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::from_seed(17);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Overwhelmingly unlikely to be all zero if filled.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn ascii_is_printable() {
        let mut r = SimRng::from_seed(19);
        for _ in 0..1000 {
            let c = r.ascii();
            assert!((b' '..=b'~').contains(&c));
        }
    }

    #[test]
    fn snapshot_resumes_mid_stream() {
        let mut orig = SimRng::from_label("snap");
        for _ in 0..37 {
            orig.next_u64();
        }
        let mut w = crate::snap::SnapWriter::new();
        crate::snap::Snap::snapshot(&orig, &mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snap::SnapReader::new(&bytes).unwrap();
        let mut restored = SimRng::from_seed(0);
        crate::snap::Snap::restore(&mut restored, &mut r).unwrap();
        r.finish().unwrap();
        for _ in 0..100 {
            assert_eq!(orig.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::from_seed(23);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((9_000..11_000).contains(&b), "bucket = {b}");
        }
    }
}
