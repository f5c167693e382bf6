//! A from-scratch MD5 implementation (RFC 1321).
//!
//! The MD5 benchmark (§5) computes real digests: the normal case chains
//! the whole file; the multi-processor case uses the paper's K-way
//! interleaved variant ("the I-th block is part of the 'I mod K'-th
//! chain. The resulting K digests themselves form a message, which can
//! be MD5-encoded using a single-block algorithm").

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Incremental MD5 state.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    len_bytes: u64,
    buf: [u8; 64],
    buf_len: usize,
}

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

impl Md5 {
    /// Fresh state (RFC 1321 initialization vector).
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len_bytes: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len_bytes += data.len() as u64;
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Fully absorbed into the partial block; do not disturb
                // buf_len below.
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finalizes, returning the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.len_bytes.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        let mut block = self.buf;
        block[56..64].copy_from_slice(&bit_len.to_le_bytes());
        self.compress(&block);
        let mut out = [0u8; 16];
        for (i, s) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&s.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, w) in m.iter_mut().enumerate() {
            *w = u32::from_le_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

/// The chaining state, the byte count, and the partial block (only its
/// filled prefix, so an idle hasher costs no block of zeros).
impl Snap for Md5 {
    fn snapshot(&self, w: &mut SnapWriter) {
        let Md5 {
            state,
            len_bytes,
            buf,
            buf_len,
        } = self;
        state.snapshot(w);
        len_bytes.snapshot(w);
        w.bytes(&buf[..*buf_len]);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Md5 {
            state,
            len_bytes,
            buf,
            buf_len,
        } = self;
        state.restore(r)?;
        len_bytes.restore(r)?;
        let partial = r.bytes()?;
        if partial.len() >= 64 {
            return Err(SnapError::Malformed("md5 partial block too long"));
        }
        buf[..partial.len()].copy_from_slice(&partial);
        *buf_len = partial.len();
        Ok(())
    }
}

/// One-shot digest.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// The paper's K-way interleaved MD5: unit `i` of `unit_bytes` belongs
/// to chain `i mod k`; the final digest is the MD5 of the concatenated
/// chain digests.
pub fn md5_interleaved(data: &[u8], k: usize, unit_bytes: usize) -> [u8; 16] {
    assert!(k >= 1 && unit_bytes > 0, "bad interleave parameters");
    let mut chains: Vec<Md5> = (0..k).map(|_| Md5::new()).collect();
    for (i, chunk) in data.chunks(unit_bytes).enumerate() {
        chains[i % k].update(chunk);
    }
    let mut combined = Md5::new();
    for c in chains {
        combined.update(&c.finalize());
    }
    combined.finalize()
}

/// Hex rendering of a digest.
pub fn hex(d: &[u8; 16]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&str, &str); 7] = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex(&md5(input.as_bytes())), want, "input {input:?}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=u8::MAX)
            .cycle()
            .take(100_000)
            .map(|i| i.wrapping_mul(31))
            .collect();
        let oneshot = md5(&data);
        let mut inc = Md5::new();
        for chunk in data.chunks(517) {
            inc.update(chunk);
        }
        assert_eq!(inc.finalize(), oneshot);
    }

    #[test]
    fn interleaved_k1_equals_plain() {
        let data = vec![0xC3u8; 4096];
        assert_ne!(md5_interleaved(&data, 1, 512), md5(&data));
        // k=1 interleave is the plain chain of digests of one chain —
        // i.e. md5(md5(data)).
        let expect = md5(&md5(&data));
        assert_eq!(md5_interleaved(&data, 1, 512), expect);
    }

    #[test]
    fn interleaved_chains_differ_by_k() {
        let data: Vec<u8> = (0..=u8::MAX).cycle().take(8192).collect();
        let d1 = md5_interleaved(&data, 1, 512);
        let d2 = md5_interleaved(&data, 2, 512);
        let d4 = md5_interleaved(&data, 4, 512);
        assert_ne!(d1, d2);
        assert_ne!(d2, d4);
        // Deterministic.
        assert_eq!(d4, md5_interleaved(&data, 4, 512));
    }

    #[test]
    fn empty_and_boundary_lengths() {
        // Exactly one block (64 B) and the 55/56-byte padding boundary.
        for len in [0usize, 55, 56, 57, 63, 64, 65, 128] {
            let data = vec![0x5Au8; len];
            let d = md5(&data);
            let mut inc = Md5::new();
            inc.update(&data);
            assert_eq!(inc.finalize(), d, "len {len}");
        }
    }
}
