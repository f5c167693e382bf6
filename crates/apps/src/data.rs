//! Deterministic input generators for the nine benchmarks.
//!
//! Every generator reproduces the published statistics of the paper's
//! inputs (Table 1 and the per-application text): the MPEG clip's
//! I/P-frame byte split, the database record layout, the grep corpus
//! with exactly 16 matching lines, Datamation-format sort records, and
//! so on. All randomness is seeded from stable labels.

use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::SimRng;

/// MPEG-like frame types used by the filter benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Intra-coded frame (kept by the filter, colour-reduced on host).
    I,
    /// Predicted frame (dropped by the filter).
    P,
}

/// One tag byte: 0 for I, 1 for P.
impl Snap for FrameType {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.u8(match self {
            FrameType::I => 0,
            FrameType::P => 1,
        });
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.u8()? {
            0 => FrameType::I,
            1 => FrameType::P,
            _ => return Err(SnapError::Malformed("frame type tag")),
        };
        Ok(())
    }
}

/// Bytes of framing header preceding each frame payload.
pub const FRAME_HEADER: usize = 8;

/// Generates a synthetic MPEG stream of exactly `total` bytes in which
/// the paper's measured share of bytes (36.5 %) belongs to P-frames
/// (the share the filter removes, Figure 3's "reduced the data sent to
/// the host by 36.5%").
///
/// Frame layout: `[0x46, type(b'I'|b'P'), 0, 0, payload_len: u32 le]`,
/// then `payload_len` bytes of frame data.
#[expect(
    clippy::cast_possible_truncation,
    reason = "frame data is the low byte of each random draw"
)]
pub fn mpeg_stream(total: usize) -> Vec<u8> {
    let mut rng = SimRng::from_label("mpeg-stream");
    let mut out = Vec::with_capacity(total);
    // Repeating GOP cycle of 20 000 B: one 12 700 B I-frame (63.5 %) and
    // one 7 300 B P-frame (36.5 %).
    let cycle = [(FrameType::I, 12_700usize), (FrameType::P, 7_300usize)];
    let mut idx = 0;
    while out.len() < total {
        let (ty, frame_total) = cycle[idx % cycle.len()];
        idx += 1;
        // Last frame is truncated to land exactly on `total`.
        let frame_total = frame_total.min(total - out.len());
        if frame_total <= FRAME_HEADER {
            // Pad the tail with filler inside the previous frame space.
            out.resize(total, 0);
            break;
        }
        let payload = frame_total - FRAME_HEADER;
        out.push(0x46);
        out.push(match ty {
            FrameType::I => b'I',
            FrameType::P => b'P',
        });
        out.push(0);
        out.push(0);
        let len = u32::try_from(payload).expect("a frame payload length");
        out.extend_from_slice(&len.to_le_bytes());
        for _ in 0..payload {
            out.push(rng.next_u32() as u8);
        }
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// Incremental MPEG frame scanner: feeds arbitrary chunks, emits
/// `(FrameType, n)` segments saying the next `n` bytes of the stream
/// (including header bytes) belong to a frame of that type. Both the
/// host program and the switch handler use it, carrying state across
/// 64 KB blocks / 512 B packets respectively.
#[derive(Debug, Clone)]
pub struct FrameScanner {
    /// Partial header bytes buffered across chunks.
    hdr: Vec<u8>,
    /// Bytes remaining in the current frame's payload.
    remaining: usize,
    current: FrameType,
}

asan_sim::snap_fields!(FrameScanner {
    hdr,
    remaining,
    current,
});

impl FrameScanner {
    /// Fresh scanner at a frame boundary.
    pub fn new() -> Self {
        FrameScanner {
            hdr: Vec::new(),
            remaining: 0,
            current: FrameType::I,
        }
    }

    /// Consumes `chunk`, returning typed segments covering it entirely.
    pub fn feed(&mut self, chunk: &[u8]) -> Vec<(FrameType, usize)> {
        let mut segs: Vec<(FrameType, usize)> = Vec::new();
        let push = |segs: &mut Vec<(FrameType, usize)>, ty: FrameType, n: usize| {
            if n == 0 {
                return;
            }
            if let Some(last) = segs.last_mut() {
                if last.0 == ty {
                    last.1 += n;
                    return;
                }
            }
            segs.push((ty, n));
        };
        let mut i = 0;
        while i < chunk.len() {
            if self.remaining > 0 {
                let take = self.remaining.min(chunk.len() - i);
                push(&mut segs, self.current, take);
                self.remaining -= take;
                i += take;
                continue;
            }
            // Accumulate a header.
            let need = FRAME_HEADER - self.hdr.len();
            let take = need.min(chunk.len() - i);
            self.hdr.extend_from_slice(&chunk[i..i + take]);
            i += take;
            // Header bytes belong to the frame they introduce; until the
            // type byte is known we can only classify once complete.
            if self.hdr.len() == FRAME_HEADER {
                let ty = match self.hdr[1] {
                    b'I' => FrameType::I,
                    b'P' => FrameType::P,
                    other => panic!("corrupt frame header type {other:#x}"),
                };
                let payload =
                    u32::from_le_bytes([self.hdr[4], self.hdr[5], self.hdr[6], self.hdr[7]])
                        as usize;
                push(&mut segs, ty, FRAME_HEADER);
                self.current = ty;
                self.remaining = payload;
                self.hdr.clear();
            } else {
                // Partial header: attribute tentatively to the upcoming
                // frame once known; for accounting we emit it with the
                // *next* complete classification. To keep segments exact
                // we emit nothing now (the header bytes are counted when
                // the header completes — callers only use segment byte
                // counts for forwarding payload, and header bytes are
                // negligible).
                push(&mut segs, FrameType::I, 0);
            }
        }
        segs
    }
}

impl Default for FrameScanner {
    fn default() -> Self {
        FrameScanner::new()
    }
}

/// Generates a database table of fixed-size records. Record layout:
/// 8-byte little-endian key, then filler to `record_bytes`. Keys are
/// uniform in `[0, u32::MAX]` (stored in 64 bits).
pub fn db_table(total_bytes: usize, record_bytes: usize, label: &str) -> Vec<u8> {
    assert!(record_bytes >= 8, "record too small for a key");
    let mut rng = SimRng::from_label(label);
    let records = total_bytes / record_bytes;
    let mut out = Vec::with_capacity(records * record_bytes);
    for _ in 0..records {
        let key = rng.below(1 << 32);
        out.extend_from_slice(&key.to_le_bytes());
        out.resize(out.len() + record_bytes - 8, 0x2E);
    }
    out
}

/// The key of record `i` in a [`db_table`]-formatted buffer.
pub fn record_key(table: &[u8], record_bytes: usize, i: usize) -> u64 {
    let off = i * record_bytes;
    u64::from_le_bytes(table[off..off + 8].try_into().expect("key bytes"))
}

/// Generates the HashJoin pair: relation R (`r_bytes`) with uniform
/// keys, and relation S (`s_bytes`) in which a calibrated fraction of
/// keys is drawn from R so that the bit-vector pass rate is the paper's
/// 0.24 (direct hits plus hash false positives).
pub fn join_tables(r_bytes: usize, s_bytes: usize, record_bytes: usize) -> (Vec<u8>, Vec<u8>) {
    let r = db_table(r_bytes, record_bytes, "hashjoin-R");
    let r_records = r_bytes / record_bytes;
    let mut rng = SimRng::from_label("hashjoin-S");
    let s_records = s_bytes / record_bytes;
    let mut s = Vec::with_capacity(s_records * record_bytes);
    for _ in 0..s_records {
        let key = if rng.chance(0.14) {
            record_key(&r, record_bytes, rng.index(r_records))
        } else {
            rng.below(1 << 32)
        };
        s.extend_from_slice(&key.to_le_bytes());
        s.resize(s.len() + record_bytes - 8, 0x2E);
    }
    (r, s)
}

/// Generates the grep corpus: `total` bytes of newline-terminated lines
/// of lowercase filler, with exactly `matches` lines containing
/// `pattern`, spread evenly through the file (the paper: 16 matched
/// lines in 1 146 880 bytes).
pub fn grep_corpus(total: usize, pattern: &str, matches: usize) -> Vec<u8> {
    let mut rng = SimRng::from_label("grep-corpus");
    let mut out = Vec::with_capacity(total);
    let line_len = 64usize;
    let total_lines = total / line_len;
    assert!(matches <= total_lines, "too many matches requested");
    let stride = total_lines.checked_div(matches).unwrap_or(usize::MAX);
    let mut line_no = 0;
    while out.len() + line_len <= total {
        let is_match = matches > 0 && line_no % stride == stride / 2 && line_no / stride < matches;
        let mut line = Vec::with_capacity(line_len);
        if is_match {
            line.extend_from_slice(pattern.as_bytes());
            line.push(b' ');
        }
        while line.len() < line_len - 1 {
            // Lowercase words; never accidentally contains the
            // capitalized pattern.
            line.push(b'a' + u8::try_from(rng.below(26)).expect("a draw below 26"));
        }
        line.push(b'\n');
        out.extend_from_slice(&line);
        line_no += 1;
    }
    out.resize(total, b'\n');
    out
}

/// Datamation sort records: 100 bytes, 10-byte key then 90 bytes of
/// payload (Arpaci-Dusseau et al., as cited in §5).
pub const SORT_RECORD: usize = 100;

/// Key bytes per sort record.
pub const SORT_KEY: usize = 10;

/// Generates `n` Datamation records with uniform keys.
pub fn datamation(n: usize, label: &str) -> Vec<u8> {
    let mut rng = SimRng::from_label(label);
    let mut out = Vec::with_capacity(n * SORT_RECORD);
    for _ in 0..n {
        let mut key = [0u8; SORT_KEY];
        rng.fill_bytes(&mut key);
        out.extend_from_slice(&key);
        out.resize(out.len() + (SORT_RECORD - SORT_KEY), 0x20);
    }
    out
}

/// The range-partition bucket of a Datamation record key for `p`
/// nodes: uniform split of the 16-bit key prefix.
pub fn sort_bucket(key: &[u8], p: usize) -> usize {
    let prefix = u16::from_be_bytes([key[0], key[1]]) as usize;
    (prefix * p) >> 16
}

/// Generates `n` files of `each` bytes for the Tar benchmark.
pub fn file_set(n: usize, each: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut rng = SimRng::from_label(&format!("tar-file-{i}"));
            let mut data = vec![0u8; each];
            rng.fill_bytes(&mut data);
            data
        })
        .collect()
}

/// Generates the MD5 input (256 KB in the paper).
pub fn md5_input(total: usize) -> Vec<u8> {
    let mut rng = SimRng::from_label("md5-input");
    let mut data = vec![0u8; total];
    rng.fill_bytes(&mut data);
    data
}

/// Generates one node's 512-byte reduction vector of 128 u32 lanes.
pub fn reduce_vector(node: usize) -> Vec<u8> {
    let mut rng = SimRng::from_label(&format!("reduce-{node}"));
    let mut v = Vec::with_capacity(512);
    for _ in 0..128 {
        let lane = u32::try_from(rng.below(1 << 16)).expect("a 16-bit lane");
        v.extend_from_slice(&lane.to_le_bytes());
    }
    v
}

/// Element-wise u32 sum of two 512-byte vectors (the reduction op).
pub fn vector_add(a: &mut [u8], b: &[u8]) {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    for i in (0..a.len()).step_by(4) {
        let x = u32::from_le_bytes(a[i..i + 4].try_into().expect("lane"));
        let y = u32::from_le_bytes(b[i..i + 4].try_into().expect("lane"));
        a[i..i + 4].copy_from_slice(&x.wrapping_add(y).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashjoin::{hash_bit, BitVector};

    #[test]
    fn mpeg_stream_has_exact_length_and_ratio() {
        let total = 2_202_640;
        let data = mpeg_stream(total);
        assert_eq!(data.len(), total);
        // Walk frames and compute the P-byte share.
        let mut i = 0;
        let mut p_bytes = 0usize;
        while i + FRAME_HEADER <= data.len() {
            let ty = data[i + 1];
            let payload =
                u32::from_le_bytes([data[i + 4], data[i + 5], data[i + 6], data[i + 7]]) as usize;
            let frame = FRAME_HEADER + payload;
            if ty == b'P' {
                p_bytes += frame.min(data.len() - i);
            }
            i += frame;
        }
        let share = p_bytes as f64 / total as f64;
        assert!((share - 0.365).abs() < 0.01, "P share = {share}");
    }

    #[test]
    fn frame_scanner_segments_cover_all_bytes() {
        let data = mpeg_stream(100_000);
        for chunk_size in [512usize, 4096, 65536, 77] {
            let mut sc = FrameScanner::new();
            let mut covered = 0usize;
            for chunk in data.chunks(chunk_size) {
                for (_, n) in sc.feed(chunk) {
                    covered += n;
                }
            }
            // Header bytes of incomplete trailing frames may be pending.
            assert!(covered <= data.len());
            assert!(data.len() - covered < FRAME_HEADER * 2 + chunk_size.min(16));
        }
    }

    #[test]
    fn frame_scanner_agrees_across_chunkings() {
        let data = mpeg_stream(200_000);
        let count_i = |chunk: usize| {
            let mut sc = FrameScanner::new();
            let mut i_bytes = 0usize;
            for c in data.chunks(chunk) {
                for (ty, n) in sc.feed(c) {
                    if ty == FrameType::I {
                        i_bytes += n;
                    }
                }
            }
            i_bytes
        };
        let a = count_i(512);
        let b = count_i(65536);
        assert!(a.abs_diff(b) < 32, "{a} vs {b}");
    }

    #[test]
    fn db_table_keys_are_uniform() {
        let t = db_table(128 * 1024, 128, "unit");
        let n = t.len() / 128;
        let below_quarter = (0..n)
            .filter(|&i| record_key(&t, 128, i) < (1u64 << 32) / 4)
            .count();
        let frac = below_quarter as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.05, "selectivity = {frac}");
    }

    #[test]
    fn join_tables_pass_rate_matches_paper() {
        // Scaled like `hashjoin::Params::small`: the bit-vector fill
        // fraction (and hence the false-positive rate) matches the
        // paper's full-size configuration.
        let (r, s) = join_tables(512 << 10, 2 << 20, 128);
        let bits = 1 << 15;
        let mut bv = BitVector::new(bits);
        let nr = r.len() / 128;
        for i in 0..nr {
            bv.set(hash_bit(record_key(&r, 128, i), bits));
        }
        let ns = s.len() / 128;
        let pass = (0..ns)
            .filter(|&i| bv.get(hash_bit(record_key(&s, 128, i), bits)))
            .count();
        let rate = pass as f64 / ns as f64;
        assert!((rate - 0.24).abs() < 0.08, "pass rate = {rate}");
    }

    #[test]
    fn grep_corpus_has_exact_matches() {
        let pattern = "Big Red Bear";
        let corpus = grep_corpus(1_146_880, pattern, 16);
        assert_eq!(corpus.len(), 1_146_880);
        let matches = corpus
            .split(|&b| b == b'\n')
            .filter(|line| line.windows(pattern.len()).any(|w| w == pattern.as_bytes()))
            .count();
        assert_eq!(matches, 16);
    }

    #[test]
    fn datamation_records_and_buckets() {
        let recs = datamation(10_000, "unit");
        assert_eq!(recs.len(), 1_000_000);
        // Bucket distribution over 4 nodes is roughly uniform.
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            let key = &recs[i * SORT_RECORD..i * SORT_RECORD + SORT_KEY];
            counts[sort_bucket(key, 4)] += 1;
        }
        for &c in &counts {
            assert!((2_200..=2_800).contains(&c), "bucket = {c}");
        }
    }

    #[test]
    fn vector_add_is_elementwise() {
        let mut a = reduce_vector(0);
        let b = reduce_vector(1);
        let a0 = u32::from_le_bytes(a[0..4].try_into().unwrap());
        let b0 = u32::from_le_bytes(b[0..4].try_into().unwrap());
        vector_add(&mut a, &b);
        assert_eq!(
            u32::from_le_bytes(a[0..4].try_into().unwrap()),
            a0.wrapping_add(b0)
        );
        assert_eq!(a.len(), 512);
    }

    #[test]
    #[should_panic(expected = "corrupt frame header")]
    fn scanner_rejects_corrupt_streams() {
        let mut sc = FrameScanner::new();
        sc.feed(&[0x46, b'X', 0, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn db_keys_fit_32_bits() {
        let t = db_table(64 * 1024, 128, "bounds");
        for i in 0..t.len() / 128 {
            assert!(record_key(&t, 128, i) < (1u64 << 32));
        }
    }

    #[test]
    fn reduce_vectors_differ_by_node_and_are_stable() {
        assert_eq!(reduce_vector(3), reduce_vector(3));
        assert_ne!(reduce_vector(3), reduce_vector(4));
        assert_eq!(reduce_vector(0).len(), 512);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(mpeg_stream(10_000), mpeg_stream(10_000));
        assert_eq!(datamation(10, "x"), datamation(10, "x"));
        assert_ne!(datamation(10, "x"), datamation(10, "y"));
        assert_eq!(file_set(2, 100), file_set(2, 100));
    }
}
