//! Deterministic input generators for the nine benchmarks.
//!
//! Every generator reproduces the published statistics of the paper's
//! inputs (Table 1 and the per-application text): the MPEG clip's
//! I/P-frame byte split, the database record layout, the grep corpus
//! with exactly 16 matching lines, Datamation-format sort records, and
//! so on. All randomness is seeded from stable labels.
//!
//! Most inputs are byte buffers. The database tables of HashJoin and
//! Select are [`RecordTable`]s instead: they hold only each record's
//! key and write the bytes of a range when a disk read asks for it, so
//! a paper-size run never builds its 144 MB (HashJoin) or 128 MB
//! (Select) of input. [`db_table`] and [`join_tables`] write the same
//! tables out in full.

use std::fmt;
use std::ops::Range;

use asan_core::cluster::FileSource;
use asan_net::Bytes;
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

/// Bytes of the little-endian key that opens every database record.
const KEY_BYTES: usize = 8;

/// The byte that fills every database record after its key.
const RECORD_FILLER: u8 = 0x2E;

/// A database table of fixed-size records, held as its keys.
///
/// Record `i` is `record_bytes` long: key `i` as 8 little-endian
/// bytes, then the filler byte `0x2E`. The keys are the only
/// content a run depends on, and every generator draws them below
/// 2³², so the table keeps each as a `u32` (a 32nd of a 128-byte
/// record) and writes a range's bytes only when the storage engine
/// reads it. Clones share the keys.
#[derive(Clone)]
#[expect(
    clippy::disallowed_types,
    reason = "immutable keys shared by a file and the host program that reads it, like `Bytes`"
)]
pub struct RecordTable {
    keys: std::rc::Rc<Vec<u32>>,
    record_bytes: usize,
}

impl RecordTable {
    /// `total_bytes / record_bytes` records with keys uniform in
    /// `[0, 2³²)`, drawn from the generator labelled `label`.
    ///
    /// # Panics
    ///
    /// Panics if a record cannot hold a key.
    pub fn uniform(total_bytes: usize, record_bytes: usize, label: &str) -> Self {
        let keys = uniform_keys(total_bytes / record_bytes, label).collect();
        RecordTable::from_keys(keys, record_bytes)
    }

    /// The HashJoin pair: relation R (`r_bytes`) with uniform keys, and
    /// relation S (`s_bytes`) in which a calibrated fraction of keys is
    /// drawn from R so that the bit-vector pass rate is the paper's
    /// 0.24 (direct hits plus hash false positives).
    pub fn join_pair(r_bytes: usize, s_bytes: usize, record_bytes: usize) -> (Self, Self) {
        let r = RecordTable::uniform(r_bytes, record_bytes, "hashjoin-R");
        let s_keys = join_s_keys(&r.keys, s_bytes / record_bytes).collect();
        (r, RecordTable::from_keys(s_keys, record_bytes))
    }

    #[expect(
        clippy::disallowed_types,
        reason = "immutable keys shared by a file and the host program that reads it, like `Bytes`"
    )]
    fn from_keys(keys: Vec<u32>, record_bytes: usize) -> Self {
        assert!(record_bytes >= KEY_BYTES, "record too small for a key");
        RecordTable {
            keys: std::rc::Rc::new(keys),
            record_bytes,
        }
    }

    /// Number of records.
    pub fn records(&self) -> usize {
        self.keys.len()
    }

    /// The key of record `i`.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        u64::from(self.keys[i])
    }

    /// Every key, in record order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().map(|&k| u64::from(k))
    }

    /// The whole table's bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes(0..self.len())
    }

    fn bytes(&self, range: Range<usize>) -> Vec<u8> {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "read {}..{} out of bounds for a table of {} B",
            range.start,
            range.end,
            self.len()
        );
        let rb = self.record_bytes;
        let keys = self.keys[range.start / rb..].iter().copied();
        write_records(keys, rb, range.start % rb, range.len())
    }
}

impl FileSource for RecordTable {
    fn len(&self) -> usize {
        self.keys.len() * self.record_bytes
    }

    fn read(&self, range: Range<usize>) -> Bytes {
        Bytes::from(self.bytes(range))
    }
}

impl fmt::Debug for RecordTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RecordTable({} records of {} B)",
            self.records(),
            self.record_bytes
        )
    }
}

/// `records` keys uniform in `[0, 2³²)`, drawn from the generator
/// labelled `label`.
fn uniform_keys(records: usize, label: &str) -> impl Iterator<Item = u32> {
    let mut rng = SimRng::from_label(label);
    (0..records).map(move |_| draw_key(&mut rng))
}

/// HashJoin's `records` S keys: each is one of R's keys with
/// probability 0.14, else uniform.
fn join_s_keys(r: &[u32], records: usize) -> impl Iterator<Item = u32> + '_ {
    let mut rng = SimRng::from_label("hashjoin-S");
    (0..records).map(move |_| {
        if rng.chance(0.14) {
            r[rng.index(r.len())]
        } else {
            draw_key(&mut rng)
        }
    })
}

/// One key drawn uniformly below 2³².
fn draw_key(rng: &mut SimRng) -> u32 {
    u32::try_from(rng.below(1 << 32)).expect("a draw below 2^32")
}

/// Writes `len` bytes of the records keyed by `keys` in one pass,
/// starting `skip` bytes into the first.
fn write_records(
    keys: impl Iterator<Item = u32>,
    record_bytes: usize,
    mut skip: usize,
    len: usize,
) -> Vec<u8> {
    assert!(record_bytes >= KEY_BYTES, "record too small for a key");
    let mut out = Vec::with_capacity(len);
    for key in keys {
        if out.len() == len {
            break;
        }
        // This record's bytes `skip..end`: key bytes, then filler.
        let end = record_bytes.min(skip + len - out.len());
        let key_end = end.min(KEY_BYTES);
        if skip < key_end {
            out.extend_from_slice(&u64::from(key).to_le_bytes()[skip..key_end]);
        }
        let filler_start = skip.max(KEY_BYTES);
        if filler_start < end {
            out.resize(out.len() + end - filler_start, RECORD_FILLER);
        }
        skip = 0;
    }
    assert_eq!(out.len(), len, "fewer records than bytes asked for");
    out
}

/// Generates a database table of fixed-size records as bytes: the
/// [`RecordTable::uniform`] table, written out without holding its
/// keys.
pub fn db_table(total_bytes: usize, record_bytes: usize, label: &str) -> Vec<u8> {
    let records = total_bytes / record_bytes;
    let keys = uniform_keys(records, label);
    write_records(keys, record_bytes, 0, records * record_bytes)
}

/// The keys of a [`db_table`]-formatted buffer, in record order.
pub fn record_keys(table: &[u8], record_bytes: usize) -> impl Iterator<Item = u64> + '_ {
    table
        .chunks_exact(record_bytes)
        .map(|rec| u64::from_le_bytes(rec[..KEY_BYTES].try_into().expect("key bytes")))
}

/// Generates the HashJoin pair as bytes: the [`RecordTable::join_pair`]
/// tables, written out holding only R's keys, which S draws from.
pub fn join_tables(r_bytes: usize, s_bytes: usize, record_bytes: usize) -> (Vec<u8>, Vec<u8>) {
    let (r_records, s_records) = (r_bytes / record_bytes, s_bytes / record_bytes);
    let r_keys: Vec<u32> = uniform_keys(r_records, "hashjoin-R").collect();
    let r = write_records(
        r_keys.iter().copied(),
        record_bytes,
        0,
        r_records * record_bytes,
    );
    let s_keys = join_s_keys(&r_keys, s_records);
    (
        r,
        write_records(s_keys, record_bytes, 0, s_records * record_bytes),
    )
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
        let t = RecordTable::uniform(128 * 1024, 128, "unit");
        let below_quarter = t.keys().filter(|&k| k < (1u64 << 32) / 4).count();
        let frac = below_quarter as f64 / t.records() as f64;
        assert!((frac - 0.25).abs() < 0.05, "selectivity = {frac}");
    }

    #[test]
    fn join_tables_pass_rate_matches_paper() {
        // Scaled like `hashjoin::Params::small`: the bit-vector fill
        // fraction (and hence the false-positive rate) matches the
        // paper's full-size configuration.
        let (r, s) = RecordTable::join_pair(512 << 10, 2 << 20, 128);
        let bits = 1 << 15;
        let mut bv = BitVector::new(bits);
        for k in r.keys() {
            bv.set(hash_bit(k, bits));
        }
        let pass = s.keys().filter(|&k| bv.get(hash_bit(k, bits))).count();
        let rate = pass as f64 / s.records() as f64;
        assert!((rate - 0.24).abs() < 0.08, "pass rate = {rate}");
    }

    /// The byte loop `db_table` ran before tables were held as keys.
    fn db_table_oracle(total_bytes: usize, record_bytes: usize, label: &str) -> Vec<u8> {
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

    /// The byte loop `join_tables` ran before tables were held as keys.
    fn join_tables_oracle(
        r_bytes: usize,
        s_bytes: usize,
        record_bytes: usize,
    ) -> (Vec<u8>, Vec<u8>) {
        let r = db_table_oracle(r_bytes, record_bytes, "hashjoin-R");
        let r_records = r_bytes / record_bytes;
        let mut rng = SimRng::from_label("hashjoin-S");
        let mut s = Vec::new();
        for _ in 0..s_bytes / record_bytes {
            let key = if rng.chance(0.14) {
                let off = rng.index(r_records) * record_bytes;
                u64::from_le_bytes(r[off..off + 8].try_into().unwrap())
            } else {
                rng.below(1 << 32)
            };
            s.extend_from_slice(&key.to_le_bytes());
            s.resize(s.len() + record_bytes - 8, 0x2E);
        }
        (r, s)
    }

    #[test]
    fn record_tables_write_the_oracles_bytes() {
        for (total, rb) in [
            (0, 128),
            (1000, 128),
            (64 << 10, 128),
            (999, 8),
            (4321, 100),
        ] {
            let table = RecordTable::uniform(total, rb, "oracle");
            let want = db_table_oracle(total, rb, "oracle");
            assert_eq!(table.to_vec(), want, "{total} B of {rb} B records");
            assert_eq!(db_table(total, rb, "oracle"), want);
            assert_eq!(table.len(), want.len());
            assert!(table.keys().eq(record_keys(&want, rb)));
        }
        for (r_bytes, s_bytes, rb) in [(16 << 10, 128 << 10, 128), (3000, 20_000, 100)] {
            let want = join_tables_oracle(r_bytes, s_bytes, rb);
            let (r, s) = RecordTable::join_pair(r_bytes, s_bytes, rb);
            assert_eq!((r.to_vec(), s.to_vec()), want);
            assert_eq!(join_tables(r_bytes, s_bytes, rb), want);
        }
    }

    #[test]
    fn record_table_reads_match_the_oracles_slices() {
        let mut rng = SimRng::from_label("record-table-reads");
        for rb in [8, 100, 128] {
            let table = RecordTable::uniform(50 * rb + 7, rb, "reads");
            let bytes = db_table_oracle(50 * rb + 7, rb, "reads");
            let len = bytes.len();
            let read = |range: Range<usize>| {
                assert_eq!(
                    table.read(range.clone()).as_slice(),
                    &bytes[range.clone()],
                    "{rb} B records, read {range:?}"
                );
            };
            read(0..len);
            read(len - rb..len);
            read(len..len);
            for _ in 0..500 {
                // Edges inside and around a key: a start or end that
                // splits one, or a zero-length read.
                let record = rng.index(50) * rb;
                let start = (record + rng.index(KEY_BYTES + 2)).min(len);
                let end = match rng.index(3) {
                    0 => start,
                    1 => (rng.index(50) * rb + rng.index(KEY_BYTES + 2)).clamp(start, len),
                    _ => start + rng.index(len - start + 1),
                };
                read(start..end);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn record_table_reads_are_bounds_checked() {
        let table = RecordTable::uniform(1024, 128, "bounds");
        table.read(1000..1025);
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
        assert!(record_keys(&t, 128).all(|k| k < (1u64 << 32)));
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
