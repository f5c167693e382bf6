//! Packets and the InfiniBand-style Raw packet header.
//!
//! The paper (§4) uses the InfiniBand Raw packet format with a 128-bit
//! header that embeds a 64-bit *active* sub-header: a 6-bit message
//! handler ID and a 32-bit address field naming where the payload is
//! memory-mapped on the active switch. The MTU is 512 bytes.

use std::fmt;

use crate::bytes::Bytes;

/// Network-wide maximum transfer unit (bytes of payload per packet).
pub const MTU: usize = 512;

/// Size of the wire header in bytes (128 bits).
pub const HEADER_BYTES: usize = 16;

/// Identifies an endpoint or switch in the cluster.
///
/// Node IDs are dense small integers assigned by the topology builder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

asan_sim::snap_fields!(NodeId(id));

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A 6-bit active-message handler identifier (0–63).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HandlerId(u8);

impl HandlerId {
    /// Creates a handler ID.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not fit in the header's 6-bit field.
    pub fn new(id: u8) -> Self {
        assert!(id < 64, "handler id {id} exceeds the 6-bit header field");
        HandlerId(id)
    }

    /// `const` constructor for handler-ID constants.
    ///
    /// # Panics
    ///
    /// Panics at compile time if `id` exceeds 6 bits.
    pub const fn new_const(id: u8) -> Self {
        assert!(id < 64, "handler id exceeds the 6-bit header field");
        HandlerId(id)
    }

    /// The raw 6-bit value.
    pub fn as_u8(self) -> u8 {
        self.0
    }
}

impl fmt::Display for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// The 128-bit Raw packet header.
///
/// Layout (16 bytes on the wire):
///
/// ```text
/// [0..2)   src node            [2..4)   dst node
/// [4..6)   payload length      [6..7)   flags (bit0: active)
/// [7..8)   handler id (6 bits)
/// [8..12)  active address field (32 bits)
/// [12..16) sequence number within a flow
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint (a switch's own ID for active messages).
    pub dst: NodeId,
    /// Payload length in bytes (≤ [`MTU`]).
    pub len: u16,
    /// Active-message handler to invoke at the destination switch, if any.
    pub handler: Option<HandlerId>,
    /// Address to which the payload is memory-mapped on the switch.
    pub addr: u32,
    /// Sequence number within the sender's flow (for reassembly checks).
    pub seq: u32,
}

impl Header {
    /// Serializes to the 16-byte wire format.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0..2].copy_from_slice(&self.src.0.to_le_bytes());
        b[2..4].copy_from_slice(&self.dst.0.to_le_bytes());
        b[4..6].copy_from_slice(&self.len.to_le_bytes());
        if let Some(h) = self.handler {
            b[6] = 1;
            b[7] = h.as_u8();
        }
        b[8..12].copy_from_slice(&self.addr.to_le_bytes());
        b[12..16].copy_from_slice(&self.seq.to_le_bytes());
        b
    }

    /// Parses the 16-byte wire format.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if the length field exceeds the MTU or
    /// the handler field is malformed.
    pub fn decode(b: &[u8; HEADER_BYTES]) -> Result<Header, HeaderError> {
        let len = u16::from_le_bytes([b[4], b[5]]);
        if len as usize > MTU {
            return Err(HeaderError::LengthExceedsMtu(len));
        }
        let handler = if b[6] & 1 != 0 {
            if b[7] >= 64 {
                return Err(HeaderError::BadHandlerId(b[7]));
            }
            Some(HandlerId::new(b[7]))
        } else {
            None
        };
        Ok(Header {
            src: NodeId(u16::from_le_bytes([b[0], b[1]])),
            dst: NodeId(u16::from_le_bytes([b[2], b[3]])),
            len,
            handler,
            addr: u32::from_le_bytes([b[8], b[9], b[10], b[11]]),
            seq: u32::from_le_bytes([b[12], b[13], b[14], b[15]]),
        })
    }

    /// Whether this is an active message (invokes a switch handler).
    pub fn is_active(&self) -> bool {
        self.handler.is_some()
    }
}

/// Errors from decoding a wire header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Length field larger than the MTU.
    LengthExceedsMtu(u16),
    /// Handler ID does not fit in 6 bits.
    BadHandlerId(u8),
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::LengthExceedsMtu(l) => {
                write!(f, "payload length {l} exceeds the {MTU}-byte MTU")
            }
            HeaderError::BadHandlerId(h) => write!(f, "handler id {h} exceeds 6 bits"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// CRC-32 lookup tables (IEEE 802.3 reflected polynomial) for the
/// slice-by-8 algorithm, built at compile time so the per-packet ICRC
/// stays cheap. `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// table `j` maps a byte to its CRC contribution `j` positions further
/// from the end of the stream, letting the hot loop fold eight bytes
/// per iteration.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = (tables[j - 1][i] >> 8) ^ tables[0][(tables[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// CRC-32 (IEEE) over a byte stream, continuing from `crc` (start a new
/// checksum with `crc = 0`). Slice-by-8: eight bytes folded per
/// iteration, bit-identical to the byte-at-a-time recurrence.
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = crc ^ 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A packet: header plus payload bytes, protected end-to-end by an
/// invariant CRC (ICRC) over header and payload, as in the InfiniBand
/// Raw packet format.
///
/// The payload is a [`Bytes`] view, so cloning a packet (fallback
/// forwarding, retransmit caching) or slicing a file region into
/// per-MTU payloads never copies the data.
///
/// The ICRC is computed on demand: an intact packet's ICRC is a pure
/// function of its contents, so nothing is stored until simulated
/// corruption (or a snapshot restore) pins an explicit stamp. Every
/// [`icrc`](Packet::icrc) value and [`icrc_ok`](Packet::icrc_ok)
/// verdict is the same as if the ICRC had been stamped at
/// construction.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Wire header.
    pub header: Header,
    /// Payload (≤ [`MTU`] bytes; real data, actually processed by
    /// handlers and hosts).
    pub payload: Bytes,
    /// Explicit ICRC, or `None` while it equals the contents' CRC.
    stamp: Option<u32>,
}

impl Packet {
    /// Builds a packet, checking the payload fits the MTU.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() > MTU`.
    pub fn new(header: Header, payload: impl Into<Bytes>) -> Self {
        Packet::build(header, payload.into(), None)
    }

    /// Rebuilds a packet from its wire parts, keeping `icrc` as an
    /// explicit stamp. Snapshot restore uses this: a packet whose
    /// simulated corruption made the stored ICRC mismatch its contents
    /// must round-trip with the mismatch intact, so the receiver still
    /// detects it after a restore.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len() > MTU`.
    pub fn from_parts(header: Header, payload: impl Into<Bytes>, icrc: u32) -> Self {
        Packet::build(header, payload.into(), Some(icrc))
    }

    fn build(header: Header, payload: Bytes, stamp: Option<u32>) -> Self {
        assert!(
            payload.len() <= MTU,
            "payload {} exceeds MTU {MTU}",
            payload.len()
        );
        debug_assert_eq!(header.len as usize, payload.len(), "header length mismatch");
        Packet {
            header,
            payload,
            stamp,
        }
    }

    /// CRC-32 over the encoded header and the payload as they are now.
    fn contents_crc(&self) -> u32 {
        crc32(crc32(0, &self.header.encode()), &self.payload)
    }

    /// The packet's ICRC: the explicit stamp if one is pinned, else
    /// the CRC of its (intact) contents.
    pub fn icrc(&self) -> u32 {
        self.stamp.unwrap_or_else(|| self.contents_crc())
    }

    /// Whether the packet's contents still match its ICRC.
    pub fn icrc_ok(&self) -> bool {
        self.stamp.is_none_or(|stamp| stamp == self.contents_crc())
    }

    /// Simulates in-flight bit corruption: pins the pre-corruption ICRC
    /// as an explicit stamp, then flips payload bit `bit % (len * 8)`,
    /// so the receiver's check fails.
    ///
    /// # Panics
    ///
    /// Panics on an empty payload (nothing to corrupt).
    pub fn corrupt_payload_bit(&mut self, bit: usize) {
        assert!(!self.payload.is_empty(), "cannot corrupt an empty payload");
        self.stamp = Some(self.icrc());
        let bit = bit % (self.payload.len() * 8);
        // Copy-on-write: the payload may be a view into a shared file
        // buffer, which must never observe simulated wire corruption.
        let mut own = self.payload.to_vec();
        own[bit / 8] ^= 1 << (bit % 8);
        self.payload = Bytes::from(own);
    }

    /// Total wire size: header plus payload.
    pub fn wire_bytes(&self) -> u64 {
        (HEADER_BYTES + self.payload.len()) as u64
    }
}

impl PartialEq for Packet {
    /// Equal header, payload bytes and [`icrc`](Packet::icrc), whether
    /// the ICRC is stamped or computed.
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header && self.payload == other.payload && self.icrc() == other.icrc()
    }
}

impl Eq for Packet {}

/// Splits `data` into MTU-sized packets of a flow from `src` to `dst`,
/// mapping payload `i` at `base_addr + i * MTU` (the address field the
/// active switch's ATB uses).
pub fn packetize(
    src: NodeId,
    dst: NodeId,
    handler: Option<HandlerId>,
    base_addr: u32,
    data: &[u8],
) -> Vec<Packet> {
    let mut out = Vec::with_capacity(data.len().div_ceil(MTU).max(1));
    if data.is_empty() {
        let header = Header {
            src,
            dst,
            len: 0,
            handler,
            addr: base_addr,
            seq: 0,
        };
        out.push(Packet::new(header, Bytes::new()));
        return out;
    }
    // Intern the stream once; every payload is an O(1) view into it.
    let shared = Bytes::from(data);
    for (i, start) in (0..data.len()).step_by(MTU).enumerate() {
        let end = (start + MTU).min(data.len());
        let header = Header {
            src,
            dst,
            len: u16::try_from(end - start).expect("chunk bounded by MTU"),
            handler,
            addr: base_addr.wrapping_add((i * MTU) as u32),
            seq: i as u32,
        };
        out.push(Packet::new(header, shared.slice(start..end)));
    }
    out
}

/// Errors from reassembling a packet flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassembleError {
    /// A packet arrived out of sequence (carries the offending seq).
    OutOfOrder(u32),
    /// A packet failed its ICRC check (carries the offending seq).
    Corrupt(u32),
}

impl fmt::Display for ReassembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassembleError::OutOfOrder(s) => write!(f, "packet seq {s} out of order"),
            ReassembleError::Corrupt(s) => write!(f, "packet seq {s} failed its ICRC check"),
        }
    }
}

impl std::error::Error for ReassembleError {}

/// Reassembles packets of a single flow back into a byte stream,
/// validating sequence numbers and each packet's ICRC: corrupted
/// packets are detected, never silently concatenated.
///
/// # Errors
///
/// Returns the first out-of-order or corrupt sequence number.
pub fn reassemble(packets: &[Packet]) -> Result<Vec<u8>, ReassembleError> {
    let mut data = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        if p.header.seq != i as u32 {
            return Err(ReassembleError::OutOfOrder(p.header.seq));
        }
        if !p.icrc_ok() {
            return Err(ReassembleError::Corrupt(p.header.seq));
        }
        data.extend_from_slice(&p.payload);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            src: NodeId(3),
            dst: NodeId(7),
            len: 512,
            handler: Some(HandlerId::new(63)),
            addr: 0xDEAD_BEEF,
            seq: 42,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let decoded = Header::decode(&h.encode()).unwrap();
        assert_eq!(h, decoded);
    }

    #[test]
    fn non_active_header_roundtrip() {
        let h = Header {
            handler: None,
            ..sample_header()
        };
        let decoded = Header::decode(&h.encode()).unwrap();
        assert_eq!(h, decoded);
        assert!(!decoded.is_active());
    }

    #[test]
    fn decode_rejects_oversized_length() {
        let mut b = sample_header().encode();
        b[4..6].copy_from_slice(&1000u16.to_le_bytes());
        assert_eq!(Header::decode(&b), Err(HeaderError::LengthExceedsMtu(1000)));
    }

    #[test]
    fn decode_rejects_bad_handler() {
        let mut b = sample_header().encode();
        b[7] = 64;
        assert_eq!(Header::decode(&b), Err(HeaderError::BadHandlerId(64)));
    }

    #[test]
    #[should_panic(expected = "6-bit")]
    fn handler_id_range_checked() {
        HandlerId::new(64);
    }

    #[test]
    fn packetize_covers_all_data_with_sequential_addresses() {
        let data: Vec<u8> = (0..1500u32).map(|i| i as u8).collect();
        let pkts = packetize(NodeId(0), NodeId(1), None, 0x1000, &data);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].payload.len(), 512);
        assert_eq!(pkts[2].payload.len(), 1500 - 1024);
        assert_eq!(pkts[0].header.addr, 0x1000);
        assert_eq!(pkts[1].header.addr, 0x1200);
        assert_eq!(pkts[2].header.addr, 0x1400);
        assert_eq!(reassemble(&pkts).unwrap(), data);
    }

    #[test]
    fn packetize_empty_data_yields_one_empty_packet() {
        let pkts = packetize(NodeId(0), NodeId(1), Some(HandlerId::new(5)), 0, &[]);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].payload.is_empty());
        assert_eq!(pkts[0].header.len, 0);
    }

    #[test]
    fn reassemble_detects_out_of_order() {
        let data = vec![0u8; 1024];
        let mut pkts = packetize(NodeId(0), NodeId(1), None, 0, &data);
        pkts.swap(0, 1);
        assert_eq!(reassemble(&pkts), Err(ReassembleError::OutOfOrder(1)));
    }

    #[test]
    fn reassemble_detects_corruption() {
        let data: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
        let mut pkts = packetize(NodeId(0), NodeId(1), None, 0, &data);
        assert!(pkts[1].icrc_ok());
        pkts[1].corrupt_payload_bit(77);
        assert!(!pkts[1].icrc_ok());
        assert_eq!(reassemble(&pkts), Err(ReassembleError::Corrupt(1)));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_reference() {
        // The slice-by-8 fold must equal the byte-at-a-time recurrence
        // at every length (covering remainder handling 0..8) and for
        // continued checksums.
        let bytewise = |crc: u32, bytes: &[u8]| {
            let mut c = crc ^ 0xFFFF_FFFF;
            for &b in bytes {
                c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for len in (0..64).chain([255, 256, 1000, 1024]) {
            assert_eq!(crc32(0, &data[..len]), bytewise(0, &data[..len]));
            let mid = len / 2;
            let cont = crc32(crc32(0, &data[..mid]), &data[mid..len]);
            assert_eq!(cont, crc32(0, &data[..len]), "continuation at {len}");
        }
    }

    #[test]
    fn packetize_address_field_wraps_at_u32() {
        // Mapped windows near the top of the 32-bit address space wrap
        // rather than panic (the ATB slot math is modular anyway).
        let data = vec![0u8; 1024];
        let pkts = packetize(NodeId(0), NodeId(1), None, u32::MAX - 511, &data);
        assert_eq!(pkts[0].header.addr, u32::MAX - 511);
        assert_eq!(pkts[1].header.addr, 0);
    }

    #[test]
    fn handler_display_and_accessors() {
        let h = HandlerId::new(7);
        assert_eq!(h.as_u8(), 7);
        assert_eq!(h.to_string(), "h7");
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn header_error_messages_are_informative() {
        let e = HeaderError::LengthExceedsMtu(700);
        assert!(e.to_string().contains("700"));
        let e = HeaderError::BadHandlerId(99);
        assert!(e.to_string().contains("99"));
    }

    #[test]
    fn from_parts_preserves_icrc_mismatch() {
        let data: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        let mut p = packetize(NodeId(0), NodeId(1), None, 0, &data).remove(0);
        p.corrupt_payload_bit(13);
        assert!(!p.icrc_ok());
        let rebuilt = Packet::from_parts(p.header, p.payload.clone(), p.icrc());
        assert_eq!(rebuilt, p);
        assert!(!rebuilt.icrc_ok(), "corruption must survive the rebuild");
    }

    #[test]
    fn on_demand_icrc_covers_header_and_payload_at_every_length() {
        let data: Vec<u8> = (0..MTU as u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=MTU {
            let p = packetize(
                NodeId(2),
                NodeId(5),
                Some(HandlerId::new(9)),
                64,
                &data[..len],
            )
            .remove(0);
            let want = crc32(crc32(0, &p.header.encode()), &p.payload);
            assert_eq!(p.icrc(), want, "len {len}");
            assert!(p.icrc_ok(), "len {len}");
        }
    }

    #[test]
    fn corruption_pins_the_pre_corruption_icrc() {
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut p = packetize(NodeId(0), NodeId(1), None, 0, &data).remove(0);
        let intact = p.icrc();
        p.corrupt_payload_bit(5);
        assert_eq!(p.icrc(), intact, "the stamp is the pre-corruption ICRC");
        assert!(!p.icrc_ok());
        p.corrupt_payload_bit(900);
        assert_eq!(p.icrc(), intact, "a second flip keeps the first stamp");
        assert!(!p.icrc_ok());
    }

    #[test]
    fn wire_bytes_includes_header() {
        let pkts = packetize(NodeId(0), NodeId(1), None, 0, &[0u8; 100]);
        assert_eq!(pkts[0].wire_bytes(), 116);
    }
}
