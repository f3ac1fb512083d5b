//! Per-record framing for segment files: fixed header with independent
//! header and payload checksums.
//!
//! Layout of one record (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  key
//!      8     4  payload length
//!     12     1  kind (0 = put, 1 = tombstone)
//!     13     4  CRC32 of the payload
//!     17     4  CRC32 of bytes 0..17 (the header)
//!     21     n  payload
//! ```
//!
//! The header checksum makes a torn header distinguishable from garbage;
//! the payload checksum makes a torn or bit-flipped payload detectable even
//! when the header survived intact. Decoding follows the hardening rules of
//! `otae_trace::codec`: every length is validated with widened arithmetic
//! before any slice is taken, truncation at *any* byte offset is rejected,
//! and trailing bytes after the framed payload are the next record's
//! problem, never silently consumed.

/// Bytes in a record header.
pub const HEADER_LEN: usize = 21;

/// Sanity cap on a single payload (64 MiB). A valid-header record claiming
/// more than this is treated as corruption, bounding what a recovery scan
/// will attempt to buffer.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Record type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A value write for the key.
    Put,
    /// A deletion marker for the key.
    Tombstone,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Put => 0,
            RecordKind::Tombstone => 1,
        }
    }
}

/// Why a record failed to decode. `Truncated` is the only variant a clean
/// crash can produce (a torn tail); the others indicate bit rot or a
/// foreign byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than the header + payload the header declares. The
    /// payload field carries how many bytes were needed.
    Truncated {
        /// Bytes required to finish decoding.
        needed: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// Header checksum mismatch: the header bytes themselves are damaged.
    BadHeaderCrc,
    /// Payload checksum mismatch under an intact header.
    BadPayloadCrc,
    /// Unknown record kind byte under an intact header checksum.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    OversizedPayload(u32),
    /// Tombstones carry no payload; a nonzero length is corruption.
    TombstoneWithPayload(u32),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated { needed, have } => {
                write!(f, "truncated record: need {needed} bytes, have {have}")
            }
            RecordError::BadHeaderCrc => write!(f, "record header checksum mismatch"),
            RecordError::BadPayloadCrc => write!(f, "record payload checksum mismatch"),
            RecordError::BadKind(k) => write!(f, "unknown record kind {k}"),
            RecordError::OversizedPayload(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            RecordError::TombstoneWithPayload(n) => {
                write!(f, "tombstone with nonzero payload length {n}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// One decoded record, borrowing its payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// The record's key.
    pub key: u64,
    /// Put or tombstone.
    pub kind: RecordKind,
    /// Payload bytes (empty for tombstones).
    pub payload: &'a [u8],
}

impl Record<'_> {
    /// Total encoded length of this record (header + payload).
    pub fn encoded_len(&self) -> u64 {
        HEADER_LEN as u64 + self.payload.len() as u64
    }
}

// CRC32 (IEEE 802.3 polynomial 0xEDB88320, reflected). Two implementations
// compute the same function and [`crc32`] picks between them at run time:
//
// - `crc32_fold` (x86_64 CPUs with PCLMULQDQ + SSE4.1, inputs of at least
//   `FOLD_MIN_LEN` bytes): carry-less-multiply folding, 64 input bytes per
//   round — what the payload checksum of every put, read, recovery scan
//   and compaction pass runs on.
// - `crc32_tables` (everything else: other architectures and older CPUs,
//   the 17-byte header, the sub-16-byte tail the fold leaves): slicing-by-8
//   over eight tables generated at compile time. Table 0 is the classic
//   byte-at-a-time table; table k maps "byte fed k steps earlier", so one
//   round combines eight lookups with XOR. It is also the oracle the fold
//   is tested against.
//
// Both take and return the raw (un-inverted) register so one can continue
// where the other stopped; the values are bit-identical to the byte-wise
// walk, so stored checksums never depend on which host wrote them.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Shortest input the folding kernel folds: its four 128-bit lanes are
/// seeded from the first 64 bytes. Anything shorter (every record header)
/// takes the table walk.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_LEN: usize = 64;

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `crc32_fold` is a safe function for every input; the
        // call's one requirement is that this CPU has the `pclmulqdq` and
        // `sse4.1` features the function is compiled with, which the two
        // `is_x86_feature_detected!` checks directly above confirmed.
        #[allow(unsafe_code)]
        let reg = unsafe { crc32_fold(u32::MAX, data) };
        return !reg;
    }
    !crc32_tables(u32::MAX, data)
}

/// Slicing-by-8 table walk: advance the raw CRC register over `data`.
fn crc32_tables(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009): advance
/// the raw CRC register over `data`. Inputs shorter than
/// [`FOLD_MIN_LEN`], and the sub-16-byte tail of longer ones, go through
/// [`crc32_tables`].
///
/// The message is a polynomial over GF(2); multiplying a 128-bit chunk by
/// `x^D mod P` moves it `D` bits "later" in the message without changing
/// the remainder, so four independent accumulators can each absorb every
/// fourth 16-byte block (`D` = 512), then collapse into one (`D` = 128),
/// which absorbs the remaining blocks one at a time. The final 128 bits
/// are reduced to 64, then to the 32-bit remainder by Barrett reduction
/// (two multiplications by precomputed `floor(x^64 / P)` and `P` in place
/// of a division). Constants are the paper's for the bit-reflected IEEE
/// polynomial.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_fold(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // All bit-reflected, like the polynomial.
    /// x^(512+32) mod P, x^(512-32) mod P: fold across four lanes.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P, x^(128-32) mod P: fold onto the next block.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: 96 → 64 bits.
    const K5: i64 = 0x1_63cd_6124;
    /// P (33 bits, reflected) and mu = floor(x^64 / P) for Barrett.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    // Closures, not nested fns: a closure inherits the enclosing function's
    // target features, so the intrinsics stay safe calls.
    let load = |block: &[u8; 16]| -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    };
    // `acc` moved past `next`, plus `next`: each half of `acc` times the
    // matching fold constant.
    let fold = |acc: __m128i, next: __m128i, keys: __m128i| -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    };

    let (rounds, rest) = data.as_chunks::<FOLD_MIN_LEN>();
    let Some((head, rounds)) = rounds.split_first() else {
        return crc32_tables(crc, data);
    };
    let lanes = |round: &[u8; FOLD_MIN_LEN]| -> [__m128i; 4] {
        let (l, _) = round.as_chunks::<16>();
        [load(&l[0]), load(&l[1]), load(&l[2]), load(&l[3])]
    };
    let [mut x0, mut x1, mut x2, mut x3] = lanes(head);
    x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(crc as i32));

    let k1k2 = _mm_set_epi64x(K2, K1);
    for round in rounds {
        let [n0, n1, n2, n3] = lanes(round);
        x0 = fold(x0, n0, k1k2);
        x1 = fold(x1, n1, k1k2);
        x2 = fold(x2, n2, k1k2);
        x3 = fold(x3, n3, k1k2);
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(x0, x1, k3k4);
    x = fold(x, x2, k3k4);
    x = fold(x, x3, k3k4);
    let (blocks, tail) = rest.as_chunks::<16>();
    for block in blocks {
        x = fold(x, load(block), k3k4);
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: 64 → 32 bits; the remainder lands in bits 32..64.
    let poly_mu = _mm_set_epi64x(MU, POLY);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
    let reg = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
    crc32_tables(reg, tail)
}

/// Write a record header into `header` (exactly [`HEADER_LEN`] bytes): the
/// fields, then the CRC over them. The one place the layout at the top of
/// this file is produced.
fn write_header(header: &mut [u8], key: u64, kind: RecordKind, len: u32, payload_crc: u32) {
    header[..8].copy_from_slice(&key.to_le_bytes());
    header[8..12].copy_from_slice(&len.to_le_bytes());
    header[12] = kind.to_byte();
    header[13..17].copy_from_slice(&payload_crc.to_le_bytes());
    let header_crc = crc32(&header[..HEADER_LEN - 4]);
    header[HEADER_LEN - 4..].copy_from_slice(&header_crc.to_le_bytes());
}

/// Frame a record whose payload is already in place: `record` is the
/// whole record, `record[HEADER_LEN..]` the payload as written by the
/// caller, and this fills `record[..HEADER_LEN]` — key, length, kind and
/// both checksums — producing exactly the bytes [`encode_record`] would
/// append for that payload. The store's put path calls it on the pooled
/// buffer the caller filled, so a payload is never copied just to be
/// framed.
///
/// # Panics
///
/// When `record` is shorter than a header, the payload exceeds
/// [`MAX_PAYLOAD`] (its length would not survive the 32-bit field), or a
/// tombstone carries a payload — all three are caller bugs, and framing
/// such a record would store bytes [`decode_record`] rejects.
pub fn frame_in_place(key: u64, kind: RecordKind, record: &mut [u8]) {
    let (header, payload) = record.split_at_mut(HEADER_LEN);
    assert!(payload.len() as u64 <= MAX_PAYLOAD as u64, "payload exceeds cap");
    assert!(kind == RecordKind::Put || payload.is_empty(), "tombstones must carry no payload");
    write_header(header, key, kind, payload.len() as u32, crc32(payload));
}

/// Append the framed record to `out`, returning the encoded length. The
/// only failure is an oversized or misshapen record, which callers
/// construct — so the signature stays infallible and the invariants are
/// asserted in debug builds only (release appends a clamped record rather
/// than unwinding a writer thread).
pub fn encode_record(key: u64, kind: RecordKind, payload: &[u8], out: &mut Vec<u8>) -> u64 {
    debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64, "payload exceeds cap");
    debug_assert!(
        kind == RecordKind::Put || payload.is_empty(),
        "tombstones must carry no payload"
    );
    let len = (payload.len() as u64).min(MAX_PAYLOAD as u64) as u32;
    let payload = &payload[..len as usize];
    // Checksum the source before copying it: measured 6 % faster on a
    // 32 KiB record than copying first and checksumming the copy.
    let payload_crc = crc32(payload);
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    write_header(&mut out[start..], key, kind, len, payload_crc);
    out.extend_from_slice(payload);
    (out.len() - start) as u64
}

/// A record header that passed its own checks: checksum, kind, length
/// cap. What it says about the payload — how long, which checksum — is
/// still only a claim until [`decode_record`] has seen the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// The record's key.
    pub key: u64,
    /// Put or tombstone.
    pub kind: RecordKind,
    /// Payload bytes following the header (0 for tombstones, at most
    /// [`MAX_PAYLOAD`]).
    pub payload_len: u32,
    /// CRC32 the payload must have.
    pub payload_crc: u32,
}

impl RecordHeader {
    /// Total encoded length of the record (header + payload), widened so
    /// the sum cannot wrap on 32-bit targets.
    pub fn encoded_len(&self) -> u64 {
        HEADER_LEN as u64 + self.payload_len as u64
    }
}

/// Decode and verify the header at the front of `buf` without touching the
/// payload: the one place the layout at the top of this file is read.
/// Compaction walks a segment through this, [`HEADER_LEN`] bytes per
/// record, and fetches only the payloads it keeps.
pub fn decode_header(buf: &[u8]) -> Result<RecordHeader, RecordError> {
    if buf.len() < HEADER_LEN {
        return Err(RecordError::Truncated { needed: HEADER_LEN as u64, have: buf.len() as u64 });
    }
    let header = &buf[..HEADER_LEN];
    let stored_header_crc = u32::from_le_bytes([header[17], header[18], header[19], header[20]]);
    if crc32(&header[..HEADER_LEN - 4]) != stored_header_crc {
        return Err(RecordError::BadHeaderCrc);
    }
    let key = u64::from_le_bytes([
        header[0], header[1], header[2], header[3], header[4], header[5], header[6], header[7],
    ]);
    let payload_len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let kind = match header[12] {
        0 => RecordKind::Put,
        1 => RecordKind::Tombstone,
        k => return Err(RecordError::BadKind(k)),
    };
    if payload_len > MAX_PAYLOAD {
        return Err(RecordError::OversizedPayload(payload_len));
    }
    if kind == RecordKind::Tombstone && payload_len != 0 {
        return Err(RecordError::TombstoneWithPayload(payload_len));
    }
    let payload_crc = u32::from_le_bytes([header[13], header[14], header[15], header[16]]);
    Ok(RecordHeader { key, kind, payload_len, payload_crc })
}

/// Decode one record from the front of `buf`, returning it and the number
/// of bytes consumed. Never reads past the framed payload: bytes after it
/// belong to the next record.
pub fn decode_record(buf: &[u8]) -> Result<(Record<'_>, u64), RecordError> {
    let header = decode_header(buf)?;
    let total = header.encoded_len();
    if (buf.len() as u64) < total {
        return Err(RecordError::Truncated { needed: total, have: buf.len() as u64 });
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + header.payload_len as usize];
    if crc32(payload) != header.payload_crc {
        return Err(RecordError::BadPayloadCrc);
    }
    Ok((Record { key: header.key, kind: header.kind, payload }, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The retained table walk, called directly: on x86 hosts `crc32`
    /// dispatches long inputs to the folding kernel, so this is both the
    /// oracle and what keeps the portable path exercised.
    fn table_walk(data: &[u8]) -> u32 {
        !crc32_tables(u32::MAX, data)
    }

    /// Seeded xorshift bytes (no RNG dependency in unit tests).
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut z = seed | 1;
        (0..len)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                (z >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn table_walk_equals_bytewise_at_every_length() {
        // The slicing-by-8 fold must agree with the reference byte walk on
        // every remainder length (0..8) and across chunk boundaries.
        fn bytewise(data: &[u8]) -> u32 {
            let mut crc = u32::MAX;
            for &b in data {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(table_walk(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        assert_eq!(table_walk(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_equals_table_walk_at_every_length_and_alignment() {
        // Every length across the 64-byte cut-over (every lane count, every
        // fold-by-1 block count, every sub-16-byte tail) at every start
        // offset 0..16 (the kernel's loads are unaligned). The unoptimized
        // table walk makes the full cross product a 20 s test, so a debug
        // build sweeps all lengths at offset 0 only and a shorter range,
        // still covering every phase several times, at the other fifteen;
        // `scripts/check.sh` runs the full sweep in release.
        let data = seeded_bytes(0x5EED_C4C3, 4096 + 16);
        for start in 0..16 {
            let sweep = if start == 0 || !cfg!(debug_assertions) { 4096 } else { 640 };
            for len in (0..=sweep).chain([4096]) {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), table_walk(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_equals_table_walk_on_a_large_buffer() {
        let data = seeded_bytes(0xB16_B0FF, (1 << 20) + 5);
        assert_eq!(crc32(&data), table_walk(&data));
        assert_eq!(crc32(&data[..1 << 20]), table_walk(&data[..1 << 20]));
        for fill in [0u8, 0xFF] {
            let flat = vec![fill; 1 << 16];
            assert_eq!(crc32(&flat), table_walk(&flat), "all-{fill:#04x} buffer");
        }
    }

    #[test]
    fn golden_record_pins_the_on_disk_format() {
        // Framed bytes of (key 0x0123456789ABCDEF, Put, 100-byte payload)
        // as produced by the table-only encoder before the folding kernel
        // existed. Encoding must reproduce them and decoding must accept
        // them: segments written by either build are read by the other.
        const GOLDEN: &str = "efcdab896745230164000000006d0e0f9275dd66f85a7f1035cee38459721728\
                              cde6bb5c710a2fc0e5be53740922c798bd566b0c21fa9fb0556e0324f992b748\
                              6d06dbfc91aa4f6005def394a9426738ddf68bac411a3fd0f58ea3441932d7e8\
                              8da67b1c31caef80a57e1334c9e287587d162bcce1ba5f7015";
        let golden: Vec<u8> = (0..GOLDEN.len() / 2)
            .map(|i| u8::from_str_radix(&GOLDEN[2 * i..2 * i + 2], 16).expect("hex digit pair"))
            .collect();
        let key = 0x0123_4567_89AB_CDEF;
        let payload: Vec<u8> = (0..100u32).map(|i| (i.wrapping_mul(37) ^ 0x5A) as u8).collect();

        let mut encoded = Vec::new();
        let n = encode_record(key, RecordKind::Put, &payload, &mut encoded);
        assert_eq!(n as usize, golden.len());
        assert_eq!(encoded, golden);

        // Framed where the payload already lies, over a stale header.
        let mut in_place = vec![0xEE; golden.len()];
        in_place[HEADER_LEN..].copy_from_slice(&payload);
        frame_in_place(key, RecordKind::Put, &mut in_place);
        assert_eq!(in_place, golden);

        let (record, consumed) = decode_record(&golden).expect("golden record decodes");
        assert_eq!(consumed as usize, golden.len());
        assert_eq!(record, Record { key, kind: RecordKind::Put, payload: &payload });
    }

    #[test]
    fn round_trip_put_and_tombstone() {
        let mut buf = Vec::new();
        let n1 = encode_record(42, RecordKind::Put, b"hello", &mut buf);
        let n2 = encode_record(7, RecordKind::Tombstone, b"", &mut buf);
        assert_eq!(n1, HEADER_LEN as u64 + 5);
        assert_eq!(n2, HEADER_LEN as u64);

        let (r1, c1) = decode_record(&buf).expect("first record");
        assert_eq!(r1, Record { key: 42, kind: RecordKind::Put, payload: b"hello" });
        assert_eq!(c1, n1);
        let (r2, c2) = decode_record(&buf[c1 as usize..]).expect("second record");
        assert_eq!(r2, Record { key: 7, kind: RecordKind::Tombstone, payload: b"" });
        assert_eq!(c2, n2);
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let mut buf = Vec::new();
        encode_record(99, RecordKind::Put, b"payload bytes", &mut buf);
        for cut in 0..buf.len() {
            let err = decode_record(&buf[..cut]).expect_err("truncated input must fail");
            assert!(
                matches!(err, RecordError::Truncated { .. } | RecordError::BadHeaderCrc),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
        assert!(decode_record(&buf).is_ok());
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut clean = Vec::new();
        encode_record(5, RecordKind::Put, b"abcdef", &mut clean);
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            assert!(decode_record(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn trailing_bytes_are_left_for_the_next_record() {
        let mut buf = Vec::new();
        let n = encode_record(1, RecordKind::Put, b"xy", &mut buf);
        buf.extend_from_slice(&[0xAB; 7]); // garbage after the record
        let (r, consumed) = decode_record(&buf).expect("leading record intact");
        assert_eq!(consumed, n);
        assert_eq!(r.payload, b"xy");
        // The garbage itself fails as the next record.
        assert!(decode_record(&buf[consumed as usize..]).is_err());
    }

    #[test]
    fn bad_kind_and_oversized_len_are_corruption_not_truncation() {
        // Hand-build a header with a valid header CRC but a bad kind.
        let mut buf = Vec::new();
        encode_record(3, RecordKind::Put, b"", &mut buf);
        buf[12] = 9; // kind
        let crc = crc32(&buf[..HEADER_LEN - 4]);
        buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_record(&buf), Err(RecordError::BadKind(9)));

        let mut buf = Vec::new();
        encode_record(3, RecordKind::Put, b"", &mut buf);
        buf[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let crc = crc32(&buf[..HEADER_LEN - 4]);
        buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_record(&buf), Err(RecordError::OversizedPayload(MAX_PAYLOAD + 1)));
    }
}
