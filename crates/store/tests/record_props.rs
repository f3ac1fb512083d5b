//! Property suite for the record codec, mirroring the hardening rules the
//! trace codec is held to: any payload round-trips bit-exactly, every
//! single-bit corruption is caught by one of the two checksums, truncation
//! at *every* byte offset is rejected (never a partial or garbage decode),
//! and bytes past the framed payload are never consumed.

use otae_store::{
    crc32, decode_header, decode_record, encode_record, frame_in_place, Record, RecordError,
    RecordHeader, RecordKind, HEADER_LEN,
};
use proptest::prelude::*;

/// A record built field by field from the layout table in `record.rs`,
/// sharing only `crc32` with the crate's framing.
fn framed_by_hand(key: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut out = key.to_le_bytes().to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(match kind {
        RecordKind::Put => 0,
        RecordKind::Tombstone => 1,
    });
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Every payload length across the CRC kernel's cut-overs and at 64 KiB
/// ± 1, for both kinds, with a key and payload for each.
fn at_every_length(mut check: impl FnMut(u64, RecordKind, &[u8])) {
    let data: Vec<u8> =
        (0..(64usize << 10) + 1).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect();
    let lens = (0..=4096).chain([(64 << 10) - 1, 64 << 10, (64 << 10) + 1]);
    for (len, kind) in lens.map(|l| (l, RecordKind::Put)).chain([(0, RecordKind::Tombstone)]) {
        let key = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(len as u64 + 1);
        check(key, kind, &data[..len]);
    }
}

/// Framing a buffer whose payload is already in place (over stale header
/// bytes, as a pooled buffer has) produces exactly the bytes
/// `encode_record` appends and the layout prescribes — at every length,
/// for both kinds — and never touches the payload.
#[test]
fn frame_in_place_equals_encode_record_at_every_length() {
    at_every_length(|key, kind, payload| {
        let len = payload.len();
        let mut encoded = vec![0xAB; 3]; // appended after existing bytes
        let n = encode_record(key, kind, payload, &mut encoded);
        assert_eq!(n as usize, HEADER_LEN + len);

        let mut in_place = vec![0xEE; HEADER_LEN + len];
        in_place[HEADER_LEN..].copy_from_slice(payload);
        frame_in_place(key, kind, &mut in_place);

        assert_eq!(in_place, &encoded[3..], "{kind:?} len {len}");
        assert_eq!(in_place, framed_by_hand(key, kind, payload), "{kind:?} len {len}");
        assert_eq!(&encoded[..3], [0xAB; 3]);
    });
}

/// `decode_header` is the front half of `decode_record`: given the header
/// alone it reports every field the full decode does, at every length,
/// and a header cut at any of its 21 offsets is truncated, never decoded.
#[test]
fn decode_header_agrees_with_decode_record_at_every_length() {
    at_every_length(|key, kind, payload| {
        let mut buf = Vec::new();
        encode_record(key, kind, payload, &mut buf);
        let (record, consumed) = decode_record(&buf).expect("clean record");
        let want = RecordHeader {
            key: record.key,
            kind: record.kind,
            payload_len: record.payload.len() as u32,
            payload_crc: crc32(record.payload),
        };
        assert_eq!((record.key, record.kind, record.payload), (key, kind, payload));
        // With the payload behind it or without: the payload is not read.
        assert_eq!(decode_header(&buf), Ok(want), "{kind:?} len {}", payload.len());
        assert_eq!(decode_header(&buf[..HEADER_LEN]), Ok(want));
        assert_eq!(want.encoded_len(), consumed);
        for cut in 0..HEADER_LEN {
            let truncated = RecordError::Truncated { needed: HEADER_LEN as u64, have: cut as u64 };
            assert_eq!(decode_header(&buf[..cut]), Err(truncated), "header cut at {cut}");
        }
    });
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode → decode is the identity, and the consumed length is exactly
    /// the encoded length.
    #[test]
    fn round_trip_is_exact(key in any::<u64>(), payload in arb_payload()) {
        let mut buf = Vec::new();
        let n = encode_record(key, RecordKind::Put, &payload, &mut buf);
        prop_assert_eq!(n, HEADER_LEN as u64 + payload.len() as u64);
        prop_assert_eq!(n as usize, buf.len());
        let (record, consumed) = decode_record(&buf).expect("clean record");
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(
            record,
            Record { key, kind: RecordKind::Put, payload: &payload }
        );
    }

    /// Tombstones round-trip too (payload always empty).
    #[test]
    fn tombstone_round_trip(key in any::<u64>()) {
        let mut buf = Vec::new();
        let n = encode_record(key, RecordKind::Tombstone, &[], &mut buf);
        prop_assert_eq!(n, HEADER_LEN as u64);
        let (record, consumed) = decode_record(&buf).expect("clean tombstone");
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(record.key, key);
        prop_assert_eq!(record.kind, RecordKind::Tombstone);
        prop_assert!(record.payload.is_empty());
    }

    /// Flipping any single bit anywhere in the record is detected: a
    /// header flip trips the header CRC (or a field validator under a
    /// forged CRC — but a flip cannot forge), a payload flip trips the
    /// payload CRC.
    #[test]
    fn any_single_bit_flip_is_detected(
        key in any::<u64>(),
        payload in arb_payload(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        encode_record(key, RecordKind::Put, &payload, &mut buf);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= 1 << bit;
        let err = decode_record(&buf).expect_err("corrupted record must not decode");
        if pos < HEADER_LEN {
            // The header CRC covers bytes 0..17 and is stored at 17..21,
            // so a flip on either side of that line mismatches it.
            prop_assert_eq!(err, RecordError::BadHeaderCrc);
        } else {
            prop_assert_eq!(err, RecordError::BadPayloadCrc);
        }
    }

    /// Truncation at every byte offset short of the full record is
    /// rejected as Truncated or BadHeaderCrc (when the cut lands inside
    /// the header there are not enough bytes to even checksum) — never a
    /// successful decode, never a panic.
    #[test]
    fn truncation_at_every_offset_is_rejected(key in any::<u64>(), payload in arb_payload()) {
        let mut buf = Vec::new();
        let n = encode_record(key, RecordKind::Put, &payload, &mut buf) as usize;
        for cut in 0..n {
            let err = decode_record(&buf[..cut]).expect_err("truncated input must fail");
            prop_assert!(
                matches!(err, RecordError::Truncated { .. }),
                "cut at {} of {}: unexpected error {:?}", cut, n, err
            );
            if let RecordError::Truncated { needed, have } = err {
                prop_assert_eq!(have, cut as u64);
                prop_assert!(needed > have);
            }
        }
    }

    /// Trailing garbage after a record is never consumed: the decode
    /// returns exactly the framed length and leaves the rest alone, and
    /// random garbage does not itself decode as a record.
    #[test]
    fn trailing_garbage_is_left_alone(
        key in any::<u64>(),
        payload in arb_payload(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut buf = Vec::new();
        let n = encode_record(key, RecordKind::Put, &payload, &mut buf);
        buf.extend_from_slice(&garbage);
        let (record, consumed) = decode_record(&buf).expect("leading record intact");
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(record.payload, &payload[..]);
        // The garbage is either too short, fails a checksum, or — with
        // probability ~2^-32 — decodes; what it must never do is panic or
        // read past its buffer. Treat an accidental decode as vanishingly
        // unlikely and assert failure.
        prop_assert!(decode_record(&buf[n as usize..]).is_err());
    }

    /// Two records appended back-to-back decode in sequence with exact
    /// framing (the log-scan invariant recovery depends on).
    #[test]
    fn back_to_back_records_frame_exactly(
        k1 in any::<u64>(), p1 in arb_payload(),
        k2 in any::<u64>(), p2 in arb_payload(),
    ) {
        let mut buf = Vec::new();
        let n1 = encode_record(k1, RecordKind::Put, &p1, &mut buf);
        let n2 = encode_record(k2, RecordKind::Put, &p2, &mut buf);
        let (r1, c1) = decode_record(&buf).expect("first");
        prop_assert_eq!(c1, n1);
        prop_assert_eq!(r1.key, k1);
        let (r2, c2) = decode_record(&buf[c1 as usize..]).expect("second");
        prop_assert_eq!(c2, n2);
        prop_assert_eq!(r2.key, k2);
        prop_assert_eq!(r2.payload, &p2[..]);
        prop_assert_eq!(c1 + c2, buf.len() as u64);
    }

    /// The CRC32 implementation matches its defining properties: stable
    /// under recomputation and sensitive to any flip.
    #[test]
    fn crc32_detects_flips(data in proptest::collection::vec(any::<u8>(), 1..256),
                           pos_seed in any::<u64>(), bit in 0u8..8) {
        let clean = crc32(&data);
        prop_assert_eq!(clean, crc32(&data), "crc must be a pure function");
        let mut bad = data.clone();
        let pos = (pos_seed % bad.len() as u64) as usize;
        bad[pos] ^= 1 << bit;
        prop_assert_ne!(clean, crc32(&bad), "single-bit flip must change the crc");
    }

    /// Whichever kernel `crc32` dispatches to (carry-less-multiply folding
    /// from 64 bytes up on x86_64, the table walk otherwise) computes the
    /// polynomial's defining bit-at-a-time recurrence. The crate's private
    /// table walk is pinned to the same recurrence by a unit test, so this
    /// is kernel ≡ table walk from outside the crate.
    #[test]
    fn crc32_equals_the_bitwise_definition(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
    ) {
        let mut reg = u32::MAX;
        for &byte in &data {
            reg ^= u32::from(byte);
            for _ in 0..8 {
                reg = if reg & 1 != 0 { (reg >> 1) ^ 0xEDB8_8320 } else { reg >> 1 };
            }
        }
        prop_assert_eq!(crc32(&data), !reg);
    }
}
