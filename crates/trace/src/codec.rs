//! Trace serialisation: a compact binary codec (for large traces) and a
//! human-readable text codec (for interop with external trace tooling).
//!
//! The binary layout is self-describing via a magic/version header so traces
//! written by older builds fail loudly rather than parse as garbage.

use crate::types::{ObjectId, Owner, OwnerId, PhotoMeta, PhotoType, Request, Terminal, Trace};
use crate::TS_LIMIT;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"OTAE";
const VERSION: u16 = 1;

/// Errors raised by the codecs.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the input.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> CodecError {
    CodecError::Malformed(msg.into())
}

/// `ts` of request `what`, refused at or beyond [`TS_LIMIT`].
fn bounded_ts(ts: u64, what: impl std::fmt::Display) -> Result<u64, CodecError> {
    if ts >= TS_LIMIT {
        return Err(malformed(format!("{what}: timestamp {ts} is at or beyond {TS_LIMIT} s")));
    }
    Ok(ts)
}

/// `upload_ts` of object `what`, refused when its magnitude is at or beyond
/// [`TS_LIMIT`]: feature extraction subtracts it from a request timestamp.
fn bounded_upload_ts(upload_ts: i64, what: impl std::fmt::Display) -> Result<i64, CodecError> {
    if upload_ts.unsigned_abs() >= TS_LIMIT {
        return Err(malformed(format!(
            "{what}: upload timestamp {upload_ts} is at or beyond ±{TS_LIMIT} s"
        )));
    }
    Ok(upload_ts)
}

/// Serialise a trace to the binary format.
pub fn to_bytes(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        16 + trace.meta.len() * 21 + trace.owners.len() * 8 + trace.requests.len() * 13,
    );
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(trace.owners.len() as u32);
    buf.put_u32_le(trace.meta.len() as u32);
    buf.put_u64_le(trace.requests.len() as u64);
    for o in &trace.owners {
        buf.put_f32_le(o.activity);
        buf.put_u32_le(o.active_friends);
    }
    for m in &trace.meta {
        buf.put_u32_le(m.owner.0);
        buf.put_u8(m.ptype as u8);
        buf.put_u32_le(m.size);
        buf.put_i64_le(m.upload_ts);
    }
    for r in &trace.requests {
        buf.put_u64_le(r.ts);
        buf.put_u32_le(r.object.0);
        buf.put_u8(r.terminal as u8);
    }
    buf.freeze()
}

/// Deserialise a trace from the binary format. A request timestamp at or
/// beyond [`TS_LIMIT`], or an upload timestamp whose magnitude is, is
/// malformed.
pub fn from_bytes(mut data: &[u8]) -> Result<Trace, CodecError> {
    // Full header: 4 magic + 2 version + 4 owners + 4 meta + 8 requests.
    if data.remaining() < 22 {
        return Err(malformed("truncated header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(malformed("bad magic"));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(malformed(format!("unsupported version {version}")));
    }
    let n_owners = data.get_u32_le() as usize;
    let n_meta = data.get_u32_le() as usize;
    let n_req_raw = data.get_u64_le();
    // Widen before multiplying: a bit-flipped count field must produce a
    // typed error, not an arithmetic overflow panic (or a silent wrap that
    // lets an absurd count through to allocation).
    let need = n_owners as u128 * 8 + n_meta as u128 * 17 + n_req_raw as u128 * 13;
    if (data.remaining() as u128) < need {
        return Err(malformed("truncated body"));
    }
    let n_req = n_req_raw as usize;
    let mut owners = Vec::with_capacity(n_owners);
    for _ in 0..n_owners {
        owners.push(Owner { activity: data.get_f32_le(), active_friends: data.get_u32_le() });
    }
    let mut meta = Vec::with_capacity(n_meta);
    for i in 0..n_meta {
        let owner = OwnerId(data.get_u32_le());
        if owner.0 as usize >= n_owners {
            return Err(malformed("owner index out of range"));
        }
        let ptype_raw = data.get_u8();
        if ptype_raw > 11 {
            return Err(malformed("photo type out of range"));
        }
        meta.push(PhotoMeta {
            owner,
            ptype: PhotoType::from_index(ptype_raw),
            size: data.get_u32_le(),
            upload_ts: bounded_upload_ts(data.get_i64_le(), format_args!("object {i}"))?,
        });
    }
    let mut requests = Vec::with_capacity(n_req);
    for i in 0..n_req {
        let ts = bounded_ts(data.get_u64_le(), format_args!("request {i}"))?;
        let object = ObjectId(data.get_u32_le());
        if object.0 as usize >= n_meta {
            return Err(malformed("object index out of range"));
        }
        let term = match data.get_u8() {
            0 => Terminal::Pc,
            1 => Terminal::Mobile,
            other => return Err(malformed(format!("bad terminal {other}"))),
        };
        requests.push(Request { ts, object, terminal: term });
    }
    if data.remaining() > 0 {
        return Err(malformed(format!("{} trailing bytes after the request stream", data.len())));
    }
    let trace = Trace { requests, meta, owners };
    if !trace.is_time_ordered() {
        return Err(malformed("requests not time-ordered"));
    }
    Ok(trace)
}

/// Write a trace to a writer in binary form.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> Result<(), CodecError> {
    w.write_all(&to_bytes(trace))?;
    Ok(())
}

/// Read a binary trace from a reader.
pub fn read_binary<R: Read>(mut r: R) -> Result<Trace, CodecError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    from_bytes(&data)
}

/// Write the request stream as text, one request per line:
/// `ts object_id owner_id type size upload_ts terminal`.
/// This is the interchange format for external cache simulators.
pub fn write_text<W: Write>(trace: &Trace, mut w: W) -> Result<(), CodecError> {
    for r in &trace.requests {
        let m = trace.photo(r.object);
        writeln!(
            w,
            "{} {} {} {} {} {} {}",
            r.ts,
            r.object.0,
            m.owner.0,
            m.ptype.label(),
            m.size,
            m.upload_ts,
            r.terminal as u8,
        )?;
    }
    Ok(())
}

/// Read a text trace (the [`write_text`] format):
/// `ts object_id owner_id type size upload_ts terminal`, one request per
/// line; `#`-prefixed lines and blank lines are ignored. A timestamp at or
/// beyond [`TS_LIMIT`], or an upload timestamp whose magnitude is, is
/// malformed.
///
/// Object ids and owner ids are renumbered densely in ascending order: the
/// smallest object id in the input becomes object 0, the next smallest
/// object 1, and so on (owners likewise), so no id sizes a table. A trace
/// whose ids are already dense from 0 with none skipped (every generated
/// trace) keeps its ids; sparse ids, such as `otae sample` output, do not.
///
/// Object/owner metadata is reconstructed from the first line mentioning
/// each id; later lines must agree on the metadata or the input is rejected
/// (external traces with inconsistent metadata are almost certainly
/// malformed). Owner social fields are unknown in external traces and
/// default to zero activity/friends — the classifier then simply sees
/// uninformative social features.
pub fn read_text<R: Read>(r: R) -> Result<Trace, CodecError> {
    use std::io::BufRead;
    let reader = io::BufReader::new(r);
    let mut requests = Vec::new();
    let mut meta_map: otae_fxhash::FxHashMap<u32, PhotoMeta> = otae_fxhash::FxHashMap::default();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 7 {
            return Err(malformed(format!("line {}: expected 7 fields", lineno + 1)));
        }
        let parse_err = |what: &str| malformed(format!("line {}: bad {what}", lineno + 1));
        let ts: u64 = fields[0].parse().map_err(|_| parse_err("timestamp"))?;
        let ts = bounded_ts(ts, format_args!("line {}", lineno + 1))?;
        let object: u32 = fields[1].parse().map_err(|_| parse_err("object id"))?;
        let owner: u32 = fields[2].parse().map_err(|_| parse_err("owner id"))?;
        let ptype = ALL_PHOTO_TYPES_BY_LABEL
            .iter()
            .find(|(label, _)| *label == fields[3])
            .map(|(_, t)| *t)
            .ok_or_else(|| parse_err("photo type"))?;
        let size: u32 = fields[4].parse().map_err(|_| parse_err("size"))?;
        let upload_ts: i64 = fields[5].parse().map_err(|_| parse_err("upload ts"))?;
        let upload_ts = bounded_upload_ts(upload_ts, format_args!("line {}", lineno + 1))?;
        let terminal = match fields[6] {
            "0" => Terminal::Pc,
            "1" => Terminal::Mobile,
            _ => return Err(parse_err("terminal")),
        };
        let m = PhotoMeta { owner: OwnerId(owner), ptype, size, upload_ts };
        match meta_map.get(&object) {
            None => {
                meta_map.insert(object, m);
            }
            Some(prev) if *prev == m => {}
            Some(_) => {
                return Err(malformed(format!(
                    "line {}: object {object} metadata disagrees with earlier lines",
                    lineno + 1
                )))
            }
        }
        requests.push(Request { ts, object: ObjectId(object), terminal });
    }
    let object_ids = dense_ids(meta_map.keys().copied());
    let owner_ids = dense_ids(meta_map.values().map(|m| m.owner.0));
    let mut meta: Vec<(u32, PhotoMeta)> = meta_map
        .into_iter()
        .map(|(id, m)| (object_ids[&id], PhotoMeta { owner: OwnerId(owner_ids[&m.owner.0]), ..m }))
        .collect();
    meta.sort_unstable_by_key(|(id, _)| *id);
    let meta = meta.into_iter().map(|(_, m)| m).collect();
    for r in &mut requests {
        r.object = ObjectId(object_ids[&r.object.0]);
    }
    let owners = vec![Owner { activity: 0.0, active_friends: 0 }; owner_ids.len()];
    let trace = Trace { requests, meta, owners };
    if !trace.is_time_ordered() {
        return Err(malformed("requests not time-ordered"));
    }
    Ok(trace)
}

/// Each distinct id mapped to its rank among them in ascending order.
fn dense_ids(ids: impl Iterator<Item = u32>) -> otae_fxhash::FxHashMap<u32, u32> {
    let mut sorted: Vec<u32> = ids.collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.into_iter().zip(0..).collect()
}

/// Label → type mapping used by the text reader.
const ALL_PHOTO_TYPES_BY_LABEL: [(&str, PhotoType); 12] = [
    ("a0", PhotoType::A0),
    ("a5", PhotoType::A5),
    ("b0", PhotoType::B0),
    ("b5", PhotoType::B5),
    ("c0", PhotoType::C0),
    ("c5", PhotoType::C5),
    ("m0", PhotoType::M0),
    ("m5", PhotoType::M5),
    ("l0", PhotoType::L0),
    ("l5", PhotoType::L5),
    ("o0", PhotoType::O0),
    ("o5", PhotoType::O5),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, TraceConfig};

    fn tiny() -> Trace {
        generate(&TraceConfig { n_objects: 500, seed: 3, ..Default::default() })
    }

    #[test]
    fn binary_round_trip() {
        let t = tiny();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_trace_round_trip() {
        let t = Trace::default();
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&tiny()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = to_bytes(&tiny());
        // 18..22 are the regression range: a valid magic/version with the
        // request-count field cut off used to panic inside `get_u64_le`.
        for cut in [0, 3, 10, 18, 19, 20, 21, 22, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = to_bytes(&tiny()).to_vec();
        bytes.push(0);
        let err = from_bytes(&bytes).expect_err("trailing byte must be rejected");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn huge_declared_counts_error_without_allocating() {
        // A header whose request count is astronomically large must fail the
        // (widened) size check, not overflow or attempt the allocation.
        let mut bytes = to_bytes(&Trace::default()).to_vec();
        bytes[14..22].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(CodecError::Malformed(_))));
        bytes[14..22].copy_from_slice(&(u64::MAX / 13).to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn rejects_out_of_range_object() {
        let t = Trace {
            requests: vec![Request { ts: 0, object: ObjectId(5), terminal: Terminal::Pc }],
            meta: vec![],
            owners: vec![],
        };
        let bytes = to_bytes(&t);
        assert!(from_bytes(&bytes).is_err());
    }

    /// Two requests, the second at `last_ts`.
    fn two_requests(last_ts: u64) -> String {
        format!("0 0 0 l5 1000 0 1\n{last_ts} 1 0 l5 1000 0 1\n")
    }

    #[test]
    fn timestamps_at_or_beyond_the_limit_are_malformed() {
        for last_ts in [TS_LIMIT, 1_000_000_000_000_000_000, u64::MAX] {
            let text = two_requests(last_ts);
            let err = read_text(text.as_bytes()).expect_err("text decoder refuses");
            assert!(err.to_string().contains(&format!("line 2: timestamp {last_ts}")), "{err}");
            // The same requests in binary: encode one inside the bound, then
            // patch its timestamp (the last request's 13 bytes end the stream).
            let mut bytes = to_bytes(&read_text(two_requests(0).as_bytes()).unwrap()).to_vec();
            let at = bytes.len() - 13;
            bytes[at..at + 8].copy_from_slice(&last_ts.to_le_bytes());
            let err = from_bytes(&bytes).expect_err("binary decoder refuses");
            assert!(err.to_string().contains(&format!("request 1: timestamp {last_ts}")), "{err}");
        }
        let inside = read_text(two_requests(TS_LIMIT - 1).as_bytes()).expect("just inside");
        assert_eq!(from_bytes(&to_bytes(&inside)).unwrap(), inside);
    }

    #[test]
    fn upload_timestamps_at_or_beyond_the_limit_are_malformed() {
        let limit = TS_LIMIT as i64;
        let text = |upload_ts: i64| format!("0 0 0 a0 100 {upload_ts} 0\n5 1 0 a0 100 0 1\n");
        for upload_ts in [i64::MIN, -limit, limit, i64::MAX] {
            let err = read_text(text(upload_ts).as_bytes()).expect_err("text decoder refuses");
            assert!(
                err.to_string().contains(&format!("line 1: upload timestamp {upload_ts}")),
                "{err}"
            );
            // The same trace in binary: object 0's upload_ts sits 9 bytes into
            // its 17-byte record, after the 22-byte header and one owner.
            let mut bytes = to_bytes(&read_text(text(0).as_bytes()).unwrap()).to_vec();
            bytes[22 + 8 + 9..22 + 8 + 17].copy_from_slice(&upload_ts.to_le_bytes());
            let err = from_bytes(&bytes).expect_err("binary decoder refuses");
            assert!(
                err.to_string().contains(&format!("object 0: upload timestamp {upload_ts}")),
                "{err}"
            );
        }
        for upload_ts in [-(limit - 1), limit - 1] {
            let inside = read_text(text(upload_ts).as_bytes()).expect("just inside");
            assert_eq!(inside.photo(ObjectId(0)).upload_ts, upload_ts);
            assert_eq!(from_bytes(&to_bytes(&inside)).unwrap(), inside);
        }
    }

    #[test]
    fn text_ids_are_renumbered_densely_in_ascending_order() {
        // Objects 3 < 7 < u32::MAX become 0, 1, 2; owners 9 < 20 become 0, 1.
        let input =
            "0 7 20 a0 100 0 0\n1 4294967295 9 b0 200 0 1\n2 3 20 c0 300 0 0\n3 7 20 a0 100 0 1\n";
        let t = read_text(input.as_bytes()).unwrap();
        let objects: Vec<u32> = t.requests.iter().map(|r| r.object.0).collect();
        assert_eq!(objects, [1, 2, 0, 1]);
        assert_eq!(t.meta.len(), 3);
        assert_eq!(t.owners.len(), 2);
        let owner_and_size = |o: u32| (t.photo(ObjectId(o)).owner.0, t.photo(ObjectId(o)).size);
        assert_eq!(
            [owner_and_size(0), owner_and_size(1), owner_and_size(2)],
            [(1, 300), (1, 100), (0, 200)]
        );
    }

    #[test]
    fn huge_text_ids_size_no_table() {
        // Each used to size `meta` or `owners` by the id itself: a wrapped
        // `id + 1` indexed an empty table, larger ids aborted on allocation.
        for line in
            ["0 4294967295 0 a0 100 0 0", "0 0 4294967295 a0 100 0 0", "0 3000000000 0 a0 100 0 0"]
        {
            let t = read_text(line.as_bytes()).unwrap();
            assert_eq!((t.meta.len(), t.owners.len()), (1, 1), "{line}");
            assert_eq!(t.requests[0].object, ObjectId(0), "{line}");
            assert_eq!(t.photo(ObjectId(0)).owner, OwnerId(0), "{line}");
        }
    }

    #[test]
    fn text_format_lines_match_requests() {
        let t = tiny();
        let mut out = Vec::new();
        write_text(&t, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), t.requests.len());
        let first = text.lines().next().unwrap();
        assert_eq!(first.split_whitespace().count(), 7);
    }

    #[test]
    fn text_round_trip_preserves_requests_and_meta() {
        let t = tiny();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back.requests, t.requests);
        // Metadata of every *accessed* object survives.
        for r in &t.requests {
            assert_eq!(back.photo(r.object), t.photo(r.object));
        }
        // Owner social fields are intentionally zeroed (unknown in text).
        assert!(back.owners.iter().all(|o| o.activity == 0.0));
    }

    #[test]
    fn text_reader_skips_comments_and_blank_lines() {
        let input = "# a comment

10 0 0 l5 100 0 1
20 0 0 l5 100 0 0
";
        let t = read_text(input.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests[1].terminal, Terminal::Pc);
        assert_eq!(t.photo(ObjectId(0)).size, 100);
    }

    #[test]
    fn text_reader_rejects_malformed_lines() {
        assert!(read_text("10 0 0 l5 100 0".as_bytes()).is_err(), "6 fields");
        assert!(read_text("x 0 0 l5 100 0 1".as_bytes()).is_err(), "bad ts");
        assert!(read_text("10 0 0 zz 100 0 1".as_bytes()).is_err(), "bad type");
        assert!(read_text("10 0 0 l5 100 0 7".as_bytes()).is_err(), "bad terminal");
        // Out-of-order timestamps.
        assert!(read_text(
            "20 0 0 l5 100 0 1
10 0 0 l5 100 0 1"
                .as_bytes()
        )
        .is_err());
        // Inconsistent metadata for the same object.
        assert!(read_text(
            "10 0 0 l5 100 0 1
20 0 0 l5 999 0 1"
                .as_bytes()
        )
        .is_err());
    }

    #[test]
    fn text_reader_empty_input() {
        let t = read_text("".as_bytes()).unwrap();
        assert!(t.is_empty());
        assert!(t.owners.is_empty());
    }

    #[test]
    fn reader_writer_round_trip() {
        let t = tiny();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(t, back);
    }
}
