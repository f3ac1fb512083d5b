//! Recovery held to the byte. A seeded put / overwrite / remove churn over
//! small segments (with two explicit compaction passes, so relocated
//! records and tombstones are on the device) is left behind by a dropped
//! store, then damaged in every way a scan must tell apart:
//!
//! - a torn tail: the newest segment cut at every byte of its last record
//!   (inside the header, its checksums included, and inside the payload),
//!   down to cutting the whole record away;
//! - a damaged tail: one bit flipped in every byte of that last record;
//! - mid-log damage in an older segment: a payload bit, a header bit, the
//!   segment magic, and a record cut short.
//!
//! One digest folds, per case, what the reopen produced: the
//! `RecoveryReport` fields, `live_entries()`, and every segment's bytes
//! after the repair — or, when the scan refuses the device, the error it
//! returned and the untouched bytes. The thread count of the scan must not
//! change any of it.

use otae_store::{
    decode_record, Backend, MemBackend, NoStoreFaults, RecordKind, SegmentId, SegmentStore,
    StoreConfig, HEADER_LEN, SEGMENT_HEADER_LEN,
};
use std::sync::Arc;

fn cfg(recovery_threads: usize) -> StoreConfig {
    StoreConfig {
        segment_bytes: 1_500,
        queue_depth: 16,
        compact_trigger: None,
        group_records: 8,
        recovery_threads,
        ..StoreConfig::default()
    }
}

fn payload(key: u64, version: u64, len: usize) -> Vec<u8> {
    let word = (key ^ version.rotate_left(29)).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
    (0..len).map(|i| word[i % 8] ^ (i / 8) as u8).collect()
}

/// A segment's bytes, read back through the positioned read.
fn bytes_of(backend: &dyn Backend, seg: SegmentId) -> Vec<u8> {
    let len = backend.len(seg).expect("len");
    let mut bytes = Vec::new();
    backend.read_into(seg, 0, len as usize, &mut bytes).expect("read segment");
    bytes
}

/// A device of its own holding `src`'s segments, byte for byte.
fn copy_of(src: &MemBackend) -> MemBackend {
    let dst = MemBackend::new();
    for seg in src.list().expect("list") {
        dst.create(seg).expect("create");
        dst.append(seg, &bytes_of(src, seg)).expect("append");
    }
    dst
}

/// Replace segment `seg` with `bytes`.
fn overwrite(backend: &MemBackend, seg: SegmentId, bytes: &[u8]) {
    backend.truncate(seg, 0).expect("truncate");
    backend.append(seg, bytes).expect("append");
}

/// The seeded device: puts of 0..260 bytes, overwrites and removes over 40
/// keys, two compaction passes, closed cleanly.
fn device() -> MemBackend {
    let backend = MemBackend::new();
    let (store, _) = SegmentStore::open(Arc::new(backend.clone()), cfg(1), Arc::new(NoStoreFaults))
        .expect("open");
    let mut z = 0x7EC0_4E27_5EED_0001_u64;
    for step in 0..260u64 {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        let key = (z >> 8) % 40;
        if z % 10 < 7 {
            store.put(key, &payload(key, step, ((z >> 20) % 260) as usize)).expect("put");
        } else {
            store.remove(key).expect("remove");
        }
        if step == 120 || step == 200 {
            store.compact().expect("compact");
        }
    }
    // Close on two puts so the newest segment ends in a put record.
    store.put(7, &payload(7, 999, 90)).expect("put");
    store.put(8, &payload(8, 999, 130)).expect("put");
    store.flush().expect("flush");
    drop(store);
    backend
}

/// `(offset, len, kind)` of every record in `bytes`, a clean segment.
fn records(bytes: &[u8]) -> Vec<(u64, u64, RecordKind)> {
    let mut out = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN as usize;
    while offset < bytes.len() {
        let (record, len) = decode_record(&bytes[offset..]).expect("clean segment");
        out.push((offset as u64, len, record.kind));
        offset += len as usize;
    }
    out
}

/// FNV-1a, fed field by field.
struct Digest(u64);

impl Digest {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// Reopen `backend` and fold what recovery produced. Returns whether
    /// the scan repaired a torn tail, or `None` when it refused the device.
    fn eat_reopen(&mut self, backend: &MemBackend, threads: usize, case: &str) -> Option<bool> {
        self.eat(case.as_bytes());
        let opened =
            SegmentStore::open(Arc::new(backend.clone()), cfg(threads), Arc::new(NoStoreFaults));
        let torn = opened.as_ref().ok().map(|(_, report)| report.torn_tail);
        match opened {
            Ok((store, report)) => {
                for v in [
                    report.segments,
                    report.records,
                    report.live_records,
                    u64::from(report.torn_tail),
                    report.truncated_bytes,
                ] {
                    self.eat_u64(v);
                }
                for (key, loc) in store.live_entries() {
                    for v in [key, u64::from(loc.segment), loc.offset, loc.len] {
                        self.eat_u64(v);
                    }
                }
            }
            Err(err) => self.eat(err.to_string().as_bytes()),
        }
        for seg in backend.list().expect("list") {
            let bytes = bytes_of(backend, seg);
            self.eat_u64(u64::from(seg));
            self.eat_u64(bytes.len() as u64);
            self.eat(&bytes);
        }
        torn
    }
}

/// Every case, reopened with `threads` scan threads, folded into one digest.
fn recovery_digest(threads: usize) -> u64 {
    let base = device();
    let segs = base.list().expect("list");
    assert!(segs.len() >= 6, "the churn must roll segments: {segs:?}");
    let newest = *segs.last().expect("segments");
    let tail = bytes_of(&base, newest);
    let &(last_at, last_len, last_kind) = records(&tail).last().expect("newest holds records");
    assert_eq!(last_kind, RecordKind::Put);
    assert!(last_len > HEADER_LEN as u64 + 64, "the last record has a payload to cut into");

    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    assert_eq!(d.eat_reopen(&copy_of(&base), threads, "clean"), Some(false));

    // Cut 1 ..= last_len bytes off the newest segment: every prefix of its
    // last record, from all but one byte of it down to none (a clean log).
    for cut in 1..=last_len {
        let dev = copy_of(&base);
        dev.truncate(newest, tail.len() as u64 - cut).expect("tear");
        let torn = d.eat_reopen(&dev, threads, &format!("cut {cut}"));
        assert_eq!(torn, Some(cut < last_len), "cut {cut}");
    }
    // One bit flipped in each byte of the newest segment's last record: a
    // damaged tail is repaired like a torn one.
    for at in last_at..last_at + last_len {
        let dev = copy_of(&base);
        let mut bytes = tail.clone();
        bytes[at as usize] ^= 1 << (at % 8);
        overwrite(&dev, newest, &bytes);
        assert_eq!(d.eat_reopen(&dev, threads, &format!("tail flip {at}")), Some(true));
    }

    // Mid-log: the second segment, which is not the newest.
    let older = segs[1];
    let old = bytes_of(&base, older);
    let old_records = records(&old);
    let (mid_at, mid_len, _) = old_records[old_records.len() / 2];
    let damaged: [(&str, Vec<u8>); 4] = [
        ("payload bit", {
            let mut b = old.clone();
            b[(mid_at + mid_len - 3) as usize] ^= 0x04;
            b
        }),
        ("header bit", {
            let mut b = old.clone();
            b[(mid_at + 9) as usize] ^= 0x80;
            b
        }),
        ("segment magic", {
            let mut b = old.clone();
            b[1] ^= 0x01;
            b
        }),
        ("cut mid-record", old[..(mid_at + mid_len / 2) as usize].to_vec()),
    ];
    for (what, bytes) in damaged {
        let dev = copy_of(&base);
        overwrite(&dev, older, &bytes);
        assert_eq!(d.eat_reopen(&dev, threads, &format!("mid-log {what}")), None, "{what}");
    }
    d.0
}

#[test]
fn recovery_is_pinned_across_torn_tails_and_mid_log_damage() {
    // Recorded on the whole-segment scan (`read_all` + `walk_records`),
    // before recovery read segments record by record.
    const PINNED: u64 = 0xBE26_E748_1B1F_966F;
    let sequential = recovery_digest(1);
    assert_eq!(recovery_digest(3), sequential, "thread count changed what recovery produced");
    assert_eq!(sequential, PINNED, "{sequential:#018X}");
}
