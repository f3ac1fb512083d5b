//! Compaction held to the byte. A seeded put / overwrite / remove churn
//! over small segments, with explicit `compact()` passes at fixed points
//! (auto-compaction off, so the schedule is the test's), drives dozens of
//! victims of every shape through the collector — fully dead, about a
//! tenth live, fully live, tombstones only, tombstones that still shadow a
//! put elsewhere — and one digest pins everything a pass produces: its
//! report, the bytes of every segment afterwards, the live index, and the
//! GC counters at the end.
//!
//! Then what a pass reads and what it vouches for, on a victim whose
//! layout the tests know: every header and the records it carries forward
//! — counted to the byte by `CompactReport::read_bytes` — are verified
//! before anything is staged from them; the payloads of records it is
//! about to delete are not looked at.

use otae_store::{
    decode_record, Backend, CompactReport, Location, MemBackend, NoStoreFaults, RecordKind,
    SegmentId, SegmentStore, StoreConfig, StoreError, HEADER_LEN, SEGMENT_HEADER_LEN,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn cfg(segment_bytes: u64) -> StoreConfig {
    StoreConfig {
        segment_bytes,
        queue_depth: 16,
        compact_trigger: None,
        group_records: 8,
        ..StoreConfig::default()
    }
}

fn open(backend: &MemBackend, cfg: StoreConfig) -> SegmentStore {
    SegmentStore::open(Arc::new(backend.clone()), cfg, Arc::new(NoStoreFaults)).expect("open").0
}

fn payload(key: u64, version: u64, len: usize) -> Vec<u8> {
    let word = (key ^ version.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
    (0..len).map(|i| word[i % 8] ^ (i / 8) as u8).collect()
}

/// A segment's bytes, read back through the positioned read.
fn bytes_of(backend: &MemBackend, seg: SegmentId) -> Vec<u8> {
    let mut bytes = Vec::new();
    let len = backend.len(seg).expect("len") as usize;
    backend.read_into(seg, 0, len, &mut bytes).expect("read segment");
    bytes
}

/// FNV-1a, fed field by field.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// Every segment's id, length and bytes in id order, then the live
    /// index in key order.
    fn eat_store(&mut self, backend: &MemBackend, store: &SegmentStore) {
        for seg in backend.list().expect("list") {
            let bytes = bytes_of(backend, seg);
            self.eat_u64(u64::from(seg));
            self.eat_u64(bytes.len() as u64);
            self.eat(&bytes);
        }
        for (key, Location { segment, offset, len }) in store.live_entries() {
            for v in [key, u64::from(segment), offset, len] {
                self.eat_u64(v);
            }
        }
    }
}

/// `(key, kind, offset, len)` of every record in `seg`, by decoding its
/// bytes front to back.
fn records_of(backend: &MemBackend, seg: SegmentId) -> Vec<(u64, RecordKind, u64, u64)> {
    let bytes = bytes_of(backend, seg);
    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    while (offset as usize) < bytes.len() {
        let (record, len) = decode_record(&bytes[offset as usize..]).expect("clean segment");
        records.push((record.key, record.kind, offset, len));
        offset += len;
    }
    records
}

/// How many victims of each shape the passes met.
#[derive(Debug, Default)]
struct Shapes {
    fully_dead: u32,
    tenth_live: u32,
    fully_live: u32,
    tombstones_only: u32,
    shadowing_tombstone_kept: u32,
    tombstone_dropped: u32,
}

struct Pinned<'a> {
    backend: &'a MemBackend,
    store: &'a SegmentStore,
    digest: Digest,
    shapes: Shapes,
    victims: u32,
}

impl Pinned<'_> {
    /// One explicit pass: classify the victim from the device as it was
    /// before the pass, then fold the report and the whole store into the
    /// digest.
    fn compact(&mut self) -> CompactReport {
        self.store.flush().expect("flush");
        let before: BTreeMap<SegmentId, Vec<_>> = (self.backend.list().expect("list").into_iter())
            .map(|seg| (seg, records_of(self.backend, seg)))
            .collect();
        let live: BTreeMap<u64, Location> = self.store.live_entries().into_iter().collect();

        let report = self.store.compact().expect("compact");
        let Some(victim) = report.victim else { return report };
        self.victims += 1;
        let records = &before[&victim];
        let is_put = |r: &&(u64, RecordKind, u64, u64)| r.1 == RecordKind::Put;
        let puts = records.iter().filter(is_put).count() as u64;
        let tombstones = records.len() as u64 - puts;
        let live_puts = (records.iter().filter(is_put))
            .filter(|&&(key, _, offset, len)| {
                live.get(&key) == Some(&Location { segment: victim, offset, len })
            })
            .count() as u64;
        let kept_tombstones = report.rewritten_records - live_puts;
        let s = &mut self.shapes;
        s.fully_dead += u32::from(puts > 0 && live_puts == 0);
        s.tenth_live += u32::from(live_puts > 0 && live_puts * 6 <= puts);
        s.fully_live += u32::from(tombstones == 0 && live_puts == puts);
        s.tombstones_only += u32::from(puts == 0 && tombstones > 0);
        s.shadowing_tombstone_kept += u32::from(kept_tombstones > 0);
        s.tombstone_dropped += u32::from(kept_tombstones < tombstones);

        let file_len: u64 = SEGMENT_HEADER_LEN + records.iter().map(|&(.., len)| len).sum::<u64>();
        assert_eq!(report.reclaimed_bytes, file_len - report.rewritten_bytes);
        assert!(!self.backend.list().expect("list").contains(&victim), "victim deleted");
        for v in [
            u64::from(victim),
            report.rewritten_bytes,
            report.rewritten_records,
            report.reclaimed_bytes,
        ] {
            self.digest.eat_u64(v);
        }
        self.digest.eat_store(self.backend, self.store);
        report
    }
}

#[test]
fn compaction_output_is_pinned_across_victim_shapes() {
    // Recorded on the whole-segment compactor (`read_all` + a full
    // `walk_records` per victim), before `compact_once` learned to read
    // only the headers and the records it rewrites.
    const PINNED: u64 = 0x2746_608D_5D75_DD76;

    let backend = MemBackend::new();
    let store = open(&backend, cfg(2_000));
    let mut p = Pinned {
        backend: &backend,
        store: &store,
        digest: Digest::new(),
        shapes: Shapes::default(),
        victims: 0,
    };
    let mut z = 0x0C0F_FEE5_EED5_EED5_u64;
    let mut next = move || {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        z
    };
    let put = |key: u64, version: u64, len: usize| {
        store.put(key, &payload(key, version, len)).expect("put");
    };

    // Churn: puts of 0..300 bytes and removes over 48 keys, a pass every
    // 50 steps. Victims here are mixed, and removes whose put sits in a
    // segment that outlives the tombstone's make shadowing tombstones.
    for step in 0..400u64 {
        let z = next();
        let key = (z >> 8) % 48;
        if z % 10 < 6 {
            put(key, step, ((z >> 20) % 300) as usize);
        } else {
            store.remove(key).expect("remove");
        }
        if step % 50 == 49 {
            p.compact();
        }
    }
    // Two segments of keys written once and then all overwritten: fully
    // dead victims.
    for version in 0..2 {
        for key in 100..124 {
            put(key, version, 150 - 70 * version as usize);
        }
    }
    for _ in 0..3 {
        p.compact();
    }
    // Five segments of which every tenth key survives an overwrite.
    for key in 200..260 {
        put(key, 0, 140);
    }
    for key in (200..260).filter(|k| k % 10 != 0) {
        put(key, 1, 20 + (next() % 60) as usize);
    }
    for _ in 0..5 {
        p.compact();
    }
    // A run of removes long enough to fill segments with nothing else: of
    // keys that exist, and of keys that never did (droppable at once).
    for key in (0..48).chain(1_000..1_250) {
        store.remove(key).expect("remove");
    }
    for key in 300..306 {
        put(key, 0, 250);
    }
    for _ in 0..5 {
        p.compact();
    }
    // Nothing dead is left among the oldest: the deadest segment is now a
    // fully live one, and each pass carries a whole segment forward.
    for key in 400..460 {
        put(key, 0, 100 + (next() % 100) as usize);
    }
    for _ in 0..24 {
        p.compact();
    }

    let stats = store.stats();
    for v in [stats.gc_bytes, stats.rewritten_records, stats.segments_deleted] {
        p.digest.eat_u64(v);
    }
    assert!(p.victims >= 36, "dozens of victims: {}", p.victims);
    assert_eq!(u64::from(p.victims), stats.segments_deleted);
    let s = &p.shapes;
    for (shape, n) in [
        ("fully dead", s.fully_dead),
        ("about a tenth live", s.tenth_live),
        ("fully live", s.fully_live),
        ("tombstones only", s.tombstones_only),
        ("shadowing tombstone kept", s.shadowing_tombstone_kept),
        ("tombstone dropped", s.tombstone_dropped),
    ] {
        assert!(n >= 2, "victim shape `{shape}` met {n} times: {s:?}");
    }
    assert_eq!(p.digest.0, PINNED, "{s:?}, {} victims", p.victims);
}

/// `(key, kind, offset, len)`.
type Meta = (u64, RecordKind, u64, u64);

/// A store over two segments. Sealed segment 0, the only possible victim,
/// holds thirteen 161-byte puts of keys 0..13 with two tombstones (of keys
/// never put) among them; keys 0, 4, 8 and 12 are still live there, and
/// the active segment 1 holds the overwrites of the other nine.
struct Victim {
    backend: MemBackend,
    store: SegmentStore,
    /// Segment 0's records in file order.
    records: Vec<Meta>,
    /// Those of them the index points at.
    live: Vec<Meta>,
}

fn latest(key: u64) -> Vec<u8> {
    if key.is_multiple_of(4) {
        payload(key, 0, 140)
    } else {
        payload(key, 1, 60)
    }
}

fn victim() -> Victim {
    let backend = MemBackend::new();
    let store = open(&backend, cfg(2_000));
    for key in 0..13 {
        store.put(key, &payload(key, 0, 140)).expect("put");
        if key == 5 || key == 9 {
            store.remove(50 + key).expect("remove");
        }
    }
    for key in (0..13).filter(|k| k % 4 != 0) {
        store.put(key, &latest(key)).expect("put");
    }
    store.flush().expect("flush");
    assert_eq!(backend.list().expect("list"), [0, 1], "one sealed segment, one active");
    let records = records_of(&backend, 0);
    assert_eq!(records.len(), 15);
    let index: BTreeMap<u64, Location> = store.live_entries().into_iter().collect();
    let live: Vec<Meta> = (records.iter().copied())
        .filter(|&(key, kind, offset, len)| {
            kind == RecordKind::Put && index[&key] == Location { segment: 0, offset, len }
        })
        .collect();
    assert_eq!(live.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 4, 8, 12]);
    Victim { backend, store, records, live }
}

impl Victim {
    /// Flip one bit of segment 0's byte `at`, behind the open store's back.
    fn flip(&self, at: u64) {
        let mut bytes = bytes_of(&self.backend, 0);
        bytes[at as usize] ^= 0x10;
        self.backend.truncate(0, 0).expect("truncate");
        self.backend.append(0, &bytes).expect("append");
    }

    /// A pass that must fail as `Corrupt` and leave the victim in place.
    /// Returns the GC bytes that landed once the group it left is flushed.
    fn compact_must_fail(&self, why: &str) -> u64 {
        let err = self.store.compact().expect_err(why);
        assert!(matches!(err, StoreError::Corrupt(_)), "{why}: {err:?}");
        self.store.flush().expect("a failed explicit pass leaves the writer running");
        assert_eq!(self.backend.list().expect("list"), [0, 1], "{why}: the victim stays");
        let stats = self.store.stats();
        assert_eq!((stats.compactions, stats.segments_deleted), (0, 0), "{why}");
        stats.gc_bytes
    }
}

#[test]
fn a_pass_reads_every_header_and_only_the_records_it_rewrites() {
    let v = victim();
    let headers = |records: usize| SEGMENT_HEADER_LEN + (HEADER_LEN * records) as u64;
    let live_bytes: u64 = v.live.iter().map(|r| r.3).sum();
    let first = v.store.compact().expect("compact");
    assert_eq!((first.victim, first.rewritten_records), (Some(0), 4));
    assert_eq!(first.rewritten_bytes, live_bytes);
    // 965 bytes of a 2 141-byte victim.
    assert_eq!(first.read_bytes, headers(15) + live_bytes);
    assert!(first.read_bytes < (first.rewritten_bytes + first.reclaimed_bytes) / 2);

    // Two more rounds of overwrites leave segment 1 sealed and wholly
    // dead: a pass over it reads headers and nothing else.
    for version in 2..4 {
        for key in 0..13 {
            v.store.put(key, &payload(key, version, 140)).expect("put");
        }
    }
    v.store.flush().expect("flush");
    let dead = records_of(&v.backend, 1).len();
    let second = v.store.compact().expect("compact");
    assert_eq!((second.victim, second.rewritten_records), (Some(1), 0));
    assert_eq!(second.read_bytes, headers(dead));
    assert_eq!(v.store.stats().gc_read_bytes, first.read_bytes + second.read_bytes);
}

#[test]
fn a_flipped_payload_bit_in_a_live_record_fails_the_pass_before_that_record_is_staged() {
    let v = victim();
    let (first, _, _, first_len) = v.live[0];
    let (key, _, offset, len) = v.live[1];
    v.flip(offset + HEADER_LEN as u64 + 7);
    let landed = v.compact_must_fail("a live record's payload checksum must be verified");

    let index: BTreeMap<u64, Location> = v.store.live_entries().into_iter().collect();
    // The corrupt record was not carried forward: its key still resolves
    // to the victim, where a read reports the damage.
    assert_eq!(index[&key], Location { segment: 0, offset, len });
    assert!(matches!(v.store.get(key), Err(StoreError::Corrupt(_))));
    // The live record ahead of it was verified and staged before the pass
    // failed, and landed as a valid copy; nothing behind it was touched.
    assert_eq!(landed, first_len);
    assert_eq!(index[&first].segment, 1);
    for &(later, _, offset, len) in &v.live[2..] {
        assert_eq!(index[&later], Location { segment: 0, offset, len });
    }
    for key in (0..13).filter(|&k| k != key) {
        assert_eq!(v.store.get(key).expect("get").expect("present"), latest(key), "key {key}");
    }
}

#[test]
fn a_flipped_header_bit_in_any_record_fails_the_pass_before_anything_is_staged() {
    let records = victim().records;
    for (i, &(_, kind, offset, _)) in records.iter().enumerate() {
        // A bit of the key, the length, the kind, the payload checksum,
        // the header checksum — of dead puts, live puts and tombstones.
        for byte in [0, 9, 12, 14, 19] {
            let v = victim();
            let before = v.store.live_entries();
            v.flip(offset + byte);
            let why = format!("record {i} ({kind:?}), header byte {byte}");
            assert_eq!(v.compact_must_fail(&why), 0, "{why}: nothing may be staged");
            assert_eq!(v.store.live_entries(), before, "{why}");
        }
    }
}

#[test]
fn a_victim_cut_short_fails_the_pass() {
    let (_, _, last_offset, last_len) = *victim().records.last().expect("records");
    // Inside the last record's payload, inside its header, inside the
    // segment header.
    for keep in [last_offset + last_len - 5, last_offset + 10, 3] {
        let v = victim();
        let before = v.store.live_entries();
        v.backend.truncate(0, keep).expect("truncate");
        let why = format!("victim cut to {keep} bytes");
        assert_eq!(v.compact_must_fail(&why), 0, "{why}: nothing may be staged");
        assert_eq!(v.store.live_entries(), before, "{why}");
    }
}

#[test]
fn a_flipped_payload_bit_in_a_dead_record_is_deleted_with_the_segment() {
    let v = victim();
    let &(key, _, offset, _) = (v.records.iter())
        .find(|r| r.1 == RecordKind::Put && !v.live.contains(r))
        .expect("a dead put");
    v.flip(offset + HEADER_LEN as u64 + 7);
    // Garbage is not read, so damage to it cannot fail the pass...
    let report = v.store.compact().expect("a pass over damaged garbage succeeds");
    assert_eq!((report.victim, report.rewritten_records), (Some(0), 4));
    assert!(!v.store.is_crashed());
    for key in 0..13 {
        assert_eq!(v.store.get(key).expect("get").expect("present"), latest(key), "key {key}");
    }
    // ... and the damage is gone with the victim: the device scans clean.
    let entries = v.store.live_entries();
    drop(v.store);
    let (reopened, recovery) =
        SegmentStore::open(Arc::new(v.backend.clone()), cfg(2_000), Arc::new(NoStoreFaults))
            .expect("reopen");
    assert!(!recovery.torn_tail);
    assert_eq!(reopened.live_entries(), entries);
    assert_eq!(reopened.get(key).expect("get").expect("present"), latest(key));
}
