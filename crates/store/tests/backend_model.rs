//! Both backends against a plain `Vec<u8>` per segment. A seeded stream of
//! `create`, `append_vectored` (empty part lists, empty parts, multi-part
//! lists), `truncate` (at an append boundary, inside an append, past the
//! end) and `delete`, on a handful of segment ids, is applied to the
//! backend and to the model alike. After every step the listing and every
//! segment's length must match, and the segment the step touched must
//! answer `read_into` for *every* `(offset, len)` up to two bytes past its
//! end: the model's bytes when the range fits — across append boundaries
//! included — and an error when it runs past the end, never a short read.
//! `read_lent` is swept the same way: a `MemBackend` lends a range inside
//! one append where it lies and copies one that crosses appends into the
//! scratch buffer, and both must read as the model.

use otae_store::{Backend, FileBackend, MemBackend, SegmentId};
use std::collections::BTreeMap;

/// Segment ids the stream draws from (few, so every op meets both live and
/// missing segments).
const IDS: u64 = 4;
/// Appends stop growing a segment past this; truncates bring it back, so the
/// exhaustive read sweep stays small.
const CAP: usize = 48;

/// Seeded xorshift64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The model: each segment's bytes, and where each append started (the
/// boundaries a truncate can land on).
#[derive(Default)]
struct Model {
    segments: BTreeMap<SegmentId, (Vec<u8>, Vec<usize>)>,
}

fn create(backend: &dyn Backend, seg: SegmentId) -> bool {
    backend.create(seg).is_ok()
}

/// Every `(offset, len)` with `offset + len <= len(seg) + 2`, through one
/// buffer that carries whatever the previous read left in it. An empty read
/// that starts past the end is left out: `FileBackend` answers it with an
/// empty buffer, `MemBackend` with an error, and the store never asks.
fn sweep(backend: &dyn Backend, seg: SegmentId, want: &[u8], why: &str) {
    let mut buf = vec![0xEE; 7];
    for offset in 0..=want.len() + 2 {
        for len in usize::from(offset > want.len())..=want.len() + 2 - offset {
            let got = backend.read_into(seg, offset as u64, len, &mut buf);
            if offset + len <= want.len() {
                got.unwrap_or_else(|e| panic!("{why}: read {offset}+{len}: {e}"));
                assert_eq!(buf, &want[offset..offset + len], "{why}: read {offset}+{len}");
            } else {
                assert!(got.is_err(), "{why}: read {offset}+{len} past end {}", want.len());
            }
        }
    }
}

/// [`sweep`] through `read_lent`, with one scratch buffer carrying whatever
/// the previous fallback copy left in it.
fn sweep_lent(backend: &dyn Backend, seg: SegmentId, want: &[u8], why: &str) {
    let mut scratch = vec![0xEE; 7];
    for offset in 0..=want.len() + 2 {
        for len in usize::from(offset > want.len())..=want.len() + 2 - offset {
            match backend.read_lent(seg, offset as u64, len, &mut scratch) {
                Ok(lent) => {
                    assert!(offset + len <= want.len(), "{why}: lent {offset}+{len} past end");
                    assert_eq!(&*lent, &want[offset..offset + len], "{why}: lent {offset}+{len}");
                }
                Err(e) => {
                    assert!(offset + len > want.len(), "{why}: lent {offset}+{len}: {e}");
                }
            }
        }
    }
}

fn run(backend: &dyn Backend, seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut model = Model::default();
    let mut buf = Vec::new();
    for step in 0..steps {
        let seg = rng.below(IDS) as SegmentId;
        let exists = model.segments.contains_key(&seg);
        let op = rng.below(10);
        let why = format!("seed {seed:#x} step {step} seg {seg} op {op}");
        match op {
            0 => {
                assert_eq!(create(backend, seg), !exists, "{why}: create");
                model.segments.entry(seg).or_default();
            }
            1..=5 => {
                // 0..5 parts of 0..9 bytes; every fifth part empty.
                let parts: Vec<Vec<u8>> = (0..rng.below(5))
                    .map(|_| {
                        let len = if rng.below(5) == 0 { 0 } else { rng.below(9) as usize };
                        (0..len).map(|_| rng.next() as u8).collect()
                    })
                    .collect();
                let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                let full = model.segments.get(&seg).is_some_and(|(b, _)| b.len() >= CAP);
                if full {
                    continue;
                }
                let got = backend.append_vectored(seg, &slices);
                assert_eq!(got.is_ok(), exists, "{why}: append");
                if let Some((bytes, starts)) = model.segments.get_mut(&seg) {
                    starts.push(bytes.len());
                    bytes.extend(parts.concat());
                }
            }
            6..=7 => {
                let at = match model.segments.get(&seg) {
                    None => rng.below(8) as usize,
                    Some((bytes, starts)) => match rng.below(3) {
                        // At an append boundary (the first one is 0).
                        0 => starts
                            .get(rng.below(starts.len() as u64 + 1) as usize)
                            .map_or(0, |&s| s),
                        // Anywhere inside the segment, mostly mid-append.
                        1 => rng.below(bytes.len() as u64 + 1) as usize,
                        // Past the end: a no-op.
                        _ => bytes.len() + 1 + rng.below(5) as usize,
                    },
                };
                let got = backend.truncate(seg, at as u64);
                assert_eq!(got.is_ok(), exists, "{why}: truncate to {at}");
                if let Some((bytes, starts)) = model.segments.get_mut(&seg) {
                    bytes.truncate(at);
                    starts.retain(|&s| s < bytes.len());
                }
            }
            8 => {
                assert_eq!(backend.delete(seg).is_ok(), exists, "{why}: delete");
                model.segments.remove(&seg);
            }
            _ => {
                // A read of a missing segment, or of nothing at its end.
                let len = model.segments.get(&seg).map(|(b, _)| b.len() as u64);
                let got = backend.read_into(seg, len.unwrap_or(0), 0, &mut buf);
                assert_eq!(got.is_ok(), len.is_some(), "{why}: empty read at the end");
            }
        }
        let ids: Vec<SegmentId> = model.segments.keys().copied().collect();
        assert_eq!(backend.list().expect("list"), ids, "{why}: list");
        for (&id, (bytes, _)) in &model.segments {
            assert_eq!(backend.len(id).expect("len"), bytes.len() as u64, "{why}: len of {id}");
        }
        match model.segments.get(&seg) {
            Some((bytes, _)) => {
                sweep(backend, seg, bytes, &why);
                sweep_lent(backend, seg, bytes, &why);
            }
            None => {
                assert!(backend.len(seg).is_err(), "{why}: len of a missing segment");
                assert!(backend.read_into(seg, 0, 0, &mut buf).is_err(), "{why}: missing read");
                assert!(backend.read_lent(seg, 0, 0, &mut buf).is_err(), "{why}: missing lend");
            }
        }
    }
}

const SEEDS: [u64; 3] = [0x5EED_0001, 0xB0B5_CAFE_0042, 0x0DD_BA11_7777];

#[test]
fn mem_backend_matches_the_model() {
    for seed in SEEDS {
        run(&MemBackend::new(), seed, 400);
    }
}

#[test]
fn file_backend_matches_the_model() {
    for seed in SEEDS {
        let dir =
            std::env::temp_dir().join(format!("otae-store-model-{}-{seed:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run(&FileBackend::new(&dir).expect("file backend"), seed, 150);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
