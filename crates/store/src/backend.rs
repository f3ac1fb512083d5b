//! Segment storage backends: where segment bytes physically live.
//!
//! Two implementations ship:
//!
//! - [`FileBackend`] — real files under a root directory, hash-prefixed
//!   into 256 subdirectories (`<root>/<xx>/seg-<id>.seg`) so a large store
//!   never piles every segment into one directory.
//! - [`MemBackend`] — an `Arc`-shared in-memory device with identical
//!   semantics. Because the bytes live in the shared handle rather than the
//!   [`SegmentStore`](crate::SegmentStore), a harness can "crash" a store
//!   (drop it mid-write) and reopen the same backend to exercise the
//!   recovery scan deterministically, with no filesystem, wall clock, or
//!   entropy involved.
//!
//! A `MemBackend` segment is the list of its appends, each an immutable,
//! exactly-sized, shared chunk built *before* the device lock is taken;
//! under the lock an append only pushes its chunk, and a read only checks
//! its range and clones the handles of the chunk(s) covering it. So no
//! reader waits for a write group's `memcpy`, no writer waits for a
//! reader's, and the device needs no notion of an active segment.
//!
//! Reads are lent. [`Backend::read_lent`] hands out the bytes of a range
//! where they lie: a `MemBackend` range inside one append (every record,
//! since a record never spans two appends) is its chunk, kept alive by the
//! handle, so the caller verifies and copies it straight from the device.
//! Bytes are copied into the caller's scratch buffer only at the fallback:
//! a range that crosses appends, and every [`FileBackend`] read, whose
//! positioned read into the scratch buffer is already its one copy.

use crate::handles::HandleCache;
use crate::StoreError;
use otae_fxhash::FxHashMap;
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{IoSlice, Write};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

/// Identifier of one segment file (monotonically increasing).
pub type SegmentId = u32;

/// Byte-level operations on segment files. Implementations must be safe to
/// call concurrently (append from the writer thread, reads from shard
/// threads).
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Create an empty segment. Fails if it already exists.
    fn create(&self, seg: SegmentId) -> Result<(), StoreError>;
    /// Append bytes to a segment's tail.
    fn append(&self, seg: SegmentId, data: &[u8]) -> Result<(), StoreError> {
        self.append_vectored(seg, &[data])
    }
    /// Append the concatenation of `parts` to a segment's tail as one
    /// append: no other append to the segment lands between two parts. A
    /// write group lands through this, each part a record (or run of
    /// records) where it already sits in memory; empty parts are allowed.
    fn append_vectored(&self, seg: SegmentId, parts: &[&[u8]]) -> Result<(), StoreError>;
    /// Read `len` bytes at `offset` into `buf`, replacing its contents and
    /// keeping its allocation: a copy the caller owns. The store reads
    /// headers through it; records are read through
    /// [`read_lent`](Backend::read_lent). A range that runs past the
    /// segment's end is an error, never a short read.
    fn read_into(
        &self,
        seg: SegmentId,
        offset: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError>;
    /// The `len` bytes at `offset`, lent: the read under every `get`, every
    /// record compaction rewrites and every record the recovery scan
    /// verifies. A backend that can lend the range where it lies does; the
    /// default copies it into `scratch` with [`read_into`](Backend::read_into)
    /// and lends that. The bytes stay as read for as long as the [`Lent`]
    /// lives, whatever happens to the segment meanwhile, and holding it
    /// holds no lock. Errors as `read_into`.
    fn read_lent<'s>(
        &self,
        seg: SegmentId,
        offset: u64,
        len: usize,
        scratch: &'s mut Vec<u8>,
    ) -> Result<Lent<'s>, StoreError> {
        self.read_into(seg, offset, len, scratch)?;
        Ok(Lent(Lending::Scratch(scratch)))
    }
    /// Current length of a segment in bytes.
    fn len(&self, seg: SegmentId) -> Result<u64, StoreError>;
    /// Truncate a segment to `len` bytes (recovery repair, fault injection).
    fn truncate(&self, seg: SegmentId, len: u64) -> Result<(), StoreError>;
    /// Delete a segment (compaction reclaim).
    fn delete(&self, seg: SegmentId) -> Result<(), StoreError>;
    /// All existing segment ids, sorted ascending.
    fn list(&self) -> Result<Vec<SegmentId>, StoreError>;
}

/// Bytes lent by [`Backend::read_lent`]; derefs to them.
pub struct Lent<'s>(Lending<'s>);

enum Lending<'s> {
    /// Copied into the caller's scratch buffer.
    Scratch(&'s [u8]),
    /// `bytes[from..to]` of a `MemBackend` chunk, where the append left it.
    Chunk { bytes: Arc<Vec<u8>>, from: usize, to: usize },
}

impl Deref for Lent<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Lending::Scratch(bytes) => bytes,
            Lending::Chunk { bytes, from, to } => &bytes[*from..*to],
        }
    }
}

/// In-memory backend; clone the handle to share the same "device".
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    segments: Arc<Mutex<FxHashMap<SegmentId, Segment>>>,
}

/// One append as it landed: where it starts in its segment, and exactly its
/// bytes, shared with every reader they are lent to. Never written again
/// once pushed; only a truncate may shorten or drop it, and shortening a
/// chunk that is lent out copies it first, so the reader keeps its bytes.
#[derive(Debug, Clone)]
struct Chunk {
    start: u64,
    bytes: Arc<Vec<u8>>,
}

impl Chunk {
    fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }
}

/// A [`MemBackend`] segment: its non-empty appends in offset order, each
/// starting where the one before it ends.
#[derive(Debug, Default)]
struct Segment {
    chunks: Vec<Chunk>,
}

impl Segment {
    fn len(&self) -> u64 {
        self.chunks.last().map_or(0, Chunk::end)
    }

    /// The chunks holding the segment's bytes `offset..end`; `end` is
    /// within the segment. Empty for an empty range at a chunk boundary.
    fn covering(&self, offset: u64, end: u64) -> &[Chunk] {
        let first = self.chunks.partition_point(|c| c.end() <= offset);
        let last = first + self.chunks[first..].partition_point(|c| c.start < end);
        &self.chunks[first..last]
    }

    /// Cut the segment to `len` bytes; a longer `len` is a no-op.
    fn truncate(&mut self, len: u64) {
        self.chunks.truncate(self.chunks.partition_point(|c| c.start < len));
        if let Some(last) = self.chunks.last_mut() {
            let keep = usize::try_from(len - last.start).unwrap_or(usize::MAX);
            if keep < last.bytes.len() {
                match Arc::get_mut(&mut last.bytes) {
                    Some(bytes) => bytes.truncate(keep),
                    None => last.bytes = Arc::new(last.bytes[..keep].to_vec()),
                }
            }
        }
    }
}

impl MemBackend {
    /// Fresh empty device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes across all segments (test/diagnostic helper).
    pub fn total_bytes(&self) -> u64 {
        self.segments.lock().values().map(Segment::len).sum()
    }
}

impl Backend for MemBackend {
    fn create(&self, seg: SegmentId) -> Result<(), StoreError> {
        let mut map = self.segments.lock();
        if map.contains_key(&seg) {
            return Err(StoreError::Corrupt(format!("segment {seg} already exists")));
        }
        map.insert(seg, Segment::default());
        Ok(())
    }

    fn append_vectored(&self, seg: SegmentId, parts: &[&[u8]]) -> Result<(), StoreError> {
        // The copy, into one exactly-sized chunk, happens before the lock;
        // under it the append is a push.
        let bytes = Arc::new(parts.concat());
        let mut map = self.segments.lock();
        let segment = map.get_mut(&seg).ok_or(StoreError::MissingSegment(seg))?;
        if !bytes.is_empty() {
            let start = segment.len();
            segment.chunks.push(Chunk { start, bytes });
        }
        Ok(())
    }

    fn read_into(
        &self,
        seg: SegmentId,
        offset: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        // A lend of scratch is already in `buf`.
        let Lending::Chunk { bytes, from, to } = self.read_lent(seg, offset, len, buf)?.0 else {
            return Ok(());
        };
        buf.clear();
        buf.extend_from_slice(&bytes[from..to]);
        Ok(())
    }

    fn read_lent<'s>(
        &self,
        seg: SegmentId,
        offset: u64,
        len: usize,
        scratch: &'s mut Vec<u8>,
    ) -> Result<Lent<'s>, StoreError> {
        let end = offset
            .checked_add(len as u64)
            .ok_or_else(|| StoreError::Corrupt("read range overflows".into()))?;
        // Under the lock: the range check and a clone of the handle(s) of
        // the chunk(s) holding the range, nothing else.
        let chunks = {
            let map = self.segments.lock();
            let segment = map.get(&seg).ok_or(StoreError::MissingSegment(seg))?;
            if end > segment.len() {
                return Err(StoreError::Corrupt(format!(
                    "read past end of segment {seg}: {end} > {}",
                    segment.len()
                )));
            }
            match segment.covering(offset, end) {
                [chunk] => {
                    let from = (offset - chunk.start) as usize;
                    let bytes = Arc::clone(&chunk.bytes);
                    return Ok(Lent(Lending::Chunk { bytes, from, to: from + len }));
                }
                chunks => chunks.to_vec(),
            }
        };
        // A range across appends (or empty at a boundary): copied.
        scratch.clear();
        for chunk in &chunks {
            let from = offset.max(chunk.start) - chunk.start;
            let to = end.min(chunk.end()) - chunk.start;
            scratch.extend_from_slice(&chunk.bytes[from as usize..to as usize]);
        }
        Ok(Lent(Lending::Scratch(scratch)))
    }

    fn len(&self, seg: SegmentId) -> Result<u64, StoreError> {
        let map = self.segments.lock();
        map.get(&seg).map(Segment::len).ok_or(StoreError::MissingSegment(seg))
    }

    fn truncate(&self, seg: SegmentId, len: u64) -> Result<(), StoreError> {
        let mut map = self.segments.lock();
        map.get_mut(&seg).ok_or(StoreError::MissingSegment(seg))?.truncate(len);
        Ok(())
    }

    fn delete(&self, seg: SegmentId) -> Result<(), StoreError> {
        // Out of the map under the lock; its chunks are freed after it, or
        // when the last lend of each drops.
        let removed = self.segments.lock().remove(&seg);
        removed.map(drop).ok_or(StoreError::MissingSegment(seg))
    }

    fn list(&self) -> Result<Vec<SegmentId>, StoreError> {
        let map = self.segments.lock();
        let mut ids: Vec<SegmentId> = map.keys().copied().collect();
        ids.sort_unstable();
        Ok(ids)
    }
}

/// Real-file backend rooted at a directory, with segments hash-prefixed
/// into 256 two-hex-digit subdirectories. Hot paths run over cached
/// per-segment handles: reads are positioned (`pread`-style, no seek
/// syscall, no shared cursor) and appends reuse one `O_APPEND` handle
/// instead of reopening the file per write group.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    handles: HandleCache,
}

/// Most slices handed to one `write_vectored` call — Linux's `IOV_MAX`.
/// (std clamps the list to the platform's own limit as well, so a smaller
/// limit elsewhere only means more rounds of the drain loop.)
const MAX_IOV: usize = 1024;

/// Cap on distinct segments with cached handles; beyond this the cache
/// resets wholesale (segment populations stay far below this in practice).
const MAX_CACHED_SEGMENTS: usize = 256;

/// Positioned read of exactly `buf.len()` bytes at `offset`, leaving the
/// handle's cursor untouched so concurrent readers never interleave.
#[cfg(unix)]
fn pread_exact(f: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset)
}

/// Portable fallback: seek + read on a borrowed handle. Only reached off
/// unix; the store's `io` lock already serializes reads against segment
/// deletion, and `&File` reads are independent per call.
#[cfg(not(unix))]
fn pread_exact(f: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = f;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// SplitMix64 finalizer — the same mix the serve layer shards with, reused
/// here to spread sequential segment ids across prefix directories.
fn mix(z: u64) -> u64 {
    let mut z = z;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FileBackend {
    /// Open (creating the root directory if needed).
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root, handles: HandleCache::new(MAX_CACHED_SEGMENTS) })
    }

    /// Root directory of this backend.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path_of(&self, seg: SegmentId) -> PathBuf {
        let prefix = (mix(seg as u64) & 0xFF) as u8;
        self.root.join(format!("{prefix:02x}")).join(format!("seg-{seg:08}.seg"))
    }

    fn open_existing(&self, seg: SegmentId) -> Result<File, StoreError> {
        match File::open(self.path_of(seg)) {
            Ok(f) => Ok(f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::MissingSegment(seg))
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    fn open_append(&self, seg: SegmentId) -> Result<File, StoreError> {
        match OpenOptions::new().append(true).open(self.path_of(seg)) {
            Ok(f) => Ok(f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::MissingSegment(seg))
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

impl Backend for FileBackend {
    fn create(&self, seg: SegmentId) -> Result<(), StoreError> {
        let path = self.path_of(seg);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        // A fresh segment id must never serve bytes through handles cached
        // for a previously deleted incarnation.
        self.handles.invalidate(seg);
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(StoreError::Corrupt(format!("segment {seg} already exists")))
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    fn append_vectored(&self, seg: SegmentId, parts: &[&[u8]]) -> Result<(), StoreError> {
        let f = self.handles.append_handle(seg, || self.open_append(seg))?;
        // O_APPEND positions every write at the tail, so the shared handle
        // needs no cursor management. One `writev` takes at most `MAX_IOV`
        // parts and may write fewer bytes than offered, so loop until the
        // list is drained; empty parts are dropped first, or a list of
        // nothing but them would read as a zero-length write.
        let mut slices: Vec<IoSlice<'_>> =
            parts.iter().filter(|p| !p.is_empty()).map(|p| IoSlice::new(p)).collect();
        let mut rest = &mut slices[..];
        while !rest.is_empty() {
            let batch = &rest[..rest.len().min(MAX_IOV)];
            match (&*f).write_vectored(batch) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn read_into(
        &self,
        seg: SegmentId,
        offset: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let f = self.handles.read_handle(seg, || self.open_existing(seg))?;
        if buf.len() < len {
            buf.resize(len, 0);
        } else {
            buf.truncate(len);
        }
        pread_exact(&f, offset, buf)?;
        Ok(())
    }

    fn len(&self, seg: SegmentId) -> Result<u64, StoreError> {
        let f = self.handles.read_handle(seg, || self.open_existing(seg))?;
        Ok(f.metadata()?.len())
    }

    fn truncate(&self, seg: SegmentId, len: u64) -> Result<(), StoreError> {
        let path = self.path_of(seg);
        let f = match OpenOptions::new().write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingSegment(seg))
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        if f.metadata()?.len() > len {
            f.set_len(len)?;
        }
        Ok(())
    }

    fn delete(&self, seg: SegmentId) -> Result<(), StoreError> {
        // Drop cached handles first so no later lookup revives the dead
        // segment through a stale `Arc<File>`.
        self.handles.invalidate(seg);
        match fs::remove_file(self.path_of(seg)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::MissingSegment(seg))
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    fn list(&self) -> Result<Vec<SegmentId>, StoreError> {
        let mut ids = Vec::new();
        for prefix in fs::read_dir(&self.root)? {
            let prefix = prefix?;
            if !prefix.file_type()?.is_dir() {
                continue;
            }
            for entry in fs::read_dir(prefix.path())? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(id) = name.strip_prefix("seg-").and_then(|n| n.strip_suffix(".seg"))
                else {
                    continue;
                };
                // Only the one file `path_of(id)` names is segment `id`: a
                // name that merely parses to it (`seg-0.seg`, `seg-+1.seg`)
                // or sits in another prefix directory is a stray, which
                // would otherwise be listed (and scanned) twice, or list a
                // segment that `open` cannot find.
                match id.parse::<SegmentId>() {
                    Ok(id) if entry.path() == self.path_of(id) => ids.push(id),
                    _ => {}
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{NoStoreFaults, SegmentStore, StoreConfig};
    use crossbeam::channel::bounded;

    /// Run `f` on a thread of its own and fail — instead of hanging the
    /// test binary — if it has not finished within a minute.
    pub(crate) fn with_watchdog(f: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = bounded::<()>(1);
        let worker = std::thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => worker.join().expect("test thread"),
            Err(_) if worker.is_finished() => {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            Err(_) => panic!("no progress in 60 s (a caller or the writer never woke)"),
        }
    }

    fn read_whole(backend: &dyn Backend, seg: SegmentId) -> Vec<u8> {
        let mut buf = Vec::new();
        backend.read_into(seg, 0, backend.len(seg).unwrap() as usize, &mut buf).unwrap();
        buf
    }

    fn exercise(backend: &dyn Backend) {
        backend.create(3).unwrap();
        assert!(backend.create(3).is_err(), "double create must fail");
        backend.append(3, b"hello ").unwrap();
        backend.append(3, b"world").unwrap();
        assert_eq!(backend.len(3).unwrap(), 11);
        // A longer buffer with stale contents comes back holding exactly
        // the range asked for.
        let mut buf = b"stale bytes, longer than the read".to_vec();
        backend.read_into(3, 6, 5, &mut buf).unwrap();
        assert_eq!(buf, b"world");
        backend.read_into(3, 0, 11, &mut buf).unwrap();
        assert_eq!(buf, b"hello world");
        backend.read_into(3, 11, 0, &mut buf).unwrap();
        assert!(buf.is_empty(), "an empty read at the very end is legal");
        assert!(backend.read_into(3, 8, 10, &mut buf).is_err(), "read past end must fail");
        assert!(backend.read_into(4, 0, 1, &mut buf).is_err(), "missing segment must fail");

        backend.create(1).unwrap();
        backend.create(10).unwrap();
        assert_eq!(backend.list().unwrap(), vec![1, 3, 10]);

        backend.truncate(3, 5).unwrap();
        assert_eq!(read_whole(backend, 3), b"hello");
        backend.truncate(3, 100).unwrap(); // growing truncate is a no-op
        assert_eq!(backend.len(3).unwrap(), 5);

        backend.delete(1).unwrap();
        assert!(backend.delete(1).is_err());
        assert!(backend.append(1, b"x").is_err());
        assert_eq!(backend.list().unwrap(), vec![3, 10]);
    }

    /// More parts than one `writev` takes, empty ones among them (first,
    /// interior and last), must land as their plain concatenation.
    fn exercise_vectored(backend: &dyn Backend) {
        backend.create(7).unwrap();
        backend.append(7, b"head").unwrap();
        let chunks: Vec<Vec<u8>> = (0..2 * MAX_IOV + 77)
            .map(|i| if i % 5 == 0 { Vec::new() } else { vec![i as u8; 1 + i % 37] })
            .collect();
        let parts: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).chain([&[][..]]).collect();
        backend.append_vectored(7, &parts).unwrap();
        backend.append_vectored(7, &[]).unwrap();
        backend.append_vectored(7, &[&[], &[]]).unwrap();
        backend.append(7, b"tail").unwrap();
        let want = [&b"head"[..], &chunks.concat(), b"tail"].concat();
        assert_eq!(backend.len(7).unwrap(), want.len() as u64);
        assert_eq!(read_whole(backend, 7), want);
        assert!(backend.append_vectored(8, &[b"x"]).is_err(), "missing segment must fail");
    }

    #[test]
    fn vectored_appends_concatenate_their_parts() {
        exercise_vectored(&MemBackend::new());
        let dir = std::env::temp_dir().join(format!("otae-store-vec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise_vectored(&FileBackend::new(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_backend_semantics() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn file_backend_semantics() {
        let dir = std::env::temp_dir().join(format!("otae-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = FileBackend::new(&dir).unwrap();
        exercise(&backend);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The chunks a `MemBackend` segment holds: `(start, len, capacity)`.
    fn chunks_of(backend: &MemBackend, seg: SegmentId) -> Vec<(u64, usize, usize)> {
        let map = backend.segments.lock();
        map[&seg].chunks.iter().map(|c| (c.start, c.bytes.len(), c.bytes.capacity())).collect()
    }

    #[test]
    fn mem_appends_land_as_exactly_sized_chunks() {
        let backend = MemBackend::new();
        backend.create(0).unwrap();
        assert!(chunks_of(&backend, 0).is_empty(), "a new segment holds nothing");
        backend.append_vectored(0, &[b"seg", b"hdr"]).unwrap();
        backend.append_vectored(0, &[]).unwrap();
        backend.append_vectored(0, &[&[], &[]]).unwrap();
        backend.append_vectored(0, &[&[7; 100], &[], &[8; 28]]).unwrap();
        // One chunk per non-empty append, allocated to its length.
        assert_eq!(chunks_of(&backend, 0), [(0, 6, 6), (6, 128, 128)]);
        let mut buf = Vec::new();
        backend.read_into(0, 4, 4, &mut buf).unwrap();
        assert_eq!(buf, [b'd', b'r', 7, 7], "a read across two appends");
        // A cut inside the second chunk shortens it; one at a boundary
        // drops what follows.
        backend.truncate(0, 50).unwrap();
        assert_eq!(chunks_of(&backend, 0).iter().map(|c| c.1).collect::<Vec<_>>(), [6, 44]);
        backend.truncate(0, 6).unwrap();
        assert_eq!(chunks_of(&backend, 0).len(), 1);
        backend.append(0, b"next").unwrap();
        assert_eq!(chunks_of(&backend, 0)[1], (6, 4, 4));
        assert_eq!(backend.total_bytes(), 10);
    }

    #[test]
    fn mem_backend_clones_share_the_device() {
        let a = MemBackend::new();
        let b = a.clone();
        a.create(0).unwrap();
        a.append(0, b"persisted").unwrap();
        drop(a); // "crash": the handle dies, the device survives
        assert_eq!(read_whole(&b, 0), b"persisted");
    }

    #[test]
    fn a_lend_holds_no_lock_and_outlives_the_segment() {
        let backend = MemBackend::new();
        backend.create(0).unwrap();
        backend.append(0, b"seghdr").unwrap();
        backend.append(0, b"one record").unwrap();
        let mut scratch = Vec::new();
        let lent = backend.read_lent(0, 6, 10, &mut scratch).unwrap();
        assert_eq!(&*lent, b"one record");
        // An append to the same segment completes while the lend lives.
        let device = backend.clone();
        with_watchdog(move || device.append_vectored(0, &[b"next", b" group"]).unwrap());
        assert_eq!(backend.len(0).unwrap(), 26);
        // A truncate inside the lent chunk copies it before cutting ...
        backend.truncate(0, 9).unwrap();
        assert_eq!(read_whole(&backend, 0), b"seghdrone");
        assert_eq!(&*lent, b"one record");
        // ... and a delete leaves the lent bytes where they were.
        backend.delete(0).unwrap();
        assert_eq!(&*lent, b"one record");
        drop(lent);
        assert!(scratch.is_empty(), "a range inside one append is lent, not copied");
    }

    #[test]
    fn a_lend_across_appends_is_a_copy_into_scratch() {
        let backend = MemBackend::new();
        backend.create(0).unwrap();
        backend.append(0, b"seghdr").unwrap();
        backend.append(0, b"one record").unwrap();
        let mut scratch = b"stale".to_vec();
        assert_eq!(&*backend.read_lent(0, 4, 5, &mut scratch).unwrap(), b"drone");
        assert_eq!(scratch, b"drone");
        assert!(backend.read_lent(0, 12, 5, &mut scratch).is_err(), "read past end must fail");
        assert!(backend.read_lent(1, 0, 1, &mut scratch).is_err(), "missing segment must fail");
    }

    #[test]
    fn file_backend_lists_only_the_files_it_names() {
        let dir = std::env::temp_dir().join(format!("otae-store-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = Arc::new(FileBackend::new(&dir).unwrap());
        let cfg = StoreConfig { compact_trigger: None, ..StoreConfig::default() };
        let (store, _) = SegmentStore::open(backend.clone(), cfg, Arc::new(NoStoreFaults)).unwrap();
        store.put(7, b"the one record").unwrap();
        drop(store);
        assert_eq!(backend.list().unwrap(), [0]);

        // Names that parse to a segment id without being that id's file:
        // a short spelling, a signed one, and the canonical name of
        // segment 5 in a prefix directory that is not its own.
        let wrong_prefix = (0..=0xFFu8)
            .map(|p| dir.join(format!("{p:02x}")))
            .find(|d| Some(d.as_path()) != backend.path_of(5).parent())
            .unwrap();
        let strays = [
            dir.join("00").join("seg-0.seg"),
            backend.path_of(1).with_file_name("seg-+1.seg"),
            wrong_prefix.join("seg-00000005.seg"),
        ];
        for stray in &strays {
            std::fs::create_dir_all(stray.parent().unwrap()).unwrap();
            std::fs::write(stray, b"junk").unwrap();
        }
        assert_eq!(backend.list().unwrap(), [0], "strays are not segments");

        let (store, report) =
            SegmentStore::open(backend.clone(), cfg, Arc::new(NoStoreFaults)).unwrap();
        assert_eq!((report.segments, report.records), (1, 1));
        assert_eq!(store.get(7).unwrap().as_deref(), Some(&b"the one record"[..]));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
