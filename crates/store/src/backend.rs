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
//! exactly-sized chunk copied *before* the device lock is taken; under the
//! lock an append only pushes its chunk, and a read copies from the
//! chunk(s) covering its range. So no reader waits for a write group's
//! `memcpy`, and the device needs no notion of an active segment.

use crate::handles::HandleCache;
use crate::StoreError;
use otae_fxhash::FxHashMap;
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{IoSlice, Write};
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
    /// keeping its allocation: the one read, under every `get`, every
    /// record compaction looks at and every record the recovery scan
    /// verifies. A range that runs past the segment's end is an error,
    /// never a short read.
    fn read_into(
        &self,
        seg: SegmentId,
        offset: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError>;
    /// Current length of a segment in bytes.
    fn len(&self, seg: SegmentId) -> Result<u64, StoreError>;
    /// Truncate a segment to `len` bytes (recovery repair, fault injection).
    fn truncate(&self, seg: SegmentId, len: u64) -> Result<(), StoreError>;
    /// Delete a segment (compaction reclaim).
    fn delete(&self, seg: SegmentId) -> Result<(), StoreError>;
    /// All existing segment ids, sorted ascending.
    fn list(&self) -> Result<Vec<SegmentId>, StoreError>;
}

/// In-memory backend; clone the handle to share the same "device".
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    segments: Arc<Mutex<FxHashMap<SegmentId, Segment>>>,
}

/// One append as it landed: where it starts in its segment, and exactly its
/// bytes. Never written again once pushed; only a truncate may shorten or
/// drop it.
#[derive(Debug)]
struct Chunk {
    start: u64,
    bytes: Vec<u8>,
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

    /// Append the segment's bytes `offset..end` to `buf`; `end` is within
    /// the segment.
    fn copy_range(&self, offset: u64, end: u64, buf: &mut Vec<u8>) {
        let first = self.chunks.partition_point(|c| c.end() <= offset);
        for chunk in self.chunks[first..].iter().take_while(|c| c.start < end) {
            let from = offset.max(chunk.start) - chunk.start;
            let to = end.min(chunk.end()) - chunk.start;
            buf.extend_from_slice(&chunk.bytes[from as usize..to as usize]);
        }
    }

    /// Cut the segment to `len` bytes; a longer `len` is a no-op.
    fn truncate(&mut self, len: u64) {
        self.chunks.truncate(self.chunks.partition_point(|c| c.start < len));
        if let Some(last) = self.chunks.last_mut() {
            last.bytes.truncate(usize::try_from(len - last.start).unwrap_or(usize::MAX));
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
        let bytes = parts.concat();
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
        let end = offset
            .checked_add(len as u64)
            .ok_or_else(|| StoreError::Corrupt("read range overflows".into()))?;
        let map = self.segments.lock();
        let segment = map.get(&seg).ok_or(StoreError::MissingSegment(seg))?;
        if end > segment.len() {
            return Err(StoreError::Corrupt(format!(
                "read past end of segment {seg}: {end} > {}",
                segment.len()
            )));
        }
        buf.clear();
        segment.copy_range(offset, end, buf);
        Ok(())
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
        // Out of the map under the lock; its chunks are freed after it.
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
                if let Ok(id) = id.parse::<SegmentId>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
