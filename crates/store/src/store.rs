//! The segment store proper: a bounded-queue background writer, an
//! in-memory index rebuilt by a recovery scan, and deadest-first
//! compaction that reports rewritten bytes as measured write
//! amplification.
//!
//! The put path writes an admitted byte to memory twice. The caller's
//! `fill` closure writes the payload into a pooled record buffer
//! ([`SegmentStore::put_with`]; `put` is the same with a `copy_from_slice`
//! fill), the buffer travels whole through the intake and the write group,
//! and the group's vectored append copies it into the segment. Nothing in
//! between copies: the header is written around the payload where it lies
//! ([`frame_in_place`]).
//!
//! Who frames is decided per put from what the intake observes. While a
//! push has had to wait for space and the writer has not run dry since,
//! the writer is the bottleneck and its callers are about to block on it,
//! so the caller spends that wait on the header and both CRCs itself and
//! the writer only appends; otherwise the caller is the critical path and
//! the writer, which would park until the next batch, frames. The
//! benchmark has a workload on each side: `serve_store` (a shard worker
//! admitting into a store whose writer never idles — callers frame ~97 %
//! of puts) and `store_mixed` (a reader that flushes to read its own
//! writes — the writer frames ~96 %). In the prototype that sized this,
//! framing always on the caller cost `store_mixed` 15–25 %, and always on
//! the writer left `serve_store`'s worker idle behind a saturated writer
//! (× 1.1 instead of × 1.6). The bytes are identical either
//! way, which `segment_bytes_are_pinned_at_every_queue_depth` holds to a
//! digest recorded before this path existed.
//!
//! Compaction reads what it rewrites. A pass walks its victim's record
//! *headers* — the segment header, then 21 bytes per record — to learn
//! what the segment holds, then fetches, fully verifies and stages — as
//! read, not re-encoded — only the puts the index still points at (and
//! re-encodes the tombstones that still shadow something); a dead record
//! costs its header and nothing else. On the benchmark's `store_mixed`
//! the victims are about nine tenths dead, so a pass reads a tenth of what
//! cloning and re-checksumming the whole segment did, and the writer stops
//! being that workload's bottleneck. See `Writer::compact_once` for what a
//! pass still verifies and what it no longer does; the recovery scan
//! (`scan_one`) is the path that vouches for every byte: it walks the
//! headers the same way and also reads and decodes each whole record, one
//! at a time.

use crate::backend::{Backend, SegmentId};
use crate::fault::StoreFaultPlan;
use crate::index::{Location, StoreIndex};
use crate::intake::{self, Consumer, IntakeStats, Producer};
use crate::record::{
    decode_header, decode_record, frame_in_place, RecordError, RecordHeader, RecordKind,
    HEADER_LEN, MAX_PAYLOAD,
};
use crate::write_buffer::{GroupBuffer, StagedKind};
use crossbeam::channel::{bounded, Sender};
use otae_device::WearLedger;
use otae_fxhash::FxHashMap;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Magic + version prefix of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"OSEG";
/// On-disk format version.
pub const SEGMENT_VERSION: u16 = 1;
/// Bytes of segment header preceding the first record.
pub const SEGMENT_HEADER_LEN: u64 = 6;

/// Store failure modes.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// On-disk state that violates the format (bad magic, impossible
    /// offsets, mid-log corruption).
    Corrupt(String),
    /// A segment the index or a scan expected is gone.
    MissingSegment(SegmentId),
    /// The writer thread crashed (injected fault or unrecoverable backend
    /// error); the store accepts no further writes.
    Crashed,
    /// Payload exceeds the per-record cap.
    PayloadTooLarge(u64),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::MissingSegment(s) => write!(f, "missing segment {s}"),
            StoreError::Crashed => write!(f, "store writer crashed; no further writes accepted"),
            StoreError::PayloadTooLarge(n) => {
                write!(f, "payload of {n} bytes exceeds cap {MAX_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Seal the active segment and roll to a new one once its record bytes
    /// reach this threshold.
    pub segment_bytes: u64,
    /// Capacity of the command intake between callers and the writer
    /// thread ([`crate::intake`]) — the explicit backpressure bound: a
    /// caller blocks while this many commands sit queued and not yet
    /// taken by the writer (treated as at least 1).
    pub queue_depth: usize,
    /// Auto-compact when dead bytes across sealed segments exceed this
    /// fraction of their total bytes. `None` disables auto-compaction
    /// (explicit [`SegmentStore::compact`] still works).
    pub compact_trigger: Option<f64>,
    /// Group-commit: land the staged write group once it holds this many
    /// records (treated as at least 1). The writer also flushes whenever
    /// its queue runs dry, so ack latency never waits for a full group.
    pub group_records: usize,
    /// Group-commit: land the staged group once it reaches this many
    /// bytes (treated as at least 1).
    pub group_bytes: u64,
    /// Recovery scan threads; 0 means one per available core. Segment
    /// scans are independent, and the index rebuild merges them in
    /// segment-id order, so the thread count never changes the result.
    pub recovery_threads: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 8 << 20,
            queue_depth: 64,
            compact_trigger: Some(0.5),
            group_records: 128,
            group_bytes: 256 << 10,
            recovery_threads: 0,
        }
    }
}

/// Cumulative store statistics. Byte counters are *measured* — they count
/// bytes actually handed to the backend, so `write_amplification` is an
/// observation, not a model parameter.
// lint: merge-exhaustive
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Record bytes appended on behalf of callers (puts + tombstones).
    pub host_bytes: u64,
    /// Record bytes appended by compaction rewrites (GC traffic).
    pub gc_bytes: u64,
    /// Bytes compaction read from its victims: every segment and record
    /// header, and the whole record of each put it rewrote.
    pub gc_read_bytes: u64,
    /// Put records appended for callers.
    pub put_records: u64,
    /// Tombstone records appended for callers.
    pub tombstone_records: u64,
    /// Puts acknowledged (index updated after a durable append).
    pub acked_puts: u64,
    /// Removes acknowledged.
    pub acked_removes: u64,
    /// Compaction passes completed.
    pub compactions: u64,
    /// Records rewritten live out of compaction victims.
    pub rewritten_records: u64,
    /// Segments created (including the initial active segment).
    pub segments_created: u64,
    /// Segments deleted by compaction.
    pub segments_deleted: u64,
    /// Live keys in the index at snapshot time.
    pub live_records: u64,
    /// Live record bytes at snapshot time.
    pub live_bytes: u64,
    /// Segments existing at snapshot time.
    pub segments: u64,
}

impl StoreStats {
    /// Bytes physically appended to segments (host + GC).
    pub fn physical_bytes(&self) -> u64 {
        self.host_bytes + self.gc_bytes
    }

    /// Measured write amplification: physical bytes per host byte (1.0
    /// before any host write).
    pub fn write_amplification(&self) -> f64 {
        if self.host_bytes == 0 {
            1.0
        } else {
            self.physical_bytes() as f64 / self.host_bytes as f64
        }
    }

    /// The byte stream as a wear-model ledger (host vs. GC split).
    pub fn wear_ledger(&self) -> WearLedger {
        let mut ledger = WearLedger::default();
        ledger.record_host_write(self.host_bytes);
        ledger.record_gc_write(self.gc_bytes);
        ledger
    }

    /// Fold another store's counters into this one (per-shard merge). The
    /// full destructure means a new counter cannot be added without this
    /// merge accounting for it.
    pub fn merge(&mut self, other: &StoreStats) {
        let StoreStats {
            host_bytes,
            gc_bytes,
            gc_read_bytes,
            put_records,
            tombstone_records,
            acked_puts,
            acked_removes,
            compactions,
            rewritten_records,
            segments_created,
            segments_deleted,
            live_records,
            live_bytes,
            segments,
        } = *other;
        self.host_bytes += host_bytes;
        self.gc_bytes += gc_bytes;
        self.gc_read_bytes += gc_read_bytes;
        self.put_records += put_records;
        self.tombstone_records += tombstone_records;
        self.acked_puts += acked_puts;
        self.acked_removes += acked_removes;
        self.compactions += compactions;
        self.rewritten_records += rewritten_records;
        self.segments_created += segments_created;
        self.segments_deleted += segments_deleted;
        self.live_records += live_records;
        self.live_bytes += live_bytes;
        self.segments += segments;
    }
}

/// What a recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments scanned.
    pub segments: u64,
    /// Records replayed into the index (puts + tombstones).
    pub records: u64,
    /// Live keys after the replay.
    pub live_records: u64,
    /// Whether a torn tail record was found (and truncated away).
    pub torn_tail: bool,
    /// Bytes discarded by the torn-tail repair.
    pub truncated_bytes: u64,
    /// Bytes the scan read from the backend: every segment header, every
    /// record header, and every whole record (its header a second time).
    /// A clean segment costs `SEGMENT_HEADER_LEN + Σ (HEADER_LEN + record
    /// length)`; a record that fails ends its segment's scan after what was
    /// read of it.
    pub read_bytes: u64,
}

/// One compaction pass's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// The victim segment, if any sealed segment existed.
    pub victim: Option<SegmentId>,
    /// Live record bytes rewritten into the active segment (GC writes).
    pub rewritten_bytes: u64,
    /// Records rewritten (live puts + still-shadowing tombstones).
    pub rewritten_records: u64,
    /// Bytes reclaimed (victim file size minus rewritten bytes).
    pub reclaimed_bytes: u64,
    /// Bytes read from the victim: its segment header, every record
    /// header, and the whole record of each put rewritten — never a
    /// payload the pass was about to delete.
    pub read_bytes: u64,
}

struct Shared {
    /// The index and the writer's counters of what it appended, updated in
    /// the same critical sections (a group's index pass, `roll`,
    /// compaction's `forget_segment`), so [`SegmentStore::stats`] reads
    /// both at one instant. The counters' snapshot fields (`live_records`,
    /// `live_bytes`, `segments`) stay zero here; `stats` reads them off
    /// the index.
    index: Mutex<(StoreIndex, StoreStats)>,
    /// Readers hold this shared across index-lookup + backend-read so a
    /// compaction cannot delete a segment out from under an in-flight
    /// `get`; the compactor takes it exclusively only for the final
    /// delete-and-forget step. Lock order is always `io` before `index`.
    io: RwLock<()>,
    crashed: AtomicBool,
}

enum Cmd {
    /// A put record in a pooled buffer: `buf[..len]` is the whole record
    /// with the payload in place, and `framed` says whether the caller
    /// already wrote the header (it does under backpressure; otherwise
    /// the writer frames).
    Put {
        key: u64,
        buf: Vec<u8>,
        len: usize,
        framed: bool,
    },
    Remove {
        key: u64,
    },
    Flush(Sender<()>),
    Compact(Sender<Result<CompactReport, StoreError>>),
}

/// Spent record buffers awaiting reuse: the side state of the store's
/// intake, so a caller reads it together with the backpressure flag under
/// the one lock a put already takes, and the writer hands a landed group's
/// buffers back under that same lock.
///
/// A put's record travels caller → intake → write group in one `Vec<u8>`
/// and is copied exactly once, into the segment. Pooled buffers keep their
/// full initialised length (a record is a prefix of its buffer), so reuse
/// neither zero-fills nor reallocates; one too short for the record at hand
/// is left for a shorter record and a fresh one allocated — never
/// `resize`d, which would copy its stale bytes to a new allocation and then
/// zero the rest. The pool is bounded in bytes and in count.
struct BufferPool {
    bufs: Vec<Vec<u8>>,
    /// Summed capacity of `bufs`.
    bytes: usize,
    bytes_cap: usize,
    /// Most buffers kept; also bounds `checkout`'s scan.
    len_cap: usize,
}

impl BufferPool {
    fn new(bytes_cap: usize, len_cap: usize) -> Self {
        Self { bufs: Vec::new(), bytes: 0, bytes_cap, len_cap }
    }

    /// The smallest pooled buffer of at least `len` bytes, if any.
    fn checkout(&mut self, len: usize) -> Option<Vec<u8>> {
        let fit = (self.bufs.iter().enumerate())
            .filter(|(_, buf)| buf.len() >= len)
            .min_by_key(|(_, buf)| buf.len())
            .map(|(i, _)| i)?;
        let buf = self.bufs.swap_remove(fit);
        self.bytes -= buf.capacity();
        Some(buf)
    }

    /// Keep what fits the bounds out of `spent`; what does not stays there,
    /// for the caller to free once the intake's lock is released.
    fn recycle(&mut self, spent: &mut [Vec<u8>]) {
        for buf in spent {
            if self.bufs.len() >= self.len_cap {
                break;
            }
            if self.bytes + buf.capacity() <= self.bytes_cap {
                self.bytes += buf.capacity();
                self.bufs.push(std::mem::take(buf));
            }
        }
    }
}

thread_local! {
    /// Per-thread scratch for the read path's fallback: a backend that
    /// cannot lend a record where it lies copies it here, reused across
    /// calls so reads stop allocating.
    static READ_SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Append-only segment store with a background writer.
///
/// `put`/`remove` queue onto a bounded command intake (blocking when full
/// — the backpressure seam); the writer thread takes queued commands in
/// batches, appends framed records to the active segment, rolls segments
/// at the configured size, updates the index only after the append
/// succeeded, and compacts the deadest sealed segment when enough dead
/// bytes accumulate. Dropping the store hangs up the intake; the writer
/// lands everything queued before it exits.
pub struct SegmentStore {
    shared: Arc<Shared>,
    backend: Arc<dyn Backend>,
    /// `None` only inside `drop`, which hangs it up before joining.
    intake: Option<Producer<Cmd, BufferPool>>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("crashed", &self.is_crashed())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SegmentStore {
    /// Open a store over `backend`: scan existing segments to rebuild the
    /// index (repairing at most one torn tail record in the newest
    /// segment), then start the writer on a fresh active segment.
    pub fn open(
        backend: Arc<dyn Backend>,
        cfg: StoreConfig,
        faults: Arc<dyn StoreFaultPlan>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let existing = backend.list()?;
        let active = existing.last().map_or(Ok(0), |&newest| next_segment(newest))?;
        let scans = scan_segments(&backend, &existing, recovery_threads(cfg.recovery_threads))?;
        let mut index = StoreIndex::new();
        let mut report = RecoveryReport::default();
        for scan in &scans {
            merge_scan(scan, &mut index, &mut report);
        }
        report.live_records = index.len() as u64;

        create_segment(backend.as_ref(), active)?;
        index.add_segment(active);

        let shared = Arc::new(Shared {
            index: Mutex::new((index, StoreStats::default())),
            io: RwLock::new(()),
            crashed: AtomicBool::new(false),
        });
        shared.index.lock().1.segments_created = 1;

        // Record-buffer pool: four groups' worth of bytes in at most one
        // group's worth of buffers. Measured on the benchmark's two store
        // workloads, a checkout finds no pooled buffer long enough 37-42 %
        // of the time at one group's worth, 16-17 % at two, 5 % at four
        // (EXPERIMENTS.md "One copy per admitted byte").
        let pool_bytes = usize::try_from(cfg.group_bytes.saturating_mul(4)).unwrap_or(usize::MAX);
        let pool = BufferPool::new(pool_bytes, cfg.group_records.max(1));
        let (intake, consumer) = intake::bounded(cfg.queue_depth, pool);
        let writer = Writer {
            backend: Arc::clone(&backend),
            shared: Arc::clone(&shared),
            intake: consumer,
            cfg,
            faults,
            active,
            active_bytes: 0,
            seq: 0,
            group: GroupBuffer::new(),
            spent: Vec::new(),
            scratch: Vec::new(),
        };
        let handle = std::thread::spawn(move || writer.run());
        Ok((Self { shared, backend, intake: Some(intake), handle: Some(handle) }, report))
    }

    fn intake(&self) -> Result<&Producer<Cmd, BufferPool>, StoreError> {
        self.intake.as_ref().ok_or(StoreError::Crashed)
    }

    /// Queue one command on the intake, blocking while it is full; see the
    /// [`crate::intake`] module docs. A crashed writer has dropped the
    /// intake's consumer, so the push fails.
    fn enqueue(&self, cmd: Cmd) -> Result<(), StoreError> {
        if self.is_crashed() {
            return Err(StoreError::Crashed);
        }
        self.intake()?.push(cmd).map_err(|_| StoreError::Crashed)
    }

    /// Enqueue a value write. Blocks while the command intake is full;
    /// the write is acknowledged (visible to `get`, counted in
    /// `acked_puts`) only after the writer has durably appended it and
    /// updated the index.
    pub fn put(&self, key: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.put_with(key, payload.len(), |dst| dst.copy_from_slice(payload))
    }

    /// [`SegmentStore::put`] for a caller that can produce the payload in
    /// place: `fill` is handed exactly `len` bytes — the payload's place
    /// inside a pooled record buffer, holding stale bytes it must
    /// overwrite — so a generated or received payload is written once,
    /// where it is framed, and copied once, into the segment.
    pub fn put_with(
        &self,
        key: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), StoreError> {
        self.put_framed_by(key, len, fill, None).map(drop)
    }

    /// The put path. The record is framed on this thread when the intake
    /// reports backpressure and by the writer otherwise — same function,
    /// same bytes. Under backpressure the writer is the bottleneck and
    /// this caller would only wait on it (`otae-serve` with a store
    /// attached: the shard worker admits faster than one writer lands);
    /// without it the caller is the critical path and the writer has idle
    /// time between batches (a read-mostly caller that flushes to read its
    /// own writes). `frame_here` overrides the signal so tests can pin a
    /// side; the result says whether this thread framed.
    fn put_framed_by(
        &self,
        key: u64,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
        frame_here: Option<bool>,
    ) -> Result<bool, StoreError> {
        if len as u64 > MAX_PAYLOAD as u64 {
            return Err(StoreError::PayloadTooLarge(len as u64));
        }
        let len = HEADER_LEN + len;
        let (pooled, backpressure) =
            self.intake()?.with_side(|pool, backpressure| (pool.checkout(len), backpressure));
        let mut buf = pooled.unwrap_or_else(|| vec![0; len]);
        fill(&mut buf[HEADER_LEN..len]);
        let framed = frame_here.unwrap_or(backpressure);
        if framed {
            frame_in_place(key, RecordKind::Put, &mut buf[..len]);
        }
        self.enqueue(Cmd::Put { key, buf, len, framed })?;
        Ok(framed)
    }

    /// Enqueue a deletion (a durable tombstone record).
    pub fn remove(&self, key: u64) -> Result<(), StoreError> {
        self.enqueue(Cmd::Remove { key })
    }

    /// Block until every operation enqueued before this call has been
    /// applied (or the writer crashed).
    pub fn flush(&self) -> Result<(), StoreError> {
        let (done_tx, done_rx) = bounded::<()>(1);
        self.enqueue(Cmd::Flush(done_tx))?;
        done_rx.recv().map_err(|_| StoreError::Crashed)
    }

    /// Run one compaction pass on the writer thread (after draining the
    /// commands staged ahead of it) and return its report.
    pub fn compact(&self) -> Result<CompactReport, StoreError> {
        let (done_tx, done_rx) = bounded::<Result<CompactReport, StoreError>>(1);
        self.enqueue(Cmd::Compact(done_tx))?;
        done_rx.recv().map_err(|_| StoreError::Crashed)?
    }

    /// Read a key's current payload. Reflects acknowledged writes only; an
    /// enqueued-but-unapplied put is not yet visible.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let mut out = Vec::new();
        Ok(if self.get_into(key, &mut out)? { Some(out) } else { None })
    }

    /// Read a key's current payload into `out` (cleared first), returning
    /// whether the key was present. The allocation-free twin of
    /// [`SegmentStore::get`]: the record is verified where the backend
    /// lends it ([`Backend::read_lent`]) and its payload copied once,
    /// straight into the caller's buffer. Only a backend that cannot lend
    /// (a file) copies the record first, into a thread-local scratch
    /// buffer; either way a steady-state read loop performs zero
    /// allocations.
    pub fn get_into(&self, key: u64, out: &mut Vec<u8>) -> Result<bool, StoreError> {
        out.clear();
        let _io = self.shared.io.read();
        let loc = match self.shared.index.lock().0.get(key) {
            Some(loc) => loc,
            None => return Ok(false),
        };
        READ_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            // The io RwLock *is* the I/O gate: data reads deliberately hold
            // it so compaction's exclusive (write) acquisition serializes
            // against in-flight reads while segments are rewritten
            // underneath them.
            // otae-lint: allow(no-blocking-under-lock)
            let record =
                self.backend.read_lent(loc.segment, loc.offset, loc.len as usize, &mut scratch)?;
            out.extend_from_slice(verified_put(&record, key).map_err(StoreError::Corrupt)?);
            Ok(true)
        })
    }

    /// Whether the writer has crashed (injected fault or backend failure).
    pub fn is_crashed(&self) -> bool {
        self.shared.crashed.load(Ordering::Acquire)
    }

    /// Snapshot of cumulative statistics plus current index occupancy, read
    /// at one instant under the index lock.
    pub fn stats(&self) -> StoreStats {
        let (index, stats) = &*self.shared.index.lock();
        let mut snapshot = *stats;
        snapshot.live_records = index.len() as u64;
        snapshot.live_bytes = index.live_bytes();
        snapshot.segments = index.segment_count() as u64;
        snapshot
    }

    /// The command intake's counters so far: caller (`producer_parks`)
    /// and writer (`consumer_parks`) parks, batches, high water. Kept out
    /// of [`StoreStats`]: they depend on thread timing, and two runs of
    /// the same operations apply them identically with different counts.
    pub fn intake_stats(&self) -> IntakeStats {
        self.intake.as_ref().map(Producer::stats).unwrap_or_default()
    }

    /// Sorted `(key, location)` pairs of every live record — the
    /// deterministic index digest the recovery oracle compares.
    pub fn live_entries(&self) -> Vec<(u64, Location)> {
        self.shared.index.lock().0.live_entries()
    }

    /// The backend handle (a harness reopens the same backend after a
    /// simulated crash).
    pub fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        // The last producer hanging up lets the writer pop what is queued,
        // land it, and exit.
        drop(self.intake.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The id of the segment after `seg`. The last id has none: wrapping to
/// segment 0 would put new writes behind every older segment, where
/// recovery's id-order replay lets the older records shadow them.
fn next_segment(seg: SegmentId) -> Result<SegmentId, StoreError> {
    seg.checked_add(1)
        .ok_or_else(|| StoreError::Corrupt(format!("segment {seg} is the last segment id")))
}

/// Create segment `seg` with its header.
fn create_segment(backend: &dyn Backend, seg: SegmentId) -> Result<(), StoreError> {
    backend.create(seg)?;
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    header.extend_from_slice(&SEGMENT_MAGIC);
    header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    backend.append(seg, &header)
}

/// The payload of the put for `key` that `bytes` must be — one whole
/// record, read from where the index placed it: the full [`decode_record`]
/// (both checksums), then key, kind and length against what the caller was
/// told. Everything `get` returns and everything compaction copies forward
/// has passed through here; the error says what was found instead.
fn verified_put(bytes: &[u8], key: u64) -> Result<&[u8], String> {
    let (record, consumed) =
        decode_record(bytes).map_err(|e| format!("record for key {key} unreadable: {e}"))?;
    if (record.key, record.kind, consumed) != (key, RecordKind::Put, bytes.len() as u64) {
        return Err(format!(
            "expected a {}-byte put for key {key}, found {consumed} bytes of {:?} for key {}",
            bytes.len(),
            record.kind,
            record.key
        ));
    }
    Ok(record.payload)
}

/// Effective recovery thread count: a configured value, or one per
/// available core when `configured` is 0.
fn recovery_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Where one decoded record sits in its segment: `(key, kind, offset, len)`.
type RecordMeta = (u64, RecordKind, u64, u64);

/// What one segment scan found: record metadata in file order, plus any
/// torn-tail repair and the bytes the scan read. Segments are independent
/// by construction (a record never spans segments), so scans can run
/// concurrently and the index rebuild replays `SegmentScan`s in ascending
/// segment-id order — the result is identical to the sequential scan,
/// whatever the thread count.
#[derive(Default)]
struct SegmentScan {
    seg: SegmentId,
    records: Vec<RecordMeta>,
    torn_tail: bool,
    truncated_bytes: u64,
    read_bytes: u64,
}

/// Scan one segment record by record: per record its header
/// ([`read_header`]), then the whole record, lent where it lies
/// ([`Backend::read_lent`]), through the full [`decode_record`].
/// `tolerate_tail` is true only for the newest segment: the first record
/// that fails there is the torn tail a crash legitimately leaves behind and
/// is truncated away; anywhere else it is corruption and fails the scan.
fn scan_one(
    backend: &dyn Backend,
    seg: SegmentId,
    tolerate_tail: bool,
) -> Result<SegmentScan, StoreError> {
    let end = backend.len(seg)?;
    let mut buf = Vec::new();
    if !read_segment_header(backend, seg, end, &mut buf)? {
        return Err(StoreError::Corrupt(format!("segment {seg}: bad or short header")));
    }
    let mut scan = SegmentScan { seg, read_bytes: SEGMENT_HEADER_LEN, ..SegmentScan::default() };
    let mut offset = SEGMENT_HEADER_LEN;
    while offset < end {
        let header = read_header(backend, seg, offset, end, &mut buf)?;
        scan.read_bytes += buf.len() as u64;
        let verified = match header {
            Ok(header) => {
                let bytes =
                    backend.read_lent(seg, offset, header.encoded_len() as usize, &mut buf)?;
                scan.read_bytes += bytes.len() as u64;
                decode_record(&bytes).map(|(record, len)| (record.key, record.kind, len))
            }
            Err(err) => Err(err),
        };
        match verified {
            Ok((key, kind, len)) => {
                scan.records.push((key, kind, offset, len));
                offset += len;
            }
            Err(_) if tolerate_tail => {
                backend.truncate(seg, offset)?;
                scan.torn_tail = true;
                scan.truncated_bytes = end - offset;
                break;
            }
            Err(err) => {
                return Err(StoreError::Corrupt(format!(
                    "segment {seg}: record at offset {offset} unreadable mid-log: {err}"
                )))
            }
        }
    }
    Ok(scan)
}

/// Read segment `seg`'s header (or as much of it as its `end` holds) into
/// `buf`, and say whether it is this format's.
fn read_segment_header(
    backend: &dyn Backend,
    seg: SegmentId,
    end: u64,
    buf: &mut Vec<u8>,
) -> Result<bool, StoreError> {
    backend.read_into(seg, 0, SEGMENT_HEADER_LEN.min(end) as usize, buf)?;
    Ok(buf.len() == SEGMENT_HEADER_LEN as usize
        && buf[..4] == SEGMENT_MAGIC
        && u16::from_le_bytes([buf[4], buf[5]]) == SEGMENT_VERSION)
}

/// Read the header of the record at `offset` into `buf` — [`HEADER_LEN`]
/// bytes, or what is left before the segment's `end` — and check it with
/// [`decode_header`] (its own CRC, kind, length cap) and against `end`.
/// The backend is never asked for bytes past the end, so a cut record is
/// reported as truncated by the decoder, whatever the backend. The outer
/// error is the backend's; the inner one says why the record is unreadable.
fn read_header(
    backend: &dyn Backend,
    seg: SegmentId,
    offset: u64,
    end: u64,
    buf: &mut Vec<u8>,
) -> Result<Result<RecordHeader, RecordError>, StoreError> {
    let have = end - offset;
    backend.read_into(seg, offset, (HEADER_LEN as u64).min(have) as usize, buf)?;
    Ok(decode_header(buf).and_then(|h| match h.encoded_len() {
        needed if needed > have => Err(RecordError::Truncated { needed, have }),
        _ => Ok(h),
    }))
}

/// A sealed segment's records in file order, learned from its headers
/// alone, plus the segment's length: the segment header, then
/// [`read_header`] per record, each record's place given by the lengths
/// before it. A flipped header bit or a cut record is `Corrupt`; no payload
/// is read, let alone checksummed. This is compaction's view of its victim
/// — recovery, which must vouch for every byte, also reads each whole
/// record ([`scan_one`]).
fn walk_headers(
    backend: &dyn Backend,
    seg: SegmentId,
    scratch: &mut Vec<u8>,
) -> Result<(Vec<RecordMeta>, u64), StoreError> {
    let corrupt = |what: String| StoreError::Corrupt(format!("compaction victim {seg}: {what}"));
    let end = backend.len(seg)?;
    if !read_segment_header(backend, seg, end, scratch)? {
        return Err(corrupt("bad or short header".into()));
    }
    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    while offset < end {
        let header = read_header(backend, seg, offset, end, scratch)?
            .map_err(|e| corrupt(format!("record at {offset} unreadable: {e}")))?;
        records.push((header.key, header.kind, offset, header.encoded_len()));
        offset += header.encoded_len();
    }
    Ok((records, end))
}

/// Scan every segment, concurrently when `threads > 1`. Results come back
/// ordered by position in `segs` (ascending segment id), and on failure
/// the error for the lowest-id failing segment is returned — both
/// independent of scheduling, so parallel and sequential recovery are
/// indistinguishable from the outside.
fn scan_segments(
    backend: &Arc<dyn Backend>,
    segs: &[SegmentId],
    threads: usize,
) -> Result<Vec<SegmentScan>, StoreError> {
    let last = segs.len().saturating_sub(1);
    let threads = threads.min(segs.len()).max(1);
    if threads == 1 {
        return segs
            .iter()
            .enumerate()
            .map(|(i, &seg)| scan_one(backend.as_ref(), seg, i == last))
            .collect();
    }
    let mut slots: Vec<Option<Result<SegmentScan, StoreError>>> =
        segs.iter().map(|_| None).collect();
    let mut panicked = false;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let backend = Arc::clone(backend);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = t;
                    while i < segs.len() {
                        out.push((i, scan_one(backend.as_ref(), segs[i], i == last)));
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(results) => {
                    for (i, res) in results {
                        slots[i] = Some(res);
                    }
                }
                Err(_) => panicked = true,
            }
        }
    });
    if panicked {
        return Err(StoreError::Corrupt("recovery scan thread panicked".into()));
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| Err(StoreError::Corrupt("recovery scan slot missing".into())))
        })
        .collect()
}

/// Replay one segment scan into the index (the deterministic merge step —
/// callers feed scans in ascending segment-id order).
fn merge_scan(scan: &SegmentScan, index: &mut StoreIndex, report: &mut RecoveryReport) {
    index.add_segment(scan.seg);
    report.segments += 1;
    for &(key, kind, offset, len) in &scan.records {
        match kind {
            RecordKind::Put => index.apply_put(key, Location { segment: scan.seg, offset, len }),
            RecordKind::Tombstone => index.apply_tombstone(key, scan.seg, len),
        }
        report.records += 1;
    }
    report.torn_tail |= scan.torn_tail;
    report.truncated_bytes += scan.truncated_bytes;
    report.read_bytes += scan.read_bytes;
    index.seal_segment(scan.seg);
}

struct Writer {
    backend: Arc<dyn Backend>,
    shared: Arc<Shared>,
    intake: Consumer<Cmd, BufferPool>,
    cfg: StoreConfig,
    faults: Arc<dyn StoreFaultPlan>,
    active: SegmentId,
    /// Record bytes landed in the active segment (excludes the segment
    /// header and anything still staged in `group`).
    active_bytes: u64,
    /// Host append sequence (puts + tombstones), the fault-seam clock.
    seq: u64,
    /// Group-commit staging: records accumulate here and land with one
    /// backend append + one index pass per group.
    group: GroupBuffer,
    /// Put buffers of the group that just landed, on their way back to the
    /// intake's buffer pool (kept for its capacity).
    spent: Vec<Vec<u8>>,
    /// Compaction's read buffer: one record header, or one record on its
    /// way forward, at a time (kept for its capacity).
    scratch: Vec<u8>,
}

impl Writer {
    /// Serve the intake until every handle hangs up. Any error takes the
    /// writer down: `crashed` is set, and dropping the writer drops the
    /// intake's consumer with it. That drops every command still queued (a
    /// `Flush` or `Compact` there disconnects its reply sender, so its
    /// caller sees `Crashed` instead of waiting forever) and makes every
    /// blocked and later push fail.
    fn run(mut self) {
        if self.serve().is_err() {
            self.shared.crashed.store(true, Ordering::Release);
        }
    }

    fn serve(&mut self) -> Result<(), StoreError> {
        let mut batch: Vec<Cmd> = Vec::new();
        loop {
            // Take everything queued since the last pass and apply it in
            // push order (staging flushes the group whenever size limits
            // are hit).
            if !self.intake.try_pop_batch(&mut batch, usize::MAX) {
                // The intake ran dry: land the partial group now so ack
                // latency is bounded by queue idleness, not group fill.
                self.flush_group()?;
                self.auto_compact()?;
                if !self.intake.pop_batch(&mut batch, usize::MAX) {
                    // Every handle hung up and nothing is queued; the group
                    // landed just above.
                    return Ok(());
                }
            }
            // On an error the rest of the batch is dropped with the drain,
            // disconnecting its reply senders.
            for cmd in batch.drain(..) {
                self.handle(cmd)?;
            }
        }
    }

    /// Run one compaction pass if the dead-byte trigger is due.
    fn auto_compact(&mut self) -> Result<(), StoreError> {
        match self.cfg.compact_trigger {
            Some(trigger) if self.should_auto_compact(trigger) => self.compact_once().map(drop),
            _ => Ok(()),
        }
    }

    fn handle(&mut self, cmd: Cmd) -> Result<(), StoreError> {
        match cmd {
            Cmd::Put { key, mut buf, len, framed } => {
                if !framed {
                    frame_in_place(key, RecordKind::Put, &mut buf[..len]);
                }
                self.make_room()?;
                self.group.stage_put(key, buf, len);
            }
            Cmd::Remove { key } => {
                self.make_room()?;
                self.group.stage_inline(key, RecordKind::Tombstone, &[], StagedKind::Host);
            }
            Cmd::Flush(done) => {
                // An error drops `done`, which disconnects the caller's
                // recv: `StoreError::Crashed`, as for a command the crash
                // strands in the intake. Auto-compaction due at flush time
                // completes before the reply, so "flush returned" keeps
                // implying the store has absorbed every consequence of the
                // enqueued operations.
                self.flush_group()?;
                self.auto_compact()?;
                let _ = done.send(());
            }
            Cmd::Compact(done) => {
                // The pass's own error goes to the caller; the writer
                // keeps serving.
                self.flush_group()?;
                let _ = done.send(self.compact_once());
            }
        }
        Ok(())
    }

    fn should_auto_compact(&self, trigger: f64) -> bool {
        let (sealed_total, dead) = self.shared.index.lock().0.sealed_bytes();
        dead > 0 && dead as f64 > trigger * sealed_total as f64
    }

    /// Seal the active segment and start the next one. Only legal with an
    /// empty group (staged records always land in the segment they were
    /// staged against).
    fn roll(&mut self) -> Result<(), StoreError> {
        debug_assert!(self.group.is_empty(), "roll with staged records would split the group");
        let next = next_segment(self.active)?;
        create_segment(self.backend.as_ref(), next)?;
        {
            let (ix, stats) = &mut *self.shared.index.lock();
            ix.seal_segment(self.active);
            ix.add_segment(next);
            stats.segments_created += 1;
        }
        self.active = next;
        self.active_bytes = 0;
        Ok(())
    }

    /// Before staging one record, a caller's or compaction's: land a full
    /// group, and land the group and roll a full active segment. The
    /// record's location is fixed by what this leaves (the active
    /// segment's tail plus the staged bytes), identically to the
    /// record-at-a-time path this replaced.
    fn make_room(&mut self) -> Result<(), StoreError> {
        if self.group.records() >= self.cfg.group_records.max(1)
            || self.group.bytes() >= self.cfg.group_bytes.max(1)
        {
            self.flush_group()?;
        }
        if self.active_bytes + self.group.bytes() >= self.cfg.segment_bytes {
            self.flush_group()?;
            self.roll()?;
        }
        Ok(())
    }

    /// Land the staged group: consult the fault seam once per host record
    /// (in staging order), append everything up to and including any crash
    /// record with **one** vectored backend write, then walk the appended
    /// prefix once under **one** index-lock acquisition, counting it and
    /// indexing the acked prefix.
    ///
    /// Crash semantics are bit-identical to the per-record path: the crash
    /// record is durably appended (minus any torn tail) and counted, but
    /// never acked or indexed, records staged after it are dropped
    /// entirely, and recovery therefore sees exactly the acked prefix plus
    /// the crash record (when its tail survives whole) — regardless of how
    /// commands were batched into groups. A cut group returns
    /// `Err(StoreError::Crashed)`. Compaction's groups hold only GC
    /// records, which never tick the seam.
    fn flush_group(&mut self) -> Result<(), StoreError> {
        if self.group.is_empty() {
            return Ok(());
        }
        // Tick the seam clock for each host record; the first scheduled
        // crash cuts the group after that record.
        let mut cut: Option<(usize, u64)> = None;
        for (i, r) in self.group.staged().iter().enumerate() {
            if r.is_gc() {
                continue;
            }
            let seq = self.seq;
            self.seq += 1;
            if self.faults.crash_after_append(seq) {
                cut = Some((i, self.faults.torn_tail_bytes(seq).min(r.len)));
                break;
            }
        }
        let staged = self.group.staged();
        let (appended, acked, torn) = match cut {
            None => (staged.len(), staged.len(), 0),
            Some((i, torn)) => (i + 1, i, torn),
        };
        let end = staged[appended - 1].buf_offset + staged[appended - 1].len;
        self.backend.append_vectored(self.active, &self.group.slices(end))?;
        if torn > 0 {
            let keep = SEGMENT_HEADER_LEN + self.active_bytes + (end - torn);
            let _ = self.backend.truncate(self.active, keep);
        }

        // One pass: the appended prefix is physical traffic (the crash
        // record included); the acked prefix is indexed and acknowledged.
        let base = SEGMENT_HEADER_LEN + self.active_bytes;
        {
            let (ix, stats) = &mut *self.shared.index.lock();
            for (i, r) in staged[..appended].iter().enumerate() {
                let ack = i < acked;
                let loc =
                    Location { segment: self.active, offset: base + r.buf_offset, len: r.len };
                match (r.meta, r.kind) {
                    (StagedKind::Host, RecordKind::Put) => {
                        stats.host_bytes += r.len;
                        stats.put_records += 1;
                        if ack {
                            ix.apply_put(r.key, loc);
                            stats.acked_puts += 1;
                        }
                    }
                    (StagedKind::Host, RecordKind::Tombstone) => {
                        stats.host_bytes += r.len;
                        stats.tombstone_records += 1;
                        if ack {
                            ix.apply_tombstone(r.key, self.active, r.len);
                            stats.acked_removes += 1;
                        }
                    }
                    (StagedKind::GcPut { from }, _) => {
                        stats.gc_bytes += r.len;
                        ix.relocate(r.key, from, loc);
                    }
                    (StagedKind::GcTombstone, _) => {
                        stats.gc_bytes += r.len;
                        ix.apply_gc_tombstone(self.active, r.len);
                    }
                }
            }
        }
        if cut.is_some() {
            return Err(StoreError::Crashed);
        }
        self.active_bytes += self.group.bytes();
        self.group.clear(&mut self.spent);
        if !self.spent.is_empty() {
            self.intake.with_side(|pool| pool.recycle(&mut self.spent));
            self.spent.clear();
        }
        Ok(())
    }

    /// One compaction pass: pick the deadest sealed segment, rewrite what
    /// is still needed from it (live puts; tombstones that still shadow an
    /// older put elsewhere), then delete it. Rewritten bytes are the GC
    /// half of the measured write amplification.
    ///
    /// A pass reads what it rewrites, not what it deletes. Pass 1 walks
    /// the victim's record headers ([`walk_headers`]); pass 2 fetches each
    /// put the index still points at — one [`Backend::read_lent`] of that
    /// record, copied into the writer's scratch buffer only by a backend
    /// that cannot lend it — and runs it through the full
    /// [`decode_record`] ([`verified_put`]) before it is staged as read —
    /// the record format holds no location, so the verified bytes are what
    /// re-encoding the payload would produce, and the payload is
    /// checksummed once, not twice. So every byte copied forward was
    /// checksum-verified on the bytes actually read, and every header in
    /// the victim was verified, but the payloads of dead puts are never
    /// read: a flipped bit in garbage no longer fails the pass, it is
    /// deleted with the rest of the segment. [`CompactReport::read_bytes`]
    /// counts the traffic, and is what would show a return to
    /// whole-segment reads.
    fn compact_once(&mut self) -> Result<CompactReport, StoreError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let report = self.compact_through(&mut scratch);
        self.scratch = scratch;
        report
    }

    /// [`Writer::compact_once`] with the read buffer lent out, so a record
    /// lent from it can be staged (`&mut self`) straight from the lend.
    fn compact_through(&mut self, scratch: &mut Vec<u8>) -> Result<CompactReport, StoreError> {
        let victim = self.shared.index.lock().0.deadest_segment();
        let Some((victim, _)) = victim else {
            return Ok(CompactReport::default());
        };

        // Pass 1: every record's key, kind and place from the headers,
        // then count how many put records for each key live *in this
        // segment* (any version), so pass 2 can tell whether a tombstone
        // still shadows a put in some other segment.
        let (records, victim_len) = walk_headers(self.backend.as_ref(), victim, scratch)?;
        let mut puts_here: FxHashMap<u64, u32> = FxHashMap::default();
        for &(key, kind, ..) in &records {
            if kind == RecordKind::Put {
                *puts_here.entry(key).or_insert(0) += 1;
            }
        }

        // Pass 2: rewrite what must survive, streamed through the same
        // group-commit buffer as the host path. Relocations are applied
        // when each group lands — safe because this writer thread is the
        // only index mutator, so the stage-time liveness decisions cannot
        // go stale before the flush.
        let mut report = CompactReport {
            victim: Some(victim),
            read_bytes: SEGMENT_HEADER_LEN + (HEADER_LEN * records.len()) as u64,
            ..CompactReport::default()
        };
        for (key, kind, offset, len) in records {
            let from = Location { segment: victim, offset, len };
            match kind {
                RecordKind::Put => {
                    let is_current = self.shared.index.lock().0.get(key) == Some(from);
                    if is_current {
                        let record =
                            self.backend.read_lent(victim, offset, len as usize, scratch)?;
                        report.read_bytes += len;
                        verified_put(&record, key).map_err(|found| {
                            StoreError::Corrupt(format!(
                                "compaction victim {victim}, offset {offset}: {found}"
                            ))
                        })?;
                        self.make_room()?;
                        self.group.stage_framed_put(key, &record, StagedKind::GcPut { from });
                        report.rewritten_bytes += len;
                        report.rewritten_records += 1;
                    }
                }
                RecordKind::Tombstone => {
                    let shadows_elsewhere = {
                        let (ix, _) = &*self.shared.index.lock();
                        ix.get(key).is_none()
                            && ix.puts_on_disk(key) > puts_here.get(&key).copied().unwrap_or(0)
                    };
                    if shadows_elsewhere {
                        self.make_room()?;
                        let kind = RecordKind::Tombstone;
                        self.group.stage_inline(key, kind, &[], StagedKind::GcTombstone);
                        report.rewritten_bytes += len;
                        report.rewritten_records += 1;
                    }
                }
            }
        }
        // Land the tail group (and its relocations) before the victim can
        // be deleted out from under still-pointing index entries.
        self.flush_group()?;

        // Reclaim: exclusive `io` so no reader holds a location into the
        // victim across its deletion.
        {
            let _io = self.shared.io.write();
            self.backend.delete(victim)?;
            let (ix, stats) = &mut *self.shared.index.lock();
            ix.forget_segment(victim, &puts_here);
            stats.compactions += 1;
            stats.segments_deleted += 1;
            stats.rewritten_records += report.rewritten_records;
            stats.gc_read_bytes += report.read_bytes;
        }
        report.reclaimed_bytes = victim_len.saturating_sub(report.rewritten_bytes);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::with_watchdog;
    use crate::backend::MemBackend;
    use crate::fault::{CrashAt, NoStoreFaults, StoreFaultPlan};
    use crate::record::encode_record;
    use std::sync::atomic::AtomicU64;

    fn cfg(segment_bytes: u64) -> StoreConfig {
        StoreConfig { segment_bytes, queue_depth: 8, compact_trigger: None, ..Default::default() }
    }

    fn open_mem(backend: &MemBackend, cfg: StoreConfig) -> (SegmentStore, RecoveryReport) {
        SegmentStore::open(Arc::new(backend.clone()), cfg, Arc::new(NoStoreFaults)).expect("open")
    }

    fn payload(key: u64, len: usize) -> Vec<u8> {
        let word = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
        (0..len).map(|i| word[i % 8]).collect()
    }

    fn segment_bytes(backend: &MemBackend, seg: SegmentId) -> Vec<u8> {
        let mut bytes = Vec::new();
        backend.read_into(seg, 0, backend.len(seg).unwrap() as usize, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn put_get_remove_round_trip() {
        let backend = MemBackend::new();
        let (store, rec) = open_mem(&backend, cfg(1 << 20));
        assert_eq!(rec, RecoveryReport::default());
        for k in 0..100u64 {
            store.put(k, &payload(k, 64 + (k as usize % 32))).unwrap();
        }
        store.remove(17).unwrap();
        store.flush().unwrap();
        assert_eq!(store.get(3).unwrap().unwrap(), payload(3, 67));
        assert_eq!(store.get(17).unwrap(), None);
        assert_eq!(store.get(1000).unwrap(), None);
        let s = store.stats();
        assert_eq!(s.acked_puts, 100);
        assert_eq!(s.acked_removes, 1);
        assert_eq!(s.live_records, 99);
        assert_eq!(s.gc_bytes, 0);
        assert!((s.write_amplification() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segments_roll_and_recovery_rebuilds_the_index() {
        let backend = MemBackend::new();
        let entries = {
            let (store, _) = open_mem(&backend, cfg(2_000));
            for k in 0..200u64 {
                store.put(k, &payload(k, 100)).unwrap();
            }
            for k in 0..50u64 {
                store.remove(k).unwrap();
            }
            store.flush().unwrap();
            assert!(store.stats().segments > 3, "tiny segments must roll");
            store.live_entries()
        }; // store dropped = clean shutdown

        let (reopened, rec) = open_mem(&backend, cfg(2_000));
        assert!(!rec.torn_tail);
        assert_eq!(rec.live_records, 150);
        assert_eq!(reopened.live_entries(), entries, "recovery must rebuild the exact index");
        assert_eq!(reopened.get(10).unwrap(), None, "tombstones survive recovery");
        assert_eq!(reopened.get(60).unwrap().unwrap(), payload(60, 100));
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_reports_wa() {
        let backend = MemBackend::new();
        let (store, _) = open_mem(&backend, cfg(4_000));
        for k in 0..200u64 {
            store.put(k, &payload(k, 100)).unwrap();
        }
        // Overwrite the first half: their old records go dead.
        for k in 0..100u64 {
            store.put(k, &payload(k, 80)).unwrap();
        }
        store.flush().unwrap();
        let before = store.stats();
        assert!(before.segments > 2);

        let mut rewritten = 0u64;
        let mut compactions = 0;
        while compactions < 10 {
            let r = store.compact().unwrap();
            let Some(_) = r.victim else { break };
            rewritten += r.rewritten_bytes;
            compactions += 1;
            if store.stats().segments <= 2 {
                break;
            }
        }
        let after = store.stats();
        assert!(after.compactions > 0);
        assert_eq!(after.gc_bytes, rewritten);
        assert!(after.write_amplification() > 1.0, "rewrites must show up as WA");
        // Every key still readable with its latest value.
        for k in 0..200u64 {
            let want = if k < 100 { payload(k, 80) } else { payload(k, 100) };
            assert_eq!(store.get(k).unwrap().unwrap(), want, "key {k}");
        }
        // And the store still recovers cleanly after compaction.
        let entries = store.live_entries();
        drop(store);
        let (reopened, rec) = open_mem(&backend, cfg(4_000));
        assert!(!rec.torn_tail);
        assert_eq!(reopened.live_entries().len(), entries.len());
        for k in 0..200u64 {
            let want = if k < 100 { payload(k, 80) } else { payload(k, 100) };
            assert_eq!(reopened.get(k).unwrap().unwrap(), want, "post-recovery key {k}");
        }
    }

    #[test]
    fn tombstones_still_shadowing_older_puts_are_rewritten() {
        let backend = MemBackend::new();
        // Tiny segments: each handful of records rolls a segment.
        let (store, _) = open_mem(&backend, cfg(300));
        store.put(1, &payload(1, 100)).unwrap(); // seg A
        store.put(2, &payload(2, 100)).unwrap();
        store.put(3, &payload(3, 100)).unwrap(); // rolls
        store.remove(1).unwrap(); // tombstone lands in a later segment
        store.put(4, &payload(4, 100)).unwrap();
        store.put(5, &payload(5, 100)).unwrap();
        store.flush().unwrap();

        // Compact until only the active segment remains (or progress stops);
        // at every intermediate state key 1 must stay deleted.
        for _ in 0..20 {
            let r = store.compact().unwrap();
            if r.victim.is_none() {
                break;
            }
            assert_eq!(store.get(1).unwrap(), None, "tombstone must not be lost");
        }
        let entries = store.live_entries();
        drop(store);
        let (reopened, _) = open_mem(&backend, cfg(300));
        assert_eq!(reopened.get(1).unwrap(), None, "deletion survives recovery after GC");
        assert_eq!(reopened.live_entries().len(), entries.len());
    }

    #[test]
    fn auto_compaction_triggers_on_dead_fraction() {
        let backend = MemBackend::new();
        let cfg = StoreConfig {
            segment_bytes: 2_000,
            queue_depth: 8,
            compact_trigger: Some(0.5),
            ..Default::default()
        };
        let (store, _) =
            SegmentStore::open(Arc::new(backend.clone()), cfg, Arc::new(NoStoreFaults))
                .expect("open");
        // Heavy overwrite churn on a small key range: most sealed bytes
        // die. One unique pin key per round stays live forever, so every
        // sealed segment (17 records at this size) holds at least one live
        // record and any compaction victim must rewrite something.
        for round in 0..20u64 {
            store.put(1_000 + round, &payload(round, 100)).unwrap();
            for k in 0..10u64 {
                store.put(k, &payload(k ^ round, 100)).unwrap();
            }
        }
        store.flush().unwrap();
        let s = store.stats();
        assert!(s.compactions > 0, "auto-compaction must have fired: {s:?}");
        assert!(s.segments_deleted > 0);
        assert!(s.write_amplification() > 1.0);
        assert!(
            s.segments < s.segments_created,
            "space must be reclaimed: {} segments of {} created",
            s.segments,
            s.segments_created
        );
    }

    #[test]
    fn reads_of_just_acknowledged_keys_race_appends_rolls_and_compaction() {
        // A reader loops `get_into` over the keys acknowledged last, whose
        // records sit in the active segment and the one just sealed, while
        // the writer appends, rolls and auto-compacts under it. Every read
        // must pass `verified_put` and return the bytes that were put (a
        // key's payload never changes, so any of its versions will do).
        let backend = MemBackend::new();
        let cfg = StoreConfig {
            segment_bytes: 4_000,
            queue_depth: 8,
            compact_trigger: Some(0.3),
            group_records: 4,
            ..Default::default()
        };
        let (store, _) = open_mem(&backend, cfg);
        let value = |key: u64| payload(key, 40 + (key as usize * 37) % 200);
        let acked = AtomicU64::new(0);
        let passes = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut out, mut reads) = (Vec::new(), 0u64);
                while !done.load(Ordering::Acquire) {
                    let n = acked.load(Ordering::Acquire);
                    for key in (n.saturating_sub(12)..n).map(|i| i % 97) {
                        match store.get_into(key, &mut out) {
                            Ok(true) => assert_eq!(out, value(key), "key {key}"),
                            other => panic!("acknowledged key {key} read as {other:?}"),
                        }
                        reads += 1;
                    }
                    passes.fetch_add(1, Ordering::Release);
                }
                reads
            });
            for i in 0..3_000u64 {
                store.put(i % 97, &value(i % 97)).unwrap();
                if i % 6 == 5 {
                    store.flush().unwrap();
                    acked.store(i + 1, Ordering::Release);
                    // Let the reader start a pass over what was just acked
                    // before the writer moves on, however busy the host.
                    let seen = passes.load(Ordering::Acquire);
                    while passes.load(Ordering::Acquire) < seen + 2 && !reader.is_finished() {
                        std::thread::yield_now();
                    }
                }
            }
            done.store(true, Ordering::Release);
            reader.join().expect("reader")
        });
        let s = store.stats();
        assert!(s.compactions >= 10 && s.segments_created >= 50, "{s:?}");
        assert!(reads >= 10_000, "the reader ran alongside: {reads} reads");
    }

    #[test]
    fn crash_between_append_and_index_update_loses_only_the_ack() {
        let backend = MemBackend::new();
        let plan = CrashAt { seq: 10, torn_tail: 0 };
        let (store, _) =
            SegmentStore::open(Arc::new(backend.clone()), cfg(1 << 20), Arc::new(plan))
                .expect("open");
        for k in 0..100u64 {
            if store.put(k, &payload(k, 50)).is_err() {
                break;
            }
        }
        // Wait for the writer to die; puts eventually fail.
        while !store.is_crashed() {
            std::thread::yield_now();
        }
        assert!(store.put(999, b"x").is_err());
        let stats = store.stats();
        assert_eq!(stats.acked_puts, 10, "exactly the pre-crash appends are acked");
        drop(store);

        // Recovery sees the 11th record (durably appended, never acked).
        let (reopened, rec) = open_mem(&backend, cfg(1 << 20));
        assert!(!rec.torn_tail);
        assert_eq!(rec.live_records, 11);
        assert_eq!(reopened.get(10).unwrap().unwrap(), payload(10, 50));
    }

    #[test]
    fn flush_enqueued_around_a_crash_errors_instead_of_hanging() {
        // Regression: a `Cmd::Flush` buffered in the channel when the
        // writer crashes must have its reply sender dropped by the crash
        // drain — otherwise the caller's recv() waits forever on a reply
        // that can never come.
        for seq in 0..6u64 {
            let backend = MemBackend::new();
            let plan = CrashAt { seq, torn_tail: 0 };
            let (store, _) =
                SegmentStore::open(Arc::new(backend.clone()), cfg(1 << 20), Arc::new(plan))
                    .expect("open");
            // Fill the queue past the crash point, then race a flush in.
            for k in 0..8u64 {
                if store.put(k, &payload(k, 40)).is_err() {
                    break;
                }
            }
            assert!(store.flush().is_err(), "flush after crash at seq {seq}");
            assert!(matches!(store.compact(), Err(StoreError::Crashed)));
            assert!(store.is_crashed());
        }
    }

    #[test]
    fn removing_a_key_that_was_never_put_is_a_durable_no_op() {
        let backend = MemBackend::new();
        let (store, _) = open_mem(&backend, cfg(1 << 20));
        store.remove(42).unwrap();
        store.put(1, &payload(1, 30)).unwrap();
        store.remove(42).unwrap();
        store.flush().unwrap();
        assert_eq!(store.get(42).unwrap(), None);
        let s = store.stats();
        assert_eq!(s.acked_removes, 2);
        assert_eq!(s.live_records, 1);
        drop(store);
        // The tombstones are real records: recovery replays them cleanly.
        let (reopened, rec) = open_mem(&backend, cfg(1 << 20));
        assert!(!rec.torn_tail);
        assert_eq!(rec.live_records, 1);
        assert_eq!(reopened.get(42).unwrap(), None);
        assert_eq!(reopened.get(1).unwrap().unwrap(), payload(1, 30));
    }

    #[test]
    fn torn_tail_record_is_truncated_on_recovery() {
        let backend = MemBackend::new();
        let plan = CrashAt { seq: 5, torn_tail: 7 }; // tear 7 bytes off record 5
        let (store, _) =
            SegmentStore::open(Arc::new(backend.clone()), cfg(1 << 20), Arc::new(plan))
                .expect("open");
        for k in 0..100u64 {
            if store.put(k, &payload(k, 50)).is_err() {
                break;
            }
        }
        while !store.is_crashed() {
            std::thread::yield_now();
        }
        drop(store);

        let (reopened, rec) = open_mem(&backend, cfg(1 << 20));
        assert!(rec.torn_tail, "the partial record must be detected");
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.live_records, 5, "torn record 5 is gone; 0..=4 survive");
        assert_eq!(reopened.get(4).unwrap().unwrap(), payload(4, 50));
        assert_eq!(reopened.get(5).unwrap(), None);
        // The repaired log is clean: a third open sees no tear.
        drop(reopened);
        let (_, rec2) = open_mem(&backend, cfg(1 << 20));
        assert!(!rec2.torn_tail);
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_silent_truncation() {
        let backend = MemBackend::new();
        {
            let (store, _) = open_mem(&backend, cfg(500));
            for k in 0..50u64 {
                store.put(k, &payload(k, 60)).unwrap();
            }
            store.flush().unwrap();
        }
        // Flip a byte in the middle of the FIRST segment (not the newest).
        let segments = backend.list().unwrap();
        assert!(segments.len() > 2);
        let first = segments[0];
        let mut bytes = segment_bytes(&backend, first);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        backend.truncate(first, 0).unwrap();
        backend.append(first, &bytes).unwrap();

        let err = SegmentStore::open(Arc::new(backend.clone()), cfg(500), Arc::new(NoStoreFaults))
            .expect_err("mid-log corruption must fail the scan");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn oversized_payload_is_rejected_at_the_door() {
        let backend = MemBackend::new();
        let (store, _) = open_mem(&backend, cfg(1 << 20));
        let big = vec![0u8; MAX_PAYLOAD as usize + 1];
        assert!(matches!(store.put(1, &big), Err(StoreError::PayloadTooLarge(_))));
    }

    #[test]
    fn mid_group_crash_recovers_exactly_the_acked_prefix() {
        // Whatever way the queue batches commands into write groups, a
        // crash at seam tick `seq` must ack exactly `seq` records and
        // recovery must see `seq + 1` (the crash record lands but is
        // never acked). Exercise crash points that fall at group
        // boundaries and strictly inside groups.
        for &seq in &[0u64, 1, 7, 8, 9, 20, 33] {
            let backend = MemBackend::new();
            let plan = CrashAt { seq, torn_tail: 0 };
            let grouped = StoreConfig {
                segment_bytes: 1 << 20,
                queue_depth: 16,
                compact_trigger: None,
                group_records: 8,
                ..Default::default()
            };
            let (store, _) = SegmentStore::open(Arc::new(backend.clone()), grouped, Arc::new(plan))
                .expect("open");
            for k in 0..40u64 {
                if store.put(k, &payload(k, 48)).is_err() {
                    break;
                }
            }
            while !store.is_crashed() {
                std::thread::yield_now();
            }
            assert_eq!(store.stats().acked_puts, seq, "acked prefix at seq {seq}");
            drop(store);

            let (reopened, rec) = open_mem(&backend, grouped);
            assert!(!rec.torn_tail);
            assert_eq!(rec.live_records, seq + 1, "recovered records at seq {seq}");
            if seq > 0 {
                assert_eq!(reopened.get(seq - 1).unwrap().unwrap(), payload(seq - 1, 48));
            }
        }
    }

    #[test]
    fn mid_group_torn_tail_drops_only_the_crash_record() {
        let backend = MemBackend::new();
        let plan = CrashAt { seq: 11, torn_tail: u64::MAX }; // full tear inside a group
        let grouped = StoreConfig {
            segment_bytes: 1 << 20,
            queue_depth: 16,
            compact_trigger: None,
            group_records: 8,
            ..Default::default()
        };
        let (store, _) =
            SegmentStore::open(Arc::new(backend.clone()), grouped, Arc::new(plan)).expect("open");
        for k in 0..40u64 {
            if store.put(k, &payload(k, 48)).is_err() {
                break;
            }
        }
        while !store.is_crashed() {
            std::thread::yield_now();
        }
        drop(store);
        let (reopened, rec) = open_mem(&backend, grouped);
        // A whole-record tear leaves a clean log: no torn tail to repair.
        assert!(!rec.torn_tail);
        assert_eq!(rec.live_records, 11, "crash record fully torn away");
        assert_eq!(reopened.get(10).unwrap().unwrap(), payload(10, 48));
        assert_eq!(reopened.get(11).unwrap(), None);
    }

    #[test]
    fn get_into_reuses_the_caller_buffer() {
        let backend = MemBackend::new();
        let (store, _) = open_mem(&backend, cfg(1 << 20));
        store.put(1, &payload(1, 100)).unwrap();
        store.put(2, &payload(2, 40)).unwrap();
        store.flush().unwrap();
        let mut out = Vec::new();
        assert!(store.get_into(1, &mut out).unwrap());
        assert_eq!(out, payload(1, 100));
        // A shorter payload must not leave stale tail bytes behind.
        assert!(store.get_into(2, &mut out).unwrap());
        assert_eq!(out, payload(2, 40));
        assert!(!store.get_into(3, &mut out).unwrap());
        assert!(out.is_empty(), "missing key clears the buffer");
    }

    /// A seeded mixed workload: puts of 0..700 bytes (empty payloads
    /// included), removes and two explicit compactions over a small key
    /// space, flushed and closed. `frame_here` picks who frames each put
    /// (`None`: the intake's backpressure signal). Returns an FNV-1a digest
    /// of every segment's id, length and bytes in id order, and how many
    /// puts the caller and the writer framed.
    fn run_pinned_workload(
        queue_depth: usize,
        frame_here: impl Fn(u64) -> Option<bool>,
    ) -> (u64, [u64; 2]) {
        let backend = MemBackend::new();
        let cfg = StoreConfig {
            segment_bytes: 6_000,
            queue_depth,
            compact_trigger: None,
            group_records: 8,
            ..Default::default()
        };
        let (store, _) = open_mem(&backend, cfg);
        let mut framed_by = [0u64; 2];
        let mut z = 0x0000_5EED_5EED_5EED_u64;
        for step in 0..300u64 {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            let key = (z >> 8) % 48;
            match z % 20 {
                0..=12 => {
                    let len = if z.is_multiple_of(7) { 0 } else { ((z >> 20) % 700) as usize };
                    let bytes = payload(key ^ step, len);
                    let here = store
                        .put_framed_by(key, len, |dst| dst.copy_from_slice(&bytes), frame_here(z))
                        .unwrap();
                    framed_by[usize::from(!here)] += 1;
                }
                _ => store.remove(key).unwrap(),
            }
            if step == 150 || step == 260 {
                let report = store.compact().unwrap();
                assert!(report.rewritten_records > 0, "compaction must move records");
            }
        }
        store.flush().unwrap();
        assert!(store.stats().segments > 5, "the workload must roll segments");
        drop(store);

        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for seg in backend.list().unwrap() {
            let bytes = segment_bytes(&backend, seg);
            eat(&seg.to_le_bytes());
            eat(&(bytes.len() as u64).to_le_bytes());
            eat(&bytes);
        }
        (digest, framed_by)
    }

    #[test]
    fn segment_bytes_are_pinned_at_every_queue_depth() {
        // Recorded before the put path stopped copying payloads into a
        // staging buffer: the same command sequence must leave the same
        // bytes on the device however commands batch into groups and
        // whichever side frames each put.
        const PINNED: u64 = 0xE376_E583_9B7E_D116;
        for queue_depth in [1usize, 2, 8, 64] {
            // Sides pinned per put by a bit of the op stream...
            let (digest, [caller, writer]) =
                run_pinned_workload(queue_depth, |z| Some(z & (1 << 40) != 0));
            assert_eq!(digest, PINNED, "queue_depth {queue_depth}, pinned sides");
            assert!(caller > 0 && writer > 0, "both sides must frame: {caller} / {writer}");
            // ... and chosen by the intake, as `put` does.
            let (digest, _) = run_pinned_workload(queue_depth, |_| None);
            assert_eq!(digest, PINNED, "queue_depth {queue_depth}, intake-chosen sides");
        }
    }

    /// A fault plan that holds the writer at the seam (just before a
    /// group's append) while closed, says when it is held there, and then
    /// crashes the writer at that record if `crash` is set.
    #[derive(Debug)]
    struct Gate {
        closed: AtomicBool,
        writer_held: AtomicBool,
        crash: bool,
    }

    impl Gate {
        fn closed(crash: bool) -> Arc<Self> {
            Arc::new(Gate {
                closed: AtomicBool::new(true),
                writer_held: AtomicBool::new(false),
                crash,
            })
        }

        fn wait_until_held(&self) {
            while !self.writer_held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }

        fn open(&self) {
            self.closed.store(false, Ordering::SeqCst);
        }
    }

    impl StoreFaultPlan for Gate {
        fn crash_after_append(&self, _seq: u64) -> bool {
            while self.closed.load(Ordering::SeqCst) {
                self.writer_held.store(true, Ordering::SeqCst);
                std::thread::yield_now();
            }
            self.crash
        }
    }

    /// Whether the store's intake is in a backpressure episode: a push has
    /// parked on a full intake since the writer last found it empty.
    fn intake_backpressure(store: &SegmentStore) -> bool {
        store.intake().unwrap().with_side(|_, backpressure| backpressure)
    }

    /// Bytes the store's record-buffer pool holds.
    fn pooled_bytes(store: &SegmentStore) -> usize {
        store.intake().unwrap().with_side(|pool, _| pool.bytes)
    }

    #[test]
    fn the_caller_frames_under_backpressure_and_the_writer_otherwise() {
        let gate = Gate::closed(false);
        let cfg = StoreConfig { queue_depth: 2, ..cfg(1 << 20) };
        let plan: Arc<dyn StoreFaultPlan> = gate.clone();
        let (store, _) = SegmentStore::open(Arc::new(MemBackend::new()), cfg, plan).expect("open");
        let fill = |key: u64| move |dst: &mut [u8]| dst.copy_from_slice(&payload(key, 40));

        // No push has waited yet: the writer frames. It then runs dry,
        // goes to land the group and is held at the gate.
        assert!(!store.put_framed_by(1, 40, fill(1), None).unwrap());
        gate.wait_until_held();
        std::thread::scope(|scope| {
            // With the writer held, two puts fill the intake and the third
            // waits for space, which opens a backpressure episode that
            // cannot end before the gate opens.
            scope.spawn(|| {
                for key in 2..=4u64 {
                    store.put(key, &payload(key, 40)).unwrap();
                }
            });
            while !intake_backpressure(&store) {
                std::thread::yield_now();
            }
            // So this put finds the flag set and frames its own record; its
            // fill runs after that decision and lets the writer go.
            let here = store.put_framed_by(
                5,
                40,
                |dst| {
                    fill(5)(dst);
                    gate.open();
                },
                None,
            );
            assert!(here.unwrap(), "a put under backpressure is framed by its caller");
        });
        store.flush().unwrap();
        for key in 1..=5u64 {
            assert_eq!(store.get(key).unwrap().unwrap(), payload(key, 40), "key {key}");
        }
    }

    /// One intake slot: the writer is held landing the first put, the
    /// second fills the slot and the third parks on it. When the held
    /// record crashes the writer, the parked put must return `Crashed`: not
    /// hang, and not `Ok` for a command nobody will ever apply.
    #[test]
    fn a_put_blocked_on_a_full_intake_returns_when_the_writer_crashes() {
        with_watchdog(|| {
            let gate = Gate::closed(true);
            let cfg = StoreConfig { queue_depth: 1, ..cfg(1 << 20) };
            let plan: Arc<dyn StoreFaultPlan> = gate.clone();
            let (store, _) =
                SegmentStore::open(Arc::new(MemBackend::new()), cfg, plan).expect("open");
            store.put(1, &payload(1, 40)).unwrap();
            gate.wait_until_held();
            store.put(2, &payload(2, 40)).unwrap();
            std::thread::scope(|scope| {
                let blocked = scope.spawn(|| store.put(3, &payload(3, 40)));
                while !intake_backpressure(&store) {
                    std::thread::yield_now();
                }
                gate.open();
                let r = blocked.join().expect("blocked put");
                assert!(matches!(r, Err(StoreError::Crashed)), "{r:?}");
            });
            assert!(store.is_crashed());
            assert_eq!(store.stats().acked_puts, 0, "the crash record is never acked");
        });
    }

    /// A store dropped while its writer is held, with one put in the write
    /// group and the intake full behind it, lands every staged put before
    /// the writer exits: a reopen sees them all. The drop may reach the
    /// writer's join before or after the gate opens; either way nothing
    /// staged is lost.
    #[test]
    fn a_store_dropped_with_a_full_intake_lands_every_staged_put() {
        with_watchdog(|| {
            let backend = MemBackend::new();
            let gate = Gate::closed(false);
            let cfg = StoreConfig { queue_depth: 4, ..cfg(1 << 20) };
            let plan: Arc<dyn StoreFaultPlan> = gate.clone();
            let (store, _) =
                SegmentStore::open(Arc::new(backend.clone()), cfg, plan).expect("open");
            store.put(0, &payload(0, 40)).unwrap();
            gate.wait_until_held();
            for key in 1..=4u64 {
                store.put(key, &payload(key, 40)).unwrap();
            }
            std::thread::scope(|scope| {
                scope.spawn(move || drop(store));
                gate.open();
            });
            let (reopened, rec) = open_mem(&backend, cfg);
            assert_eq!(rec.live_records, 5);
            for key in 0..=4u64 {
                assert_eq!(reopened.get(key).unwrap().unwrap(), payload(key, 40), "key {key}");
            }
        });
    }

    /// Once the writer has crashed, every entry point refuses with
    /// `Crashed`: nothing is staged for a writer that will never run.
    #[test]
    fn every_call_after_a_crash_returns_crashed() {
        with_watchdog(|| {
            let plan = CrashAt { seq: 0, torn_tail: 0 };
            let (store, _) =
                SegmentStore::open(Arc::new(MemBackend::new()), cfg(1 << 20), Arc::new(plan))
                    .expect("open");
            store.put(1, &payload(1, 40)).unwrap();
            while !store.is_crashed() {
                std::thread::yield_now();
            }
            assert!(matches!(store.put(2, b"x"), Err(StoreError::Crashed)));
            assert!(matches!(store.put_with(3, 1, |dst| dst[0] = 3), Err(StoreError::Crashed)));
            assert!(matches!(store.remove(1), Err(StoreError::Crashed)));
            assert!(matches!(store.flush(), Err(StoreError::Crashed)));
            assert!(matches!(store.compact(), Err(StoreError::Crashed)));
        });
    }

    #[test]
    fn checkout_reuses_the_smallest_buffer_that_is_long_enough() {
        let mut pool = BufferPool::new(1_000, 8);
        let mut spent = vec![vec![1u8; 100], vec![2u8; 300], vec![3u8; 200]];
        pool.recycle(&mut spent);
        assert!(spent.iter().all(Vec::is_empty), "everything fit");
        assert_eq!(pool.bytes, 600);
        // Stale contents and full length come back: no zero-fill, no realloc.
        assert_eq!(pool.checkout(150), Some(vec![3u8; 200]));
        // Nothing pooled is long enough; the short ones stay for shorter
        // records.
        assert_eq!(pool.checkout(301), None);
        assert_eq!(pool.bytes, 400);
        assert_eq!(pool.checkout(0), Some(vec![1u8; 100]));
        assert_eq!(pool.checkout(0), Some(vec![2u8; 300]));
        assert_eq!(pool.bytes, 0);
    }

    #[test]
    fn recycle_leaves_what_exceeds_the_byte_or_count_bound() {
        let mut pool = BufferPool::new(1_000, 3);
        let mut spent = vec![vec![0u8; 600], vec![0u8; 600], vec![0u8; 300]];
        pool.recycle(&mut spent);
        assert_eq!(pool.bytes, 900, "the second 600 would pass 1000 bytes");
        assert_eq!(spent.iter().map(Vec::len).collect::<Vec<_>>(), [0, 600, 0], "left to free");
        let mut spent = vec![vec![0u8; 10], vec![0u8; 10]];
        pool.recycle(&mut spent);
        assert_eq!(pool.bytes, 910, "the count bound of 3 stops the fourth buffer");
        assert_eq!(spent[1].len(), 10);
    }

    #[test]
    fn the_buffer_pool_stays_inside_its_byte_bound() {
        let backend = MemBackend::new();
        let cfg = cfg(1 << 20);
        let bound = 4 * cfg.group_bytes as usize;
        let (store, _) = open_mem(&backend, cfg);
        // Records at the payload cap are far larger than the whole pool:
        // their buffers are freed, never pooled.
        for key in 0..2u64 {
            store.put_with(key, MAX_PAYLOAD as usize, |dst| dst[..8].fill(key as u8)).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(pooled_bytes(&store), 0);
        // A burst of ordinary records hands back more than the pool keeps.
        for key in 0..400u64 {
            store.put(key, &payload(key, 20_000 + (key as usize * 997) % 40_000)).unwrap();
        }
        store.flush().unwrap();
        let pooled = pooled_bytes(&store);
        assert!(pooled > 0 && pooled <= bound, "pool holds {pooled} of {bound} bytes");
        assert_eq!(store.stats().acked_puts, 402);
    }

    /// A writer driven by hand instead of by its thread: commands apply in
    /// call order, so what lands in one write group is exact.
    fn bare_writer(backend: &MemBackend, cfg: StoreConfig, plan: CrashAt) -> Writer {
        let backend: Arc<dyn Backend> = Arc::new(backend.clone());
        create_segment(backend.as_ref(), 0).unwrap();
        let mut index = StoreIndex::new();
        index.add_segment(0);
        let shared = Arc::new(Shared {
            index: Mutex::new((index, StoreStats::default())),
            io: RwLock::new(()),
            crashed: AtomicBool::new(false),
        });
        Writer {
            backend,
            shared,
            intake: intake::bounded(cfg.queue_depth, BufferPool::new(0, 0)).1,
            cfg,
            faults: Arc::new(plan),
            active: 0,
            active_bytes: 0,
            seq: 0,
            group: GroupBuffer::new(),
            spent: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// A put command as a caller pushes it: in a buffer longer than the
    /// record, framed by the caller for odd keys and left to the writer
    /// for even ones.
    fn put_cmd(key: u64, len: usize) -> Cmd {
        let framed = key % 2 == 1;
        let len = HEADER_LEN + len;
        let mut buf = vec![0xEE; len + 13];
        buf[HEADER_LEN..len].copy_from_slice(&payload(key, len - HEADER_LEN));
        if framed {
            frame_in_place(key, RecordKind::Put, &mut buf[..len]);
        }
        Cmd::Put { key, buf, len, framed }
    }

    #[test]
    fn crash_cut_lands_at_the_same_byte_wherever_it_falls_in_a_group() {
        // One landed group, then a six-record group mixing puts and
        // tombstones. The seam cuts after record `at` of the second group
        // and tears `torn` bytes: the segment must end exactly at the crash
        // record's end minus the tear (clamped to that record), and
        // recovery must see the acked prefix plus the crash record only
        // when it survived whole.
        let lens = |payloads: &[Option<usize>]| -> Vec<u64> {
            payloads.iter().map(|p| (HEADER_LEN + p.unwrap_or(0)) as u64).collect()
        };
        let first = [Some(90), Some(10)];
        let second = [Some(120), None, None, Some(64), Some(300), None];
        for at in [0usize, 2, 3, 5] {
            for torn in [0u64, 17, u64::MAX] {
                let backend = MemBackend::new();
                let seq = (first.len() + at) as u64;
                let mut w = bare_writer(&backend, cfg(1 << 20), CrashAt { seq, torn_tail: torn });
                let mut key = 0u64;
                let mut apply = |w: &mut Writer, p: Option<usize>| {
                    key += 1;
                    let cmd = p.map_or(Cmd::Remove { key }, |len| put_cmd(key, len));
                    assert!(w.handle(cmd).is_ok());
                };
                for p in first {
                    apply(&mut w, p);
                }
                assert!(w.flush_group().is_ok());
                for p in second {
                    apply(&mut w, p);
                }
                assert!(matches!(w.flush_group(), Err(StoreError::Crashed)));

                let landed: u64 = lens(&first).iter().chain(&lens(&second)[..=at]).sum();
                let crash_len = lens(&second)[at];
                let want = SEGMENT_HEADER_LEN + landed - torn.min(crash_len);
                assert_eq!(backend.len(0).unwrap(), want, "at {at} torn {torn}");
                let stats = w.shared.index.lock().1;
                assert_eq!(stats.acked_puts + stats.acked_removes, seq);
                // The crash record is appended traffic, whole, even when torn.
                assert_eq!(stats.put_records + stats.tombstone_records, seq + 1);
                assert_eq!(stats.host_bytes, landed, "at {at} torn {torn}");
                drop(w);

                let (_, rec) = open_mem(&backend, cfg(1 << 20));
                let whole = torn == 0;
                assert_eq!(rec.records, seq + u64::from(whole), "at {at} torn {torn}");
                assert_eq!(rec.torn_tail, !whole && torn < crash_len, "at {at} torn {torn}");
            }
        }
    }

    /// A listing whose newest segment is the last id leaves no id for the
    /// new active segment. Wrapping to segment 0 acked new writes there,
    /// behind every older segment, and the next open failed to create
    /// segment 0 again, so those writes could never be read.
    #[test]
    fn a_listing_that_ends_at_the_last_segment_id_is_refused_at_open() {
        let backend = MemBackend::new();
        create_segment(&backend, SegmentId::MAX).unwrap();
        let mut record = Vec::new();
        encode_record(7, RecordKind::Put, &payload(7, 30), &mut record);
        backend.append(SegmentId::MAX, &record).unwrap();
        let opened =
            SegmentStore::open(Arc::new(backend.clone()), cfg(1 << 20), Arc::new(NoStoreFaults));
        assert!(matches!(opened, Err(StoreError::Corrupt(_))), "{opened:?}");
        assert_eq!(backend.list().unwrap(), [SegmentId::MAX], "a refused open creates nothing");
    }

    /// A roll out of the last segment id takes the writer down: the puts
    /// landed before it stay acked and readable, the one that needed the
    /// new segment is never acked, and no segment 0 appears.
    #[test]
    fn a_roll_past_the_last_segment_id_crashes_the_writer_instead_of_wrapping() {
        let backend = MemBackend::new();
        create_segment(&backend, SegmentId::MAX - 1).unwrap();
        let (store, _) = open_mem(&backend, cfg(150));
        for key in 0..3u64 {
            // 121-byte records: the third reaches the 150-byte roll threshold.
            let _ = store.put(key, &payload(key, 100));
        }
        assert!(matches!(store.flush(), Err(StoreError::Crashed)));
        // The second flush fails only once the writer has let its intake
        // go, which it does after marking the store crashed.
        assert!(matches!(store.flush(), Err(StoreError::Crashed)));
        assert!(store.is_crashed());
        let s = store.stats();
        assert_eq!((s.acked_puts, s.segments_created), (2, 1), "{s:?}");
        assert_eq!(store.get(1).unwrap().unwrap(), payload(1, 100));
        assert_eq!(store.get(2).unwrap(), None);
        drop(store);
        assert_eq!(backend.list().unwrap(), [SegmentId::MAX - 1, SegmentId::MAX]);
    }

    #[test]
    fn parallel_recovery_matches_sequential() {
        let backend = MemBackend::new();
        {
            let (store, _) = open_mem(&backend, cfg(1_500));
            for k in 0..300u64 {
                store.put(k % 80, &payload(k, 64)).unwrap();
                if k % 7 == 0 {
                    store.remove(k % 40).unwrap();
                }
            }
            store.flush().unwrap();
        }
        let seq_cfg = StoreConfig { recovery_threads: 1, ..cfg(1_500) };
        let par_cfg = StoreConfig { recovery_threads: 4, ..cfg(1_500) };
        let (seq_store, seq_rec) = open_mem(&backend, seq_cfg);
        let seq_entries = seq_store.live_entries();
        drop(seq_store);
        let (par_store, par_rec) = open_mem(&backend, par_cfg);
        // The two opens each add a fresh active segment, so reports line
        // up one segment apart; everything else must be identical.
        assert_eq!(par_rec.records, seq_rec.records);
        assert_eq!(par_rec.live_records, seq_rec.live_records);
        assert_eq!(par_rec.torn_tail, seq_rec.torn_tail);
        assert_eq!(par_store.live_entries(), seq_entries, "index must be byte-identical");
    }
}
