//! What the recovery scan reads, to the byte. The scan walks each segment
//! record by record — segment header, then per record its header and the
//! whole record — so `RecoveryReport::read_bytes` is
//! `SEGMENT_HEADER_LEN + Σ (HEADER_LEN + record length)` per clean segment.
//! A backend wrapper counts what `read_into` actually returned and the
//! largest single read: a scan that went back to reading whole segments
//! fails here on both counts. The report, `read_bytes` included, is the
//! same at every scan thread count.

use otae_store::{
    decode_record, Backend, MemBackend, NoStoreFaults, RecoveryReport, SegmentId, SegmentStore,
    StoreConfig, StoreError, HEADER_LEN, SEGMENT_HEADER_LEN,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`MemBackend`] that counts the bytes its reads return.
#[derive(Debug, Default)]
struct Counting {
    inner: MemBackend,
    read_bytes: AtomicU64,
    largest_read: AtomicU64,
}

impl Backend for Counting {
    fn create(&self, seg: SegmentId) -> Result<(), StoreError> {
        self.inner.create(seg)
    }
    fn append_vectored(&self, seg: SegmentId, parts: &[&[u8]]) -> Result<(), StoreError> {
        self.inner.append_vectored(seg, parts)
    }
    fn read_into(
        &self,
        seg: SegmentId,
        offset: u64,
        len: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.inner.read_into(seg, offset, len, buf)?;
        self.read_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.largest_read.fetch_max(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }
    fn len(&self, seg: SegmentId) -> Result<u64, StoreError> {
        self.inner.len(seg)
    }
    fn truncate(&self, seg: SegmentId, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(seg, len)
    }
    fn delete(&self, seg: SegmentId) -> Result<(), StoreError> {
        self.inner.delete(seg)
    }
    fn list(&self) -> Result<Vec<SegmentId>, StoreError> {
        self.inner.list()
    }
}

fn cfg(recovery_threads: usize) -> StoreConfig {
    StoreConfig {
        segment_bytes: 3_000,
        queue_depth: 16,
        compact_trigger: None,
        group_records: 8,
        recovery_threads,
        ..StoreConfig::default()
    }
}

fn bytes_of(backend: &dyn Backend, seg: SegmentId) -> Vec<u8> {
    let mut bytes = Vec::new();
    backend.read_into(seg, 0, backend.len(seg).expect("len") as usize, &mut bytes).expect("read");
    bytes
}

/// Puts of 0..400 bytes, overwrites and removes over 30 keys, closed
/// cleanly: several sealed segments and a newest one that ends in a put.
fn device() -> MemBackend {
    let backend = MemBackend::new();
    let (store, _) = SegmentStore::open(Arc::new(backend.clone()), cfg(1), Arc::new(NoStoreFaults))
        .expect("open");
    let mut z = 0x0BAD_5EED_0000_0001_u64;
    for step in 0..200u64 {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        let key = (z >> 8) % 30;
        if z.is_multiple_of(4) {
            store.remove(key).expect("remove");
        } else {
            let len = ((z >> 20) % 400) as usize;
            store.put(key, &vec![step as u8; len]).expect("put");
        }
    }
    store.put(99, &[7; 120]).expect("put");
    store.flush().expect("flush");
    drop(store);
    backend
}

/// A counting device of its own holding `src`'s segments.
fn counting_copy(src: &MemBackend) -> Arc<Counting> {
    let dst = Arc::new(Counting::default());
    for seg in src.list().expect("list") {
        dst.inner.create(seg).expect("create");
        dst.inner.append(seg, &bytes_of(src, seg)).expect("append");
    }
    dst
}

/// `SEGMENT_HEADER_LEN + Σ (HEADER_LEN + record length)` over every
/// segment, and the longest record, by decoding the bytes directly.
fn expected_reads(src: &MemBackend) -> (u64, u64) {
    let (mut total, mut longest) = (0u64, 0u64);
    for seg in src.list().expect("list") {
        let bytes = bytes_of(src, seg);
        total += SEGMENT_HEADER_LEN;
        let mut offset = SEGMENT_HEADER_LEN as usize;
        while offset < bytes.len() {
            let (_, len) = decode_record(&bytes[offset..]).expect("clean segment");
            total += HEADER_LEN as u64 + len;
            longest = longest.max(len);
            offset += len as usize;
        }
    }
    (total, longest)
}

fn reopen(device: &Arc<Counting>, threads: usize) -> RecoveryReport {
    let backend: Arc<dyn Backend> = device.clone();
    SegmentStore::open(backend, cfg(threads), Arc::new(NoStoreFaults)).expect("reopen").1
}

#[test]
fn a_clean_scan_reads_each_header_and_each_record_once() {
    let src = device();
    assert!(src.list().expect("list").len() >= 5, "the workload must roll segments");
    let (want, longest) = expected_reads(&src);
    let device = counting_copy(&src);
    let report = reopen(&device, 1);
    assert!(!report.torn_tail);
    assert_eq!(report.read_bytes, want);
    // The open's own reads are the scan's: nothing else is read, and no
    // single read is longer than a record.
    assert_eq!(device.read_bytes.load(Ordering::Relaxed), want);
    assert_eq!(device.largest_read.load(Ordering::Relaxed), longest);
    assert!(longest < src.len(0).expect("len") / 2, "a record is a small part of a segment");
}

#[test]
fn a_torn_tail_costs_what_was_read_of_it() {
    let src = device();
    let newest = *src.list().expect("list").last().expect("segments");
    let (clean, _) = expected_reads(&src);
    let tail = bytes_of(&src, newest);
    let mut offset = SEGMENT_HEADER_LEN as usize;
    let mut last = (0, 0);
    while offset < tail.len() {
        let (_, len) = decode_record(&tail[offset..]).expect("clean segment");
        last = (offset as u64, len);
        offset += len as usize;
    }
    let (last_at, last_len) = last;
    assert!(last_len > HEADER_LEN as u64 + 1, "the newest segment ends in a put");
    // Cut inside the last record's header: the scan reads the stub and
    // stops. Cut inside its payload: the header, and no more.
    for (cut_to, read_of_last) in [(last_at + 9, 9), (last_at + last_len - 1, HEADER_LEN as u64)] {
        let device = counting_copy(&src);
        device.inner.truncate(newest, cut_to).expect("tear");
        let report = reopen(&device, 2);
        assert!(report.torn_tail, "cut to {cut_to}");
        assert_eq!(report.truncated_bytes, cut_to - last_at);
        let want = clean - (HEADER_LEN as u64 + last_len) + read_of_last;
        assert_eq!(report.read_bytes, want, "cut to {cut_to}");
        assert_eq!(device.read_bytes.load(Ordering::Relaxed), want, "cut to {cut_to}");
    }
}

#[test]
fn the_report_is_the_same_at_every_thread_count() {
    let src = device();
    let reference = reopen(&counting_copy(&src), 1);
    assert!(reference.read_bytes > 0);
    for threads in 2..6 {
        assert_eq!(reopen(&counting_copy(&src), threads), reference, "{threads} threads");
    }
}
