//! Optional segment-store backing under the shards.
//!
//! With a store enabled, every admitted miss writes the object's actual
//! bytes (a deterministic pattern of the object's real size) into a
//! per-shard [`SegmentStore`], and every eviction appends a tombstone.
//! Bypassed misses write **nothing** — which is the paper's entire point:
//! the bytes the admission gate refuses are bytes the flash never
//! programs. The stores' measured byte counters (host appends + compaction
//! rewrites) feed the SSD wear model as a [`WearLedger`], replacing the
//! simulator's synthetic `bytes_written` with an observed write stream.
//!
//! Store operations are pure side effects of the admission decision: the
//! decision stream is bit-identical with the store on or off, which the
//! harness's differential oracle asserts.

use crate::shard::splitmix64_finalizer;
use otae_device::WearLedger;
use otae_store::intake::IntakeStats;
use otae_store::{
    FileBackend, MemBackend, NoStoreFaults, SegmentStore, StoreConfig, StoreError, StoreStats,
    MAX_PAYLOAD,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Where the service persists admitted objects' bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StoreMode {
    /// No store: admission is accounted but nothing is persisted (the
    /// pre-store service behaviour).
    #[default]
    None,
    /// Deterministic in-memory backend — no filesystem involved, used by
    /// the harness's differential and recovery oracles.
    Memory,
    /// Real segment files under per-shard subdirectories of this root.
    Disk(PathBuf),
}

impl StoreMode {
    /// Whether a store is attached at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, StoreMode::None)
    }
}

/// One shard's store handle plus its error tally. Lives inside the shard
/// and is driven by the shard's owning worker, so store traffic is ordered
/// exactly like the shard's decision stream.
pub(crate) struct ShardStore {
    store: SegmentStore,
    errors: u64,
}

impl ShardStore {
    /// Build one store per shard. Memory mode cannot fail; disk mode
    /// surfaces backend I/O errors to the caller (which degrades to
    /// storeless serving rather than unwinding).
    pub(crate) fn build(
        mode: &StoreMode,
        cfg: StoreConfig,
        shards: usize,
    ) -> Result<Vec<ShardStore>, StoreError> {
        let mut out = Vec::with_capacity(shards);
        for shard in 0..shards {
            let store = match mode {
                StoreMode::None => return Ok(Vec::new()),
                StoreMode::Memory => {
                    SegmentStore::open(Arc::new(MemBackend::new()), cfg, Arc::new(NoStoreFaults))?.0
                }
                StoreMode::Disk(root) => {
                    let backend = FileBackend::new(root.join(format!("shard-{shard:02}")))?;
                    SegmentStore::open(Arc::new(backend), cfg, Arc::new(NoStoreFaults))?.0
                }
            };
            out.push(ShardStore { store, errors: 0 });
        }
        Ok(out)
    }

    /// Persist an admitted object: a deterministic payload of its real
    /// size (clamped to the record cap), so recovery oracles can verify
    /// content, not just presence. The bytes are generated straight into
    /// the store's record buffer.
    pub(crate) fn on_admit(&mut self, key: u64, size: u64) {
        let len = size.min(MAX_PAYLOAD as u64) as usize;
        if self.store.put_with(key, len, |dst| fill_payload_slice(key, dst)).is_err() {
            self.errors += 1;
        }
    }

    /// Record an eviction as a tombstone (the dead bytes it strands are
    /// what compaction later reclaims — and re-writes, which is the
    /// measured write amplification).
    pub(crate) fn on_evict(&mut self, key: u64) {
        if self.store.remove(key).is_err() {
            self.errors += 1;
        }
    }

    /// Drain the write queue so `snapshot` sees every acknowledged byte.
    pub(crate) fn flush(&mut self) {
        if self.store.flush().is_err() {
            self.errors += 1;
        }
    }

    pub(crate) fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot { stats: self.store.stats(), errors: self.errors }
    }

    /// The store's command-intake counters. Timing-dependent, so never part
    /// of the [`StoreSnapshot`] that differential oracles compare.
    pub(crate) fn intake_stats(&self) -> IntakeStats {
        self.store.intake_stats()
    }
}

/// Merged store statistics across all shards, reported in the service
/// [`Snapshot`](crate::shard::Snapshot) when a store is attached.
// lint: merge-exhaustive
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreSnapshot {
    /// Measured store counters (appends, compactions, live set), summed
    /// over shards.
    pub stats: StoreStats,
    /// Store operations that failed (0 in healthy runs; non-zero only
    /// after a store crash or backend I/O error).
    pub errors: u64,
}

impl StoreSnapshot {
    /// Fold another shard's store snapshot into this one. The full
    /// destructure means a new field cannot be added without this merge
    /// accounting for it.
    pub fn merge(&mut self, other: &StoreSnapshot) {
        let StoreSnapshot { stats, errors } = *other;
        self.stats.merge(&stats);
        self.errors += errors;
    }

    /// Measured write amplification of the combined stores.
    pub fn write_amplification(&self) -> f64 {
        self.stats.write_amplification()
    }

    /// The combined write stream in the wear model's ingestion format.
    pub fn wear_ledger(&self) -> WearLedger {
        self.stats.wear_ledger()
    }
}

/// Deterministic payload for object `key`: the SplitMix64 finalizer of the
/// key, repeated as little-endian words to `len` bytes. Cheap to generate,
/// unique per object, and reproducible anywhere (the recovery oracle
/// recomputes it to verify read-back content).
///
/// Grows `buf` by `extend_from_within` rather than sizing it and calling
/// `fill_payload_slice`: a reused `Vec` would first be zero-filled up to
/// `len`, a second pass over bytes about to be overwritten.
pub fn fill_payload(key: u64, len: usize, buf: &mut Vec<u8>) {
    let word = splitmix64_finalizer(key).to_le_bytes();
    buf.clear();
    buf.reserve(len);
    buf.extend_from_slice(&word[..len.min(8)]);
    // Double the written prefix (always whole words, so the pattern stays
    // in phase) instead of appending word by word, then copy the partial
    // remainder from the front.
    while buf.len() < len {
        let n = buf.len().min(len - buf.len());
        buf.extend_from_within(..n);
    }
}

/// [`fill_payload`] over memory that already exists: overwrite all of
/// `dst` with the payload of `key` at length `dst.len()`. What the shard
/// hands `SegmentStore::put_with`.
pub(crate) fn fill_payload_slice(key: u64, dst: &mut [u8]) {
    let word = splitmix64_finalizer(key).to_le_bytes();
    let mut filled = dst.len().min(8);
    dst[..filled].copy_from_slice(&word[..filled]);
    // The same doubling, in place.
    while filled < dst.len() {
        let n = filled.min(dst.len() - filled);
        dst.copy_within(..n, filled);
        filled += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_sized() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for len in [0usize, 1, 7, 8, 9, 64, 1000] {
            fill_payload(42, len, &mut a);
            fill_payload(42, len, &mut b);
            assert_eq!(a.len(), len);
            assert_eq!(a, b);
        }
        fill_payload(1, 64, &mut a);
        fill_payload(2, 64, &mut b);
        assert_ne!(a, b, "different keys must differ");
    }

    #[test]
    fn payload_bytes_equal_the_word_loop_at_every_length() {
        // The fill this replaced; stored payloads and every oracle that
        // recomputes them depend on these exact bytes.
        fn word_loop(key: u64, len: usize, buf: &mut Vec<u8>) {
            let mut z = key;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let word = z.to_le_bytes();
            buf.clear();
            while buf.len() + 8 <= len {
                buf.extend_from_slice(&word);
            }
            buf.extend_from_slice(&word[..len - buf.len()]);
        }
        let (mut got, mut want) = (vec![0xEE; 100], Vec::new());
        for len in (0..=4096).chain([(64 << 10) - 1, 64 << 10, (64 << 10) + 1]) {
            let key = 0x9E37_79B9 ^ len as u64;
            fill_payload(key, len, &mut got);
            word_loop(key, len, &mut want);
            assert_eq!(got, want, "len {len}");
            // The in-place form writes the same bytes over stale ones.
            let mut in_place = vec![0xEE; len];
            fill_payload_slice(key, &mut in_place);
            assert_eq!(in_place, want, "slice form, len {len}");
        }
    }

    #[test]
    fn memory_stores_absorb_admits_and_evicts() {
        let mut stores =
            ShardStore::build(&StoreMode::Memory, StoreConfig::default(), 2).expect("memory");
        assert_eq!(stores.len(), 2);
        stores[0].on_admit(7, 500);
        stores[0].on_admit(8, 300);
        stores[0].on_evict(7);
        stores[1].on_admit(9, 100);
        let mut merged = StoreSnapshot::default();
        let mut intake = IntakeStats::default();
        for s in &mut stores {
            s.flush();
            merged.merge(&s.snapshot());
            intake.merge(&s.intake_stats());
        }
        // Three commands and a flush on the first shard, one and a flush on
        // the other; each shard's writer took at least one batch.
        assert_eq!(intake.pushes, 4 + 2);
        assert!((2..=6).contains(&intake.batches), "{intake:?}");
        assert_eq!(merged.stats.acked_puts, 3);
        assert_eq!(merged.stats.acked_removes, 1);
        assert_eq!(merged.stats.live_records, 2);
        assert_eq!(merged.errors, 0);
        assert!(merged.stats.host_bytes > 900);
        assert_eq!(merged.wear_ledger().host_bytes(), merged.stats.host_bytes);
    }

    #[test]
    fn none_mode_builds_no_stores() {
        let stores = ShardStore::build(&StoreMode::None, StoreConfig::default(), 4).expect("none");
        assert!(stores.is_empty());
        assert!(!StoreMode::None.is_enabled());
        assert!(StoreMode::Memory.is_enabled());
    }

    #[test]
    fn oversized_objects_are_clamped_not_errored() {
        let mut stores =
            ShardStore::build(&StoreMode::Memory, StoreConfig::default(), 1).expect("memory");
        stores[0].on_admit(1, MAX_PAYLOAD as u64 + 10_000);
        stores[0].flush();
        let snap = stores[0].snapshot();
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.stats.acked_puts, 1);
    }
}
