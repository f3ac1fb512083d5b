//! Property suite for recovery equivalence: the parallel segment scanner
//! must rebuild an index **byte-identical** to the sequential one across
//! random segment layouts, group-commit sizes, torn tails, compaction
//! relocations, and tombstone shadowing. Two devices are built
//! *independently* through the same deterministic op stream (never cloned
//! — opening a store repairs torn tails and creates a fresh active
//! segment, so a shared device would let the first open perturb the
//! second), then one is recovered with a single scan thread and the other
//! with several. A last rung holds compaction to being logically
//! invisible: the same op stream with and without interleaved passes reads
//! back the same key → payload map, before and after a reopen.

use otae_store::{
    Backend, MemBackend, NoStoreFaults, SegmentStore, StoreConfig, SEGMENT_HEADER_LEN,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One workload step: `true` is a put of `len` deterministic bytes, keyed
/// into a small space so overwrites and tombstone shadowing are common.
type Op = (bool, u8, u16);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((any::<bool>(), 0u8..24, 0u16..400), 1..120)
}

fn payload(key: u64, step: usize, len: u16) -> Vec<u8> {
    (0..len as usize).map(|i| (key as usize ^ step.wrapping_mul(31) ^ i) as u8).collect()
}

fn cfg(segment_bytes: u64, group_records: usize, recovery_threads: usize) -> StoreConfig {
    StoreConfig {
        segment_bytes,
        group_records,
        recovery_threads,
        queue_depth: 16,
        compact_trigger: None,
        ..StoreConfig::default()
    }
}

/// Apply `ops` to `store` in order, with one explicit compaction pass after
/// every `compact_every` of them (0 = none), then flush.
fn apply_ops(store: &SegmentStore, ops: &[Op], compact_every: usize) {
    for (step, &(is_put, key, len)) in ops.iter().enumerate() {
        if is_put {
            store.put(key as u64, &payload(key as u64, step, len)).expect("put");
        } else {
            store.remove(key as u64).expect("remove");
        }
        if compact_every > 0 && (step + 1) % compact_every == 0 {
            store.compact().expect("compact");
        }
    }
    store.flush().expect("flush");
}

/// Drive `ops` (plus `compact_passes` explicit compactions) into a fresh
/// in-memory device and return it with the store dropped — the on-device
/// bytes a crashed process would leave behind, optionally with `chop`
/// bytes torn off the newest segment's tail.
fn build_device(
    ops: &[Op],
    segment_bytes: u64,
    group_records: usize,
    compact_passes: usize,
    chop: u64,
) -> MemBackend {
    let backend = MemBackend::new();
    let (store, _) = SegmentStore::open(
        Arc::new(backend.clone()),
        cfg(segment_bytes, group_records, 1),
        Arc::new(NoStoreFaults),
    )
    .expect("build open");
    apply_ops(&store, ops, 0);
    for _ in 0..compact_passes {
        store.compact().expect("compact");
    }
    drop(store);

    if chop > 0 {
        let segs = backend.list().expect("list");
        if let Some(&newest) = segs.iter().max() {
            let len = backend.len(newest).expect("len");
            let cut = chop.min(len.saturating_sub(SEGMENT_HEADER_LEN));
            backend.truncate(newest, len - cut).expect("tear tail");
        }
    }
    backend
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential (1 thread) and parallel (4 threads) recovery over
    /// identical devices produce identical reports, identical live
    /// indexes, and identical readable bytes.
    #[test]
    fn parallel_recovery_is_byte_identical_to_sequential(
        ops in arb_ops(),
        segment_bytes in 400u64..4_000,
        group_records in 1usize..33,
        compact_passes in 0usize..3,
        chop in 0u64..600,
    ) {
        let seq_dev = build_device(&ops, segment_bytes, group_records, compact_passes, chop);
        let par_dev = build_device(&ops, segment_bytes, group_records, compact_passes, chop);

        let (seq_store, seq_report) = SegmentStore::open(
            Arc::new(seq_dev.clone()),
            cfg(segment_bytes, group_records, 1),
            Arc::new(NoStoreFaults),
        ).expect("sequential recovery");
        let (par_store, par_report) = SegmentStore::open(
            Arc::new(par_dev.clone()),
            cfg(segment_bytes, group_records, 4),
            Arc::new(NoStoreFaults),
        ).expect("parallel recovery");

        prop_assert_eq!(seq_report, par_report, "recovery reports must match");

        let seq_entries = seq_store.live_entries();
        let par_entries = par_store.live_entries();
        prop_assert_eq!(
            &seq_entries, &par_entries,
            "live index (keys and locations) must be byte-identical"
        );

        // The indexes agree on *where* records live; confirm they agree on
        // the bytes too by reading every live key through both stores.
        for &(key, _) in &seq_entries {
            let a = seq_store.get(key).expect("seq get");
            let b = par_store.get(key).expect("par get");
            prop_assert_eq!(a, b, "payload mismatch for key {}", key);
        }
    }

    /// Thread-count sweep: every thread count from 1 to 8 (more threads
    /// than segments included) rebuilds the same index.
    #[test]
    fn any_thread_count_recovers_the_same_index(
        ops in arb_ops(),
        segment_bytes in 400u64..2_000,
    ) {
        let reference = {
            let dev = build_device(&ops, segment_bytes, 8, 0, 0);
            let (store, report) = SegmentStore::open(
                Arc::new(dev),
                cfg(segment_bytes, 8, 1),
                Arc::new(NoStoreFaults),
            ).expect("reference recovery");
            (report, store.live_entries())
        };
        for threads in 2usize..9 {
            let dev = build_device(&ops, segment_bytes, 8, 0, 0);
            let (store, report) = SegmentStore::open(
                Arc::new(dev),
                cfg(segment_bytes, 8, threads),
                Arc::new(NoStoreFaults),
            ).expect("sweep recovery");
            prop_assert_eq!(&reference.0, &report, "report differs at {} threads", threads);
            prop_assert_eq!(
                &reference.1, &store.live_entries(),
                "index differs at {} threads", threads
            );
        }
    }

    /// Compaction is logically invisible: a store compacted every few ops
    /// and one never compacted answer every key alike — absent, or the
    /// same bytes — while open and again after a reopen, whatever the
    /// passes moved, dropped or deleted underneath.
    #[test]
    fn compaction_is_logically_invisible(
        ops in arb_ops(),
        segment_bytes in 400u64..2_000,
        group_records in 1usize..33,
        compact_every in 1usize..12,
    ) {
        let open = |backend: &MemBackend| {
            SegmentStore::open(
                Arc::new(backend.clone()),
                cfg(segment_bytes, group_records, 1),
                Arc::new(NoStoreFaults),
            ).expect("open").0
        };
        let read_all = |store: &SegmentStore| -> Vec<Option<Vec<u8>>> {
            (0..24).map(|key| store.get(key).expect("get")).collect()
        };
        let (plain_dev, compacted_dev) = (MemBackend::new(), MemBackend::new());
        let (plain, compacted) = (open(&plain_dev), open(&compacted_dev));
        apply_ops(&plain, &ops, 0);
        apply_ops(&compacted, &ops, compact_every);
        let want = read_all(&plain);
        prop_assert_eq!(&read_all(&compacted), &want, "while open");
        drop((plain, compacted));
        prop_assert_eq!(&read_all(&open(&plain_dev)), &want, "uncompacted device reopened");
        prop_assert_eq!(&read_all(&open(&compacted_dev)), &want, "compacted device reopened");
    }
}

/// Compaction must not resurrect a removed key. A put rewritten out of a
/// compaction victim is a put on disk wherever it lands; if it is not
/// counted there, the tombstone that later removes the key is judged to
/// shadow nothing, dropped when *its* segment is compacted, and the
/// rewritten put comes back at the next reopen.
#[test]
fn compaction_does_not_resurrect_a_removed_key() {
    let backend = MemBackend::new();
    let open = || {
        SegmentStore::open(Arc::new(backend.clone()), cfg(1_000, 1, 1), Arc::new(NoStoreFaults))
            .expect("open")
    };
    let (store, _) = open();
    let put = |key: u64| store.put(key, &payload(key, 0, 200)).expect("put");

    // Segment A: key 1 plus four keys that segment B then overwrites, so A
    // is nearly dead and its one live record, key 1, is what compaction
    // rewrites — into B, the active segment.
    for key in [1, 10, 11, 12, 13, 10, 11, 12, 13] {
        put(key);
    }
    store.flush().expect("flush");
    let first = store.compact().expect("compact A");
    assert_eq!(first.rewritten_records, 1, "key 1 is A's only live record");

    // Roll to segment C and remove key 1 there: its rewritten put in B is
    // now a dead record that only C's tombstone shadows. Overwrites of one
    // key make C the deadest sealed segment once D becomes active.
    for key in [20, 1, 30, 30, 30, 30, 40] {
        if key == 1 {
            store.remove(1).expect("remove");
        } else {
            put(key);
        }
    }
    store.flush().expect("flush");
    let second = store.compact().expect("compact C");
    assert_eq!(
        second.rewritten_records, 3,
        "keys 20 and 30 are live, and the tombstone still shadows key 1's put in B"
    );

    assert_eq!(store.get(1).expect("get"), None);
    let live_before = store.live_entries().len() as u64;
    drop(store);

    let (reopened, report) = open();
    assert_eq!(reopened.get(1).expect("get"), None, "a removed key stays removed");
    assert_eq!(report.live_records, live_before);
}
