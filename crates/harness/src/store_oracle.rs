//! Crash-fault schedules and differential checks for the segment store.
//!
//! Two oracles:
//!
//! 1. **Recovery** — a deterministic operation stream is applied to a
//!    [`SegmentStore`] over a *shared* [`MemBackend`] with a scripted
//!    [`CrashAt`] plan that kills the writer between the durable append
//!    and the index update (optionally tearing tail bytes off the active
//!    segment). The same backend is then reopened and the rebuilt index is
//!    compared against the fold of the operations the writer acknowledged
//!    before dying — plus, when the tear spared it, the single in-flight
//!    record. An append-only store may lose its in-flight record; losing
//!    an acknowledged one (or resurrecting a removed key) fails the case.
//!
//! 2. **Differential** — the serve differential rungs repeated with a
//!    memory store attached: decisions must be bit-identical to the
//!    storeless run for every admission mode, and the store's measured
//!    counters must reconcile exactly with the cache's decision counters.

use crate::plan::{splitmix64, FaultSchedule};
use crate::run::{case_trace, HarnessFailure};
use otae_core::pipeline::{Mode, PolicyKind};
use otae_core::ReaccessIndex;
use otae_serve::{
    fill_payload, serve_trace_with_index, LoadConfig, ServeConfig, StoreMode, TrainerMode,
};
use otae_store::{
    CrashAt, MemBackend, NoStoreFaults, SegmentStore, StoreConfig, StoreError, StoreFaultPlan,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn fail(seed: u64, message: String) -> HarnessFailure {
    HarnessFailure { seed, schedule: FaultSchedule::clean(), message }
}

/// One operation of the deterministic store workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreOp {
    Put { key: u64, len: usize },
    Remove { key: u64 },
}

/// A seeded mixed workload over a small key space (so removes hit live
/// keys and compaction has dead bytes to chase).
fn workload(seed: u64, ops: usize) -> Vec<StoreOp> {
    let mut state = seed ^ 0x5EED0F5106;
    (0..ops)
        .map(|_| {
            let r = splitmix64(&mut state);
            let key = r % 64;
            if r % 5 == 4 {
                StoreOp::Remove { key }
            } else {
                StoreOp::Put { key, len: 40 + (r % 400) as usize }
            }
        })
        .collect()
}

/// Fold `ops` into the expected live map (key → payload length).
fn fold(ops: &[StoreOp]) -> BTreeMap<u64, usize> {
    let mut live = BTreeMap::new();
    for op in ops {
        match *op {
            StoreOp::Put { key, len } => {
                live.insert(key, len);
            }
            StoreOp::Remove { key } => {
                live.remove(&key);
            }
        }
    }
    live
}

/// Apply `ops` to a fresh store over `backend` under `faults`, flushing at
/// the end (a crashed flush is expected and ignored).
fn apply(
    backend: MemBackend,
    cfg: StoreConfig,
    faults: Arc<dyn StoreFaultPlan>,
    ops: &[StoreOp],
) -> Result<SegmentStore, StoreError> {
    let (store, _) = SegmentStore::open(Arc::new(backend), cfg, faults)?;
    let mut buf = Vec::new();
    for op in ops {
        let r = match *op {
            StoreOp::Put { key, len } => {
                fill_payload(key, len, &mut buf);
                store.put(key, &buf)
            }
            StoreOp::Remove { key } => store.remove(key),
        };
        if matches!(r, Err(StoreError::Crashed)) {
            break; // writer died mid-schedule: the crash under test
        }
        r?;
    }
    let _ = store.flush(); // Err(Crashed) is the expected outcome here
    Ok(store)
}

/// Check a reopened store's index + contents against the expected live
/// map.
fn check_recovered(
    seed: u64,
    label: &str,
    store: &SegmentStore,
    expected: &BTreeMap<u64, usize>,
) -> Result<(), HarnessFailure> {
    let live = store.live_entries();
    if live.len() != expected.len() {
        return Err(fail(
            seed,
            format!(
                "store-recovery[{label}]: rebuilt index has {} keys, expected {} \
                 (index {:?}, expected {:?})",
                live.len(),
                expected.len(),
                live.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                expected.keys().collect::<Vec<_>>()
            ),
        ));
    }
    let mut buf = Vec::new();
    for (&key, &len) in expected {
        let got = store
            .get(key)
            .map_err(|e| fail(seed, format!("store-recovery[{label}]: get({key}) failed: {e}")))?;
        let Some(payload) = got else {
            return Err(fail(
                seed,
                format!("store-recovery[{label}]: acknowledged key {key} lost"),
            ));
        };
        fill_payload(key, len, &mut buf);
        if payload != buf {
            return Err(fail(
                seed,
                format!(
                    "store-recovery[{label}]: key {key} content mismatch \
                     ({} bytes, expected {len})",
                    payload.len()
                ),
            ));
        }
    }
    Ok(())
}

/// The recovery oracle: crash the writer at several points in a seeded
/// workload — clean kill, partial tear, full tear of the in-flight record
/// — reopen the surviving bytes, and require the rebuilt index to equal
/// the acknowledged prefix (plus the in-flight record exactly when the
/// tear spared it).
pub fn store_recovery_oracle(seed: u64) -> Result<(), HarnessFailure> {
    let ops = workload(seed, 300);
    let cfg = StoreConfig {
        segment_bytes: 4096, // small segments: crashes land on segment 3+
        queue_depth: 8,
        compact_trigger: None, // compaction moves records; crash points stay put
        ..StoreConfig::default()
    };

    // A baseline un-crashed run must recover everything.
    let device = MemBackend::new();
    let store = apply(device.clone(), cfg, Arc::new(NoStoreFaults), &ops)
        .map_err(|e| fail(seed, format!("store-recovery[clean]: apply failed: {e}")))?;
    let all = fold(&ops);
    check_recovered(seed, "clean-pre", &store, &all)?;
    drop(store); // clean shutdown
    let (reopened, report) =
        SegmentStore::open(Arc::new(device.clone()), cfg, Arc::new(NoStoreFaults))
            .map_err(|e| fail(seed, format!("store-recovery[clean]: reopen failed: {e}")))?;
    if report.torn_tail {
        return Err(fail(
            seed,
            "store-recovery[clean]: clean shutdown reported a torn tail".into(),
        ));
    }
    check_recovered(seed, "clean", &reopened, &all)?;
    drop(reopened);

    // Crash schedules: at an early, middle and late append, with the
    // in-flight record left whole, partially torn, and fully torn. The
    // grid runs three times: with the default group-commit shape; with
    // tiny 7-record groups so the crash seqs land strictly *inside* write
    // groups — the mid-group kill rung, which must recover exactly the
    // acked prefix (plus the crash record when its tail survives whole),
    // identically to the record-at-a-time contract; and with a one-slot
    // intake, where nearly every push parks on the full intake, so the
    // crash lands among records their callers framed rather than the
    // writer, and the put parked when it fires returns `Crashed`.
    let grouped = StoreConfig { group_records: 7, ..cfg };
    let one_slot = StoreConfig { queue_depth: 1, ..cfg };
    for (tag, cfg) in [("", cfg), ("mid-group ", grouped), ("one-slot ", one_slot)] {
        for &crash_seq in &[5u64, 150, 295] {
            for &torn in &[0u64, 17, u64::MAX] {
                let label = format!("{tag}seq {crash_seq} torn {torn}");
                let device = MemBackend::new();
                let plan = CrashAt { seq: crash_seq, torn_tail: torn };
                let crashed = apply(device.clone(), cfg, Arc::new(plan), &ops).map_err(|e| {
                    fail(seed, format!("store-recovery[{label}]: apply failed: {e}"))
                })?;
                // However commands were batched into groups, only the
                // pre-crash ops may be acknowledged.
                let stats = crashed.stats();
                if stats.acked_puts + stats.acked_removes != crash_seq {
                    return Err(fail(
                        seed,
                        format!(
                            "store-recovery[{label}]: {} ops acked, expected exactly \
                             the {crash_seq} pre-crash ops",
                            stats.acked_puts + stats.acked_removes
                        ),
                    ));
                }
                // Dropping the crashed store joins its (dead) writer thread.
                drop(crashed);

                let (recovered, report) =
                    SegmentStore::open(Arc::new(device.clone()), cfg, Arc::new(NoStoreFaults))
                        .map_err(|e| {
                            fail(seed, format!("store-recovery[{label}]: reopen failed: {e}"))
                        })?;
                // Acked prefix = ops before the crash append; the crash op
                // itself survives iff the tear left it whole (torn == 0 —
                // partial and full tears both destroy the record). With
                // compaction off, every surviving op is exactly one record
                // on disk, so the replay count also proves the schedule bit.
                let mut surviving = crash_seq as usize;
                if torn == 0 {
                    surviving += 1;
                }
                if report.records != surviving as u64 {
                    return Err(fail(
                        seed,
                        format!(
                            "store-recovery[{label}]: {} records survived, expected \
                             {surviving} (report {report:?})",
                            report.records
                        ),
                    ));
                }
                // A partial tear leaves a detectable half-record; a whole
                // or fully-torn tail leaves a clean log end.
                let partial = torn != 0 && torn != u64::MAX;
                if report.torn_tail != partial {
                    return Err(fail(
                        seed,
                        format!(
                            "store-recovery[{label}]: torn_tail {} but a {} tear \
                             (report {report:?})",
                            report.torn_tail,
                            if partial { "partial" } else { "whole-record or no" }
                        ),
                    ));
                }
                let expected = fold(&ops[..surviving]);
                check_recovered(seed, &label, &recovered, &expected)?;
            }
        }
    }
    Ok(())
}

/// The store differential: for every admission mode, a 1×1 serve run with
/// a memory store attached must fingerprint bit-identically to the
/// storeless run, with the store's acked counters reconciling exactly
/// against the decision counters; an N=4 concurrent rung must conserve
/// the same reconciliation.
pub fn differential_store(seed: u64, n_objects: usize) -> Result<(), HarnessFailure> {
    let trace = case_trace(seed, n_objects);
    let index = ReaccessIndex::build(&trace);
    let capacity = ((trace.unique_bytes() as f64 * 0.02) as u64).max(1);

    for mode in [Mode::Original, Mode::Ideal, Mode::Proposal, Mode::SecondHit] {
        let storeless = ServeConfig::new(PolicyKind::Lru, mode, capacity);
        let mut stored = ServeConfig::new(PolicyKind::Lru, mode, capacity);
        stored.store = StoreMode::Memory;
        let a = serve_trace_with_index(&trace, &index, &storeless, &LoadConfig::default());
        let b = serve_trace_with_index(&trace, &index, &stored, &LoadConfig::default());
        if b.fingerprint() != a.fingerprint() {
            return Err(fail(
                seed,
                format!(
                    "differential-store[{mode:?}]: attaching the store changed decisions\n  \
                     storeless: {:?}\n  stored:    {:?}",
                    a.fingerprint(),
                    b.fingerprint()
                ),
            ));
        }
        let Some(store) = b.snapshot.store else {
            return Err(fail(
                seed,
                format!("differential-store[{mode:?}]: store snapshot missing"),
            ));
        };
        let s = &b.snapshot.stats;
        if store.errors != 0 || b.faults.store_failures != 0 {
            return Err(fail(
                seed,
                format!(
                    "differential-store[{mode:?}]: store errors in a clean run \
                     ({} / {})",
                    store.errors, b.faults.store_failures
                ),
            ));
        }
        if store.stats.acked_puts != s.files_written
            || store.stats.acked_removes != s.evictions
            || store.stats.live_records != s.files_written - s.evictions
        {
            return Err(fail(
                seed,
                format!(
                    "differential-store[{mode:?}]: store counters diverge from decisions \
                     (puts {} vs files_written {}, removes {} vs evictions {}, live {})",
                    store.stats.acked_puts,
                    s.files_written,
                    store.stats.acked_removes,
                    s.evictions,
                    store.stats.live_records
                ),
            ));
        }
        if store.stats.host_bytes <= s.bytes_written && s.bytes_written > 0 {
            return Err(fail(
                seed,
                format!(
                    "differential-store[{mode:?}]: host bytes {} must exceed payload \
                     bytes {} (record framing)",
                    store.stats.host_bytes, s.bytes_written
                ),
            ));
        }
        if store.write_amplification() < 1.0 {
            return Err(fail(
                seed,
                format!(
                    "differential-store[{mode:?}]: measured WA {} < 1",
                    store.write_amplification()
                ),
            ));
        }
    }

    // Concurrent rung: interleavings differ, reconciliation must not.
    let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::Ideal, capacity);
    cfg.shards = 4;
    cfg.workers = 4;
    cfg.trainer = TrainerMode::Background;
    cfg.store = StoreMode::Memory;
    let load = LoadConfig { clients: 2, target_qps: 0.0, duration: None };
    let r = serve_trace_with_index(&trace, &index, &cfg, &load);
    let s = &r.snapshot.stats;
    let Some(store) = r.snapshot.store else {
        return Err(fail(seed, "differential-store[N=4]: store snapshot missing".into()));
    };
    if store.stats.acked_puts != s.files_written || store.stats.acked_removes != s.evictions {
        return Err(fail(
            seed,
            format!(
                "differential-store[N=4]: reconciliation broke under concurrency \
                 (puts {} vs {}, removes {} vs {})",
                store.stats.acked_puts, s.files_written, store.stats.acked_removes, s.evictions
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_oracle_passes_over_several_seeds() {
        for seed in [3u64, 11, 29] {
            store_recovery_oracle(seed).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn differential_store_passes_on_a_seeded_trace() {
        differential_store(17, 1_500).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = workload(9, 300);
        let b = workload(9, 300);
        assert_eq!(a, b);
        assert!(a.iter().any(|op| matches!(op, StoreOp::Remove { .. })));
        assert!(a.iter().any(|op| matches!(op, StoreOp::Put { .. })));
        assert_ne!(workload(10, 300), a, "different seeds must differ");
    }
}
