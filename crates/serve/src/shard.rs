//! The shards: N independent single-threaded caches, each owned by exactly
//! one worker for the whole replay.
//!
//! Each shard wraps one request kernel ([`otae_core::engine`]) — a
//! replacement policy with its counters — plus its admission state (its
//! slice of the history table, or its own [`MissFilter`] under SecondHit,
//! TinyLFU, RejectX, CoinFlip), its accounting and its store handle, so the
//! only cross-shard state on the request path is read-only: the admission
//! model and the prepared trace. Objects map to shards by id hash
//! (`shard_of`), and a shard is mutated through the `&mut` its worker
//! borrows for the life of the thread scope: its state evolves exactly like
//! a small single-threaded simulator over the subsequence of requests
//! routed to it — it *is* the simulator's kernel, fed in its queue's pop
//! order.

use crate::request::{PreparedRequest, Verdicts};
use crate::service::ServeConfig;
use crate::store_layer::{ShardStore, StoreSnapshot};
use otae_cache::CacheStats;
use otae_core::pipeline::Mode;
use otae_core::{Accounting, Admission, CacheEvent, Kernel, MissFilter};
use otae_device::{HddProfile, ResponseTime, ServiceTimeModel};
use otae_ml::ConfusionMatrix;
use otae_store::intake::IntakeStats;
use otae_trace::{ObjectId, Trace};

/// The SplitMix64 finalizer: a cheap bijective mix of `z`. It spreads the
/// sequential ids synthetic traces use over the shards, and seeds each
/// object's store payload.
#[inline]
pub(crate) fn splitmix64_finalizer(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shard an object maps to among `n_shards` (stable for the service's
/// lifetime).
#[inline]
pub(crate) fn shard_of(object: ObjectId, n_shards: usize) -> usize {
    // The hash is reduced to `0..n_shards` by a multiply-shift (the high
    // word of `hash × n`), not a division.
    let z = splitmix64_finalizer(u64::from(object.0));
    ((u128::from(z) * n_shards as u128) >> 64) as usize
}

/// One shard's private state, mutated only by the worker that owns it.
pub(crate) struct ShardState {
    kernel: Kernel,
    admission: Admission,
    accounting: Accounting,
    /// Segment store backing this shard (admitted bytes + tombstones);
    /// `None` runs the service storeless.
    store: Option<ShardStore>,
}

impl ShardState {
    /// Build `cfg.shards` shards of `cfg.policy`, splitting the capacity,
    /// the history-table budget and — under a filter mode — the filter's
    /// sizing evenly across them: each shard's [`MissFilter`] expects
    /// `objects / N` keys and ages on an `M / N` window, because it sees
    /// exactly the misses of its own keys. The window is at least 1 for any
    /// `M ≥ 1`: a 0 would mean "never age". With one shard that is the
    /// pipeline's filter, bit for bit. `stores` is empty or holds one store
    /// per shard.
    pub(crate) fn build_all(
        cfg: &ServeConfig,
        trace: &Trace,
        m: u64,
        history_capacity: usize,
        stores: Vec<ShardStore>,
    ) -> Vec<ShardState> {
        let n = cfg.shards;
        assert!(n > 0, "need at least one shard");
        assert!(stores.is_empty() || stores.len() == n, "need zero stores or one per shard");
        let shard_capacity = cfg.capacity / n as u64;
        let shard_history = history_capacity.div_ceil(n).max(1);
        let shard_m = (m / n as u64).max(u64::from(m > 0));
        let mut stores = stores.into_iter();
        (0..n)
            .map(|_| ShardState {
                kernel: Kernel::new(cfg.policy.build(shard_capacity, trace)),
                admission: Admission::new(
                    cfg.mode,
                    MissFilter::for_run(
                        cfg.mode,
                        trace.meta.len() / n,
                        shard_m,
                        cfg.training.max_splits,
                        cfg.coin_p,
                    ),
                    m,
                    shard_history,
                    cfg.training.use_history,
                ),
                accounting: Accounting::new(cfg.latency, cfg.hdd, cfg.mode != Mode::Original),
                store: stores.next(),
            })
            .collect()
    }

    /// Drive one request through the kernel; the model and the request's
    /// feature row are consulted inside the admit closure, i.e. on a miss
    /// only, through the worker's `verdicts`. Admitted bytes and tombstones
    /// are handed to the shard's store here, in decision order;
    /// `on_admit`'s bounded send is the backpressure seam, and it blocks
    /// this worker only — no lock is held across it.
    #[inline]
    pub(crate) fn process(&mut self, req: &PreparedRequest, verdicts: &mut Verdicts<'_>) {
        let ShardState { kernel, admission, accounting, store } = self;
        let (now, size) = (u64::from(req.idx), u64::from(req.size));
        let outcome = kernel.access(
            req.object,
            size,
            now,
            || admission.decide(verdicts.verdict(req.idx), req.object, now, req.truth),
            |event| {
                let Some(store) = store.as_mut() else { return };
                match event {
                    CacheEvent::Insert { object, size } => store.on_admit(object.0 as u64, size),
                    CacheEvent::Evict { object, .. } => store.on_evict(object.0 as u64),
                }
            },
        );
        accounting.record(outcome, req.ts, size);
    }

    /// The store's command-intake counters (`None` when serving
    /// storeless).
    pub(crate) fn store_intake(&self) -> Option<IntakeStats> {
        self.store.as_ref().map(ShardStore::intake_stats)
    }

    /// Drain the store's write queue so the next snapshot reports fully
    /// acknowledged byte counters. No-op when serving storeless.
    pub(crate) fn flush_store(&mut self) {
        if let Some(store) = self.store.as_mut() {
            store.flush();
        }
    }
}

/// Merged view of the whole service once every worker has handed its
/// shards back, plus the per-shard breakdown. Because every counter is
/// additive, the merged block is cross-checkable against a single-threaded
/// simulator run.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All shards' cache counters, merged.
    pub stats: CacheStats,
    /// All shards' latency accumulators, merged.
    pub response: ResponseTime,
    /// All shards' backend disk-head-time accumulators, merged. Window
    /// counts add element-wise, so the merged peak is the peak of the
    /// combined stream.
    pub service_time: ServiceTimeModel,
    /// All shards' classifier decisions, merged (Proposal mode).
    pub confusion: ConfusionMatrix,
    /// History-table rectifications across all shards (§4.4.2).
    pub rectifications: u64,
    /// Per-shard cache counters, indexed by shard.
    pub per_shard: Vec<CacheStats>,
    /// Merged segment-store counters (`None` when serving storeless).
    pub store: Option<StoreSnapshot>,
}

impl Snapshot {
    /// Merge the statistics of `shards` (charged against `hdd`).
    pub(crate) fn merge(shards: &[ShardState], hdd: HddProfile) -> Snapshot {
        let mut stats = CacheStats::default();
        let mut response = ResponseTime::default();
        let mut service_time = ServiceTimeModel::new(hdd);
        let mut confusion = ConfusionMatrix::default();
        let mut rectifications = 0u64;
        let mut per_shard = Vec::with_capacity(shards.len());
        let mut store: Option<StoreSnapshot> = None;
        for s in shards {
            stats.merge(s.kernel.stats());
            response.merge(&s.accounting.response);
            service_time.merge(&s.accounting.service_time);
            if let Some(learned) = s.admission.learned() {
                confusion.merge(&learned.confusion);
                rectifications += learned.history.rectifications();
            }
            per_shard.push(*s.kernel.stats());
            if let Some(shard_store) = s.store.as_ref() {
                store.get_or_insert_with(StoreSnapshot::default).merge(&shard_store.snapshot());
            }
        }
        Snapshot { stats, response, service_time, confusion, rectifications, per_shard, store }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::{AdmissionGate, GateModel};
    use crate::request::ModelSource;
    use otae_core::pipeline::PolicyKind;
    use otae_core::N_FEATURES;
    use otae_trace::{generate, TraceConfig};
    use std::sync::Arc;

    /// The model source of every mode but Proposal.
    pub(crate) static NO_MODEL: ModelSource = ModelSource::None;

    pub(crate) fn prepared(idx: u32, object: u32, size: u32, truth: bool) -> PreparedRequest {
        PreparedRequest { idx, object: ObjectId(object), size, truth, ts: u64::from(idx) }
    }

    /// `n` LRU shards over 1 MiB with `M = 100` and a 64-entry history
    /// budget.
    pub(crate) fn sharded(n: usize, mode: Mode) -> Vec<ShardState> {
        let trace = generate(&TraceConfig { n_objects: 100, seed: 1, ..Default::default() });
        let mut cfg = ServeConfig::new(PolicyKind::Lru, mode, 1 << 20);
        cfg.shards = n;
        ShardState::build_all(&cfg, &trace, 100, 64, Vec::new())
    }

    pub(crate) fn snapshot(shards: &[ShardState]) -> Snapshot {
        Snapshot::merge(shards, HddProfile::default())
    }

    /// One request through the shard its object hashes to.
    fn process(shards: &mut [ShardState], req: &PreparedRequest, verdicts: &mut Verdicts<'_>) {
        let s = shard_of(req.object, shards.len());
        shards[s].process(req, verdicts);
    }

    /// `reqs` through `shards` with no model to consult.
    fn process_all(shards: &mut [ShardState], reqs: impl IntoIterator<Item = PreparedRequest>) {
        let gate = AdmissionGate::new();
        let mut verdicts = Verdicts::new(&NO_MODEL, &[], &gate);
        for req in reqs {
            process(shards, &req, &mut verdicts);
        }
    }

    /// A tree judging `features[0] > threshold` one-time.
    pub(crate) fn tree(threshold: f32) -> GateModel {
        use otae_ml::{Classifier, Dataset, DecisionTree, TreeParams};
        let mut d = Dataset::new(otae_core::N_FEATURES);
        for i in 0..100 {
            let mut row = [0.0f32; otae_core::N_FEATURES];
            row[0] = i as f32 / 100.0;
            d.push(&row, row[0] > threshold);
        }
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        GateModel::new(t)
    }

    /// FNV-1a of a model's serialised tree (`DecisionTree::to_bytes`).
    pub(crate) fn tree_digest(model: &GateModel) -> u64 {
        model.tree().to_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 4, 8] {
            for id in 0..1000u32 {
                let s = shard_of(ObjectId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of(ObjectId(id), n), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn hash_spreads_sequential_ids() {
        let mut counts = [0usize; 4];
        for id in 0..4000u32 {
            counts[shard_of(ObjectId(id), 4)] += 1;
        }
        for &n in &counts {
            assert!((600..=1400).contains(&n), "imbalanced shard: {counts:?}");
        }
    }

    #[test]
    fn per_shard_counters_sum_to_merged() {
        let mut c = sharded(4, Mode::Original);
        process_all(&mut c, (0..500u32).map(|i| prepared(i, i % 37, 1000, false)));
        let snap = snapshot(&c);
        assert_eq!(snap.stats.accesses, 500);
        let mut sum = CacheStats::default();
        for s in &snap.per_shard {
            sum.merge(s);
        }
        assert_eq!(sum, snap.stats);
        assert_eq!(snap.response.requests(), 500);
    }

    #[test]
    fn ideal_mode_bypasses_one_time_objects() {
        let mut c = sharded(2, Mode::Ideal);
        process_all(&mut c, [prepared(0, 1, 1000, true), prepared(1, 2, 1000, false)]);
        let snap = snapshot(&c);
        assert_eq!(snap.stats.bypasses, 1);
        assert_eq!(snap.stats.files_written, 1);
    }

    /// Every shard of a filter mode owns a filter sized for its share of
    /// the keys: an object bypassed on first sight by its shard's
    /// doorkeeper is admitted on second sight, whichever shard it lives on.
    #[test]
    fn each_shard_filters_its_own_keys() {
        let mut c = sharded(4, Mode::SecondHit);
        let objects = (0..64u32).chain(0..64);
        process_all(&mut c, (0..).zip(objects).map(|(i, object)| prepared(i, object, 1000, false)));
        let snap = snapshot(&c);
        assert_eq!(snap.stats.bypasses, 64, "first sightings are bypassed");
        assert_eq!(snap.stats.files_written, 64, "second sightings are admitted");
        assert!(snap.per_shard.iter().all(|s| s.bypasses > 0), "{:?}", snap.per_shard);
    }

    /// A shard's filter ages even when `M < N`: at `M = 3` every topology's
    /// TinyLFU clears its doorkeeper within 13 of a shard's decisions
    /// (every 12 with one shard, every 4 once the per-shard `M` is clamped
    /// to 1), so an object seen once and then again 13 misses later is
    /// bypassed both times. Without the clamp, `3 / 4` floors to the "never
    /// age" window and the four- and eight-shard filters admit it.
    #[test]
    fn shard_filters_age_when_m_is_below_the_shard_count() {
        let trace = generate(&TraceConfig { n_objects: 100, seed: 1, ..Default::default() });
        for n in [1usize, 2, 4, 8] {
            let mut cfg = ServeConfig::new(PolicyKind::Lru, Mode::TinyLfu, 1 << 20);
            cfg.shards = n;
            let mut c = ShardState::build_all(&cfg, &trace, 3, 64, Vec::new());
            let keys: Vec<u32> =
                (0u32..).filter(|&id| shard_of(ObjectId(id), n) == 0).take(13).collect();
            let objects = keys.iter().copied().chain([keys[0]]);
            process_all(&mut c, (0..).zip(objects).map(|(i, o)| prepared(i, o, 1000, false)));
            let snap = snapshot(&c);
            assert_eq!(snap.stats.bypasses, 14, "N = {n}: every miss bypassed");
            assert_eq!(snap.stats.files_written, 0, "N = {n}: nothing admitted");
        }
    }

    /// §4.4.2 across a hot swap: an object judged one-time under model A and
    /// reappearing within `M` must be force-admitted even though the model
    /// consulted the second time is a different (swapped-in) tree.
    #[test]
    fn rectification_survives_a_model_swap() {
        let mut c = sharded(1, Mode::Proposal);
        let model_a = tree(0.5);
        let model_b = tree(0.2);
        let mut features = vec![[0.0f32; N_FEATURES]; 51];
        features[0][0] = 0.9; // one-time under both models
        features[50][0] = 0.9;
        assert!(model_a.predict(&features[0]) && model_b.predict(&features[0]));
        let gate = AdmissionGate::new();
        let source = ModelSource::Gate;
        let mut verdicts = Verdicts::new(&source, &features, &gate);
        gate.install_arc(Arc::new(model_a));
        verdicts.refresh();
        process(&mut c, &prepared(0, 7, 1000, true), &mut verdicts);
        // Same object misses again within M (= 100 in these params), but the
        // gate has swapped to model B in between.
        gate.install_arc(Arc::new(model_b));
        verdicts.refresh();
        process(&mut c, &prepared(50, 7, 1000, true), &mut verdicts);
        let snap = snapshot(&c);
        assert_eq!(snap.rectifications, 1, "history must rectify across the swap");
        assert_eq!(snap.stats.bypasses, 1, "first miss bypassed");
        assert_eq!(snap.stats.files_written, 1, "second miss force-admitted");
    }
}
