//! The sharded cache: N independent single-threaded caches behind mutexes.
//!
//! Each shard wraps one request kernel ([`otae_core::engine`]) — a
//! replacement policy with its counters — plus its slice of the history
//! table and its accounting, so the only cross-shard state on the request
//! path is the admission model `Arc` (and, for the filter policies —
//! SecondHit, TinyLFU, RejectX, CoinFlip — the one shared [`MissFilter`]).
//! Objects map to shards by id hash, so a shard's state evolves exactly
//! like a small single-threaded simulator over the subsequence of requests
//! routed to it: it *is* the simulator's kernel, fed in segments.

use crate::gate::GateModel;
use crate::request::{ModelSource, PreparedRequest};
use crate::store_layer::{ShardStore, StoreSnapshot};
use otae_cache::CacheStats;
use otae_core::pipeline::{Mode, PolicyKind};
use otae_core::{Accounting, Admission, CacheEvent, Kernel, MissFilter};
use otae_device::{HddProfile, LatencyModel, ResponseTime, ServiceTimeModel};
use otae_ml::ConfusionMatrix;
use otae_trace::{ObjectId, Trace};
use parking_lot::Mutex;

/// Mode-invariant parameters shared by every shard.
#[derive(Debug, Clone)]
pub(crate) struct Params {
    pub latency: LatencyModel,
    pub mode: Mode,
    pub use_history: bool,
    pub m: u64,
    /// HDD profile charging disk-head time per backend miss.
    pub hdd: HddProfile,
}

/// The model `req`'s verdict is resolved against: its own stamp, or — for
/// [`ModelSource::Gate`] — the caller's `gate` snapshot.
pub(crate) fn model_for<'m>(
    req: &'m PreparedRequest,
    gate: Option<&'m GateModel>,
) -> Option<&'m GateModel> {
    match &req.model {
        ModelSource::Stamped { model } => model.as_deref(),
        ModelSource::Gate => gate,
    }
}

/// One shard's private state (guarded by its mutex).
pub(crate) struct ShardState {
    kernel: Kernel,
    /// `Always` under a filter mode: the filter is shared across shards.
    admission: Admission,
    accounting: Accounting,
    /// Segment store backing this shard (admitted bytes + tombstones);
    /// `None` runs the service storeless, exactly as before.
    store: Option<ShardStore>,
}

/// Merged view of the whole service at one point in time, plus the
/// per-shard breakdown. Because every counter is additive, the merged
/// block is cross-checkable against a single-threaded simulator run.
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

/// N independent cache shards keyed by object-id hash.
pub struct ShardedCache {
    shards: Vec<Mutex<ShardState>>,
    params: Params,
    /// Shared filter of the non-ML admission modes (`None` for
    /// Original/Ideal/Proposal). One instance across all shards, exactly
    /// like the single filter the pipeline drives.
    filter: Option<Mutex<MissFilter>>,
}

impl ShardedCache {
    /// Build `n_shards` shards of `policy`, splitting `capacity` (and the
    /// history-table budget) evenly across them. `filter` is the filter of
    /// a filter mode ([`MissFilter::for_run`]), `None` otherwise.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        n_shards: usize,
        policy: PolicyKind,
        capacity: u64,
        history_capacity: usize,
        trace: &Trace,
        params: Params,
        filter: Option<MissFilter>,
        stores: Vec<ShardStore>,
    ) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert!(stores.is_empty() || stores.len() == n_shards, "need zero stores or one per shard");
        let shard_capacity = capacity / n_shards as u64;
        let shard_history = history_capacity.div_ceil(n_shards).max(1);
        let mut stores = stores.into_iter();
        let shards = (0..n_shards)
            .map(|_| {
                Mutex::new(ShardState {
                    kernel: Kernel::new(policy.build(shard_capacity, trace)),
                    admission: Admission::new(
                        params.mode,
                        None,
                        params.m,
                        shard_history,
                        params.use_history,
                    ),
                    accounting: Accounting::new(
                        params.latency,
                        params.hdd,
                        params.mode != Mode::Original,
                    ),
                    store: stores.next(),
                })
            })
            .collect();
        Self { shards, params, filter: filter.map(Mutex::new) }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard an object maps to (stable for the service's lifetime).
    pub fn shard_of(&self, object: ObjectId) -> usize {
        // SplitMix64 finalizer: cheap, and decorrelates the sequential ids
        // synthetic traces use.
        let mut z = object.0 as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize % self.shards.len()
    }

    /// Process a batch segment routed to shard `shard_idx` under one shard
    /// lock, request by request in arrival order through the kernel; the
    /// model is consulted inside the admit closure, i.e. on a miss only.
    /// `gate` is the caller's snapshot of the shared gate's model, consulted
    /// by [`ModelSource::Gate`] requests; stamped requests carry their own.
    /// Decisions are identical to one-request segments — only the number of
    /// lock acquisitions changes.
    pub(crate) fn process_segment(
        &self,
        shard_idx: usize,
        segment: &[&PreparedRequest],
        gate: Option<&GateModel>,
    ) {
        if segment.is_empty() {
            return;
        }
        let mut guard = self.shards[shard_idx].lock();
        // Admitted bytes are handed to the shard store inside the critical
        // section by design: `on_admit`'s bounded send is the backpressure
        // seam, and moving store puts outside the lock would reorder them
        // against later requests on the same shard, breaking replay
        // determinism (DESIGN.md §15).
        let ShardState { kernel, admission, accounting, store } = &mut *guard;
        let mut to_store = |event| {
            let Some(store) = store.as_mut() else { return };
            match event {
                // otae-lint: allow(no-blocking-under-lock)
                CacheEvent::Insert { object, size } => store.on_admit(object.0 as u64, size),
                // otae-lint: allow(no-blocking-under-lock)
                CacheEvent::Evict { object, .. } => store.on_evict(object.0 as u64),
            }
        };
        for req in segment {
            let outcome = kernel.access(
                req.object,
                req.size,
                req.idx,
                || match &self.filter {
                    Some(filter) => filter.lock().decide(req.object),
                    None => admission.decide(
                        model_for(req, gate).map(|m| m.predict(&req.features)),
                        req.object,
                        req.idx,
                        req.truth,
                    ),
                },
                &mut to_store,
            );
            accounting.record(outcome, req.ts, req.size);
        }
    }

    /// Route the request to its shard, take the shard lock, then panic with
    /// an [`InjectedFault`](crate::fault::InjectedFault) payload *before*
    /// touching any counter — modelling a shard dying mid-request. The
    /// worker catches the unwind; because `parking_lot` mutexes release on
    /// unwind without poisoning, the shard keeps serving afterwards, and
    /// accounting stays conserved (`accesses == replayed - shard_panics`).
    pub(crate) fn process_with_injected_panic(&self, req: &PreparedRequest) -> ! {
        let shard_idx = self.shard_of(req.object);
        let _guard = self.shards[shard_idx].lock();
        std::panic::panic_any(crate::fault::InjectedFault { shard: shard_idx, request: req.idx });
    }

    /// Drain every shard store's write queue so the next snapshot reports
    /// fully acknowledged byte counters. No-op when serving storeless.
    ///
    /// Only called after every worker has joined, so the store can be
    /// lifted out of its shard and flushed *without* the shard lock held:
    /// `flush` blocks on the writer thread's acknowledgement, and holding a
    /// shard mutex across that wait is exactly what no-blocking-under-lock
    /// exists to forbid.
    pub fn flush_stores(&self) {
        for shard in &self.shards {
            let taken = shard.lock().store.take();
            if let Some(mut store) = taken {
                store.flush();
                shard.lock().store = Some(store);
            }
        }
    }

    /// Capture a merged + per-shard statistics snapshot. Shards are locked
    /// one at a time, so a snapshot taken mid-replay is a slightly stale
    /// but internally consistent per-shard view.
    pub fn snapshot(&self) -> Snapshot {
        let mut stats = CacheStats::default();
        let mut response = ResponseTime::default();
        let mut service_time = ServiceTimeModel::new(self.params.hdd);
        let mut confusion = ConfusionMatrix::default();
        let mut rectifications = 0u64;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut store: Option<StoreSnapshot> = None;
        for shard in &self.shards {
            let s = shard.lock();
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
mod tests {
    use super::*;
    use otae_trace::{generate, TraceConfig};
    use std::sync::Arc;

    fn params(mode: Mode) -> Params {
        Params {
            latency: LatencyModel::default(),
            mode,
            use_history: true,
            m: 100,
            hdd: HddProfile::default(),
        }
    }

    fn prepared(idx: u64, object: u32, size: u64, truth: bool) -> PreparedRequest {
        PreparedRequest {
            idx,
            ts: idx,
            object: ObjectId(object),
            size,
            features: [0.0; otae_core::N_FEATURES],
            truth,
            model: ModelSource::Stamped { model: None },
        }
    }

    fn sharded(n: usize, mode: Mode) -> ShardedCache {
        let trace = generate(&TraceConfig { n_objects: 100, seed: 1, ..Default::default() });
        ShardedCache::new(n, PolicyKind::Lru, 1 << 20, 64, &trace, params(mode), None, Vec::new())
    }

    /// One request through its shard as a one-request segment.
    fn process(c: &ShardedCache, req: &PreparedRequest, gate: Option<&GateModel>) {
        c.process_segment(c.shard_of(req.object), &[req], gate);
    }

    /// The per-request reference for the exactness tests: the request kernel
    /// over the same policy and capacity as a 1-shard `sharded(..)`, driven
    /// one request at a time with the verdict computed ahead of the
    /// hit/miss test — no segments, no shard lock. Returns the counters a
    /// snapshot of the shard must equal.
    fn kernel_reference(
        reqs: &[PreparedRequest],
        gate: Option<&GateModel>,
    ) -> (CacheStats, ConfusionMatrix, u64) {
        let trace = generate(&TraceConfig { n_objects: 100, seed: 1, ..Default::default() });
        let mut kernel = Kernel::new(PolicyKind::Lru.build(1 << 20, &trace));
        let mut admission = Admission::new(Mode::Proposal, None, 100, 64, true);
        for req in reqs {
            let verdict = model_for(req, gate).map(|m| m.predict(&req.features));
            let admit = || admission.decide(verdict, req.object, req.idx, req.truth);
            kernel.access(req.object, req.size, req.idx, admit, |_| {});
        }
        let learned = admission.learned().expect("proposal admission is learned");
        (*kernel.stats(), learned.confusion, learned.history.rectifications())
    }

    /// A tree judging `features[0] > threshold` one-time.
    fn tree(threshold: f32) -> GateModel {
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

    #[test]
    fn routing_is_stable_and_in_range() {
        let c = sharded(4, Mode::Original);
        for id in 0..1000u32 {
            let s = c.shard_of(ObjectId(id));
            assert!(s < 4);
            assert_eq!(s, c.shard_of(ObjectId(id)), "routing must be deterministic");
        }
    }

    #[test]
    fn hash_spreads_sequential_ids() {
        let c = sharded(4, Mode::Original);
        let mut counts = [0usize; 4];
        for id in 0..4000u32 {
            counts[c.shard_of(ObjectId(id))] += 1;
        }
        for &n in &counts {
            assert!((600..=1400).contains(&n), "imbalanced shard: {counts:?}");
        }
    }

    #[test]
    fn per_shard_counters_sum_to_merged() {
        let c = sharded(4, Mode::Original);
        for i in 0..500u64 {
            process(&c, &prepared(i, (i % 37) as u32, 1000, false), None);
        }
        let snap = c.snapshot();
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
        let c = sharded(2, Mode::Ideal);
        process(&c, &prepared(0, 1, 1000, true), None);
        process(&c, &prepared(1, 2, 1000, false), None);
        let snap = c.snapshot();
        assert_eq!(snap.stats.bypasses, 1);
        assert_eq!(snap.stats.files_written, 1);
    }

    #[test]
    fn injected_panic_leaves_shard_usable_and_counters_untouched() {
        crate::fault::silence_injected_panics();
        let c = sharded(2, Mode::Original);
        process(&c, &prepared(0, 1, 1000, false), None);
        let req = prepared(1, 1, 1000, false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.process_with_injected_panic(&req)
        }));
        assert!(result.is_err(), "injection must unwind");
        // The shard recovered: same object still hits, counters saw exactly
        // the two *real* requests.
        process(&c, &prepared(2, 1, 1000, false), None);
        let snap = c.snapshot();
        assert_eq!(snap.stats.accesses, 2);
        assert_eq!(snap.stats.hits, 1);
    }

    /// The exactness claim at shard granularity: pushing a stream through
    /// `process_segment` in arbitrary batch sizes must leave counters
    /// bit-identical to the kernel driven one request at a time, including
    /// across a model swap mid-stream.
    #[test]
    fn batched_segments_match_per_request_processing_exactly() {
        let model_a = Arc::new(tree(0.5));
        let model_b = tree(0.2);
        // A stream with repeats, a swap at the midpoint — the first half
        // stamped with model A, the second resolving model B from the gate
        // snapshot — and truths that exercise both confusion outcomes.
        let gate = Some(&model_b);
        let reqs: Vec<PreparedRequest> = (0..400u64)
            .map(|i| {
                let mut r = prepared(i, (i % 23) as u32, 500 + (i % 7) * 100, i % 3 == 0);
                r.features[0] = (i % 10) as f32 / 10.0;
                r.model = if i < 200 {
                    ModelSource::Stamped { model: Some(Arc::clone(&model_a)) }
                } else {
                    ModelSource::Gate
                };
                r
            })
            .collect();
        let segment: Vec<&PreparedRequest> = reqs.iter().collect();

        let (want_stats, want_confusion, want_rectifications) = kernel_reference(&reqs, gate);
        assert!(want_confusion.total() > 0, "models must have been consulted");
        assert!(want_stats.bypasses > 0 && want_stats.files_written > 0);

        for batch in [1usize, 3, 32, 400] {
            let c = sharded(1, Mode::Proposal);
            for seg in segment.chunks(batch) {
                c.process_segment(0, seg, gate);
            }
            let got = c.snapshot();
            assert_eq!(got.stats, want_stats, "batch={batch}");
            assert_eq!(got.confusion, want_confusion, "batch={batch}");
            assert_eq!(got.rectifications, want_rectifications, "batch={batch}");
        }
    }

    /// §4.4.2 across a hot swap: an object judged one-time under model A and
    /// reappearing within `M` must be force-admitted even though the model
    /// consulted the second time is a different (swapped-in) tree.
    #[test]
    fn rectification_survives_a_model_swap() {
        let c = sharded(1, Mode::Proposal);
        let model_a = tree(0.5);
        let model_b = tree(0.2);
        let mut req = prepared(0, 7, 1000, true);
        req.features[0] = 0.9; // one-time under both models
        assert!(model_a.predict(&req.features) && model_b.predict(&req.features));
        req.model = ModelSource::Gate;
        process(&c, &req, Some(&model_a));
        // Same object misses again within M (= 100 in these params), but the
        // gate has swapped to model B in between.
        let mut again = prepared(50, 7, 1000, true);
        again.features[0] = 0.9;
        again.model = ModelSource::Gate;
        process(&c, &again, Some(&model_b));
        let snap = c.snapshot();
        assert_eq!(snap.rectifications, 1, "history must rectify across the swap");
        assert_eq!(snap.stats.bypasses, 1, "first miss bypassed");
        assert_eq!(snap.stats.files_written, 1, "second miss force-admitted");
    }
}
