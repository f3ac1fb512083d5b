//! The request kernel: the one copy of Figure 4's per-request sequence.
//!
//! Every driver in the workspace — the simulator ([`crate::pipeline`]), the
//! cluster ring and the OC → DC tiers ([`Server`]), the online learner
//! ([`crate::online`]) and a serve shard on its owning worker — pushes
//! requests through the same three pieces:
//!
//! * [`Kernel::access`]: hit, or miss → *decide* → admit (insert, evict) or
//!   bypass, with the cache counters kept here and nowhere else;
//! * [`Admission::decide`]: the decision itself — always, oracle, the
//!   learned gate with its §4.4.2 history table ([`Learned::apply`]), or a
//!   zoo filter;
//! * [`Accounting::record`]: the modeled response time (Eqs. 3–6) and the
//!   backend disk-head time of the outcome.
//!
//! The admit decision and the insert/evict sink are generic closures, so
//! the kernel stays monomorphic per driver: a hit costs one call into the
//! replacement policy ([`Cache::on_hit`] is the hit test) and one counter
//! update, and evaluates neither.
//!
//! This file runs on the serve worker's request path, so it is in
//! otae-lint's no-panic scope: nothing here unwraps or panics.

use crate::criteria::{resolve_criteria, CriteriaSolution};
use crate::daily::{DailyTrainer, TrainingConfig};
use crate::features::N_FEATURES;
use crate::history::HistoryTable;
use crate::pipeline::{Mode, PolicyKind};
use crate::reaccess::ReaccessIndex;
use crate::zoo::MissFilter;
use otae_cache::{Cache, CacheStats, Evicted};
use otae_device::{HddProfile, LatencyModel, ResponseTime, RunLatency, ServiceTimeModel};
use otae_ml::{Classifier, ConfusionMatrix, DecisionTree};
use otae_trace::{ObjectId, Trace};

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the cache.
    Hit,
    /// Missed and written into the cache.
    Admitted,
    /// Missed and served around the cache.
    Bypassed,
}

/// SSD-level event emitted while driving the cache (for device-layer
/// consumers such as the FTL simulator and the serve shard's store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// Object written into the SSD cache.
    Insert {
        /// Object id.
        object: ObjectId,
        /// Size in bytes.
        size: u64,
    },
    /// Object evicted from the SSD cache (its flash pages are invalidated).
    Evict {
        /// Object id.
        object: ObjectId,
        /// Size in bytes.
        size: u64,
    },
}

/// A replacement policy with its counters and eviction scratch.
pub struct Kernel {
    cache: Box<dyn Cache<ObjectId> + Send>,
    stats: CacheStats,
    evicted: Vec<Evicted<ObjectId>>,
}

impl Kernel {
    /// Kernel over `cache` (see [`PolicyKind::build`]).
    pub fn new(cache: Box<dyn Cache<ObjectId> + Send>) -> Self {
        Self { cache, stats: CacheStats::default(), evicted: Vec::new() }
    }

    /// Counters of every request driven so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Drive one request. `admit` is evaluated only on a miss; `sink` sees
    /// one [`CacheEvent::Insert`] per admitted miss followed by one
    /// [`CacheEvent::Evict`] per entry the insert pushed out, in order.
    #[inline]
    pub fn access(
        &mut self,
        object: ObjectId,
        size: u64,
        now: u64,
        admit: impl FnOnce() -> bool,
        mut sink: impl FnMut(CacheEvent),
    ) -> Outcome {
        if self.cache.on_hit(&object, now) {
            self.stats.record_hit(size);
            return Outcome::Hit;
        }
        if !admit() {
            self.cache.on_bypass(&object, size, now);
            self.stats.record_bypassed_miss(size);
            return Outcome::Bypassed;
        }
        self.evicted.clear();
        self.cache.insert(object, size, now, &mut self.evicted);
        self.stats.record_admitted_miss(size);
        sink(CacheEvent::Insert { object, size });
        for e in &self.evicted {
            self.stats.record_eviction(e.size);
            sink(CacheEvent::Evict { object: e.key, size: e.size });
        }
        Outcome::Admitted
    }
}

/// Modeled cost of the requests a kernel served: response time (Eqs. 3–6)
/// and backend disk-head time.
#[derive(Debug, Clone)]
pub struct Accounting {
    /// Per-request modeled latency.
    pub response: ResponseTime,
    /// Disk-head time of every backend read.
    pub service_time: ServiceTimeModel,
    latency: RunLatency,
}

impl Accounting {
    /// Empty accumulators; `classified` adds the classification time to a
    /// miss (every mode but Original, Eq. 6).
    pub fn new(latency: LatencyModel, hdd: HddProfile, classified: bool) -> Self {
        Self {
            response: ResponseTime::default(),
            service_time: ServiceTimeModel::new(hdd),
            latency: latency.per_run(classified),
        }
    }

    /// Charge one served request. Every miss reads the backend exactly
    /// once, admitted or not — the flash write happens off the critical
    /// path (§5.3.5).
    #[inline]
    pub fn record(&mut self, outcome: Outcome, ts: u64, size: u64) {
        let hit = outcome == Outcome::Hit;
        if !hit {
            self.service_time.record_miss(ts, size);
        }
        self.response.record(self.latency.request_us(hit, size));
    }
}

/// The learned gate's per-cache state (Figure 4's classification system
/// minus the model, which its driver owns and may share or hot-swap).
#[derive(Debug)]
pub struct Learned {
    /// Rectification table (§4.4.2).
    pub history: HistoryTable,
    /// Decisions tallied against ground truth (Figure 5).
    pub confusion: ConfusionMatrix,
    /// When false, the history table never rectifies (ablation).
    pub use_history: bool,
    /// One-time-access threshold `M`.
    pub m: u64,
}

impl Learned {
    /// Fresh state for threshold `m` and the given history capacity.
    pub fn new(m: u64, history_capacity: usize, use_history: bool) -> Self {
        Self {
            history: HistoryTable::new(history_capacity),
            confusion: ConfusionMatrix::default(),
            use_history,
            m,
        }
    }

    /// Decide a miss from the model's verdict: `None` means no model is
    /// installed (admit everything, record nothing), `Some(p)` is
    /// `model.predict(features)`, which the driver evaluates inside the
    /// kernel's admit closure — on a miss only. Confusion and history
    /// bookkeeping happen here, in request order. `truth` is the offline
    /// label, used only for the tally.
    #[inline]
    pub fn apply(
        &mut self,
        predicted: Option<bool>,
        object: ObjectId,
        now: u64,
        truth: bool,
    ) -> bool {
        let Some(predicted_one_time) = predicted else {
            return true;
        };
        self.confusion.record(truth, predicted_one_time);
        if !predicted_one_time {
            return true;
        }
        if !self.use_history {
            return false;
        }
        if self.history.check_and_rectify(object, now, self.m) {
            return true; // §4.4.2: fast return rectifies the judgement
        }
        self.history.record_one_time(object, now);
        false
    }
}

/// Admission policy of one cache (§5.3's configurations plus the zoo).
#[derive(Debug)]
pub enum Admission {
    /// Admit every miss (Original).
    Always,
    /// Perfect knowledge: admit iff the offline label says the object
    /// returns within `M` (Ideal).
    Oracle,
    /// Trained classifier rectified by the history table (Proposal).
    Learned(Learned),
    /// Non-ML miss filter from the policy zoo.
    Filter(MissFilter),
}

impl Admission {
    /// Admission of a run in `mode`. `filter` is what
    /// [`MissFilter::for_run`] built for `mode` — `Some` for exactly the
    /// filter modes — and every cache owns its own: the simulator its one,
    /// a cluster node or a serve shard one sized for its share of the keys.
    pub fn new(
        mode: Mode,
        filter: Option<MissFilter>,
        m: u64,
        history_capacity: usize,
        use_history: bool,
    ) -> Self {
        debug_assert_eq!(filter.is_some(), mode.is_filter(), "a filter mode owns its filter");
        match (filter, mode) {
            (Some(f), _) => Admission::Filter(f),
            (None, Mode::Ideal) => Admission::Oracle,
            (None, Mode::Proposal) => {
                Admission::Learned(Learned::new(m, history_capacity, use_history))
            }
            (None, _) => Admission::Always,
        }
    }

    /// Decide whether to admit the miss of `object` at position `now`.
    /// `predicted` is consulted by [`Admission::Learned`] only.
    #[inline]
    pub fn decide(
        &mut self,
        predicted: Option<bool>,
        object: ObjectId,
        now: u64,
        truth: bool,
    ) -> bool {
        match self {
            Admission::Always => true,
            Admission::Oracle => !truth,
            Admission::Learned(l) => l.apply(predicted, object, now, truth),
            Admission::Filter(f) => f.decide(object),
        }
    }

    /// The learned gate's state, if this is one.
    pub fn learned(&self) -> Option<&Learned> {
        match self {
            Admission::Learned(l) => Some(l),
            _ => None,
        }
    }
}

/// Admit probability of [`Mode::CoinFlip`] on the topologies whose
/// configuration has no such knob ([`Server`]).
const SERVER_COIN_P: f32 = 0.5;

/// One cache server that trains its own model: a kernel, its admission and
/// a daily trainer fed from the requests that reach it. The cluster ring
/// routes to one of these per node; the tiered path stacks two.
pub struct Server {
    /// The server's cache and counters.
    pub kernel: Kernel,
    /// Criteria solved from this server's capacity (§4.3).
    pub criteria: CriteriaSolution,
    admission: Admission,
    model: Option<DecisionTree>,
    trainer: DailyTrainer,
}

impl Server {
    /// Server of `capacity` bytes; `filter_objects` sizes a zoo filter's
    /// sketches (the objects this server expects to see).
    pub fn new(
        trace: &Trace,
        index: &ReaccessIndex,
        policy: PolicyKind,
        mode: Mode,
        capacity: u64,
        training: &TrainingConfig,
        filter_objects: usize,
    ) -> Self {
        let (criteria, m) = resolve_criteria(trace, index, policy, capacity, None);
        let filter =
            MissFilter::for_run(mode, filter_objects, m, training.max_splits, SERVER_COIN_P);
        let v = training.cost.resolve(capacity, index.unique_bytes());
        Server {
            kernel: Kernel::new(policy.build(capacity, trace)),
            criteria,
            admission: Admission::new(
                mode,
                filter,
                m,
                criteria.history_table_capacity(),
                training.use_history,
            ),
            model: None,
            trainer: DailyTrainer::new(training.clone(), v),
        }
    }

    /// Handle a request that reached this server at trace time `ts`;
    /// `truth` is the offline label under this server's own `M`.
    pub fn access(
        &mut self,
        object: ObjectId,
        size: u64,
        now: u64,
        ts: u64,
        features: &[f32; N_FEATURES],
        truth: bool,
    ) -> Outcome {
        if self.admission.learned().is_some() {
            if let Some(model) = self.trainer.observe(ts, *features, truth) {
                self.model = Some(model);
            }
        }
        let (admission, model) = (&mut self.admission, &self.model);
        self.kernel.access(
            object,
            size,
            now,
            || admission.decide(model.as_ref().map(|m| m.predict(features)), object, now, truth),
            |_| {},
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_cache::Lru;
    use otae_ml::{Dataset, TreeParams};

    fn kernel(capacity: u64) -> Kernel {
        Kernel::new(Box::new(Lru::new(capacity)))
    }

    /// One feature; positive (one-time) iff x > 0.5.
    fn trained_tree() -> DecisionTree {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            let x = i as f32 / 100.0;
            d.push(&[x], x > 0.5);
        }
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        t
    }

    /// `Learned::apply` fed by a scalar `predict`, as the per-request
    /// drivers do.
    fn decide(l: &mut Learned, model: Option<&DecisionTree>, obj: u32, x: f32, now: u64) -> bool {
        l.apply(model.map(|m| m.predict(&[x])), ObjectId(obj), now, x > 0.5)
    }

    #[test]
    fn admit_is_not_evaluated_on_a_hit() {
        let mut k = kernel(1 << 20);
        assert_eq!(k.access(ObjectId(1), 100, 0, || true, |_| {}), Outcome::Admitted);
        let mut asked = false;
        let outcome = k.access(
            ObjectId(1),
            100,
            1,
            || {
                asked = true;
                false
            },
            |_| panic!("a hit writes nothing"),
        );
        assert_eq!(outcome, Outcome::Hit);
        assert!(!asked, "the admit decision belongs to misses only");
    }

    #[test]
    fn outcomes_and_counters_conserve() {
        let mut k = kernel(1_000);
        let (mut hits, mut admitted, mut bypassed) = (0u64, 0u64, 0u64);
        for i in 0..500u64 {
            // Skewed, non-cyclic reuse over a working set a little larger
            // than the cache.
            let object = ObjectId((i.wrapping_mul(2_654_435_761) >> 9) as u32 % 12);
            match k.access(object, 100 + i % 50, i, || i % 3 != 0, |_| {}) {
                Outcome::Hit => hits += 1,
                Outcome::Admitted => admitted += 1,
                Outcome::Bypassed => bypassed += 1,
            }
        }
        let s = k.stats();
        assert!(hits > 0 && admitted > 0 && bypassed > 0, "all three outcomes must occur");
        assert_eq!((s.hits, s.files_written, s.bypasses), (hits, admitted, bypassed));
        assert_eq!(s.accesses, s.hits + s.files_written + s.bypasses);
        assert!(s.evictions > 0 && s.evictions <= s.files_written);
    }

    #[test]
    fn sink_sees_one_insert_then_one_evict_per_evicted_entry() {
        let mut k = kernel(300);
        let mut events = Vec::new();
        for (now, object) in [1u32, 2, 3].into_iter().enumerate() {
            k.access(ObjectId(object), 100, now as u64, || true, |e| events.push(e));
        }
        events.clear();
        // 250 bytes into a full 300-byte LRU pushes out all three residents,
        // oldest first.
        let outcome = k.access(ObjectId(9), 250, 3, || true, |e| events.push(e));
        assert_eq!(outcome, Outcome::Admitted);
        assert_eq!(
            events,
            vec![
                CacheEvent::Insert { object: ObjectId(9), size: 250 },
                CacheEvent::Evict { object: ObjectId(1), size: 100 },
                CacheEvent::Evict { object: ObjectId(2), size: 100 },
                CacheEvent::Evict { object: ObjectId(3), size: 100 },
            ]
        );
        assert_eq!(k.stats().evictions, 3);
        // A bypass and a hit emit nothing.
        k.access(ObjectId(4), 10, 4, || false, |e| events.push(e));
        k.access(ObjectId(9), 250, 5, || true, |e| events.push(e));
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn accounting_charges_the_backend_for_misses_only() {
        let mut a = Accounting::new(LatencyModel::default(), HddProfile::default(), true);
        a.record(Outcome::Hit, 0, 1000);
        assert_eq!(a.service_time.misses(), 0);
        a.record(Outcome::Admitted, 1, 1000);
        a.record(Outcome::Bypassed, 2, 1000);
        assert_eq!(a.service_time.misses(), 2);
        assert_eq!(a.response.requests(), 3);
    }

    #[test]
    fn untrained_gate_admits_everything() {
        let mut l = Learned::new(100, 16, true);
        assert!(decide(&mut l, None, 1, 0.9, 0));
        assert_eq!(l.confusion.total(), 0, "no decisions recorded before training");
    }

    #[test]
    fn predicted_one_time_is_bypassed_and_remembered() {
        let (mut l, tree) = (Learned::new(100, 16, true), trained_tree());
        assert!(!decide(&mut l, Some(&tree), 1, 0.9, 0), "one-time: bypass");
        assert_eq!(l.history.len(), 1);
        assert!(decide(&mut l, Some(&tree), 2, 0.1, 1), "non-one-time: admit");
    }

    #[test]
    fn history_rectifies_second_miss_within_m() {
        let (mut l, tree) = (Learned::new(100, 16, true), trained_tree());
        assert!(!decide(&mut l, Some(&tree), 1, 0.9, 0));
        // Same object misses again soon: admitted despite the model.
        assert!(decide(&mut l, Some(&tree), 1, 0.9, 50), "history must rectify");
        assert_eq!(l.history.rectifications(), 1);
    }

    #[test]
    fn slow_second_miss_is_still_bypassed() {
        let (mut l, tree) = (Learned::new(100, 16, true), trained_tree());
        assert!(!decide(&mut l, Some(&tree), 1, 0.9, 0));
        assert!(!decide(&mut l, Some(&tree), 1, 0.9, 500), "return after M: judgement stood");
    }

    #[test]
    fn disabled_history_never_rectifies() {
        let (mut l, tree) = (Learned::new(100, 16, false), trained_tree());
        assert!(!decide(&mut l, Some(&tree), 1, 0.9, 0));
        assert!(!decide(&mut l, Some(&tree), 1, 0.9, 50));
        assert!(l.history.is_empty());
    }

    #[test]
    fn confusion_tracks_truth() {
        let (mut l, tree) = (Learned::new(100, 16, true), trained_tree());
        l.apply(Some(tree.predict(&[0.9])), ObjectId(1), 0, true); // TP
        l.apply(Some(tree.predict(&[0.9])), ObjectId(2), 1, false); // FP
        l.apply(Some(tree.predict(&[0.1])), ObjectId(3), 2, false); // TN
        l.apply(Some(tree.predict(&[0.1])), ObjectId(4), 3, true); // FN
        let c = l.confusion;
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (1, 1, 1, 1));
    }

    #[test]
    fn oracle_follows_the_label_and_touches_no_learned_state() {
        let mut oracle = Admission::new(Mode::Ideal, None, 50, 16, true);
        assert!(oracle.learned().is_none(), "an oracle carries no history or confusion");
        for now in 0..200u64 {
            let truth = now % 3 == 0;
            // A verdict handed to an oracle is ignored, not tallied.
            assert_eq!(oracle.decide(Some(!truth), ObjectId(0), now, truth), !truth);
        }
    }

    #[test]
    fn admission_is_built_per_mode() {
        assert!(matches!(Admission::new(Mode::Original, None, 9, 16, true), Admission::Always));
        assert!(matches!(Admission::new(Mode::Proposal, None, 9, 16, true), Admission::Learned(_)));
        let filter = MissFilter::for_run(Mode::TinyLfu, 1000, 9, 30, 0.5);
        assert!(matches!(Admission::new(Mode::TinyLfu, filter, 9, 16, true), Admission::Filter(_)));
    }
}
