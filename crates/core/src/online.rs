//! Online (incremental) learning — the alternative the paper mentions but
//! does not pursue.
//!
//! §4.4.3: *"There are two solutions to this problem. One is incrementally
//! updating classification model in a real-time manner. The other is an
//! offline learning manner … We choose the second one."* This module builds
//! the first one so the trade-off can actually be measured.
//!
//! Two pieces make it realistic:
//!
//! * [`DelayedLabelQueue`] — in production nobody hands the system oracle
//!   labels: whether a miss was one-time-access only becomes known `M`
//!   accesses later (either the object returned — label observed at the
//!   return — or it did not — label observed when the window expires). The
//!   queue implements exactly that feedback delay.
//! * [`OnlineLogistic`] — an always-on logistic regression with Welford
//!   online feature standardisation and class-weighted SGD, updated from
//!   the matured labels only.
//!
//! [`run_online_with`] drives a full simulation with this admission stack and is
//! compared against the paper's daily-batch training in the
//! `ablation_online` experiment.

use crate::criteria::resolve_criteria;
use crate::engine::{Accounting, Kernel, Learned};
use crate::features::{FeatureExtractor, N_FEATURES};
use crate::pipeline::RunConfig;
use crate::reaccess::ReaccessIndex;
use otae_cache::CacheStats;
use otae_fxhash::FxHashMap;
use otae_ml::ConfusionMatrix;
use otae_trace::{ObjectId, Trace};
use std::collections::VecDeque;

/// One decision whose true label has not matured yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Access index of the decision.
    idx: u64,
    /// Feature row at decision time.
    features: [f32; N_FEATURES],
}

/// A matured training observation.
#[derive(Debug, Clone, Copy)]
pub struct MaturedLabel {
    /// Feature row at decision time.
    pub features: [f32; N_FEATURES],
    /// True one-time-access label, observed without any oracle.
    pub one_time: bool,
}

/// Delayed label feedback: decisions mature into labels once the object
/// returns (non-one-time) or the `M`-access window expires (one-time).
#[derive(Debug)]
pub struct DelayedLabelQueue {
    m: u64,
    /// Latest undecided observation per object.
    pending: FxHashMap<ObjectId, Pending>,
    /// Expiry order: (decision idx, object).
    expiry: VecDeque<(u64, ObjectId)>,
    matured: Vec<MaturedLabel>,
}

impl DelayedLabelQueue {
    /// Queue for a one-time-access threshold of `m` accesses.
    pub fn new(m: u64) -> Self {
        Self { m, pending: FxHashMap::default(), expiry: VecDeque::new(), matured: Vec::new() }
    }

    /// Record a decision at access index `idx`.
    pub fn record(&mut self, obj: ObjectId, idx: u64, features: [f32; N_FEATURES]) {
        self.pending.insert(obj, Pending { idx, features });
        self.expiry.push_back((idx, obj));
    }

    /// The object was accessed again at index `now`: if a pending decision
    /// exists, its label matures immediately.
    pub fn on_access(&mut self, obj: ObjectId, now: u64) {
        if let Some(p) = self.pending.remove(&obj) {
            let one_time = now.saturating_sub(p.idx) > self.m;
            self.matured.push(MaturedLabel { features: p.features, one_time });
        }
    }

    /// Advance time to access index `now`, expiring windows that closed
    /// without a return (those mature as one-time).
    pub fn advance(&mut self, now: u64) {
        while let Some(&(idx, obj)) = self.expiry.front() {
            if now.saturating_sub(idx) <= self.m {
                break;
            }
            self.expiry.pop_front();
            // Only mature if this exact decision is still pending (a newer
            // access may have superseded or resolved it).
            if let Some(p) = self.pending.get(&obj) {
                if p.idx == idx {
                    let p = self.pending.remove(&obj).expect("just checked");
                    self.matured.push(MaturedLabel { features: p.features, one_time: true });
                }
            }
        }
    }

    /// Drain labels that matured since the last call.
    pub fn drain(&mut self) -> Vec<MaturedLabel> {
        std::mem::take(&mut self.matured)
    }
}

/// Welford-style online mean/variance per feature.
#[derive(Debug, Clone)]
struct OnlineStandardizer {
    n: f64,
    mean: [f64; N_FEATURES],
    m2: [f64; N_FEATURES],
}

impl OnlineStandardizer {
    fn new() -> Self {
        Self { n: 0.0, mean: [0.0; N_FEATURES], m2: [0.0; N_FEATURES] }
    }

    fn update(&mut self, row: &[f32; N_FEATURES]) {
        self.n += 1.0;
        for (j, &v) in row.iter().enumerate() {
            let x = v as f64;
            let d = x - self.mean[j];
            self.mean[j] += d / self.n;
            self.m2[j] += d * (x - self.mean[j]);
        }
    }

    fn transform(&self, row: &[f32; N_FEATURES]) -> [f32; N_FEATURES] {
        let mut out = [0.0f32; N_FEATURES];
        for j in 0..N_FEATURES {
            let var = if self.n > 1.0 { self.m2[j] / self.n } else { 1.0 };
            let std = var.sqrt().max(1e-6);
            out[j] = ((row[j] as f64 - self.mean[j]) / std) as f32;
        }
        out
    }
}

/// Incrementally-updated logistic regression for one-time-access prediction.
#[derive(Debug, Clone)]
pub struct OnlineLogistic {
    /// SGD learning rate.
    pub lr: f32,
    /// Weight applied to negative-class updates (Table 4's `v`).
    pub cost_fp: f32,
    weights: [f32; N_FEATURES],
    bias: f32,
    standardizer: OnlineStandardizer,
    observations: u64,
}

impl OnlineLogistic {
    /// Fresh model; `cost_fp` is the false-positive cost `v`.
    pub fn new(lr: f32, cost_fp: f32) -> Self {
        Self {
            lr,
            cost_fp,
            weights: [0.0; N_FEATURES],
            bias: 0.0,
            standardizer: OnlineStandardizer::new(),
            observations: 0,
        }
    }

    /// Labels consumed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Positive-class probability.
    pub fn score(&self, row: &[f32; N_FEATURES]) -> f32 {
        let x = self.standardizer.transform(row);
        let z: f32 = self.weights.iter().zip(&x).map(|(w, v)| w * v).sum::<f32>() + self.bias;
        1.0 / (1.0 + (-z).exp())
    }

    /// Hard one-time decision at 0.5.
    pub fn predict(&self, row: &[f32; N_FEATURES]) -> bool {
        self.score(row) >= 0.5
    }

    /// Consume one matured label.
    pub fn observe(&mut self, label: &MaturedLabel) {
        self.standardizer.update(&label.features);
        let x = self.standardizer.transform(&label.features);
        let p = {
            let z: f32 = self.weights.iter().zip(&x).map(|(w, v)| w * v).sum::<f32>() + self.bias;
            1.0 / (1.0 + (-z).exp())
        };
        let y = if label.one_time { 1.0 } else { 0.0 };
        let w = if label.one_time { 1.0 } else { self.cost_fp };
        let err = (p - y) * w;
        for (wj, xj) in self.weights.iter_mut().zip(&x) {
            *wj -= self.lr * err * xj;
        }
        self.bias -= self.lr * err;
        self.observations += 1;
    }
}

impl otae_ml::OnlineClassifier for OnlineLogistic {
    fn observe(&mut self, row: &[f32], label: bool) {
        let mut features = [0.0f32; N_FEATURES];
        features.copy_from_slice(row);
        OnlineLogistic::observe(self, &MaturedLabel { features, one_time: label });
    }

    fn score(&self, row: &[f32]) -> f32 {
        let mut features = [0.0f32; N_FEATURES];
        features.copy_from_slice(row);
        OnlineLogistic::score(self, &features)
    }

    fn observations(&self) -> u64 {
        self.observations
    }
}

/// Result of an online-admission run.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// Cache counters.
    pub stats: CacheStats,
    /// Mean latency (µs) under the classified miss penalty.
    pub mean_latency_us: f64,
    /// Decision quality against offline ground truth.
    pub confusion: ConfusionMatrix,
    /// Labels the model actually consumed (all from delayed feedback).
    pub labels_consumed: u64,
    /// One-time threshold used.
    pub m: u64,
}

/// Which incremental learner drives an online-admission run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineModelKind {
    /// Cost-weighted online logistic regression (linear).
    Logistic,
    /// Hoeffding (VFDT) incremental decision tree (non-linear).
    Hoeffding,
}

impl OnlineModelKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OnlineModelKind::Logistic => "online logistic",
            OnlineModelKind::Hoeffding => "Hoeffding tree",
        }
    }
}

/// Run a simulation where admission is driven by the incremental learner
/// `kind` fed exclusively from [`DelayedLabelQueue`] — no oracle labels
/// anywhere on the decision path.
pub fn run_online_with(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &RunConfig,
    kind: OnlineModelKind,
) -> OnlineResult {
    assert_eq!(index.len(), trace.len());
    let (criteria, m) = resolve_criteria(trace, index, cfg.policy, cfg.capacity, cfg.m_override);
    let v = cfg.training.cost.resolve(cfg.capacity, index.unique_bytes());

    let mut kernel = Kernel::new(cfg.policy.build(cfg.capacity, trace));
    let mut accounting = Accounting::new(cfg.latency, cfg.hdd, true);
    let mut learned = Learned::new(m, criteria.history_table_capacity(), true);
    let mut model: Box<dyn otae_ml::OnlineClassifier> = match kind {
        OnlineModelKind::Logistic => Box::new(OnlineLogistic::new(0.05, v)),
        OnlineModelKind::Hoeffding => {
            let mut t = otae_ml::HoeffdingTree::new(N_FEATURES);
            t.cost_fp = v as f64;
            Box::new(t)
        }
    };
    let mut queue = DelayedLabelQueue::new(m);
    let mut extractor = FeatureExtractor::new(trace);
    let mut labels = 0u64;

    // Feature rows are extracted in blocks (extraction depends only on the
    // request stream, never on decisions or matured labels), so the
    // extractor's sliding-window work stays off the per-request decision
    // path. Scoring itself cannot batch here: the model mutates on every
    // matured label, so each prediction must see the model state of its own
    // request — batching it would change results.
    const FEATURE_BLOCK: usize = 1024;
    let mut block_feats: Vec<[f32; N_FEATURES]> = Vec::with_capacity(FEATURE_BLOCK);

    let mut block_start = 0usize;
    while block_start < trace.len() {
        let block_end = (block_start + FEATURE_BLOCK).min(trace.len());
        block_feats.clear();
        for req in &trace.requests[block_start..block_end] {
            block_feats.push(extractor.extract(trace, req));
            extractor.update(trace, req);
        }

        for i in block_start..block_end {
            let req = &trace.requests[i];
            let now = i as u64;
            let size = trace.photo(req.object).size as u64;

            // Label maturation precedes the decision (strictly causal).
            queue.advance(now);
            queue.on_access(req.object, now);
            for label in queue.drain() {
                model.observe(&label.features, label.one_time);
                labels += 1;
            }

            let features = block_feats[i - block_start];
            let outcome = kernel.access(
                req.object,
                size,
                now,
                || {
                    queue.record(req.object, now, features);
                    // Cold start: no verdict, so everything is admitted.
                    let predicted = (model.observations() >= 500).then(|| model.predict(&features));
                    learned.apply(predicted, req.object, now, index.is_one_time(i, m))
                },
                |_| {},
            );
            accounting.record(outcome, req.ts, size);
        }
        block_start = block_end;
    }

    OnlineResult {
        stats: *kernel.stats(),
        mean_latency_us: accounting.response.mean_us(),
        confusion: learned.confusion,
        labels_consumed: labels,
        m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_with_index, Mode, PolicyKind};
    use otae_trace::{generate, TraceConfig};

    fn row(x: f32) -> [f32; N_FEATURES] {
        let mut f = [0.0f32; N_FEATURES];
        f[0] = x;
        f
    }

    #[test]
    fn queue_matures_on_return() {
        let mut q = DelayedLabelQueue::new(100);
        q.record(ObjectId(1), 0, row(0.5));
        q.on_access(ObjectId(1), 50);
        let labels = q.drain();
        assert_eq!(labels.len(), 1);
        assert!(!labels[0].one_time, "returned within M: not one-time");
        assert_eq!(q.pending.len(), 0);
    }

    #[test]
    fn queue_matures_on_expiry() {
        let mut q = DelayedLabelQueue::new(100);
        q.record(ObjectId(1), 0, row(0.5));
        q.advance(100);
        assert!(q.drain().is_empty(), "window still open at exactly M");
        q.advance(101);
        let labels = q.drain();
        assert_eq!(labels.len(), 1);
        assert!(labels[0].one_time, "no return within M: one-time");
    }

    #[test]
    fn late_return_labels_one_time() {
        let mut q = DelayedLabelQueue::new(100);
        q.record(ObjectId(1), 0, row(0.5));
        // Returns, but far beyond M and before any advance.
        q.on_access(ObjectId(1), 500);
        let labels = q.drain();
        assert_eq!(labels.len(), 1);
        assert!(labels[0].one_time);
    }

    #[test]
    fn superseded_decisions_do_not_double_mature() {
        let mut q = DelayedLabelQueue::new(100);
        q.record(ObjectId(1), 0, row(0.1));
        q.on_access(ObjectId(1), 10); // matures first decision
        q.record(ObjectId(1), 10, row(0.2));
        q.advance(200); // expires second decision; first expiry entry is stale
        let labels = q.drain();
        assert_eq!(labels.len(), 2);
        assert!(!labels[0].one_time);
        assert!(labels[1].one_time);
    }

    #[test]
    fn online_logistic_learns_a_threshold() {
        let mut model = OnlineLogistic::new(0.1, 1.0);
        let mut state = 1u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = ((state >> 33) % 1000) as f32 / 1000.0;
            model.observe(&MaturedLabel { features: row(x), one_time: x > 0.5 });
        }
        assert!(model.observations >= 500);
        assert!(model.predict(&row(0.9)));
        assert!(!model.predict(&row(0.1)));
        assert!(model.score(&row(0.9)) > model.score(&row(0.6)));
    }

    #[test]
    fn cost_weight_biases_against_positives() {
        let train = |v: f32| {
            let mut model = OnlineLogistic::new(0.1, v);
            let mut state = 9u64;
            for _ in 0..8000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = ((state >> 33) % 1000) as f32 / 1000.0;
                let noisy = ((state >> 13) % 100) as f32 / 100.0;
                let label = x + 0.4 * noisy > 0.7;
                model.observe(&MaturedLabel { features: row(x), one_time: label });
            }
            model
        };
        let neutral = train(1.0);
        let costly = train(4.0);
        // Count positive predictions over a grid: the costly model must be
        // more conservative.
        let pos =
            |m: &OnlineLogistic| (0..100).filter(|i| m.predict(&row(*i as f32 / 100.0))).count();
        assert!(pos(&costly) <= pos(&neutral));
    }

    #[test]
    fn run_online_improves_over_original_without_oracle_labels() {
        let trace = generate(&TraceConfig { n_objects: 8_000, seed: 99, ..Default::default() });
        let index = ReaccessIndex::build(&trace);
        let cap = (trace.unique_bytes() as f64 * 0.02) as u64;
        let cfg = RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap);
        let online = run_online_with(&trace, &index, &cfg, OnlineModelKind::Logistic);
        let orig =
            run_with_index(&trace, &index, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap));
        assert!(online.labels_consumed > 1_000, "delayed labels must flow");
        assert!(
            online.stats.files_written < orig.stats.files_written,
            "online admission must cut writes: {} vs {}",
            online.stats.files_written,
            orig.stats.files_written
        );
        assert!(
            online.stats.file_hit_rate() > orig.stats.file_hit_rate() - 0.02,
            "online admission must not sink the hit rate: {} vs {}",
            online.stats.file_hit_rate(),
            orig.stats.file_hit_rate()
        );
    }

    #[test]
    fn run_online_is_deterministic() {
        let trace = generate(&TraceConfig { n_objects: 2_000, seed: 5, ..Default::default() });
        let index = ReaccessIndex::build(&trace);
        let cap = (trace.unique_bytes() as f64 * 0.02) as u64;
        let cfg = RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap);
        let a = run_online_with(&trace, &index, &cfg, OnlineModelKind::Logistic);
        let b = run_online_with(&trace, &index, &cfg, OnlineModelKind::Logistic);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.labels_consumed, b.labels_consumed);
    }
}
