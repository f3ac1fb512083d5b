//! Training-data sampling and the daily retraining cycle.
//!
//! §3.1.1: training data is sampled from the log at up to 100 records per
//! minute. §4.4.3: classification quality decays over time, so the model is
//! retrained every day at 05:00 (the load trough) on the previous 24 hours
//! of samples, using the Table-4 cost matrix; training a CART tree on the
//! sampled day takes well under a second at our scale.
//!
//! [`DailyTrainer`] is that cycle, sampler included: one
//! [`DailyTrainer::observe`] per request. [`ModelSchedule`] records what it
//! installs over a whole trace and answers which model judges a trace
//! position. The lookup runs on the serve worker's request path, so this
//! file is in otae-lint's no-panic scope: nothing here unwraps or panics.

use crate::features::N_FEATURES;
use crate::reaccess::ReaccessIndex;
use otae_ml::{Classifier, Dataset, DecisionTree, TreeParams};
use otae_trace::diurnal::DAY;
use otae_trace::Trace;

/// Cost-matrix policy for Table 4's `v` (the false-positive cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostPolicy {
    /// Use a fixed `v`.
    Fixed(f32),
    /// The paper's rule scaled to our trace: `v = 2` for small caches,
    /// `v = 3` for large ones. The paper's boundary (12 GB of a ~450 GB
    /// working set) is a capacity:unique-bytes ratio of ≈ 2.7 %.
    Auto,
}

impl CostPolicy {
    /// Resolve `v` for a cache of `capacity` bytes over a working set of
    /// `unique_bytes`.
    pub fn resolve(self, capacity: u64, unique_bytes: u64) -> f32 {
        match self {
            CostPolicy::Fixed(v) => v,
            CostPolicy::Auto => {
                if unique_bytes == 0 || (capacity as f64) < 0.027 * unique_bytes as f64 {
                    2.0
                } else {
                    3.0
                }
            }
        }
    }
}

/// Classifier-training configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Cost matrix policy (Table 4).
    pub cost: CostPolicy,
    /// Sampling cap: records kept per minute (§3.1.1; paper uses 100).
    pub records_per_minute: usize,
    /// Hour of day at which retraining runs (§4.4.3; paper uses 05:00).
    pub retrain_hour: u8,
    /// Split budget of the tree (§3.1.2; paper uses 30).
    pub max_splits: usize,
    /// Enable the §4.4.2 history table (ablation knob; paper: enabled).
    pub use_history: bool,
    /// Train once (first boundary) and never refresh — the static-model
    /// baseline §4.4.3 argues against (ablation knob; paper: false).
    pub train_once: bool,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            cost: CostPolicy::Auto,
            records_per_minute: 100,
            retrain_hour: 5,
            max_splits: 30,
            use_history: true,
            train_once: false,
        }
    }
}

/// One sampled training record.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request timestamp (seconds since trace start).
    pub ts: u64,
    /// Feature row at access time.
    pub features: [f32; N_FEATURES],
    /// Offline one-time-access label.
    pub one_time: bool,
}

/// Per-minute-capped sampler over the live request stream (§3.1.1).
#[derive(Debug, Clone)]
pub struct MinuteSampler {
    cap_per_minute: usize,
    /// Newest timestamp offered so far: the sampler's clock, never run back.
    newest_ts: u64,
    in_minute: usize,
    samples: Vec<Sample>,
}

impl MinuteSampler {
    /// Sampler keeping at most `cap_per_minute` records per minute.
    pub fn new(cap_per_minute: usize) -> Self {
        Self { cap_per_minute, newest_ts: 0, in_minute: 0, samples: Vec::new() }
    }

    /// Offer one record; it is kept if the minute's budget allows. A record
    /// older than the newest one seen (several clients feeding one sampler
    /// are only approximately time-ordered) counts as arriving at that
    /// newest timestamp, so a straggler neither re-opens a spent minute's
    /// budget nor unsorts the samples `window` and `discard_before` search.
    pub fn offer(&mut self, ts: u64, features: [f32; N_FEATURES], one_time: bool) {
        let ts = ts.max(self.newest_ts);
        if ts / 60 != self.newest_ts / 60 {
            self.in_minute = 0;
        }
        self.newest_ts = ts;
        if self.in_minute < self.cap_per_minute {
            self.in_minute += 1;
            self.samples.push(Sample { ts, features, one_time });
        }
    }

    /// All samples collected so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Samples with `lo <= ts < hi` (samples are sorted by `ts`, see `offer`).
    pub fn window(&self, lo: u64, hi: u64) -> &[Sample] {
        let start = self.samples.partition_point(|s| s.ts < lo);
        let end = self.samples.partition_point(|s| s.ts < hi);
        &self.samples[start..end]
    }

    /// Drop samples older than `lo` (keeps memory bounded on long runs).
    pub fn discard_before(&mut self, lo: u64) {
        let start = self.samples.partition_point(|s| s.ts < lo);
        self.samples.drain(..start);
    }
}

/// Whether a tree can be fitted on `samples`: the window is non-empty and
/// holds both classes.
fn trainable(samples: &[Sample]) -> bool {
    samples.iter().any(|s| s.one_time) && samples.iter().any(|s| !s.one_time)
}

/// Train the paper's cost-sensitive CART tree on a sample window with the
/// default (histogram-binned) split engine. Returns `None` when the window
/// is empty or single-class.
pub fn train_tree(samples: &[Sample], v: f32, max_splits: usize) -> Option<DecisionTree> {
    if !trainable(samples) {
        return None;
    }
    let mut data = Dataset::new(N_FEATURES);
    for s in samples {
        data.push(&s.features, s.one_time);
    }
    let mut tree =
        DecisionTree::new(TreeParams { max_splits, cost_fp: v, ..TreeParams::default() });
    tree.fit(&data);
    Some(tree)
}

/// A freshly trained tree. Plain wrapper kept for `benchmark/src/layers.rs`,
/// its only caller (`AdmissionGate::install_trained`).
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The trained tree.
    pub tree: DecisionTree,
}

impl TrainedModel {
    /// Wrap `tree`.
    pub fn new(tree: DecisionTree) -> Self {
        Self { tree }
    }
}

/// The daily retraining cycle (§4.4.3) with its minute sampler (§3.1.1):
/// at `retrain_hour` each day it fits a tree on the previous 24 hours of
/// samples.
#[derive(Debug)]
pub struct DailyTrainer {
    cfg: TrainingConfig,
    v: f32,
    /// Next timestamp at which training fires.
    next_retrain_ts: u64,
    sampler: MinuteSampler,
    /// Retrain boundaries that found a trainable window: trees fitted, plus
    /// windows a `fit = false` answer to [`Self::observe_if`] discarded
    /// unfitted.
    pub trainings: u32,
}

impl DailyTrainer {
    /// New trainer; `v` resolved from the cost policy by the caller.
    pub fn new(cfg: TrainingConfig, v: f32) -> Self {
        let first = cfg.retrain_hour as u64 * 3600 + DAY; // 05:00 of day 1
        let sampler = MinuteSampler::new(cfg.records_per_minute);
        Self { cfg, v, next_retrain_ts: first, sampler, trainings: 0 }
    }

    /// Called per request: when a retrain boundary has passed, fits a fresh
    /// tree on the trailing 24 h of samples and returns it; then offers the
    /// request's row to the sampler.
    pub fn observe(
        &mut self,
        ts: u64,
        features: [f32; N_FEATURES],
        one_time: bool,
    ) -> Option<DecisionTree> {
        self.observe_if(ts, features, one_time, || true).flatten()
    }

    /// [`Self::observe`] with a say before the fit. When a boundary passes
    /// over a trainable window (non-empty, both classes), `fit` is asked
    /// once: `true` fits and returns `Some(Some(tree))`, `false` returns
    /// `Some(None)` without fitting. Either way the boundary is consumed —
    /// the window is discarded, the next boundary scheduled and the
    /// training counted. `None` when no boundary passed or its window was
    /// not trainable. A `train_once` trainer that has trained neither fits
    /// nor samples again.
    pub fn observe_if(
        &mut self,
        ts: u64,
        features: [f32; N_FEATURES],
        one_time: bool,
        fit: impl FnOnce() -> bool,
    ) -> Option<Option<DecisionTree>> {
        let mut due = None;
        if ts >= self.next_retrain_ts && !self.finished() {
            let boundary = self.next_retrain_ts;
            // Catch up if the stream skipped several days.
            while ts >= self.next_retrain_ts {
                self.next_retrain_ts += DAY;
            }
            let lo = boundary.saturating_sub(DAY);
            let window = self.sampler.window(lo, boundary);
            let fitted = || train_tree(window, self.v, self.cfg.max_splits);
            due = trainable(window).then(|| fit().then(fitted).flatten());
            self.sampler.discard_before(lo);
            self.trainings += u32::from(due.is_some());
        }
        if !self.finished() {
            self.sampler.offer(ts, features, one_time);
        }
        due
    }

    /// A `train_once` trainer that has trained: nothing it samples is read.
    fn finished(&self) -> bool {
        self.cfg.train_once && self.trainings > 0
    }
}

/// The exact sequence of model installs an inline Proposal run performs:
/// `(request index, model)` pairs in ascending index order.
///
/// Training depends only on the request stream, the label threshold `M` and
/// the misprediction cost `v` — never on replacement-policy or capacity
/// state — so a schedule built once can be replayed across every sweep
/// point that shares `(m, v)` (e.g. the same policy at many capacities),
/// skipping the sampler and tree fitting entirely. The serve crate holds
/// the same schedule with each tree wrapped for its gate.
#[derive(Debug, Clone)]
pub struct ModelSchedule<M = DecisionTree> {
    /// One-time-access threshold the schedule's labels used.
    pub m: u64,
    /// Misprediction cost the trees were trained with.
    pub v: f32,
    /// `(request index, model)` install points, ascending by index.
    pub installs: Vec<(u64, M)>,
    /// Completed daily trainings.
    pub trainings: u32,
}

impl ModelSchedule {
    /// Record the install sequence by running the daily trainer over a
    /// precomputed feature stream (see
    /// [`FeatureExtractor::extract_all`](crate::FeatureExtractor::extract_all)).
    pub fn build(
        trace: &Trace,
        index: &ReaccessIndex,
        features: &[[f32; N_FEATURES]],
        m: u64,
        v: f32,
        cfg: &TrainingConfig,
    ) -> Self {
        assert_eq!(features.len(), trace.len(), "feature stream must match the trace");
        let mut trainer = DailyTrainer::new(cfg.clone(), v);
        let mut installs = Vec::new();
        for (i, (req, row)) in trace.requests.iter().zip(features).enumerate() {
            if let Some(model) = trainer.observe(req.ts, *row, index.is_one_time(i, m)) {
                installs.push((i as u64, model));
            }
        }
        ModelSchedule { m, v, installs, trainings: trainer.trainings }
    }
}

impl<M> ModelSchedule<M> {
    /// The model request `idx` is judged by: the last install at or before
    /// it, none before the first. A request can therefore never observe a
    /// model trained after its trace position. `cursor` is where the
    /// caller's previous lookup ended: walking in trace order costs one
    /// compare a lookup, and any other order stays correct.
    #[inline]
    pub fn model(&self, idx: u64, cursor: &mut usize) -> Option<&M> {
        let installs = &self.installs;
        while installs.get(*cursor).is_some_and(|(first, _)| *first <= idx) {
            *cursor += 1;
        }
        while installs.get(cursor.wrapping_sub(1)).is_some_and(|(first, _)| *first > idx) {
            *cursor -= 1;
        }
        installs.get(cursor.checked_sub(1)?).map(|(_, model)| model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_ml::SplitEngine;

    fn sample(ts: u64, x: f32, one_time: bool) -> ([f32; N_FEATURES], u64, bool) {
        let mut f = [0.0f32; N_FEATURES];
        f[0] = x;
        (f, ts, one_time)
    }

    #[test]
    fn sampler_caps_per_minute() {
        let mut s = MinuteSampler::new(3);
        for i in 0..10 {
            let (f, ts, y) = sample(i, 0.0, false);
            s.offer(ts, f, y);
        }
        assert_eq!(s.samples().len(), 3, "same minute capped at 3");
        let (f, ts, y) = sample(61, 0.0, false);
        s.offer(ts, f, y);
        assert_eq!(s.samples().len(), 4, "new minute resets the budget");
    }

    /// Two clients straddling a minute boundary offer m, m+1, m, m+1, …:
    /// the late records must not re-open either minute's budget, and the
    /// samples must stay sorted so windows cut where they say they do.
    #[test]
    fn out_of_order_offers_keep_the_cap_and_the_order() {
        let mut s = MinuteSampler::new(2);
        for i in 0..200u64 {
            let (f, ts, y) = sample(if i % 2 == 0 { 119 } else { 120 }, 0.0, false);
            s.offer(ts, f, y);
        }
        for minute in [1u64, 2] {
            let kept = s.samples().iter().filter(|x| x.ts / 60 == minute).count();
            assert!(kept <= 2, "minute {minute} kept {kept} samples, cap is 2");
        }
        assert!(s.samples().windows(2).all(|w| w[0].ts <= w[1].ts), "samples must be sorted");
        for (lo, hi) in [(0u64, 120u64), (120, 180), (119, 121), (0, 1000)] {
            let want = s.samples().iter().filter(|x| lo <= x.ts && x.ts < hi).count();
            let got = s.window(lo, hi);
            assert_eq!(got.len(), want, "window({lo}, {hi})");
            assert!(got.iter().all(|x| lo <= x.ts && x.ts < hi), "window({lo}, {hi})");
        }
        s.discard_before(120);
        assert!(s.samples().iter().all(|x| x.ts >= 120));
    }

    #[test]
    fn window_selects_by_time() {
        let mut s = MinuteSampler::new(100);
        for ts in [10u64, 70, 130, 190] {
            let (f, t, y) = sample(ts, 0.0, false);
            s.offer(t, f, y);
        }
        assert_eq!(s.window(60, 140).len(), 2);
        assert_eq!(s.window(0, 1000).len(), 4);
        s.discard_before(100);
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn train_tree_learns_threshold() {
        let samples: Vec<Sample> = (0..200)
            .map(|i| {
                let (features, ts, one_time) = sample(i, i as f32 / 200.0, i >= 100);
                Sample { ts, features, one_time }
            })
            .collect();
        let tree = train_tree(&samples, 1.0, 30).expect("trainable");
        let mut hi = [0.0f32; N_FEATURES];
        hi[0] = 0.9;
        let mut lo = [0.0f32; N_FEATURES];
        lo[0] = 0.1;
        assert!(tree.predict(&hi));
        assert!(!tree.predict(&lo));
    }

    #[test]
    fn single_class_windows_yield_no_model() {
        let samples: Vec<Sample> = (0..50)
            .map(|i| {
                let (features, ts, one_time) = sample(i, 0.5, true);
                Sample { ts, features, one_time }
            })
            .collect();
        assert!(train_tree(&samples, 2.0, 30).is_none());
        assert!(train_tree(&[], 2.0, 30).is_none());
    }

    /// Day-0 rows every 200 s, x > 0.5 meaning one-time: no boundary
    /// passes while they are observed.
    fn observe_day_zero(trainer: &mut DailyTrainer) {
        for i in 0..400u64 {
            let (f, t, y) = sample(i * 200, (i % 100) as f32 / 100.0, (i % 100) >= 50);
            assert!(trainer.observe(t, f, y).is_none());
        }
    }

    #[test]
    fn daily_trainer_fires_at_five_am() {
        let mut trainer = DailyTrainer::new(TrainingConfig::default(), 2.0);
        observe_day_zero(&mut trainer);
        let (f, _, y) = sample(0, 0.5, true);
        // Before 05:00 of day 1: nothing.
        assert!(trainer.observe(DAY + 4 * 3600, f, y).is_none());
        // At 05:00 of day 1: trains on day-0 window.
        assert!(trainer.observe(DAY + 5 * 3600, f, y).is_some());
        assert_eq!(trainer.trainings, 1);
        // Does not retrain again within the same day.
        assert!(trainer.observe(DAY + 6 * 3600, f, y).is_none());
    }

    /// The say before the fit: asked once per trainable boundary and never
    /// for a single-class one; a refusal consumes the boundary like a fit
    /// (counted, older samples discarded, next boundary a day later)
    /// without one.
    #[test]
    fn a_refused_fit_consumes_the_boundary_without_fitting() {
        let mut trainer = DailyTrainer::new(TrainingConfig::default(), 2.0);
        observe_day_zero(&mut trainer);
        let mut asked = 0;
        let mut refuse = || {
            asked += 1;
            false
        };
        // Every row from here on is one-time, so day 1 is single-class.
        let (f, _, y) = sample(0, 0.5, true);
        assert!(trainer.observe_if(DAY + 4 * 3600, f, y, &mut refuse).is_none());
        let due = trainer.observe_if(DAY + 5 * 3600, f, y, &mut refuse);
        assert!(matches!(due, Some(None)), "due, refused, nothing fitted");
        assert_eq!(trainer.trainings, 1);
        let kept = trainer.sampler.samples();
        assert!(kept.iter().all(|x| x.ts >= 5 * 3600), "discarded as after a fit");
        assert!(trainer.observe_if(DAY + 6 * 3600, f, y, &mut refuse).is_none());
        // The next boundary is not trainable, so nobody is asked and
        // nothing is counted.
        for i in 0..100u64 {
            assert!(trainer.observe_if(DAY + 6 * 3600 + i * 60, f, y, &mut refuse).is_none());
        }
        assert!(trainer.observe_if(2 * DAY + 5 * 3600, f, y, &mut refuse).is_none());
        assert_eq!((asked, trainer.trainings), (1, 1));
    }

    /// A `train_once` trainer never reads a sample after its fit, so it
    /// stops taking them: one row every 10 s for five days leaves it
    /// holding on days 2–4 what it held when day 1 ended.
    #[test]
    fn a_train_once_trainer_stops_sampling_after_its_fit() {
        let cfg = TrainingConfig { train_once: true, ..TrainingConfig::default() };
        let mut trainer = DailyTrainer::new(cfg, 2.0);
        let mut held = Vec::new();
        for ts in (0..5 * DAY).step_by(10) {
            let (f, t, y) = sample(ts, (ts % 100) as f32 / 100.0, ts % 100 >= 50);
            trainer.observe(t, f, y);
            if ts % DAY == DAY - 10 {
                held.push(trainer.sampler.samples().len());
            }
        }
        assert_eq!(trainer.trainings, 1);
        assert_eq!(held[0], 8_640, "day 0: every row sampled");
        assert_eq!(held[1..], [held[1]; 4], "flat from the fit on: {held:?}");
    }

    /// The schedule's lookup is an optimisation for trace order, not an
    /// assumption: positions resolved in any order — as several clients
    /// interleave them — get the model the schedule names.
    #[test]
    fn schedule_resolves_positions_in_any_order() {
        let schedule =
            ModelSchedule { m: 0, v: 0.0, installs: vec![(10, 0), (20, 1), (30, 2)], trainings: 3 };
        let expected = |idx: u64| match idx {
            0..10 => None,
            10..20 => Some(0),
            20..30 => Some(1),
            _ => Some(2),
        };
        let mut cursor = 0;
        let order = (0..40u64).chain((0..40).rev()).chain((0..40).map(|i| (i * 17) % 40));
        for idx in order {
            assert_eq!(schedule.model(idx, &mut cursor).copied(), expected(idx), "idx {idx}");
        }
    }

    #[test]
    fn binned_and_exact_engines_agree_on_sampled_window() {
        // Feature values are 200 distinct grid points, so the binned engine
        // (256 bins) must reproduce the exact splitter's predictions.
        let mut data = Dataset::new(N_FEATURES);
        let samples: Vec<Sample> = (0..400)
            .map(|i| {
                let (features, ts, one_time) =
                    sample(i, (i % 200) as f32 / 200.0, (i % 200) >= 120);
                data.push(&features, one_time);
                Sample { ts, features, one_time }
            })
            .collect();
        let fit = |engine| {
            let params = TreeParams { max_splits: 30, cost_fp: 2.0, engine, ..Default::default() };
            let mut tree = DecisionTree::new(params);
            tree.fit(&data);
            tree
        };
        let exact = fit(SplitEngine::Exact);
        let binned = fit(SplitEngine::Binned { max_bins: 256 });
        for s in &samples {
            assert_eq!(exact.predict(&s.features), binned.predict(&s.features));
        }
    }

    #[test]
    fn cost_policy_resolution() {
        assert_eq!(CostPolicy::Fixed(4.0).resolve(0, 0), 4.0);
        // 1% of working set -> small cache -> v = 2.
        assert_eq!(CostPolicy::Auto.resolve(1, 100), 2.0);
        // 10% -> large cache -> v = 3.
        assert_eq!(CostPolicy::Auto.resolve(10, 100), 3.0);
    }
}
