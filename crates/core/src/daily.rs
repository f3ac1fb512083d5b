//! Training-data sampling and the daily retraining cycle.
//!
//! §3.1.1: training data is sampled from the log at up to 100 records per
//! minute. §4.4.3: classification quality decays over time, so the model is
//! retrained every day at 05:00 (the load trough) on the previous 24 hours
//! of samples, using the Table-4 cost matrix; training a CART tree on the
//! sampled day takes well under a second at our scale.

use crate::features::N_FEATURES;
use otae_ml::{Classifier, Dataset, DecisionTree, SplitEngine, TreeParams};
use otae_trace::diurnal::DAY;

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
    /// Split-search engine for retraining. Defaults to the histogram-binned
    /// engine, which keeps the §4.4.3 daily retrain off the serving hot
    /// path's critical section for far less time than the exact splitter.
    pub engine: SplitEngine,
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
            engine: SplitEngine::default(),
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
    train_tree_with(samples, v, max_splits, SplitEngine::default())
}

/// [`train_tree`] with an explicit split-search engine (the exact splitter
/// remains available for equivalence testing and benchmarking).
pub fn train_tree_with(
    samples: &[Sample],
    v: f32,
    max_splits: usize,
    engine: SplitEngine,
) -> Option<DecisionTree> {
    if !trainable(samples) {
        return None;
    }
    let mut data = Dataset::new(N_FEATURES);
    for s in samples {
        data.push(&s.features, s.one_time);
    }
    let mut tree =
        DecisionTree::new(TreeParams { max_splits, cost_fp: v, engine, ..TreeParams::default() });
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

/// Daily retraining driver (§4.4.3): retrains at `retrain_hour` each day on
/// the previous 24 hours of samples.
#[derive(Debug)]
pub struct DailyTrainer {
    cfg: TrainingConfig,
    v: f32,
    /// Next timestamp at which training fires.
    next_retrain_ts: u64,
    /// Retrain boundaries that found a trainable window: trees fitted, plus
    /// windows a `fit = false` answer to [`Self::maybe_retrain_if`]
    /// discarded unfitted.
    pub trainings: u32,
}

impl DailyTrainer {
    /// New trainer; `v` resolved from the cost policy by the caller.
    pub fn new(cfg: TrainingConfig, v: f32) -> Self {
        let first = cfg.retrain_hour as u64 * 3600 + DAY; // 05:00 of day 1
        Self { cfg, v, next_retrain_ts: first, trainings: 0 }
    }

    /// Called per request with the current timestamp; when a retrain
    /// boundary passes, fits a fresh tree on the trailing 24 h of samples
    /// and returns it.
    pub fn maybe_retrain(&mut self, ts: u64, sampler: &mut MinuteSampler) -> Option<DecisionTree> {
        self.maybe_retrain_if(ts, sampler, || true).flatten()
    }

    /// [`Self::maybe_retrain`] with a say before the fit. When a boundary
    /// passes over a trainable window (non-empty, both classes), `fit` is
    /// asked once: `true` fits
    /// and returns `Some(Some(tree))`, `false` returns `Some(None)` without
    /// fitting. Either way the boundary is consumed — the window is
    /// discarded, the next boundary scheduled and the training counted.
    /// `None` when no boundary passed or its window was not trainable.
    pub fn maybe_retrain_if(
        &mut self,
        ts: u64,
        sampler: &mut MinuteSampler,
        fit: impl FnOnce() -> bool,
    ) -> Option<Option<DecisionTree>> {
        if ts < self.next_retrain_ts || (self.cfg.train_once && self.trainings > 0) {
            return None;
        }
        let boundary = self.next_retrain_ts;
        // Catch up if the stream skipped several days.
        while ts >= self.next_retrain_ts {
            self.next_retrain_ts += DAY;
        }
        let lo = boundary.saturating_sub(DAY);
        let window = sampler.window(lo, boundary);
        let due = trainable(window).then(|| {
            fit()
                .then(|| train_tree_with(window, self.v, self.cfg.max_splits, self.cfg.engine))
                .flatten()
        });
        sampler.discard_before(lo);
        if due.is_some() {
            self.trainings += 1;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn daily_trainer_fires_at_five_am() {
        let mut sampler = MinuteSampler::new(100);
        // Day 0 data: x > 0.5 means one-time.
        for i in 0..400u64 {
            let ts = i * 200; // spread over day 0
            let (f, t, y) = sample(ts, (i % 100) as f32 / 100.0, (i % 100) >= 50);
            sampler.offer(t, f, y);
        }
        let mut trainer = DailyTrainer::new(TrainingConfig::default(), 2.0);
        // Before 05:00 of day 1: nothing.
        assert!(trainer.maybe_retrain(DAY + 4 * 3600, &mut sampler).is_none());
        // At 05:00 of day 1: trains on day-0 window.
        let model = trainer.maybe_retrain(DAY + 5 * 3600, &mut sampler);
        assert!(model.is_some());
        assert_eq!(trainer.trainings, 1);
        // Does not retrain again within the same day.
        assert!(trainer.maybe_retrain(DAY + 6 * 3600, &mut sampler).is_none());
    }

    /// The say before the fit: asked once per trainable boundary and never
    /// for a single-class one; a refusal consumes the boundary like a fit
    /// (counted, older samples discarded, next boundary a day later)
    /// without one.
    #[test]
    fn a_refused_fit_consumes_the_boundary_without_fitting() {
        let mut sampler = MinuteSampler::new(100);
        for i in 0..400u64 {
            let (f, t, y) = sample(i * 200, (i % 100) as f32 / 100.0, (i % 100) >= 50);
            sampler.offer(t, f, y);
        }
        let mut trainer = DailyTrainer::new(TrainingConfig::default(), 2.0);
        let mut asked = 0;
        let mut refuse = || {
            asked += 1;
            false
        };
        assert!(trainer.maybe_retrain_if(DAY + 4 * 3600, &mut sampler, &mut refuse).is_none());
        let due = trainer.maybe_retrain_if(DAY + 5 * 3600, &mut sampler, &mut refuse);
        assert!(matches!(due, Some(None)), "due, refused, nothing fitted");
        assert_eq!(trainer.trainings, 1);
        assert!(sampler.samples().iter().all(|x| x.ts >= 5 * 3600), "discarded as after a fit");
        assert!(trainer.maybe_retrain_if(DAY + 6 * 3600, &mut sampler, &mut refuse).is_none());
        // Day 1's samples are all one class: the next boundary is not
        // trainable, so nobody is asked and nothing is counted.
        for i in 0..100u64 {
            let (f, t, y) = sample(DAY + 6 * 3600 + i * 60, 0.5, true);
            sampler.offer(t, f, y);
        }
        assert!(trainer.maybe_retrain_if(2 * DAY + 5 * 3600, &mut sampler, &mut refuse).is_none());
        assert_eq!((asked, trainer.trainings), (1, 1));
    }

    #[test]
    fn binned_and_exact_engines_agree_on_sampled_window() {
        // Feature values are 200 distinct grid points, so the binned engine
        // (256 bins) must reproduce the exact splitter's predictions.
        let samples: Vec<Sample> = (0..400)
            .map(|i| {
                let (features, ts, one_time) =
                    sample(i, (i % 200) as f32 / 200.0, (i % 200) >= 120);
                Sample { ts, features, one_time }
            })
            .collect();
        let exact = train_tree_with(&samples, 2.0, 30, SplitEngine::Exact).expect("trainable");
        let binned = train_tree_with(&samples, 2.0, 30, SplitEngine::Binned { max_bins: 256 })
            .expect("trainable");
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
