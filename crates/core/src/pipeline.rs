//! End-to-end trace-driven simulation (Figure 4's workflow).
//!
//! One [`run`] drives a full trace through a replacement policy under one of
//! the paper's three admission configurations and returns every statistic
//! the evaluation section plots: file/byte hit rate, file/byte write rate
//! (Figures 6–9), mean response time via the Eqs. 3–6 model (Figure 10),
//! and per-day classifier quality (Figure 5).

use crate::criteria::{resolve_criteria, CriteriaSolution};
use crate::daily::{ModelSchedule, TrainingConfig};
pub use crate::engine::CacheEvent;
use crate::engine::{Accounting, Admission, Kernel, Outcome};
use crate::features::N_FEATURES;
use crate::reaccess::ReaccessIndex;
use crate::zoo::MissFilter;
use otae_cache::{ArcCache, Belady, Cache, CacheStats, Fifo, Gdsf, Lfu, Lirs, Lru, S3Lru, TwoQ};
use otae_device::{HddProfile, LatencyModel, ServiceTimeModel};
use otae_ml::{Classifier, ConfusionMatrix};
use otae_trace::diurnal::DAY;
use otae_trace::{ObjectId, Trace};
use std::borrow::Cow;

/// Replacement policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used (the paper's baseline).
    Lru,
    /// First in, first out.
    Fifo,
    /// Least frequently used (extra baseline).
    Lfu,
    /// Three-segment segmented LRU.
    S3Lru,
    /// Adaptive replacement cache.
    Arc,
    /// Low inter-reference recency set.
    Lirs,
    /// 2Q (extra baseline; filters one-hit wonders on the replacement side).
    TwoQ,
    /// Greedy-Dual-Size-Frequency (extra baseline; size-aware priorities).
    Gdsf,
    /// Offline-optimal Belady bound.
    Belady,
}

impl PolicyKind {
    /// The five policies of the paper's §5.3 figures.
    pub const PAPER_SET: [PolicyKind; 5] =
        [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::S3Lru, PolicyKind::Arc, PolicyKind::Lirs];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Lfu => "LFU",
            PolicyKind::S3Lru => "S3LRU",
            PolicyKind::Arc => "ARC",
            PolicyKind::Lirs => "LIRS",
            PolicyKind::TwoQ => "2Q",
            PolicyKind::Gdsf => "GDSF",
            PolicyKind::Belady => "Belady",
        }
    }

    /// LIR-stack share used by the LIRS criteria variant (`R_s`); 1 for
    /// other policies.
    pub fn stack_ratio(&self) -> f64 {
        match self {
            PolicyKind::Lirs => 0.99,
            _ => 1.0,
        }
    }

    /// Build the policy's cache over `capacity` bytes. The trace is needed
    /// only by Belady (future-knowledge next-access table). The trait object
    /// is `Send` so sharded services can move per-shard caches across
    /// worker threads.
    pub fn build(&self, capacity: u64, trace: &Trace) -> Box<dyn Cache<ObjectId> + Send> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new(capacity)),
            PolicyKind::Fifo => Box::new(Fifo::new(capacity)),
            PolicyKind::Lfu => Box::new(Lfu::new(capacity)),
            PolicyKind::S3Lru => Box::new(S3Lru::new(capacity)),
            PolicyKind::Arc => Box::new(ArcCache::new(capacity)),
            PolicyKind::Lirs => Box::new(Lirs::new(capacity)),
            PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
            PolicyKind::Gdsf => Box::new(Gdsf::new(capacity)),
            PolicyKind::Belady => {
                let keys: Vec<ObjectId> = trace.requests.iter().map(|r| r.object).collect();
                Box::new(Belady::new(capacity, &keys))
            }
        }
    }
}

/// Admission configuration of a run (the curves in Figures 6–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Traditional caching: admit every miss.
    Original,
    /// The paper's classifier + history table.
    Proposal,
    /// Perfect classifier (100 % accuracy).
    Ideal,
    /// Cache-on-second-request doorkeeper (non-ML baseline; a miss is
    /// admitted only when the object was seen before, tracked in a bloom
    /// filter reset every `2M` misses).
    SecondHit,
    /// TinyLFU: count-min-sketch frequency with a doorkeeper bloom filter
    /// and periodic halving reset (non-ML baseline; see [`crate::zoo`]).
    TinyLfu,
    /// Reject-X: admit only after more than X sightings within the current
    /// window (non-ML baseline; X = 1).
    RejectX,
    /// Seeded coin flip with admit probability [`RunConfig::coin_p`]
    /// (uninformed null baseline).
    CoinFlip,
}

impl Mode {
    /// Every admission mode, in display order (the policy-sweep grid).
    pub const ALL: [Mode; 7] = [
        Mode::Original,
        Mode::SecondHit,
        Mode::TinyLfu,
        Mode::RejectX,
        Mode::CoinFlip,
        Mode::Proposal,
        Mode::Ideal,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Original => "Original",
            Mode::Proposal => "Proposal",
            Mode::Ideal => "Ideal",
            Mode::SecondHit => "SecondHit",
            Mode::TinyLfu => "TinyLFU",
            Mode::RejectX => "RejectX",
            Mode::CoinFlip => "CoinFlip",
        }
    }

    /// True for the non-ML miss-filter modes the zoo implements (the
    /// modes [`MissFilter::for_run`] builds a filter for).
    pub fn is_filter(&self) -> bool {
        matches!(self, Mode::SecondHit | Mode::TinyLfu | Mode::RejectX | Mode::CoinFlip)
    }

    /// True for the mode that trains and hot-swaps models (the only mode a
    /// retrainer is spawned for; every other mode's retrain hook is a
    /// no-op).
    pub fn is_learned(&self) -> bool {
        matches!(self, Mode::Proposal)
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Admission mode.
    pub mode: Mode,
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Classifier training configuration (Proposal only).
    pub training: TrainingConfig,
    /// Latency model for Figure 10.
    pub latency: LatencyModel,
    /// Override the computed one-time-access threshold `M` (ablations; e.g.
    /// `u64::MAX - 1` reproduces the naive "accessed once in the whole
    /// trace" criteria of §4.3's first paragraph).
    pub m_override: Option<u64>,
    /// Admit probability of the [`Mode::CoinFlip`] baseline (ignored by
    /// every other mode).
    pub coin_p: f32,
    /// HDD profile for the backend disk-head-time accounting.
    pub hdd: HddProfile,
}

impl RunConfig {
    /// Config with paper-default training, latency and criteria settings.
    pub fn new(policy: PolicyKind, mode: Mode, capacity: u64) -> Self {
        Self {
            policy,
            mode,
            capacity,
            training: TrainingConfig::default(),
            latency: LatencyModel::default(),
            m_override: None,
            coin_p: 0.5,
            hdd: HddProfile::default(),
        }
    }
}

/// Classifier quality for one simulated day (Figure 5's x-axis).
#[derive(Debug, Clone, Copy)]
pub struct DayMetrics {
    /// Day index (0-based).
    pub day: u64,
    /// Decisions made during that day.
    pub confusion: ConfusionMatrix,
}

/// Classifier-side outcome of a Proposal run.
#[derive(Debug, Clone)]
pub struct ClassifierReport {
    /// All decisions over the whole run.
    pub overall: ConfusionMatrix,
    /// Per-day breakdown (Figure 5).
    pub per_day: Vec<DayMetrics>,
    /// History-table rectifications (§4.4.2).
    pub rectifications: u64,
    /// Completed daily trainings.
    pub trainings: u32,
}

/// Outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Admission mode.
    pub mode: Mode,
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Cache counters (Figures 6–9).
    pub stats: CacheStats,
    /// Mean access latency in µs (Figure 10).
    pub mean_latency_us: f64,
    /// 25th-percentile access latency in µs (tail view; extension).
    pub latency_p25_us: f64,
    /// Median access latency in µs (tail view; extension).
    pub latency_p50_us: f64,
    /// 99th-percentile access latency in µs (tail view; extension).
    pub latency_p99_us: f64,
    /// File hit rate per calendar day (warm-up / steady-state view).
    pub per_day_hit_rate: Vec<f64>,
    /// Criteria solution used for labels/admission.
    pub criteria: CriteriaSolution,
    /// Classifier report (Proposal runs only).
    pub classifier: Option<ClassifierReport>,
    /// Backend disk-head-time accounting: every miss (admitted or
    /// bypassed) costs the HDD one seek + rotation + transfer.
    pub service_time: ServiceTimeModel,
}

/// Canonical digest of a run's observable outcome, for differential
/// testing between independent implementations of the same admission
/// pipeline (the single-threaded simulator vs. the sharded service).
///
/// Two runs over the same trace/config are *equivalent* when their
/// fingerprints are `==`: identical cache counters, identical resolved
/// criteria, and (for Proposal runs) identical classifier decisions,
/// rectifications and training count. Floating-point latency summaries are
/// deliberately excluded — they follow from the counters plus the latency
/// model and would only add rounding noise to an exact comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Cache counters (hits/misses/bypasses/evictions, file and byte).
    pub stats: CacheStats,
    /// Resolved one-time-access threshold `M`.
    pub m: u64,
    /// Overall classifier decisions (Proposal runs; `None` otherwise).
    pub confusion: Option<ConfusionMatrix>,
    /// History-table rectifications (Proposal runs; `None` otherwise).
    pub rectifications: Option<u64>,
    /// Completed daily trainings (Proposal runs; `None` otherwise).
    pub trainings: Option<u32>,
    /// Total backend disk-head time in µs (integer per-miss costs, so the
    /// sum is interleaving-independent and exactly comparable).
    pub service_time_us: u64,
    /// Peak windowed backend disk-head time in µs.
    pub service_peak_us: u64,
}

impl RunResult {
    /// The run's [`RunFingerprint`].
    pub fn fingerprint(&self) -> RunFingerprint {
        RunFingerprint {
            stats: self.stats,
            m: self.criteria.m,
            confusion: self.classifier.as_ref().map(|c| c.overall),
            rectifications: self.classifier.as_ref().map(|c| c.rectifications),
            trainings: self.classifier.as_ref().map(|c| c.trainings),
            service_time_us: self.service_time.total_us(),
            service_peak_us: self.service_time.peak_window_us(),
        }
    }
}

fn confusion_delta(cur: &ConfusionMatrix, prev: &ConfusionMatrix) -> ConfusionMatrix {
    ConfusionMatrix {
        tp: cur.tp - prev.tp,
        fp: cur.fp - prev.fp,
        fn_: cur.fn_ - prev.fn_,
        tn: cur.tn - prev.tn,
    }
}

/// Precomputed inputs a run may share with other runs over the same trace:
/// a model schedule, `None` by default (the run fits its own); ignored
/// outside Proposal mode. The feature column needs no plan: every run over
/// one index reads the index's ([`ReaccessIndex::features`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPlan<'a> {
    /// Prerecorded model installs; must have been built with the `(m, v)`
    /// this run resolves to.
    pub schedule: Option<&'a ModelSchedule>,
}

/// Run a simulation, building the reaccess index internally. For sweeps use
/// [`run_with_index`] and share the index.
pub fn run(trace: &Trace, cfg: &RunConfig) -> RunResult {
    let index = ReaccessIndex::build(trace);
    run_with_index(trace, &index, cfg)
}

/// Run a simulation against a precomputed reaccess index.
pub fn run_with_index(trace: &Trace, index: &ReaccessIndex, cfg: &RunConfig) -> RunResult {
    run_with_observer(trace, index, cfg, &mut |_| {})
}

/// [`run_with_index`] against shared precomputed inputs (the sweep's fast
/// path). Produces results identical to [`run_with_index`].
pub fn run_with_plan(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &RunConfig,
    plan: &RunPlan<'_>,
) -> RunResult {
    run_inner(trace, index, cfg, plan, &mut |_| {})
}

/// [`run_with_index`] with an observer receiving every SSD insert/evict —
/// the seam the FTL wear experiments consume.
pub fn run_with_observer(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &RunConfig,
    observer: &mut dyn FnMut(CacheEvent),
) -> RunResult {
    run_inner(trace, index, cfg, &RunPlan::default(), observer)
}

fn run_inner(
    trace: &Trace,
    index: &ReaccessIndex,
    cfg: &RunConfig,
    plan: &RunPlan<'_>,
    observer: &mut dyn FnMut(CacheEvent),
) -> RunResult {
    assert_eq!(index.len(), trace.len(), "index must match the trace");
    let (criteria, m) = resolve_criteria(trace, index, cfg.policy, cfg.capacity, cfg.m_override);
    let mut kernel = Kernel::new(cfg.policy.build(cfg.capacity, trace));
    let mut accounting = Accounting::new(cfg.latency, cfg.hdd, cfg.mode != Mode::Original);
    let mut admission = Admission::new(
        cfg.mode,
        MissFilter::for_run(cfg.mode, trace.meta.len(), m, cfg.training.max_splits, cfg.coin_p),
        m,
        criteria.history_table_capacity(),
        cfg.training.use_history,
    );
    // Only the learned mode has feature rows and models to consult.
    let learned = cfg.mode.is_learned().then(|| learned_inputs(trace, index, cfg, plan, m));
    let mut cursor = 0;

    let mut day_hits: Vec<(u64, u64)> = Vec::new(); // (hits, accesses) per day
    let mut per_day: Vec<DayMetrics> = Vec::new();
    let mut day_start_confusion = ConfusionMatrix::default();
    let mut current_day = 0u64;

    for (k, req) in trace.requests.iter().enumerate() {
        let now = k as u64;
        let size = trace.photo(req.object).size as u64;
        let truth = index.is_one_time(k, m);

        let day = req.ts / DAY;
        if day != current_day {
            // Day roll-over for Figure 5 accounting.
            if let Some(l) = admission.learned() {
                per_day.push(DayMetrics {
                    day: current_day,
                    confusion: confusion_delta(&l.confusion, &day_start_confusion),
                });
                day_start_confusion = l.confusion;
            }
            current_day = day;
        }
        let day = day as usize;
        if day_hits.len() <= day {
            day_hits.resize(day + 1, (0, 0));
        }

        let outcome = kernel.access(
            req.object,
            size,
            now,
            || {
                let predicted = learned.as_ref().and_then(|(features, schedule)| {
                    schedule.model(now, &mut cursor).map(|model| model.predict(&features[k]))
                });
                admission.decide(predicted, req.object, now, truth)
            },
            &mut *observer,
        );
        day_hits[day].0 += u64::from(outcome == Outcome::Hit);
        day_hits[day].1 += 1;
        accounting.record(outcome, req.ts, size);
    }

    let classifier = admission.learned().map(|l| {
        per_day.push(DayMetrics {
            day: current_day,
            confusion: confusion_delta(&l.confusion, &day_start_confusion),
        });
        ClassifierReport {
            overall: l.confusion,
            per_day,
            rectifications: l.history.rectifications(),
            trainings: learned.as_ref().map_or(0, |(_, schedule)| schedule.trainings),
        }
    });
    let Accounting { response, service_time, .. } = accounting;
    RunResult {
        policy: cfg.policy,
        mode: cfg.mode,
        capacity: cfg.capacity,
        stats: *kernel.stats(),
        service_time,
        mean_latency_us: response.mean_us(),
        latency_p25_us: response.percentile_us(0.25),
        latency_p50_us: response.percentile_us(0.5),
        latency_p99_us: response.percentile_us(0.99),
        per_day_hit_rate: day_hits
            .iter()
            .map(|&(h, a)| if a == 0 { 0.0 } else { h as f64 / a as f64 })
            .collect(),
        criteria,
        classifier,
    }
}

/// The learned mode's inputs: the index's feature column, and the model
/// schedule, the plan's or built here. The verdict itself is computed by
/// [`run_inner`] inside the kernel's admit closure — on a miss, never for a
/// hit (§4.4).
fn learned_inputs<'a>(
    trace: &Trace,
    index: &'a ReaccessIndex,
    cfg: &RunConfig,
    plan: &RunPlan<'a>,
    m: u64,
) -> (&'a [[f32; N_FEATURES]], Cow<'a, ModelSchedule>) {
    let features = index.features(trace);
    let v = cfg.training.cost.resolve(cfg.capacity, index.unique_bytes());
    let schedule = match plan.schedule {
        Some(s) => {
            assert_eq!(s.m, m, "model schedule was built for a different M");
            assert_eq!(s.v.to_bits(), v.to_bits(), "model schedule was built for a different v");
            Cow::Borrowed(s)
        }
        None => Cow::Owned(ModelSchedule::build(trace, index, features, m, v, &cfg.training)),
    };
    (features, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otae_trace::{generate, TraceConfig};

    fn trace() -> Trace {
        generate(&TraceConfig { n_objects: 8_000, seed: 31, ..Default::default() })
    }

    fn cap_for(trace: &Trace, frac: f64) -> u64 {
        (trace.unique_bytes() as f64 * frac) as u64
    }

    #[test]
    fn original_lru_behaves_like_always_admit() {
        let t = trace();
        let r = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap_for(&t, 0.02)));
        assert_eq!(r.stats.accesses as usize, t.len());
        assert_eq!(r.stats.bypasses, 0);
        // Every miss is a write under Original.
        assert_eq!(r.stats.files_written, r.stats.accesses - r.stats.hits);
        assert!(r.classifier.is_none());
    }

    #[test]
    fn ideal_improves_hits_and_slashes_writes() {
        let t = trace();
        let cap = cap_for(&t, 0.02);
        let orig = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap));
        let ideal = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Ideal, cap));
        assert!(
            ideal.stats.file_hit_rate() >= orig.stats.file_hit_rate(),
            "ideal {} vs original {}",
            ideal.stats.file_hit_rate(),
            orig.stats.file_hit_rate()
        );
        assert!(
            (ideal.stats.files_written as f64) < 0.6 * orig.stats.files_written as f64,
            "ideal writes {} vs original {}",
            ideal.stats.files_written,
            orig.stats.files_written
        );
    }

    #[test]
    fn proposal_trains_daily_and_reduces_writes() {
        let t = trace();
        let cap = cap_for(&t, 0.02);
        let orig = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap));
        let prop = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap));
        let report = prop.classifier.expect("proposal must report classifier metrics");
        assert!(report.trainings >= 7, "9-day trace must retrain daily: {}", report.trainings);
        assert!(report.overall.total() > 0);
        assert!(
            (prop.stats.files_written as f64) < 0.7 * orig.stats.files_written as f64,
            "proposal writes {} vs original {}",
            prop.stats.files_written,
            orig.stats.files_written
        );
        assert!(
            prop.stats.file_hit_rate() > orig.stats.file_hit_rate() - 0.01,
            "proposal must not lose hit rate: {} vs {}",
            prop.stats.file_hit_rate(),
            orig.stats.file_hit_rate()
        );
    }

    #[test]
    fn belady_dominates_lru_hit_rate() {
        let t = trace();
        let cap = cap_for(&t, 0.02);
        let lru = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap));
        let belady = run(&t, &RunConfig::new(PolicyKind::Belady, Mode::Original, cap));
        assert!(belady.stats.file_hit_rate() >= lru.stats.file_hit_rate());
    }

    #[test]
    fn latency_orders_with_hit_rate() {
        let t = trace();
        let cap = cap_for(&t, 0.02);
        let orig = run(&t, &RunConfig::new(PolicyKind::Fifo, Mode::Original, cap));
        let ideal = run(&t, &RunConfig::new(PolicyKind::Fifo, Mode::Ideal, cap));
        assert!(ideal.mean_latency_us < orig.mean_latency_us);
    }

    #[test]
    fn lirs_uses_smaller_m() {
        let t = trace();
        let cap = cap_for(&t, 0.02);
        let lru = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Ideal, cap));
        let lirs = run(&t, &RunConfig::new(PolicyKind::Lirs, Mode::Ideal, cap));
        assert!(lirs.criteria.m < lru.criteria.m);
    }

    #[test]
    fn second_hit_baseline_filters_writes_and_beats_always_admit() {
        let t = trace();
        let cap = cap_for(&t, 0.02);
        let orig = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap));
        let second = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::SecondHit, cap));
        let prop = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap));
        assert!(second.stats.files_written < orig.stats.files_written);
        assert!(second.stats.bypasses > 0);
        assert!(second.classifier.is_none(), "doorkeeper is not a classifier");
        // Both admission filters beat always-admit on hit rate. Which of the
        // two wins depends on capacity (the doorkeeper wastes one miss per
        // popular object but filters one-times perfectly); the
        // ablation_baselines experiment charts the comparison.
        assert!(second.stats.file_hit_rate() > orig.stats.file_hit_rate());
        assert!(prop.stats.file_hit_rate() > orig.stats.file_hit_rate());
    }

    #[test]
    fn latency_percentiles_and_daily_timeline_are_sane() {
        let t = trace();
        let r = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap_for(&t, 0.02)));
        // Tails: p50 <= mean-ish region <= p99; with a 3ms miss penalty and
        // partial hit rate, p99 must be in miss territory and p50 below it.
        assert!(r.latency_p50_us > 0.0);
        assert!(r.latency_p99_us >= r.latency_p50_us);
        assert!(r.latency_p99_us > 2000.0, "p99 {} must reflect HDD misses", r.latency_p99_us);
        // Daily timeline: 9-day trace, rates in [0,1], warm-up below later days.
        assert_eq!(r.per_day_hit_rate.len(), 9);
        assert!(r.per_day_hit_rate.iter().all(|h| (0.0..=1.0).contains(h)));
        let late_avg: f64 = r.per_day_hit_rate[5..].iter().sum::<f64>() / 4.0;
        assert!(
            r.per_day_hit_rate[0] < late_avg,
            "day 0 is cold: {} vs steady {}",
            r.per_day_hit_rate[0],
            late_avg
        );
    }

    #[test]
    fn planned_run_matches_inline_run_exactly() {
        let t = trace();
        let index = ReaccessIndex::build(&t);
        let cfg = RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap_for(&t, 0.02));
        let inline = run_with_index(&t, &index, &cfg);

        let features = index.features(&t);
        let v = cfg.training.cost.resolve(cfg.capacity, t.unique_bytes());
        let schedule =
            ModelSchedule::build(&t, &index, features, inline.criteria.m, v, &cfg.training);
        assert!(!schedule.installs.is_empty(), "9-day trace must install models");

        // A prerecorded schedule must be bit-identical to the inline run.
        let planned = run_with_plan(&t, &index, &cfg, &RunPlan { schedule: Some(&schedule) });
        assert_eq!(planned.fingerprint(), inline.fingerprint());
        assert_eq!(planned.per_day_hit_rate, inline.per_day_hit_rate);
        let (a, b) = (planned.classifier.unwrap(), inline.classifier.unwrap());
        assert_eq!(a.per_day.len(), b.per_day.len());
    }

    #[test]
    fn policy_names_cover_paper_set() {
        let names: Vec<&str> = PolicyKind::PAPER_SET.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["LRU", "FIFO", "S3LRU", "ARC", "LIRS"]);
    }
}
