//! Cross-crate integration tests: full pipeline invariants that span the
//! trace generator, cache policies, criteria/labeler, classifier and device
//! model together.

use otae::core::{run, Mode, PolicyKind, RunConfig};
use otae::device::LatencyModel;
use otae::trace::{generate, Trace, TraceConfig};

fn trace() -> Trace {
    generate(&TraceConfig { n_objects: 6_000, seed: 1234, ..Default::default() })
}

fn cap(trace: &Trace, frac: f64) -> u64 {
    (trace.unique_bytes() as f64 * frac) as u64
}

const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Lfu,
    PolicyKind::S3Lru,
    PolicyKind::Arc,
    PolicyKind::Lirs,
    PolicyKind::Belady,
];

#[test]
fn accounting_identity_holds_for_every_policy_and_mode() {
    let t = trace();
    let c = cap(&t, 0.02);
    for policy in ALL_POLICIES {
        for mode in [Mode::Original, Mode::Proposal, Mode::Ideal] {
            let r = run(&t, &RunConfig::new(policy, mode, c));
            assert_eq!(
                r.stats.hits + r.stats.files_written + r.stats.bypasses,
                r.stats.accesses,
                "{} {}: hits + writes + bypasses must equal accesses",
                policy.name(),
                mode.name()
            );
            assert_eq!(r.stats.accesses as usize, t.len());
            assert!(r.stats.bytes_hit <= r.stats.bytes_accessed);
            // Evictions never exceed insertions.
            assert!(r.stats.evictions <= r.stats.files_written);
        }
    }
}

#[test]
fn original_mode_never_bypasses_and_ideal_never_wastes() {
    let t = trace();
    let c = cap(&t, 0.02);
    let orig = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, c));
    assert_eq!(orig.stats.bypasses, 0);
    let ideal = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Ideal, c));
    assert!(ideal.stats.bypasses > 0, "a social trace has one-time accesses to bypass");
    assert!(ideal.stats.files_written < orig.stats.files_written);
}

#[test]
fn proposal_writes_land_between_ideal_and_original() {
    let t = trace();
    let c = cap(&t, 0.02);
    let orig = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, c));
    let prop = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Proposal, c));
    let ideal = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Ideal, c));
    assert!(prop.stats.files_written < orig.stats.files_written);
    assert!(prop.stats.files_written >= ideal.stats.files_written);
}

#[test]
fn full_runs_are_deterministic() {
    let t = trace();
    let c = cap(&t, 0.02);
    for mode in [Mode::Original, Mode::Proposal, Mode::Ideal] {
        let a = run(&t, &RunConfig::new(PolicyKind::Arc, mode, c));
        let b = run(&t, &RunConfig::new(PolicyKind::Arc, mode, c));
        assert_eq!(a.stats, b.stats, "{} must be deterministic", mode.name());
        assert_eq!(a.mean_latency_us, b.mean_latency_us);
    }
}

#[test]
fn latency_is_bounded_by_hit_and_miss_costs() {
    let t = trace();
    let c = cap(&t, 0.02);
    let model = LatencyModel::default();
    for mode in [Mode::Original, Mode::Proposal] {
        let r = run(&t, &RunConfig::new(PolicyKind::Lru, mode, c));
        // With size scaling the exact constants vary, but the mean must lie
        // well inside [SSD hit cost, HDD miss penalty].
        assert!(r.mean_latency_us > model.t_query_us);
        // Eq. 6: t_query + t_classify + t_hddr.
        let miss_penalty = model.t_query_us + model.t_classify_us + model.t_hdd_read_us;
        assert!(r.mean_latency_us < 2.0 * miss_penalty);
    }
}

#[test]
fn belady_upper_bounds_every_online_policy() {
    let t = trace();
    let c = cap(&t, 0.02);
    let belady = run(&t, &RunConfig::new(PolicyKind::Belady, Mode::Original, c));
    for policy in
        [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::S3Lru, PolicyKind::Arc, PolicyKind::Lirs]
    {
        let r = run(&t, &RunConfig::new(policy, Mode::Original, c));
        assert!(
            belady.stats.file_hit_rate() >= r.stats.file_hit_rate() - 1e-9,
            "Belady {} must dominate {} {}",
            belady.stats.file_hit_rate(),
            policy.name(),
            r.stats.file_hit_rate()
        );
    }
}

#[test]
fn larger_caches_never_hurt_lru_hit_rate() {
    // LRU's stack property: inclusion implies monotone hit rate in capacity.
    let t = trace();
    let mut prev = -1.0;
    for frac in [0.005, 0.01, 0.02, 0.04, 0.08] {
        let r = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Original, cap(&t, frac)));
        let h = r.stats.file_hit_rate();
        assert!(h >= prev - 1e-9, "LRU hit rate must grow with capacity: {h} < {prev}");
        prev = h;
    }
}

#[test]
fn classifier_report_is_internally_consistent() {
    let t = trace();
    let r = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Proposal, cap(&t, 0.02)));
    let report = r.classifier.expect("proposal reports");
    let day_total: u64 = report.per_day.iter().map(|d| d.confusion.total()).sum();
    assert_eq!(day_total, report.overall.total(), "per-day tallies must sum to overall");
    assert!(report.trainings >= 7, "9-day trace retrains daily");
}

#[test]
fn m_override_reaches_the_naive_criteria() {
    let t = trace();
    let c = cap(&t, 0.02);
    let mut cfg = RunConfig::new(PolicyKind::Lru, Mode::Ideal, c);
    cfg.m_override = Some(u64::MAX - 1);
    let naive = run(&t, &cfg);
    let refined = run(&t, &RunConfig::new(PolicyKind::Lru, Mode::Ideal, c));
    // The naive criteria bypasses only never-again objects, so it admits
    // strictly more than the reaccess-distance criteria.
    assert!(naive.stats.files_written > refined.stats.files_written);
}
