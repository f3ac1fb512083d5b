//! The eight daily trees of one generated trace, pinned. The trace is large
//! enough that every daily window holds more than 8 192 sampled rows (12 k
//! to 37 k), so the histogram pass over large nodes — the path the
//! small-trace oracles (`golden_fingerprints.rs`, windows of ≈ 2 k rows)
//! never reach — is what the digest records. The schedule is built exactly as a Proposal run
//! builds it: extracted features, the criteria solver's `M`, the cost
//! policy's `v` and the default training configuration.

use otae_core::daily::CostPolicy;
use otae_core::{
    resolve_criteria, FeatureExtractor, MinuteSampler, ModelSchedule, PolicyKind, ReaccessIndex,
    TrainingConfig,
};
use otae_trace::diurnal::DAY;
use otae_trace::{generate, TraceConfig};

/// FNV-1a step over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn daily_trees_of_a_60k_object_trace_are_pinned() {
    let trace = generate(&TraceConfig { n_objects: 60_000, seed: 2024, ..Default::default() });
    let index = ReaccessIndex::build(&trace);
    let capacity = (trace.unique_bytes() as f64 * 0.02) as u64;
    let (_, m) = resolve_criteria(&trace, &index, PolicyKind::Lru, capacity, None);
    let v = CostPolicy::Auto.resolve(capacity, trace.unique_bytes());
    let features = FeatureExtractor::extract_all(&trace);
    let cfg = TrainingConfig::default();

    // The windows the trainer fits: 24 h of per-minute samples ending at
    // each daily boundary. Every one must reach the large-node path.
    let mut sampler = MinuteSampler::new(cfg.records_per_minute);
    let mut boundary = DAY + u64::from(cfg.retrain_hour) * 3600;
    let mut windows = Vec::new();
    for (i, req) in trace.requests.iter().enumerate() {
        if req.ts >= boundary {
            windows.push(sampler.window(boundary - DAY, boundary).len());
            sampler.discard_before(boundary - DAY);
            while req.ts >= boundary {
                boundary += DAY;
            }
        }
        sampler.offer(req.ts, features[i], index.is_one_time(i, m));
    }
    assert_eq!(windows.len(), 8, "windows {windows:?}");
    assert!(windows.iter().all(|&n| n >= 8_192), "windows {windows:?}");

    let schedule = ModelSchedule::build(&trace, &index, &features, m, v, &cfg);
    assert_eq!(schedule.installs.len(), 8);
    let digest = schedule.installs.iter().fold(0xcbf2_9ce4_8422_2325, |h, (at, tree)| {
        fnv(fnv(h, &at.to_le_bytes()), &tree.to_bytes())
    });
    assert_eq!((m, v, digest), (4_862, 2.0, 7_090_901_094_742_601_868), "m, v, digest");
}
