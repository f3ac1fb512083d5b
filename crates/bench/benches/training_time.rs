//! Daily-training cost (§4.4.3: "the entire training procedure takes only a
//! few minutes" on a day of 144 k sampled records; our CART on the same
//! volume should be far below that).
//!
//! Two shapes: uniform-random columns, and the largest daily window of a
//! generated trace the size of the `serve_proposal` benchmark workload's,
//! which is what the retrainer actually fits (four narrow columns, the
//! wide ones of low cardinality).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use otae_core::daily::{train_tree, CostPolicy, Sample};
use otae_core::{
    resolve_criteria, FeatureExtractor, MinuteSampler, PolicyKind, ReaccessIndex, TrainingConfig,
    N_FEATURES,
};
use otae_trace::diurnal::DAY;
use otae_trace::{generate, TraceConfig};

fn day_of_samples(n: usize) -> Vec<Sample> {
    let mut state = 7u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f32) / (u32::MAX >> 2) as f32
    };
    (0..n)
        .map(|i| {
            let mut features = [0.0f32; N_FEATURES];
            for v in features.iter_mut() {
                *v = next();
            }
            let one_time = features[0] + 0.4 * features[4] + 0.3 * next() > 0.8;
            Sample { ts: i as u64, features, one_time }
        })
        .collect()
}

/// The largest of the windows the retrainer fits on a seed-1, 200 k-object
/// trace at the paper's 10 GB operating point (capacity 10/448 of the
/// unique bytes): 24 h of per-minute samples ending at each daily
/// boundary, labelled with the criteria solver's `M`. Returns the window
/// and the cost `v` the retrainer would fit it with.
fn largest_trace_window() -> (Vec<Sample>, f32) {
    let trace = generate(&TraceConfig { n_objects: 200_000, seed: 1, ..Default::default() });
    let index = ReaccessIndex::build(&trace);
    let capacity = (trace.unique_bytes() as f64 * 10.0 / 448.0) as u64;
    let (_, m) = resolve_criteria(&trace, &index, PolicyKind::Lru, capacity, None);
    let v = CostPolicy::Auto.resolve(capacity, trace.unique_bytes());
    let features = FeatureExtractor::extract_all(&trace);
    let cfg = TrainingConfig::default();
    let mut sampler = MinuteSampler::new(cfg.records_per_minute);
    for (i, req) in trace.requests.iter().enumerate() {
        sampler.offer(req.ts, features[i], index.is_one_time(i, m));
    }
    let first = DAY + u64::from(cfg.retrain_hour) * 3600;
    let last = trace.requests.last().map_or(0, |r| r.ts);
    let largest = (first..=last)
        .step_by(DAY as usize)
        .map(|hi| sampler.window(hi - DAY, hi))
        .max_by_key(|w| w.len())
        .unwrap_or_default()
        .to_vec();
    (largest, v)
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("daily_training");
    group.sample_size(10);
    for n in [14_400usize, 144_000] {
        let samples = day_of_samples(n);
        group.bench_function(format!("cart_{n}_records"), |b| {
            b.iter(|| train_tree(black_box(&samples), 2.0, 30))
        });
    }
    let (window, v) = largest_trace_window();
    group.bench_function(format!("cart_trace_window_{}_records", window.len()), |b| {
        b.iter(|| train_tree(black_box(&window), v, 30))
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
