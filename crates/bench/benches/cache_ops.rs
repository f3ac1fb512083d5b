//! Cache-operation throughput per replacement policy (t_query in §5.3.5 is
//! ~1 µs on the paper's hardware; ours should be comparable or better), the
//! request kernel with its accounting over a generated trace, and the
//! zoo's miss filters deciding a trace's requests.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use otae_cache::{ArcCache, Cache, Evicted, Fifo, Lfu, Lirs, Lru, S3Lru};
use otae_core::{
    resolve_criteria, Accounting, Kernel, MissFilter, Mode, Outcome, PolicyKind, ReaccessIndex,
    TrainingConfig,
};
use otae_device::{HddProfile, LatencyModel};
use otae_trace::{generate, Trace, TraceConfig};

/// Deterministic zipf-ish key stream.
fn keystream(n: usize) -> Vec<(u64, u64)> {
    let mut state = 0xDEADBEEFu64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (state >> 33) as f64 / (u32::MAX >> 1) as f64;
            // Approximate zipf by squashing the uniform sample.
            let key = (r * r * 10_000.0) as u64;
            (key, 32 * 1024)
        })
        .collect()
}

fn drive<C: Cache<u64>>(cache: &mut C, stream: &[(u64, u64)]) -> u64 {
    let mut evicted: Vec<Evicted<u64>> = Vec::new();
    let mut hits = 0u64;
    for (now, &(k, s)) in stream.iter().enumerate() {
        if cache.on_hit(&k, now as u64) {
            hits += 1;
        } else {
            evicted.clear();
            cache.insert(k, s, now as u64, &mut evicted);
        }
    }
    hits
}

fn bench_policies(c: &mut Criterion) {
    let stream = keystream(100_000);
    let cap: u64 = 1000 * 32 * 1024; // ~1000 resident objects
    let mut group = c.benchmark_group("cache_100k_accesses");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("LRU", cap), |b| {
        b.iter(|| drive(&mut Lru::new(cap), black_box(&stream)))
    });
    group.bench_function(BenchmarkId::new("FIFO", cap), |b| {
        b.iter(|| drive(&mut Fifo::new(cap), black_box(&stream)))
    });
    group.bench_function(BenchmarkId::new("LFU", cap), |b| {
        b.iter(|| drive(&mut Lfu::new(cap), black_box(&stream)))
    });
    group.bench_function(BenchmarkId::new("S3LRU", cap), |b| {
        b.iter(|| drive(&mut S3Lru::new(cap), black_box(&stream)))
    });
    group.bench_function(BenchmarkId::new("ARC", cap), |b| {
        b.iter(|| drive(&mut ArcCache::new(cap), black_box(&stream)))
    });
    group.bench_function(BenchmarkId::new("LIRS", cap), |b| {
        b.iter(|| drive(&mut Lirs::new(cap), black_box(&stream)))
    });
    group.finish();
}

/// Every request through `Kernel::access` (admit every miss) and
/// `Accounting::record`, as `pipeline::run` drives an Original run.
fn replay(trace: &Trace, policy: PolicyKind, capacity: u64) -> u64 {
    let mut kernel = Kernel::new(policy.build(capacity, trace));
    let mut accounting = Accounting::new(LatencyModel::default(), HddProfile::default(), false);
    let mut hits = 0u64;
    for (now, req) in trace.requests.iter().enumerate() {
        let size = u64::from(trace.photo(req.object).size);
        let outcome = kernel.access(req.object, size, now as u64, || true, |_| {});
        hits += u64::from(outcome == Outcome::Hit);
        accounting.record(outcome, req.ts, size);
    }
    black_box(accounting.response.mean_us());
    hits
}

fn bench_kernel(c: &mut Criterion) {
    let trace = generate(&TraceConfig { n_objects: 50_000, seed: 1, ..Default::default() });
    // The CLI's default cache: 2 % of the trace's unique bytes.
    let capacity = trace.unique_bytes() / 50;
    let mut group = c.benchmark_group("kernel_access");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for policy in [PolicyKind::Lru, PolicyKind::S3Lru, PolicyKind::Arc, PolicyKind::Lirs] {
        group.bench_function(policy.name(), |b| {
            b.iter(|| replay(black_box(&trace), policy, capacity))
        });
    }
    group.finish();
}

/// A full-size miss filter, as a run over a 200 k-object trace at the
/// paper's 10/448 operating point builds it, deciding every request of the
/// trace (the filter sees each request as a miss).
fn bench_miss_filters(c: &mut Criterion) {
    let trace = generate(&TraceConfig { n_objects: 200_000, seed: 1, ..Default::default() });
    let index = ReaccessIndex::build(&trace);
    let capacity = (index.unique_bytes() as f64 * 10.0 / 448.0) as u64;
    let (_, m) = resolve_criteria(&trace, &index, PolicyKind::Lru, capacity, None);
    let max_splits = TrainingConfig::default().max_splits;
    let mut group = c.benchmark_group("miss_filter");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for mode in [Mode::SecondHit, Mode::TinyLfu, Mode::RejectX] {
        let fresh = MissFilter::for_run(mode, trace.meta.len(), m, max_splits, 0.5);
        let Some(fresh) = fresh else { continue };
        group.bench_function(fresh.name(), |b| {
            b.iter(|| {
                let mut filter = fresh.clone();
                black_box(&trace).requests.iter().filter(|req| filter.decide(req.object)).count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policies, bench_kernel, bench_miss_filters);
criterion_main!(benches);
