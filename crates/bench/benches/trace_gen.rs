//! Synthetic-workload generation throughput, and what a serve call derives
//! from a trace before it replays: the reaccess index, the criteria and the
//! feature column.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use otae_core::{resolve_criteria, FeatureExtractor, PolicyKind, ReaccessIndex};
use otae_trace::{generate, sample_objects, TraceConfig};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    group.sample_size(10);
    group.bench_function("generate_20k_objects", |b| {
        b.iter(|| {
            generate(black_box(&TraceConfig { n_objects: 20_000, seed: 42, ..Default::default() }))
        })
    });
    let trace = generate(&TraceConfig { n_objects: 20_000, seed: 42, ..Default::default() });
    group.bench_function("sample_1_in_100", |b| {
        b.iter(|| sample_objects(black_box(&trace), 0.01, 9))
    });
    group.bench_function("characterize", |b| b.iter(|| black_box(&trace).characterize()));
    group.finish();
}

/// The per-trace inputs of a serve call on a seed-1, 200 k-object trace (the
/// benchmark workloads' size) at the paper's 10/448 operating point: the
/// index build, the criteria resolved from it, the trace's own
/// distinct-object pass that callers without an index make, and the feature
/// extraction the first Proposal call on an index makes.
fn bench_criteria_inputs(c: &mut Criterion) {
    let trace = generate(&TraceConfig { n_objects: 200_000, seed: 1, ..Default::default() });
    let index = ReaccessIndex::build(&trace);
    let capacity = (index.unique_bytes() as f64 * 10.0 / 448.0) as u64;
    let mut group = c.benchmark_group("criteria_inputs");
    group.sample_size(10);
    group.bench_function("reaccess_index_build", |b| {
        b.iter(|| ReaccessIndex::build(black_box(&trace)))
    });
    group.bench_function("resolve_criteria", |b| {
        b.iter(|| resolve_criteria(&trace, black_box(&index), PolicyKind::Lru, capacity, None))
    });
    group.bench_function("trace_unique_bytes", |b| b.iter(|| black_box(&trace).unique_bytes()));
    group.bench_function("feature_column", |b| {
        b.iter(|| FeatureExtractor::extract_all(black_box(&trace)))
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_criteria_inputs);
criterion_main!(benches);
