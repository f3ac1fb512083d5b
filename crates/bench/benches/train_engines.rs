//! Split-engine comparison: exact sorted splitter vs histogram-binned
//! engine on the acceptance dataset (50 k rows × 8 features) and smaller
//! sizes. The binned engine must come out ≥ 3× faster at 50 k.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use otae_ml::{Classifier, Dataset, DecisionTree, SplitEngine, TreeParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Synthetic admission-style dataset: 8 features, mixed informative and
/// noise columns, ~40 % positive class.
fn synthetic_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut d = Dataset::new(8);
    for _ in 0..n {
        let mut row = [0.0f32; 8];
        for v in row.iter_mut() {
            *v = rng.gen();
        }
        let label = row[0] + 0.5 * row[3] + 0.3 * rng.gen::<f32>() > 0.9;
        d.push(&row, label);
    }
    d
}

fn fit_with(engine: SplitEngine, data: &Dataset) -> usize {
    let mut tree = DecisionTree::new(TreeParams { engine, cost_fp: 2.0, ..TreeParams::default() });
    tree.fit(data);
    tree.n_splits()
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_engines");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let data = synthetic_dataset(n, 42);
        group.bench_function(format!("exact_{n}x8"), |b| {
            b.iter(|| fit_with(SplitEngine::Exact, black_box(&data)))
        });
        group.bench_function(format!("binned_{n}x8"), |b| {
            b.iter(|| fit_with(SplitEngine::default(), black_box(&data)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
