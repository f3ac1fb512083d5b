//! Split-search comparison: the exact sorted reference splitter
//! (`DecisionTree::fit_exact`) vs the production histogram fit
//! (`DecisionTree::fit`) on the acceptance dataset (50 k rows × 8 features)
//! and a smaller size. The histogram fit must come out ≥ 3× faster at 50 k.
//! The ensembles have only the histogram path: a 10-tree forest and a
//! 10-round AdaBoost at 50 k, each binning once for all its members.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use otae_ml::{AdaBoost, Classifier, Dataset, DecisionTree, RandomForest};
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

/// Fit a cost-sensitive tree with the exact reference splitter or the
/// production histogram path; returns the split count.
fn fit_with(exact: bool, data: &Dataset) -> usize {
    let mut tree = DecisionTree::with_cost(2.0);
    if exact {
        tree.fit_exact(data);
    } else {
        tree.fit(data);
    }
    tree.n_splits()
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_engines");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let data = synthetic_dataset(n, 42);
        group.bench_function(format!("exact_{n}x8"), |b| {
            b.iter(|| fit_with(true, black_box(&data)))
        });
        group.bench_function(format!("binned_{n}x8"), |b| {
            b.iter(|| fit_with(false, black_box(&data)))
        });
        if n == 50_000 {
            group.bench_function(format!("forest10_binned_{n}x8"), |b| {
                b.iter(|| RandomForest::new(10, 7).fit(black_box(&data)))
            });
            group.bench_function(format!("adaboost10_binned_{n}x8"), |b| {
                b.iter(|| AdaBoost::new(10).fit(black_box(&data)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
