//! Property tests: the histogram-binned split engine is prediction-identical
//! to the exact sorted splitter whenever every feature has at most 256
//! distinct values (one bin per distinct value reproduces the exact
//! splitter's candidate thresholds, weights and tie-breaking exactly).

use otae_ml::{Classifier, Dataset, DecisionTree, TreeParams};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random dataset where feature `f` takes `cards[f]` distinct grid values.
fn grid_dataset(n: usize, cards: &[u32], seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut d = Dataset::new(cards.len());
    for _ in 0..n {
        let row: Vec<f32> = cards
            .iter()
            .map(|&c| {
                let level = rng.gen_range(0..c);
                level as f32 * 0.5 - 3.0
            })
            .collect();
        let label = row[0] + row.get(1).copied().unwrap_or(0.0) * 0.5 + rng.gen::<f32>() > 0.5;
        d.push(&row, label);
    }
    d
}

/// The exact reference and the production fit, on the same parameters.
fn fit_both(data: &Dataset, params: TreeParams) -> (DecisionTree, DecisionTree) {
    let mut exact = DecisionTree::new(params);
    let mut binned = exact.clone();
    exact.fit_exact(data);
    binned.fit(data);
    (exact, binned)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn binned_matches_exact_on_low_cardinality_data(
        seed in 0u64..10_000,
        n in 50usize..800,
        c0 in 2u32..256,
        c1 in 2u32..40,
        c2 in 1u32..8,
    ) {
        let cards = [c0, c1, c2];
        let data = grid_dataset(n, &cards, seed);
        let (exact, binned) = fit_both(&data, TreeParams { seed, ..TreeParams::default() });
        prop_assert_eq!(exact.n_splits(), binned.n_splits());
        for i in 0..data.len() {
            prop_assert_eq!(exact.predict(data.row(i)), binned.predict(data.row(i)));
        }
    }

    #[test]
    fn binned_matches_exact_under_cost_matrix(
        seed in 0u64..10_000,
        n in 100usize..600,
    ) {
        // Table 4's cost matrices: v multiplies negative-sample weights.
        for v in [2.0f32, 3.0] {
            let data = grid_dataset(n, &[64, 16, 4], seed);
            let params = TreeParams { cost_fp: v, seed, ..TreeParams::default() };
            let (exact, binned) = fit_both(&data, params);
            for i in 0..data.len() {
                prop_assert_eq!(exact.predict(data.row(i)), binned.predict(data.row(i)));
            }
        }
    }

    #[test]
    fn binned_batch_prediction_matches_per_row(
        seed in 0u64..10_000,
        n in 50usize..400,
    ) {
        let data = grid_dataset(n, &[200, 30], seed);
        let mut tree = DecisionTree::new(TreeParams { seed, ..TreeParams::default() });
        tree.fit(&data);
        let batch = tree.score_batch(&data);
        for (i, &s) in batch.iter().enumerate() {
            prop_assert_eq!(s, tree.score(data.row(i)));
        }
    }
}
