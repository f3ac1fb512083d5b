//! Property test for the tree codec: a tree that has been through
//! `to_bytes`/`from_bytes` must score bit-identically to the original on
//! *any* fitted tree and *any* query row (including NaN, infinities and
//! short rows) — so a model shipped over the wire makes the exact admission
//! decisions the trainer measured.

use otae_ml::{BinnedDataset, Classifier, Dataset, DecisionTree, TreeParams};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random dataset: `n` rows over `n_features` grid-valued features, with a
/// label correlated to the first feature so fits produce real splits.
fn dataset(n: usize, n_features: usize, card: u32, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut d = Dataset::new(n_features);
    for _ in 0..n {
        let row: Vec<f32> =
            (0..n_features).map(|_| rng.gen_range(0..card) as f32 * 0.25 - 2.0).collect();
        let label = row[0] + rng.gen::<f32>() * 2.0 > 0.0;
        d.push(&row, label);
    }
    d
}

fn fitted_tree(data: &Dataset, max_splits: usize, seed: u64) -> DecisionTree {
    let mut tree = DecisionTree::new(TreeParams { max_splits, seed, ..TreeParams::default() });
    tree.fit_binned_on(&BinnedDataset::build(data, 64), None, None);
    tree
}

/// Query-row values deliberately include the hostile cases: NaN, ±inf,
/// subnormals, and exact grid points that land on split thresholds.
struct WeirdValue;

impl Strategy for WeirdValue {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        match rng.next_u64() % 10 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => 0.0,
            4 => -0.25,
            5 => f32::MIN_POSITIVE / 2.0,
            _ => (-4.0f32..4.0).sample(rng),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// The tree codec round-trips arbitrary fitted trees: decoding the
    /// encoding yields a tree with the same shape, byte-stable re-encoding,
    /// and bit-identical scores — on the training rows and on hostile query
    /// rows shorter or longer than the training width.
    #[test]
    fn tree_codec_round_trips_arbitrary_fitted_trees(
        n in 20usize..200,
        n_features in 1usize..12,
        card in 2u32..24,
        max_splits in 1usize..30,
        seed in any::<u64>(),
        queries in proptest::collection::vec(
            proptest::collection::vec(WeirdValue, 0..16), 1..24),
    ) {
        let data = dataset(n, n_features, card, seed);
        let tree = fitted_tree(&data, max_splits, seed);

        let bytes = tree.to_bytes();
        let decoded = DecisionTree::from_bytes(&bytes).expect("decode");
        prop_assert_eq!(decoded.n_splits(), tree.n_splits());
        prop_assert_eq!(decoded.n_features(), tree.n_features());
        prop_assert_eq!(decoded.to_bytes(), bytes, "re-encoding is byte-stable");
        for i in 0..data.len() {
            let row = data.row(i);
            prop_assert_eq!(decoded.score(row).to_bits(), tree.score(row).to_bits());
        }
        for q in &queries {
            prop_assert_eq!(decoded.score(q).to_bits(), tree.score(q).to_bits());
        }
    }
}
