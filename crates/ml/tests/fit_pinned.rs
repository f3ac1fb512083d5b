//! The production fit path, pinned: the scores of a cost-sensitive tree,
//! a 10-round AdaBoost and an 8-tree forest fitted on one seeded dataset
//! are folded into FNV-1a digests and compared against recorded values.
//! One column has far more than 256 distinct values, so the quantile
//! packing of the 256-bin histogram engine is on the path; a change to
//! binning, split search, bootstrap or boosting moves a digest.

use otae_ml::{AdaBoost, Classifier, Dataset, DecisionTree, RandomForest};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a step over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of a model's score on every row, in row order.
fn score_digest<C: Classifier>(model: &C, data: &Dataset) -> u64 {
    (0..data.len()).fold(0xcbf2_9ce4_8422_2325, |h, i| {
        fnv(h, &model.score(data.row(i)).to_bits().to_le_bytes())
    })
}

/// 3 000 rows over four features: a continuous column (thousands of
/// distinct values, packed into 256 quantile bins), two grid columns and
/// a noise column. Weights vary per row so the ensembles' weight handling
/// is on the path as well.
fn dataset() -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    let mut d = Dataset::new(4);
    for _ in 0..3_000 {
        let x0: f32 = rng.gen::<f32>() * 100.0;
        let x1 = rng.gen_range(0..12) as f32;
        let x2 = rng.gen_range(0..90) as f32 * 0.5;
        let x3: f32 = rng.gen();
        let label = (x0 > 40.0) ^ (x1 > 7.0) || (x2 > 40.0 && rng.gen::<f32>() < 0.7);
        let weight = [1.0, 0.5, 2.0][rng.gen_range(0..3usize)];
        d.push_weighted(&[x0, x1, x2, x3], label, weight);
    }
    d
}

#[test]
fn continuous_column_exceeds_the_bin_budget() {
    let d = dataset();
    let mut values: Vec<u32> = (0..d.len()).map(|i| d.row(i)[0].to_bits()).collect();
    values.sort_unstable();
    values.dedup();
    assert!(values.len() > 256, "{} distinct values", values.len());
}

#[test]
fn tree_fit_is_pinned() {
    let d = dataset();
    let mut tree = DecisionTree::with_cost(2.0);
    tree.fit(&d);
    assert_eq!(score_digest(&tree, &d), 12_025_177_331_308_182_532);
}

#[test]
fn adaboost_fit_is_pinned() {
    let d = dataset();
    let mut boost = AdaBoost::new(10);
    boost.fit(&d);
    assert_eq!(score_digest(&boost, &d), 11_504_215_134_828_463_985);
}

#[test]
fn forest_fit_is_pinned() {
    let d = dataset();
    let mut forest = RandomForest::new(8, 23);
    forest.fit(&d);
    assert_eq!(score_digest(&forest, &d), 3_510_560_368_276_902_481);
}
