//! The production fit path, pinned: the scores of a cost-sensitive tree,
//! a 10-round AdaBoost and an 8-tree forest fitted on one seeded dataset
//! are folded into FNV-1a digests and compared against recorded values.
//! One column has far more than 256 distinct values, so the quantile
//! packing of the 256-bin histogram engine is on the path; a change to
//! binning, split search, bootstrap or boosting moves a digest. A second,
//! 40 000-row dataset pins a tree whose nodes hold tens of thousands of
//! rows, where the histogram pass of large nodes runs.

use otae_ml::{AdaBoost, Classifier, Dataset, DecisionTree, RandomForest, TreeParams};
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
    let mut tree = DecisionTree::new(TreeParams { cost_fp: 2.0, ..TreeParams::default() });
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

/// 40 000 rows over nine features, so the root and its first children hold
/// far more than 8 192 rows each (the small dataset above never builds a
/// node histogram that large). Columns 0, 3 and 6 are continuous and
/// overflow the 256-bin budget; the other six are narrow grids.
fn large_dataset() -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1a_26e5);
    let mut d = Dataset::new(9);
    for _ in 0..40_000 {
        let x0: f32 = rng.gen::<f32>() * 1000.0;
        let x1 = rng.gen_range(0..4) as f32;
        let x2 = rng.gen_range(0..24) as f32;
        let x3: f32 = rng.gen::<f32>().powi(3) * 5e6;
        let x4 = rng.gen_range(0..2) as f32;
        let x5 = rng.gen_range(0..60) as f32 * 0.5;
        let x6: f32 = rng.gen();
        let x7 = rng.gen_range(0..7) as f32;
        let x8 = rng.gen_range(0..200) as f32;
        let label = (x0 > 400.0) ^ (x2 > 17.0)
            || (x3 < 2e5 && x1 < 2.0)
            || (x8 > 150.0 && rng.gen::<f32>() < 0.6);
        d.push(&[x0, x1, x2, x3, x4, x5, x6, x7, x8], label);
    }
    d
}

#[test]
fn large_node_tree_fit_is_pinned() {
    let d = large_dataset();
    for f in [0usize, 3, 6] {
        let mut values: Vec<u32> = (0..d.len()).map(|i| d.row(i)[f].to_bits()).collect();
        values.sort_unstable();
        values.dedup();
        assert!(values.len() > 256, "feature {f}: {} distinct values", values.len());
    }
    let mut tree = DecisionTree::new(TreeParams { cost_fp: 2.0, ..TreeParams::default() });
    tree.fit(&d);
    assert_eq!(tree.n_splits(), 30);
    assert_eq!(score_digest(&tree, &d), 9_607_532_085_987_601_387);
}
