//! Random Forest (Table 1 baseline): bootstrap-aggregated CART trees with
//! per-split feature subsampling, trained in parallel with std scoped
//! threads. The dataset is quantized **once** and every tree trains on the
//! shared bin codes — a bootstrap is just a row-index multiset, so no
//! per-tree dataset copies are made.

use crate::binning::{BinnedDataset, MAX_BINS};
use crate::{Classifier, Dataset, DecisionTree, TreeParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random forest of CART trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree split budget.
    pub max_splits: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for fitting (`0` = available parallelism).
    pub threads: usize,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// New forest of `n_trees` trees.
    pub fn new(n_trees: usize, seed: u64) -> Self {
        Self { n_trees, max_splits: 30, seed, threads: 0, trees: Vec::new() }
    }

    fn fit_one(&self, binned: &BinnedDataset, tree_idx: usize) -> DecisionTree {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(tree_idx as u64));
        let n = binned.len();
        let rows: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
        let max_features = (binned.n_features() as f64).sqrt().ceil() as usize;
        let mut tree = DecisionTree::new(TreeParams {
            max_splits: self.max_splits,
            max_features: Some(max_features),
            seed: rng.gen(),
            ..TreeParams::default()
        });
        tree.fit_binned_on(binned, Some(&rows), None);
        tree
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        self.trees.clear();
        if data.is_empty() || self.n_trees == 0 {
            return;
        }
        // Bin once, train all members on the shared codes.
        let binned = &BinnedDataset::build(data, MAX_BINS);
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
        } else {
            self.threads
        }
        .min(self.n_trees);

        let this: &RandomForest = self;
        let mut trees: Vec<Option<DecisionTree>> = vec![None; self.n_trees];
        std::thread::scope(|scope| {
            for (shard_id, chunk) in trees.chunks_mut(this.n_trees.div_ceil(threads)).enumerate() {
                let chunk_base = shard_id * this.n_trees.div_ceil(threads);
                scope.spawn(move || {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(this.fit_one(binned, chunk_base + off));
                    }
                });
            }
        });
        self.trees = trees.into_iter().map(|t| t.expect("all trees fitted")).collect();
    }

    fn score(&self, row: &[f32]) -> f32 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let votes: f32 = self.trees.iter().map(|t| t.score(row)).sum();
        votes / self.trees.len() as f32
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict_all;

    fn xor_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new(4);
        for _ in 0..n {
            let x0: f32 = rng.gen();
            let x1: f32 = rng.gen();
            let n0: f32 = rng.gen();
            let n1: f32 = rng.gen();
            d.push(&[x0, x1, n0, n1], (x0 > 0.5) ^ (x1 > 0.5));
        }
        d
    }

    #[test]
    fn forest_learns_xor_with_noise_features() {
        let train = xor_dataset(3000, 1);
        let test = xor_dataset(600, 2);
        let mut rf = RandomForest::new(20, 7);
        rf.fit(&train);
        let acc =
            predict_all(&rf, &test).iter().zip(test.labels()).filter(|(p, y)| *p == *y).count()
                as f64
                / test.len() as f64;
        assert!(acc > 0.88, "forest accuracy {acc}");
        assert_eq!(rf.trees.len(), 20);
    }

    #[test]
    fn deterministic_despite_parallelism() {
        let train = xor_dataset(800, 3);
        let mut a = RandomForest::new(8, 11);
        a.threads = 1;
        let mut b = RandomForest::new(8, 11);
        b.threads = 4;
        a.fit(&train);
        b.fit(&train);
        for i in 0..50 {
            assert_eq!(a.score(train.row(i)), b.score(train.row(i)));
        }
    }

    #[test]
    fn different_seed_changes_model() {
        let train = xor_dataset(800, 3);
        let mut a = RandomForest::new(8, 1);
        let mut b = RandomForest::new(8, 2);
        a.fit(&train);
        b.fit(&train);
        let same = (0..train.len()).all(|i| a.score(train.row(i)) == b.score(train.row(i)));
        assert!(!same);
    }

    #[test]
    fn empty_fit_is_stable() {
        let mut rf = RandomForest::new(4, 0);
        rf.fit(&Dataset::new(3));
        assert_eq!(rf.score(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(rf.trees.len(), 0);
    }

    #[test]
    fn scores_average_tree_probabilities() {
        let train = xor_dataset(500, 5);
        let mut rf = RandomForest::new(5, 9);
        rf.fit(&train);
        for i in 0..50 {
            let s = rf.score(train.row(i));
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
