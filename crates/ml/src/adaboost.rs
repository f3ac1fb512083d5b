//! AdaBoost (Table 1 baseline): discrete AdaBoost over shallow CART trees.
//!
//! The paper notes that boosting ~30 base learners buys only ≈1 % accuracy
//! at ~30× the compute of a single tree (§3.1.1) — the ablation bench
//! reproduces that trade-off. The dataset is quantized **once** and every
//! round trains on the shared bin codes with a per-round weight override —
//! no dataset clone, no per-round re-sorting.

use crate::binning::{BinnedDataset, MAX_BINS};
use crate::{Classifier, Dataset, DecisionTree, TreeParams};

/// Discrete AdaBoost ensemble of depth-limited decision trees.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    /// Number of boosting rounds (base learners).
    pub rounds: usize,
    /// Split budget of each weak tree.
    pub weak_splits: usize,
    stages: Vec<(DecisionTree, f32)>,
    alpha_sum: f32,
}

impl AdaBoost {
    /// New ensemble with `rounds` weak learners.
    pub fn new(rounds: usize) -> Self {
        Self { rounds, weak_splits: 3, stages: Vec::new(), alpha_sum: 0.0 }
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, data: &Dataset) {
        self.stages.clear();
        self.alpha_sum = 0.0;
        let n = data.len();
        if n == 0 {
            return;
        }
        // Boosting maintains its own weights on top of the dataset weights.
        let mut w: Vec<f32> = (0..n).map(|i| data.weight(i)).collect();
        // Bin once; each round only swaps the weight vector.
        let binned = BinnedDataset::build(data, MAX_BINS);
        for round in 0..self.rounds {
            let sum: f32 = w.iter().sum();
            if sum <= 0.0 {
                break;
            }
            let norm: Vec<f32> = w.iter().map(|&x| x / sum).collect();
            let mut weak = DecisionTree::new(TreeParams {
                max_splits: self.weak_splits,
                max_depth: 3,
                min_leaf_weight: 1e-4,
                seed: round as u64,
                ..TreeParams::default()
            });
            weak.fit_binned_on(&binned, None, Some(&norm));
            // Weighted error.
            let mut err = 0.0f64;
            let preds: Vec<bool> = weak.predict_batch(data);
            for i in 0..n {
                if preds[i] != data.label(i) {
                    err += norm[i] as f64;
                }
            }
            if err >= 0.5 {
                break; // weak learner no better than chance
            }
            let err = err.max(1e-9);
            let alpha = (0.5 * ((1.0 - err) / err).ln()) as f32;
            // Reweight: mistakes up, correct down.
            for i in 0..n {
                let sign = if preds[i] == data.label(i) { -1.0 } else { 1.0 };
                w[i] *= (sign * alpha).exp();
            }
            self.alpha_sum += alpha;
            let perfect = err <= 1e-8;
            self.stages.push((weak, alpha));
            if perfect {
                break;
            }
        }
    }

    fn score(&self, row: &[f32]) -> f32 {
        if self.stages.is_empty() {
            return 0.0;
        }
        let mut margin = 0.0f32;
        for (tree, alpha) in &self.stages {
            let vote = if tree.predict(row) { 1.0 } else { -1.0 };
            margin += alpha * vote;
        }
        // Map margin in [-alpha_sum, alpha_sum] to [0, 1].
        (margin / self.alpha_sum + 1.0) * 0.5
    }

    fn name(&self) -> &'static str {
        "AdaBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict_all;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn stripes(n: usize, seed: u64) -> Dataset {
        // Alternating stripes along x0: needs an ensemble of stumps.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let x0: f32 = rng.gen::<f32>() * 4.0;
            let x1: f32 = rng.gen();
            d.push(&[x0, x1], (x0 as u32).is_multiple_of(2));
        }
        d
    }

    #[test]
    fn boosting_beats_single_weak_learner() {
        let train = stripes(2000, 1);
        let test = stripes(500, 2);
        let acc = |preds: Vec<bool>| {
            preds.iter().zip(test.labels()).filter(|(p, y)| *p == *y).count() as f64
                / test.len() as f64
        };
        let mut weak = DecisionTree::new(TreeParams { max_splits: 1, ..Default::default() });
        weak.fit(&train);
        let weak_acc = acc(predict_all(&weak, &test));
        let mut boost = AdaBoost::new(30);
        boost.fit(&train);
        let boost_acc = acc(predict_all(&boost, &test));
        assert!(
            boost_acc > weak_acc + 0.1,
            "boosting {boost_acc} must clearly beat a stump {weak_acc}"
        );
        assert!(boost_acc > 0.9, "stripes accuracy {boost_acc}");
    }

    #[test]
    fn stops_early_on_perfect_fit() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push(&[i as f32], i >= 50);
        }
        let mut boost = AdaBoost::new(50);
        boost.fit(&d);
        assert!(boost.stages.len() < 50, "separable data must stop early");
        let correct = (0..d.len()).filter(|&i| boost.predict(d.row(i)) == d.label(i)).count();
        assert_eq!(correct, d.len());
    }

    #[test]
    fn scores_bounded() {
        let train = stripes(500, 3);
        let mut boost = AdaBoost::new(10);
        boost.fit(&train);
        for i in 0..train.len() {
            let s = boost.score(train.row(i));
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn empty_fit_is_stable() {
        let mut boost = AdaBoost::new(5);
        boost.fit(&Dataset::new(2));
        assert_eq!(boost.score(&[0.0, 0.0]), 0.0);
        assert_eq!(boost.stages.len(), 0);
    }
}
