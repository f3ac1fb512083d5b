//! Row-major feature matrix with binary labels and per-sample weights.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A supervised binary-classification dataset.
///
/// Features are stored row-major in one contiguous `Vec<f32>`; labels are
/// `bool` (positive = the paper's "one-time-access" class); each sample
/// carries a weight (cost-sensitive learning scales class weights here).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    n_features: usize,
    x: Vec<f32>,
    y: Vec<bool>,
    w: Vec<f32>,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Empty dataset with `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        Self {
            n_features,
            x: Vec::new(),
            y: Vec::new(),
            w: Vec::new(),
            feature_names: (0..n_features).map(|i| format!("f{i}")).collect(),
        }
    }

    /// Set human-readable feature names (length must equal `n_features`).
    pub fn with_feature_names(mut self, names: &[&str]) -> Self {
        assert_eq!(names.len(), self.n_features);
        self.feature_names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Append a sample with weight 1.
    pub fn push(&mut self, row: &[f32], label: bool) {
        self.push_weighted(row, label, 1.0);
    }

    /// Append a weighted sample.
    pub fn push_weighted(&mut self, row: &[f32], label: bool, weight: f32) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        self.x.extend_from_slice(row);
        self.y.push(label);
        self.w.push(weight);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature row of sample `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> bool {
        self.y[i]
    }

    /// Weight of sample `i`.
    pub fn weight(&self, i: usize) -> f32 {
        self.w[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.y
    }

    /// Fraction of positive samples.
    pub fn positive_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.y.iter().filter(|&&b| b).count() as f64 / self.len() as f64
    }

    /// New dataset containing the given sample indices (duplicates allowed,
    /// enabling bootstrap resampling).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        out.feature_names = self.feature_names.clone();
        for &i in indices {
            out.push_weighted(self.row(i), self.y[i], self.w[i]);
        }
        out
    }

    /// New dataset keeping only the given feature columns (in order).
    pub fn select_features(&self, cols: &[usize]) -> Dataset {
        let mut out = Dataset::new(cols.len());
        out.feature_names = cols.iter().map(|&c| self.feature_names[c].clone()).collect();
        let mut row = Vec::with_capacity(cols.len());
        for i in 0..self.len() {
            row.clear();
            let full = self.row(i);
            row.extend(cols.iter().map(|&c| full[c]));
            out.push_weighted(&row, self.y[i], self.w[i]);
        }
        out
    }

    /// Shuffled train/test split; `train_fraction` of samples go to train.
    pub fn train_test_split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_fraction));
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let cut = (self.len() as f64 * train_fraction).round() as usize;
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// K-fold cross-validation splits: yields `k` (train, test) pairs.
    pub fn kfold(&self, k: usize, seed: u64) -> Vec<(Dataset, Dataset)> {
        assert!(k >= 2, "k-fold needs k >= 2");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let mut out = Vec::with_capacity(k);
        for fold in 0..k {
            let lo = self.len() * fold / k;
            let hi = self.len() * (fold + 1) / k;
            let test: Vec<usize> = idx[lo..hi].to_vec();
            let train: Vec<usize> = idx[..lo].iter().chain(&idx[hi..]).copied().collect();
            out.push((self.subset(&train), self.subset(&test)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(&[i as f32, (i * 2) as f32], i % 2 == 0);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(3), &[3.0, 6.0]);
        assert!(!d.label(3));
        assert_eq!(d.weight(3), 1.0);
        assert!((d.positive_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn wrong_row_width_panics() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], true);
    }

    #[test]
    fn subset_supports_bootstrap() {
        let d = toy();
        let s = d.subset(&[0, 0, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.row(0), s.row(1));
    }

    #[test]
    fn select_features_projects_columns() {
        let d = toy();
        let s = d.select_features(&[1]);
        assert_eq!(s.n_features(), 1);
        assert_eq!(s.row(4), &[8.0]);
        assert_eq!(s.label(4), d.label(4));
    }

    #[test]
    fn split_is_partition() {
        let d = toy();
        let (tr, te) = d.train_test_split(0.7, 1);
        assert_eq!(tr.len() + te.len(), d.len());
        assert_eq!(tr.len(), 7);
    }

    #[test]
    fn split_deterministic_in_seed() {
        let d = toy();
        let (a, _) = d.train_test_split(0.5, 42);
        let (b, _) = d.train_test_split(0.5, 42);
        assert_eq!(a, b);
        let (c, _) = d.train_test_split(0.5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn kfold_covers_every_sample_once() {
        let d = toy();
        let folds = d.kfold(5, 3);
        assert_eq!(folds.len(), 5);
        let total_test: usize = folds.iter().map(|(_, te)| te.len()).sum();
        assert_eq!(total_test, d.len());
        for (tr, te) in &folds {
            assert_eq!(tr.len() + te.len(), d.len());
        }
    }

    #[test]
    fn feature_names_follow_selection() {
        let d = Dataset::new(3).with_feature_names(&["a", "b", "c"]);
        let s = d.select_features(&[2, 0]);
        assert_eq!(s.feature_names, ["c", "a"]);
    }
}
