//! # otae-ml — from-scratch machine learning for cache admission
//!
//! The paper compares seven mainstream classifiers (Table 1) and deploys a
//! cost-sensitive CART decision tree (§3.1, §4.4.1). No ML crate is on the
//! offline dependency allowlist, so this crate implements everything needed
//! from first principles:
//!
//! * [`DecisionTree`] — CART with Gini impurity, a best-first **split
//!   budget** (the paper caps splits at 30, ≈ 3× the feature count) and
//!   cost-sensitive class weights (Table 4's cost matrix);
//! * the six Table-1 baselines: [`NaiveBayes`], [`Knn`], [`LogisticRegression`],
//!   [`Mlp`] ("BP NN"), [`AdaBoost`], [`RandomForest`] (trained in parallel
//!   on scoped threads);
//! * [`metrics`] — confusion matrix, precision/recall/accuracy/F1 and ROC
//!   AUC (Tables 2–3);
//! * [`feature_select`] — information gain and the paper's greedy forward
//!   feature selection (§3.2.2);
//! * [`Dataset`] with train/test splitting and k-fold cross-validation.
//!
//! Everything is deterministic under explicit seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaboost;
pub mod binning;
pub mod dataset;
pub mod feature_select;
pub mod forest;
pub mod hoeffding;
pub mod knn;
pub mod logreg;
pub mod metrics;
pub mod mlp;
pub mod naive_bayes;
pub mod preprocess;
pub mod tree;

pub use adaboost::AdaBoost;
pub use binning::{BinnedDataset, MAX_BINS};
pub use dataset::Dataset;
pub use forest::RandomForest;
pub use hoeffding::{HoeffdingTree, OnlineClassifier};
pub use knn::Knn;
pub use logreg::LogisticRegression;
pub use metrics::{roc_auc, ConfusionMatrix};
pub use mlp::Mlp;
pub use naive_bayes::NaiveBayes;
pub use preprocess::Standardizer;
pub use tree::{DecisionTree, TreeParams};

/// A trained (or trainable) binary classifier.
///
/// Scores are probability-like confidences for the positive class in
/// `[0, 1]`; `predict` thresholds at 0.5. Implementations must be
/// deterministic given their seed parameters.
pub trait Classifier: Send + Sync {
    /// Fit on a dataset (replacing any previous fit).
    fn fit(&mut self, data: &Dataset);
    /// Positive-class confidence for one feature row.
    fn score(&self, row: &[f32]) -> f32;
    /// Hard decision at the 0.5 threshold.
    fn predict(&self, row: &[f32]) -> bool {
        self.score(row) >= 0.5
    }
    /// Positive-class confidences for every row. The default calls
    /// [`Classifier::score`] per row.
    fn score_batch(&self, data: &Dataset) -> Vec<f32> {
        (0..data.len()).map(|i| self.score(data.row(i))).collect()
    }
    /// Hard decisions for every row at the 0.5 threshold.
    fn predict_batch(&self, data: &Dataset) -> Vec<bool> {
        self.score_batch(data).into_iter().map(|s| s >= 0.5).collect()
    }
    /// Display name (matches Table 1 rows).
    fn name(&self) -> &'static str;
}

/// Score every row of a dataset (batched).
pub fn score_all<C: Classifier + ?Sized>(clf: &C, data: &Dataset) -> Vec<f32> {
    clf.score_batch(data)
}

/// Predict every row of a dataset (batched).
pub fn predict_all<C: Classifier + ?Sized>(clf: &C, data: &Dataset) -> Vec<bool> {
    clf.predict_batch(data)
}
