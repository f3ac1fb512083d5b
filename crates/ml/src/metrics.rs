//! Evaluation metrics — exactly the quantities of the paper's Tables 2–3:
//! confusion matrix, precision, recall, accuracy, and ROC AUC.

/// Binary confusion matrix (Table 2). "Positive" is the one-time-access class.
// lint: merge-exhaustive(fingerprint)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Actual positive, predicted positive.
    pub tp: u64,
    /// Actual negative, predicted positive.
    pub fp: u64,
    /// Actual positive, predicted negative.
    pub fn_: u64,
    /// Actual negative, predicted negative.
    pub tn: u64,
}

impl ConfusionMatrix {
    /// Tally from parallel label/prediction slices.
    pub fn from_predictions(truth: &[bool], pred: &[bool]) -> Self {
        assert_eq!(truth.len(), pred.len());
        let mut m = Self::default();
        for (&t, &p) in truth.iter().zip(pred) {
            match (t, p) {
                (true, true) => m.tp += 1,
                (false, true) => m.fp += 1,
                (true, false) => m.fn_ += 1,
                (false, false) => m.tn += 1,
            }
        }
        m
    }

    /// Record one observation.
    pub fn record(&mut self, truth: bool, pred: bool) {
        match (truth, pred) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (true, false) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    fn ratio(a: u64, b: u64) -> f64 {
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    }

    /// Precision = TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        Self::ratio(self.tp, self.tp + self.fp)
    }

    /// Recall = TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        Self::ratio(self.tp, self.tp + self.fn_)
    }

    /// Accuracy = (TP + TN) / total.
    pub fn accuracy(&self) -> f64 {
        Self::ratio(self.tp + self.tn, self.total())
    }

    /// F1 = harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merge another matrix into this one. The full destructure means a new
    /// cell cannot be added without this merge accounting for it.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        let ConfusionMatrix { tp, fp, fn_, tn } = *other;
        self.tp += tp;
        self.fp += fp;
        self.fn_ += fn_;
        self.tn += tn;
    }
}

/// Area under the ROC curve, computed via the rank-sum (Mann–Whitney)
/// statistic with midrank tie handling: the probability that a random
/// positive outscores a random negative.
pub fn roc_auc(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("scores must not be NaN"));
    // Midranks over tie groups.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j < order.len() && scores[order[j]] == scores[order[i]] {
            j += 1;
        }
        // Ranks are 1-based; midrank of the group [i, j).
        let midrank = (i + 1 + j) as f64 / 2.0;
        for &k in &order[i..j] {
            if labels[k] {
                rank_sum_pos += midrank;
            }
        }
        i = j;
    }
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_counts() {
        let truth = [true, true, false, false, true];
        let pred = [true, false, true, false, true];
        let m = ConfusionMatrix::from_predictions(&truth, &pred);
        assert_eq!((m.tp, m.fp, m.fn_, m.tn), (2, 1, 1, 1));
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.accuracy() - 3.0 / 5.0).abs() < 1e-12);
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn empty_matrix_rates_are_zero() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn auc_perfect_classifier() {
        let scores = [0.9f32, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_inverted_classifier() {
        let scores = [0.1f32, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert!(roc_auc(&scores, &labels).abs() < 1e-12);
    }

    #[test]
    fn auc_random_is_half() {
        // All scores tied: AUC must be exactly 0.5 via midranks.
        let scores = [0.5f32; 100];
        let labels: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_with_ties_matches_pairwise_definition() {
        let scores = [0.3f32, 0.3, 0.7, 0.5, 0.3];
        let labels = [false, true, true, false, false];
        // Pairwise: P(score_pos > score_neg) + 0.5 P(equal).
        let mut wins = 0.0;
        let mut n = 0.0;
        for i in 0..scores.len() {
            for j in 0..scores.len() {
                if labels[i] && !labels[j] {
                    n += 1.0;
                    if scores[i] > scores[j] {
                        wins += 1.0;
                    } else if scores[i] == scores[j] {
                        wins += 0.5;
                    }
                }
            }
        }
        assert!((roc_auc(&scores, &labels) - wins / n).abs() < 1e-12);
    }

    #[test]
    fn degenerate_single_class_auc() {
        assert_eq!(roc_auc(&[0.1, 0.9], &[true, true]), 0.5);
        assert_eq!(roc_auc(&[0.1, 0.9], &[false, false]), 0.5);
    }

    #[test]
    fn merge_adds() {
        let mut a = ConfusionMatrix { tp: 1, fp: 2, fn_: 3, tn: 4 };
        a.merge(&ConfusionMatrix { tp: 10, fp: 20, fn_: 30, tn: 40 });
        assert_eq!(a, ConfusionMatrix { tp: 11, fp: 22, fn_: 33, tn: 44 });
    }
}
