//! Logistic regression (Table 1's "Logic Regression") trained by full-batch
//! gradient descent on standardized features with weighted cross-entropy.

use crate::{Classifier, Dataset, Standardizer};

/// Logistic regression binary classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Learning rate.
    pub lr: f32,
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// L2 regularisation strength.
    pub l2: f32,
    weights: Vec<f32>,
    bias: f32,
    standardizer: Option<Standardizer>,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self { lr: 0.5, epochs: 200, l2: 1e-4, weights: Vec::new(), bias: 0.0, standardizer: None }
    }
}

impl LogisticRegression {
    /// Model with default hyper-parameters.
    pub fn new() -> Self {
        Self::default()
    }

    fn sigmoid(z: f32) -> f32 {
        1.0 / (1.0 + (-z).exp())
    }

    fn raw_score(&self, row: &[f32]) -> f32 {
        let z: f32 = self.weights.iter().zip(row).map(|(w, x)| w * x).sum::<f32>() + self.bias;
        Self::sigmoid(z)
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) {
        let st = Standardizer::fit(data);
        let t = st.transform(data);
        let f = t.n_features();
        let n = t.len();
        self.weights = vec![0.0; f];
        self.bias = 0.0;
        if n == 0 {
            self.standardizer = Some(st);
            return;
        }
        let total_w: f32 = (0..n).map(|i| t.weight(i)).sum::<f32>().max(1e-9);
        let mut grad = vec![0.0f32; f];
        for _ in 0..self.epochs {
            grad.iter_mut().for_each(|g| *g = 0.0);
            let mut grad_b = 0.0f32;
            for i in 0..n {
                let row = t.row(i);
                let p = self.raw_score(row);
                let y = if t.label(i) { 1.0 } else { 0.0 };
                let err = (p - y) * t.weight(i);
                for (g, &x) in grad.iter_mut().zip(row) {
                    *g += err * x;
                }
                grad_b += err;
            }
            for (w, g) in self.weights.iter_mut().zip(&grad) {
                *w -= self.lr * (g / total_w + self.l2 * *w);
            }
            self.bias -= self.lr * grad_b / total_w;
        }
        self.standardizer = Some(st);
    }

    fn score(&self, row: &[f32]) -> f32 {
        let Some(st) = &self.standardizer else { return 0.0 };
        self.raw_score(&st.transformed(row))
    }

    fn name(&self) -> &'static str {
        "Logistic Regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict_all;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn linear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let x0: f32 = rng.gen::<f32>() * 4.0 - 2.0;
            let x1: f32 = rng.gen::<f32>() * 4.0 - 2.0;
            d.push(&[x0, x1], x0 + x1 > 0.0);
        }
        d
    }

    #[test]
    fn learns_linear_boundary() {
        let train = linear_dataset(2000, 1);
        let test = linear_dataset(500, 2);
        let mut lr = LogisticRegression::new();
        lr.fit(&train);
        let acc =
            predict_all(&lr, &test).iter().zip(test.labels()).filter(|(p, y)| *p == *y).count()
                as f64
                / test.len() as f64;
        assert!(acc > 0.95, "linear accuracy {acc}");
    }

    #[test]
    fn scores_are_calibrated_direction() {
        let train = linear_dataset(1000, 3);
        let mut lr = LogisticRegression::new();
        lr.fit(&train);
        assert!(lr.score(&[2.0, 2.0]) > 0.9);
        assert!(lr.score(&[-2.0, -2.0]) < 0.1);
    }

    #[test]
    fn class_weights_shift_the_boundary() {
        // Negatives weighted 5: Table 4's cost matrix as sample weights.
        let plain = linear_dataset(1000, 4);
        let mut train = Dataset::new(2);
        for i in 0..plain.len() {
            let y = plain.label(i);
            train.push_weighted(plain.row(i), y, if y { 1.0 } else { 5.0 });
        }
        let mut lr = LogisticRegression::new();
        lr.fit(&train);
        // Heavily weighted negatives push the boundary toward positives:
        // the origin (on the true boundary) should now score below 0.5.
        assert!(lr.score(&[0.0, 0.0]) < 0.5);
    }

    #[test]
    fn unfitted_scores_zero() {
        let lr = LogisticRegression::new();
        assert_eq!(lr.score(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn empty_fit_is_stable() {
        let mut lr = LogisticRegression::new();
        lr.fit(&Dataset::new(2));
        assert!((lr.score(&[1.0, 1.0]) - 0.5).abs() < 1e-6);
    }
}
