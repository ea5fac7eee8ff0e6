//! The fitted model every linear solver produces: a `d × k` linear map
//! (plus intercept) applied row-wise.

use keystone_core::operator::Transformer;
use keystone_linalg::dense::DenseMatrix;

use crate::features::Features;

/// A linear model `scores = x·W + b`.
#[derive(Clone)]
pub struct LinearMapModel {
    /// Weights, `d × k`.
    pub weights: DenseMatrix,
    /// Optional per-class intercept, length `k`.
    pub intercept: Option<Vec<f64>>,
}

impl LinearMapModel {
    /// Model without intercept.
    pub fn new(weights: DenseMatrix) -> Self {
        LinearMapModel {
            weights,
            intercept: None,
        }
    }

    /// Number of output classes/targets.
    pub fn k(&self) -> usize {
        self.weights.cols()
    }

    /// Scores for one feature vector.
    pub fn scores<F: Features>(&self, x: &F) -> Vec<f64> {
        let mut s = match &self.intercept {
            Some(b) => b.clone(),
            None => vec![0.0; self.k()],
        };
        x.add_scores(&self.weights, &mut s);
        s
    }
}

impl<F: Features> Transformer<F, Vec<f64>> for LinearMapModel {
    fn apply(&self, x: &F) -> Vec<f64> {
        self.scores(x)
    }

    fn name(&self) -> String {
        "LinearMap".to_string()
    }
}

/// Picks the argmax class from a score vector.
#[derive(Clone, Copy, Default)]
pub struct MaxClassifier;

impl Transformer<Vec<f64>, usize> for MaxClassifier {
    fn apply(&self, scores: &Vec<f64>) -> usize {
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn name(&self) -> String {
        "MaxClassifier".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystone_linalg::sparse::SparseVector;

    #[test]
    fn scores_dense() {
        let w = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let m = LinearMapModel::new(w);
        assert_eq!(m.scores(&vec![3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(m.k(), 2);
    }

    #[test]
    fn scores_with_intercept() {
        let w = DenseMatrix::from_rows(&[&[1.0]]);
        let m = LinearMapModel {
            weights: w,
            intercept: Some(vec![10.0]),
        };
        assert_eq!(m.scores(&vec![5.0]), vec![15.0]);
    }

    #[test]
    fn scores_sparse_matches_dense() {
        let w = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let m = LinearMapModel::new(w);
        let s = SparseVector::from_pairs(4, vec![(0, 1.0), (2, -1.0)]);
        let d = s.to_dense_row();
        assert_eq!(m.scores(&s), m.scores(&d));
    }

    #[test]
    fn max_classifier_argmax() {
        let c = MaxClassifier;
        assert_eq!(c.apply(&vec![0.1, 0.9, 0.5]), 1);
        assert_eq!(c.apply(&vec![2.0]), 0);
        assert_eq!(c.apply(&vec![]), 0);
    }
}
