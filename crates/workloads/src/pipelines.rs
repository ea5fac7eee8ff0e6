//! Canonical pipeline builders for the paper's applications (Table 4),
//! shared by the examples, integration tests, and the benchmark harness.
//!
//! | Pipeline | Operators (Table 4) |
//! |---|---|
//! | Amazon text | Trim, LowerCase, Tokenizer, NGrams, CommonSparseFeatures, LogisticRegression/LinearSolver |
//! | TIMIT speech | RandomFeatures ×B, Pipeline.gather, LinearSolver |
//! | VOC / ImageNet image | GrayScale, SIFT, PCA, GMM+FisherVector, Normalize, LinearSolver |
//! | CIFAR-10 image | PatchExtractor/ZCA (filters), Convolver, SymmetricRectifier, Pooler, LinearSolver |

use keystone_core::operator::Transformer;
use keystone_core::pipeline::{gather, Pipeline};
use keystone_dataflow::collection::DistCollection;
use keystone_ops::image::{
    Convolver, FilterBank, GrayScale, Image, ImageVectorizer, Pooler, Sift, SymmetricRectifier,
};
use keystone_ops::stats::{
    DescriptorPca, FisherVectorEstimator, RandomFeatures, SignedPowerNormalizer,
};
use keystone_ops::text::{CommonSparseFeatures, LowerCase, NGrams, Tokenizer, Trim};
use keystone_solvers::logistic::one_hot;
use keystone_solvers::solver_op::LinearSolverOp;

/// Converts class labels to one-hot vectors (re-exported convenience).
pub fn labels_one_hot(labels: &DistCollection<usize>, classes: usize) -> DistCollection<Vec<f64>> {
    one_hot(labels, classes)
}

/// Configuration for the Amazon-style text pipeline (Fig. 2).
#[derive(Debug, Clone)]
pub struct TextPipelineConfig {
    /// Vocabulary cap for `CommonSparseFeatures`.
    pub max_features: usize,
    /// N-gram upper bound.
    pub max_ngram: usize,
    /// Solver configuration.
    pub solver: LinearSolverOp,
}

impl Default for TextPipelineConfig {
    fn default() -> Self {
        TextPipelineConfig {
            max_features: 100_000,
            max_ngram: 2,
            solver: LinearSolverOp::new(),
        }
    }
}

/// Builds the Fig. 2 text-classification pipeline over bound training data.
pub fn text_classification_pipeline(
    cfg: &TextPipelineConfig,
    train_docs: &DistCollection<String>,
    train_labels: &DistCollection<Vec<f64>>,
) -> Pipeline<String, Vec<f64>> {
    Pipeline::<String, String>::input()
        .and_then(Trim)
        .and_then(LowerCase)
        .and_then(Tokenizer)
        .and_then(NGrams::new(1, cfg.max_ngram))
        .and_then_est(CommonSparseFeatures::new(cfg.max_features), train_docs)
        .and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
            cfg.solver.clone(),
            train_docs,
            train_labels,
        )
}

/// Configuration for the TIMIT-style kernel-SVM pipeline (§5.1).
#[derive(Debug, Clone)]
pub struct SpeechPipelineConfig {
    /// Random-feature blocks merged with `gather`.
    pub blocks: usize,
    /// Features per block.
    pub block_dim: usize,
    /// RBF bandwidth.
    pub gamma: f64,
    /// Solver configuration.
    pub solver: LinearSolverOp,
    /// Seed for the random feature maps.
    pub seed: u64,
}

impl Default for SpeechPipelineConfig {
    fn default() -> Self {
        SpeechPipelineConfig {
            blocks: 4,
            block_dim: 128,
            gamma: 0.1,
            solver: LinearSolverOp::new(),
            seed: 0x5117,
        }
    }
}

/// Builds the TIMIT-style pipeline: several random-feature blocks gathered
/// into one feature vector, then the optimizable linear solver.
pub fn speech_pipeline(
    cfg: &SpeechPipelineConfig,
    train: &DistCollection<Vec<f64>>,
    train_labels: &DistCollection<Vec<f64>>,
) -> Pipeline<Vec<f64>, Vec<f64>> {
    let input = Pipeline::<Vec<f64>, Vec<f64>>::input();
    let branches: Vec<Pipeline<Vec<f64>, Vec<f64>>> = (0..cfg.blocks)
        .map(|b| {
            input.and_then(
                RandomFeatures {
                    out_dim: cfg.block_dim,
                    gamma: cfg.gamma,
                    seed: cfg.seed.wrapping_add(b as u64),
                }
                .materialized(),
            )
        })
        .collect();
    gather(&branches).and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
        cfg.solver.clone(),
        train,
        train_labels,
    )
}

/// Configuration for the VOC/ImageNet-style Fisher-vector pipeline
/// (Fig. 5 / Fig. 11).
#[derive(Debug, Clone)]
pub struct ImagePipelineConfig {
    /// SIFT patch edge.
    pub sift_patch: usize,
    /// SIFT stride.
    pub sift_stride: usize,
    /// PCA output dimensionality for descriptors.
    pub pca_dims: usize,
    /// GMM components for the Fisher vector.
    pub gmm_k: usize,
    /// Solver configuration.
    pub solver: LinearSolverOp,
}

impl Default for ImagePipelineConfig {
    fn default() -> Self {
        ImagePipelineConfig {
            sift_patch: 16,
            sift_stride: 8,
            pca_dims: 16,
            gmm_k: 8,
            solver: LinearSolverOp::new(),
        }
    }
}

/// Builds the Fig. 5 image pipeline: GrayScale → SIFT → PCA →
/// GMM/FisherVector → signed-power Normalize → LinearSolver.
pub fn image_classification_pipeline(
    cfg: &ImagePipelineConfig,
    train: &DistCollection<Image>,
    train_labels: &DistCollection<Vec<f64>>,
) -> Pipeline<Image, Vec<f64>> {
    Pipeline::<Image, Image>::input()
        .and_then(GrayScale)
        .and_then(Sift {
            patch: cfg.sift_patch,
            stride: cfg.sift_stride,
        })
        .and_then_est(DescriptorPca::new(cfg.pca_dims), train)
        .and_then_est(FisherVectorEstimator::new(cfg.gmm_k), train)
        .and_then(SignedPowerNormalizer::default())
        .and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
            cfg.solver.clone(),
            train,
            train_labels,
        )
}

/// Configuration for the CIFAR-style convolutional pipeline.
#[derive(Debug, Clone)]
pub struct CifarPipelineConfig {
    /// Convolution filter count.
    pub filters: usize,
    /// Filter edge.
    pub filter_size: usize,
    /// Pooling cell edge.
    pub pool: usize,
    /// Solver configuration.
    pub solver: LinearSolverOp,
    /// Filter-bank seed.
    pub seed: u64,
}

impl Default for CifarPipelineConfig {
    fn default() -> Self {
        CifarPipelineConfig {
            filters: 16,
            filter_size: 5,
            pool: 14,
            solver: LinearSolverOp::new(),
            seed: 0xC1F,
        }
    }
}

/// Builds the CIFAR-style pipeline: Convolver (optimizable) →
/// SymmetricRectifier → Pooler → vectorize → LinearSolver.
pub fn cifar_pipeline(
    cfg: &CifarPipelineConfig,
    train: &DistCollection<Image>,
    train_labels: &DistCollection<Vec<f64>>,
) -> Pipeline<Image, Vec<f64>> {
    let bank = FilterBank::random(cfg.filters, cfg.filter_size, cfg.seed);
    Pipeline::<Image, Image>::input()
        .and_then_optimizable(Convolver::new(bank, 3))
        .and_then(SymmetricRectifier { alpha: 0.25 })
        .and_then(Pooler::new(cfg.pool))
        .and_then(ImageVectorizer)
        .and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
            cfg.solver.clone(),
            train,
            train_labels,
        )
}

/// Argmax over a score collection: predictions as class indices.
pub fn predictions(scores: &DistCollection<Vec<f64>>) -> Vec<usize> {
    let clf = keystone_solvers::linear_map::MaxClassifier;
    scores.iter().map(|s| clf.apply(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text_gen::AmazonLike;

    #[test]
    fn text_pipeline_builds_expected_dag() {
        let ds = AmazonLike::with_docs(20).generate();
        let labels = labels_one_hot(&ds.labels, 2);
        let pipe = text_classification_pipeline(
            &TextPipelineConfig {
                max_features: 100,
                ..Default::default()
            },
            &ds.docs,
            &labels,
        );
        // Input + 4 transformers + (cloned prefix over source) + est nodes.
        assert!(
            pipe.graph_len() >= 10,
            "graph has {} nodes",
            pipe.graph_len()
        );
        let dot = pipe.to_dot();
        assert!(dot.contains("Tokenizer"));
        assert!(dot.contains("CommonSparseFeatures"));
        assert!(dot.contains("LinearSolver"));
    }

    #[test]
    fn speech_pipeline_gathers_blocks() {
        let data = DistCollection::from_vec(vec![vec![0.1, 0.2]; 10], 2);
        let labels = DistCollection::from_vec(vec![vec![1.0, 0.0]; 10], 2);
        let pipe = speech_pipeline(
            &SpeechPipelineConfig {
                blocks: 3,
                block_dim: 8,
                ..Default::default()
            },
            &data,
            &labels,
        );
        assert!(pipe.to_dot().contains("Gather"));
    }
}
