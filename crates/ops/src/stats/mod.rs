//! Statistical operators: PCA (optimizable, Table 2), GMM, K-Means, Fisher
//! vectors, random kernel features, scaling and normalization.

pub mod fisher;
pub mod gmm;
pub mod kmeans;
pub mod pca;
pub mod random_features;
pub mod scaling;

pub use fisher::FisherVectorEstimator;
pub use gmm::{Gmm, GmmModel};
pub use kmeans::KMeans;
pub use pca::{DescriptorPca, Pca, PcaModel};
pub use random_features::{RandomFeatureMap, RandomFeatures};
pub use scaling::{ColumnSampler, Normalizer, SignedPowerNormalizer, StandardScaler};

/// Cost returned by cost models for physically infeasible plans (e.g. the
/// separable convolver on non-separable filters, or a local SVD whose data
/// exceeds driver memory).
pub const INFEASIBLE_COST: f64 = 1e18;
