//! # keystone-ops
//!
//! The KeystoneML Standard Library: the logical ML operators the paper's
//! pipelines are built from (Table 4).
//!
//! * [`text`] — `Trim`, `LowerCase`, `Tokenizer`, `NGrams`, `TermFrequency`,
//!   `CommonSparseFeatures`, `HashingTF` (the Fig. 2 text pipeline).
//! * [`image`] — the `Image` type, `GrayScale`, the **optimizable**
//!   `Convolver` (separable / im2col-GEMM / FFT physical operators, Fig. 7),
//!   `Pooler`, `Windower`, `PatchExtractor`, `SymmetricRectifier`,
//!   simplified `Sift` and `Lcs` descriptors, `ZcaWhitener`.
//! * [`stats`] — the **optimizable** `PCA` (local/distributed ×
//!   exact/approximate, Table 2), `GMM`, `KMeans`, `FisherVector`,
//!   `RandomFeatures` (TIMIT kernel approximation: the spec) and its
//!   table-backed physical operator `RandomFeatureMap`, `StandardScaler`,
//!   `Normalizer`, `ColumnSampler`.
//! * [`eval`] — accuracy, top-k error, confusion matrices, mean average
//!   precision.

// Numeric kernels index multiple buffers in lockstep; indexed loops are the
// clearer idiom there.
#![allow(clippy::needless_range_loop)]

pub mod eval;
pub mod image;
pub mod stats;
pub mod text;
