//! # KeystoneML (Rust)
//!
//! A reproduction of *KeystoneML: Optimizing Pipelines for Large-Scale
//! Advanced Analytics* (Sparks et al., ICDE 2017) as a Rust workspace.
//!
//! This facade crate re-exports the workspace crates and provides a
//! [`prelude`] with the most common items for building pipelines. See the
//! `examples/` directory for end-to-end applications, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for the reproduction results.
//!
//! ```
//! use keystoneml::prelude::*;
//!
//! // A two-stage pipeline: mean-center is an estimator, scaling a
//! // transformer. `fit` runs the whole-pipeline optimizer.
//! struct Double;
//! impl Transformer<f64, f64> for Double {
//!     fn apply(&self, x: &f64) -> f64 { x * 2.0 }
//! }
//! let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2);
//! let pipe = Pipeline::<f64, f64>::input().and_then(Double);
//! let ctx = ExecContext::default_cluster();
//! let (fitted, _report) = pipe.fit(&ctx, &PipelineOptions::default());
//! assert_eq!(fitted.apply(&train, &ctx).collect(), vec![2.0, 4.0, 6.0]);
//! ```

pub use keystone_core as core;
/// The run report, flight recorder and diagnosis ([`keystone_core::report`]).
pub use keystone_core::report as obs;
pub use keystone_dataflow as dataflow;
pub use keystone_linalg as linalg;
pub use keystone_ops as ops;
pub use keystone_serve as serve;
pub use keystone_solvers as solvers;
pub use keystone_workloads as workloads;

/// Commonly used items for building and running pipelines.
pub mod prelude {
    pub use keystone_core::context::ExecContext;
    pub use keystone_core::export::chrome_trace_json;
    pub use keystone_core::operator::{
        ColumnarFn, Estimator, LabelEstimator, OptimizableEstimator, OptimizableLabelEstimator,
        OptimizableTransformer, Transformer,
    };
    pub use keystone_core::optimizer::{
        fit_forest, AdaptationReport, AdaptiveHints, CachingStrategy, CrossMerge, ForestReport,
        OptLevel, PipelineOptions, RevisionRecord, ADAPT_DECISION_SECS,
    };
    pub use keystone_core::pipeline::{gather, FitReport, FittedPipeline, Pipeline};
    pub use keystone_core::profiler::ProfileOptions;
    pub use keystone_core::record::{DataStats, Record};
    pub use keystone_core::report::{
        diagnose, replanner_hints, CaptureOptions, Diagnosis, Finding, NodeReport, PipelineReport,
        RunArtifact, Severity, TenantRow,
    };
    pub use keystone_core::trace::{RecoveryStats, TraceEvent, TracedEvent, Tracer};
    pub use keystone_dataflow::cluster::{ClusterProfile, ResourceDesc};
    pub use keystone_dataflow::collection::DistCollection;
    pub use keystone_dataflow::columnar::ColumnarBatch;
    pub use keystone_dataflow::faults::{FaultPlan, FaultSpec};
    pub use keystone_dataflow::metrics::{MetricsRegistry, StageSkew, TaskSpan};
    pub use keystone_linalg::{DenseMatrix, SparseVector};
    pub use keystone_ops::eval::{accuracy, top_k_error};
    pub use keystone_serve::{BatchPolicy, Request, Response, ServeOutcome, Server};
    pub use keystone_solvers::solver_op::LinearSolverOp;
}
