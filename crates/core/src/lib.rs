//! # keystone-core
//!
//! The KeystoneML pipeline framework: typed operator APIs, the pipeline DAG,
//! the cost-based operator-level optimizer, whole-pipeline optimizations
//! (common sub-expression elimination, execution subsampling, automatic
//! materialization), and the cache-aware depth-first executor.
//!
//! See `DESIGN.md` at the repository root for the system inventory and the
//! paper-section ↔ module map.

pub mod context;
pub mod executor;
pub mod export;
pub mod graph;
pub mod operator;
pub mod optimizer;
pub mod pipeline;
pub mod profiler;
pub mod record;
pub mod report;
pub mod trace;

pub use context::ExecContext;
pub use operator::{
    AnyData, CostFn, Estimator, EstimatorOption, LabelEstimator, LabelEstimatorOption,
    OptimizableEstimator, OptimizableLabelEstimator, OptimizableTransformer, Transformer,
    TransformerOption,
};
pub use optimizer::{
    AdaptationReport, AdaptiveController, AdaptiveHints, CachingStrategy, FusedChain, FusedMap,
    FusionResult, OptLevel, PipelineOptions, RevisionRecord, ADAPT_DECISION_SECS,
};
pub use pipeline::{gather, ExecutablePlan, FitReport, FittedPipeline, Pipeline};
pub use record::{DataStats, Record};
pub use report::{NodeReport, PipelineReport};
pub use trace::{TraceEvent, TracedEvent, Tracer};
