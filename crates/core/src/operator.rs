//! Operator abstractions: the typed public traits mirrored from the paper's
//! API (Fig. 3) and the type-erased layer the pipeline DAG stores.
//!
//! * [`Transformer`] — deterministic, side-effect-free unary function over
//!   records; applied item-wise or to a whole distributed collection.
//! * [`Estimator`] / [`LabelEstimator`] — functions from a dataset (plus
//!   labels) to a `Transformer`; "function generating functions".
//! * `Optimizable*` — logical operators with multiple physical
//!   implementations, each carrying a [`CostFn`] used by the operator-level
//!   optimizer (§3).
//! * `Erased*` — object-safe wrappers that downcast whole collections once
//!   per node execution (never per item), so the DAG can hold heterogeneous
//!   operators while the public API stays fully typed.

use std::any::Any;
use std::sync::Arc;

use keystone_dataflow::cluster::ResourceDesc;
use keystone_dataflow::collection::DistCollection;
use keystone_dataflow::cost::CostProfile;

use crate::context::ExecContext;
use crate::record::{DataStats, Record};

/// Type-preserving sampler stored inside [`AnyData`].
pub type ErasedSampler = Arc<dyn Fn(&AnyData, usize, u64) -> AnyData + Send + Sync>;

/// A type-erased record in flight between members of a fused operator chain.
pub type AnyRecord = Box<dyn Any + Send + Sync>;

/// One fused-chain member applied to a single erased record.
pub type RecordFn = Arc<dyn Fn(AnyRecord) -> AnyRecord + Send + Sync>;

/// A columnar kernel: reads one dense record as a contiguous `f64` slice
/// and appends the output record's values onto the packed batch buffer.
/// Must reproduce the operator's [`Transformer::apply`] arithmetic exactly
/// (same operations, same order), because the differential oracle requires
/// the columnar and record paths to agree bit-for-bit.
pub type ColumnarFn = Arc<dyn Fn(&[f64], &mut Vec<f64>) + Send + Sync>;

/// Folds one partition's fused outputs into a typed, still-boxed partition
/// (`Box<Vec<B>>`). Runs inside the fused partition pass, on worker threads.
pub type PartitionFold = Arc<dyn Fn(Vec<AnyRecord>) -> AnyRecord + Send + Sync>;

/// Assembles the folded partitions into the typed output collection.
pub type PartitionAssemble = Arc<dyn Fn(Vec<AnyRecord>) -> AnyData + Send + Sync>;

/// Drives a fused chain over its typed input in **one** partition-parallel
/// pass: applies the owning member's operator to each record, pipes the
/// boxed result through `rest` (the downstream members' composed
/// [`RecordFn`]s), folds each partition with `fold`, and hands the folded
/// partitions to `assemble`. Provided by the chain *head*, which is the only
/// member that knows the input element type.
pub type FusedDriver = Arc<
    dyn Fn(&AnyData, &RecordFn, &PartitionFold, &PartitionAssemble, &ExecContext) -> AnyData
        + Send
        + Sync,
>;

/// The fusion surface of a per-record transformer: everything the
/// whole-stage fusion pass (`optimizer::fusion`) needs to splice this
/// operator into a fused chain. `driver` is used when the operator heads a
/// chain, `func` when it sits anywhere downstream, and `fold`/`assemble`
/// when it terminates one (only the tail knows the output element type).
pub struct RecordKernel {
    /// Applies this member to one erased record.
    pub func: RecordFn,
    /// Runs a whole chain over this member's typed input (chain head role).
    pub driver: FusedDriver,
    /// Folds a partition of this member's outputs (chain tail role).
    pub fold: PartitionFold,
    /// Rebuilds the typed output collection (chain tail role).
    pub assemble: PartitionAssemble,
}

/// Erased cost model over a node's input statistics.
pub type ErasedCostFn = Arc<dyn Fn(&[DataStats], &ResourceDesc) -> CostProfile + Send + Sync>;

/// Strips module paths and generic params from a type name.
pub fn short_type_name<T: ?Sized>() -> String {
    let full = std::any::type_name::<T>();
    let no_generics = full.split('<').next().unwrap_or(full);
    no_generics
        .rsplit("::")
        .next()
        .unwrap_or(no_generics)
        .to_string()
}

// ---------------------------------------------------------------------------
// Typed public traits
// ---------------------------------------------------------------------------

/// A deterministic, side-effect-free function from `A` to `B`.
pub trait Transformer<A: Record, B: Record>: Send + Sync + 'static {
    /// Applies to a single record.
    fn apply(&self, input: &A) -> B;

    /// Applies to a whole collection. The default maps item-wise; operators
    /// with per-partition setup (or distributed semantics) override this.
    fn apply_collection(&self, input: &DistCollection<A>, _ctx: &ExecContext) -> DistCollection<B> {
        input.map(|x| self.apply(x))
    }

    /// Human-readable operator name.
    fn name(&self) -> String {
        short_type_name::<Self>()
    }

    /// Whether `apply_collection` is equivalent to mapping [`apply`] over
    /// every record independently. Operators that override
    /// `apply_collection` with per-partition setup or distributed semantics
    /// must return `false` here, or the fusion pass would change their
    /// behaviour by replaying them record-wise inside a fused chain.
    ///
    /// [`apply`]: Transformer::apply
    fn per_record(&self) -> bool {
        true
    }

    /// Optional columnar lowering of [`apply`], used only when `A` and `B`
    /// are both `Vec<f64>` (the erased layer enforces the type gate). The
    /// returned kernel must compute exactly what `apply` computes — same
    /// floating-point operations in the same order — so the columnar fused
    /// path stays bit-identical to the record path. Operators without a
    /// kernel simply keep their chains on the record path.
    ///
    /// [`apply`]: Transformer::apply
    fn columnar_kernel(&self) -> Option<ColumnarFn> {
        None
    }
}

/// An unsupervised estimator: fits a model from data.
pub trait Estimator<A: Record, B: Record>: Send + Sync + 'static {
    /// Fits on materialized data.
    fn fit(&self, data: &DistCollection<A>, ctx: &ExecContext) -> Box<dyn Transformer<A, B>>;

    /// Fits with lazy access to the data. Iterative estimators override
    /// this and call `data()` once per pass, reproducing Spark's
    /// recompute-unless-cached behaviour that the materialization optimizer
    /// (§4.3) exists to manage.
    fn fit_lazy(
        &self,
        data: &dyn Fn() -> DistCollection<A>,
        ctx: &ExecContext,
    ) -> Box<dyn Transformer<A, B>> {
        self.fit(&data(), ctx)
    }

    /// Number of passes over the input (`w` in §4.3); 1 for single-pass.
    fn weight(&self) -> u32 {
        1
    }

    /// Human-readable operator name.
    fn name(&self) -> String {
        short_type_name::<Self>()
    }
}

/// A supervised estimator: fits a model from data and labels.
pub trait LabelEstimator<A: Record, L: Record, B: Record>: Send + Sync + 'static {
    /// Fits on materialized data and labels.
    fn fit(
        &self,
        data: &DistCollection<A>,
        labels: &DistCollection<L>,
        ctx: &ExecContext,
    ) -> Box<dyn Transformer<A, B>>;

    /// Lazy-data variant; see [`Estimator::fit_lazy`].
    fn fit_lazy(
        &self,
        data: &dyn Fn() -> DistCollection<A>,
        labels: &DistCollection<L>,
        ctx: &ExecContext,
    ) -> Box<dyn Transformer<A, B>> {
        self.fit(&data(), labels, ctx)
    }

    /// Number of passes over the input (`w` in §4.3).
    fn weight(&self) -> u32 {
        1
    }

    /// Human-readable operator name.
    fn name(&self) -> String {
        short_type_name::<Self>()
    }
}

// ---------------------------------------------------------------------------
// Cost models and optimizable logical operators
// ---------------------------------------------------------------------------

/// A developer-supplied cost model: maps input statistics (one entry per
/// DAG input — data first, labels second) and the cluster descriptor to a
/// resource-consumption estimate.
pub type CostFn = Box<dyn Fn(&[DataStats], &ResourceDesc) -> CostProfile + Send + Sync>;

/// One physical implementation of a logical transformer.
pub struct TransformerOption<A: Record, B: Record> {
    /// Physical operator name (e.g. "conv:fft").
    pub name: String,
    /// Its cost model.
    pub cost: CostFn,
    /// The implementation.
    pub op: Box<dyn Transformer<A, B>>,
}

/// One physical implementation of a logical estimator.
pub struct EstimatorOption<A: Record, B: Record> {
    /// Physical operator name (e.g. "pca:dist-tsvd").
    pub name: String,
    /// Its cost model.
    pub cost: CostFn,
    /// The implementation.
    pub op: Box<dyn Estimator<A, B>>,
}

/// One physical implementation of a logical supervised estimator.
pub struct LabelEstimatorOption<A: Record, L: Record, B: Record> {
    /// Physical operator name (e.g. "solver:lbfgs").
    pub name: String,
    /// Its cost model.
    pub cost: CostFn,
    /// The implementation.
    pub op: Box<dyn LabelEstimator<A, L, B>>,
}

/// A logical transformer with several physical implementations.
pub trait OptimizableTransformer<A: Record, B: Record>: Send + Sync + 'static {
    /// The candidate implementations with their cost models.
    fn options(&self) -> Vec<TransformerOption<A, B>>;
    /// Index into `options()` used when operator-level optimization is off.
    fn default_index(&self) -> usize {
        0
    }
    /// Logical operator name.
    fn name(&self) -> String {
        short_type_name::<Self>()
    }
}

/// A logical estimator with several physical implementations.
pub trait OptimizableEstimator<A: Record, B: Record>: Send + Sync + 'static {
    /// The candidate implementations with their cost models.
    fn options(&self) -> Vec<EstimatorOption<A, B>>;
    /// Index into `options()` used when operator-level optimization is off.
    fn default_index(&self) -> usize {
        0
    }
    /// Logical operator name.
    fn name(&self) -> String {
        short_type_name::<Self>()
    }
}

/// A logical supervised estimator with several physical implementations.
pub trait OptimizableLabelEstimator<A: Record, L: Record, B: Record>:
    Send + Sync + 'static
{
    /// The candidate implementations with their cost models.
    fn options(&self) -> Vec<LabelEstimatorOption<A, L, B>>;
    /// Index into `options()` used when operator-level optimization is off.
    fn default_index(&self) -> usize {
        0
    }
    /// Logical operator name.
    fn name(&self) -> String {
        short_type_name::<Self>()
    }
}

// ---------------------------------------------------------------------------
// Erased data
// ---------------------------------------------------------------------------

/// A type-erased distributed collection plus its measured statistics.
#[derive(Clone)]
pub struct AnyData {
    inner: Arc<dyn Any + Send + Sync>,
    stats: DataStats,
    type_name: &'static str,
    /// Identity of the underlying partition data (clones share it).
    content_id: usize,
    /// Type-preserving sampler captured at wrap time, so the profiler can
    /// subsample erased data without knowing its element type.
    sampler: ErasedSampler,
}

impl AnyData {
    /// Wraps a typed collection, probing up to 64 records for statistics.
    pub fn wrap<T: Record>(c: DistCollection<T>) -> Self {
        let stats = DataStats::from_collection(&c, 64);
        let content_id = c.content_id();
        AnyData {
            inner: Arc::new(c),
            stats,
            content_id,
            type_name: std::any::type_name::<T>(),
            sampler: Arc::new(|this: &AnyData, size: usize, seed: u64| {
                let typed: DistCollection<T> = this.downcast();
                // Single partition: profiled timings are sequential
                // per-record costs, which the simulated clock then divides
                // across workers.
                AnyData::wrap(DistCollection::from_vec(typed.sample(size, seed), 1))
            }),
        }
    }

    /// The type-preserving sampler.
    pub(crate) fn sampler(&self) -> ErasedSampler {
        self.sampler.clone()
    }

    /// Recovers the typed collection (cheap: collections are `Arc`-backed).
    ///
    /// # Panics
    /// Panics with both type names if the stored type differs — this
    /// indicates a pipeline wiring bug, which the typed construction API
    /// makes unreachable for users.
    pub fn downcast<T: Record>(&self) -> DistCollection<T> {
        self.inner
            .downcast_ref::<DistCollection<T>>()
            .unwrap_or_else(|| {
                panic!(
                    "pipeline type error: expected DistCollection<{}>, found {}",
                    std::any::type_name::<T>(),
                    self.type_name
                )
            })
            .clone()
    }

    /// Measured statistics of this dataset.
    pub fn stats(&self) -> &DataStats {
        &self.stats
    }

    /// Estimated total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.stats.total_bytes() as u64
    }

    /// Stored element type name (diagnostics).
    pub fn type_name(&self) -> &'static str {
        self.type_name
    }

    /// Identity of the underlying data (used for CSE of sources): clones of
    /// the same collection — including separate `wrap` calls over them —
    /// report the same id because they share partition allocations.
    pub fn ptr_id(&self) -> usize {
        self.content_id
    }
}

impl std::fmt::Debug for AnyData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnyData")
            .field("type", &self.type_name)
            .field("count", &self.stats.count)
            .finish()
    }
}

/// Output of a DAG node: either data or a fitted model.
#[derive(Clone)]
pub enum NodeOutput {
    /// A dataset.
    Data(AnyData),
    /// A fitted transformer produced by an estimator node.
    Model(Arc<dyn ErasedTransformer>),
}

impl NodeOutput {
    /// The data payload.
    ///
    /// # Panics
    /// Panics if this output is a model.
    pub fn data(&self) -> &AnyData {
        match self {
            NodeOutput::Data(d) => d,
            NodeOutput::Model(_) => panic!("expected data output, found model"),
        }
    }

    /// The model payload.
    ///
    /// # Panics
    /// Panics if this output is data.
    pub fn model(&self) -> &Arc<dyn ErasedTransformer> {
        match self {
            NodeOutput::Model(m) => m,
            NodeOutput::Data(_) => panic!("expected model output, found data"),
        }
    }

    /// Approximate bytes (models report a nominal small footprint).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            NodeOutput::Data(d) => d.total_bytes(),
            NodeOutput::Model(_) => 1 << 10,
        }
    }
}

// ---------------------------------------------------------------------------
// Erased operator layer
// ---------------------------------------------------------------------------

/// Erased physical option of a transformer node.
pub struct ErasedTransformerOption {
    /// Physical operator name.
    pub name: String,
    /// Cost model over the node's input statistics.
    pub cost: ErasedCostFn,
    /// The erased implementation.
    pub op: Arc<dyn ErasedTransformer>,
}

/// Erased physical option of an estimator node.
pub struct ErasedEstimatorOption {
    /// Physical operator name.
    pub name: String,
    /// Cost model over the node's input statistics.
    pub cost: ErasedCostFn,
    /// The erased implementation.
    pub op: Arc<dyn ErasedEstimator>,
}

/// Object-safe transformer over erased collections. May take several data
/// inputs (e.g. `gather`).
pub trait ErasedTransformer: Send + Sync {
    /// Operator name for labels and diagnostics.
    fn name(&self) -> String;

    /// Applies to erased inputs.
    fn apply_any(&self, inputs: &[AnyData], ctx: &ExecContext) -> AnyData;

    /// Physical alternatives, when this is an optimizable logical operator.
    fn physical_options(&self) -> Option<Vec<ErasedTransformerOption>> {
        None
    }

    /// The per-record fusion surface, when this operator is a pure
    /// record-wise map (see [`Transformer::per_record`]). `None` marks the
    /// operator as a fusion barrier.
    fn record_kernel(&self) -> Option<RecordKernel> {
        None
    }

    /// Labels of the original member operators, when this is a fused chain.
    fn fused_members(&self) -> Option<Vec<String>> {
        None
    }

    /// The columnar lowering of this operator, when its records are dense
    /// `Vec<f64>` vectors and the underlying operator provides one (see
    /// [`Transformer::columnar_kernel`]). `None` keeps chains containing
    /// this operator on the record path — the automatic fallback for
    /// non-vector record types.
    fn columnar_kernel(&self) -> Option<ColumnarFn> {
        None
    }

    /// True when this is a fused chain executing on the columnar path; the
    /// executor prices such nodes on the columnar synthetic scale.
    fn fused_columnar(&self) -> bool {
        false
    }
}

/// Lazy access to an estimator's input: calling [`InputHandle::get`] may hit
/// the cache or trigger recomputation of the upstream chain, exactly like an
/// uncached RDD in Spark.
pub trait InputHandle: Sync {
    /// Produces (or re-produces) the input dataset.
    fn get(&self) -> AnyData;
}

/// Object-safe estimator over erased inputs.
pub trait ErasedEstimator: Send + Sync {
    /// Operator name for labels and diagnostics.
    fn name(&self) -> String;

    /// Number of passes over the first input.
    fn weight(&self) -> u32;

    /// Fits a model. `inputs[0]` is the training data (lazy); further
    /// handles are auxiliary inputs such as labels.
    fn fit_any(&self, inputs: &[&dyn InputHandle], ctx: &ExecContext)
        -> Arc<dyn ErasedTransformer>;

    /// Physical alternatives, when this is an optimizable logical operator.
    fn physical_options(&self) -> Option<Vec<ErasedEstimatorOption>> {
        None
    }
}

// ---------------------------------------------------------------------------
// Typed -> erased adapters
// ---------------------------------------------------------------------------

/// Erases a typed [`Transformer`].
pub struct TypedTransformer<A: Record, B: Record> {
    op: Arc<dyn Transformer<A, B>>,
}

impl<A: Record, B: Record> TypedTransformer<A, B> {
    /// Wraps a typed transformer.
    pub fn new(op: impl Transformer<A, B>) -> Self {
        TypedTransformer { op: Arc::new(op) }
    }

    /// Wraps an already-boxed transformer (e.g. a fitted model).
    pub fn from_box(op: Box<dyn Transformer<A, B>>) -> Self {
        TypedTransformer { op: Arc::from(op) }
    }
}

impl<A: Record, B: Record> ErasedTransformer for TypedTransformer<A, B> {
    fn name(&self) -> String {
        self.op.name()
    }

    fn apply_any(&self, inputs: &[AnyData], ctx: &ExecContext) -> AnyData {
        let input = inputs[0].downcast::<A>();
        AnyData::wrap(self.op.apply_collection(&input, ctx))
    }

    fn record_kernel(&self) -> Option<RecordKernel> {
        if !self.op.per_record() {
            return None;
        }
        let func: RecordFn = {
            let op = self.op.clone();
            Arc::new(move |r: AnyRecord| {
                let x = r.downcast::<A>().unwrap_or_else(|_| {
                    panic!(
                        "fused chain type error: expected record of type {}",
                        std::any::type_name::<A>()
                    )
                });
                Box::new(op.apply(&x)) as AnyRecord
            })
        };
        // The driver borrows each input record directly out of the
        // partition slice — the only per-record allocation in a fused pass
        // is the small `Box` carrying the value between members.
        let driver: FusedDriver = {
            let op = self.op.clone();
            Arc::new(
                move |input: &AnyData,
                      rest: &RecordFn,
                      fold: &PartitionFold,
                      assemble: &PartitionAssemble,
                      _ctx: &ExecContext| {
                    let typed: DistCollection<A> = input.downcast();
                    assemble(typed.fused_partitions(|part| {
                        let out: Vec<AnyRecord> = part
                            .iter()
                            .map(|x| rest(Box::new(op.apply(x)) as AnyRecord))
                            .collect();
                        let n = out.len() as u64;
                        (fold(out), n)
                    }))
                },
            )
        };
        let fold: PartitionFold = Arc::new(|records: Vec<AnyRecord>| {
            let typed: Vec<B> = records
                .into_iter()
                .map(|r| {
                    *r.downcast::<B>().unwrap_or_else(|_| {
                        panic!(
                            "fused chain type error: expected record of type {}",
                            std::any::type_name::<B>()
                        )
                    })
                })
                .collect();
            Box::new(typed) as AnyRecord
        });
        let assemble: PartitionAssemble = Arc::new(|parts: Vec<AnyRecord>| {
            let parts: Vec<Vec<B>> = parts
                .into_iter()
                .map(|p| {
                    *p.downcast::<Vec<B>>()
                        .expect("fused chain type error: partition fold mismatch")
                })
                .collect();
            AnyData::wrap(DistCollection::from_partitions(parts))
        });
        Some(RecordKernel {
            func,
            driver,
            fold,
            assemble,
        })
    }

    fn columnar_kernel(&self) -> Option<ColumnarFn> {
        // The type gate: columnar execution only exists for dense
        // `Vec<f64>` records. Chains over any other record type fall back
        // to the record path automatically.
        if !self.op.per_record()
            || std::any::TypeId::of::<A>() != std::any::TypeId::of::<Vec<f64>>()
            || std::any::TypeId::of::<B>() != std::any::TypeId::of::<Vec<f64>>()
        {
            return None;
        }
        self.op.columnar_kernel()
    }
}

/// Erases a typed [`Estimator`].
pub struct TypedEstimator<A: Record, B: Record> {
    op: Arc<dyn Estimator<A, B>>,
}

impl<A: Record, B: Record> TypedEstimator<A, B> {
    /// Wraps a typed estimator.
    pub fn new(op: impl Estimator<A, B>) -> Self {
        TypedEstimator { op: Arc::new(op) }
    }

    /// Wraps an already-boxed estimator.
    pub fn from_box(op: Box<dyn Estimator<A, B>>) -> Self {
        TypedEstimator { op: Arc::from(op) }
    }
}

impl<A: Record, B: Record> ErasedEstimator for TypedEstimator<A, B> {
    fn name(&self) -> String {
        self.op.name()
    }

    fn weight(&self) -> u32 {
        self.op.weight()
    }

    fn fit_any(
        &self,
        inputs: &[&dyn InputHandle],
        ctx: &ExecContext,
    ) -> Arc<dyn ErasedTransformer> {
        let handle = inputs[0];
        let model = self.op.fit_lazy(&|| handle.get().downcast::<A>(), ctx);
        Arc::new(TypedTransformer::from_box(model))
    }
}

/// Erases a typed [`LabelEstimator`]. Labels (`inputs[1]`) are fetched once.
pub struct TypedLabelEstimator<A: Record, L: Record, B: Record> {
    op: Arc<dyn LabelEstimator<A, L, B>>,
}

impl<A: Record, L: Record, B: Record> TypedLabelEstimator<A, L, B> {
    /// Wraps a typed supervised estimator.
    pub fn new(op: impl LabelEstimator<A, L, B>) -> Self {
        TypedLabelEstimator { op: Arc::new(op) }
    }

    /// Wraps an already-boxed supervised estimator.
    pub fn from_box(op: Box<dyn LabelEstimator<A, L, B>>) -> Self {
        TypedLabelEstimator { op: Arc::from(op) }
    }
}

impl<A: Record, L: Record, B: Record> ErasedEstimator for TypedLabelEstimator<A, L, B> {
    fn name(&self) -> String {
        self.op.name()
    }

    fn weight(&self) -> u32 {
        self.op.weight()
    }

    fn fit_any(
        &self,
        inputs: &[&dyn InputHandle],
        ctx: &ExecContext,
    ) -> Arc<dyn ErasedTransformer> {
        let data_handle = inputs[0];
        let labels = inputs[1].get().downcast::<L>();
        let model = self
            .op
            .fit_lazy(&|| data_handle.get().downcast::<A>(), &labels, ctx);
        Arc::new(TypedTransformer::from_box(model))
    }
}

/// The physical option a logical operator runs when operator selection is
/// off: `options[default_index]`, clamped to the last option.
///
/// # Panics
/// Panics when the logical operator offers no physical options.
fn default_option<O>(
    mut options: Vec<O>,
    default_index: usize,
    name: impl FnOnce() -> String,
) -> O {
    assert!(
        !options.is_empty(),
        "logical operator {} has no physical options",
        name()
    );
    let idx = default_index.min(options.len() - 1);
    options.swap_remove(idx)
}

/// Erases an [`OptimizableTransformer`]: applies via the default option and
/// exposes erased physical options to the operator-level optimizer.
pub struct TypedOptimizableTransformer<A: Record, B: Record> {
    op: Arc<dyn OptimizableTransformer<A, B>>,
}

impl<A: Record, B: Record> TypedOptimizableTransformer<A, B> {
    /// Wraps an optimizable logical transformer.
    pub fn new(op: impl OptimizableTransformer<A, B>) -> Self {
        TypedOptimizableTransformer { op: Arc::new(op) }
    }
}

impl<A: Record, B: Record> ErasedTransformer for TypedOptimizableTransformer<A, B> {
    fn name(&self) -> String {
        self.op.name()
    }

    fn apply_any(&self, inputs: &[AnyData], ctx: &ExecContext) -> AnyData {
        let chosen = default_option(self.op.options(), self.op.default_index(), || {
            self.op.name()
        });
        let input = inputs[0].downcast::<A>();
        AnyData::wrap(chosen.op.apply_collection(&input, ctx))
    }

    fn physical_options(&self) -> Option<Vec<ErasedTransformerOption>> {
        Some(
            self.op
                .options()
                .into_iter()
                .map(|o| ErasedTransformerOption {
                    name: o.name,
                    cost: Arc::new(o.cost),
                    op: Arc::new(TypedTransformer::from_box(o.op)),
                })
                .collect(),
        )
    }
}

/// Erases an [`OptimizableEstimator`].
pub struct TypedOptimizableEstimator<A: Record, B: Record> {
    op: Arc<dyn OptimizableEstimator<A, B>>,
}

impl<A: Record, B: Record> TypedOptimizableEstimator<A, B> {
    /// Wraps an optimizable logical estimator.
    pub fn new(op: impl OptimizableEstimator<A, B>) -> Self {
        TypedOptimizableEstimator { op: Arc::new(op) }
    }
}

impl<A: Record, B: Record> ErasedEstimator for TypedOptimizableEstimator<A, B> {
    fn name(&self) -> String {
        self.op.name()
    }

    fn weight(&self) -> u32 {
        let options = self.op.options();
        let idx = self.op.default_index().min(options.len().saturating_sub(1));
        options.get(idx).map_or(1, |o| o.op.weight())
    }

    fn fit_any(
        &self,
        inputs: &[&dyn InputHandle],
        ctx: &ExecContext,
    ) -> Arc<dyn ErasedTransformer> {
        let chosen = default_option(self.op.options(), self.op.default_index(), || {
            self.op.name()
        });
        TypedEstimator::from_box(chosen.op).fit_any(inputs, ctx)
    }

    fn physical_options(&self) -> Option<Vec<ErasedEstimatorOption>> {
        Some(
            self.op
                .options()
                .into_iter()
                .map(|o| ErasedEstimatorOption {
                    name: o.name,
                    cost: Arc::new(o.cost),
                    op: Arc::new(TypedEstimator::from_box(o.op)),
                })
                .collect(),
        )
    }
}

/// Erases an [`OptimizableLabelEstimator`].
pub struct TypedOptimizableLabelEstimator<A: Record, L: Record, B: Record> {
    op: Arc<dyn OptimizableLabelEstimator<A, L, B>>,
}

impl<A: Record, L: Record, B: Record> TypedOptimizableLabelEstimator<A, L, B> {
    /// Wraps an optimizable supervised logical estimator.
    pub fn new(op: impl OptimizableLabelEstimator<A, L, B>) -> Self {
        TypedOptimizableLabelEstimator { op: Arc::new(op) }
    }
}

impl<A: Record, L: Record, B: Record> ErasedEstimator for TypedOptimizableLabelEstimator<A, L, B> {
    fn name(&self) -> String {
        self.op.name()
    }

    fn weight(&self) -> u32 {
        let options = self.op.options();
        let idx = self.op.default_index().min(options.len().saturating_sub(1));
        options.get(idx).map_or(1, |o| o.op.weight())
    }

    fn fit_any(
        &self,
        inputs: &[&dyn InputHandle],
        ctx: &ExecContext,
    ) -> Arc<dyn ErasedTransformer> {
        let chosen = default_option(self.op.options(), self.op.default_index(), || {
            self.op.name()
        });
        TypedLabelEstimator::from_box(chosen.op).fit_any(inputs, ctx)
    }

    fn physical_options(&self) -> Option<Vec<ErasedEstimatorOption>> {
        Some(
            self.op
                .options()
                .into_iter()
                .map(|o| ErasedEstimatorOption {
                    name: o.name,
                    cost: Arc::new(o.cost),
                    op: Arc::new(TypedLabelEstimator::from_box(o.op)),
                })
                .collect(),
        )
    }
}

/// The `gather` combinator's physical operator: element-wise concatenation
/// of `Vec<f64>` feature vectors from several branches (Fig. 4's
/// `Pipeline.gather`, as used by the TIMIT random-feature pipeline).
pub struct GatherConcat;

impl ErasedTransformer for GatherConcat {
    fn name(&self) -> String {
        "Gather".to_string()
    }

    fn apply_any(&self, inputs: &[AnyData], _ctx: &ExecContext) -> AnyData {
        assert!(!inputs.is_empty(), "gather needs at least one branch");
        let mut acc: DistCollection<Vec<f64>> = inputs[0].downcast();
        for next in &inputs[1..] {
            let branch: DistCollection<Vec<f64>> = next.downcast();
            acc = acc.zip(&branch, |a, b| {
                let mut out = Vec::with_capacity(a.len() + b.len());
                out.extend_from_slice(a);
                out.extend_from_slice(b);
                out
            });
        }
        AnyData::wrap(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl Transformer<f64, f64> for Doubler {
        fn apply(&self, x: &f64) -> f64 {
            x * 2.0
        }
    }

    struct MeanCenter;
    impl Estimator<f64, f64> for MeanCenter {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            let n = data.count().max(1) as f64;
            let sum = data.aggregate(0.0, |a, x| a + x, |a, b| a + b);
            let mu = sum / n;
            struct Shift(f64);
            impl Transformer<f64, f64> for Shift {
                fn apply(&self, x: &f64) -> f64 {
                    x - self.0
                }
            }
            Box::new(Shift(mu))
        }
    }

    fn ctx() -> ExecContext {
        ExecContext::default_cluster()
    }

    #[test]
    fn short_names() {
        assert_eq!(short_type_name::<Doubler>(), "Doubler");
        assert_eq!(short_type_name::<Vec<f64>>(), "Vec");
    }

    #[test]
    fn anydata_roundtrip_and_stats() {
        let c = DistCollection::from_vec(vec![vec![1.0, 2.0]; 10], 2);
        let any = AnyData::wrap(c);
        assert_eq!(any.stats().count, 10);
        let back: DistCollection<Vec<f64>> = any.downcast();
        assert_eq!(back.count(), 10);
    }

    #[test]
    #[should_panic(expected = "pipeline type error")]
    fn anydata_wrong_downcast_panics() {
        let c = DistCollection::from_vec(vec![1.0f64; 3], 1);
        let any = AnyData::wrap(c);
        let _: DistCollection<String> = any.downcast();
    }

    #[test]
    fn typed_transformer_erasure() {
        let erased = TypedTransformer::new(Doubler);
        let input = AnyData::wrap(DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2));
        let out = erased.apply_any(&[input], &ctx());
        let data: DistCollection<f64> = out.downcast();
        assert_eq!(data.collect(), vec![2.0, 4.0, 6.0]);
        assert!(erased.physical_options().is_none());
    }

    #[test]
    fn record_kernel_composes_into_one_pass() {
        // Manually splice Doubler -> ScaleBy(10) the way the fusion pass
        // does: head's driver, downstream func, tail's fold/assemble.
        let head = TypedTransformer::new(Doubler);
        let tail = TypedTransformer::new(ScaleBy(10.0));
        let hk = head.record_kernel().expect("Doubler is per-record");
        let tk = tail.record_kernel().expect("ScaleBy is per-record");
        let input = AnyData::wrap(DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2));
        let out = (hk.driver)(&input, &tk.func, &tk.fold, &tk.assemble, &ctx());
        let v: DistCollection<f64> = out.downcast();
        assert_eq!(v.collect(), vec![20.0, 40.0, 60.0]);
    }

    #[test]
    fn non_per_record_transformer_has_no_kernel() {
        struct WholeCollection;
        impl Transformer<f64, f64> for WholeCollection {
            fn apply(&self, x: &f64) -> f64 {
                *x
            }
            fn apply_collection(
                &self,
                input: &DistCollection<f64>,
                _ctx: &ExecContext,
            ) -> DistCollection<f64> {
                input.map(|x| *x)
            }
            fn per_record(&self) -> bool {
                false
            }
        }
        assert!(TypedTransformer::new(WholeCollection)
            .record_kernel()
            .is_none());
        assert!(TypedTransformer::new(Doubler).record_kernel().is_some());
        assert!(TypedTransformer::new(Doubler).fused_members().is_none());
    }

    struct DirectHandle(AnyData);
    impl InputHandle for DirectHandle {
        fn get(&self) -> AnyData {
            self.0.clone()
        }
    }

    #[test]
    fn typed_estimator_erasure() {
        let erased = TypedEstimator::new(MeanCenter);
        let input = DirectHandle(AnyData::wrap(DistCollection::from_vec(
            vec![1.0, 2.0, 3.0],
            2,
        )));
        let model = erased.fit_any(&[&input], &ctx());
        let out = model.apply_any(&[input.get()], &ctx());
        let shifted: DistCollection<f64> = out.downcast();
        assert_eq!(shifted.collect(), vec![-1.0, 0.0, 1.0]);
        assert_eq!(erased.weight(), 1);
    }

    struct ScaleBy(f64);
    impl Transformer<f64, f64> for ScaleBy {
        fn apply(&self, x: &f64) -> f64 {
            x * self.0
        }
    }

    struct PickScale;
    impl OptimizableTransformer<f64, f64> for PickScale {
        fn options(&self) -> Vec<TransformerOption<f64, f64>> {
            vec![
                TransformerOption {
                    name: "x10".into(),
                    cost: Box::new(|_stats, _r| CostProfile::compute(100.0)),
                    op: Box::new(ScaleBy(10.0)),
                },
                TransformerOption {
                    name: "x100".into(),
                    cost: Box::new(|_stats, _r| CostProfile::compute(1.0)),
                    op: Box::new(ScaleBy(100.0)),
                },
            ]
        }
    }

    #[test]
    fn optimizable_transformer_exposes_options_and_default() {
        let erased = TypedOptimizableTransformer::new(PickScale);
        let opts = erased.physical_options().expect("optimizable");
        assert_eq!(opts.len(), 2);
        assert_eq!(opts[0].name, "x10");
        // Default index 0 -> x10.
        let input = AnyData::wrap(DistCollection::from_vec(vec![1.0], 1));
        let out = erased.apply_any(&[input], &ctx());
        let v: DistCollection<f64> = out.downcast();
        assert_eq!(v.collect(), vec![10.0]);
    }

    /// A logical operator with nothing to run is a caller bug, reported by
    /// name.
    #[test]
    #[should_panic(expected = "logical operator NoOptions has no physical options")]
    fn optimizable_transformer_without_options_panics_by_name() {
        struct NoOptions;
        impl OptimizableTransformer<f64, f64> for NoOptions {
            fn options(&self) -> Vec<TransformerOption<f64, f64>> {
                Vec::new()
            }
        }
        let input = AnyData::wrap(DistCollection::from_vec(vec![1.0], 1));
        let _ = TypedOptimizableTransformer::new(NoOptions).apply_any(&[input], &ctx());
    }

    #[test]
    fn default_option_clamps_to_the_last() {
        assert_eq!(default_option(vec!['a', 'b', 'c'], 1, String::new), 'b');
        assert_eq!(default_option(vec!['a', 'b', 'c'], 9, String::new), 'c');
    }

    #[test]
    fn gather_concatenates_branches() {
        let a = AnyData::wrap(DistCollection::from_vec(vec![vec![1.0], vec![2.0]], 2));
        let b = AnyData::wrap(DistCollection::from_vec(vec![vec![10.0], vec![20.0]], 2));
        let out = GatherConcat.apply_any(&[a, b], &ctx());
        let v: DistCollection<Vec<f64>> = out.downcast();
        assert_eq!(v.collect(), vec![vec![1.0, 10.0], vec![2.0, 20.0]]);
    }

    #[test]
    fn node_output_accessors() {
        let d = NodeOutput::Data(AnyData::wrap(DistCollection::from_vec(vec![1.0], 1)));
        assert!(d.data().stats().count == 1);
        assert!(d.approx_bytes() > 0);
        let m: NodeOutput = NodeOutput::Model(Arc::new(TypedTransformer::new(Doubler)));
        assert_eq!(m.model().name(), "Doubler");
        assert_eq!(m.approx_bytes(), 1 << 10);
    }
}
