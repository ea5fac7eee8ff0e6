//! The typed pipeline-construction API (Fig. 2/4) and `fit`.
//!
//! A `Pipeline<A, B>` is a handle into a shared operator DAG: `and_then`
//! appends transformer nodes; `and_then_est` binds training data, clones the
//! preceding prefix over it (CSE later merges the duplicates), fits an
//! estimator, and applies the resulting model to the main flow; `gather`
//! merges branches. Calling [`Pipeline::fit`] triggers the lazy optimization
//! procedure of §2.3 and returns a [`FittedPipeline`].

use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use keystone_dataflow::cache::{CacheManager, CachePolicy};
use keystone_dataflow::collection::DistCollection;
use keystone_dataflow::ledger::quiet;

use crate::context::ExecContext;
use crate::executor::{Executor, Program};
use crate::graph::{Graph, NodeId, NodeKind};
use crate::operator::{
    AnyData, ErasedTransformer, Estimator, GatherConcat, LabelEstimator, LogicalOperator,
    OptimizableEstimator, OptimizableLabelEstimator, OptimizableTransformer, Transformer,
    TypedEstimator, TypedTransformer,
};
use crate::optimizer::{eliminate_common_subexpressions, FitPlan, OptLevel, PipelineOptions};
use crate::profiler::PipelineProfile;
use crate::record::Record;
use parking_lot::Mutex;

/// A typed handle into a pipeline DAG under construction.
pub struct Pipeline<A: Record, B: Record> {
    graph: Arc<Mutex<Graph>>,
    input: NodeId,
    output: NodeId,
    _ph: PhantomData<fn(&A) -> B>,
}

impl<A: Record, B: Record> Clone for Pipeline<A, B> {
    fn clone(&self) -> Self {
        Pipeline {
            graph: self.graph.clone(),
            input: self.input,
            output: self.output,
            _ph: PhantomData,
        }
    }
}

impl<A: Record> Pipeline<A, A> {
    /// Starts a new pipeline: the identity over the runtime input.
    pub fn input() -> Self {
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        Pipeline {
            graph: Arc::new(Mutex::new(g)),
            input,
            output: input,
            _ph: PhantomData,
        }
    }
}

impl<A: Record, B: Record> Pipeline<A, B> {
    fn derive<C: Record>(&self, output: NodeId) -> Pipeline<A, C> {
        Pipeline {
            graph: self.graph.clone(),
            input: self.input,
            output,
            _ph: PhantomData,
        }
    }

    /// Chains a transformer (`andThen`).
    pub fn and_then<C: Record>(&self, t: impl Transformer<B, C>) -> Pipeline<A, C> {
        self.append_transformer(Arc::new(TypedTransformer::new(t)), vec![self.output])
    }

    /// Chains an optimizable transformer (multiple physical options).
    pub fn and_then_optimizable<C: Record>(
        &self,
        t: impl OptimizableTransformer<B, C>,
    ) -> Pipeline<A, C> {
        let op = Arc::new(LogicalOperator::transformer(t));
        self.append_transformer(op, vec![self.output])
    }

    /// Chains an unsupervised estimator fit on `data` passed through the
    /// preceding prefix (`andThen (est, data)`).
    pub fn and_then_est<C: Record>(
        &self,
        est: impl Estimator<B, C>,
        data: &DistCollection<A>,
    ) -> Pipeline<A, C> {
        self.append_estimator(Arc::new(TypedEstimator::new(est)), data, None)
    }

    /// Chains an optimizable unsupervised estimator.
    pub fn and_then_optimizable_est<C: Record>(
        &self,
        est: impl OptimizableEstimator<B, C>,
        data: &DistCollection<A>,
    ) -> Pipeline<A, C> {
        self.append_estimator(Arc::new(LogicalOperator::estimator(est)), data, None)
    }

    /// Chains a supervised estimator (`andThen (est, data, labels)`).
    pub fn and_then_label_est<L: Record, C: Record>(
        &self,
        est: impl LabelEstimator<B, L, C>,
        data: &DistCollection<A>,
        labels: &DistCollection<L>,
    ) -> Pipeline<A, C> {
        let erased = Arc::new(TypedEstimator::from_label_box(Box::new(est)));
        self.append_estimator(erased, data, Some(AnyData::wrap(labels.clone())))
    }

    /// Chains an optimizable supervised estimator.
    pub fn and_then_optimizable_label_est<L: Record, C: Record>(
        &self,
        est: impl OptimizableLabelEstimator<B, L, C>,
        data: &DistCollection<A>,
        labels: &DistCollection<L>,
    ) -> Pipeline<A, C> {
        let erased = Arc::new(LogicalOperator::label_estimator(est));
        self.append_estimator(erased, data, Some(AnyData::wrap(labels.clone())))
    }

    /// Appends a transformer node over `inputs`, labelled with the
    /// operator's name.
    fn append_transformer<C: Record>(
        &self,
        op: Arc<dyn ErasedTransformer>,
        inputs: Vec<NodeId>,
    ) -> Pipeline<A, C> {
        let label = op.name();
        let id = self
            .graph
            .lock()
            .add(NodeKind::Transform(op), inputs, label);
        self.derive(id)
    }

    /// Binds the training data (and labels), clones the prefix over it and
    /// appends the estimator and the application of its model, labelled
    /// with the estimator's name.
    fn append_estimator<C: Record>(
        &self,
        erased: Arc<dyn crate::operator::ErasedEstimator>,
        data: &DistCollection<A>,
        labels: Option<AnyData>,
    ) -> Pipeline<A, C> {
        let label = erased.name();
        let mut g = self.graph.lock();
        let src = g.add(
            NodeKind::DataSource(AnyData::wrap(data.clone())),
            vec![],
            "train-data",
        );
        let train_out = g.clone_rerooted(self.output, src);
        let mut est_inputs = vec![train_out];
        if let Some(l) = labels {
            let lsrc = g.add(NodeKind::DataSource(l), vec![], "train-labels");
            est_inputs.push(lsrc);
        }
        let est = g.add(NodeKind::Estimate(erased), est_inputs, label.clone());
        let apply = g.add(
            NodeKind::ModelApply,
            vec![est, self.output],
            format!("{}Model", label),
        );
        drop(g);
        self.derive(apply)
    }

    /// Renders the current DAG as Graphviz.
    pub fn to_dot(&self) -> String {
        self.graph.lock().to_dot(&HashSet::new())
    }

    /// Number of nodes currently in the shared DAG.
    pub fn graph_len(&self) -> usize {
        self.graph.lock().len()
    }

    /// Snapshot of the current (pre-optimization) DAG. Test harnesses use
    /// this to run optimizer passes such as CSE directly against the graph
    /// `fit` would see.
    pub fn graph_snapshot(&self) -> Graph {
        self.graph.lock().clone()
    }

    /// The node id this handle's output corresponds to in
    /// [`Pipeline::graph_snapshot`].
    pub fn output_node(&self) -> NodeId {
        self.output
    }

    /// Deterministic structural summary of the current DAG (see
    /// [`Graph::summary`]).
    pub fn summary(&self) -> String {
        self.graph.lock().summary()
    }

    /// Optimizes and fits the pipeline (§2.3's "optimization time" followed
    /// by estimator execution), returning the fitted pipeline and a report
    /// of every optimizer decision.
    pub fn fit(
        &self,
        ctx: &ExecContext,
        opts: &PipelineOptions,
    ) -> (FittedPipeline<A, B>, FitReport) {
        let snapshot = self.graph.lock().clone();
        let window = crate::report::LedgerWindow::open(ctx);
        let t0 = Instant::now();

        // 1. Common sub-expression elimination; steps 2–4 are the driver's.
        let (graph, output, eliminated) = if opts.level == OptLevel::None {
            (snapshot, self.output, 0)
        } else {
            let r = eliminate_common_subexpressions(&snapshot);
            for event in r.merge_groups() {
                ctx.tracer.record(event);
            }
            (r.graph, r.remap[&self.output], r.eliminated)
        };
        let (report, mut plans) = FitPlan::new(graph, vec![output], ctx, opts).execute(
            ctx,
            opts,
            eliminated,
            window.marks,
            t0,
        );
        (FittedPipeline::from_plan(plans.remove(0)), report)
    }
}

/// Merges branches element-wise by concatenating their `Vec<f64>` outputs
/// (Fig. 4's `gather`, as used by the TIMIT random-feature pipeline). All
/// branches must share the same pipeline graph and input.
///
/// # Panics
/// Panics if `branches` is empty or the branches come from different
/// pipeline inputs.
pub fn gather<A: Record>(branches: &[Pipeline<A, Vec<f64>>]) -> Pipeline<A, Vec<f64>> {
    assert!(!branches.is_empty(), "gather needs at least one branch");
    let first = &branches[0];
    for b in branches {
        assert!(
            Arc::ptr_eq(&first.graph, &b.graph) && first.input == b.input,
            "gather branches must come from the same pipeline input"
        );
    }
    let inputs: Vec<NodeId> = branches.iter().map(|b| b.output).collect();
    first.append_transformer(Arc::new(GatherConcat), inputs)
}

/// What the optimizer did during `fit`.
#[derive(Debug)]
pub struct FitReport {
    /// Wall seconds spent on profiling + optimization (Fig. 9's "Optimize").
    pub optimize_secs: f64,
    /// Nodes removed by CSE.
    pub eliminated_nodes: usize,
    /// `(node label, chosen physical operator)` pairs.
    pub choices: Vec<(String, String)>,
    /// `(fused node id, member labels)` per whole-stage fused chain, in
    /// ascending node-id order.
    pub fused: Vec<(NodeId, Vec<String>)>,
    /// Nodes absorbed into some fused chain (the span-count saving).
    pub fused_nodes: usize,
    /// How many fused chains lowered to the columnar batch path (0 when
    /// fusion or the columnar toggle is off, or when no chain's members
    /// all provide columnar kernels).
    pub columnar_chains: usize,
    /// Node ids chosen for materialization. Always the *initial* greedy
    /// solution: mid-fit adaptive revisions change the live cache but are
    /// reported separately in [`FitReport::adaptation`], so this field is
    /// comparable across adaptive on/off runs.
    pub cache_set: HashSet<NodeId>,
    /// Their labels (Fig. 11).
    pub cache_set_labels: Vec<String>,
    /// What adaptive re-optimization did during the fit (all-zero when it
    /// was disabled or never triggered).
    pub adaptation: crate::optimizer::AdaptationReport,
    /// Graphviz dump with the cache set highlighted.
    pub dot: String,
    /// The raw pipeline profile.
    pub profile: PipelineProfile,
    /// Predicted-vs-actual join over the fit execution: per-node estimated
    /// and observed runtimes, output sizes and cache counters.
    pub observability: crate::report::PipelineReport,
}

/// The type-erased executable artifact of a fit: the optimized DAG, the
/// per-node profiles, the plan lowered to a program with its fitted models
/// resolved, and the plan's one cache — everything needed to apply it,
/// with the input typing stripped off.
///
/// Both [`FittedPipeline::apply`] and the serving layer (`keystone-serve`)
/// execute through [`ExecutablePlan::execute_erased`], so batch apply and
/// micro-batched serving cannot diverge: a serving wave *is* an
/// `execute_erased` call over the wave's records, and every call is one
/// walk of the program [`ExecutablePlan::new`] lowered.
pub struct ExecutablePlan {
    graph: Arc<Graph>,
    output: NodeId,
    profiles: Arc<HashMap<NodeId, crate::profiler::NodeProfile>>,
    program: Program,
    cache: Arc<CacheManager>,
}

impl ExecutablePlan {
    /// Assembles a plan from its parts, lowers it once into a program whose
    /// step inputs are slots or fitted models, and builds its cache (see
    /// [`ExecutablePlan::cache`]). `Pipeline::fit` is the normal producer;
    /// this constructor exists for serving/test harnesses that build the
    /// optimized graph directly.
    ///
    /// # Panics
    /// Panics if the graph has no runtime input.
    pub fn new(
        graph: Arc<Graph>,
        output: NodeId,
        models: HashMap<NodeId, Arc<dyn ErasedTransformer>>,
        profiles: Arc<HashMap<NodeId, crate::profiler::NodeProfile>>,
    ) -> Self {
        let program = Program::lower(&graph, output, &models);
        let pinned = program.pinned.iter().map(|&(_, key)| key).collect();
        let cache = Arc::new(CacheManager::new(u64::MAX, CachePolicy::Pinned(pinned)));
        ExecutablePlan {
            graph,
            output,
            profiles,
            program,
            cache,
        }
    }

    /// The optimized DAG.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The output node id within [`ExecutablePlan::graph`].
    pub fn output_node(&self) -> NodeId {
        self.output
    }

    /// Per-node cost profiles the optimizer settled on (artifact capture
    /// joins these predictions against executor actuals by node id).
    pub fn profiles(&self) -> &HashMap<NodeId, crate::profiler::NodeProfile> {
        &self.profiles
    }

    /// Runs the apply path over an erased input: the one way a plan runs,
    /// for `FittedPipeline::apply` and for every serving wave alike. The
    /// walk runs under `ctx` without its fault plan: injection targets the
    /// fit the recovery machinery protects, so an apply stays fault-free.
    /// Its rows are stored unless the caller runs it [`quiet`].
    pub fn execute_erased(&self, input: AnyData, ctx: &ExecContext) -> AnyData {
        Executor::new(&self.graph, ctx, self.cache.clone())
            .fault_free()
            .with_profiles(self.profiles.clone())
            .apply(&self.program, input)
    }

    /// The plan's one cache, shared by every [`ExecutablePlan::
    /// execute_erased`] call: unbounded and pinned to the request-independent
    /// values the apply path reads, so nothing an input influences can leak
    /// from one call into another. A fitted pipeline's path reads only its
    /// models, which lowering resolved, so only hand-built plans use it.
    pub fn cache(&self) -> &CacheManager {
        &self.cache
    }

    /// Apply-path nodes: the output's ancestry that the runtime input
    /// feeds, minus the runtime input itself, in topological order — the
    /// steps one `execute_erased` call runs.
    pub fn apply_path(&self) -> &[NodeId] {
        &self.program.nodes[self.program.constants..]
    }
}

/// A fitted pipeline: a typed handle over the shared [`ExecutablePlan`].
pub struct FittedPipeline<A: Record, B: Record> {
    plan: Arc<ExecutablePlan>,
    _ph: PhantomData<fn(&A) -> B>,
}

impl<A: Record, B: Record> Clone for FittedPipeline<A, B> {
    fn clone(&self) -> Self {
        FittedPipeline {
            plan: self.plan.clone(),
            _ph: PhantomData,
        }
    }
}

impl<A: Record, B: Record> FittedPipeline<A, B> {
    /// Wraps a plan in a typed handle. `Pipeline::fit` is the normal
    /// producer; the forest fit (`keystone_core::optimizer::multi`) uses
    /// this to hand each tenant a typed view over the shared merged graph
    /// with that tenant's own output node.
    pub fn from_plan(plan: Arc<ExecutablePlan>) -> Self {
        FittedPipeline {
            plan,
            _ph: PhantomData,
        }
    }

    /// Applies the fitted pipeline to new data, [`quiet`]: unless a window
    /// is open on `ctx`, the call's node-run rows only add to the ledgers'
    /// totals.
    pub fn apply(&self, data: &DistCollection<A>, ctx: &ExecContext) -> DistCollection<B> {
        let input = AnyData::wrap(data.clone());
        quiet(|| self.plan.execute_erased(input, ctx).downcast())
    }

    /// Applies to a single record (convenience; wraps it in a collection).
    pub fn apply_one(&self, record: &A, ctx: &ExecContext) -> B {
        let c = DistCollection::from_vec(vec![record.clone()], 1);
        self.apply(&c, ctx)
            .collect()
            .pop()
            .expect("one output for one input")
    }

    /// The shared executable plan (the serving layer's entry point).
    pub fn plan(&self) -> Arc<ExecutablePlan> {
        self.plan.clone()
    }

    /// The optimized DAG (for inspection / Fig. 11 dumps).
    pub fn graph(&self) -> &Graph {
        self.plan.graph()
    }

    /// The output node id within [`FittedPipeline::graph`] — with
    /// [`crate::optimizer::fit_roots`] and
    /// [`crate::optimizer::build_mat_problem`], test harnesses can rebuild
    /// the exact materialization problem this fit solved.
    pub fn output_node(&self) -> NodeId {
        self.plan.output_node()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::profiler::ProfileOptions;
    use keystone_dataflow::cluster::ClusterProfile;
    use keystone_dataflow::cost::CostProfile;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub(crate) struct Inc;
    impl Transformer<f64, f64> for Inc {
        fn apply(&self, x: &f64) -> f64 {
            x + 1.0
        }
    }

    struct Scale;
    impl Transformer<f64, f64> for Scale {
        fn apply(&self, x: &f64) -> f64 {
            x * 3.0
        }
    }

    /// Subtracts the training mean.
    pub(crate) struct MeanCenter;
    impl Estimator<f64, f64> for MeanCenter {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            let n = data.count().max(1) as f64;
            let mu = data.aggregate(0.0, |a, x| a + x, |a, b| a + b) / n;
            struct Shift(f64);
            impl Transformer<f64, f64> for Shift {
                fn apply(&self, x: &f64) -> f64 {
                    x - self.0
                }
            }
            Box::new(Shift(mu))
        }
    }

    /// Fits b so that x + b approximates labels.
    struct OffsetFit;
    impl LabelEstimator<f64, f64, f64> for OffsetFit {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            labels: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            let n = data.count().max(1) as f64;
            let dx = data.aggregate(0.0, |a, x| a + x, |a, b| a + b) / n;
            let dy = labels.aggregate(0.0, |a, x| a + x, |a, b| a + b) / n;
            struct Off(f64);
            impl Transformer<f64, f64> for Off {
                fn apply(&self, x: &f64) -> f64 {
                    x + self.0
                }
            }
            Box::new(Off(dy - dx))
        }
    }

    fn ctx() -> ExecContext {
        ExecContext::new(ClusterProfile::R3_4xlarge.descriptor(4))
    }

    pub(crate) fn small_profile() -> ProfileOptions {
        ProfileOptions {
            sizes: vec![4, 8],
            seed: 1,
            select_operators: true,
            deterministic_timing: true,
        }
    }

    /// The context's trace stream with wall time blanked, so two runs of
    /// the same plan compare equal.
    pub(crate) fn events_without_wall(ctx: &ExecContext) -> Vec<String> {
        ctx.tracer
            .events()
            .into_iter()
            .map(|e| match e.event {
                crate::trace::TraceEvent::NodeEnd {
                    node,
                    label,
                    records,
                    out_bytes,
                    sim_secs,
                    ..
                } => format!("NodeEnd {node} {label} {records} {out_bytes} {sim_secs}"),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn transformer_only_pipeline() {
        let pipe = Pipeline::<f64, f64>::input().and_then(Inc).and_then(Scale);
        let ctx = ctx();
        let (fitted, report) = pipe.fit(
            &ctx,
            &PipelineOptions {
                profile: small_profile(),
                ..Default::default()
            },
        );
        assert_eq!(report.eliminated_nodes, 0);
        let out = fitted.apply(&DistCollection::from_vec(vec![1.0, 2.0], 2), &ctx);
        assert_eq!(out.collect(), vec![6.0, 9.0]);
        assert_eq!(fitted.apply_one(&0.0, &ctx), 3.0);
    }

    #[test]
    fn estimator_pipeline_fits_and_applies() {
        let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then_est(MeanCenter, &train);
        let ctx = ctx();
        let (fitted, _) = pipe.fit(
            &ctx,
            &PipelineOptions {
                profile: small_profile(),
                ..Default::default()
            },
        );
        // Training mean of Inc(train) = mean(2,3,4) = 3; apply: x+1-3.
        let out = fitted.apply(&DistCollection::from_vec(vec![5.0], 1), &ctx);
        assert_eq!(out.collect(), vec![3.0]);
    }

    #[test]
    fn label_estimator_pipeline() {
        let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2);
        let labels = DistCollection::from_vec(vec![11.0, 12.0, 13.0], 2);
        let pipe = Pipeline::<f64, f64>::input().and_then_label_est(OffsetFit, &train, &labels);
        let ctx = ctx();
        let (fitted, _) = pipe.fit(
            &ctx,
            &PipelineOptions {
                profile: small_profile(),
                ..Default::default()
            },
        );
        let out = fitted.apply(&DistCollection::from_vec(vec![5.0], 1), &ctx);
        assert_eq!(out.collect(), vec![15.0]);
    }

    /// An apply walks its path without touching the plan's cache, so a
    /// single-record apply records one `NodeEnd` per node run and nothing
    /// else: no cache lookup, miss or reject.
    #[test]
    fn apply_one_records_only_node_ends() {
        use crate::trace::TraceEvent;
        let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then(Scale)
            .and_then_est(MeanCenter, &train);
        let opts = PipelineOptions {
            profile: small_profile(),
            ..PipelineOptions::none()
        };
        let (fitted, _) = pipe.fit(&ctx(), &opts);
        let apply_ctx = ctx();
        // The window keeps the calls' rows from folding.
        let _window = crate::report::LedgerWindow::open(&apply_ctx);
        for x in [0.0, 5.0] {
            // (x + 1) * 3 - mean(6, 9, 12)
            assert_eq!(fitted.apply_one(&x, &apply_ctx), (x + 1.0) * 3.0 - 9.0);
        }
        let events = apply_ctx.tracer.events();
        assert!(!events.is_empty());
        for e in &events {
            assert!(
                matches!(e.event, TraceEvent::NodeEnd { .. }),
                "{:?}",
                e.event
            );
        }
        assert_eq!(fitted.plan().cache().stats(), Default::default());
    }

    /// Rows each ledger holds: trace events, task spans, clock entries.
    fn held(ctx: &ExecContext) -> (usize, usize, usize) {
        (ctx.tracer.len(), ctx.metrics.span_count(), ctx.sim.mark())
    }

    /// `Inc`, `Scale` and `MeanCenter`, fitted unfused on `ctx`.
    fn fit_chain(ctx: &ExecContext) -> FittedPipeline<f64, f64> {
        let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then(Scale)
            .and_then_est(MeanCenter, &train);
        let opts = PipelineOptions {
            profile: small_profile(),
            ..PipelineOptions::none()
        };
        pipe.fit(ctx, &opts).0
    }

    /// Outside a window, every single-record apply folds its rows into the
    /// totals and stores none: the ledgers hold after 20,000 calls what
    /// they held after 1,000 (the fit's rows), the totals count every call,
    /// and every sum is bit-equal to the same calls' rows kept under an
    /// open window.
    #[test]
    fn unwindowed_applies_stay_bounded_and_conserve_their_totals() {
        let (folded, kept) = (ctx(), ctx());
        let fitted = fit_chain(&folded);
        fit_chain(&kept);
        let fit_rows = held(&folded);
        let fit_execs = folded.tracer.node_actuals();
        let window = crate::report::LedgerWindow::open(&kept);
        let calls: u32 = 20_000;
        for i in 0..calls {
            let x = f64::from(i % 7);
            assert_eq!(fitted.apply_one(&x, &folded), fitted.apply_one(&x, &kept));
            if i + 1 == 1_000 {
                assert_eq!(held(&folded), fit_rows, "after 1,000 calls");
            }
        }
        assert_eq!(held(&folded), fit_rows, "after {calls} calls");
        assert!(held(&kept).0 > fit_rows.0 + calls as usize);
        let (actuals, rows) = (folded.tracer.node_actuals(), kept.tracer.node_actuals());
        for n in fitted.plan().apply_path() {
            let before = fit_execs.get(n).map_or(0, |a| a.execs);
            assert_eq!(actuals[n].execs, before + u64::from(calls));
            assert_eq!(actuals[n].records, rows[n].records);
        }
        let bits = |c: &ExecContext| {
            let mut sims: Vec<(NodeId, u64)> = c
                .tracer
                .node_actuals()
                .into_iter()
                .map(|(n, a)| (n, a.sim_secs.to_bits()))
                .collect();
            sims.sort_unstable();
            let stages = c.sim.by_stage().into_iter();
            let stages: Vec<(String, u64)> = stages.map(|(s, v)| (s, v.to_bits())).collect();
            (sims, stages, c.sim.total_seconds().to_bits())
        };
        assert_eq!(bits(&folded), bits(&kept));
        drop(window);
    }

    /// Two threads applying on one context fold every row, and the totals
    /// count every call.
    #[test]
    fn concurrent_applies_on_one_context_fold_every_row() {
        let fitted = fit_chain(&ctx());
        let ctx = ctx();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for i in 0..2_000 {
                        let x = f64::from(i);
                        assert_eq!(fitted.apply_one(&x, &ctx), (x + 1.0) * 3.0 - 9.0);
                    }
                });
            }
        });
        assert_eq!(held(&ctx), (0, 0, 0));
        let actuals = ctx.tracer.node_actuals();
        for n in fitted.plan().apply_path() {
            assert_eq!(actuals[n].execs, 4_000);
        }
    }

    /// A node run's simulated seconds are what its own thread charged:
    /// two threads applying on one context give every node the execs and
    /// the Σsim bits one thread gives for the same calls.
    #[test]
    fn concurrent_applies_attribute_each_call_its_own_charges() {
        let fitted = fit_chain(&ctx());
        let run = |threads: u32| {
            let ctx = ctx();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for i in 0..4_000 / threads {
                            fitted.apply_one(&f64::from(i % 7), &ctx);
                        }
                    });
                }
            });
            let mut nodes: Vec<(NodeId, u64, u64)> = ctx
                .tracer
                .node_actuals()
                .into_iter()
                .map(|(n, a)| (n, a.execs, a.sim_secs.to_bits()))
                .collect();
            nodes.sort_unstable();
            nodes
        };
        let one = run(1);
        assert_eq!(one.len(), fitted.plan().apply_path().len());
        assert!(one.iter().all(|&(_, execs, _)| execs == 4_000));
        assert_eq!(run(2), one);
    }

    /// Passes records through, waiting twice at the barrier in each
    /// collection pass while armed.
    struct Gated(Arc<(std::sync::atomic::AtomicBool, std::sync::Barrier)>);
    impl Transformer<f64, f64> for Gated {
        fn apply(&self, x: &f64) -> f64 {
            *x
        }
        fn apply_collection(
            &self,
            input: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> DistCollection<f64> {
            if self.0 .0.load(Ordering::SeqCst) {
                self.0 .1.wait();
                self.0 .1.wait();
            }
            input.map(|x| *x)
        }
    }

    /// A window opened while an unwindowed call runs on another thread
    /// holds the rows that call writes after it opens, and none from
    /// before.
    #[test]
    fn a_window_opened_mid_call_holds_the_rows_written_after_it_opens() {
        let gate = Arc::new((
            std::sync::atomic::AtomicBool::new(false),
            std::sync::Barrier::new(2),
        ));
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then(Gated(gate.clone()));
        let opts = PipelineOptions {
            profile: small_profile(),
            ..PipelineOptions::none()
        };
        let ctx = ctx();
        let (fitted, _) = pipe.fit(&ctx, &opts);
        let gated = fitted.plan().output_node();
        let before = held(&ctx);
        gate.0.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let call = s.spawn(|| fitted.apply_one(&1.0, &ctx));
            // `Inc` has run, unwindowed; `Gated` is inside its work.
            gate.1.wait();
            let window = crate::report::LedgerWindow::open(&ctx);
            gate.1.wait();
            assert_eq!(call.join().expect("the call panicked"), 2.0);
            let after = held(&ctx);
            let rows = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
            assert_eq!(rows, (1, 1, 1), "Gated's NodeEnd, span and clock entry");
            let events = ctx.tracer.since(window.marks.events).events();
            assert!(
                matches!(events[0].event, crate::trace::TraceEvent::NodeEnd { node, .. } if node == gated),
                "{:?}",
                events[0].event
            );
        });
        gate.0.store(false, Ordering::SeqCst);
        fitted.apply_one(&1.0, &ctx);
        assert_eq!(held(&ctx), (before.0 + 1, before.1 + 1, before.2 + 1));
    }

    /// Adds one, panicking in the first partition attempt after it is armed.
    struct PanicsOnce(Arc<std::sync::atomic::AtomicBool>);
    impl Transformer<f64, f64> for PanicsOnce {
        fn apply(&self, x: &f64) -> f64 {
            x + 1.0
        }
        fn apply_collection(
            &self,
            input: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> DistCollection<f64> {
            let armed = self.0.clone();
            input.map(move |x| {
                if armed.swap(false, Ordering::SeqCst) {
                    panic!("partition attempt failed");
                }
                x + 1.0
            })
        }
    }

    /// A partition that panics once inside an unwindowed apply still
    /// records its `TaskRetry` event and its `recovery:` seconds, and the
    /// call stores no span, clock entry or `NodeEnd`.
    #[test]
    fn a_retry_in_an_unwindowed_apply_keeps_its_event_and_recovery_seconds() {
        use crate::trace::TraceEvent;
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pipe = Pipeline::<f64, f64>::input().and_then(PanicsOnce(armed.clone()));
        let opts = PipelineOptions {
            profile: small_profile(),
            ..PipelineOptions::none()
        };
        let ctx = ctx();
        let (fitted, _) = pipe.fit(&ctx, &opts);
        let node = fitted.plan().output_node();
        let before = held(&ctx);
        armed.store(true, Ordering::SeqCst);
        assert_eq!(fitted.apply_one(&1.0, &ctx), 2.0);
        assert!(!armed.load(Ordering::SeqCst), "the attempt never panicked");
        assert_eq!(held(&ctx), (before.0 + 1, before.1, before.2));
        let last = ctx.tracer.events().pop().expect("an event").event;
        assert!(
            matches!(last, TraceEvent::TaskRetry { node: n, partition: 0, attempt: 0, .. } if n == node),
            "{last:?}"
        );
        let recovery = ctx
            .sim
            .by_stage()
            .into_iter()
            .find(|(s, _)| s == "recovery");
        let backoff = keystone_dataflow::faults::backoff_secs(0);
        assert_eq!(recovery, Some(("recovery".to_string(), backoff)));
    }

    /// Live [`Staged`] records per stage: index 0 counts the chain's input,
    /// index `k` the output of its `k`-th transformer.
    static LIVE: [AtomicUsize; 7] = [const { AtomicUsize::new(0) }; 7];

    /// A record tagged with the stage that made it, counted while alive.
    struct Staged(usize);
    impl Staged {
        fn new(stage: usize) -> Self {
            LIVE[stage].fetch_add(1, Ordering::SeqCst);
            Staged(stage)
        }
    }
    impl Clone for Staged {
        fn clone(&self) -> Self {
            Staged::new(self.0)
        }
    }
    impl Drop for Staged {
        fn drop(&mut self) {
            LIVE[self.0].fetch_sub(1, Ordering::SeqCst);
        }
    }
    impl Record for Staged {
        fn approx_bytes(&self) -> usize {
            8
        }
    }

    /// Stage `k` of the chain: maps a stage `k - 1` record to a stage `k`
    /// one, first noting in `stale` every output older than its input that
    /// is still alive, and in `widest` the most outputs alive at once.
    struct Next {
        stage: usize,
        stale: Arc<AtomicUsize>,
        widest: Arc<AtomicUsize>,
    }
    impl Transformer<Staged, Staged> for Next {
        fn apply(&self, x: &Staged) -> Staged {
            assert_eq!(x.0 + 1, self.stage);
            let live = |stages: std::ops::Range<usize>| -> usize {
                stages.map(|k| LIVE[k].load(Ordering::SeqCst)).sum()
            };
            self.stale
                .fetch_max(live(1..self.stage - 1), Ordering::SeqCst);
            self.widest.fetch_max(live(1..LIVE.len()), Ordering::SeqCst);
            Staged::new(self.stage)
        }
    }

    /// An apply drops each output right after its last reader runs: in an
    /// unfused six-transformer chain, no output older than a stage's input
    /// is alive while the stage runs, so the walk's live outputs never
    /// exceed the widest adjacent pair.
    #[test]
    fn an_apply_frees_each_output_after_its_last_reader() {
        let stale = Arc::new(AtomicUsize::new(0));
        let widest = Arc::new(AtomicUsize::new(0));
        let mut pipe = Pipeline::<Staged, Staged>::input();
        for stage in 1..LIVE.len() {
            pipe = pipe.and_then(Next {
                stage,
                stale: stale.clone(),
                widest: widest.clone(),
            });
        }
        let (fitted, report) = pipe.fit(&ctx(), &PipelineOptions::none());
        assert_eq!(report.fused_nodes, 0);
        assert_eq!(fitted.plan().apply_path().len(), 6);
        let n = 8;
        let input = DistCollection::from_vec((0..n).map(|_| Staged::new(0)).collect(), 2);
        let out = fitted.apply(&input, &ctx());
        assert!(out.collect().iter().all(|r| r.0 == 6));
        assert_eq!(
            stale.load(Ordering::SeqCst),
            0,
            "an older output outlived its last reader"
        );
        let widest = widest.load(Ordering::SeqCst);
        assert!(
            (n..=2 * n).contains(&widest),
            "{widest} outputs alive at once"
        );
    }

    /// A logical `Scale` that counts its `options()` calls.
    struct CountedScale(Arc<AtomicUsize>);
    impl OptimizableTransformer<f64, f64> for CountedScale {
        fn options(&self) -> Vec<crate::operator::TransformerOption<f64, f64>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            vec![crate::operator::TransformerOption {
                name: "x3".into(),
                cost: Box::new(|_, _| CostProfile::compute(1.0)),
                op: Box::new(Scale),
            }]
        }
    }

    /// A logical `OffsetFit` that counts its `options()` calls.
    struct CountedOffset(Arc<AtomicUsize>);
    impl OptimizableLabelEstimator<f64, f64, f64> for CountedOffset {
        fn options(&self) -> Vec<crate::operator::LabelEstimatorOption<f64, f64, f64>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            vec![crate::operator::LabelEstimatorOption {
                name: "offset".into(),
                cost: Box::new(|_, _| CostProfile::compute(1.0)),
                op: Box::new(OffsetFit),
            }]
        }
    }

    /// A logical operator builds its physical options once, when the
    /// pipeline adds it: fits with and without operator selection, and the
    /// applies after them, reuse that one set.
    #[test]
    fn logical_operators_build_their_options_once() {
        let calls = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
        let counts = || calls.clone().map(|c| c.load(Ordering::SeqCst));
        let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2);
        let labels = DistCollection::from_vec(vec![11.0, 12.0, 13.0], 2);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then_optimizable(CountedScale(calls[0].clone()))
            .and_then_optimizable_label_est(CountedOffset(calls[1].clone()), &train, &labels);
        assert_eq!(counts(), [1, 1], "after construction");
        let ctx = ctx();
        let full = PipelineOptions {
            profile: small_profile(),
            ..PipelineOptions::full()
        };
        pipe.fit(&ctx, &full);
        let (fitted, _) = pipe.fit(&ctx, &PipelineOptions::none());
        for _ in 0..3 {
            // Offset 12 - mean(3, 6, 9) = 6 after scaling by 3.
            let out = fitted.apply(&DistCollection::from_vec(vec![5.0], 1), &ctx);
            assert_eq!(out.collect(), vec![21.0]);
        }
        assert_eq!(counts(), [1, 1], "after two fits and three applies");
    }

    #[test]
    fn cse_merges_duplicated_prefixes() {
        // Two estimators over the same data duplicate the Inc prefix; CSE
        // must merge the copies.
        let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then_est(MeanCenter, &train)
            .and_then_est(MeanCenter, &train);
        let ctx = ctx();
        let (_, report) = pipe.fit(
            &ctx,
            &PipelineOptions {
                profile: small_profile(),
                ..Default::default()
            },
        );
        assert!(
            report.eliminated_nodes >= 1,
            "expected CSE to merge duplicated prefix, eliminated = {}",
            report.eliminated_nodes
        );
    }

    #[test]
    fn gather_merges_branches() {
        struct ToVec(f64);
        impl Transformer<f64, Vec<f64>> for ToVec {
            fn apply(&self, x: &f64) -> Vec<f64> {
                vec![x * self.0]
            }
        }
        let input = Pipeline::<f64, f64>::input();
        let b1 = input.and_then(ToVec(1.0));
        let b2 = input.and_then(ToVec(10.0));
        let pipe = gather(&[b1, b2]);
        let ctx = ctx();
        let (fitted, _) = pipe.fit(
            &ctx,
            &PipelineOptions {
                profile: small_profile(),
                ..Default::default()
            },
        );
        let out = fitted.apply(&DistCollection::from_vec(vec![2.0], 1), &ctx);
        assert_eq!(out.collect(), vec![vec![2.0, 20.0]]);
    }

    #[test]
    fn opt_levels_produce_same_results() {
        let train = DistCollection::from_vec((0..32).map(|i| i as f64).collect::<Vec<_>>(), 4);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then_est(MeanCenter, &train);
        let test = DistCollection::from_vec(vec![1.0, 7.0], 1);
        let mut results = Vec::new();
        for opts in [
            PipelineOptions::none(),
            PipelineOptions {
                profile: small_profile(),
                ..PipelineOptions::pipe_only()
            },
            PipelineOptions {
                profile: small_profile(),
                ..PipelineOptions::full()
            },
        ] {
            let ctx = ctx();
            let (fitted, _) = pipe.fit(&ctx, &opts);
            results.push(fitted.apply(&test, &ctx).collect());
        }
        assert_eq!(results[0], results[1], "None vs PipeOnly diverged");
        assert_eq!(results[1], results[2], "PipeOnly vs Full diverged");
    }

    #[test]
    fn fusion_collapses_chains_and_preserves_results() {
        let train = DistCollection::from_vec((0..32).map(|i| i as f64).collect::<Vec<_>>(), 4);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then(Scale)
            .and_then(Inc)
            .and_then_est(MeanCenter, &train);
        let test = DistCollection::from_vec(vec![1.0, 7.0], 2);
        let base = PipelineOptions {
            profile: small_profile(),
            ..Default::default()
        };

        let ctx_off = ctx();
        let (fitted_off, report_off) = pipe.fit(&ctx_off, &base.clone().with_fusion(false));
        let ctx_on = ctx();
        let (fitted_on, report_on) = pipe.fit(&ctx_on, &base);

        assert_eq!(report_off.fused_nodes, 0);
        assert!(report_off.fused.is_empty());
        // The apply-side Inc -> Scale -> Inc chain always fuses (it is
        // unprofiled, so never picked for materialization).
        assert!(
            report_on
                .fused
                .iter()
                .any(|(_, members)| members.len() >= 3),
            "expected a 3-member fused chain, got {:?}",
            report_on.fused
        );
        assert!(report_on.fused_nodes >= 2);
        // Picks are chosen before fusion on the identical graph.
        assert_eq!(report_off.cache_set, report_on.cache_set);

        let off = fitted_off.apply(&test, &ctx_off).collect();
        let on = fitted_on.apply(&test, &ctx_on).collect();
        assert_eq!(off, on, "fusion changed pipeline semantics");
    }

    #[test]
    fn fusion_merge_events_are_deterministic_dag_order() {
        struct ToVec(f64);
        impl Transformer<f64, Vec<f64>> for ToVec {
            fn apply(&self, x: &f64) -> Vec<f64> {
                vec![x * self.0]
            }
        }
        struct VShift(f64);
        impl Transformer<Vec<f64>, Vec<f64>> for VShift {
            fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
                x.iter().map(|v| v + self.0).collect()
            }
        }
        let input = Pipeline::<f64, f64>::input();
        let b1 = input.and_then(ToVec(1.0)).and_then(VShift(0.5));
        let b2 = input.and_then(ToVec(10.0)).and_then(VShift(0.25));
        let pipe = gather(&[b1, b2]);
        let run = || {
            let ctx = ctx();
            let _ = pipe.fit(
                &ctx,
                &PipelineOptions {
                    profile: small_profile(),
                    ..Default::default()
                },
            );
            ctx.tracer
                .events()
                .into_iter()
                .filter_map(|e| match e.event {
                    crate::trace::TraceEvent::FusionMerge {
                        node,
                        label,
                        members,
                    } => Some((node, label, members)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        let second = run();
        assert_eq!(first.len(), 2, "each branch is one fused chain: {first:?}");
        assert!(
            first.windows(2).all(|w| w[0].0 < w[1].0),
            "FusionMerge events must arrive in ascending node order: {first:?}"
        );
        assert_eq!(first, second, "event stream must be deterministic");
        for (_, label, members) in &first {
            assert_eq!(members.len(), 2);
            assert_eq!(label, &format!("Fused[{}]", members.join("+")));
        }
    }

    /// Declares one pass over its input and makes three: the excess demand
    /// an `AdaptiveController` exists to notice.
    struct ThricePulled;
    impl Estimator<f64, f64> for ThricePulled {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            MeanCenter.fit(data, ctx)
        }

        fn fit_lazy(
            &self,
            data: &dyn Fn() -> DistCollection<f64>,
            ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            let _ = (data(), data());
            MeanCenter.fit(&data(), ctx)
        }
    }

    /// `fit` builds an `AdaptiveController` only for a fault-free fit that
    /// pins a greedy set. Under a fault plan, at `OptLevel::None` and under
    /// LRU the adaptive toggle is never read, so such a fit is the same fit
    /// whatever the toggle says — which is why the differential oracle has
    /// `+adapt` cells only for fault-free greedy configurations.
    #[test]
    fn adaptive_toggle_is_a_no_op_under_faults_none_and_lru() {
        use crate::optimizer::{AdaptationReport, CachingStrategy};
        use keystone_dataflow::faults::FaultSpec;

        let run = |faulted: bool, opts: PipelineOptions| {
            let train = DistCollection::from_vec((0..16).map(f64::from).collect(), 2);
            let pipe = Pipeline::<f64, f64>::input()
                .and_then(Inc)
                .and_then_est(ThricePulled, &train);
            let ctx = if faulted {
                ctx().with_faults(
                    FaultSpec::new(11)
                        .with_task_failures(0.3)
                        .with_cache_loss(0.3)
                        .into_plan(),
                )
            } else {
                ctx()
            };
            let opts = PipelineOptions {
                profile: small_profile(),
                ..opts
            };
            let (_, report) = pipe.fit(&ctx, &opts);
            let mut cache_set: Vec<NodeId> = report.cache_set.into_iter().collect();
            cache_set.sort_unstable();
            (
                events_without_wall(&ctx),
                ctx.sim.entries(),
                cache_set,
                report.adaptation,
            )
        };

        let greedy = PipelineOptions::pipe_only().with_budget(1 << 20);
        // Not vacuous: where the controller is built, this pipeline trips it.
        let (.., engaged) = run(false, greedy.clone().with_adaptive(true));
        assert!(engaged.recalibrations >= 1, "{engaged:?}");

        let lru = greedy.clone().with_caching(CachingStrategy::Lru {
            admission_fraction: 1.0,
        });
        for (case, faulted, opts) in [
            ("faults", true, greedy),
            ("none", false, PipelineOptions::none()),
            ("lru", false, lru),
        ] {
            let on = run(faulted, opts.clone().with_adaptive(true));
            let off = run(faulted, opts.with_adaptive(false));
            assert_eq!(on, off, "{case}: the adaptive toggle changed the fit");
            assert_eq!(on.3, AdaptationReport::default(), "{case}");
            assert_eq!(
                faulted,
                on.0.iter().any(|e| e.starts_with("TaskRetry")),
                "{case}: the fault plan must inject something"
            );
        }
    }

    /// Charges `solve:{name}` once per fit, as the solvers charge
    /// themselves, and fits a `MeanCenter`.
    struct SelfCharging(&'static str);
    impl Estimator<f64, f64> for SelfCharging {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            ctx.sim
                .charge_seconds(format!("solve:{}", self.0), 1.0, 0.0);
            MeanCenter.fit(data, ctx)
        }
    }

    /// Profiling's sample fit, one per estimator node, charges the
    /// `profile` lane, so outside it the ledger books one solve per
    /// estimator node too: here a self-charging estimator whose model feeds
    /// a second one.
    #[test]
    fn sample_fits_charge_the_profile_lane() {
        let train = DistCollection::from_vec((0..32).map(f64::from).collect(), 2);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then_est(SelfCharging("first"), &train)
            .and_then_est(SelfCharging("second"), &train);
        let ctx = ctx();
        let opts = PipelineOptions {
            profile: small_profile(),
            ..PipelineOptions::full()
        };
        pipe.fit(&ctx, &opts);
        let stages: Vec<String> = ctx
            .sim
            .entries()
            .iter()
            .map(|e| e.stage.to_string())
            .collect();
        for name in ["first", "second"] {
            let count = |stage: String| stages.iter().filter(|s| **s == stage).count();
            assert_eq!(count(format!("solve:{name}")), 1, "{stages:?}");
            assert_eq!(count(format!("profile:solve:{name}")), 1, "{stages:?}");
        }
    }

    #[test]
    fn fit_report_contains_dot() {
        let train = DistCollection::from_vec(vec![1.0, 2.0], 1);
        let pipe = Pipeline::<f64, f64>::input().and_then_est(MeanCenter, &train);
        let ctx = ctx();
        let (_, report) = pipe.fit(
            &ctx,
            &PipelineOptions {
                profile: small_profile(),
                ..Default::default()
            },
        );
        assert!(report.dot.contains("digraph"));
        assert!(report.dot.contains("MeanCenter"));
    }

    #[test]
    #[should_panic(expected = "same pipeline input")]
    fn gather_rejects_foreign_branches() {
        struct ToVec;
        impl Transformer<f64, Vec<f64>> for ToVec {
            fn apply(&self, x: &f64) -> Vec<f64> {
                vec![*x]
            }
        }
        let a = Pipeline::<f64, f64>::input().and_then(ToVec);
        let b = Pipeline::<f64, f64>::input().and_then(ToVec);
        let _ = gather(&[a, b]);
    }
}
