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

use crate::context::ExecContext;
use crate::executor::Executor;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::operator::{
    AnyData, ErasedTransformer, Estimator, GatherConcat, LabelEstimator, OptimizableEstimator,
    OptimizableLabelEstimator, OptimizableTransformer, Transformer, TypedEstimator,
    TypedLabelEstimator, TypedOptimizableEstimator, TypedOptimizableLabelEstimator,
    TypedOptimizableTransformer, TypedTransformer,
};
use crate::optimizer::{
    build_mat_problem, eliminate_common_subexpressions, fit_cache, fit_roots, fuse_for_fit,
    labels_of, AdaptiveController, OptLevel, PipelineOptions,
};
use crate::profiler::{profile_and_select, PipelineProfile, ProfileOptions};
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
        let label = t.name();
        let mut g = self.graph.lock();
        let id = g.add(
            NodeKind::Transform(Arc::new(TypedTransformer::new(t))),
            vec![self.output],
            label,
        );
        drop(g);
        self.derive(id)
    }

    /// Chains an optimizable transformer (multiple physical options).
    pub fn and_then_optimizable<C: Record>(
        &self,
        t: impl OptimizableTransformer<B, C>,
    ) -> Pipeline<A, C> {
        let label = t.name();
        let mut g = self.graph.lock();
        let id = g.add(
            NodeKind::Transform(Arc::new(TypedOptimizableTransformer::new(t))),
            vec![self.output],
            label,
        );
        drop(g);
        self.derive(id)
    }

    /// Chains an unsupervised estimator fit on `data` passed through the
    /// preceding prefix (`andThen (est, data)`).
    pub fn and_then_est<C: Record>(
        &self,
        est: impl Estimator<B, C>,
        data: &DistCollection<A>,
    ) -> Pipeline<A, C> {
        let label = est.name();
        let erased = Arc::new(TypedEstimator::new(est));
        self.append_estimator(erased, label, data, None)
    }

    /// Chains an optimizable unsupervised estimator.
    pub fn and_then_optimizable_est<C: Record>(
        &self,
        est: impl OptimizableEstimator<B, C>,
        data: &DistCollection<A>,
    ) -> Pipeline<A, C> {
        let label = est.name();
        let erased = Arc::new(TypedOptimizableEstimator::new(est));
        self.append_estimator(erased, label, data, None)
    }

    /// Chains a supervised estimator (`andThen (est, data, labels)`).
    pub fn and_then_label_est<L: Record, C: Record>(
        &self,
        est: impl LabelEstimator<B, L, C>,
        data: &DistCollection<A>,
        labels: &DistCollection<L>,
    ) -> Pipeline<A, C> {
        let label = est.name();
        let erased = Arc::new(TypedLabelEstimator::new(est));
        self.append_estimator(erased, label, data, Some(AnyData::wrap(labels.clone())))
    }

    /// Chains an optimizable supervised estimator.
    pub fn and_then_optimizable_label_est<L: Record, C: Record>(
        &self,
        est: impl OptimizableLabelEstimator<B, L, C>,
        data: &DistCollection<A>,
        labels: &DistCollection<L>,
    ) -> Pipeline<A, C> {
        let label = est.name();
        let erased = Arc::new(TypedOptimizableLabelEstimator::new(est));
        self.append_estimator(erased, label, data, Some(AnyData::wrap(labels.clone())))
    }

    fn append_estimator<C: Record>(
        &self,
        erased: Arc<dyn crate::operator::ErasedEstimator>,
        label: String,
        data: &DistCollection<A>,
        labels: Option<AnyData>,
    ) -> Pipeline<A, C> {
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
        let (event_mark, span_mark) = (ctx.tracer.len(), ctx.metrics.span_count());
        let t0 = Instant::now();

        // 1. Common sub-expression elimination.
        let (mut graph, output, eliminated) = if opts.level == OptLevel::None {
            (snapshot, self.output, 0)
        } else {
            let r = eliminate_common_subexpressions(&snapshot);
            let out = r.remap[&self.output];
            // Trace each merge: group old nodes by their canonical image.
            // Sorted by kept id so the event stream is deterministic.
            let mut group_sizes: HashMap<NodeId, usize> = HashMap::new();
            for &new in r.remap.values() {
                *group_sizes.entry(new).or_insert(0) += 1;
            }
            let mut merges: Vec<(NodeId, usize)> =
                group_sizes.into_iter().filter(|&(_, n)| n > 1).collect();
            merges.sort_unstable();
            for (kept, size) in merges {
                ctx.tracer.record(crate::trace::TraceEvent::CseMerge {
                    kept,
                    label: r.graph.nodes[kept].label.clone(),
                    duplicates: size - 1,
                });
            }
            (r.graph, out, r.eliminated)
        };

        let roots = fit_roots(&graph, output);

        // 2. Execution subsampling + (at Full) operator selection.
        let mut profile = if opts.level == OptLevel::None {
            PipelineProfile::default()
        } else {
            let popts = ProfileOptions {
                select_operators: opts.level == OptLevel::Full,
                ..opts.profile.clone()
            };
            profile_and_select(&mut graph, &roots, ctx, &popts)
        };

        // 3. Automatic materialization.
        let budget = opts.budget_on(ctx);
        let problem = opts
            .pins_greedy_set()
            .then(|| build_mat_problem(&graph, &profile, &roots));
        let (cache_set, picks) = problem
            .as_ref()
            .map(|p| p.greedy_cache_set_traced(budget))
            .unwrap_or_default();
        let cache = fit_cache(ctx, opts, budget, &cache_set, picks);
        // Adaptive re-optimization watches this fit's demand against the
        // problem's predictions. Fault-injected runs keep the static plan:
        // cache-loss probes fire per resident entry, so mid-fit membership
        // changes would perturb the injected draw sequence rather than just
        // the cost.
        let adaptive = problem
            .filter(|_| opts.adaptive_enabled() && ctx.faults.is_none())
            .map(|problem| {
                Arc::new(AdaptiveController::new(
                    problem,
                    cache_set.clone(),
                    budget,
                    ctx.resources.workers,
                    ctx.tracer.clone(),
                    ctx.sim.clone(),
                    opts.adaptive_hints.clone(),
                ))
            });
        let choices = profile.choice_labels(&graph);

        // 3b. Whole-stage fusion.
        let fusion = fuse_for_fit(&mut graph, &mut profile, &[output], &cache_set, ctx, opts);
        let optimize_secs = t0.elapsed().as_secs_f64();

        // 4. Fit every estimator feeding the output.
        let profiles = Arc::new(profile.nodes.clone());
        let mut executor =
            Executor::new(&graph, ctx.clone(), Arc::new(cache)).with_profiles(profiles.clone());
        if let Some(ad) = &adaptive {
            executor = executor.with_adaptive(ad.clone());
        }
        for &est in &roots {
            let _ = executor.eval(est);
        }
        let models = executor.models();
        let adaptation = adaptive.map(|ad| ad.report()).unwrap_or_default();

        let observability = crate::report::PipelineReport::build_since(
            &graph,
            &profile,
            &ctx.tracer,
            Some(&ctx.metrics),
            event_mark,
            span_mark,
        );
        let report = FitReport {
            optimize_secs,
            eliminated_nodes: eliminated,
            choices,
            fused: fusion.fused,
            fused_nodes: fusion.fused_nodes,
            columnar_chains: fusion.columnar_chains,
            cache_set_labels: labels_of(&graph, &cache_set),
            cache_set: cache_set.clone(),
            adaptation,
            dot: graph.to_dot(&cache_set),
            profile,
            observability,
        };
        let fitted = FittedPipeline {
            plan: Arc::new(ExecutablePlan::new(
                Arc::new(graph),
                output,
                models,
                profiles,
            )),
            _ph: PhantomData,
        };
        (fitted, report)
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
    let mut g = first.graph.lock();
    let id = g.add(
        NodeKind::Transform(Arc::new(GatherConcat)),
        inputs,
        "Gather",
    );
    drop(g);
    Pipeline {
        graph: first.graph.clone(),
        input: first.input,
        output: id,
        _ph: PhantomData,
    }
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
/// fitted models, and the per-node profiles — everything needed to run the
/// apply path, with the input typing stripped off.
///
/// Both [`FittedPipeline::apply`] and the serving layer (`keystone-serve`)
/// execute through this one object, so batch apply and micro-batched
/// serving cannot diverge: a serving wave *is* an [`ExecutablePlan::
/// execute_erased`] call over the wave's records.
pub struct ExecutablePlan {
    graph: Arc<Graph>,
    output: NodeId,
    models: HashMap<NodeId, Arc<dyn ErasedTransformer>>,
    profiles: Arc<HashMap<NodeId, crate::profiler::NodeProfile>>,
    /// The output's ancestry that the runtime input feeds, in topological
    /// order (see [`ExecutablePlan::apply_path`]).
    apply_path: Vec<NodeId>,
    /// The rest of the output's ancestry that produces data by running an
    /// operator (see [`ExecutablePlan::reusable_nodes`]).
    reusable: Vec<NodeId>,
}

impl ExecutablePlan {
    /// Assembles a plan from its parts. `Pipeline::fit` is the normal
    /// producer; this constructor exists for serving/test harnesses that
    /// build the optimized graph directly (e.g. to exercise cross-request
    /// cache reuse on hand-crafted DAGs).
    pub fn new(
        graph: Arc<Graph>,
        output: NodeId,
        models: HashMap<NodeId, Arc<dyn ErasedTransformer>>,
        profiles: Arc<HashMap<NodeId, crate::profiler::NodeProfile>>,
    ) -> Self {
        let tainted = graph
            .runtime_input()
            .map(|ri| graph.dependents(ri))
            .unwrap_or_default();
        let (apply_path, rest): (Vec<NodeId>, Vec<NodeId>) = graph
            .topo_ancestors(&[output])
            .into_iter()
            .partition(|id| tainted.contains(id));
        let reusable = rest
            .into_iter()
            .filter(|&id| runs_operator(&graph.nodes[id].kind))
            .collect();
        ExecutablePlan {
            graph,
            output,
            models,
            profiles,
            apply_path,
            reusable,
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

    /// Runs the apply path over an erased input with a fresh, nothing-
    /// admitted cache — the classic single-shot `apply`.
    pub fn execute_erased(&self, input: AnyData, ctx: &ExecContext) -> AnyData {
        let cache = Arc::new(
            CacheManager::new(0, CachePolicy::Pinned(HashSet::new())).with_observer(Arc::new(
                crate::trace::TraceCacheObserver(ctx.tracer.clone()),
            )),
        );
        self.execute_erased_with_cache(input, ctx, cache)
    }

    /// Runs the apply path against a caller-supplied cache. The serving
    /// layer passes one long-lived [`CacheManager`] across waves so
    /// request-independent intermediates (see
    /// [`ExecutablePlan::reusable_nodes`]) are computed once per process,
    /// not once per batch.
    pub fn execute_erased_with_cache(
        &self,
        input: AnyData,
        ctx: &ExecContext,
        cache: Arc<CacheManager>,
    ) -> AnyData {
        let executor = Executor::new(&self.graph, ctx.clone(), cache)
            .with_runtime_input(input)
            .with_models(self.models.clone())
            .with_profiles(self.profiles.clone());
        executor.eval(self.output).data().clone()
    }

    /// Data-producing nodes on the output's ancestry whose value does *not*
    /// depend on the runtime input — safe to cache across apply calls with
    /// different inputs. Estimator models are memoized separately and data
    /// sources are already resident, so only `Transform` and `ModelApply`
    /// nodes qualify.
    pub fn reusable_nodes(&self) -> HashSet<NodeId> {
        self.reusable.iter().copied().collect()
    }

    /// Apply-path nodes: the output's ancestry restricted to what the
    /// runtime input feeds, in topological order. This is exactly the work
    /// one `execute_erased` call performs per wave (request-independent
    /// ancestry is either a memoized model or served by the cross-run
    /// cache after the first wave).
    pub fn apply_path(&self) -> Vec<NodeId> {
        self.apply_path.clone()
    }

    /// Deterministic estimate of one apply wave's simulated seconds over
    /// `records` input records on `workers` workers. Profiled nodes use
    /// their extrapolated cost; apply-path nodes the profiler skipped (they
    /// hang off the runtime input) are priced on the same synthetic
    /// per-label scale that `deterministic_timing` profiling uses — with
    /// fused chains on the columnar path charged at the columnar discount —
    /// so the estimate — and everything the serving layer derives from it —
    /// is a pure function of the plan, the record count, and the worker
    /// count.
    pub fn est_apply_secs(&self, records: usize, workers: usize) -> f64 {
        let w = workers.max(1) as f64;
        self.apply_path
            .iter()
            .filter(|&&id| runs_operator(&self.graph.nodes[id].kind))
            .map(|&id| {
                let n = &self.graph.nodes[id];
                match self.profiles.get(&id) {
                    Some(p) => p.est_secs(records),
                    None => crate::profiler::synthetic_node_secs(n, records),
                }
            })
            .sum::<f64>()
            / w
    }
}

/// Whether a node produces data by running an operator — the nodes worth
/// caching across waves and the ones an apply wave is charged for.
fn runs_operator(kind: &NodeKind) -> bool {
    matches!(kind, NodeKind::Transform(_) | NodeKind::ModelApply)
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

    /// Applies the fitted pipeline to new data.
    pub fn apply(&self, data: &DistCollection<A>, ctx: &ExecContext) -> DistCollection<B> {
        self.plan
            .execute_erased(AnyData::wrap(data.clone()), ctx)
            .downcast()
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
    use keystone_dataflow::cluster::ClusterProfile;

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
            // Failures and cache losses only, and a speculation floor no
            // task reaches: recovery then charges nothing measured.
            let ctx = if faulted {
                ctx().with_faults(
                    FaultSpec::new(11)
                        .with_task_failures(0.3)
                        .with_cache_loss(0.3)
                        .with_straggler_min_delay_us(u64::MAX)
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
