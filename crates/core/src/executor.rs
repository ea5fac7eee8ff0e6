//! Depth-first, cache-aware DAG execution (§2.3 "runtime").
//!
//! A fit evaluates nodes on demand through [`Executor::eval`]. There is
//! **no implicit memoization of data nodes**: a node requested twice
//! (fan-out, or an iterative estimator re-reading its input) is recomputed
//! unless the [`CacheManager`] holds it — exactly the Spark behaviour the
//! automatic materialization optimizer (§4.3) manages. Fitted models *are*
//! memoized per run: an estimator fits once.
//!
//! An apply is a walk of the `Program` a plan lowered once: steps in
//! topological order, each reading its inputs from numbered slots or from
//! fitted models, and dropping every slot it is the last reader of as soon
//! as it returns. A walk never calls `eval`, and reads the cache only for
//! the request-independent values of hand-built plans. Fit and walk compute
//! a node the same way, inside one instrumented bracket that records one
//! `NodeEnd` event per node run.
//!
//! ## Fault tolerance
//!
//! The executor provides the recovery guarantees the paper inherits from
//! Spark's RDD lineage, under the context's [`FaultPlan`] when it has one
//! (an `ExecutablePlan`'s apply walk drops it):
//!
//! * **Task retry** — a partition attempt that panics, or that the
//!   fault plan fails, is re-run by the collection layer; the span records
//!   how many attempts failed. The executor charges each retry's
//!   exponential backoff to the simulated clock (under a `recovery:` stage)
//!   and emits a [`TraceEvent::TaskRetry`](crate::trace::TraceEvent) per
//!   failed attempt. A task that fails past the retry limit fails the job
//!   with its own panic.
//! * **Lineage recompute** — a cache entry that is lost (or holds a foreign
//!   value) is invalidated and the node recomputed from its DAG ancestry
//!   instead of panicking; losses surface as `CacheLost` events.
//!
//! Recovery is *accounted* centrally on the driving thread after the node's
//! own work completes, in deterministic span order, so two runs with the
//! same fault seed produce identical event streams.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use keystone_dataflow::cache::CacheManager;
use keystone_dataflow::faults::{backoff_secs, FaultPlan};
use keystone_dataflow::metrics::{enter_task_scope, TaskScope};

use crate::context::ExecContext;
use crate::graph::{Graph, Node, NodeId, NodeKind};
use crate::operator::{AnyData, ErasedTransformer, InputHandle, NodeOutput};
use crate::profiler::NodeProfile;
use crate::trace::TraceEvent;
use parking_lot::Mutex;

/// DAG evaluator over a frozen graph.
///
/// [`Executor::eval`] drives a fit and `Executor::apply` walks a lowered
/// program; both compute every node the same way, under the context's
/// fault plan unless the executor drops it. A fit's run-local memo holds
/// the models it fitted; data
/// outputs are kept only by the cache, or by a walk's slots until their
/// last reader has run. The executor writes to the context's three
/// ledgers — `sim`, `tracer`, `metrics` — from one place, the private
/// `run_node` bracket every operator kind executes in.
///
/// Cache keys are bare node ids, so every executor sharing one cache must
/// run the *same* graph — two plans with different node numbering would
/// collide keys and serve each other's outputs. The multi-tenant forest
/// path satisfies this by construction (all tenants execute one merged
/// graph).
pub struct Executor<'g> {
    graph: &'g Graph,
    ctx: Cow<'g, ExecContext>,
    /// The fault plan node runs execute under.
    faults: Option<FaultPlan>,
    cache: Arc<CacheManager>,
    /// Per-node profiles used to charge the simulated clock.
    profiles: Option<Arc<HashMap<NodeId, NodeProfile>>>,
    /// Mid-fit adaptive re-planner: notified of every node request so it
    /// can compare observed demand against the plan's prediction and apply
    /// cost-only cache revisions (see [`crate::optimizer::adaptive`]).
    adaptive: Option<Arc<crate::optimizer::AdaptiveController>>,
    /// Models this fit has fitted.
    models: Mutex<HashMap<NodeId, Arc<dyn ErasedTransformer>>>,
    /// Every node's bracket label, built on a fit's first node run.
    labels: OnceLock<Vec<Arc<str>>>,
}

/// A node's stage label in all three ledgers.
fn bracket_label(n: &Node) -> Arc<str> {
    match &n.kind {
        NodeKind::Transform(_) => format!("transform:{}", n.label).into(),
        NodeKind::Estimate(_) => format!("fit:{}", n.label).into(),
        NodeKind::ModelApply => format!("apply:{}", n.label).into(),
        NodeKind::RuntimeInput | NodeKind::DataSource(_) => Arc::from(""),
    }
}

/// Reads the `k`-th input of the node being computed: through
/// [`Executor::eval`] in a fit, from the walk's slots and models in an apply.
type Resolve<'r> = &'r (dyn Fn(usize) -> NodeOutput + Sync);

/// A plan lowered once for `Executor::apply`. Slot 0 holds the runtime
/// input and step `i` runs `nodes[i]` into slot `i + 1`. The first
/// `constants` steps are request-independent, which only hand-built plans
/// have; the rest are the apply path.
pub(crate) struct Program {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) constants: usize,
    /// The constant slots the path reads, with their cache keys; no step
    /// frees them.
    pub(crate) pinned: Vec<(usize, u64)>,
    output: usize,
    inputs: Vec<Vec<Operand>>,
    /// Per step, its node's bracket label.
    labels: Vec<Arc<str>>,
    /// Per step, the slots whose last reader it is.
    frees: Vec<Vec<usize>>,
}

/// A step input, resolved at lowering.
enum Operand {
    Slot(usize),
    Model(Arc<dyn ErasedTransformer>),
}

impl Program {
    /// Lowers what `output` needs beyond the fitted `models`, constants
    /// first, each part in topological order (node ids are).
    pub(crate) fn lower(
        graph: &Graph,
        output: NodeId,
        models: &HashMap<NodeId, Arc<dyn ErasedTransformer>>,
    ) -> Program {
        let input = graph.runtime_input().expect("a plan has a runtime input");
        let mut needed = HashSet::from([output]);
        for id in (0..=output).rev() {
            if needed.contains(&id) && !models.contains_key(&id) {
                needed.extend(&graph.nodes[id].inputs);
            }
        }
        let tainted = graph.dependents(input);
        let (path, mut nodes): (Vec<NodeId>, Vec<NodeId>) = (0..=output)
            .filter(|id| needed.contains(id) && !models.contains_key(id) && *id != input)
            .partition(|id| tainted.contains(id));
        let constants = nodes.len();
        nodes.extend(path);
        let slot: HashMap<NodeId, usize> = [input].iter().chain(&nodes).copied().zip(0..).collect();
        let operand = |i: &NodeId| match slot.get(i) {
            Some(&s) => Operand::Slot(s),
            None => Operand::Model(models[i].clone()),
        };
        let inputs: Vec<Vec<Operand>> = nodes
            .iter()
            .map(|&id| graph.nodes[id].inputs.iter().map(&operand).collect())
            .collect();
        // Walking back from the output, a slot's first reader is its last,
        // except that a constant the path reads stays for the cache.
        let output = slot[&output];
        let constant = |s: usize| (1..=constants).contains(&s);
        let mut pinned: Vec<usize> = [output].into_iter().filter(|&s| constant(s)).collect();
        let mut seen = HashSet::from([output]);
        let mut frees = vec![Vec::new(); nodes.len()];
        for (i, operands) in inputs.iter().enumerate().rev() {
            for operand in operands {
                match *operand {
                    Operand::Slot(s) if !seen.insert(s) => {}
                    Operand::Slot(s) if i >= constants && constant(s) => pinned.push(s),
                    Operand::Slot(s) => frees[i].push(s),
                    Operand::Model(_) => {}
                }
            }
        }
        let pinned = pinned.into_iter().map(|s| (s, nodes[s - 1] as u64));
        Program {
            pinned: pinned.collect(),
            labels: nodes
                .iter()
                .map(|&id| bracket_label(&graph.nodes[id]))
                .collect(),
            nodes,
            constants,
            output,
            inputs,
            frees,
        }
    }
}

/// When a node's execution is billed to the simulated clock.
enum SimCharge<'a> {
    /// Unconditionally (transforms and model applications).
    Always,
    /// Only if the work charged nothing itself, i.e. every clock entry the
    /// work charged came from an input pull, which the node's
    /// [`NodeHandle`]s count here. Solvers charge themselves; other
    /// estimators fall back to the profiled estimate whether or not their
    /// inputs were cache hits.
    UnlessSelfCharged(&'a AtomicUsize),
}

impl<'g> Executor<'g> {
    /// Creates an executor over `graph` with no fitted models yet, under a
    /// borrowed or owned `ctx`.
    pub fn new(
        graph: &'g Graph,
        ctx: impl Into<Cow<'g, ExecContext>>,
        cache: Arc<CacheManager>,
    ) -> Self {
        let ctx = ctx.into();
        Executor {
            graph,
            faults: ctx.faults.clone(),
            ctx,
            cache,
            profiles: None,
            adaptive: None,
            models: Mutex::new(HashMap::new()),
            labels: OnceLock::new(),
        }
    }

    /// Drops the fault plan: node runs execute fault-free.
    pub(crate) fn fault_free(mut self) -> Self {
        self.faults = None;
        self
    }

    /// Supplies per-node profiles so execution charges the simulated clock.
    pub fn with_profiles(mut self, profiles: Arc<HashMap<NodeId, NodeProfile>>) -> Self {
        self.profiles = Some(profiles);
        self
    }

    /// Attaches the adaptive mid-fit re-planner.
    pub fn with_adaptive(mut self, controller: Arc<crate::optimizer::AdaptiveController>) -> Self {
        self.adaptive = Some(controller);
        self
    }

    /// The execution context.
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// Snapshot of the models this fit has fitted.
    pub fn models(&self) -> HashMap<NodeId, Arc<dyn ErasedTransformer>> {
        self.models.lock().clone()
    }

    /// Evaluates `node`, recursively materializing dependencies.
    pub fn eval(&self, node: NodeId) -> NodeOutput {
        if let Some(m) = self.models.lock().get(&node) {
            return NodeOutput::Model(m.clone());
        }
        // Adaptive hook: count this request and let the re-planner revise
        // the cache membership at the wave boundary.
        if let Some(ad) = &self.adaptive {
            let fitted = |n: NodeId| self.models.lock().contains_key(&n);
            ad.on_request(node, fitted, &self.cache);
        }
        // Policy-driven cache for data nodes. A resident entry can still be
        // *lost* (simulated executor failure) or hold a foreign value; both
        // cases invalidate and fall through to lineage recompute — a cached
        // output is an optimization, never a correctness requirement.
        if let Some(v) = self.cache.get(node as u64) {
            let lost = self
                .faults
                .as_ref()
                .is_some_and(|f| f.cache_entry_lost(node as u64));
            match v.downcast_ref::<AnyData>() {
                Some(data) if !lost => return NodeOutput::Data(data.clone()),
                _ => {
                    self.cache.invalidate(node as u64);
                }
            }
        }

        let inputs = &self.graph.nodes[node].inputs;
        let labels = self
            .labels
            .get_or_init(|| self.graph.nodes.iter().map(bracket_label).collect());
        let out = self.compute(node, &labels[node], &|k| self.eval(inputs[k]));
        match &out {
            NodeOutput::Data(d) => {
                self.cache
                    .put(node as u64, Arc::new(d.clone()), d.total_bytes().max(1));
            }
            NodeOutput::Model(m) => {
                self.models.lock().insert(node, m.clone());
            }
        }
        out
    }

    /// Walks `program` once over `input` and returns its output. Each step
    /// runs once, reads its inputs from earlier slots or from the models
    /// lowering resolved, and drops every slot it is the last reader of as
    /// soon as it returns. The constants the path reads come from the
    /// cache; a walk that misses one runs the constant steps too and leaves
    /// what the path reads in the cache.
    pub(crate) fn apply(&self, program: &Program, input: AnyData) -> AnyData {
        let mut slots = vec![None; program.nodes.len() + 1];
        slots[0] = Some(NodeOutput::Data(input));
        let warm = program.pinned.iter().all(|&(s, key)| {
            slots[s] = self.cache.get(key).and_then(|v| v.downcast_ref().cloned());
            slots[s].is_some()
        });
        for i in if warm { program.constants } else { 0 }..program.nodes.len() {
            let resolve = |k: usize| match &program.inputs[i][k] {
                Operand::Slot(s) => slots[*s].clone().expect("read before its last reader"),
                Operand::Model(model) => NodeOutput::Model(model.clone()),
            };
            let out = self.compute(program.nodes[i], &program.labels[i], &resolve);
            slots[i + 1] = Some(out);
            for &s in &program.frees[i] {
                slots[s] = None;
            }
        }
        for &(s, key) in program.pinned.iter().filter(|_| !warm) {
            let value: NodeOutput = slots[s].clone().expect("pinned slots are never freed");
            let bytes = value.approx_bytes();
            self.cache.put(key, Arc::new(value), bytes);
        }
        let output = slots[program.output].take().expect("the output stays");
        output.data().clone()
    }

    /// Computes a node unconditionally under its bracket `label`, reading
    /// its `k`-th input via `input(k)`.
    fn compute(&self, node: NodeId, label: &Arc<str>, input: Resolve<'_>) -> NodeOutput {
        let n = &self.graph.nodes[node];
        match &n.kind {
            NodeKind::RuntimeInput => panic!("the runtime input is bound only by a walk"),
            NodeKind::DataSource(data) => NodeOutput::Data(data.clone()),
            NodeKind::Transform(op) => {
                let inputs: Vec<AnyData> = (0..n.inputs.len())
                    .map(|k| input(k).data().clone())
                    .collect();
                let in_count = inputs.first().map_or(0, |d| d.stats().count);
                self.run_node(node, label, in_count, SimCharge::Always, || {
                    NodeOutput::Data(op.apply_any(&inputs, &self.ctx))
                })
            }
            NodeKind::Estimate(op) => {
                let pulled = AtomicUsize::new(0);
                let handles: Vec<NodeHandle<'_>> = (0..n.inputs.len())
                    .map(|index| NodeHandle {
                        ctx: &self.ctx,
                        input,
                        index,
                        pulled: &pulled,
                    })
                    .collect();
                let handle_refs: Vec<&dyn InputHandle> =
                    handles.iter().map(|h| h as &dyn InputHandle).collect();
                // The record count comes from the profile's full-scale hint.
                let records = self
                    .profiles
                    .as_ref()
                    .and_then(|p| p.get(&node))
                    .map_or(0, |p| p.records_hint);
                // Estimators re-enter the executor through lazy handles;
                // inner nodes push their own (innermost-wins) scope, so only
                // the fit's own collection work is attributed here. Inner
                // nodes likewise run their own recovery accounting.
                let charge = SimCharge::UnlessSelfCharged(&pulled);
                self.run_node(node, label, records, charge, || {
                    NodeOutput::Model(op.fit_any(&handle_refs, &self.ctx))
                })
            }
            NodeKind::ModelApply => {
                let model = input(0).model().clone();
                let data = input(1).data().clone();
                let in_count = data.stats().count;
                self.run_node(node, label, in_count, SimCharge::Always, || {
                    NodeOutput::Data(model.apply_any(&[data], &self.ctx))
                })
            }
        }
    }

    /// Runs one node's `work` inside the instrumentation bracket every
    /// operator kind shares: the work under a fault-aware task scope (every
    /// `DistCollection` operation inside it emits per-partition spans
    /// attributed to this node), the simulated-clock charge, the node's one
    /// `NodeEnd` event carrying wall seconds and the simulated seconds this
    /// thread charged meanwhile, then retry accounting when a span the
    /// scope recorded retried.
    fn run_node(
        &self,
        node: NodeId,
        label: &Arc<str>,
        records: usize,
        charge: SimCharge<'_>,
        work: impl FnOnce() -> NodeOutput,
    ) -> NodeOutput {
        let scope = TaskScope::new(
            &self.ctx.metrics,
            label.clone(),
            Some(node as u64),
            self.ctx.resources.workers,
        )
        .with_faults(self.faults.clone());
        let ((out, wall_secs), sim) = self.ctx.sim.tally(|| {
            let start = std::time::Instant::now();
            let (out, work) = self.ctx.sim.tally(|| enter_task_scope(scope.clone(), work));
            let wall_secs = start.elapsed().as_secs_f64();
            let charged = match charge {
                SimCharge::Always => true,
                SimCharge::UnlessSelfCharged(pulled) => {
                    work.entries == pulled.load(Ordering::Relaxed)
                }
            };
            if charged {
                self.charge_sim(node, label, records);
            }
            (out, wall_secs)
        });
        let out_bytes = match &out {
            NodeOutput::Data(d) => d.total_bytes(),
            NodeOutput::Model(_) => 0,
        };
        let tracer = &self.ctx.tracer;
        tracer.node_end(node, label.clone(), records, out_bytes, wall_secs, sim.secs);
        let retried = scope.retried();
        if !retried.is_empty() {
            self.account_retries(node, label, &retried);
        }
        out
    }

    /// Charges the simulated clock: marginal profiled cost × records, spread
    /// over the cluster's workers. Unprofiled nodes (apply path, model-apply
    /// stages the profiler never sees) are priced on the synthetic per-label
    /// scale `deterministic_timing` profiling uses, so every sim charge is a
    /// pure function of the plan and the record count — the simulated
    /// ledger never absorbs measured wall time, and a serving wave's
    /// `execute_secs` is exactly what its nodes charge here.
    fn charge_sim(&self, node: NodeId, label: &Arc<str>, records: usize) {
        let Some(profiles) = &self.profiles else {
            return;
        };
        let w = self.ctx.resources.workers.max(1) as f64;
        let total = match profiles.get(&node) {
            Some(p) => p.fixed_secs + p.secs_per_record * records as f64,
            None => crate::profiler::synthetic_node_secs(&self.graph.nodes[node], records),
        };
        self.ctx.sim.charge_seconds(label.clone(), total / w, 0.0);
    }

    /// Accounts for the retries a node's execution absorbed, given the
    /// `(partition, retries)` of each span its task scope recorded that
    /// retried: each failed attempt is charged its exponential backoff
    /// under a `recovery:` sim stage and emitted as a
    /// [`TraceEvent::TaskRetry`]. Runs on the driving thread after the
    /// node's own work (and its `NodeEnd` event), so the charges land in
    /// deterministic span order and never perturb the node's own
    /// `sim_secs`.
    fn account_retries(&self, node: NodeId, label: &str, retried: &[(usize, u32)]) {
        let mut backoff_total = 0.0;
        for &(partition, retries) in retried {
            for attempt in 0..retries {
                backoff_total += backoff_secs(attempt);
                self.ctx.tracer.record(TraceEvent::TaskRetry {
                    node,
                    partition,
                    attempt,
                    backoff_secs: backoff_secs(attempt),
                });
            }
        }
        if backoff_total > 0.0 {
            self.ctx
                .sim
                .charge_seconds(format!("recovery:{label}"), backoff_total, 0.0);
        }
    }
}

/// Lazy estimator input bound to one of the estimator's inputs: each `get`
/// resolves it again, so in a fit an uncached upstream chain is genuinely
/// recomputed per pass.
struct NodeHandle<'a> {
    ctx: &'a ExecContext,
    input: Resolve<'a>,
    index: usize,
    /// Simulated-clock entries charged during pulls, shared by all of one
    /// estimator's handles. A statistic read on the driving thread after the
    /// fit returns; it publishes no other data, hence `Relaxed`.
    pulled: &'a AtomicUsize,
}

impl InputHandle for NodeHandle<'_> {
    fn get(&self) -> AnyData {
        let (data, pull) = self
            .ctx
            .sim
            .tally(|| (self.input)(self.index).data().clone());
        self.pulled.fetch_add(pull.entries, Ordering::Relaxed);
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Estimator, Transformer, TypedEstimator, TypedTransformer};
    use keystone_dataflow::cache::CachePolicy;
    use keystone_dataflow::collection::DistCollection;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingDouble(Arc<AtomicU64>);
    impl Transformer<f64, f64> for CountingDouble {
        fn apply(&self, x: &f64) -> f64 {
            x * 2.0
        }
        fn apply_collection(
            &self,
            input: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> DistCollection<f64> {
            self.0.fetch_add(1, Ordering::SeqCst);
            input.map(|x| x * 2.0)
        }
    }

    /// `records` as erased data in two partitions.
    fn wrap(records: Vec<f64>) -> AnyData {
        AnyData::wrap(DistCollection::from_vec(records, 2))
    }

    fn no_cache() -> Arc<CacheManager> {
        Arc::new(CacheManager::new(0, CachePolicy::Pinned(HashSet::new())))
    }

    fn big_cache() -> Arc<CacheManager> {
        Arc::new(CacheManager::new(
            u64::MAX,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        ))
    }

    /// How many times `node` was actually computed (not served from
    /// cache/memo) — the measured counterpart of the paper's `C(v)`.
    fn execs(exec: &Executor<'_>, node: NodeId) -> u64 {
        exec.ctx()
            .tracer
            .node_actuals()
            .get(&node)
            .map_or(0, |a| a.execs)
    }

    fn chain_graph(calls: Arc<AtomicU64>) -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let src = g.add(
            NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(
                vec![1.0, 2.0, 3.0],
                2,
            ))),
            vec![],
            "src",
        );
        let t = g.add(
            NodeKind::Transform(Arc::new(TypedTransformer::new(CountingDouble(calls)))),
            vec![src],
            "double",
        );
        (g, src, t)
    }

    #[test]
    fn eval_transform_chain() {
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls.clone());
        let exec = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        let out = exec.eval(t);
        let v: DistCollection<f64> = out.data().downcast();
        assert_eq!(v.collect(), vec![2.0, 4.0, 6.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn uncached_fanout_recomputes() {
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls.clone());
        let exec = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        let _ = exec.eval(t);
        let _ = exec.eval(t);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "no-cache must recompute");
        assert_eq!(execs(&exec, t), 2);
    }

    #[test]
    fn cached_fanout_reuses() {
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls.clone());
        let exec = Executor::new(&g, ExecContext::default_cluster(), big_cache());
        let _ = exec.eval(t);
        let _ = exec.eval(t);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "cache must serve reuse");
        assert_eq!(execs(&exec, t), 1);
    }

    /// A walk runs each path node once, even when two path nodes read it,
    /// and touches no cache.
    #[test]
    fn apply_walk_runs_each_path_node_once() {
        /// Doubles into a one-element vector, counting collection passes.
        struct CountingLift(Arc<AtomicU64>);
        impl Transformer<f64, Vec<f64>> for CountingLift {
            fn apply(&self, x: &f64) -> Vec<f64> {
                vec![x * 2.0]
            }
            fn apply_collection(
                &self,
                input: &DistCollection<f64>,
                _ctx: &ExecContext,
            ) -> DistCollection<Vec<f64>> {
                self.0.fetch_add(1, Ordering::SeqCst);
                input.map(|x| vec![x * 2.0])
            }
        }
        let calls = Arc::new(AtomicU64::new(0));
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let t = g.add(
            NodeKind::Transform(Arc::new(TypedTransformer::new(CountingLift(calls.clone())))),
            vec![input],
            "lift",
        );
        let both = g.add(
            NodeKind::Transform(Arc::new(crate::operator::GatherConcat)),
            vec![t, t],
            "gather",
        );
        let cache = big_cache();
        let exec = Executor::new(&g, ExecContext::default_cluster(), cache.clone());
        let program = Program::lower(&g, both, &HashMap::new());
        let out: DistCollection<Vec<f64>> = exec.apply(&program, wrap(vec![1.0, 2.0])).downcast();
        assert_eq!(out.collect(), vec![vec![2.0, 2.0], vec![4.0, 4.0]]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats(), Default::default());
    }

    /// An estimator that reads its input `weight` times through the lazy
    /// handle, like the distributed solvers do.
    struct MultiPass {
        passes: u32,
    }
    impl Estimator<f64, f64> for MultiPass {
        fn fit(
            &self,
            _data: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            unreachable!("fit_lazy overridden")
        }
        fn fit_lazy(
            &self,
            data: &dyn Fn() -> DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            let mut total = 0.0;
            for _ in 0..self.passes {
                total += data().aggregate(0.0, |a, x| a + x, |a, b| a + b);
            }
            struct Add(f64);
            impl Transformer<f64, f64> for Add {
                fn apply(&self, x: &f64) -> f64 {
                    x + self.0
                }
            }
            Box::new(Add(total / self.passes as f64))
        }
        fn weight(&self) -> u32 {
            self.passes
        }
    }

    fn estimator_graph(calls: Arc<AtomicU64>, passes: u32) -> (Graph, NodeId) {
        let mut g = Graph::new();
        let src = g.add(
            NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(
                vec![1.0, 2.0, 3.0],
                2,
            ))),
            vec![],
            "src",
        );
        let t = g.add(
            NodeKind::Transform(Arc::new(TypedTransformer::new(CountingDouble(calls)))),
            vec![src],
            "double",
        );
        let e = g.add(
            NodeKind::Estimate(Arc::new(TypedEstimator::new(MultiPass { passes }))),
            vec![t],
            "multipass",
        );
        (g, e)
    }

    #[test]
    fn iterative_estimator_recomputes_uncached_input_per_pass() {
        let calls = Arc::new(AtomicU64::new(0));
        let (g, e) = estimator_graph(calls.clone(), 4);
        let exec = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        let _ = exec.eval(e);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            4,
            "uncached input must be recomputed once per pass"
        );
    }

    #[test]
    fn iterative_estimator_hits_cache_when_materialized() {
        let calls = Arc::new(AtomicU64::new(0));
        let (g, e) = estimator_graph(calls.clone(), 4);
        let exec = Executor::new(&g, ExecContext::default_cluster(), big_cache());
        let _ = exec.eval(e);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "materialized input must be computed once"
        );
    }

    /// Stage labels and seconds of the ledger entries under `prefix`.
    fn sim_entries(ctx: &ExecContext, prefix: &str) -> Vec<(String, f64)> {
        ctx.sim
            .entries()
            .into_iter()
            .filter(|e| e.stage.starts_with(prefix))
            .map(|e| (e.stage.to_string(), e.exec_secs))
            .collect()
    }

    #[test]
    fn estimator_fit_charge_does_not_depend_on_input_caching() {
        let fit_entries = |cache: Arc<CacheManager>| {
            let (g, e) = estimator_graph(Arc::new(AtomicU64::new(0)), 3);
            let ctx = ExecContext::default_cluster();
            let exec =
                Executor::new(&g, ctx.clone(), cache).with_profiles(Arc::new(HashMap::new()));
            let _ = exec.eval(e);
            sim_entries(&ctx, "fit:")
        };
        // Uncached input: every pull re-runs `double`, which charges the
        // ledger inside the fit. Pinned input: one charge, then cache hits.
        let uncached = fit_entries(no_cache());
        let pinned = fit_entries(big_cache());
        assert_eq!(uncached.len(), 1, "one fit charge, got {uncached:?}");
        assert_eq!(uncached[0].0, "fit:multipass");
        assert_eq!(uncached, pinned);
    }

    /// Charges the simulated clock itself, as the solvers do.
    struct SelfCharging;
    impl Estimator<f64, f64> for SelfCharging {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            let _ = data.count();
            ctx.sim.charge_seconds("solve:test", 1.0, 0.0);
            Box::new(CountingDouble(Arc::new(AtomicU64::new(0))))
        }
    }

    #[test]
    fn self_charging_estimator_gets_no_second_charge() {
        for cache in [no_cache(), big_cache()] {
            let (mut g, _) = estimator_graph(Arc::new(AtomicU64::new(0)), 1);
            let e = g.add(
                NodeKind::Estimate(Arc::new(TypedEstimator::new(SelfCharging))),
                vec![1],
                "selfcharging",
            );
            let ctx = ExecContext::default_cluster();
            let exec =
                Executor::new(&g, ctx.clone(), cache).with_profiles(Arc::new(HashMap::new()));
            let _ = exec.eval(e);
            assert_eq!(
                sim_entries(&ctx, "solve:"),
                vec![("solve:test".into(), 1.0)]
            );
            assert!(sim_entries(&ctx, "fit:").is_empty());
        }
    }

    #[test]
    fn model_memoized_within_run() {
        let calls = Arc::new(AtomicU64::new(0));
        let (g, e) = estimator_graph(calls.clone(), 1);
        let exec = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        let m1 = exec.eval(e);
        let m2 = exec.eval(e);
        assert!(Arc::ptr_eq(m1.model(), m2.model()));
        assert_eq!(execs(&exec, e), 1);
    }

    /// A walk reads a model that lowering resolved, and never fits it.
    #[test]
    fn model_apply_node_runs_model() {
        let calls = Arc::new(AtomicU64::new(0));
        let (mut g, e) = estimator_graph(calls, 1);
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let apply = g.add(NodeKind::ModelApply, vec![e, input], "apply");
        let fit = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        let models = HashMap::from([(e, fit.eval(e).model().clone())]);
        let program = Program::lower(&g, apply, &models);
        let exec = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        // MultiPass computes sum(double([1, 2, 3])) / passes = 12 / 1, so
        // the output is 0 + 12.
        let v: DistCollection<f64> = exec.apply(&program, wrap(vec![0.0])).downcast();
        assert_eq!(v.collect(), vec![12.0]);
        assert!(exec.models().is_empty());
    }

    #[test]
    #[should_panic(expected = "the runtime input is bound only by a walk")]
    fn unbound_runtime_input_panics() {
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let exec = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        let _ = exec.eval(input);
    }

    #[test]
    fn foreign_cache_value_recomputes_instead_of_panicking() {
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls.clone());
        let cache = big_cache();
        // Poison the node's cache slot with a value of the wrong type.
        assert!(cache.put(t as u64, Arc::new(123i32), 4));
        let exec = Executor::new(&g, ExecContext::default_cluster(), cache.clone());
        let v: DistCollection<f64> = exec.eval(t).data().downcast();
        assert_eq!(v.collect(), vec![2.0, 4.0, 6.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "lineage recompute ran");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn lost_cache_entry_recomputes_from_lineage() {
        use keystone_dataflow::faults::FaultSpec;
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls.clone());
        let ctx = ExecContext::default_cluster()
            .with_faults(FaultSpec::new(11).with_cache_loss(1.0).into_plan());
        // Observer wiring matches what `Pipeline::fit` sets up, so losses
        // surface as `CacheLost` trace events.
        let cache = Arc::new(
            CacheManager::new(
                u64::MAX,
                CachePolicy::Lru {
                    admission_fraction: 1.0,
                },
            )
            .with_observer(Arc::new(crate::trace::TraceCacheObserver(
                ctx.tracer.clone(),
            ))),
        );
        let exec = Executor::new(&g, ctx.clone(), cache);
        let _ = exec.eval(t);
        // The entry is resident but every probe loses it: re-evaluation must
        // recompute rather than panic, and still return the right data.
        let v: DistCollection<f64> = exec.eval(t).data().downcast();
        assert_eq!(v.collect(), vec![2.0, 4.0, 6.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 2, "lost block recomputed");
        // Both resident entries (source and transform) are probed and lost.
        let losses = ctx
            .tracer
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::CacheLost { .. }))
            .count() as u64;
        assert_eq!(ctx.tracer.recovery_stats().cache_losses, losses);
        assert_eq!(losses, 2);
    }

    /// Doubles each record, one partition at a time: every partition
    /// attempt bumps `attempts`, and attempts on the partition holding
    /// `3.0` panic while `panics_left` lasts.
    struct Flaky {
        attempts: Arc<AtomicU64>,
        panics_left: AtomicU64,
    }
    impl Transformer<f64, f64> for Flaky {
        fn apply(&self, x: &f64) -> f64 {
            x * 2.0
        }
        fn apply_collection(
            &self,
            input: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> DistCollection<f64> {
            input.map_partitions(|p| {
                self.attempts.fetch_add(1, Ordering::SeqCst);
                let poisoned = p.contains(&3.0)
                    && self
                        .panics_left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok();
                if poisoned {
                    panic!("partition {p:?} is poison");
                }
                p.iter().map(|x| x * 2.0).collect()
            })
        }
    }

    /// `[1, 2, 3]` in `partitions` partitions through a [`Flaky`] that
    /// panics `panics` times; returns the graph, its transform node and
    /// the attempt counter.
    fn flaky_graph(partitions: usize, panics: u64) -> (Graph, NodeId, Arc<AtomicU64>) {
        let attempts = Arc::new(AtomicU64::new(0));
        let mut g = Graph::new();
        let src = g.add(
            NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(
                vec![1.0, 2.0, 3.0],
                partitions,
            ))),
            vec![],
            "src",
        );
        let flaky = Flaky {
            attempts: attempts.clone(),
            panics_left: AtomicU64::new(panics),
        };
        let t = g.add(
            NodeKind::Transform(Arc::new(TypedTransformer::new(flaky))),
            vec![src],
            "flaky",
        );
        (g, t, attempts)
    }

    /// `(attempt, backoff_secs)` of every `TaskRetry` the context traced.
    fn retry_events(ctx: &ExecContext) -> Vec<(u32, f64)> {
        ctx.tracer
            .events()
            .into_iter()
            .filter_map(|e| match e.event {
                TraceEvent::TaskRetry {
                    attempt,
                    backoff_secs,
                    ..
                } => Some((attempt, backoff_secs)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn injected_failures_surface_as_retries_with_backoff() {
        use keystone_dataflow::faults::{FaultSpec, MAX_INJECTED_FAILURES};
        let (g, t, attempts) = flaky_graph(2, 0);
        // Certain failure: every task absorbs the per-task cap of injected
        // failures.
        let ctx = ExecContext::default_cluster()
            .with_faults(FaultSpec::new(5).with_task_failures(1.0).into_plan());
        let exec = Executor::new(&g, ctx.clone(), no_cache());
        let v: DistCollection<f64> = exec.eval(t).data().downcast();
        assert_eq!(v.collect(), vec![2.0, 4.0, 6.0], "faults changed results");
        let retries = retry_events(&ctx);
        assert_eq!(retries.len() as u32, 2 * MAX_INJECTED_FAILURES);
        // Each failed attempt really re-ran the work: one attempt per
        // partition, plus one per retry.
        assert_eq!(attempts.load(Ordering::SeqCst), 2 + retries.len() as u64);
        // Exponential backoff: attempt 0 charges base, attempt 1 charges 2×.
        assert!(retries.iter().any(|(a, b)| *a == 0 && *b == 1.0));
        assert!(retries.iter().any(|(a, b)| *a == 1 && *b == 2.0));
        // Backoff landed on the simulated clock under a recovery stage.
        let recovery_secs: f64 = ctx
            .sim
            .entries()
            .iter()
            .filter(|e| e.stage.starts_with("recovery:"))
            .map(|e| e.exec_secs)
            .sum();
        assert!((recovery_secs - 6.0).abs() < 1e-9, "got {recovery_secs}");
        // Spans carry the retry counts.
        let spans = ctx.metrics.spans();
        assert_eq!(
            spans.iter().map(|s| u64::from(s.retries)).sum::<u64>(),
            retries.len() as u64
        );
    }

    /// With no fault plan installed, a partition whose first attempt
    /// panics is re-run, accounted as one retry, and yields exactly the
    /// clean run's output.
    #[test]
    fn a_panicking_partition_is_retried_without_a_fault_plan() {
        let run = |panics: u64| {
            let (g, t, attempts) = flaky_graph(2, panics);
            let ctx = ExecContext::default_cluster();
            let exec = Executor::new(&g, ctx.clone(), no_cache());
            let v: DistCollection<f64> = exec.eval(t).data().downcast();
            let bits: Vec<u64> = v.collect().iter().map(|x| x.to_bits()).collect();
            (
                bits,
                retry_events(&ctx),
                attempts.load(Ordering::SeqCst),
                ctx,
            )
        };
        let (clean, clean_retries, clean_attempts, _) = run(0);
        assert!(clean_retries.is_empty());
        let (bits, retries, attempts, ctx) = run(1);
        assert_eq!(bits, clean, "a retried partition changed the output");
        assert_eq!(retries, [(0, 1.0)]);
        assert_eq!(attempts, clean_attempts + 1);
        assert_eq!(ctx.tracer.recovery_stats().retries, 1);
        let recovery: Vec<_> = ctx
            .sim
            .entries()
            .into_iter()
            .filter(|e| e.stage.starts_with("recovery:"))
            .map(|e| (e.stage.to_string(), e.exec_secs))
            .collect();
        assert_eq!(recovery, [("recovery:transform:flaky".to_string(), 1.0)]);
    }

    /// An operator that always panics fails the job with its own message
    /// once `1 + RETRY_LIMIT` attempts have failed.
    #[test]
    fn an_always_panicking_partition_fails_with_its_own_message() {
        use keystone_dataflow::faults::RETRY_LIMIT;
        let (g, t, attempts) = flaky_graph(1, u64::MAX);
        let exec = Executor::new(&g, ExecContext::default_cluster(), no_cache());
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = exec.eval(t);
        }))
        .expect_err("every attempt panicked");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("partition [1.0, 2.0, 3.0] is poison")
        );
        assert_eq!(attempts.load(Ordering::SeqCst), 1 + u64::from(RETRY_LIMIT));
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        use keystone_dataflow::faults::FaultSpec;
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls);
        let ctx = ExecContext::default_cluster().with_faults(FaultSpec::new(3).into_plan());
        let exec = Executor::new(&g, ctx.clone(), no_cache());
        let _ = exec.eval(t);
        assert!(ctx.tracer.recovery_stats() == Default::default());
    }

    /// The contract of the one instrumented runner, per node kind: one
    /// `NodeEnd`, one sim charge under the node's label that
    /// `NodeEnd.sim_secs` reports, and recovery booked after `NodeEnd`.
    #[test]
    fn every_node_kind_runs_inside_the_same_bracket() {
        use keystone_dataflow::faults::FaultSpec;
        // Every operator reads the source directly, so no node's bracket
        // contains another's charges.
        let (mut g, src, t) = chain_graph(Arc::new(AtomicU64::new(0)));
        let e = g.add(
            NodeKind::Estimate(Arc::new(TypedEstimator::new(MultiPass { passes: 1 }))),
            vec![src],
            "multipass",
        );
        let apply = g.add(NodeKind::ModelApply, vec![e, src], "apply");
        for (node, label) in [
            (t, "transform:double"),
            (e, "fit:multipass"),
            (apply, "apply:apply"),
        ] {
            // Certain failure: every task absorbs the per-task retry cap.
            let ctx = ExecContext::default_cluster()
                .with_faults(FaultSpec::new(5).with_task_failures(1.0).into_plan());
            let exec =
                Executor::new(&g, ctx.clone(), no_cache()).with_profiles(Arc::new(HashMap::new()));
            let _ = exec.eval(node);

            let mut shape = Vec::new();
            let mut end = None;
            for ev in ctx.tracer.events() {
                match ev.event {
                    TraceEvent::NodeEnd {
                        node: n,
                        wall_secs,
                        sim_secs,
                        ..
                    } if n == node => {
                        shape.push("end");
                        end = Some((wall_secs, sim_secs));
                    }
                    TraceEvent::TaskRetry { node: n, .. } if n == node => shape.push("retry"),
                    _ => {}
                }
            }
            assert_eq!(shape[0], "end", "{label}: {shape:?}");
            assert!(shape.len() > 1, "{label}: no retries recorded");
            assert!(
                shape[1..].iter().all(|s| *s == "retry"),
                "{label}: {shape:?}"
            );
            let (wall_secs, sim_secs) = end.expect("NodeEnd");
            assert!(wall_secs >= 0.0);

            let own_stage = |stage: &str| stage.ends_with(label);
            let ledger: Vec<(String, f64)> = ctx
                .sim
                .entries()
                .into_iter()
                .filter(|en| own_stage(&en.stage))
                .map(|en| (en.stage.to_string(), en.exec_secs))
                .collect();
            assert_eq!(ledger.len(), 2, "{label}: {ledger:?}");
            assert_eq!(ledger[0], (label.to_string(), sim_secs), "{label}");
            assert!(sim_secs > 0.0, "{label}");
            assert_eq!(ledger[1].0, format!("recovery:{label}"));
        }
    }
}
