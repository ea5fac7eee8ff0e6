//! Depth-first, cache-aware DAG execution (§2.3 "runtime").
//!
//! The executor evaluates nodes on demand. There is **no implicit
//! memoization of data nodes**: a node requested twice (fan-out, or an
//! iterative estimator re-reading its input) is recomputed unless the
//! [`CacheManager`] holds it — exactly the Spark behaviour the automatic
//! materialization optimizer (§4.3) manages. Fitted models *are* memoized
//! per run: an estimator fits once.
//!
//! ## Fault tolerance
//!
//! When the context carries a [`FaultPlan`], the executor provides the
//! recovery guarantees the paper inherits from Spark's RDD lineage:
//!
//! * **Task retry** — injected per-partition failures surface as `retries`
//!   on task spans; the executor charges each retry's exponential backoff to
//!   the simulated clock (under a `recovery:` stage) and emits a
//!   [`TraceEvent::TaskRetry`](crate::trace::TraceEvent) per attempt. A task
//!   exceeding the retry limit fails the job, as on a real cluster.
//! * **Speculative re-execution** — partitions whose measured busy time
//!   straggles past 2× the stage median get a simulated median-speed copy:
//!   the original span is tagged `speculative` (it lost the race) and the
//!   copy's runtime is charged under a `speculative:` stage.
//! * **Lineage recompute** — a cache entry that is lost (or holds a foreign
//!   value) is invalidated and the node recomputed from its DAG ancestry
//!   instead of panicking; losses surface as `CacheLost` events.
//!
//! Recovery is *accounted* centrally on the driving thread after the node's
//! own work completes, in deterministic span order, so two runs with the
//! same fault seed produce identical event streams.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use keystone_dataflow::cache::CacheManager;
use keystone_dataflow::faults::FaultPlan;
use keystone_dataflow::metrics::{enter_task_scope, TaskScope};

use crate::context::ExecContext;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::operator::{AnyData, ErasedTransformer, InputHandle, NodeOutput};
use crate::profiler::NodeProfile;
use crate::trace::TraceEvent;
use parking_lot::Mutex;

/// DAG evaluator over a frozen graph.
///
/// The executor runs in one of two modes, decided by whether a runtime
/// input is bound rather than by a switch:
///
/// * **fit** (no runtime input — `Pipeline::fit` never binds one): data
///   nodes are recomputed on every request unless the [`CacheManager`]
///   holds them, and the context's fault plan is in force;
/// * **apply** ([`Executor::with_runtime_input`] — every apply and serving
///   wave binds one): a single pass that memoizes every data node for the
///   run, stays fault-free, and offers an output to the cache only when
///   the policy admits it.
///
/// It writes to the context's three ledgers — `sim`, `tracer`, `metrics` —
/// from one place, the private `run_node` bracket every operator kind
/// executes in.
pub struct Executor<'g> {
    graph: &'g Graph,
    ctx: ExecContext,
    cache: Arc<CacheManager>,
    /// Fitted models, memoized for the run.
    models: Mutex<HashMap<NodeId, Arc<dyn ErasedTransformer>>>,
    /// Apply-time input binding; its presence selects apply mode.
    runtime_input: Option<AnyData>,
    /// Per-node profiles used to charge the simulated clock.
    profiles: Option<Arc<HashMap<NodeId, NodeProfile>>>,
    /// Mid-fit adaptive re-planner: notified of every node request so it
    /// can compare observed demand against the plan's prediction and apply
    /// cost-only cache revisions (see [`crate::optimizer::adaptive`]).
    adaptive: Option<Arc<crate::optimizer::AdaptiveController>>,
    /// Data outputs of this run (apply mode only).
    memo: Mutex<HashMap<NodeId, NodeOutput>>,
}

/// When a node's execution is billed to the simulated clock.
enum SimCharge<'a> {
    /// Unconditionally (transforms and model applications).
    Always,
    /// Only if the work charged nothing itself, i.e. every ledger entry
    /// since the node started came from an input pull, which the node's
    /// [`NodeHandle`]s count here. Solvers charge themselves; other
    /// estimators fall back to the profiled estimate whether or not their
    /// inputs were cache hits.
    UnlessSelfCharged(&'a AtomicUsize),
}

impl<'g> Executor<'g> {
    /// Creates an executor in fit mode (cache-managed recomputation).
    pub fn new(graph: &'g Graph, ctx: ExecContext, cache: Arc<CacheManager>) -> Self {
        Executor {
            graph,
            ctx,
            cache,
            models: Mutex::new(HashMap::new()),
            runtime_input: None,
            profiles: None,
            adaptive: None,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Binds the apply-time input, which puts the executor in apply mode
    /// (see the type docs).
    ///
    /// In apply mode policy-admitted data outputs are offered to the cache
    /// so they survive this run — a no-op against the nothing-admitted
    /// cache single-shot apply uses, and how a cache shared across runs
    /// (the serving pattern) serves request-independent intermediates to
    /// later waves. Cache keys are bare node ids, so every executor
    /// sharing one cache must run the *same* graph — two plans with
    /// different node numbering would collide keys and serve each other's
    /// outputs. The multi-tenant forest path satisfies this by construction
    /// (all tenants execute one merged graph).
    pub fn with_runtime_input(mut self, data: AnyData) -> Self {
        self.runtime_input = Some(data);
        self
    }

    /// Supplies per-node profiles so execution charges the simulated clock.
    pub fn with_profiles(mut self, profiles: Arc<HashMap<NodeId, NodeProfile>>) -> Self {
        self.profiles = Some(profiles);
        self
    }

    /// Attaches the adaptive mid-fit re-planner (fit mode only).
    pub fn with_adaptive(mut self, controller: Arc<crate::optimizer::AdaptiveController>) -> Self {
        self.adaptive = Some(controller);
        self
    }

    /// Preloads fitted models (used by `FittedPipeline::apply`).
    pub fn with_models(self, models: HashMap<NodeId, Arc<dyn ErasedTransformer>>) -> Self {
        *self.models.lock() = models;
        self
    }

    /// The execution context.
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// Snapshot of fitted models.
    pub fn models(&self) -> HashMap<NodeId, Arc<dyn ErasedTransformer>> {
        self.models.lock().clone()
    }

    /// Whether this is an apply-mode (single-pass) run.
    fn apply_mode(&self) -> bool {
        self.runtime_input.is_some()
    }

    /// Evaluates `node`, recursively materializing dependencies.
    pub fn eval(&self, node: NodeId) -> NodeOutput {
        // Run-local memo (models always; data only in apply mode).
        if let Some(m) = self.memo.lock().get(&node) {
            return m.clone();
        }
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
            if self
                .active_faults()
                .is_some_and(|f| f.cache_entry_lost(node as u64))
            {
                self.cache.invalidate(node as u64);
                self.ctx.metrics.inc_counter("faults.cache_losses", 1);
            } else {
                match v.downcast_ref::<AnyData>() {
                    Some(data) => return NodeOutput::Data(data.clone()),
                    None => {
                        self.cache.invalidate(node as u64);
                    }
                }
            }
        }

        let out = self.compute(node);

        match &out {
            NodeOutput::Data(d) => {
                if self.apply_mode() {
                    self.memo.lock().insert(node, out.clone());
                }
                // An apply run offers only what the policy admits: a run
                // that cannot reuse the node produces no reject noise in
                // trace streams, and an apply-path node must never be
                // offered, or wave N would serve wave N-1's answers.
                if !self.apply_mode() || self.cache.policy_admits(node as u64) {
                    self.cache
                        .put(node as u64, Arc::new(d.clone()), d.total_bytes().max(1));
                }
            }
            NodeOutput::Model(m) => {
                self.models.lock().insert(node, m.clone());
            }
        }
        out
    }

    /// The fault plan in effect, if any. Apply runs stay fault-free:
    /// injection targets the fit-time executor the recovery machinery
    /// protects.
    fn active_faults(&self) -> Option<&FaultPlan> {
        if self.apply_mode() {
            None
        } else {
            self.ctx.faults.as_ref()
        }
    }

    /// Computes a node unconditionally (no cache lookup).
    fn compute(&self, node: NodeId) -> NodeOutput {
        let n = &self.graph.nodes[node];
        match &n.kind {
            NodeKind::RuntimeInput => NodeOutput::Data(
                self.runtime_input
                    .clone()
                    .expect("runtime input not bound; call with_runtime_input"),
            ),
            NodeKind::DataSource(data) => NodeOutput::Data(data.clone()),
            NodeKind::Transform(op) => {
                let inputs: Vec<AnyData> = n
                    .inputs
                    .iter()
                    .map(|&i| self.eval(i).data().clone())
                    .collect();
                let in_count = inputs.first().map_or(0, |d| d.stats().count);
                let label = format!("transform:{}", n.label);
                self.run_node(node, &label, in_count, SimCharge::Always, || {
                    NodeOutput::Data(op.apply_any(&inputs, &self.ctx))
                })
            }
            NodeKind::Estimate(op) => {
                let pulled = AtomicUsize::new(0);
                let handles: Vec<NodeHandle<'_, 'g>> = n
                    .inputs
                    .iter()
                    .map(|&i| NodeHandle {
                        exec: self,
                        node: i,
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
                let label = format!("fit:{}", n.label);
                // Estimators re-enter the executor through lazy handles;
                // inner nodes push their own (innermost-wins) scope, so only
                // the fit's own collection work is attributed here. Inner
                // nodes likewise run their own recovery accounting.
                let charge = SimCharge::UnlessSelfCharged(&pulled);
                self.run_node(node, &label, records, charge, || {
                    NodeOutput::Model(op.fit_any(&handle_refs, &self.ctx))
                })
            }
            NodeKind::ModelApply => {
                let model = self.eval(n.inputs[0]).model().clone();
                let data = self.eval(n.inputs[1]).data().clone();
                let in_count = data.stats().count;
                let label = format!("apply:{}", n.label);
                self.run_node(node, &label, in_count, SimCharge::Always, || {
                    NodeOutput::Data(model.apply_any(&[data], &self.ctx))
                })
            }
        }
    }

    /// Runs one node's `work` inside the instrumentation bracket every
    /// operator kind shares: `NodeStart`, the work under a fault-aware task
    /// scope (every `DistCollection` operation inside it emits
    /// per-partition spans attributed to this node), the simulated-clock
    /// charge, `NodeEnd` carrying wall and simulated seconds, then recovery
    /// accounting for the spans the work recorded.
    fn run_node(
        &self,
        node: NodeId,
        label: &str,
        records: usize,
        charge: SimCharge<'_>,
        work: impl FnOnce() -> NodeOutput,
    ) -> NodeOutput {
        self.ctx.tracer.node_start(node, label);
        let sim_mark = self.ctx.sim.mark();
        let span_mark = self.ctx.metrics.span_count();
        let start = std::time::Instant::now();
        let scope = TaskScope::new(
            &self.ctx.metrics,
            label,
            Some(node as u64),
            self.ctx.resources.workers,
        )
        .with_faults(self.active_faults().cloned());
        let out = enter_task_scope(scope, work);
        let wall_secs = start.elapsed().as_secs_f64();
        let charged = match charge {
            SimCharge::Always => true,
            SimCharge::UnlessSelfCharged(pulled) => {
                self.ctx.sim.mark() - sim_mark == pulled.load(Ordering::Relaxed)
            }
        };
        if charged {
            self.charge_sim(node, label, records);
        }
        let out_bytes = match &out {
            NodeOutput::Data(d) => d.total_bytes(),
            NodeOutput::Model(_) => 0,
        };
        self.ctx.tracer.node_end(
            node,
            label,
            records,
            out_bytes,
            wall_secs,
            self.ctx.sim.seconds_since(sim_mark),
        );
        self.apply_recovery(node, label, span_mark);
        out
    }

    /// Charges the simulated clock: marginal profiled cost × records, spread
    /// over the cluster's workers. Unprofiled nodes (apply path, model-apply
    /// stages the profiler never sees) are priced on the same synthetic
    /// per-label scale as [`ExecutablePlan::est_apply_secs`], so every sim
    /// charge is a pure function of the plan and the record count — the
    /// simulated ledger never absorbs measured wall time.
    ///
    /// [`ExecutablePlan::est_apply_secs`]: crate::pipeline::ExecutablePlan::est_apply_secs
    fn charge_sim(&self, node: NodeId, label: &str, records: usize) {
        let Some(profiles) = &self.profiles else {
            return;
        };
        let w = self.ctx.resources.workers.max(1) as f64;
        match profiles.get(&node) {
            Some(p) => {
                let total = p.fixed_secs + p.secs_per_record * records as f64;
                self.ctx.sim.charge_seconds(label, total / w, 0.0);
            }
            None => {
                let total = crate::profiler::synthetic_node_secs(&self.graph.nodes[node], records);
                self.ctx.sim.charge_seconds(label, total / w, 0.0);
            }
        }
    }

    /// Accounts for the recovery work a node's execution incurred, reading
    /// the task spans recorded since `span_mark`. Runs on the driving thread
    /// after the node's own work (and its `NodeEnd` event), so the charges
    /// land in deterministic span order and never perturb the node's own
    /// `sim_secs`.
    ///
    /// Two recovery mechanisms are accounted here:
    ///
    /// * **Retries** — each failed attempt a task absorbed is charged its
    ///   exponential backoff under a `recovery:` sim stage and emitted as a
    ///   [`TraceEvent::TaskRetry`].
    /// * **Speculation** — within each parallel wave (spans sharing an
    ///   `op_seq`), per-partition busy time is compared against the wave
    ///   median; a partition past 2× the median (and past the plan's noise
    ///   floor) is assumed beaten by a median-speed speculative copy: its
    ///   spans are tagged `speculative` and the copy's runtime is charged
    ///   under a `speculative:` stage. Waves, not node-lifetime totals,
    ///   because a straggler in one pass of an iterative estimator washes
    ///   out when summed over the node's other passes.
    fn apply_recovery(&self, node: NodeId, label: &str, span_mark: usize) {
        let Some(faults) = self.active_faults() else {
            return;
        };
        let spans: Vec<_> = self
            .ctx
            .metrics
            .spans_from(span_mark)
            .into_iter()
            .filter(|s| s.stage_id == Some(node as u64))
            .collect();
        if spans.is_empty() {
            return;
        }

        // Retries: charge each failed attempt's backoff.
        let mut backoff_total = 0.0;
        let mut retries = 0u64;
        for s in &spans {
            for attempt in 0..s.retries {
                let backoff_secs = faults.backoff_secs(attempt);
                backoff_total += backoff_secs;
                retries += 1;
                self.ctx.tracer.record(TraceEvent::TaskRetry {
                    node,
                    partition: s.partition,
                    attempt,
                    backoff_secs,
                });
            }
        }
        if retries > 0 {
            self.ctx.metrics.inc_counter("faults.retries", retries);
            self.ctx
                .sim
                .charge_seconds(&format!("recovery:{label}"), backoff_total, 0.0);
        }

        // Speculation: within each parallel wave (one `op_seq` = one
        // collection operation fanned out over partitions), compare each
        // partition's busy time to that wave's median.
        let mut waves: BTreeMap<u64, BTreeMap<usize, f64>> = BTreeMap::new();
        for s in &spans {
            *waves
                .entry(s.op_seq)
                .or_default()
                .entry(s.partition)
                .or_insert(0.0) += s.duration_secs();
        }
        let floor_secs = faults.speculation_threshold_us() as f64 / 1e6;
        let mut copies_total = 0.0;
        let mut wins = 0u64;
        for (&op_seq, busy) in &waves {
            if busy.len() < 2 {
                continue;
            }
            let mut sorted: Vec<f64> = busy.values().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            // Nearest-rank median, matching `MetricsRegistry::stage_skew`.
            let median = sorted[sorted.len().div_ceil(2) - 1];
            for (&partition, &original_secs) in busy {
                if original_secs > 2.0 * median && original_secs >= floor_secs {
                    let tagged = self.ctx.metrics.mark_speculative(
                        span_mark,
                        Some(node as u64),
                        op_seq,
                        partition,
                    );
                    debug_assert!(tagged > 0, "straggler partition has no spans");
                    copies_total += median;
                    wins += 1;
                    self.ctx.tracer.record(TraceEvent::SpeculativeWin {
                        node,
                        partition,
                        original_secs,
                        copy_secs: median,
                    });
                }
            }
        }
        if wins > 0 {
            self.ctx
                .metrics
                .inc_counter("faults.speculative_wins", wins);
            self.ctx
                .sim
                .charge_seconds(&format!("speculative:{label}"), copies_total, 0.0);
        }
    }
}

/// Lazy estimator input bound to an executor node: each `get` re-enters the
/// executor, so uncached upstream chains are genuinely recomputed per pass.
struct NodeHandle<'a, 'g> {
    exec: &'a Executor<'g>,
    node: NodeId,
    /// Simulated-ledger entries appended during pulls, shared by all of one
    /// estimator's handles. A statistic read on the driving thread after the
    /// fit returns; it publishes no other data, hence `Relaxed`.
    pulled: &'a AtomicUsize,
}

impl InputHandle for NodeHandle<'_, '_> {
    fn get(&self) -> AnyData {
        let mark = self.exec.ctx.sim.mark();
        let data = self.exec.eval(self.node).data().clone();
        self.pulled
            .fetch_add(self.exec.ctx.sim.mark() - mark, Ordering::Relaxed);
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

    #[test]
    fn apply_mode_reuses_without_cache() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let t = g.add(
            NodeKind::Transform(Arc::new(TypedTransformer::new(CountingDouble(
                calls.clone(),
            )))),
            vec![input],
            "double",
        );
        let bound = AnyData::wrap(DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2));
        let exec =
            Executor::new(&g, ExecContext::default_cluster(), no_cache()).with_runtime_input(bound);
        let _ = exec.eval(t);
        let v: DistCollection<f64> = exec.eval(t).data().downcast();
        assert_eq!(v.collect(), vec![2.0, 4.0, 6.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
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
            .map(|e| (e.stage, e.exec_secs))
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

    #[test]
    fn model_apply_node_runs_model() {
        let calls = Arc::new(AtomicU64::new(0));
        let (mut g, e) = estimator_graph(calls, 1);
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let apply = g.add(NodeKind::ModelApply, vec![e, input], "apply");
        let test = AnyData::wrap(DistCollection::from_vec(vec![0.0], 1));
        let exec =
            Executor::new(&g, ExecContext::default_cluster(), no_cache()).with_runtime_input(test);
        let out = exec.eval(apply);
        // Model adds mean of doubled [1,2,3] = 12/3... MultiPass computes
        // sum(=12)/passes(=1) = 12, so output = 0 + 12.
        let v: DistCollection<f64> = out.data().downcast();
        assert_eq!(v.collect(), vec![12.0]);
    }

    #[test]
    #[should_panic(expected = "runtime input not bound")]
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
        assert_eq!(ctx.metrics.counter("faults.cache_losses"), losses);
        assert_eq!(losses, 2);
    }

    #[test]
    fn injected_failures_surface_as_retries_with_backoff() {
        use keystone_dataflow::faults::FaultSpec;
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls.clone());
        // Certain failure: every task absorbs the per-task cap (2 failures).
        let ctx = ExecContext::default_cluster()
            .with_faults(FaultSpec::new(5).with_task_failures(1.0).into_plan());
        let exec = Executor::new(&g, ctx.clone(), no_cache());
        let v: DistCollection<f64> = exec.eval(t).data().downcast();
        assert_eq!(v.collect(), vec![2.0, 4.0, 6.0], "faults changed results");
        // 2 partitions × 2 failed attempts each.
        let retries = ctx.metrics.counter("faults.retries");
        assert_eq!(retries, 4);
        let retry_events: Vec<_> = ctx
            .tracer
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
            .collect();
        assert_eq!(retry_events.len(), 4);
        // Exponential backoff: attempt 0 charges base, attempt 1 charges 2×.
        assert!(retry_events.iter().any(|(a, b)| *a == 0 && *b == 1.0));
        assert!(retry_events.iter().any(|(a, b)| *a == 1 && *b == 2.0));
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
        assert_eq!(spans.iter().map(|s| u64::from(s.retries)).sum::<u64>(), 4);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        use keystone_dataflow::faults::FaultSpec;
        let calls = Arc::new(AtomicU64::new(0));
        let (g, _src, t) = chain_graph(calls);
        let ctx = ExecContext::default_cluster().with_faults(FaultSpec::new(3).into_plan());
        let exec = Executor::new(&g, ctx.clone(), no_cache());
        let _ = exec.eval(t);
        assert_eq!(ctx.metrics.counter("faults.retries"), 0);
        assert_eq!(ctx.metrics.counter("faults.cache_losses"), 0);
        assert!(ctx.tracer.recovery_stats() == Default::default());
    }

    /// The contract of the one instrumented runner, per node kind: one
    /// `NodeStart`/`NodeEnd` pair, one sim charge under the node's label
    /// that `NodeEnd.sim_secs` reports, and recovery booked after `NodeEnd`.
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
                    TraceEvent::NodeStart { node: n, .. } if n == node => shape.push("start"),
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
            assert_eq!(shape[..2], ["start", "end"], "{label}: {shape:?}");
            assert!(shape.len() > 2, "{label}: no retries recorded");
            assert!(
                shape[2..].iter().all(|s| *s == "retry"),
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
                .map(|en| (en.stage, en.exec_secs))
                .collect();
            assert_eq!(ledger.len(), 2, "{label}: {ledger:?}");
            assert_eq!(ledger[0], (label.to_string(), sim_secs), "{label}");
            assert!(sim_secs > 0.0, "{label}");
            assert_eq!(ledger[1].0, format!("recovery:{label}"));
        }
    }
}
