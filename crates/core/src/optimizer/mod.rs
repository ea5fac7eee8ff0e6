//! Whole-pipeline optimization (§4): orchestration of CSE, execution
//! subsampling, cost-based operator selection, and automatic
//! materialization.

pub mod adaptive;
pub mod cse;
pub mod fusion;
pub mod materialize;
pub mod multi;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use keystone_dataflow::cache::{CacheManager, CachePolicy};

use crate::context::ExecContext;
use crate::executor::Executor;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::pipeline::{ExecutablePlan, FitReport};
use crate::profiler::{profile_and_select, PipelineProfile, ProfileOptions};
use crate::report::{LedgerWindow, PipelineReport};
use crate::trace::TraceEvent;

pub use adaptive::{
    AdaptationReport, AdaptiveController, AdaptiveHints, RevisionRecord, ADAPT_DECISION_SECS,
};
pub use cse::{eliminate_common_subexpressions, CseResult};
pub use fusion::{
    fuse_chains_multi, fuse_chains_with, merge_profiles, FusedChain, FusedMap, FusionResult,
};
pub use materialize::{MatNode, MatProblem};
pub use multi::{
    fit_forest, merge_forest, tenant_subproblem, CrossMerge, ForestEstimate, ForestMerge,
    ForestReport,
};

/// How much of the optimizer to run (the three configurations of Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Unoptimized: default physical operators, no CSE, no data caching.
    None,
    /// Whole-pipeline only: CSE + automatic materialization, default
    /// physical operators.
    PipeOnly,
    /// Everything: CSE + materialization + cost-based operator selection.
    Full,
}

/// Which cache-management strategy runs at execution time (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachingStrategy {
    /// The KeystoneML strategy: the greedy Algorithm 1 pinned set.
    Greedy,
    /// LRU with Spark-like admission control.
    Lru {
        /// Largest admissible object as a fraction of the budget.
        admission_fraction: f64,
    },
    /// Rule-based: cache only estimator results (models) — models are
    /// always memoized, so no data is cached.
    RuleBased,
}

/// Options controlling `Pipeline::fit` and `fit_forest`.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Optimization level.
    pub level: OptLevel,
    /// Cache-management strategy.
    pub caching: CachingStrategy,
    /// Cache budget in bytes (defaults to the cluster's total memory).
    pub mem_budget: Option<u64>,
    /// Subsampling profiler configuration.
    pub profile: ProfileOptions,
    /// Whole-stage operator fusion override: `None` follows the level
    /// default (on at [`OptLevel::Full`], off below), `Some(b)` forces it.
    pub fuse: Option<bool>,
    /// Columnar fused execution override: `None` follows the level default
    /// (on at [`OptLevel::Full`], off below), `Some(b)` forces it. Only
    /// takes effect on chains the fusion pass builds whose members all
    /// provide columnar kernels; everything else keeps the record path.
    pub columnar: Option<bool>,
    /// Adaptive mid-fit re-optimization override: `None` follows the level
    /// default (on at [`OptLevel::Full`], off below), `Some(b)` forces it.
    /// Only takes effect under [`CachingStrategy::Greedy`] on fault-free
    /// runs (fault probes fire per resident cache entry, so mid-fit
    /// membership changes would perturb the injected draw sequence).
    pub adaptive: Option<bool>,
    /// External evidence for the adaptive re-planner, typically distilled
    /// from a prior run's diagnosis ([`crate::report::replanner_hints`]).
    pub adaptive_hints: AdaptiveHints,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            level: OptLevel::Full,
            caching: CachingStrategy::Greedy,
            mem_budget: None,
            profile: ProfileOptions::default(),
            fuse: None,
            columnar: None,
            adaptive: None,
            adaptive_hints: AdaptiveHints::default(),
        }
    }
}

impl PipelineOptions {
    /// The unoptimized configuration (`None` in Fig. 9).
    pub fn none() -> Self {
        PipelineOptions {
            level: OptLevel::None,
            caching: CachingStrategy::RuleBased,
            ..Default::default()
        }
    }

    /// Whole-pipeline optimizations only (`Pipe Only` in Fig. 9).
    pub fn pipe_only() -> Self {
        PipelineOptions {
            level: OptLevel::PipeOnly,
            ..Default::default()
        }
    }

    /// Everything on (`KeystoneML` in Fig. 9).
    pub fn full() -> Self {
        PipelineOptions::default()
    }

    /// Overrides the cache budget.
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Overrides the caching strategy.
    pub fn with_caching(mut self, caching: CachingStrategy) -> Self {
        self.caching = caching;
        self
    }

    /// Forces whole-stage fusion on or off regardless of the level default.
    pub fn with_fusion(mut self, on: bool) -> Self {
        self.fuse = Some(on);
        self
    }

    /// Whether the fusion pass runs: the explicit toggle when set, else on
    /// exactly at [`OptLevel::Full`].
    pub fn fusion_enabled(&self) -> bool {
        self.fuse.unwrap_or(self.level == OptLevel::Full)
    }

    /// Forces columnar fused execution on or off regardless of the level
    /// default. Only meaningful when fusion runs (columnar execution is a
    /// lowering of fused chains).
    pub fn with_columnar(mut self, on: bool) -> Self {
        self.columnar = Some(on);
        self
    }

    /// Whether fused chains lower to the columnar batch path: the explicit
    /// toggle when set, else on exactly at [`OptLevel::Full`].
    pub fn columnar_enabled(&self) -> bool {
        self.columnar.unwrap_or(self.level == OptLevel::Full)
    }

    /// Forces adaptive mid-fit re-optimization on or off regardless of the
    /// level default.
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.adaptive = Some(on);
        self
    }

    /// Whether adaptive re-optimization runs: the explicit toggle when set,
    /// else on exactly at [`OptLevel::Full`].
    pub fn adaptive_enabled(&self) -> bool {
        self.adaptive.unwrap_or(self.level == OptLevel::Full)
    }

    /// Supplies diagnosis-derived evidence to the adaptive re-planner.
    pub fn with_adaptive_hints(mut self, hints: AdaptiveHints) -> Self {
        self.adaptive_hints = hints;
        self
    }

    /// The cache budget a fit on `ctx` runs under, bytes.
    pub(crate) fn budget_on(&self, ctx: &ExecContext) -> u64 {
        self.mem_budget
            .unwrap_or_else(|| ctx.resources.total_cache_bytes())
    }

    /// Whether the fit pins a greedy Algorithm 1 set (the only strategy
    /// whose cache contents a [`MatProblem`] solves for ahead of time).
    pub(crate) fn pins_greedy_set(&self) -> bool {
        self.level != OptLevel::None && self.caching == CachingStrategy::Greedy
    }

    /// Algorithm 1 on `problem` under `budget` when the fit pins a greedy
    /// set, with its picks in order; otherwise the empty set.
    pub(crate) fn solve(
        &self,
        problem: &MatProblem,
        budget: u64,
    ) -> (HashSet<NodeId>, Vec<materialize::MatPick>) {
        if self.pins_greedy_set() {
            problem.greedy_cache_set_traced(budget)
        } else {
            Default::default()
        }
    }
}

/// Steps 2–4 of a fit, written once for [`Pipeline::fit`] (one output) and
/// [`fit_forest`]'s shared plan (one output per tenant). [`FitPlan::new`]
/// profiles and solves Algorithm 1; between it and [`FitPlan::execute`] the
/// caller may read the plan (the forest prices its alternative there).
///
/// [`Pipeline::fit`]: crate::pipeline::Pipeline::fit
pub(crate) struct FitPlan {
    pub graph: Graph,
    pub outputs: Vec<NodeId>,
    /// Each output's fit roots, topological.
    pub roots: Vec<Vec<NodeId>>,
    profile: PipelineProfile,
    pub budget: u64,
    /// Over the union of `roots`.
    pub problem: MatProblem,
    pub cache_set: HashSet<NodeId>,
    picks: Vec<materialize::MatPick>,
}

impl FitPlan {
    /// Step 2, execution subsampling with operator selection at
    /// [`OptLevel::Full`] (nothing at [`OptLevel::None`]); step 3,
    /// Algorithm 1 under the budget when the fit pins a greedy set.
    pub(crate) fn new(
        mut graph: Graph,
        outputs: Vec<NodeId>,
        ctx: &ExecContext,
        opts: &PipelineOptions,
    ) -> Self {
        let roots: Vec<Vec<NodeId>> = outputs.iter().map(|&o| fit_roots(&graph, o)).collect();
        let mut all_roots = roots.concat();
        all_roots.sort_unstable();
        all_roots.dedup();
        let profile = if opts.level == OptLevel::None {
            PipelineProfile::default()
        } else {
            let popts = ProfileOptions {
                select_operators: opts.level == OptLevel::Full,
                ..opts.profile.clone()
            };
            profile_and_select(&mut graph, &all_roots, ctx, &popts)
        };
        let budget = opts.budget_on(ctx);
        let problem = build_mat_problem(&graph, &profile, &all_roots);
        let (cache_set, picks) = opts.solve(&problem, budget);
        FitPlan {
            graph,
            outputs,
            roots,
            profile,
            budget,
            problem,
            cache_set,
            picks,
        }
    }

    /// Step 4: traces the picks, builds the fit-time cache, fuses, runs the
    /// estimator waves and folds the report, returning one plan per output.
    /// `window` and `started` mark where the caller's fit began.
    pub(crate) fn execute(
        self,
        ctx: &ExecContext,
        opts: &PipelineOptions,
        eliminated: usize,
        window: LedgerWindow,
        started: Instant,
    ) -> (FitReport, Vec<Arc<ExecutablePlan>>) {
        let FitPlan {
            mut graph,
            outputs,
            roots,
            mut profile,
            budget,
            problem,
            cache_set,
            picks,
        } = self;
        for pick in picks {
            ctx.tracer.record(TraceEvent::MaterializePick {
                node: pick.node,
                label: pick.label,
                est_saving_secs: pick.est_saving_secs,
                size_bytes: pick.size_bytes,
            });
        }
        // Greedy pins `cache_set`; LRU admits at run time; rule-based and
        // `OptLevel::None` cache no data.
        let cache = match (opts.level, opts.caching) {
            (OptLevel::None, _) | (_, CachingStrategy::RuleBased) => {
                CacheManager::new(0, CachePolicy::Pinned(HashSet::new()))
            }
            (_, CachingStrategy::Lru { admission_fraction }) => {
                CacheManager::new(budget, CachePolicy::Lru { admission_fraction })
            }
            (_, CachingStrategy::Greedy) => {
                let keys: HashSet<u64> = cache_set.iter().map(|&v| v as u64).collect();
                CacheManager::new(budget, CachePolicy::Pinned(keys))
            }
        }
        .with_observer(Arc::new(crate::trace::TraceCacheObserver(
            ctx.tracer.clone(),
        )));
        // Adaptive re-optimization watches one pipeline's demand against the
        // problem's predictions; mid-fit cache revisions are per-pipeline, so
        // a forest keeps its static plan. Fault-injected runs do too: cache-
        // loss probes fire per resident entry, so mid-fit membership changes
        // would perturb the injected draw sequence rather than just the cost.
        let several = outputs.len() > 1;
        let adapts =
            !several && opts.pins_greedy_set() && opts.adaptive_enabled() && ctx.faults.is_none();
        let adaptive = adapts.then(|| {
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
        // Resolved before fusion relabels chain tails to `Fused[...]`.
        let choices = profile
            .choices
            .iter()
            .map(|(id, name)| (graph.nodes[*id].label.clone(), name.clone()))
            .collect();

        // 3b. Whole-stage fusion after materialization, so every pick and
        // every output is a barrier. The rewrite is id-stable (chains collapse
        // onto their tail's id), so cache keys, roots and outputs still hold.
        let (mut fused, mut fused_nodes, mut columnar_chains) = (Vec::new(), 0, 0);
        if opts.fusion_enabled() {
            let result = fuse_chains_multi(&graph, &outputs, &cache_set, opts.columnar_enabled());
            graph = result.graph;
            merge_profiles(&mut profile, &result.chains);
            (fused_nodes, columnar_chains) = (result.absorbed, result.columnar_chains);
            // Chains arrive in ascending tail-id order, so the events do too.
            for chain in result.chains {
                ctx.tracer.record(TraceEvent::FusionMerge {
                    node: chain.tail,
                    label: graph.nodes[chain.tail].label.clone(),
                    members: chain.labels.clone(),
                });
                fused.push((chain.tail, chain.labels));
            }
        }
        let optimize_secs = started.elapsed().as_secs_f64();

        // 4. Every output's estimator waves, interleaved on one executor. A
        // root shared by several outputs is computed by the first wave that
        // reaches it (charged to that output's `tenant{i}` lane, so operators'
        // own charges land there too) and memoized for the rest.
        let profiles = Arc::new(profile.nodes.clone());
        let mut executor =
            Executor::new(&graph, ctx.clone(), Arc::new(cache)).with_profiles(profiles.clone());
        if let Some(ad) = &adaptive {
            executor = executor.with_adaptive(ad.clone());
        }
        for (tenant, node) in multi::interleave_waves(&roots) {
            if several {
                ctx.sim
                    .in_lane(format!("tenant{tenant}"), || executor.eval(node));
            } else {
                executor.eval(node);
            }
        }
        let models = executor.models();

        let report = FitReport {
            optimize_secs,
            eliminated_nodes: eliminated,
            choices,
            fused,
            fused_nodes,
            columnar_chains,
            cache_set_labels: labels_of(&graph, &cache_set),
            dot: graph.to_dot(&cache_set),
            cache_set,
            adaptation: adaptive.map(|ad| ad.report()).unwrap_or_default(),
            observability: PipelineReport::build_since(
                &graph,
                &profile,
                &ctx.tracer,
                Some(&ctx.metrics),
                window,
            ),
            profile,
        };
        let graph = Arc::new(graph);
        let plan = |out| ExecutablePlan::new(graph.clone(), out, models.clone(), profiles.clone());
        let plans = outputs.iter().map(|&out| Arc::new(plan(out))).collect();
        (report, plans)
    }
}

/// Builds the materialization problem for the fit-relevant subgraph: every
/// node gets its profiled one-execution time and output size; sources and
/// estimator (model) nodes are marked always-cached.
pub fn build_mat_problem(graph: &Graph, profile: &PipelineProfile, roots: &[NodeId]) -> MatProblem {
    let relevant = graph.ancestors(roots);
    let nodes = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(id, node)| {
            let prof = profile.nodes.get(&id);
            let (t_secs, size_bytes) = match prof {
                Some(p) => (
                    p.est_secs(p.records_hint),
                    p.est_output_bytes().max(1.0) as u64,
                ),
                None => (0.0, 1),
            };
            let (weight, always_cached) = match &node.kind {
                NodeKind::Estimate(op) => (op.weight(), true),
                NodeKind::DataSource(_) | NodeKind::RuntimeInput => (1, true),
                _ => (1, false),
            };
            MatNode {
                t_secs: if relevant.contains(&id) { t_secs } else { 0.0 },
                size_bytes,
                weight,
                always_cached,
                inputs: node.inputs.clone(),
                label: node.label.clone(),
            }
        })
        .collect();
    MatProblem {
        nodes,
        sinks: roots.to_vec(),
    }
}

/// Returns the estimator nodes feeding `output` in topological order.
pub fn fit_roots(graph: &Graph, output: NodeId) -> Vec<NodeId> {
    let anc = graph.ancestors(&[output]);
    graph
        .estimators()
        .into_iter()
        .filter(|e| anc.contains(e))
        .collect()
}

/// Labels of a node-id set, for reports and Fig. 11-style dumps.
pub fn labels_of(graph: &Graph, set: &HashSet<NodeId>) -> Vec<String> {
    let mut ids: Vec<NodeId> = set.iter().copied().collect();
    ids.sort_unstable();
    ids.iter().map(|&i| graph.nodes[i].label.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{events_without_wall, small_profile, Inc, MeanCenter};
    use crate::pipeline::{FitReport, Pipeline};
    use keystone_dataflow::collection::DistCollection;

    /// Fits an `Inc → Inc → MeanCenter` pipeline (a fusable chain) and
    /// returns the plan summary, the report and the trace stream with wall
    /// time blanked.
    fn fit(opts: PipelineOptions) -> (String, FitReport, Vec<String>) {
        let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2);
        let pipe = Pipeline::<f64, f64>::input()
            .and_then(Inc)
            .and_then(Inc)
            .and_then_est(MeanCenter, &train);
        let ctx = ExecContext::default_cluster();
        let opts = PipelineOptions {
            profile: small_profile(),
            ..opts
        };
        let (fitted, report) = pipe.fit(&ctx, &opts);
        let events = events_without_wall(&ctx);
        (fitted.graph().summary(), report, events)
    }

    /// [`FitPlan::execute`] reads the columnar toggle only when fusion is
    /// on, so an unfused fit is the same fit whatever the toggle says —
    /// which is why the differential oracle has no unfused-columnar cells.
    #[test]
    fn columnar_toggle_is_a_no_op_without_fusion() {
        let unfused = PipelineOptions::full().with_fusion(false);
        let (plan_off, report_off, events_off) = fit(unfused.clone().with_columnar(false));
        let (plan_on, report_on, events_on) = fit(unfused.with_columnar(true));
        assert_eq!(plan_on, plan_off);
        assert_eq!(events_on, events_off);
        for r in [&report_on, &report_off] {
            assert!(r.fused.is_empty());
            assert_eq!((r.fused_nodes, r.columnar_chains), (0, 0));
        }
        // The chain is fusable, so the toggle is not vacuous on this plan.
        let (plan_fused, report_fused, _) = fit(PipelineOptions::full().with_fusion(true));
        assert!(report_fused.fused_nodes > 0);
        assert_ne!(plan_fused, plan_off);
    }
}
