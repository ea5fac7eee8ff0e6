//! Multi-tenant forest optimization: Algorithm 1 and the
//! whole-pipeline passes generalized from one DAG to a *forest* of tenant
//! pipelines fitted together — the hyperparameter-sweep / per-segment
//! regime where SystemML-style plan costing pays for itself across many
//! near-identical plans rather than a single one.
//!
//! [`fit_forest`] plans, decides, then executes exactly one plan. Steps 2
//! and 4 are the fit driver [`Pipeline::fit`] runs too, over every tenant
//! output at once; this module adds the merge, the decision and the lanes:
//!
//! 1. **Cross-pipeline CSE** ([`merge_forest`]): tenant graph snapshots are
//!    concatenated (input ids offset) and run through the existing
//!    [`eliminate_common_subexpressions`] pass. Because CSE signatures are
//!    content-addressed, structurally-identical prefixes across tenants — the
//!    shared featurization trunk of a sweep — collapse into one shared plan
//!    region. Every node the merge leaves shared by ≥ 2 tenants is reported
//!    as a deterministic [`TraceEvent::CrossCseMerge`].
//! 2. **One profile, one forest-wide `MatProblem`**: the merged graph is
//!    profiled once and Algorithm 1 runs under the single shared budget over
//!    a problem whose sink set is the union of every tenant's fit roots, so
//!    reuse counts sum demand *across* tenants.
//! 3. **The cost model chooses** ([`ForestEstimate`]): the same problem
//!    prices both candidates — the shared plan under the forest-wide set,
//!    and each tenant alone ([`tenant_subproblem`]) under its own greedy set
//!    with the full budget — and sharing runs only when it is estimated
//!    strictly cheaper. Nothing is executed to find out, as in the paper's
//!    §4: the optimizer picks from estimates.
//! 4. **Round-robin wave execution**: the chosen shared plan runs once, the
//!    tenants' estimator waves interleaved position-wise on one executor.
//!    Each wave runs in a `tenant{i}` lane, so
//!    [`SimClock`](keystone_dataflow::simclock::SimClock) charges land in
//!    per-tenant lanes (rendered as separate tracks by the Chrome-trace
//!    exporter) and per-tenant rows appear in `PipelineReport`/`RunArtifact`.
//!
//! **Invariant**: each tenant's fitted pipeline is bit-identical to the
//! pipeline a solo [`Pipeline::fit`] would produce — forest optimization may
//! only change *when* and *what is shared*, never *what is computed*.
//!
//! **Checked, not enforced**: that the forest's simulated cost never exceeds
//! the sum of solo costs follows from the estimate only as far as the
//! profiles are truthful. The differential oracle's forest axis
//! (`keystone-testkit`) measures it offline, cell by cell; at run time a
//! mis-declared operator cost can mislead this choice exactly as it can
//! mislead Algorithm 1's picks.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use crate::context::ExecContext;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::optimizer::{
    eliminate_common_subexpressions, fit_roots, CachingStrategy, FitPlan, MatProblem, OptLevel,
    PipelineOptions,
};
use crate::pipeline::{FitReport, FittedPipeline, Pipeline};
use crate::record::Record;
use crate::report::{LedgerWindow, TenantRow};
use crate::trace::TraceEvent;

/// One shared node the forest canonicalizer found: a plan region used by
/// two or more tenants, merged into a single node of the forest graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossMerge {
    /// Node id in the merged forest graph.
    pub node: NodeId,
    /// Node label.
    pub label: String,
    /// How many tenants' outputs depend on this node.
    pub tenants: usize,
    /// Content-addressed structural signature (kind tag + label + input
    /// signatures, recursively) — stable under tenant permutation *and*
    /// across runs, unlike the node id.
    pub signature: u64,
}

/// Result of [`merge_forest`]: the canonical forest graph plus per-tenant
/// output ids into it.
#[derive(Clone)]
pub struct ForestMerge {
    /// The merged forest graph.
    pub graph: Graph,
    /// Each tenant's output node in the merged graph, input order.
    pub outputs: Vec<NodeId>,
    /// Nodes removed by cross-pipeline CSE.
    pub eliminated: usize,
    /// The CSE's `CseMerge` events, labelled before any operator selection.
    pub cse_merges: Vec<TraceEvent>,
    /// Computation nodes shared by ≥ 2 tenants, ascending node id.
    pub merges: Vec<CrossMerge>,
}

/// Content-recursive structural signatures that are stable across *runs*:
/// FNV over the node's kind tag, its label bytes, and its inputs'
/// signatures. Unlike CSE's keys — whose per-node identity is the operator
/// `Arc` address, perfect for intra-process merging but different on every
/// invocation — these can be embedded in deterministic artifacts and
/// compared across processes.
fn stable_signatures(graph: &Graph) -> Vec<u64> {
    let mut sig = vec![0u64; graph.nodes.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        let mut h = 0xcbf29ce484222325u64; // FNV offset basis
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(node.kind.tag() as u64);
        for b in node.label.bytes() {
            mix(b as u64);
        }
        for &input in &node.inputs {
            mix(sig[input]);
        }
        sig[id] = h;
    }
    sig
}

/// Forest-level canonicalizer: concatenates tenant graph snapshots
/// (offsetting node ids) and runs single-pipeline CSE over the result, so
/// structurally-identical prefixes across tenants merge into one shared
/// region. With one tenant this is exactly `eliminate_common_subexpressions`
/// — the concatenation of a single graph is the graph itself — which is the
/// N=1 degeneration law the property tests pin down.
///
/// `merges` reports every Transform/Estimate/ModelApply node that ended up
/// on ≥ 2 tenants' ancestry paths, in ascending node-id order. Shared
/// RuntimeInput/DataSource nodes are excluded: sources are "shared" by
/// construction, not by optimization, and reporting them would make every
/// forest look like it merged something.
pub fn merge_forest(graphs: &[(Graph, NodeId)]) -> ForestMerge {
    assert!(!graphs.is_empty(), "merge_forest needs at least one tenant");
    let mut concat = Graph::new();
    let mut outputs: Vec<NodeId> = Vec::new();
    for (g, out) in graphs {
        let offset = concat.len();
        for n in &g.nodes {
            let inputs: Vec<NodeId> = n.inputs.iter().map(|&i| i + offset).collect();
            concat.add(n.kind.clone(), inputs, n.label.clone());
        }
        assert!(*out < g.len(), "tenant output must be in its graph");
        outputs.push(out + offset);
    }
    let r = eliminate_common_subexpressions(&concat);
    let outputs: Vec<NodeId> = outputs.iter().map(|o| r.remap[o]).collect();

    let ancestries: Vec<HashSet<NodeId>> =
        outputs.iter().map(|&o| r.graph.ancestors(&[o])).collect();
    let sigs = stable_signatures(&r.graph);
    let mut merges: Vec<CrossMerge> = Vec::new();
    for (id, node) in r.graph.nodes.iter().enumerate() {
        let tenants = ancestries.iter().filter(|a| a.contains(&id)).count();
        let computation = matches!(
            node.kind,
            NodeKind::Transform(_) | NodeKind::Estimate(_) | NodeKind::ModelApply
        );
        if tenants >= 2 && computation {
            merges.push(CrossMerge {
                node: id,
                label: node.label.clone(),
                tenants,
                signature: sigs[id],
            });
        }
    }
    ForestMerge {
        cse_merges: r.merge_groups(),
        graph: r.graph,
        outputs,
        eliminated: r.eliminated,
        merges,
    }
}

/// Restricts a forest `MatProblem` to one tenant: keeps the DAG shape but
/// zeroes execution time outside the ancestor closure of the tenant's sinks
/// and requests only those sinks — exactly what `build_mat_problem` would
/// have produced had the tenant been optimized alone on the merged graph.
pub fn tenant_subproblem(problem: &MatProblem, sinks: &[usize]) -> MatProblem {
    let mut relevant: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = sinks.to_vec();
    while let Some(v) = stack.pop() {
        if relevant.insert(v) {
            stack.extend(problem.nodes[v].inputs.iter().copied());
        }
    }
    let nodes = problem
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let mut n = n.clone();
            if !relevant.contains(&i) {
                n.t_secs = 0.0;
            }
            n
        })
        .collect();
    MatProblem {
        nodes,
        sinks: sinks.to_vec(),
    }
}

/// Position-wise round-robin over per-tenant wave lists (tenant order =
/// lane order; each list already topological for its tenant): round `r`
/// dispatches every lane's `r`-th wave, in lane order. So the schedule is a
/// permutation of the input that keeps each lane's order (work-conserving),
/// puts at most N−1 other waves between two consecutive waves of a lane with
/// work left (starvation-free), is a pure function of the input, and with
/// one lane is the input order — a single-output fit's wave order.
pub(super) fn interleave_waves(per_tenant: &[Vec<NodeId>]) -> Vec<(usize, NodeId)> {
    let rounds = per_tenant.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|r| {
            per_tenant
                .iter()
                .enumerate()
                .filter_map(move |(tenant, lane)| lane.get(r).map(|&node| (tenant, node)))
        })
        .collect()
}

/// The cost model's two estimates behind [`fit_forest`]'s choice, in the
/// unit the `SimClock` ledger is charged in (profile seconds ÷
/// `resources.workers`, as the executor charges them).
#[derive(Debug, Clone, PartialEq)]
pub struct ForestEstimate {
    /// The shared merged plan under the forest-wide cache set.
    pub shared_secs: f64,
    /// Each tenant fitted alone under its own greedy set and the full
    /// budget, tenant order.
    pub solo_secs: Vec<f64>,
}

impl ForestEstimate {
    /// Prices both plans from the forest-wide `problem`: the shared plan
    /// under `forest_set`, and each tenant's restriction of the problem
    /// ([`tenant_subproblem`]) under the set `solve` picks for it alone.
    fn price(
        problem: &MatProblem,
        forest_set: &HashSet<usize>,
        tenant_sinks: &[Vec<usize>],
        solve: impl Fn(&MatProblem) -> HashSet<usize>,
        workers: f64,
    ) -> Self {
        ForestEstimate {
            shared_secs: problem.est_runtime(forest_set) / workers,
            solo_secs: tenant_sinks
                .iter()
                .map(|sinks| {
                    let solo = tenant_subproblem(problem, sinks);
                    solo.est_runtime(&solve(&solo)) / workers
                })
                .collect(),
        }
    }

    /// Estimated cost of N independent fits, seconds.
    pub fn solo_total(&self) -> f64 {
        self.solo_secs.iter().sum()
    }

    /// The decision rule: share only when strictly cheaper (ties go solo —
    /// a merged plan that saves nothing is not worth one tenant waiting on
    /// another).
    pub fn favours_sharing(&self) -> bool {
        self.shared_secs < self.solo_total()
    }
}

/// What the forest fit decided and measured.
#[derive(Debug)]
pub struct ForestReport {
    /// Whether the shared (merged-forest) plan was executed. `false` means
    /// every tenant was fitted alone — sharing was not estimated cheaper, or
    /// the configuration is one the cost model does not price.
    pub shared: bool,
    /// The estimates the choice was made from; `None` on the paths that are
    /// not priced (one tenant, [`OptLevel::None`], LRU caching).
    pub estimate: Option<ForestEstimate>,
    /// Simulated seconds the whole call charged to the context's ledger —
    /// measured, whichever plan ran.
    pub forest_secs: f64,
    /// Shared computation nodes found by cross-pipeline CSE (empty unless
    /// the shared plan ran).
    pub cross_merges: Vec<CrossMerge>,
    /// Per-tenant attribution rows (also exported on the fit report's
    /// `observability.tenants` and, from there, `RunArtifact`).
    pub tenants: Vec<TenantRow>,
    /// The merged-plan fit report when the shared plan ran.
    pub fit: Option<FitReport>,
    /// Per-tenant fit reports when the tenants were fitted alone.
    pub solo_reports: Vec<FitReport>,
}

impl ForestReport {
    /// Estimated simulated-cost speedup of the plan that ran over N
    /// independent fits: the ratio of the two estimates when the shared plan
    /// ran, 1.0 when the tenants were fitted alone or a degenerate estimate
    /// leaves the ratio undefined. Always finite.
    pub fn speedup(&self) -> f64 {
        match &self.estimate {
            Some(e) if self.shared && e.shared_secs > 0.0 => e.solo_total() / e.shared_secs,
            _ => 1.0,
        }
    }
}

/// Optimizes and fits N tenant pipelines as one forest.
///
/// Runs [`Pipeline::fit`]'s driver over the merged graph with one output
/// per tenant, and makes one decision between profiling and execution: the
/// forest-wide [`MatProblem`] prices both candidate plans (see
/// [`ForestEstimate`]); only the cheaper one is executed, once, on `ctx`.
/// How good the choice is depends on how truthful the profiles are — the
/// same precondition Algorithm 1's picks have. When sharing is declined the
/// merged profile has still run on `ctx`: its `OperatorChoice` events and
/// whatever sample-scale charges self-charging estimators made stay there
/// (`forest_secs` includes them), but no merge event or forest-wide
/// `MaterializePick` is recorded for a plan that never ran.
///
/// Three configurations are not priced and fit every tenant alone:
///
/// * one tenant — this is wholly [`Pipeline::fit`]: same trace events, same
///   `SimClock` ledger, bit-equal plan;
/// * [`OptLevel::None`] — no CSE runs at all (per the options contract), so
///   there is nothing to share;
/// * [`CachingStrategy::Lru`] — what an LRU cache holds depends on how the
///   tenants' waves interleave, which a `MatProblem` does not model.
///
/// [`CachingStrategy::RuleBased`] (and a zero budget) is priced exactly,
/// with the empty set on both sides: sharing then wins only when the trunk
/// holds an estimator, which fits once instead of once per tenant.
///
/// Each returned [`FittedPipeline`] is bit-identical (same models, same
/// predictions) to the one `tenants[i].fit(ctx, opts)` would produce alone;
/// the differential oracle's forest axis (`keystone-testkit`) holds this,
/// and measured cost dominance over N solo fits, across opt level × budget
/// × fusion × columnar cells.
pub fn fit_forest<A: Record, B: Record>(
    tenants: &[Pipeline<A, B>],
    ctx: &ExecContext,
    opts: &PipelineOptions,
) -> (Vec<FittedPipeline<A, B>>, ForestReport) {
    assert!(!tenants.is_empty(), "fit_forest needs at least one tenant");
    let window = LedgerWindow::open(ctx);
    if tenants.len() == 1
        || opts.level == OptLevel::None
        || matches!(opts.caching, CachingStrategy::Lru { .. })
    {
        return fit_solo(tenants, ctx, opts, window.sim, None);
    }
    let t0 = Instant::now();

    // 1. Cross-pipeline CSE over the concatenated snapshots; 2–3. one
    // profile of the merged graph and Algorithm 1 under the one shared
    // budget, over the union of the tenants' fit roots.
    let graphs: Vec<(Graph, NodeId)> = tenants
        .iter()
        .map(|t| (t.graph_snapshot(), t.output_node()))
        .collect();
    let ForestMerge {
        graph,
        outputs,
        eliminated,
        cse_merges,
        merges,
    } = merge_forest(&graphs);
    let plan = FitPlan::new(graph, outputs, ctx, opts);

    // The same problem restricted to each tenant under the full budget
    // prices the alternative; the cheaper plan runs.
    let estimate = ForestEstimate::price(
        &plan.problem,
        &plan.cache_set,
        &plan.roots,
        |solo| opts.solve(solo, plan.budget).0,
        ctx.resources.workers.max(1) as f64,
    );
    if !estimate.favours_sharing() {
        return fit_solo(tenants, ctx, opts, window.sim, Some(estimate));
    }

    // The shared plan runs: from here on the context is told about it, so
    // its merge events (each list ascending by node id) follow the profile's.
    cse_merges.into_iter().for_each(|e| ctx.tracer.record(e));
    for m in &merges {
        ctx.tracer.record(TraceEvent::CrossCseMerge {
            node: m.node,
            label: m.label.clone(),
            tenants: m.tenants,
            signature: m.signature,
        });
    }
    // Per-tenant rows: shared-node counts before fusion rewrites the graph,
    // lane seconds once the waves have run.
    let mut rows: Vec<TenantRow> = (0..tenants.len())
        .map(|i| {
            let anc = plan.graph.ancestors(&[plan.outputs[i]]);
            TenantRow {
                tenant: i,
                output: plan.outputs[i],
                fit_roots: plan.roots[i].clone(),
                shared_nodes: merges.iter().filter(|m| anc.contains(&m.node)).count(),
                sim_secs: 0.0,
                solo_secs: estimate.solo_secs[i],
            }
        })
        .collect();

    // 4. The tenants' waves interleave on one executor, each in its lane.
    let (mut fit, plans) = plan.execute(ctx, opts, eliminated, window, t0);
    let lanes: HashMap<String, f64> = ctx.sim.since(window.sim).by_stage().into_iter().collect();
    for row in &mut rows {
        row.sim_secs = lanes
            .get(&format!("tenant{}", row.tenant))
            .copied()
            .unwrap_or(0.0);
    }
    fit.observability.tenants = rows.clone();
    let report = ForestReport {
        shared: true,
        estimate: Some(estimate),
        forest_secs: ctx.sim.seconds_since(window.sim),
        cross_merges: merges,
        tenants: rows,
        fit: Some(fit),
        solo_reports: Vec::new(),
    };
    (
        plans.into_iter().map(FittedPipeline::from_plan).collect(),
        report,
    )
}

/// Fits every tenant independently on `ctx`, in tenant order.
fn fit_solo<A: Record, B: Record>(
    tenants: &[Pipeline<A, B>],
    ctx: &ExecContext,
    opts: &PipelineOptions,
    sim_mark: usize,
    estimate: Option<ForestEstimate>,
) -> (Vec<FittedPipeline<A, B>>, ForestReport) {
    let mut fitted = Vec::new();
    let mut reports = Vec::new();
    let mut rows = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let mark = ctx.sim.mark();
        let (f, r) = t.fit(ctx, opts);
        let secs = ctx.sim.seconds_since(mark);
        let output = f.plan().output_node();
        rows.push(TenantRow {
            tenant: i,
            output,
            fit_roots: fit_roots(f.plan().graph(), output),
            shared_nodes: 0,
            sim_secs: secs,
            solo_secs: estimate.as_ref().map_or(secs, |e| e.solo_secs[i]),
        });
        fitted.push(f);
        reports.push(r);
    }
    let report = ForestReport {
        shared: false,
        estimate,
        forest_secs: ctx.sim.seconds_since(sim_mark),
        cross_merges: Vec::new(),
        tenants: rows,
        fit: None,
        solo_reports: reports,
    };
    (fitted, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::tests::PickScale;
    use crate::operator::{Estimator, Transformer};
    use crate::optimizer::MatNode;
    use crate::profiler::ProfileOptions;
    use keystone_dataflow::collection::DistCollection;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn interleave_round_robins_and_drains_unequal_lanes() {
        let order = interleave_waves(&[vec![0], vec![1, 2, 3], vec![4, 5]]);
        assert_eq!(order, vec![(0, 0), (1, 1), (2, 4), (1, 2), (2, 5), (1, 3)]);
    }

    fn node(t_secs: f64, size_bytes: u64, weight: u32, inputs: Vec<usize>) -> MatNode {
        MatNode {
            t_secs,
            size_bytes,
            weight,
            always_cached: weight > 1 || inputs.is_empty(),
            inputs,
            label: String::new(),
        }
    }

    /// The decision rule on a hand-built forest problem, greedy both sides.
    fn estimate(problem: &MatProblem, tenant_sinks: &[Vec<usize>], budget: u64) -> ForestEstimate {
        ForestEstimate::price(
            problem,
            &problem.greedy_cache_set(budget),
            tenant_sinks,
            |solo| solo.greedy_cache_set(budget),
            1.0,
        )
    }

    #[test]
    fn disjoint_budget_sized_reuse_declines_sharing_under_a_tight_budget() {
        // src -> a_i (budget-sized, re-read 5x by est_i), nothing in common:
        // alone each tenant caches its own a_i, together only one fits.
        let problem = MatProblem {
            nodes: vec![
                node(0.0, 1, 1, vec![]),
                node(4.0, 100, 1, vec![0]),
                node(1.0, 1, 5, vec![1]),
                node(4.0, 100, 1, vec![0]),
                node(1.0, 1, 5, vec![3]),
            ],
            sinks: vec![2, 4],
        };
        let e = estimate(&problem, &[vec![2], vec![4]], 100);
        assert_eq!(e.solo_secs, vec![5.0, 5.0]);
        assert_eq!(e.shared_secs, 5.0 + 21.0);
        assert!(!e.favours_sharing());
    }

    #[test]
    fn a_shared_trunk_accepts_sharing_under_the_same_budget() {
        // The same tenants behind one expensive trunk node: alone each
        // caches its a_i and runs the trunk once (10 + 4 + 1); together the
        // trunk is cached and runs once for both (10 + 2 x (5 x 4 + 1)).
        let problem = MatProblem {
            nodes: vec![
                node(0.0, 1, 1, vec![]),
                node(40.0, 100, 1, vec![0]),
                node(4.0, 100, 1, vec![1]),
                node(1.0, 1, 5, vec![2]),
                node(4.0, 100, 1, vec![1]),
                node(1.0, 1, 5, vec![4]),
            ],
            sinks: vec![3, 5],
        };
        let e = estimate(&problem, &[vec![3], vec![5]], 100);
        assert_eq!(e.solo_secs, vec![45.0, 45.0]);
        assert_eq!(e.shared_secs, 40.0 + 2.0 * 21.0);
        assert!(e.favours_sharing());
    }

    struct Halve;
    impl Transformer<f64, f64> for Halve {
        fn apply(&self, x: &f64) -> f64 {
            x / 2.0
        }
    }

    struct Center;
    impl Estimator<f64, f64> for Center {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            struct Sub(f64);
            impl Transformer<f64, f64> for Sub {
                fn apply(&self, x: &f64) -> f64 {
                    x - self.0
                }
            }
            let n = data.count().max(1) as f64;
            Box::new(Sub(data.aggregate(0.0, |a, x| a + x, |a, b| a + b) / n))
        }
    }

    /// Two tenants off one `Pipeline::input()` handle; with `shared_trunk`
    /// an estimator sits in the trunk (fit once shared, once per tenant
    /// solo), without it the tenants have only the source in common.
    fn two_tenants(shared_trunk: bool) -> Vec<Pipeline<f64, f64>> {
        let train = DistCollection::from_vec((0..32).map(f64::from).collect(), 2);
        let mut trunk = Pipeline::input();
        if shared_trunk {
            trunk = trunk.and_then(Halve).and_then_est(Center, &train);
        }
        (0..2)
            .map(|_| trunk.and_then(Halve).and_then_est(Center, &train))
            .collect()
    }

    /// Options with a small deterministic profile (samples of 8 and 16).
    fn profiled(opts: PipelineOptions) -> PipelineOptions {
        PipelineOptions {
            profile: ProfileOptions {
                sizes: vec![8, 16],
                deterministic_timing: true,
                ..ProfileOptions::default()
            },
            ..opts
        }
    }

    /// Fails when fitted on more records than the largest profiling sample,
    /// so profiling succeeds and the real fit panics on the driving thread.
    struct FailsAtScale;
    impl Estimator<f64, f64> for FailsAtScale {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            assert!(data.count() <= 16, "fit at full scale");
            Center.fit(data, ctx)
        }
    }

    /// A tenant wave that panics must not leave its lane on the context's
    /// clock, where every later charge (from any clone) would land in it.
    #[test]
    fn a_panicking_tenant_wave_ends_its_lane() {
        let train = DistCollection::from_vec((0..32).map(f64::from).collect(), 2);
        let trunk = Pipeline::input()
            .and_then(Halve)
            .and_then_est(FailsAtScale, &train);
        let tenants: Vec<Pipeline<f64, f64>> = (0..2)
            .map(|_| trunk.and_then(Halve).and_then_est(Center, &train))
            .collect();
        let ctx = ExecContext::default_cluster();
        let opts = profiled(PipelineOptions::pipe_only());
        let fit = catch_unwind(AssertUnwindSafe(|| fit_forest(&tenants, &ctx, &opts)));
        assert!(fit.is_err(), "the trunk estimator must fail at scale");
        let shared = ctx
            .tracer
            .events()
            .iter()
            .any(|e| matches!(e.event, TraceEvent::CrossCseMerge { .. }));
        assert!(shared, "the failure must come from the shared plan's waves");
        ctx.sim.charge_seconds("probe", 1.0, 0.0);
        assert_eq!(
            ctx.sim.entries().last().map(|e| e.stage.as_str()),
            Some("probe")
        );
    }

    /// Two copies of one pipeline merge completely, so the shared path runs
    /// exactly the plan `Pipeline::fit` runs: same decisions, the same
    /// ledger in tenant 0's lane, the same predictions for both tenants.
    #[test]
    fn identical_tenants_share_the_single_fit_plan() {
        let train = DistCollection::from_vec((0..32).map(f64::from).collect(), 2);
        let p = Pipeline::input()
            .and_then_optimizable(PickScale)
            .and_then_est(Center, &train)
            .and_then(Halve)
            .and_then(Halve)
            .and_then_est(Center, &train);
        let opts = profiled(PipelineOptions::full().with_adaptive(false));
        let held_out = DistCollection::from_vec(vec![1.5, -4.0, 9.25], 2);
        let bits = |out: DistCollection<f64>| -> Vec<u64> {
            out.collect().iter().map(|v| v.to_bits()).collect()
        };

        let solo_ctx = ExecContext::default_cluster();
        let (solo, single) = p.fit(&solo_ctx, &opts);
        let ctx = ExecContext::default_cluster();
        let (fitted, report) = fit_forest(&[p.clone(), p.clone()], &ctx, &opts);
        assert!(report.shared);
        let forest = report.fit.expect("shared plan ran");

        assert_eq!(forest.choices, single.choices);
        assert_eq!(forest.cache_set_labels, single.cache_set_labels);
        assert_eq!(forest.fused, single.fused);
        assert_eq!(forest.fused_nodes, single.fused_nodes);
        assert_eq!(forest.columnar_chains, single.columnar_chains);
        // Not vacuous: the plan has a choice, a pick and a fused chain.
        assert!(!single.choices.is_empty() && !single.cache_set_labels.is_empty());
        assert!(single.fused_nodes > 0);

        let unlaned: Vec<_> = ctx
            .sim
            .entries()
            .into_iter()
            .map(|mut e| {
                if let Some(stage) = e.stage.strip_prefix("tenant0:") {
                    e.stage = stage.to_string();
                }
                e
            })
            .collect();
        assert_eq!(unlaned, solo_ctx.sim.entries());

        let expected = bits(solo.apply(&held_out, &solo_ctx));
        for tenant in &fitted {
            assert_eq!(bits(tenant.apply(&held_out, &ctx)), expected);
        }
    }

    #[test]
    fn report_values_are_finite_and_defined_on_every_path() {
        let lru = CachingStrategy::Lru {
            admission_fraction: 1.0,
        };
        // (name, tenants, options, shared plan runs, model prices the forest)
        let paths = [
            (
                "one tenant",
                1,
                true,
                profiled(PipelineOptions::pipe_only()),
                false,
                false,
            ),
            (
                "no optimization",
                2,
                true,
                PipelineOptions::none(),
                false,
                false,
            ),
            (
                "lru",
                2,
                true,
                profiled(PipelineOptions::pipe_only().with_caching(lru)),
                false,
                false,
            ),
            (
                "declined",
                2,
                false,
                profiled(PipelineOptions::pipe_only()),
                false,
                true,
            ),
            (
                "shared",
                2,
                true,
                profiled(PipelineOptions::pipe_only()),
                true,
                true,
            ),
        ];
        for (name, n, trunk, opts, shared, priced) in paths {
            let tenants = two_tenants(trunk);
            let ctx = ExecContext::default_cluster();
            let (fitted, report) = fit_forest(&tenants[..n], &ctx, &opts);
            assert_eq!(fitted.len(), n, "{name}");
            assert_eq!(report.shared, shared, "{name}");
            assert_eq!(report.estimate.is_some(), priced, "{name}");
            assert_eq!(report.fit.is_some(), shared, "{name}");
            assert_eq!(
                report.solo_reports.len(),
                if shared { 0 } else { n },
                "{name}"
            );
            assert!(report.speedup().is_finite(), "{name}");
            assert_eq!(report.speedup() > 1.0, shared, "{name}");
            assert_eq!(report.forest_secs, ctx.sim.total_seconds(), "{name}");
            assert_eq!(report.tenants.len(), n, "{name}");
            for row in &report.tenants {
                assert!(row.sim_secs.is_finite() && row.sim_secs >= 0.0, "{name}");
                assert!(row.solo_secs.is_finite() && row.solo_secs >= 0.0, "{name}");
            }
            if let Some(e) = &report.estimate {
                assert!(e.shared_secs.is_finite() && e.shared_secs >= 0.0, "{name}");
                assert_eq!(e.favours_sharing(), shared, "{name}");
            }
            // A trace claims merges and forest-wide picks only when the
            // shared plan ran.
            let merges = ctx
                .tracer
                .events()
                .iter()
                .filter(|e| matches!(e.event, TraceEvent::CrossCseMerge { .. }))
                .count();
            assert_eq!(merges, report.cross_merges.len(), "{name}");
            assert_eq!(merges > 0, shared, "{name}");
            // Every node CSE removed is traced as a `CseMerge` duplicate by
            // whichever plan ran.
            let duplicates: usize = ctx
                .tracer
                .events()
                .iter()
                .map(|e| match &e.event {
                    TraceEvent::CseMerge { duplicates, .. } => *duplicates,
                    _ => 0,
                })
                .sum();
            let eliminated = match &report.fit {
                Some(fit) => fit.eliminated_nodes,
                None => report.solo_reports.iter().map(|r| r.eliminated_nodes).sum(),
            };
            assert_eq!(duplicates, eliminated, "{name}");
            assert!(!shared || eliminated > 0, "{name}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::operator::{
        AnyData, ErasedEstimator, ErasedTransformer, Estimator, Transformer, TypedEstimator,
        TypedTransformer,
    };
    use keystone_dataflow::collection::DistCollection;
    use proptest::prelude::*;
    use std::sync::Arc;

    struct Id;
    impl Transformer<f64, f64> for Id {
        fn apply(&self, x: &f64) -> f64 {
            *x
        }
    }

    struct MeanEst;
    impl Estimator<f64, f64> for MeanEst {
        fn fit(
            &self,
            _data: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            Box::new(Id)
        }
    }

    /// Shared building blocks for a forest: operator `Arc`s and the data
    /// source `AnyData` are created once and cloned into every tenant graph,
    /// because CSE structural identity is `Arc`/pointer identity — exactly
    /// the sharing a real sweep's prefix cloning produces.
    struct ForestKit {
        src: AnyData,
        ops: Vec<Arc<dyn ErasedTransformer>>,
        ests: Vec<Arc<dyn ErasedEstimator>>,
    }

    impl ForestKit {
        fn new() -> Self {
            ForestKit {
                src: AnyData::wrap(DistCollection::from_vec(vec![1.0f64, 2.0], 1)),
                ops: (0..4)
                    .map(|_| Arc::new(TypedTransformer::new(Id)) as _)
                    .collect(),
                ests: (0..4)
                    .map(|_| Arc::new(TypedEstimator::new(MeanEst)) as _)
                    .collect(),
            }
        }

        /// Builds one tenant graph: shared source, `trunk` transform stages,
        /// `head` transform stages, then one estimator (+ model apply) —
        /// `est_idx` selects which estimator `Arc`, so tenants can share or
        /// not share their estimator boundary.
        fn tenant(&self, trunk: &[usize], head: &[usize], est_idx: usize) -> (Graph, NodeId) {
            let mut g = Graph::new();
            let mut cur = g.add(NodeKind::DataSource(self.src.clone()), vec![], "src");
            for (i, &op) in trunk.iter().enumerate() {
                cur = g.add(
                    NodeKind::Transform(self.ops[op % self.ops.len()].clone()),
                    vec![cur],
                    format!("trunk{i}"),
                );
            }
            for (i, &op) in head.iter().enumerate() {
                cur = g.add(
                    NodeKind::Transform(self.ops[op % self.ops.len()].clone()),
                    vec![cur],
                    format!("head{i}"),
                );
            }
            let est = g.add(
                NodeKind::Estimate(self.ests[est_idx % self.ests.len()].clone()),
                vec![cur],
                "est",
            );
            let apply = g.add(NodeKind::ModelApply, vec![est, cur], "apply");
            (g, apply)
        }
    }

    /// The permutation-stable identity of a merge event set: node ids shift
    /// with tenant order, but (signature, label, tenants) must not.
    fn merge_keys(merges: &[CrossMerge]) -> Vec<(u64, String, usize)> {
        let mut keys: Vec<_> = merges
            .iter()
            .map(|m| (m.signature, m.label.clone(), m.tenants))
            .collect();
        keys.sort();
        keys
    }

    fn forest_strategy() -> impl Strategy<
        Value = (
            Vec<usize>,      // trunk op picks (shared by all tenants)
            Vec<Vec<usize>>, // per-tenant head op picks
        ),
    > {
        (
            proptest::collection::vec(0usize..4, 0..5),
            proptest::collection::vec(proptest::collection::vec(0usize..4, 0..4), 2..5),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merging the already-merged forest again (every tenant handing in
        /// the same canonical graph) collapses straight back to it: same
        /// node count, same merge-event identity.
        #[test]
        fn prop_merge_idempotent(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            let tenants: Vec<(Graph, NodeId)> = heads
                .iter()
                .enumerate()
                .map(|(t, head)| kit.tenant(&trunk, head, t))
                .collect();
            let once = merge_forest(&tenants);
            let again: Vec<(Graph, NodeId)> = once
                .outputs
                .iter()
                .map(|&o| (once.graph.clone(), o))
                .collect();
            let twice = merge_forest(&again);
            prop_assert_eq!(twice.graph.len(), once.graph.len());
            prop_assert_eq!(
                twice.eliminated,
                (again.len() - 1) * once.graph.len()
            );
            prop_assert_eq!(merge_keys(&twice.merges), merge_keys(&once.merges));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tenant order is presentation, not semantics: permuting the
        /// tenants yields the same merge-event identity set and the same
        /// amount of sharing.
        #[test]
        fn prop_merge_order_invariant(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            let tenants: Vec<(Graph, NodeId)> = heads
                .iter()
                .enumerate()
                .map(|(t, head)| kit.tenant(&trunk, head, t))
                .collect();
            let forward = merge_forest(&tenants);
            let reversed: Vec<(Graph, NodeId)> = tenants.iter().rev().cloned().collect();
            let backward = merge_forest(&reversed);
            prop_assert_eq!(forward.graph.len(), backward.graph.len());
            prop_assert_eq!(forward.eliminated, backward.eliminated);
            prop_assert_eq!(merge_keys(&forward.merges), merge_keys(&backward.merges));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The canonicalizer never merges across an estimator boundary:
        /// tenants with distinct estimator `Arc`s keep distinct Estimate and
        /// ModelApply nodes even under a fully shared trunk, so every merge
        /// event names a trunk node.
        #[test]
        fn prop_no_merge_across_estimator_boundary(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            // Identical heads maximize mergeable structure; only the
            // estimator Arc differs per tenant.
            let tenants: Vec<(Graph, NodeId)> = (0..heads.len())
                .map(|t| kit.tenant(&trunk, &trunk, t))
                .collect();
            let merged = merge_forest(&tenants);
            let est_nodes = merged
                .graph
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NodeKind::Estimate(_)))
                .count();
            prop_assert_eq!(est_nodes, tenants.len());
            // Outputs (the per-tenant ModelApply nodes) stay distinct.
            let mut outs = merged.outputs.clone();
            outs.sort_unstable();
            outs.dedup();
            prop_assert_eq!(outs.len(), tenants.len());
            for m in &merged.merges {
                prop_assert!(
                    m.label != "est" && m.label != "apply",
                    "merged across estimator boundary: {:?}", m
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// N=1 degenerates to single-pipeline CSE bitwise: same node
        /// sequence (labels and inputs), same elimination count, no merge
        /// events.
        #[test]
        fn prop_single_tenant_degenerates_to_cse(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            let (g, out) = kit.tenant(&trunk, &heads[0], 0);
            let solo = eliminate_common_subexpressions(&g);
            let merged = merge_forest(&[(g.clone(), out)]);
            prop_assert_eq!(merged.graph.len(), solo.graph.len());
            for (a, b) in merged.graph.nodes.iter().zip(&solo.graph.nodes) {
                prop_assert_eq!(&a.label, &b.label);
                prop_assert_eq!(&a.inputs, &b.inputs);
            }
            prop_assert_eq!(merged.outputs[0], solo.remap[&out]);
            prop_assert_eq!(merged.eliminated, solo.eliminated);
            prop_assert!(merged.merges.is_empty());
        }
    }

    fn lane_lens() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0usize..6, 1..5)
    }

    /// Lanes of distinct wave ids, numbered in submission order.
    fn build_lanes(lens: &[usize]) -> Vec<Vec<NodeId>> {
        let mut next = 0;
        lens.iter()
            .map(|&len| {
                let lane = (next..next + len).collect();
                next += len;
                lane
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Work-conserving and per-lane order-preserving: every submitted
        /// wave is dispatched exactly once, and each lane's waves appear in
        /// submission order.
        #[test]
        fn prop_interleave_work_conserving(lens in lane_lens()) {
            let lanes = build_lanes(&lens);
            let order = interleave_waves(&lanes);
            let total: usize = lanes.iter().map(Vec::len).sum();
            prop_assert_eq!(order.len(), total);
            for (t, lane) in lanes.iter().enumerate() {
                let got: Vec<NodeId> = order
                    .iter()
                    .filter(|(tenant, _)| *tenant == t)
                    .map(|&(_, node)| node)
                    .collect();
                prop_assert_eq!(&got, lane);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Starvation-free: while a lane still has waves queued, at most
        /// N−1 waves from other lanes run between two of its consecutive
        /// dispatches.
        #[test]
        fn prop_interleave_bounded_wave_gap(lens in lane_lens()) {
            let lanes = build_lanes(&lens);
            let n = lanes.len();
            let order = interleave_waves(&lanes);
            for t in 0..n {
                let positions: Vec<usize> = order
                    .iter()
                    .enumerate()
                    .filter(|(_, (tenant, _))| *tenant == t)
                    .map(|(i, _)| i)
                    .collect();
                for pair in positions.windows(2) {
                    prop_assert!(
                        pair[1] - pair[0] <= n,
                        "lane {} starved: gap {} with {} lanes",
                        t, pair[1] - pair[0], n
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Deterministic: the schedule is a pure function of the input.
        #[test]
        fn prop_interleave_deterministic(lens in lane_lens()) {
            let lanes = build_lanes(&lens);
            prop_assert_eq!(interleave_waves(&lanes), interleave_waves(&lanes));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One lane collapses to input order — today's single-pipeline wave
        /// order.
        #[test]
        fn prop_interleave_single_lane_is_input_order(
            lane in proptest::collection::vec(0usize..64, 0..8)
        ) {
            let order = interleave_waves(std::slice::from_ref(&lane));
            let nodes: Vec<NodeId> = order.iter().map(|&(_, node)| node).collect();
            prop_assert!(order.iter().all(|&(tenant, _)| tenant == 0));
            prop_assert_eq!(nodes, lane);
        }
    }
}
