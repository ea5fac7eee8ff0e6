//! Adaptive re-optimization from observed traces (after Boehm et al.'s
//! online what-if costing of generated runtime plans).
//!
//! The optimizer's materialization picks come from subsample-extrapolated
//! estimates and *declared* iteration weights. Both can be wrong: an
//! estimator may read its input more often than `weight()` admits, a node
//! may run far slower at scale than the subsample predicted, and a pick
//! made under those errors can waste budget that a genuinely hot node
//! needs. This module closes the loop using only *observed* evidence:
//!
//! 1. **Recosting** — when a trigger fires, [`AdaptiveController::on_request`]
//!    clones the plan's [`MatProblem`] and overwrites each executed node's
//!    cost with the executor's measured
//!    [`NodeActuals`](crate::trace::NodeActuals) (simulated seconds per
//!    execution, de-amortized by the worker count; observed output bytes),
//!    then applies any [`AdaptiveHints::cost_overrides`] on top.
//!    Nodes that have not run keep their subsample extrapolations.
//! 2. **What-if re-planning** — [`AdaptiveController`] watches per-node
//!    request counts during fit. When a node is requested *more* often
//!    than the plan's [`MatProblem::request_counts`] predicted, it recosts
//!    the materialization problem as above, restricts it to the remaining
//!    demand and re-runs greedy Algorithm 1 on it.
//! 3. **Mid-fit revision** — the re-planned solution is applied at the
//!    wave boundary as a [`TraceEvent::PlanRevision`]: picks with no
//!    remaining demand are evicted (freeing budget), and recalibrated
//!    picks that fit the freed budget are promoted. The decision itself is
//!    charged to the simulated clock under an `adapt:` stage.
//!
//! The revision rules are *cost-monotone by construction*: an eviction
//! only drops entries nobody will ask for again (or that external
//! diagnosis evidence marked unpaid), and a promotion only adds cache
//! capacity — under the pinned policy an admission can never displace
//! another entry, and cache hits replace simulated compute charges. Since
//! cached values are the same bits a recompute would produce, adaptation
//! can change *cost only, never results* — the property the testkit's
//! differential oracle holds it to across its adaptive on/off axis.

use std::collections::HashSet;

use keystone_dataflow::cache::CacheManager;
use keystone_dataflow::json::JVal;
use keystone_dataflow::simclock::SimClock;
use parking_lot::Mutex;

use crate::graph::NodeId;
use crate::optimizer::materialize::MatProblem;
use crate::trace::{TraceEvent, Tracer};

/// Simulated coordination seconds one applied plan revision costs: the
/// driver-side decision is a metadata operation, priced like a barrier-free
/// scheduling step. Charged under the `adapt:revision` stage only when a
/// revision actually promotes or evicts something.
pub const ADAPT_DECISION_SECS: f64 = 1e-9;

/// External evidence the re-planner may consume, typically derived from a
/// prior run's diagnosis findings ([`crate::report::replanner_hints`]).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveHints {
    /// `(node, observed sim seconds per execution)` overrides — measured
    /// evidence that takes precedence over both the profile and the
    /// current run's actuals when the re-planner recosts the problem.
    pub cost_overrides: Vec<(NodeId, f64)>,
    /// Materialization picks a diagnosis flagged as unpaid (zero cache
    /// hits); the re-planner evicts them on its first revision even if the
    /// current run hasn't yet proven them dead.
    pub unpaid_picks: Vec<NodeId>,
}

/// One applied mid-fit plan revision, mirroring the
/// [`TraceEvent::PlanRevision`] wire event.
#[derive(Debug, Clone, PartialEq)]
pub struct RevisionRecord {
    /// Revision sequence number within the fit (1-based).
    pub wave: u64,
    /// Node ids promoted into the materialized set, ascending.
    pub promoted: Vec<NodeId>,
    /// Node ids evicted from the materialized set, ascending.
    pub evicted: Vec<NodeId>,
    /// Runtime saving the recalibrated model predicts for this revision.
    pub predicted_saving_secs: f64,
}

/// What adaptation did during one fit, surfaced as `FitReport.adaptation`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptationReport {
    /// How many nodes triggered recalibration (observed demand exceeded
    /// the plan's prediction).
    pub recalibrations: u64,
    /// Applied revisions, in order.
    pub revisions: Vec<RevisionRecord>,
    /// Total simulated seconds charged for revision decisions.
    pub decision_secs: f64,
}

impl AdaptationReport {
    /// Node ids promoted by any revision, ascending and deduplicated.
    pub fn promoted(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .revisions
            .iter()
            .flat_map(|r| r.promoted.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Node ids evicted by any revision, ascending and deduplicated.
    pub fn evicted(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .revisions
            .iter()
            .flat_map(|r| r.evicted.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The one JSON form: the artifact's `adaptation` section and, rendered,
    /// [`AdaptationReport::to_json`].
    pub fn to_jval(&self) -> JVal {
        let ids = |ids: &[NodeId]| JVal::Arr(ids.iter().map(|&n| JVal::UInt(n as u64)).collect());
        let revisions = self.revisions.iter().map(|r| {
            JVal::obj(vec![
                ("wave", JVal::UInt(r.wave)),
                ("promoted", ids(&r.promoted)),
                ("evicted", ids(&r.evicted)),
                ("predicted_saving_secs", JVal::Num(r.predicted_saving_secs)),
            ])
        });
        JVal::obj(vec![
            ("recalibrations", JVal::UInt(self.recalibrations)),
            ("revisions", JVal::Arr(revisions.collect())),
            ("decision_secs", JVal::Num(self.decision_secs)),
        ])
    }

    /// Deterministic JSON rendering (golden-pinned wire format).
    pub fn to_json(&self) -> String {
        self.to_jval().render()
    }
}

struct AdaptState {
    /// The materialization problem the fit was planned with (pre-fusion
    /// node ids, which survive fusion's id-stable rewrite).
    problem: MatProblem,
    /// Requests per node the plan predicted under the initial cache set.
    predicted: Vec<f64>,
    /// Requests per node actually observed so far.
    observed: Vec<u64>,
    /// The materialized set currently in force (initial picks ± revisions).
    current_set: HashSet<usize>,
    /// Nodes that already triggered recalibration (one trigger per node
    /// per fit).
    attempted: HashSet<usize>,
    /// Nodes ever evicted by a revision — never evicted again, never
    /// promoted back (revision soundness).
    evicted_ever: HashSet<usize>,
    /// Nodes ever promoted by a revision — never evicted by a later one.
    promoted_ever: HashSet<usize>,
    hints: AdaptiveHints,
    report: AdaptationReport,
}

/// Mid-fit re-planner: observes per-node demand from the executor's eval
/// hook and applies cost-only plan revisions at wave boundaries.
///
/// Lock discipline: `on_request` takes the internal state lock first, then
/// may read the tracer, ask the caller's `fitted` predicate and mutate the
/// cache; none of those ever calls back into the controller, so the order
/// is acyclic.
pub struct AdaptiveController {
    tracer: Tracer,
    sim: SimClock,
    workers: usize,
    budget: u64,
    state: Mutex<AdaptState>,
}

impl AdaptiveController {
    /// Builds a controller over the materialization problem a fit was
    /// planned with, its chosen cache set, and the budget it was solved
    /// under.
    pub fn new(
        problem: MatProblem,
        initial_set: HashSet<usize>,
        budget: u64,
        workers: usize,
        tracer: Tracer,
        sim: SimClock,
        hints: AdaptiveHints,
    ) -> Self {
        let predicted = problem.request_counts(&initial_set);
        let observed = vec![0u64; problem.nodes.len()];
        AdaptiveController {
            tracer,
            sim,
            workers,
            budget,
            state: Mutex::new(AdaptState {
                problem,
                predicted,
                observed,
                current_set: initial_set,
                attempted: HashSet::new(),
                evicted_ever: HashSet::new(),
                promoted_ever: HashSet::new(),
                hints,
                report: AdaptationReport::default(),
            }),
        }
    }

    /// Snapshot of what adaptation has done so far.
    pub fn report(&self) -> AdaptationReport {
        self.state.lock().report.clone()
    }

    /// The executor's eval-entry hook: counts one request against `node`
    /// and, when observed demand exceeds the plan's prediction, runs the
    /// recost → re-plan → revise sequence. `fitted` says whether an
    /// estimator node is already fitted (its future demand is zero) and is
    /// consulted only once a trigger fires; `cache` is the fit's live
    /// cache, which revisions mutate through its promote/demote overlay.
    pub fn on_request(&self, node: NodeId, fitted: impl Fn(NodeId) -> bool, cache: &CacheManager) {
        let mut state = self.state.lock();
        if node >= state.observed.len() {
            return;
        }
        state.observed[node] += 1;
        let observed = state.observed[node];
        let predicted = state.predicted[node];
        if (observed as f64) <= predicted + 1e-9
            || state.problem.nodes[node].always_cached
            || state.current_set.contains(&node)
            || state.attempted.contains(&node)
        {
            return;
        }
        state.attempted.insert(node);
        state.report.recalibrations += 1;
        self.tracer.record(TraceEvent::Recalibrate {
            node,
            label: state.problem.nodes[node].label.clone(),
            observed_requests: observed,
            predicted_requests: predicted,
        });

        // Recost the problem from observed evidence: hint overrides first,
        // then this run's actuals, then the original extrapolations.
        let actuals = self.tracer.node_actuals();
        let w = self.workers.max(1) as f64;
        let mut recal = state.problem.clone();
        for (id, a) in &actuals {
            if *id < recal.nodes.len() && a.execs > 0 {
                recal.nodes[*id].t_secs = a.sim_secs / a.execs as f64 * w;
                if a.out_bytes > 0 {
                    recal.nodes[*id].size_bytes = a.out_bytes;
                }
            }
        }
        for &(id, secs_per_exec) in &state.hints.cost_overrides {
            if id < recal.nodes.len() {
                recal.nodes[id].t_secs = secs_per_exec * w;
            }
        }
        // Remaining demand: fitted estimators are done (their models are
        // memoized), and the trigger node is owed at least the demand the
        // plan failed to predict.
        recal.sinks.retain(|&s| !fitted(s));
        let extra = ((observed as f64 - predicted.floor()).max(1.0)) as usize;
        for _ in 0..extra {
            recal.sinks.push(node);
        }

        // Evictions: picks with zero remaining demand under the
        // recalibrated problem (pure wins — nobody will ask again), plus
        // externally diagnosed unpaid picks. Promoted picks are immune.
        let requests = recal.request_counts(&state.current_set);
        let mut evicted: Vec<usize> = state
            .current_set
            .iter()
            .copied()
            .filter(|&v| {
                !state.promoted_ever.contains(&v)
                    && (requests[v] <= 0.0 || state.hints.unpaid_picks.contains(&v))
            })
            .collect();
        evicted.sort_unstable();

        // Promotions: what greedy Algorithm 1 wants on the recalibrated
        // problem, admitted in pick order while the post-eviction set still
        // has budget. Never resurrect an eviction.
        let after_evict: HashSet<usize> = state
            .current_set
            .iter()
            .copied()
            .filter(|v| !evicted.contains(v))
            .collect();
        let (_, picks) = recal.greedy_cache_set_traced(self.budget);
        let mut used = recal.set_bytes(&after_evict);
        let mut promoted: Vec<usize> = Vec::new();
        for pick in &picks {
            let v = pick.node;
            if state.current_set.contains(&v)
                || state.evicted_ever.contains(&v)
                || evicted.contains(&v)
            {
                continue;
            }
            let size = recal.nodes[v].size_bytes;
            if used.saturating_add(size) <= self.budget {
                used += size;
                promoted.push(v);
            }
        }
        promoted.sort_unstable();

        if promoted.is_empty() && evicted.is_empty() {
            return;
        }

        let before = recal.est_runtime(&state.current_set);
        let mut after_set = after_evict;
        after_set.extend(promoted.iter().copied());
        let predicted_saving_secs = before - recal.est_runtime(&after_set);

        for &v in &evicted {
            cache.demote(v as u64);
            state.current_set.remove(&v);
            state.evicted_ever.insert(v);
        }
        for &v in &promoted {
            cache.promote(v as u64);
            state.current_set.insert(v);
            state.promoted_ever.insert(v);
        }
        let wave = state.report.revisions.len() as u64 + 1;
        self.tracer.record(TraceEvent::PlanRevision {
            wave,
            promoted: promoted.clone(),
            evicted: evicted.clone(),
            predicted_saving_secs,
        });
        self.sim
            .charge_seconds("adapt:revision", 0.0, ADAPT_DECISION_SECS);
        state.report.decision_secs += ADAPT_DECISION_SECS;
        state.report.revisions.push(RevisionRecord {
            wave,
            promoted,
            evicted,
            predicted_saving_secs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::materialize::MatNode;
    use keystone_dataflow::cache::CachePolicy;

    fn node(t_secs: f64, size: u64, weight: u32, always: bool, inputs: Vec<usize>) -> MatNode {
        MatNode {
            t_secs,
            size_bytes: size,
            weight,
            always_cached: always,
            inputs,
            label: format!("n{}", t_secs),
        }
    }

    /// src -> work -> solver that *declares* weight 1 but actually pulls
    /// its input many times: the classic under-declared estimator.
    fn underdeclared_problem() -> (MatProblem, HashSet<usize>) {
        let problem = MatProblem {
            nodes: vec![
                node(0.0, 1, 1, true, vec![]),
                node(10.0, 100, 1, false, vec![0]),
                node(1.0, 1, 1, true, vec![1]), // estimator, declared weight 1
            ],
            sinks: vec![2],
        };
        // Declared demand never reuses `work`, so the greedy set is empty.
        let set = problem.greedy_cache_set(1000);
        assert!(set.is_empty(), "declared weights justify no pick");
        (problem, set)
    }

    fn controller(
        problem: MatProblem,
        set: HashSet<usize>,
        budget: u64,
        hints: AdaptiveHints,
    ) -> AdaptiveController {
        AdaptiveController::new(
            problem,
            set,
            budget,
            1,
            Tracer::default(),
            SimClock::default(),
            hints,
        )
    }

    /// No estimator has been fitted yet.
    fn unfitted(_: NodeId) -> bool {
        false
    }

    fn pinned_cache(keys: &HashSet<usize>, budget: u64) -> CacheManager {
        CacheManager::new(
            budget,
            CachePolicy::Pinned(keys.iter().map(|&k| k as u64).collect()),
        )
    }

    /// Whether `cache` admits a one-byte entry under `key`.
    fn admits(cache: &CacheManager, key: u64) -> bool {
        cache.put(key, std::sync::Arc::new(()), 1)
    }

    #[test]
    fn demand_within_prediction_never_triggers() {
        let (problem, set) = underdeclared_problem();
        let ctl = controller(problem, set.clone(), 1000, AdaptiveHints::default());
        let cache = pinned_cache(&set, 1000);
        // Exactly the predicted demand: one request per node.
        for n in [2usize, 1, 0] {
            ctl.on_request(n, unfitted, &cache);
        }
        let report = ctl.report();
        assert_eq!(report.recalibrations, 0);
        assert!(report.revisions.is_empty());
        assert_eq!(report.decision_secs, 0.0);
    }

    #[test]
    fn excess_demand_promotes_the_hot_node() {
        let (problem, set) = underdeclared_problem();
        let ctl = controller(problem, set.clone(), 1000, AdaptiveHints::default());
        let cache = pinned_cache(&set, 1000);
        ctl.on_request(2, unfitted, &cache);
        ctl.on_request(1, unfitted, &cache); // pass 1 — predicted
        ctl.on_request(1, unfitted, &cache); // pass 2 — excess: trigger
        let report = ctl.report();
        assert_eq!(report.recalibrations, 1);
        assert_eq!(report.revisions.len(), 1);
        let rev = &report.revisions[0];
        assert_eq!(rev.promoted, vec![1]);
        assert!(rev.evicted.is_empty());
        assert!(rev.predicted_saving_secs > 0.0);
        assert!((report.decision_secs - ADAPT_DECISION_SECS).abs() < 1e-18);
        // The cache admits the promoted key now.
        assert!(admits(&cache, 1));
        // Further passes must not re-trigger.
        for _ in 0..5 {
            ctl.on_request(1, unfitted, &cache);
        }
        assert_eq!(ctl.report().recalibrations, 1);
    }

    #[test]
    fn revision_soundness_an_eviction_is_never_revisited() {
        // Two estimators: est A (node 2, weight 3 over `a`) fits first and
        // its pick pays off; then est B (node 4) hammers `b` (node 3) far
        // past its declared weight. Budget fits only one of a/b.
        let problem = MatProblem {
            nodes: vec![
                node(0.0, 1, 1, true, vec![]),
                node(10.0, 100, 1, false, vec![0]), // a
                node(1.0, 1, 3, true, vec![1]),     // est A, weight 3
                node(12.0, 100, 1, false, vec![0]), // b
                node(1.0, 1, 1, true, vec![3]),     // est B, declared 1
            ],
            sinks: vec![2, 4],
        };
        let set = problem.greedy_cache_set(100);
        assert_eq!(set, [1usize].into_iter().collect(), "plan picks a");
        let ctl = controller(problem, set.clone(), 100, AdaptiveHints::default());
        let cache = pinned_cache(&set, 100);

        // Est A's three predicted passes over a.
        ctl.on_request(2, unfitted, &cache);
        for _ in 0..3 {
            ctl.on_request(1, unfitted, &cache);
        }
        // Est A is now fitted; est B starts hammering b.
        let fitted = |s: NodeId| s == 2;
        ctl.on_request(4, fitted, &cache);
        ctl.on_request(3, fitted, &cache);
        ctl.on_request(3, fitted, &cache); // excess → trigger
        let report = ctl.report();
        assert_eq!(report.recalibrations, 1);
        assert_eq!(report.revisions.len(), 1);
        let rev = &report.revisions[0];
        // a has no remaining demand (est A fitted) → evicted; b promoted
        // into the freed budget.
        assert_eq!(rev.evicted, vec![1]);
        assert_eq!(rev.promoted, vec![3]);
        assert!(!admits(&cache, 1));
        assert!(admits(&cache, 3));
        // Soundness: nothing later re-evicts 1's slot or re-promotes it.
        for _ in 0..10 {
            ctl.on_request(3, fitted, &cache);
            ctl.on_request(1, fitted, &cache);
        }
        let report = ctl.report();
        assert_eq!(report.revisions.len(), 1, "no second revision");
        for rev in &report.revisions {
            assert!(!rev.promoted.contains(&1));
        }
    }

    #[test]
    fn unpaid_hint_evicts_even_with_remaining_demand() {
        // Two branches off src: `work` (picked, diagnosed unpaid) and
        // `other` (whose excess demand triggers the revision). `work` still
        // has remaining declared demand, so only the hint can evict it.
        let problem = MatProblem {
            nodes: vec![
                node(0.0, 1, 1, true, vec![]),
                node(10.0, 100, 1, false, vec![0]), // work — picked, unpaid
                node(1.0, 1, 1, true, vec![1]),     // est over work
                node(5.0, 50, 1, false, vec![0]),   // other — under-declared
                node(1.0, 1, 1, true, vec![3]),     // est over other
            ],
            sinks: vec![2, 4],
        };
        let set: HashSet<usize> = [1].into_iter().collect();
        let hints = AdaptiveHints {
            cost_overrides: vec![],
            unpaid_picks: vec![1],
        };
        let ctl = controller(problem, set.clone(), 1000, hints);
        let cache = pinned_cache(&set, 1000);
        // `other`'s predicted demand is 1; the second request triggers.
        ctl.on_request(3, unfitted, &cache);
        ctl.on_request(3, unfitted, &cache);
        let report = ctl.report();
        assert_eq!(report.recalibrations, 1);
        assert_eq!(report.revisions.len(), 1);
        assert!(
            report.revisions[0].evicted.contains(&1),
            "hint must evict the unpaid pick: {:?}",
            report.revisions[0]
        );
        assert!(!admits(&cache, 1));
    }

    #[test]
    fn cost_override_hint_takes_precedence_over_actuals() {
        let (problem, set) = underdeclared_problem();
        let hints = AdaptiveHints {
            // Diagnosis says node 1 really costs 99 s/exec.
            cost_overrides: vec![(1, 99.0)],
            unpaid_picks: vec![],
        };
        let ctl = controller(problem, set.clone(), 1000, hints);
        let cache = pinned_cache(&set, 1000);
        ctl.on_request(1, unfitted, &cache);
        ctl.on_request(1, unfitted, &cache); // trigger
        let report = ctl.report();
        assert_eq!(report.revisions.len(), 1);
        // Saving reflects the override: caching 1 saves one extra 99 s
        // execution under the extra-demand sink.
        assert!(
            report.revisions[0].predicted_saving_secs >= 99.0 - 1e-9,
            "saving {} ignores the override",
            report.revisions[0].predicted_saving_secs
        );
    }

    #[test]
    fn adaptation_report_json_is_stable() {
        let report = AdaptationReport {
            recalibrations: 2,
            revisions: vec![RevisionRecord {
                wave: 1,
                promoted: vec![3, 5],
                evicted: vec![1],
                predicted_saving_secs: 12.5,
            }],
            decision_secs: ADAPT_DECISION_SECS,
        };
        assert_eq!(
            report.to_json(),
            "{\"decision_secs\":0.000000001,\"recalibrations\":2,\"revisions\":[{\
             \"evicted\":[1],\"predicted_saving_secs\":12.5,\"promoted\":[3,5],\"wave\":1}]}"
        );
        assert_eq!(report.promoted(), vec![3, 5]);
        assert_eq!(report.evicted(), vec![1]);
        let empty = AdaptationReport::default();
        assert_eq!(
            empty.to_json(),
            "{\"decision_secs\":0.0,\"recalibrations\":0,\"revisions\":[]}"
        );
    }
}
