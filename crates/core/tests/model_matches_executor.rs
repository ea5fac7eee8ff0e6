//! Cross-validation of the §4.3 cost model against the real executor: the
//! `C(v)` recurrence in `MatProblem::exec_counts` must predict exactly how
//! many times the depth-first executor computes each node, for any cache
//! set — otherwise the materialization optimizer would be optimizing a
//! fiction.

use std::collections::HashSet;
use std::sync::Arc;

use keystone_core::context::ExecContext;
use keystone_core::executor::Executor;
use keystone_core::graph::{Graph, NodeKind};
use keystone_core::operator::{AnyData, Estimator, Transformer, TypedEstimator, TypedTransformer};
use keystone_core::optimizer::materialize::{MatNode, MatProblem};
use keystone_dataflow::cache::{CacheManager, CachePolicy};
use keystone_dataflow::collection::DistCollection;

struct Add(f64);
impl Transformer<f64, f64> for Add {
    fn apply(&self, x: &f64) -> f64 {
        x + self.0
    }
}

/// Estimator that pulls its input `passes` times (like the solvers).
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
        let mut acc = 0.0;
        for _ in 0..self.passes {
            acc += data().aggregate(0.0, |a, x| a + x, |a, b| a + b);
        }
        Box::new(Add(acc))
    }
    fn weight(&self) -> u32 {
        self.passes
    }
}

/// Diamond + iterative estimator:
///   src -> a -> {b, c}; b,c -> join(estimator input via b only);
///   est(weight 3) over b; second estimator (weight 2) over c.
fn build() -> (Graph, Vec<usize>) {
    let mut g = Graph::new();
    let src = g.add(
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64; 8], 2))),
        vec![],
        "src",
    );
    let a = g.add(
        NodeKind::Transform(Arc::new(TypedTransformer::new(Add(1.0)))),
        vec![src],
        "a",
    );
    let b = g.add(
        NodeKind::Transform(Arc::new(TypedTransformer::new(Add(2.0)))),
        vec![a],
        "b",
    );
    let c = g.add(
        NodeKind::Transform(Arc::new(TypedTransformer::new(Add(3.0)))),
        vec![a],
        "c",
    );
    let e1 = g.add(
        NodeKind::Estimate(Arc::new(TypedEstimator::new(MultiPass { passes: 3 }))),
        vec![b],
        "est3",
    );
    let e2 = g.add(
        NodeKind::Estimate(Arc::new(TypedEstimator::new(MultiPass { passes: 2 }))),
        vec![c],
        "est2",
    );
    (g, vec![src, a, b, c, e1, e2])
}

fn problem_for(g: &Graph, sinks: &[usize]) -> MatProblem {
    let nodes = g
        .nodes
        .iter()
        .map(|n| {
            let (weight, always_cached) = match &n.kind {
                NodeKind::Estimate(op) => (op.weight(), true),
                NodeKind::DataSource(_) | NodeKind::RuntimeInput => (1, true),
                _ => (1, false),
            };
            MatNode {
                t_secs: 1.0,
                size_bytes: 1,
                weight,
                always_cached,
                inputs: n.inputs.clone(),
                label: n.label.clone(),
            }
        })
        .collect();
    MatProblem {
        nodes,
        sinks: sinks.to_vec(),
    }
}

fn check_cache_set(cache_ids: &[usize]) {
    let (g, ids) = build();
    let (e1, e2) = (ids[4], ids[5]);
    let problem = problem_for(&g, &[e1, e2]);
    let set: HashSet<usize> = cache_ids.iter().copied().collect();
    let predicted = problem.exec_counts(&set);

    let keys: HashSet<u64> = cache_ids.iter().map(|&v| v as u64).collect();
    let cache = Arc::new(CacheManager::new(1 << 20, CachePolicy::Pinned(keys)));
    let exec = Executor::new(&g, ExecContext::default_cluster(), cache);
    let _ = exec.eval(e1);
    let _ = exec.eval(e2);
    let actuals = exec.ctx().tracer.node_actuals();

    for (&id, &pred) in ids.iter().zip(predicted.iter()) {
        // Sources and model nodes are "always cached" in the model: their
        // predicted count is the number of *cost-bearing* executions (one),
        // and a source emits no `NodeEnd` at all. The recurrence only has
        // to be exact for recomputable nodes.
        if problem.nodes[id].always_cached {
            continue;
        }
        let actual = actuals.get(&id).map_or(0, |a| a.execs) as f64;
        assert!(
            (actual - pred).abs() < 1e-9,
            "cache {:?}: node {} ({}) predicted {} executions, executor did {}",
            cache_ids,
            id,
            g.nodes[id].label,
            pred,
            actual
        );
    }
}

#[test]
fn model_matches_executor_without_cache() {
    // a is pulled 3 times via b and 2 times via c = 5 computations.
    check_cache_set(&[]);
}

#[test]
fn model_matches_executor_with_b_cached() {
    check_cache_set(&[2]);
}

#[test]
fn model_matches_executor_with_a_cached() {
    check_cache_set(&[1]);
}

#[test]
fn model_matches_executor_with_everything_cached() {
    check_cache_set(&[1, 2, 3]);
}

#[test]
fn model_matches_executor_on_greedy_choice() {
    let (g, ids) = build();
    let problem = problem_for(&g, &[ids[4], ids[5]]);
    let greedy: Vec<usize> = problem.greedy_cache_set(u64::MAX).into_iter().collect();
    check_cache_set(&greedy);
}
