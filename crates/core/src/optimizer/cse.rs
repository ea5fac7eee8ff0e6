//! Common sub-expression elimination (§4.2).
//!
//! Pipelines duplicate work structurally: every `and_then(est, data)` clones
//! the preceding prefix over the training data, so a text pipeline that both
//! selects common features and trains a classifier tokenizes the corpus
//! twice in the unoptimized DAG. CSE merges structurally identical nodes
//! (same operator instance over the same, already-merged inputs) so the
//! computation runs once.

use std::collections::HashMap;

use crate::graph::{Graph, NodeId};

/// Result of CSE: the rewritten graph plus the old-id → new-id mapping.
pub struct CseResult {
    /// Deduplicated graph.
    pub graph: Graph,
    /// Mapping from original node ids to merged ids.
    pub remap: HashMap<NodeId, NodeId>,
    /// Number of nodes eliminated.
    pub eliminated: usize,
}

impl CseResult {
    /// Every merged group (a kept node and the duplicates dropped into it) as
    /// its `CseMerge` event, ascending by kept id; duplicates sum to `eliminated`.
    pub fn merge_groups(&self) -> Vec<crate::trace::TraceEvent> {
        let mut sizes = vec![0usize; self.graph.len()];
        self.remap.values().for_each(|&new| sizes[new] += 1);
        let kept = (0..sizes.len()).filter(|&k| sizes[k] > 1);
        kept.map(|kept| crate::trace::TraceEvent::CseMerge {
            kept,
            label: self.graph.nodes[kept].label.clone(),
            duplicates: sizes[kept] - 1,
        })
        .collect()
    }
}

/// Merges structurally identical nodes. Structural identity is defined by
/// the node kind tag, the operator/data `Arc` identity, and the (merged)
/// input ids — exactly the sharing that prefix cloning preserves.
pub fn eliminate_common_subexpressions(graph: &Graph) -> CseResult {
    let mut out = Graph::new();
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    // Keyed on the tuple itself, over the *merged* inputs, so that chains of
    // duplicates collapse transitively and no two distinct computations can
    // ever share a key.
    let mut canon: HashMap<(u8, usize, Vec<NodeId>), NodeId> = HashMap::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let new_inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i]).collect();
        let key = (node.kind.tag(), node.kind.identity(), new_inputs.clone());
        let new_id = *canon
            .entry(key)
            .or_insert_with(|| out.add(node.kind.clone(), new_inputs, node.label.clone()));
        remap.insert(id, new_id);
    }
    let eliminated = graph.len() - out.len();
    CseResult {
        graph: out,
        remap,
        eliminated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;
    use crate::operator::{AnyData, ErasedTransformer, Transformer, TypedTransformer};
    use crate::trace::TraceEvent;
    use keystone_dataflow::collection::DistCollection;
    use std::sync::Arc;

    struct AddOne;
    impl Transformer<f64, f64> for AddOne {
        fn apply(&self, x: &f64) -> f64 {
            x + 1.0
        }
    }

    fn shared_op() -> Arc<dyn ErasedTransformer> {
        Arc::new(TypedTransformer::new(AddOne))
    }

    fn source() -> NodeKind {
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64], 1)))
    }

    #[test]
    fn merges_duplicated_chain() {
        let mut g = Graph::new();
        let src = g.add(source(), vec![], "src");
        let op1 = shared_op();
        let op2 = shared_op();
        // Two copies of the same two-op chain over the same source.
        let a1 = g.add(NodeKind::Transform(op1.clone()), vec![src], "a");
        let b1 = g.add(NodeKind::Transform(op2.clone()), vec![a1], "b");
        let a2 = g.add(NodeKind::Transform(op1), vec![src], "a");
        let b2 = g.add(NodeKind::Transform(op2), vec![a2], "b");
        let r = eliminate_common_subexpressions(&g);
        assert_eq!(r.eliminated, 2);
        assert_eq!(r.remap[&a1], r.remap[&a2]);
        assert_eq!(r.remap[&b1], r.remap[&b2]);
        assert_eq!(r.graph.len(), 3);
    }

    #[test]
    fn distinct_ops_not_merged() {
        let mut g = Graph::new();
        let src = g.add(source(), vec![], "src");
        let a = g.add(NodeKind::Transform(shared_op()), vec![src], "a");
        let b = g.add(NodeKind::Transform(shared_op()), vec![src], "b");
        let r = eliminate_common_subexpressions(&g);
        assert_eq!(r.eliminated, 0);
        assert_ne!(r.remap[&a], r.remap[&b]);
    }

    #[test]
    fn distinct_sources_not_merged() {
        let mut g = Graph::new();
        let s1 = g.add(source(), vec![], "s1");
        let s2 = g.add(source(), vec![], "s2");
        let op = shared_op();
        let a = g.add(NodeKind::Transform(op.clone()), vec![s1], "a");
        let b = g.add(NodeKind::Transform(op), vec![s2], "b");
        let r = eliminate_common_subexpressions(&g);
        assert_ne!(r.remap[&a], r.remap[&b]);
    }

    #[test]
    fn transitive_merging_through_chains() {
        let mut g = Graph::new();
        let src = g.add(source(), vec![], "src");
        let op1 = shared_op();
        let op2 = shared_op();
        let op3 = shared_op();
        // Chain copies of depth 3.
        let mut last = Vec::new();
        for _ in 0..3 {
            let a = g.add(NodeKind::Transform(op1.clone()), vec![src], "a");
            let b = g.add(NodeKind::Transform(op2.clone()), vec![a], "b");
            let c = g.add(NodeKind::Transform(op3.clone()), vec![b], "c");
            last.push(c);
        }
        let r = eliminate_common_subexpressions(&g);
        assert_eq!(r.eliminated, 6);
        assert_eq!(r.remap[&last[0]], r.remap[&last[1]]);
        assert_eq!(r.remap[&last[1]], r.remap[&last[2]]);
        // Three copies of a, b, c each collapse to one kept node.
        let groups: Vec<_> = r
            .merge_groups()
            .into_iter()
            .map(|e| match e {
                TraceEvent::CseMerge {
                    kept,
                    label,
                    duplicates,
                } => (kept, label, duplicates),
                other => panic!("{other:?}"),
            })
            .collect();
        let expect = [(1, "a"), (2, "b"), (3, "c")].map(|(k, l)| (k, l.to_string(), 2));
        assert_eq!(groups, expect);
    }

    #[test]
    fn remap_preserves_reachability() {
        let mut g = Graph::new();
        let src = g.add(source(), vec![], "src");
        let op = shared_op();
        let a = g.add(NodeKind::Transform(op.clone()), vec![src], "a");
        let b = g.add(NodeKind::Transform(op), vec![src], "b"); // duplicate of a
        let apply = g.add(NodeKind::ModelApply, vec![a, b], "apply");
        let r = eliminate_common_subexpressions(&g);
        let new_apply = r.remap[&apply];
        let inputs = &r.graph.nodes[new_apply].inputs;
        assert_eq!(inputs[0], inputs[1], "both inputs collapse to one node");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::NodeKind;
    use crate::operator::{AnyData, ErasedTransformer, Transformer, TypedTransformer};
    use crate::trace::TraceEvent;
    use keystone_dataflow::collection::DistCollection;
    use proptest::prelude::*;
    use std::sync::Arc;

    struct Id;
    impl Transformer<f64, f64> for Id {
        fn apply(&self, x: &f64) -> f64 {
            *x
        }
    }

    /// Builds a random graph over a small pool of shared operators, so
    /// duplicates occur naturally.
    fn random_graph(spec: &[(usize, usize)]) -> Graph {
        let pool: Vec<Arc<dyn ErasedTransformer>> = (0..3)
            .map(|_| Arc::new(TypedTransformer::new(Id)) as _)
            .collect();
        let mut g = Graph::new();
        let src = g.add(
            NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64], 1))),
            vec![],
            "src",
        );
        for &(op_idx, input_offset) in spec {
            let input = if g.len() == 1 {
                src
            } else {
                input_offset % g.len()
            };
            g.add(
                NodeKind::Transform(pool[op_idx % pool.len()].clone()),
                vec![input],
                format!("t{}", op_idx),
            );
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CSE is idempotent: a second pass eliminates nothing.
        #[test]
        fn prop_cse_idempotent(spec in proptest::collection::vec((0usize..3, 0usize..8), 1..12)) {
            let g = random_graph(&spec);
            let once = eliminate_common_subexpressions(&g);
            let twice = eliminate_common_subexpressions(&once.graph);
            prop_assert_eq!(twice.eliminated, 0);
            prop_assert_eq!(twice.graph.len(), once.graph.len());
        }

        /// Remap is total and structure-preserving: every original node maps
        /// to a node of the same kind whose (mapped) inputs match.
        #[test]
        fn prop_cse_remap_preserves_structure(spec in proptest::collection::vec((0usize..3, 0usize..8), 1..12)) {
            let g = random_graph(&spec);
            let r = eliminate_common_subexpressions(&g);
            for (id, node) in g.nodes.iter().enumerate() {
                let new_id = *r.remap.get(&id).expect("total remap");
                let new_node = &r.graph.nodes[new_id];
                prop_assert_eq!(node.inputs.len(), new_node.inputs.len());
                for (a, b) in node.inputs.iter().zip(&new_node.inputs) {
                    prop_assert_eq!(r.remap[a], *b);
                }
            }
        }

        /// Node count never grows.
        #[test]
        fn prop_cse_never_grows(spec in proptest::collection::vec((0usize..3, 0usize..8), 1..12)) {
            let g = random_graph(&spec);
            let r = eliminate_common_subexpressions(&g);
            prop_assert!(r.graph.len() <= g.len());
            prop_assert_eq!(g.len() - r.graph.len(), r.eliminated);
            let groups: Vec<(NodeId, usize)> = r
                .merge_groups()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::CseMerge { kept, duplicates, .. } => Some((kept, duplicates)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(groups.iter().map(|&(_, d)| d).sum::<usize>(), r.eliminated);
            prop_assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    use self::keystone_core_estimator_pool::random_pipeline_graph;
    use crate::operator::TypedEstimator;

    /// Shared estimator/transformer pool for pipeline-shaped random graphs:
    /// estimator duplicates occur naturally the same way prefix cloning
    /// produces them in real pipelines.
    mod keystone_core_estimator_pool {
        use super::{AnyData, DistCollection, Id, NodeKind, TypedEstimator, TypedTransformer};
        use crate::context::ExecContext;
        use crate::graph::Graph;
        use crate::operator::{ErasedEstimator, ErasedTransformer, Estimator, Transformer};
        use std::sync::Arc;

        pub struct MeanFit;
        impl Estimator<f64, f64> for MeanFit {
            fn fit(
                &self,
                data: &DistCollection<f64>,
                _ctx: &ExecContext,
            ) -> Box<dyn Transformer<f64, f64>> {
                let mu = data.aggregate(0.0, |a, x| a + x, |a, b| a + b);
                struct Shift(f64);
                impl Transformer<f64, f64> for Shift {
                    fn apply(&self, x: &f64) -> f64 {
                        x - self.0
                    }
                }
                Box::new(Shift(mu))
            }
        }

        /// Builds a pipeline-shaped random graph: runtime input + source,
        /// then transform / estimate+apply steps wired to earlier nodes.
        pub fn random_pipeline_graph(spec: &[(usize, usize)]) -> (Graph, crate::graph::NodeId) {
            let t_pool: Vec<Arc<dyn ErasedTransformer>> = (0..3)
                .map(|_| Arc::new(TypedTransformer::new(Id)) as _)
                .collect();
            let e_pool: Vec<Arc<dyn ErasedEstimator>> = (0..2)
                .map(|_| Arc::new(TypedEstimator::new(MeanFit)) as _)
                .collect();
            let mut g = Graph::new();
            let input = g.add(NodeKind::RuntimeInput, vec![], "input");
            let _src = g.add(
                NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64], 1))),
                vec![],
                "src",
            );
            let mut out = input;
            for &(op_idx, input_offset) in spec {
                let pick = input_offset % g.len();
                if op_idx < 3 {
                    out = g.add(
                        NodeKind::Transform(t_pool[op_idx].clone()),
                        vec![pick],
                        format!("t{op_idx}"),
                    );
                } else {
                    let est = g.add(
                        NodeKind::Estimate(e_pool[op_idx - 3].clone()),
                        vec![pick],
                        format!("e{}", op_idx - 3),
                    );
                    out = g.add(NodeKind::ModelApply, vec![est, out], "apply");
                }
            }
            (g, out)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Differential idempotence on estimator-bearing graphs: the CSE of a
        /// CSE'd graph is the identity — same node count, identity remap.
        #[test]
        fn prop_cse_idempotent_with_estimators(spec in proptest::collection::vec((0usize..5, 0usize..10), 1..14)) {
            let (g, _out) = random_pipeline_graph(&spec);
            let once = eliminate_common_subexpressions(&g);
            let twice = eliminate_common_subexpressions(&once.graph);
            prop_assert_eq!(twice.eliminated, 0);
            prop_assert_eq!(twice.graph.len(), once.graph.len());
            for id in 0..once.graph.len() {
                prop_assert_eq!(twice.remap[&id], id, "second pass moved node {}", id);
            }
        }

        /// CSE preserves the topological reachability of fit roots: the
        /// estimators feeding the output before CSE map exactly onto the
        /// estimators feeding the mapped output afterwards.
        #[test]
        fn prop_cse_preserves_fit_roots(spec in proptest::collection::vec((0usize..5, 0usize..10), 1..14)) {
            use std::collections::BTreeSet;
            let (g, out) = random_pipeline_graph(&spec);
            let roots = crate::optimizer::fit_roots(&g, out);
            let r = eliminate_common_subexpressions(&g);
            let mapped: BTreeSet<NodeId> = roots.iter().map(|root| r.remap[root]).collect();
            let after: BTreeSet<NodeId> =
                crate::optimizer::fit_roots(&r.graph, r.remap[&out]).into_iter().collect();
            prop_assert_eq!(&mapped, &after, "fit roots changed under CSE");
            // Every mapped root must remain a topological ancestor of the
            // mapped output.
            let anc = r.graph.ancestors(&[r.remap[&out]]);
            for root in &mapped {
                prop_assert!(anc.contains(root), "root {} unreachable from output", root);
            }
        }
    }
}
