//! The pipeline operator DAG (Fig. 1 step 2 / Fig. 5).
//!
//! Nodes are sources (either the apply-time runtime input or concrete bound
//! training data), transformers, estimators, and model applications. The
//! graph is append-only during construction; the optimizer produces rewritten
//! copies (CSE-merged, physical operators selected).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::operator::{AnyData, ErasedEstimator, ErasedTransformer};

/// Index of a node in its graph.
pub type NodeId = usize;

/// What a node computes.
#[derive(Clone)]
pub enum NodeKind {
    /// Placeholder for the dataset the fitted pipeline is applied to.
    RuntimeInput,
    /// Concrete data bound at construction time (training data, labels).
    DataSource(AnyData),
    /// A transformer; may take several data inputs (gather).
    Transform(Arc<dyn ErasedTransformer>),
    /// An estimator; produces a model. `inputs[0]` is training data,
    /// `inputs[1]` (if present) labels.
    Estimate(Arc<dyn ErasedEstimator>),
    /// Applies a model: `inputs = [model_node, data_node]`.
    ModelApply,
}

impl NodeKind {
    /// Small discriminant for structural keys.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            NodeKind::RuntimeInput => 0,
            NodeKind::DataSource(_) => 1,
            NodeKind::Transform(_) => 2,
            NodeKind::Estimate(_) => 3,
            NodeKind::ModelApply => 4,
        }
    }

    /// Kind name (`input`/`source`/`transform`/`estimate`/`apply`), as
    /// [`Graph::summary`] and the run artifact's plan section print it.
    pub fn name(&self) -> &'static str {
        match self {
            NodeKind::RuntimeInput => "input",
            NodeKind::DataSource(_) => "source",
            NodeKind::Transform(_) => "transform",
            NodeKind::Estimate(_) => "estimate",
            NodeKind::ModelApply => "apply",
        }
    }

    /// Identity of the operator/data for structural keys: `Arc` pointer
    /// identity, which is exactly what prefix-cloning preserves.
    pub(crate) fn identity(&self) -> usize {
        match self {
            NodeKind::RuntimeInput => 1,
            NodeKind::DataSource(d) => d.ptr_id(),
            NodeKind::Transform(op) => Arc::as_ptr(op) as *const () as usize,
            NodeKind::Estimate(op) => Arc::as_ptr(op) as *const () as usize,
            NodeKind::ModelApply => 2,
        }
    }
}

/// One DAG node.
#[derive(Clone)]
pub struct Node {
    /// The computation.
    pub kind: NodeKind,
    /// Input node ids (order matters).
    pub inputs: Vec<NodeId>,
    /// Human-readable label for plots and Graphviz dumps.
    pub label: String,
}

/// The pipeline DAG.
#[derive(Clone, Default)]
pub struct Graph {
    /// Nodes in insertion order; inputs always precede users.
    pub nodes: Vec<Node>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Appends a node.
    pub fn add(&mut self, kind: NodeKind, inputs: Vec<NodeId>, label: impl Into<String>) -> NodeId {
        for &i in &inputs {
            assert!(i < self.nodes.len(), "input {} does not exist", i);
        }
        self.nodes.push(Node {
            kind,
            inputs,
            label: label.into(),
        });
        self.nodes.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Successor lists (who consumes each node).
    pub fn successors(&self) -> Vec<Vec<NodeId>> {
        let mut succ = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &input in &node.inputs {
                succ[input].push(id);
            }
        }
        succ
    }

    /// All ancestors of `roots` (inclusive).
    pub fn ancestors(&self, roots: &[NodeId]) -> HashSet<NodeId> {
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(self.nodes[id].inputs.iter().copied());
            }
        }
        seen
    }

    /// Nodes that (transitively) depend on `source`, including it.
    pub fn dependents(&self, source: NodeId) -> HashSet<NodeId> {
        let succ = self.successors();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut stack = vec![source];
        while let Some(id) = stack.pop() {
            if seen.insert(id) {
                stack.extend(succ[id].iter().copied());
            }
        }
        seen
    }

    /// Topological order restricted to the ancestors of `roots`
    /// (dependencies first). Because nodes are append-only, insertion order
    /// is already topological; we just filter.
    pub fn topo_ancestors(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let anc = self.ancestors(roots);
        (0..self.nodes.len())
            .filter(|id| anc.contains(id))
            .collect()
    }

    /// The id of the unique `RuntimeInput` node, if present.
    pub fn runtime_input(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::RuntimeInput))
    }

    /// All estimator node ids.
    pub fn estimators(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Estimate(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Clones the subgraph feeding `output`, substituting every node that
    /// depends on the runtime input; the runtime input itself maps to
    /// `new_root`. Nodes independent of the runtime input (data sources,
    /// estimators trained on them) are **shared**, not cloned — sharing is
    /// what lets common-sub-expression elimination find the duplicates that
    /// matter.
    ///
    /// Returns the id corresponding to `output` in the rewritten graph.
    pub fn clone_rerooted(&mut self, output: NodeId, new_root: NodeId) -> NodeId {
        let runtime = match self.runtime_input() {
            Some(r) => r,
            None => return output,
        };
        let depends = self.dependents(runtime);
        if !depends.contains(&output) {
            return output;
        }
        let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
        memo.insert(runtime, new_root);
        // Process ancestors of `output` in topological order so inputs are
        // mapped before users.
        for id in self.topo_ancestors(&[output]) {
            if !depends.contains(&id) || memo.contains_key(&id) {
                continue;
            }
            let node = self.nodes[id].clone();
            let new_inputs: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|i| *memo.get(i).unwrap_or(i))
                .collect();
            let new_id = self.add(node.kind, new_inputs, node.label);
            memo.insert(id, new_id);
        }
        memo[&output]
    }

    /// Deterministic one-line-per-node text summary: node id, kind, label,
    /// and input ids, in insertion (topological) order. Two structurally
    /// identical graphs always produce identical summaries, so the
    /// differential-testing harness embeds this in failure messages and
    /// compares it across runs — unlike `Debug` output it never leaks
    /// addresses or hash-map iteration order.
    pub fn summary(&self) -> String {
        let mut out = String::with_capacity(self.nodes.len() * 32);
        for (id, node) in self.nodes.iter().enumerate() {
            out.push_str(&format!("{id}: {} {}", node.kind.name(), node.label));
            if !node.inputs.is_empty() {
                out.push_str(" <- ");
                for (i, input) in node.inputs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&input.to_string());
                }
            }
            out.push('\n');
        }
        out
    }

    /// Graphviz rendering; nodes in `highlight` are filled (used to show the
    /// cache set chosen by the materialization optimizer, Fig. 11).
    pub fn to_dot(&self, highlight: &HashSet<NodeId>) -> String {
        let mut out = String::from("digraph pipeline {\n  rankdir=LR;\n");
        for (id, node) in self.nodes.iter().enumerate() {
            let shape = match node.kind {
                NodeKind::RuntimeInput | NodeKind::DataSource(_) => "ellipse",
                NodeKind::Estimate(_) => "box3d",
                _ => "box",
            };
            let fill = if highlight.contains(&id) {
                ", style=filled, fillcolor=lightblue"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{} [label=\"{}\", shape={}{}];\n",
                id, node.label, shape, fill
            ));
        }
        for (id, node) in self.nodes.iter().enumerate() {
            for &input in &node.inputs {
                out.push_str(&format!("  n{} -> n{};\n", input, id));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use crate::operator::{Transformer, TypedTransformer};
    use keystone_dataflow::collection::DistCollection;

    struct AddOne;
    impl Transformer<f64, f64> for AddOne {
        fn apply(&self, x: &f64) -> f64 {
            x + 1.0
        }
    }

    fn transform_node() -> NodeKind {
        NodeKind::Transform(Arc::new(TypedTransformer::new(AddOne)))
    }

    fn data_node() -> NodeKind {
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64], 1)))
    }

    #[test]
    fn add_and_topo() {
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let t1 = g.add(transform_node(), vec![input], "t1");
        let t2 = g.add(transform_node(), vec![t1], "t2");
        assert_eq!(g.len(), 3);
        assert_eq!(g.topo_ancestors(&[t2]), vec![input, t1, t2]);
        assert_eq!(g.runtime_input(), Some(input));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn add_rejects_forward_references() {
        let mut g = Graph::new();
        g.add(transform_node(), vec![5], "bad");
    }

    #[test]
    fn successors_and_dependents() {
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let a = g.add(transform_node(), vec![input], "a");
        let b = g.add(transform_node(), vec![input], "b");
        let c = g.add(transform_node(), vec![a], "c");
        let succ = g.successors();
        assert_eq!(succ[input], vec![a, b]);
        let deps = g.dependents(a);
        assert!(deps.contains(&c) && deps.contains(&a) && !deps.contains(&b));
    }

    #[test]
    fn clone_rerooted_shares_independent_nodes() {
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let src = g.add(data_node(), vec![], "train");
        let t1 = g.add(transform_node(), vec![input], "t1");
        let t2 = g.add(transform_node(), vec![t1], "t2");
        let before = g.len();
        let cloned = g.clone_rerooted(t2, src);
        // Two nodes cloned (t1, t2); src shared.
        assert_eq!(g.len(), before + 2);
        assert_ne!(cloned, t2);
        // Cloned t1 must take src as input.
        let cloned_t1 = g.nodes[cloned].inputs[0];
        assert_eq!(g.nodes[cloned_t1].inputs, vec![src]);
        // Operator Arc is shared between original and clone.
        let orig_ptr = g.nodes[t2].kind.identity();
        let clone_ptr = g.nodes[cloned].kind.identity();
        assert_eq!(orig_ptr, clone_ptr);
    }

    #[test]
    fn clone_rerooted_of_independent_output_is_noop() {
        let mut g = Graph::new();
        let _input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let src = g.add(data_node(), vec![], "train");
        let t = g.add(transform_node(), vec![src], "t");
        let before = g.len();
        assert_eq!(g.clone_rerooted(t, src), t);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn summary_is_deterministic_and_structural() {
        let build = || {
            let mut g = Graph::new();
            let input = g.add(NodeKind::RuntimeInput, vec![], "input");
            let a = g.add(transform_node(), vec![input], "AddOne");
            let b = g.add(transform_node(), vec![input], "AddOne");
            g.add(NodeKind::ModelApply, vec![a, b], "Model");
            g
        };
        let s1 = build().summary();
        let s2 = build().summary();
        // Operator Arcs differ between the two builds, but the summary is
        // purely structural, so it must match byte for byte.
        assert_eq!(s1, s2);
        assert_eq!(
            s1,
            "0: input input\n1: transform AddOne <- 0\n2: transform AddOne <- 0\n3: apply Model <- 1,2\n"
        );
    }

    #[test]
    fn dot_rendering_mentions_nodes() {
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let t = g.add(transform_node(), vec![input], "AddOne");
        let mut hl = HashSet::new();
        hl.insert(t);
        let dot = g.to_dot(&hl);
        assert!(dot.contains("AddOne"));
        assert!(dot.contains("lightblue"));
        assert!(dot.contains("n0 -> n1"));
    }

    #[test]
    fn erased_transform_executes_through_graph_node() {
        let mut g = Graph::new();
        let input = g.add(NodeKind::RuntimeInput, vec![], "input");
        let t = g.add(transform_node(), vec![input], "t");
        if let NodeKind::Transform(op) = &g.nodes[t].kind {
            let data = AnyData::wrap(DistCollection::from_vec(vec![1.0, 2.0], 1));
            let out = op.apply_any(&[data], &ExecContext::default_cluster());
            let v: DistCollection<f64> = out.downcast();
            assert_eq!(v.collect(), vec![2.0, 3.0]);
        } else {
            panic!("expected transform node");
        }
    }
}
