//! Whole-stage operator fusion: collapse chains of per-record transformers
//! into one partition pass.
//!
//! KeystoneML's optimizer (CSE + materialization) treats every transformer
//! as its own distributed job: k chained per-record maps cost k collection
//! allocations, k statistics probes, and k task-span waves. Following the
//! fusion plans of SystemML ("On Optimizing Operator Fusion Plans for
//! Large-Scale Machine Learning in SystemML", Boehm et al., 2018), this
//! pass runs **after** CSE and materialization selection and greedily fuses
//! maximal chains of single-consumer, per-record transformer nodes into one
//! [`FusedMap`] physical operator that executes as a single closure per
//! partition.
//!
//! Fusion barriers — a node is never absorbed into a downstream chain when:
//!
//! * it was **picked for materialization**: its output must exist as a
//!   cacheable dataset under its own node id, so the greedy Algorithm 1
//!   decisions stay valid byte-for-byte (a pick may still *terminate* a
//!   chain as its tail, because the tail's output is exactly the chain's
//!   output);
//! * it has **more than one consumer**: both consumers need the
//!   intermediate result;
//! * it **feeds an estimator**: estimators iterate over their input
//!   (`w > 1` passes), so the input must exist as a collection;
//! * it is not a pure per-record map (no
//!   [`record_kernel`](crate::operator::ErasedTransformer::record_kernel)),
//!   takes several inputs (gather), or is the requested output node.
//!
//! Because the rewrite happens *in place on the chain tail's node id* —
//! the tail's kind becomes the [`FusedMap`] and its input is rewired to the
//! chain head's input — every external reference (cache keys, model slots,
//! fit roots, the output id) survives unchanged; absorbed members simply
//! become orphans outside the output's ancestor set.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use keystone_dataflow::collection::DistCollection;
use keystone_dataflow::columnar::ColumnarBatch;

use crate::context::ExecContext;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::operator::{
    AnyData, ColumnarFn, ErasedTransformer, FusedDriver, PartitionAssemble, PartitionFold, RecordFn,
};
use crate::profiler::{NodeProfile, PipelineProfile};

/// The fused physical operator: a chain of per-record members executed in
/// one partition-parallel pass with no intermediate `DistCollection`.
pub struct FusedMap {
    labels: Vec<String>,
    /// Members `1..` composed into a single record function.
    composed: RecordFn,
    /// The head member's typed driver (it knows the input element type).
    driver: FusedDriver,
    /// The tail member's partition fold (it knows the output element type).
    fold: PartitionFold,
    /// The tail member's collection assembler.
    assemble: PartitionAssemble,
    /// The columnar lowering: one kernel per member, present only when the
    /// columnar path was requested *and* every member provided one (which
    /// implies the chain's records are dense `Vec<f64>` end to end). When
    /// set, execution gathers each partition into a [`ColumnarBatch`] and
    /// ping-pongs it through the kernels' tight slice loops instead of the
    /// per-record boxed dispatch above.
    columnar: Option<Vec<ColumnarFn>>,
}

impl FusedMap {
    /// Fuses `members` (head first) into one operator. Returns `None` for
    /// chains shorter than two or when any member lacks a record kernel.
    /// With `columnar` set, the chain executes columnar iff
    /// *every* member supplies a
    /// [`columnar_kernel`](ErasedTransformer::columnar_kernel); any member
    /// without one (non-vector record types, or operators that never opted
    /// in) silently keeps the whole chain on the record path — fusion
    /// itself is never lost to the fallback.
    pub fn try_fuse_with(
        members: &[(String, Arc<dyn ErasedTransformer>)],
        columnar: bool,
    ) -> Option<FusedMap> {
        if members.len() < 2 {
            return None;
        }
        let kernels = members
            .iter()
            .map(|(_, op)| op.record_kernel())
            .collect::<Option<Vec<_>>>()?;
        let rest: Vec<RecordFn> = kernels[1..].iter().map(|k| k.func.clone()).collect();
        let composed: RecordFn = Arc::new(move |mut r| {
            for f in &rest {
                r = f(r);
            }
            r
        });
        let tail = kernels.last().expect("len >= 2");
        let columnar = if columnar {
            members
                .iter()
                .map(|(_, op)| op.columnar_kernel())
                .collect::<Option<Vec<_>>>()
        } else {
            None
        };
        Some(FusedMap {
            labels: members.iter().map(|(l, _)| l.clone()).collect(),
            composed,
            driver: kernels[0].driver.clone(),
            fold: tail.fold.clone(),
            assemble: tail.assemble.clone(),
            columnar,
        })
    }

    /// Display label: `Fused[a+b+c]`.
    pub fn label(&self) -> String {
        format!("Fused[{}]", self.labels.join("+"))
    }

    /// Columnar execution: gather each partition into a [`ColumnarBatch`],
    /// run every member kernel as a tight loop over contiguous slices
    /// (ping-ponging two batches, kept per thread so their buffers are
    /// reused across members and calls), scatter back to records. A
    /// partition run on the caller of a parallel region therefore frees no
    /// buffer into the caller's heap, where it would leave holes between
    /// the records that outlive the call. Uses the same `fused_partitions`
    /// primitive — and therefore the same single "fused" task-span wave
    /// and fault surface — as the record path; only the per-record inner
    /// work changes, and each kernel reproduces its operator's `apply`
    /// bit-for-bit, so outputs are identical to the record path.
    fn apply_columnar(&self, input: &AnyData, kernels: &[ColumnarFn]) -> AnyData {
        let typed: DistCollection<Vec<f64>> = input.downcast();
        // One `Vec<Vec<f64>>` per input partition, exactly what the record
        // path's assemble produces.
        thread_local! {
            static BATCHES: Cell<(ColumnarBatch, ColumnarBatch)> = Cell::default();
        }
        let parts = typed.fused_partitions(|part| {
            let (mut batch, mut next) = BATCHES.take();
            batch.gather(part);
            for k in kernels {
                next.clear();
                for i in 0..batch.len() {
                    next.push_record_with(|out| k(batch.record(i), out));
                }
                std::mem::swap(&mut batch, &mut next);
            }
            let records: Vec<Vec<f64>> = batch.records().map(<[f64]>::to_vec).collect();
            let n = records.len() as u64;
            BATCHES.set((batch, next));
            (records, n)
        });
        AnyData::wrap(DistCollection::from_partitions(parts))
    }
}

impl ErasedTransformer for FusedMap {
    fn name(&self) -> String {
        self.label()
    }

    fn apply_any(&self, inputs: &[AnyData], ctx: &ExecContext) -> AnyData {
        if let Some(kernels) = &self.columnar {
            return self.apply_columnar(&inputs[0], kernels);
        }
        (self.driver)(&inputs[0], &self.composed, &self.fold, &self.assemble, ctx)
    }

    fn fused_members(&self) -> Option<Vec<String>> {
        Some(self.labels.clone())
    }

    fn fused_columnar(&self) -> bool {
        self.columnar.is_some()
    }

    // `record_kernel` stays `None`: a FusedMap is already maximal when
    // built, and opting out keeps a second fusion pass a structural no-op.
}

/// One fused chain, head first.
#[derive(Debug, Clone)]
pub struct FusedChain {
    /// Node id the fused operator lives on (the chain's last member).
    pub tail: NodeId,
    /// Member node ids in execution order (`members.last() == tail`).
    pub members: Vec<NodeId>,
    /// Member labels in execution order.
    pub labels: Vec<String>,
}

/// Result of [`fuse_chains_multi`].
pub struct FusionResult {
    /// The rewritten graph (chain tails replaced by [`FusedMap`] nodes).
    pub graph: Graph,
    /// Fused chains in ascending tail-id (topological) order.
    pub chains: Vec<FusedChain>,
    /// Number of nodes absorbed into some downstream tail.
    pub absorbed: usize,
    /// How many of `chains` lowered to the columnar path (0 unless
    /// `columnar` was requested).
    pub columnar_chains: usize,
}

/// [`fuse_chains_multi`] over the subgraph feeding one `output`.
pub fn fuse_chains_with(
    graph: &Graph,
    output: NodeId,
    picks: &HashSet<NodeId>,
    columnar: bool,
) -> FusionResult {
    fuse_chains_multi(graph, &[output], picks, columnar)
}

/// Greedily fuses maximal per-record transformer chains in the subgraph
/// feeding `outputs` (one per forest tenant; every output is a fusion
/// barrier, since each result must materialize under its own node id).
/// `picks` is the materialization set chosen by the greedy algorithm —
/// every pick is a fusion barrier too (see module docs). When `columnar` is
/// set, each chain whose members all provide columnar kernels executes on
/// the [`ColumnarBatch`] path (chains with any non-columnar member keep
/// the record path — chain *shape* is identical either way, so picks,
/// profiles, and predictions are unaffected by the toggle).
pub fn fuse_chains_multi(
    graph: &Graph,
    outputs: &[NodeId],
    picks: &HashSet<NodeId>,
    columnar: bool,
) -> FusionResult {
    let relevant = graph.ancestors(outputs);
    // Consumers restricted to the live subgraph: orphans left behind by CSE
    // (or an earlier fusion pass) must not pin their former inputs.
    let consumers: Vec<Vec<NodeId>> = graph
        .successors()
        .iter()
        .map(|s| s.iter().copied().filter(|c| relevant.contains(c)).collect())
        .collect();

    let fusable = |id: NodeId| {
        relevant.contains(&id)
            && graph.nodes[id].inputs.len() == 1
            && matches!(&graph.nodes[id].kind, NodeKind::Transform(op) if op.record_kernel().is_some())
    };
    let feeds_estimator = |id: NodeId| {
        consumers[id]
            .iter()
            .any(|&c| matches!(graph.nodes[c].kind, NodeKind::Estimate(_)))
    };
    // May `id` be absorbed into its (unique) downstream consumer?
    let absorbable = |id: NodeId| {
        fusable(id)
            && !outputs.contains(&id)
            && !picks.contains(&id)
            && !feeds_estimator(id)
            && consumers[id].len() == 1
            && fusable(consumers[id][0])
    };

    let mut chains = Vec::new();
    // Node ids are topological, so tails are discovered in ascending-id DAG
    // order and `chains` needs no further sorting.
    for tail in 0..graph.nodes.len() {
        if !fusable(tail) || absorbable(tail) {
            continue;
        }
        let mut members = vec![tail];
        let mut head = tail;
        loop {
            let up = graph.nodes[head].inputs[0];
            if !absorbable(up) {
                break;
            }
            members.push(up);
            head = up;
        }
        members.reverse();
        if members.len() < 2 {
            continue;
        }
        let labels = members
            .iter()
            .map(|&m| graph.nodes[m].label.clone())
            .collect();
        chains.push(FusedChain {
            tail,
            members,
            labels,
        });
    }

    let mut out = graph.clone();
    let mut absorbed = 0;
    let mut columnar_chains = 0;
    for chain in &chains {
        let members: Vec<(String, Arc<dyn ErasedTransformer>)> = chain
            .members
            .iter()
            .map(|&m| match &graph.nodes[m].kind {
                NodeKind::Transform(op) => (graph.nodes[m].label.clone(), op.clone()),
                _ => unreachable!("fusable nodes are transforms"),
            })
            .collect();
        let fused =
            FusedMap::try_fuse_with(&members, columnar).expect("chain members all carry kernels");
        columnar_chains += fused.fused_columnar() as usize;
        let head = chain.members[0];
        out.nodes[chain.tail].label = fused.label();
        out.nodes[chain.tail].kind = NodeKind::Transform(Arc::new(fused));
        out.nodes[chain.tail].inputs = vec![graph.nodes[head].inputs[0]];
        absorbed += chain.members.len() - 1;
    }
    FusionResult {
        graph: out,
        chains,
        absorbed,
        columnar_chains,
    }
}

/// Folds the members' profiles into one entry on the chain tail so the
/// materialization problem and the report cost fused nodes as units.
///
/// Per-record members are 1:1, so every member sees the same record count
/// and the chain's one-execution time is the sum of member times (identical
/// `est_secs` up to float reassociation — fusion never *increases* the
/// modeled runtime). Output shape comes from the tail, input scale from the
/// head. Absorbed members' entries are always removed (they are orphans in
/// the fused graph); the merged entry is only written when every member was
/// profiled, since a partial sum would underestimate the chain.
pub fn merge_profiles(profile: &mut PipelineProfile, chains: &[FusedChain]) {
    for chain in chains {
        let members: Option<Vec<NodeProfile>> = chain
            .members
            .iter()
            .map(|m| profile.nodes.get(m).cloned())
            .collect();
        for &m in &chain.members {
            profile.nodes.remove(&m);
        }
        if let Some(members) = members {
            let head = &members[0];
            let tail = members.last().expect("chains have >= 2 members");
            profile.nodes.insert(
                chain.tail,
                NodeProfile {
                    secs_per_record: members.iter().map(|p| p.secs_per_record).sum(),
                    fixed_secs: members.iter().map(|p| p.fixed_secs).sum(),
                    out_bytes_per_record: tail.out_bytes_per_record,
                    out_records_per_in: members.iter().map(|p| p.out_records_per_in).product(),
                    records_hint: head.records_hint,
                    out_stats: tail.out_stats,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Transformer, TypedTransformer};
    use crate::record::DataStats;
    use keystone_dataflow::collection::DistCollection;

    struct AddC(f64);
    impl Transformer<f64, f64> for AddC {
        fn apply(&self, x: &f64) -> f64 {
            x + self.0
        }
    }

    struct MulC(f64);
    impl Transformer<f64, f64> for MulC {
        fn apply(&self, x: &f64) -> f64 {
            x * self.0
        }
    }

    fn t(op: impl Transformer<f64, f64>) -> NodeKind {
        NodeKind::Transform(Arc::new(TypedTransformer::new(op)))
    }

    fn source(n: usize) -> NodeKind {
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(
            (0..n).map(|i| i as f64).collect(),
            2,
        )))
    }

    fn ctx() -> ExecContext {
        ExecContext::default_cluster()
    }

    #[test]
    fn fuses_a_linear_chain_and_preserves_results() {
        let mut g = Graph::new();
        let src = g.add(source(6), vec![], "src");
        let a = g.add(t(AddC(1.0)), vec![src], "add1");
        let b = g.add(t(MulC(2.0)), vec![a], "mul2");
        let c = g.add(t(AddC(3.0)), vec![b], "add3");
        let res = fuse_chains_with(&g, c, &HashSet::new(), false);
        assert_eq!(res.chains.len(), 1);
        assert_eq!(res.chains[0].members, vec![a, b, c]);
        assert_eq!(res.chains[0].tail, c);
        assert_eq!(res.absorbed, 2);
        assert_eq!(res.graph.nodes[c].inputs, vec![src]);
        assert_eq!(res.graph.nodes[c].label, "Fused[add1+mul2+add3]");

        // Execute the fused node and compare with the unfused chain.
        let data = AnyData::wrap(DistCollection::from_vec(vec![0.0, 1.0, 2.0], 2));
        let NodeKind::Transform(fused) = &res.graph.nodes[c].kind else {
            panic!("tail must stay a transform");
        };
        let out: DistCollection<f64> = fused.apply_any(&[data], &ctx()).downcast();
        assert_eq!(out.collect(), vec![5.0, 7.0, 9.0]); // (x+1)*2+3
        assert_eq!(
            fused.fused_members().as_deref(),
            Some(["add1", "mul2", "add3"].map(String::from).as_slice())
        );
    }

    #[test]
    fn materialization_pick_is_a_barrier_but_may_be_a_tail() {
        let mut g = Graph::new();
        let src = g.add(source(4), vec![], "src");
        let a = g.add(t(AddC(1.0)), vec![src], "a");
        let b = g.add(t(AddC(2.0)), vec![a], "b");
        let c = g.add(t(AddC(3.0)), vec![b], "c");
        let picks: HashSet<NodeId> = [b].into_iter().collect();
        let res = fuse_chains_with(&g, c, &picks, false);
        // b may terminate a chain (its output still materializes under its
        // own id) but never sit inside one, so c is left alone.
        assert_eq!(res.chains.len(), 1);
        assert_eq!(res.chains[0].members, vec![a, b]);
        assert!(matches!(res.graph.nodes[c].kind, NodeKind::Transform(_)));
        assert_eq!(res.graph.nodes[c].inputs, vec![b]);
    }

    #[test]
    fn multi_consumer_nodes_are_barriers() {
        let mut g = Graph::new();
        let src = g.add(source(4), vec![], "src");
        let shared = g.add(t(AddC(1.0)), vec![src], "shared");
        let left = g.add(t(MulC(2.0)), vec![shared], "left");
        let right = g.add(t(MulC(3.0)), vec![shared], "right");
        let out = g.add(
            NodeKind::Transform(Arc::new(crate::operator::GatherConcat)),
            vec![left, right],
            "gather",
        );
        let res = fuse_chains_with(&g, out, &HashSet::new(), false);
        assert!(
            res.chains.is_empty(),
            "shared feeds two consumers and the branches are single nodes"
        );
        assert_eq!(res.absorbed, 0);
    }

    struct VecAffine {
        a: f64,
        b: f64,
    }
    impl Transformer<Vec<f64>, Vec<f64>> for VecAffine {
        fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
            x.iter().map(|v| v * self.a + self.b).collect()
        }
        fn columnar_kernel(&self) -> Option<crate::operator::ColumnarFn> {
            let (a, b) = (self.a, self.b);
            Some(Arc::new(move |x, out| {
                out.extend(x.iter().map(|v| v * a + b))
            }))
        }
    }

    /// No columnar kernel: stays fusable but forces the record path.
    struct VecAbs;
    impl Transformer<Vec<f64>, Vec<f64>> for VecAbs {
        fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
            x.iter().map(|v| v.abs()).collect()
        }
    }

    fn vec_source(n: usize) -> NodeKind {
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(
            (0..n)
                .map(|r| (0..4).map(|c| (r * 4 + c) as f64 * 0.3 - 2.0).collect())
                .collect::<Vec<Vec<f64>>>(),
            2,
        )))
    }

    fn vt(op: impl Transformer<Vec<f64>, Vec<f64>>) -> NodeKind {
        NodeKind::Transform(Arc::new(TypedTransformer::new(op)))
    }

    #[test]
    fn columnar_chain_is_bit_identical_to_record_path() {
        let mut g = Graph::new();
        let src = g.add(vec_source(7), vec![], "src");
        let a = g.add(vt(VecAffine { a: 1.5, b: 0.25 }), vec![src], "aff1");
        let b = g.add(vt(VecAffine { a: -0.75, b: 1.0 }), vec![a], "aff2");
        let c = g.add(vt(VecAffine { a: 3.0, b: -0.5 }), vec![b], "aff3");

        let record = fuse_chains_with(&g, c, &HashSet::new(), false);
        assert_eq!(record.columnar_chains, 0);
        let columnar = fuse_chains_with(&g, c, &HashSet::new(), true);
        assert_eq!(columnar.chains.len(), 1);
        assert_eq!(columnar.columnar_chains, 1);
        // Chain structure is identical either way — the toggle never
        // changes what fuses, only how the fused node executes.
        assert_eq!(record.chains[0].members, columnar.chains[0].members);
        assert_eq!(record.graph.nodes[c].label, columnar.graph.nodes[c].label);

        let data = || {
            AnyData::wrap(DistCollection::from_vec(
                (0..11)
                    .map(|r| (0..5).map(|c| (r * 5 + c) as f64 * 0.17 - 4.0).collect())
                    .collect::<Vec<Vec<f64>>>(),
                3,
            ))
        };
        let run = |res: &FusionResult| -> Vec<Vec<f64>> {
            let NodeKind::Transform(op) = &res.graph.nodes[c].kind else {
                panic!("tail must stay a transform");
            };
            assert_eq!(op.fused_columnar(), res.columnar_chains == 1);
            let out: DistCollection<Vec<f64>> = op.apply_any(&[data()], &ctx()).downcast();
            out.collect()
        };
        let rec_out = run(&record);
        let col_out = run(&columnar);
        assert_eq!(rec_out.len(), 11);
        for (r, c2) in rec_out.iter().zip(&col_out) {
            let rb: Vec<u64> = r.iter().map(|v| v.to_bits()).collect();
            let cb: Vec<u64> = c2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rb, cb, "columnar path must be bit-identical");
        }
    }

    #[test]
    fn chain_with_kernelless_member_falls_back_to_record_path() {
        let mut g = Graph::new();
        let src = g.add(vec_source(5), vec![], "src");
        let a = g.add(vt(VecAffine { a: 2.0, b: 0.0 }), vec![src], "aff");
        let b = g.add(vt(VecAbs), vec![a], "abs");
        let res = fuse_chains_with(&g, b, &HashSet::new(), true);
        assert_eq!(res.chains.len(), 1, "fusion itself is never lost");
        assert_eq!(
            res.columnar_chains, 0,
            "a member without a columnar kernel keeps the chain on the record path"
        );
        let NodeKind::Transform(op) = &res.graph.nodes[b].kind else {
            panic!("tail must stay a transform");
        };
        assert!(!op.fused_columnar());
        let out: DistCollection<Vec<f64>> = op
            .apply_any(
                &[AnyData::wrap(DistCollection::from_vec(
                    vec![vec![-1.0, 2.0], vec![3.0, -4.0]],
                    2,
                ))],
                &ctx(),
            )
            .downcast();
        assert_eq!(out.collect(), vec![vec![2.0, 4.0], vec![6.0, 8.0]]);
    }

    #[test]
    fn non_vector_record_types_never_lower_columnar() {
        // f64 records: the erased layer's type gate returns no columnar
        // kernels, so even with the toggle on the chain stays record-path.
        let mut g = Graph::new();
        let src = g.add(source(4), vec![], "src");
        let a = g.add(t(AddC(1.0)), vec![src], "a");
        let b = g.add(t(MulC(2.0)), vec![a], "b");
        let res = fuse_chains_with(&g, b, &HashSet::new(), true);
        assert_eq!(res.chains.len(), 1);
        assert_eq!(res.columnar_chains, 0);
        let NodeKind::Transform(op) = &res.graph.nodes[b].kind else {
            panic!("tail must stay a transform");
        };
        let data = AnyData::wrap(DistCollection::from_vec(vec![0.0, 1.0, 2.0], 2));
        let out: DistCollection<f64> = op.apply_any(&[data], &ctx()).downcast();
        assert_eq!(out.collect(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn fusion_is_idempotent() {
        let mut g = Graph::new();
        let src = g.add(source(4), vec![], "src");
        let a = g.add(t(AddC(1.0)), vec![src], "a");
        let b = g.add(t(MulC(2.0)), vec![a], "b");
        let res = fuse_chains_with(&g, b, &HashSet::new(), false);
        assert_eq!(res.chains.len(), 1);
        let again = fuse_chains_with(&res.graph, b, &HashSet::new(), false);
        assert!(again.chains.is_empty(), "a FusedMap exposes no kernel");
        assert_eq!(again.graph.summary(), res.graph.summary());
    }

    #[test]
    fn try_fuse_rejects_short_or_kernelless_chains() {
        let one: Vec<(String, Arc<dyn ErasedTransformer>)> = vec![(
            "a".into(),
            Arc::new(TypedTransformer::new(AddC(1.0))) as Arc<dyn ErasedTransformer>,
        )];
        assert!(FusedMap::try_fuse_with(&one, false).is_none());
        let with_gather: Vec<(String, Arc<dyn ErasedTransformer>)> = vec![
            (
                "a".into(),
                Arc::new(TypedTransformer::new(AddC(1.0))) as Arc<dyn ErasedTransformer>,
            ),
            (
                "g".into(),
                Arc::new(crate::operator::GatherConcat) as Arc<dyn ErasedTransformer>,
            ),
        ];
        assert!(FusedMap::try_fuse_with(&with_gather, false).is_none());
    }

    #[test]
    fn merge_profiles_sums_time_and_keeps_boundary_shape() {
        let mut profile = PipelineProfile::default();
        for (id, fixed, slope) in [(1usize, 0.5, 0.01), (2, 0.25, 0.02)] {
            profile.nodes.insert(
                id,
                NodeProfile {
                    secs_per_record: slope,
                    fixed_secs: fixed,
                    out_bytes_per_record: id as f64 * 8.0,
                    out_records_per_in: 1.0,
                    records_hint: 100,
                    out_stats: DataStats {
                        count: 100,
                        bytes_per_record: id as f64 * 8.0,
                        ..DataStats::empty()
                    },
                },
            );
        }
        let chain = FusedChain {
            tail: 2,
            members: vec![1, 2],
            labels: vec!["a".into(), "b".into()],
        };
        let unfused: f64 = [1usize, 2]
            .iter()
            .map(|id| profile.nodes[id].est_secs(100))
            .sum();
        merge_profiles(&mut profile, &[chain]);
        assert!(!profile.nodes.contains_key(&1));
        let merged = &profile.nodes[&2];
        assert!((merged.est_secs(100) - unfused).abs() < 1e-12);
        assert_eq!(merged.out_bytes_per_record, 16.0);
        assert_eq!(merged.records_hint, 100);
    }

    #[test]
    fn merge_profiles_drops_partially_profiled_chains() {
        let mut profile = PipelineProfile::default();
        profile.nodes.insert(
            2,
            NodeProfile {
                secs_per_record: 0.1,
                fixed_secs: 0.0,
                out_bytes_per_record: 8.0,
                out_records_per_in: 1.0,
                records_hint: 10,
                out_stats: DataStats::empty(),
            },
        );
        let chain = FusedChain {
            tail: 2,
            members: vec![1, 2], // member 1 unprofiled
            labels: vec!["a".into(), "b".into()],
        };
        merge_profiles(&mut profile, &[chain]);
        assert!(profile.nodes.is_empty(), "partial sums would under-cost");
    }
}
