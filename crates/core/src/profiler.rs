//! Execution subsampling (§4.1): the pipeline profile.
//!
//! The profiler runs the fit-relevant part of the DAG on small samples
//! (512 and 1024 records by default), recording each node's execution time
//! and output size, then extrapolates linearly to full scale — the paper
//! reports memory extrapolations as highly accurate and runtimes within 15%.
//!
//! Operator-level optimization is interleaved exactly as §4.1 describes:
//! each node is optimized using statistics derived from the sample outputs
//! of its (already optimized) predecessors, then executed on the sample so
//! its successors can be optimized in turn.
//!
//! One kind of node is priced rather than measured: a *terminal*
//! estimator, whose model no profiled node reads, once operator selection
//! has chosen its physical option. Algorithm 1 marks estimators
//! always-cached, so such a node's time adds the same constant to every
//! candidate cache set, and sample fits of it would decide nothing. Its
//! profile, and with it the node's predicted time in reports, is the chosen
//! option's §3 estimate instead, in the seconds [`SimClock::charge`] books.
//! Every other estimator (one whose model a profiled node reads, or a plain
//! one with no physical options) is still fit once per sample size. The
//! sample runs charge the simulated clock in the `profile` lane, apart from
//! the fit's own charges.
//!
//! [`SimClock::charge`]: keystone_dataflow::simclock::SimClock::charge

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use crate::context::ExecContext;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::operator::{AnyData, ErasedOption, ErasedTransformer, InputHandle};
use crate::record::DataStats;

/// Extrapolated profile of one node. A priced terminal estimator (see the
/// module docs) has no measurement to extrapolate: its profile is the §3
/// estimate, spread evenly over `records_hint`.
#[derive(Debug, Clone, Default)]
pub struct NodeProfile {
    /// Marginal seconds per input record (slope of the linear fit).
    pub secs_per_record: f64,
    /// Fixed seconds per execution (intercept, clamped at 0).
    pub fixed_secs: f64,
    /// Output bytes per output record.
    pub out_bytes_per_record: f64,
    /// Output records produced per input record.
    pub out_records_per_in: f64,
    /// Full-scale input record count.
    pub records_hint: usize,
    /// Output statistics at full scale.
    pub out_stats: DataStats,
}

impl NodeProfile {
    /// Estimated seconds for one execution over `records` input records.
    pub fn est_secs(&self, records: usize) -> f64 {
        self.fixed_secs + self.secs_per_record * records as f64
    }

    /// Estimated output bytes at full scale.
    pub fn est_output_bytes(&self) -> f64 {
        self.out_stats.total_bytes()
    }
}

/// The pipeline profile: per-node extrapolations plus the physical-operator
/// choices made along the way.
#[derive(Debug, Clone, Default)]
pub struct PipelineProfile {
    /// Per-node extrapolated profiles.
    pub nodes: HashMap<NodeId, NodeProfile>,
    /// `(node, chosen physical operator)` decisions.
    pub choices: Vec<(NodeId, String)>,
}

/// Profiling options.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Sample sizes; the paper uses 512 and 1024.
    pub sizes: Vec<usize>,
    /// Sampling seed.
    pub seed: u64,
    /// Whether to perform operator-level (physical) selection. `Pipeline::fit`
    /// and `fit_forest` ignore this field and derive it from
    /// `PipelineOptions::level` (on exactly at `OptLevel::Full`).
    pub select_operators: bool,
    /// Replace wall-clock measurements with a synthetic clock that is a
    /// pure function of (operator label, input records). Real timings make
    /// the materialization picks a race between near-tied candidates, so
    /// differential oracles that compare picks across independent fits
    /// (e.g. fusion on vs off) need this to hold deterministically.
    pub deterministic_timing: bool,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            sizes: vec![512, 1024],
            seed: 0xBEEF,
            select_operators: true,
            deterministic_timing: false,
        }
    }
}

/// The synthetic profiling clock: linear in `in_records` with an
/// FNV-1a-derived per-label rate, so distinct operators order stably and
/// the two-size linear fit recovers a non-negative slope and intercept.
/// The executor prices apply-path nodes the profiler skipped (they depend
/// on the runtime input) on the same deterministic scale, through
/// [`synthetic_node_secs`].
fn synthetic_secs(label: &str, in_records: usize) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let rate = 1.0 + (h % 1024) as f64 / 1024.0;
    1e-6 * rate * in_records as f64 + 1e-8 * rate
}

/// Synthetic-scale price of a columnar-lowered fused chain relative to the
/// record path: tight slice loops replace per-record boxed dispatch, so a
/// columnar node is charged half the record-path rate. Like the base rate
/// this is a *modeling* constant, not a measurement — it exists so the
/// deterministic sim ledger credits the columnar lowering consistently.
pub(crate) const COLUMNAR_SYNTHETIC_DISCOUNT: f64 = 0.5;

/// Synthetic pricing for an unprofiled node, on the per-label scale above,
/// with the columnar discount applied to fused chains executing on the
/// columnar path.
pub(crate) fn synthetic_node_secs(node: &crate::graph::Node, in_records: usize) -> f64 {
    let base = synthetic_secs(&node.label, in_records);
    match &node.kind {
        crate::graph::NodeKind::Transform(op) if op.fused_columnar() => {
            base * COLUMNAR_SYNTHETIC_DISCOUNT
        }
        _ => base,
    }
}

/// One raw measurement of a node at one sample size.
#[derive(Debug, Clone, Copy, Default)]
struct Measurement {
    in_records: usize,
    secs: f64,
    out_records: usize,
    out_bytes_per_record: f64,
}

struct SampleHandle(AnyData);
impl InputHandle for SampleHandle {
    fn get(&self) -> AnyData {
        self.0.clone()
    }
}

/// Profiles the subgraph feeding `roots`, mutating `graph` in place when
/// operator selection replaces optimizable nodes with their chosen physical
/// implementation.
pub fn profile_and_select(
    graph: &mut Graph,
    roots: &[NodeId],
    ctx: &ExecContext,
    opts: &ProfileOptions,
) -> PipelineProfile {
    let mut profile = PipelineProfile::default();
    // Nodes depending on the runtime input cannot be profiled at fit time.
    let skip = graph
        .runtime_input()
        .map(|r| graph.dependents(r))
        .unwrap_or_default();
    let topo = graph.topo_ancestors(roots);
    // Inputs of profiled nodes: an estimator outside this set is terminal.
    let read: HashSet<NodeId> = topo
        .iter()
        .filter(|id| !skip.contains(id))
        .flat_map(|&id| graph.nodes[id].inputs.iter().copied())
        .collect();
    // Terminal estimators that selection priced: the chosen option's estimate.
    let mut priced: HashMap<NodeId, f64> = HashMap::new();
    let mut measurements: HashMap<NodeId, Vec<Measurement>> = HashMap::new();
    let mut scales: HashMap<NodeId, f64> = HashMap::new();
    let mut full_counts: HashMap<NodeId, usize> = HashMap::new();
    let mut sample_stats: HashMap<NodeId, DataStats> = HashMap::new();
    // Selected logical transformers by operator identity: the kind and
    // label each was rewritten to.
    let mut chosen_for: HashMap<usize, (NodeKind, String)> = HashMap::new();

    ctx.sim.in_lane("profile".into(), || {
        for (pass, &size) in opts.sizes.iter().enumerate() {
            let mut outputs: HashMap<NodeId, AnyData> = HashMap::new();
            let mut models: HashMap<NodeId, Arc<dyn ErasedTransformer>> = HashMap::new();

            for &id in &topo {
                if skip.contains(&id) {
                    continue;
                }
                let mut node = graph.nodes[id].clone();
                // Operator selection on the first pass only; later passes see
                // the swapped-in operator through `graph`.
                if pass == 0 && opts.select_operators {
                    let stats = || full_scale_inputs(&node.inputs, &outputs, &scales, &full_counts);
                    let chosen = match &node.kind {
                        NodeKind::Transform(op) => op.physical_options().map(|options| {
                            let kind = NodeKind::Transform;
                            select_operator(options, kind, &stats(), id, graph, &mut profile, ctx)
                        }),
                        NodeKind::Estimate(op) => op.physical_options().map(|options| {
                            let kind = NodeKind::Estimate;
                            select_operator(options, kind, &stats(), id, graph, &mut profile, ctx)
                        }),
                        _ => None,
                    };
                    if let Some((kind, est_secs)) = chosen {
                        if matches!(kind, NodeKind::Estimate(_)) && !read.contains(&id) {
                            priced.insert(id, est_secs);
                        }
                        if let NodeKind::Transform(_) = &node.kind {
                            let label = graph.nodes[id].label.clone();
                            chosen_for.insert(node.kind.identity(), (kind.clone(), label));
                        }
                        node.kind = kind;
                    }
                }
                match &node.kind {
                    NodeKind::RuntimeInput => {}
                    NodeKind::DataSource(data) => {
                        let full = data.stats().count;
                        let sampled = sample_anydata(data, size, opts.seed);
                        let got = sampled.stats().count.max(1);
                        scales.insert(id, full as f64 / got as f64);
                        full_counts.insert(id, full);
                        sample_stats.insert(id, *sampled.stats());
                        outputs.insert(id, sampled);
                    }
                    NodeKind::Transform(_) | NodeKind::ModelApply => {
                        // A fitted model applies like a transformer over its
                        // data input (input 1; input 0 is the model).
                        let (op, data_ids) = match &node.kind {
                            NodeKind::Transform(op) => (op.clone(), &node.inputs[..]),
                            _ => (models[&node.inputs[0]].clone(), &node.inputs[1..]),
                        };
                        let scale = scales.get(&data_ids[0]).copied().unwrap_or(1.0);
                        let inputs: Vec<AnyData> =
                            data_ids.iter().map(|i| outputs[i].clone()).collect();
                        let in_records = inputs[0].stats().count;
                        let start = Instant::now();
                        let out = op.apply_any(&inputs, ctx);
                        let secs = sample_secs(opts, &graph.nodes[id].label, in_records, start);
                        record_measurement(&mut measurements, id, in_records, secs, &out);
                        scales.insert(id, scale);
                        full_counts.insert(id, (out.stats().count as f64 * scale).round() as usize);
                        sample_stats.insert(id, *out.stats());
                        outputs.insert(id, out);
                    }
                    NodeKind::Estimate(op) => {
                        let in_records = outputs[&node.inputs[0]].stats().count;
                        // A priced node is not fit; its measured time is
                        // replaced by the estimate below.
                        let secs = if priced.contains_key(&id) {
                            0.0
                        } else {
                            let handles: Vec<SampleHandle> = node
                                .inputs
                                .iter()
                                .map(|i| SampleHandle(outputs[i].clone()))
                                .collect();
                            let handle_refs: Vec<&dyn InputHandle> =
                                handles.iter().map(|h| h as &dyn InputHandle).collect();
                            let start = Instant::now();
                            models.insert(id, op.fit_any(&handle_refs, ctx));
                            sample_secs(opts, &graph.nodes[id].label, in_records, start)
                        };
                        measurements.entry(id).or_default().push(Measurement {
                            in_records,
                            secs,
                            out_records: 1,
                            out_bytes_per_record: 1024.0,
                        });
                        let scale = scales.get(&node.inputs[0]).copied().unwrap_or(1.0);
                        scales.insert(id, scale);
                        full_counts.insert(id, (in_records as f64 * scale).round() as usize);
                    }
                }
            }
        }
    });

    // Under selection no logical transformer stays in the plan. An
    // apply-path node runs the option chosen for its training-path twin,
    // the clone `Graph::clone_rerooted` made of it, which holds the same
    // `Arc`. With no twin it has no sample to be priced on and keeps the
    // option it ran anyway.
    if opts.select_operators {
        for &id in &skip {
            let node = &mut graph.nodes[id];
            let NodeKind::Transform(op) = &node.kind else {
                continue;
            };
            let resolved = match chosen_for.get(&node.kind.identity()) {
                Some(twin) => Some(twin.clone()),
                None => op.default_physical().map(|o| {
                    let label = format!("{}[{}]", node.label, o.name);
                    (NodeKind::Transform(o.op.clone()), label)
                }),
            };
            if let Some((kind, label)) = resolved {
                node.kind = kind;
                node.label = label;
            }
        }
    }

    // Extrapolate each node's measurements to full scale; a priced node's
    // estimate is spread over its full input, so that
    // `est_secs(records_hint)` is the estimate.
    for (id, ms) in &measurements {
        let last = ms.last().expect("at least one measurement");
        let scale = scales.get(id).copied().unwrap_or(1.0);
        let records_hint = (last.in_records as f64 * scale).round() as usize;
        let (slope, intercept) = match priced.get(id) {
            Some(&est) if records_hint > 0 => (est / records_hint as f64, 0.0),
            Some(&est) => (0.0, est),
            None => linear_fit(ms),
        };
        let out_full = full_counts.get(id).copied().unwrap_or(records_hint);
        let out_stats = sample_stats
            .get(id)
            .copied()
            .unwrap_or_else(DataStats::empty)
            .at_scale(out_full);
        profile.nodes.insert(
            *id,
            NodeProfile {
                secs_per_record: slope,
                fixed_secs: intercept,
                out_bytes_per_record: last.out_bytes_per_record,
                out_records_per_in: if last.in_records > 0 {
                    last.out_records as f64 / last.in_records as f64
                } else {
                    1.0
                },
                records_hint,
                out_stats,
            },
        );
    }
    profile
}

/// What one sampled run that began at `start` is booked as: wall time, or
/// the label-derived synthetic time under `deterministic_timing`.
fn sample_secs(opts: &ProfileOptions, label: &str, in_records: usize, start: Instant) -> f64 {
    if opts.deterministic_timing {
        synthetic_secs(label, in_records)
    } else {
        start.elapsed().as_secs_f64()
    }
}

fn record_measurement(
    measurements: &mut HashMap<NodeId, Vec<Measurement>>,
    id: NodeId,
    in_records: usize,
    secs: f64,
    out: &AnyData,
) {
    measurements.entry(id).or_default().push(Measurement {
        in_records,
        secs,
        out_records: out.stats().count,
        out_bytes_per_record: out.stats().bytes_per_record,
    });
}

/// Full-scale statistics of a node's inputs, extrapolated from their
/// sampled outputs.
fn full_scale_inputs(
    inputs: &[NodeId],
    outputs: &HashMap<NodeId, AnyData>,
    scales: &HashMap<NodeId, f64>,
    full_counts: &HashMap<NodeId, usize>,
) -> Vec<DataStats> {
    inputs
        .iter()
        .map(|i| {
            let sample = &outputs[i];
            let full = full_counts.get(i).copied().unwrap_or_else(|| {
                let scale = scales.get(i).copied().unwrap_or(1.0);
                (sample.stats().count as f64 * scale).round() as usize
            });
            sample.stats().at_scale(full)
        })
        .collect()
}

/// Operator selection (§3) for one logical node: prices every physical
/// option at the node's full-scale input statistics and picks the cheapest.
/// The pick goes into `profile.choices` and an
/// [`OperatorChoice`](crate::trace::TraceEvent::OperatorChoice) event
/// carrying every candidate's cost profile — winners and losers — so
/// reports can show what the optimizer rejected and why; graph node `id` is
/// relabelled `label[chosen]` and its kind becomes `kind(chosen)`, which is
/// returned with the chosen candidate's `est_secs`.
fn select_operator<Op: Clone>(
    options: &[ErasedOption<Op>],
    kind: fn(Op) -> NodeKind,
    stats: &[DataStats],
    id: NodeId,
    graph: &mut Graph,
    profile: &mut PipelineProfile,
    ctx: &ExecContext,
) -> (NodeKind, f64) {
    let candidates: Vec<_> = options
        .iter()
        .map(|o| {
            let cost = (o.cost)(stats, &ctx.resources);
            crate::trace::OperatorCandidate {
                name: o.name.clone(),
                est_secs: cost.estimated_seconds(&ctx.resources),
                cost,
            }
        })
        .collect();
    let best = pick_min(&candidates, |c| c.est_secs);
    let (chosen, est_secs) = (candidates[best].name.clone(), candidates[best].est_secs);
    let node = &mut graph.nodes[id];
    profile.choices.push((id, chosen.clone()));
    ctx.tracer.record(crate::trace::TraceEvent::OperatorChoice {
        node: id,
        label: node.label.clone(),
        chosen: chosen.clone(),
        candidates,
    });
    node.label = format!("{}[{}]", node.label, chosen);
    node.kind = kind(options[best].op.clone());
    (node.kind.clone(), est_secs)
}

fn pick_min<T>(items: &[T], score: impl Fn(&T) -> f64) -> usize {
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for (i, item) in items.iter().enumerate() {
        let s = score(item);
        if s < best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

/// Least-squares line through the measurements; degenerates gracefully when
/// all sample sizes coincide (slope = t/n, intercept 0). Both outputs are
/// clamped non-negative so extrapolations stay physical.
fn linear_fit(ms: &[Measurement]) -> (f64, f64) {
    if ms.is_empty() {
        return (0.0, 0.0);
    }
    let n = ms.len() as f64;
    let mean_x = ms.iter().map(|m| m.in_records as f64).sum::<f64>() / n;
    let mean_y = ms.iter().map(|m| m.secs).sum::<f64>() / n;
    let var_x = ms
        .iter()
        .map(|m| (m.in_records as f64 - mean_x).powi(2))
        .sum::<f64>();
    if var_x < 1e-12 {
        let slope = if mean_x > 0.0 { mean_y / mean_x } else { 0.0 };
        return (slope.max(0.0), 0.0);
    }
    let cov = ms
        .iter()
        .map(|m| (m.in_records as f64 - mean_x) * (m.secs - mean_y))
        .sum::<f64>();
    let slope = (cov / var_x).max(0.0);
    let intercept = (mean_y - slope * mean_x).max(0.0);
    (slope, intercept)
}

fn sample_anydata(data: &AnyData, size: usize, seed: u64) -> AnyData {
    data.sample_erased(size, seed)
}

impl AnyData {
    /// Samples up to `size` records deterministically, preserving the
    /// element type, and rewraps as a single-partition collection so
    /// profiled timings are sequential per-record costs.
    pub fn sample_erased(&self, size: usize, seed: u64) -> AnyData {
        (self.sampler())(self, size, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{
        CostFn, Estimator, EstimatorOption, LabelEstimator, LabelEstimatorOption,
        OptimizableEstimator, OptimizableLabelEstimator, Transformer, TypedTransformer,
    };
    use crate::pipeline::Pipeline;
    use keystone_dataflow::collection::DistCollection;
    use keystone_dataflow::cost::CostProfile;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct SlowId(u64);
    impl Transformer<Vec<f64>, Vec<f64>> for SlowId {
        fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
            // Busy-wait proportional to self.0 to create measurable cost.
            let mut acc = 0.0f64;
            for i in 0..self.0 * 50 {
                acc += (i as f64).sqrt();
            }
            std::hint::black_box(acc);
            x.clone()
        }
    }

    fn source(n: usize) -> NodeKind {
        let data: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 1.0]).collect();
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(data, 4)))
    }

    #[test]
    fn profiles_chain_and_extrapolates() {
        let mut g = Graph::new();
        let src = g.add(source(5000), vec![], "src");
        let t = g.add(
            NodeKind::Transform(Arc::new(TypedTransformer::new(SlowId(10)))),
            vec![src],
            "slow",
        );
        let ctx = ExecContext::default_cluster();
        let prof = profile_and_select(
            &mut g,
            &[t],
            &ctx,
            &ProfileOptions {
                sizes: vec![128, 256],
                seed: 7,
                select_operators: true,
                ..Default::default()
            },
        );
        let p = prof.nodes.get(&t).expect("profiled");
        assert!(p.secs_per_record >= 0.0);
        assert_eq!(p.records_hint, 5000, "hint {}", p.records_hint);
        assert_eq!(p.out_stats.count, 5000);
        assert!(p.est_output_bytes() > 0.0);
        assert!((p.out_records_per_in - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_two_points() {
        let ms = vec![
            Measurement {
                in_records: 100,
                secs: 1.0,
                out_records: 100,
                out_bytes_per_record: 8.0,
            },
            Measurement {
                in_records: 200,
                secs: 1.8,
                out_records: 200,
                out_bytes_per_record: 8.0,
            },
        ];
        let (slope, intercept) = linear_fit(&ms);
        assert!((slope - 0.008).abs() < 1e-9);
        assert!((intercept - 0.2).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_single_size() {
        let ms = vec![Measurement {
            in_records: 100,
            secs: 2.0,
            out_records: 100,
            out_bytes_per_record: 8.0,
        }];
        let (slope, intercept) = linear_fit(&ms);
        assert!((slope - 0.02).abs() < 1e-9);
        assert_eq!(intercept, 0.0);
    }

    #[test]
    fn linear_fit_never_negative() {
        // Decreasing time with size (noise) must clamp slope to 0.
        let ms = vec![
            Measurement {
                in_records: 100,
                secs: 2.0,
                out_records: 100,
                out_bytes_per_record: 8.0,
            },
            Measurement {
                in_records: 200,
                secs: 1.0,
                out_records: 200,
                out_bytes_per_record: 8.0,
            },
        ];
        let (slope, intercept) = linear_fit(&ms);
        assert_eq!(slope, 0.0);
        assert!(intercept >= 0.0);
    }

    struct CheapOp;
    impl Transformer<Vec<f64>, Vec<f64>> for CheapOp {
        fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
            x.clone()
        }
    }
    struct PriceyOp;
    impl Transformer<Vec<f64>, Vec<f64>> for PriceyOp {
        fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
            x.iter().map(|v| v + 0.0).collect()
        }
    }

    struct TwoWay;
    impl crate::operator::OptimizableTransformer<Vec<f64>, Vec<f64>> for TwoWay {
        fn options(&self) -> Vec<crate::operator::TransformerOption<Vec<f64>, Vec<f64>>> {
            vec![
                crate::operator::TransformerOption {
                    name: "pricey".into(),
                    cost: Box::new(|stats, _| CostProfile::compute(stats[0].count as f64 * 1e6)),
                    op: Box::new(PriceyOp),
                },
                crate::operator::TransformerOption {
                    name: "cheap".into(),
                    cost: Box::new(|stats, _| CostProfile::compute(stats[0].count as f64)),
                    op: Box::new(CheapOp),
                },
            ]
        }
    }

    #[test]
    fn operator_selection_picks_cheapest_and_rewrites_graph() {
        let mut g = Graph::new();
        let src = g.add(source(1000), vec![], "src");
        let t = g.add(
            NodeKind::Transform(Arc::new(crate::operator::LogicalOperator::transformer(
                TwoWay,
            ))),
            vec![src],
            "twoway",
        );
        let ctx = ExecContext::default_cluster();
        let prof = profile_and_select(&mut g, &[t], &ctx, &ProfileOptions::default());
        assert_eq!(prof.choices.len(), 1);
        assert_eq!(prof.choices[0], (t, "cheap".to_string()));
        assert!(g.nodes[t].label.contains("cheap"));
        // The rewritten node is no longer optimizable.
        if let NodeKind::Transform(op) = &g.nodes[t].kind {
            assert!(op.physical_options().is_none());
        } else {
            panic!("expected transform");
        }
    }

    #[test]
    fn selection_disabled_keeps_default() {
        let mut g = Graph::new();
        let src = g.add(source(1000), vec![], "src");
        let t = g.add(
            NodeKind::Transform(Arc::new(crate::operator::LogicalOperator::transformer(
                TwoWay,
            ))),
            vec![src],
            "twoway",
        );
        let ctx = ExecContext::default_cluster();
        let prof = profile_and_select(
            &mut g,
            &[t],
            &ctx,
            &ProfileOptions {
                select_operators: false,
                ..Default::default()
            },
        );
        assert!(prof.choices.is_empty());
        if let NodeKind::Transform(op) = &g.nodes[t].kind {
            assert!(op.physical_options().is_some(), "node must stay logical");
        }
    }

    /// Scales by 10 (the default option) or by 100 (the cheaper one).
    struct PickScale;
    impl crate::operator::OptimizableTransformer<f64, f64> for PickScale {
        fn options(&self) -> Vec<crate::operator::TransformerOption<f64, f64>> {
            [("x10", 10.0, 1e6), ("x100", 100.0, 1.0)]
                .map(|(name, c, secs)| crate::operator::TransformerOption {
                    name: name.into(),
                    cost: per_record(secs),
                    op: Box::new(Scale(c)),
                })
                .into()
        }
        fn name(&self) -> String {
            "PickScale".into()
        }
    }
    struct Scale(f64);
    impl Transformer<f64, f64> for Scale {
        fn apply(&self, x: &f64) -> f64 {
            x * self.0
        }
    }

    /// Selection rewrites a logical transformer's apply-path twin along
    /// with its training-path node, so `apply` runs the option the fit
    /// chose rather than the default.
    #[test]
    fn the_apply_path_runs_the_option_the_fit_chose() {
        let pipe = Pipeline::<f64, f64>::input()
            .and_then_optimizable(PickScale)
            .and_then_est(CountedFit(Arc::new(AtomicUsize::new(0))), &counted_source());
        let opts = crate::optimizer::PipelineOptions {
            profile: counted_profile(),
            ..crate::optimizer::PipelineOptions::full()
        };
        let ctx = ExecContext::default_cluster();
        let (fitted, report) = pipe.fit(&ctx, &opts);
        let choice = ("PickScale[x100]".to_string(), "x100".to_string());
        assert_eq!(report.choices, vec![choice]);
        let plan = fitted.plan();
        for &id in plan.apply_path() {
            let node = &plan.graph().nodes[id];
            if let NodeKind::Transform(op) = &node.kind {
                assert!(
                    op.physical_options().is_none(),
                    "{} stayed logical",
                    node.label
                );
                assert_eq!(node.label, "PickScale[x100]");
            }
        }
        let test = DistCollection::from_vec(vec![1.0, 2.0], 1);
        assert_eq!(fitted.apply(&test, &ctx).collect(), vec![100.0, 200.0]);
    }

    /// Identity model.
    struct Same;
    impl Transformer<f64, f64> for Same {
        fn apply(&self, x: &f64) -> f64 {
            *x
        }
    }

    /// Counts its fits, with or without labels.
    struct CountedFit(Arc<AtomicUsize>);
    impl CountedFit {
        fn fit_once(&self) -> Box<dyn Transformer<f64, f64>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Box::new(Same)
        }
    }
    impl Estimator<f64, f64> for CountedFit {
        fn fit(&self, _: &DistCollection<f64>, _: &ExecContext) -> Box<dyn Transformer<f64, f64>> {
            self.fit_once()
        }
    }
    impl LabelEstimator<f64, f64, f64> for CountedFit {
        fn fit(
            &self,
            _: &DistCollection<f64>,
            _: &DistCollection<f64>,
            _: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            self.fit_once()
        }
    }

    /// A logical `CountedFit` whose options cost 10⁶ and 1 per record.
    struct TwoFits(Arc<AtomicUsize>);
    fn per_record(secs: f64) -> CostFn {
        Box::new(move |stats, _| CostProfile::compute(stats[0].count as f64 * secs))
    }
    impl OptimizableEstimator<f64, f64> for TwoFits {
        fn options(&self) -> Vec<EstimatorOption<f64, f64>> {
            [("pricey", 1e6), ("cheap", 1.0)]
                .map(|(name, secs)| EstimatorOption {
                    name: name.into(),
                    cost: per_record(secs),
                    op: Box::new(CountedFit(self.0.clone())),
                })
                .into()
        }
    }
    impl OptimizableLabelEstimator<f64, f64, f64> for TwoFits {
        fn options(&self) -> Vec<LabelEstimatorOption<f64, f64, f64>> {
            [("pricey", 1e6), ("cheap", 1.0)]
                .map(|(name, secs)| LabelEstimatorOption {
                    name: name.into(),
                    cost: per_record(secs),
                    op: Box::new(CountedFit(self.0.clone())),
                })
                .into()
        }
    }

    const N: usize = 1000;

    fn counted_source() -> DistCollection<f64> {
        DistCollection::from_vec((0..N).map(|i| i as f64).collect(), 4)
    }

    fn counted_profile() -> ProfileOptions {
        ProfileOptions {
            sizes: vec![64, 128],
            seed: 5,
            select_operators: true,
            deterministic_timing: true,
        }
    }

    /// Profiles `pipe`'s fit roots with operator selection on, returning
    /// the profile and the context it traced to.
    fn profile_pipeline(pipe: &Pipeline<f64, f64>) -> (PipelineProfile, ExecContext) {
        let mut g = pipe.graph_snapshot();
        let roots = crate::optimizer::fit_roots(&g, pipe.output_node());
        let ctx = ExecContext::default_cluster();
        let profile = profile_and_select(&mut g, &roots, &ctx, &counted_profile());
        (profile, ctx)
    }

    /// A terminal estimator operator selection chose an option for is
    /// priced, not fit: its profile is the chosen candidate's estimate over
    /// the full input, and the fit itself runs it once.
    #[test]
    fn a_selected_terminal_estimator_is_priced_not_fit() {
        let fits = Arc::new(AtomicUsize::new(0));
        let pipe = Pipeline::<f64, f64>::input().and_then_optimizable_label_est(
            TwoFits(fits.clone()),
            &counted_source(),
            &counted_source(),
        );
        let (profile, ctx) = profile_pipeline(&pipe);
        assert_eq!(fits.load(Ordering::SeqCst), 0, "fit during profiling");

        let (id, chosen) = &profile.choices[0];
        assert_eq!(chosen, "cheap");
        let chosen_est = ctx
            .tracer
            .events()
            .into_iter()
            .find_map(|e| match e.event {
                crate::trace::TraceEvent::OperatorChoice { candidates, .. } => candidates
                    .into_iter()
                    .find(|c| &c.name == chosen)
                    .map(|c| c.est_secs),
                _ => None,
            })
            .expect("an OperatorChoice event");
        let p = &profile.nodes[id];
        assert_eq!(p.records_hint, N);
        let priced = p.est_secs(p.records_hint);
        assert!(
            (priced - chosen_est).abs() <= 1e-12 * chosen_est,
            "priced {priced} vs chosen estimate {chosen_est}"
        );

        let opts = crate::optimizer::PipelineOptions {
            profile: counted_profile(),
            ..crate::optimizer::PipelineOptions::full()
        };
        pipe.fit(&ExecContext::default_cluster(), &opts);
        assert_eq!(fits.load(Ordering::SeqCst), 1, "fits in total");
    }

    /// An estimator whose model a profiled node reads is still fit on every
    /// sample, selected or not, and so is a plain terminal estimator: its
    /// profile is the only price the executor charges it by.
    #[test]
    fn read_and_plain_estimators_are_still_fit_per_sample() {
        let (read, plain) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let pipe = Pipeline::<f64, f64>::input()
            .and_then_optimizable_est(TwoFits(read.clone()), &counted_source())
            .and_then_est(CountedFit(plain.clone()), &counted_source());
        let (profile, _) = profile_pipeline(&pipe);
        assert_eq!(profile.choices.len(), 1, "the read estimator was selected");
        let sizes = counted_profile().sizes.len();
        assert_eq!(read.load(Ordering::SeqCst), sizes);
        assert_eq!(plain.load(Ordering::SeqCst), sizes);
    }
}
