//! The [`RunArtifact`]: one self-describing, versioned JSON bundle per
//! fit/apply/serve run.
//!
//! A run today produces telemetry in five places — the tracer's event
//! stream, per-partition [`TaskSpan`]s in the metrics registry, scalar
//! counters/gauges/histograms, the predicted-vs-actual
//! [`PipelineReport`], and (for serving runs) per-request latency splits
//! — all of which evaporate at process exit. The artifact joins them
//! into one bundle keyed by plan-node id, so every datum points back at
//! graph structure, and persists it as deterministic JSON: sorted object
//! keys, shortest-roundtrip floats, and (in the default deterministic
//! capture mode) only *virtual* quantities, so two identical seeded runs
//! serialize byte-identically. The diagnosis engine
//! ([`crate::diagnose`]) and the regression comparator
//! ([`crate::regress`]) both consume this type; ROADMAP item 3
//! (adaptive re-optimization) is its intended third consumer.
//!
//! # Determinism contract
//!
//! With [`CaptureOptions::deterministic`] set (the default):
//!
//! * wall-clock fields are nulled (`NodeEnd.wall_secs`,
//!   `SpeculativeWin.original_secs`, span start/end/worker, skew ratios
//!   and utilization derived from wall time, `FitReport::optimize_secs`);
//! * task spans are sorted by `(stage_id, stage, op_seq, partition, op)`
//!   — their recording order can race under a parallel pool;
//! * straggler evidence comes from *record* skew (per-partition
//!   `items_in`, which is seed-pure) rather than time skew.
//!
//! Byte-identity additionally requires the run itself to be seed-pure:
//! profile with `ProfileOptions::deterministic_timing` (otherwise sim
//! charges for unprofiled nodes fall back to measured wall time) and
//! avoid straggler fault injection (speculative copies are priced at the
//! measured wave median). `examples/diagnose.rs` and the round-trip
//! tests follow exactly this recipe.
//!
//! [`TaskSpan`]: keystone_dataflow::metrics::TaskSpan
//! [`PipelineReport`]: keystone_core::report::PipelineReport

use std::collections::HashMap;

use keystone_core::context::ExecContext;
use keystone_core::graph::{Graph, NodeId, NodeKind};
use keystone_core::pipeline::{ExecutablePlan, FitReport};
use keystone_core::profiler::PipelineProfile;
use keystone_core::report::PipelineReport;
use keystone_core::trace::{CacheCounters, RecoveryStats, TraceEvent, TracedEvent};
use keystone_dataflow::json::{self, JVal};
use keystone_dataflow::metrics::{Histogram, TaskSpan};
use keystone_dataflow::simclock::SimEntry;
use keystone_serve::loadgen::percentile;
use keystone_serve::server::ServeOutcome;

/// Version stamped into every artifact; bump on any change to the JSON
/// layout. Readers check it via [`schema_version_of`] before trusting
/// field paths.
///
/// History: v1 — initial layout; v2 — adaptive re-optimization: per-node
/// `adapt` flags, the top-level `adaptation` section (fit runs), and the
/// `recalibrate` / `plan_revision` event types; v3 — multi-tenant forest
/// fits: the top-level `tenants` section (per-tenant attribution rows) and
/// the `cross_cse_merge` event type.
pub const SCHEMA_VERSION: u32 = 3;

/// What kind of run the artifact records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A `Pipeline::fit` (optimize + estimator execution).
    Fit,
    /// A batch `apply` over a fitted plan.
    Apply,
    /// A micro-batched serving run.
    Serve,
}

impl RunKind {
    fn as_str(&self) -> &'static str {
        match self {
            RunKind::Fit => "fit",
            RunKind::Apply => "apply",
            RunKind::Serve => "serve",
        }
    }
}

/// Capture configuration.
#[derive(Debug, Clone)]
pub struct CaptureOptions {
    /// Virtual-quantities-only mode (see the module docs). Default `true`.
    pub deterministic: bool,
    /// Free-form run label stamped into the artifact (`meta.label`).
    pub label: String,
}

impl Default for CaptureOptions {
    fn default() -> Self {
        CaptureOptions {
            deterministic: true,
            label: String::new(),
        }
    }
}

/// One plan node's structure: the join key everything else points at.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Node id in the optimized graph.
    pub id: NodeId,
    /// Node label.
    pub label: String,
    /// Kind name (`source`/`input`/`transform`/`estimate`/`model_apply`).
    pub kind: &'static str,
    /// Input node ids.
    pub inputs: Vec<NodeId>,
    /// Member labels when the node is a whole-stage fused chain.
    pub fused_members: Vec<String>,
    /// Whether the optimizer pinned this node for materialization.
    pub cached: bool,
}

/// The structural section: the optimized DAG plus what the optimizer did.
#[derive(Debug, Clone, Default)]
pub struct PlanSection {
    /// Every node of the optimized graph, in id order.
    pub nodes: Vec<PlanNode>,
    /// The output node id.
    pub output: NodeId,
    /// Materialization picks, ascending node id.
    pub cache_set: Vec<NodeId>,
    /// `(node label, chosen physical operator)` pairs (fit runs only).
    pub choices: Vec<(String, String)>,
    /// Nodes removed by CSE (fit runs only).
    pub eliminated_nodes: usize,
    /// Nodes absorbed into fused chains (fit runs only).
    pub fused_nodes: usize,
}

/// One node's joined telemetry row (the artifact analogue of
/// [`keystone_core::report::NodeReport`], restricted to deterministic
/// fields in deterministic mode).
#[derive(Debug, Clone)]
pub struct NodeRow {
    /// Node id — joins against [`PlanSection::nodes`].
    pub node: NodeId,
    /// Node label.
    pub label: String,
    /// Profiler-predicted seconds for one full-scale execution.
    pub predicted_secs: Option<f64>,
    /// Profiler-predicted output bytes at full scale.
    pub predicted_out_bytes: Option<f64>,
    /// Observed wall seconds (`None` in deterministic mode).
    pub actual_wall_secs: Option<f64>,
    /// Observed simulated-cluster seconds summed over executions.
    pub actual_sim_secs: f64,
    /// Observed output bytes (last execution).
    pub actual_out_bytes: u64,
    /// Completed executions.
    pub execs: u64,
    /// Cache counters for the node's output.
    pub cache: CacheCounters,
    /// Task spans recorded while the node executed.
    pub task_spans: u64,
    /// Distinct partitions those spans covered.
    pub partitions: u64,
    /// Max/median per-partition *busy time* (`None` in deterministic
    /// mode — wall-derived).
    pub time_skew: Option<f64>,
    /// Max/median per-partition *input records* — the deterministic skew
    /// signal (`None` when the node emitted no spans).
    pub record_skew: Option<f64>,
    /// Failed attempts absorbed as retries.
    pub retries: u64,
    /// Straggler partitions beaten by a speculative copy.
    pub speculative_wins: u64,
    /// Simulated seconds of recovery work charged against this node.
    pub recovery_secs: f64,
    /// Adaptive re-optimization flags (`"recalibrated"` / `"promoted"` /
    /// `"evicted"`, `+`-joined), `None` when adaptation never touched the
    /// node.
    pub adapt: Option<String>,
}

/// One per-partition task span row (wall fields optional — nulled in
/// deterministic mode).
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Stage label.
    pub stage: String,
    /// Executor node id, when the scope owner set one.
    pub stage_id: Option<u64>,
    /// Collection operation (`map`, `aggregate`, ...).
    pub op: &'static str,
    /// Operation sequence number within its scope.
    pub op_seq: u64,
    /// Partition index.
    pub partition: usize,
    /// Worker lane (`None` in deterministic mode — pool assignment races).
    pub worker: Option<usize>,
    /// Items read.
    pub items_in: u64,
    /// Items produced.
    pub items_out: u64,
    /// Bytes read (shallow estimate).
    pub bytes: u64,
    /// Failed attempts absorbed.
    pub retries: u32,
    /// Lost a speculative race.
    pub speculative: bool,
    /// Wall start/end, microseconds (`None` in deterministic mode).
    pub start_us: Option<u64>,
    /// See [`SpanRow::start_us`].
    pub end_us: Option<u64>,
}

/// Serving-run latency splits, payload-free.
#[derive(Debug, Clone, Default)]
pub struct ServeSection {
    /// Admitted requests.
    pub admitted: u64,
    /// Rejected requests.
    pub rejected: u64,
    /// Dispatched waves.
    pub batches: u64,
    /// Largest queue depth observed.
    pub max_queue_depth: u64,
    /// When the last wave finished, virtual seconds.
    pub makespan_secs: f64,
    /// Total seconds requests spent blocked behind the busy executor.
    pub queue_secs_total: f64,
    /// Total seconds requests spent waiting for their batch to dispatch.
    pub linger_secs_total: f64,
    /// Total per-request execution seconds.
    pub execute_secs_total: f64,
    /// Median total virtual latency.
    pub p50_latency_secs: f64,
    /// 99th-percentile total virtual latency.
    pub p99_latency_secs: f64,
}

impl ServeSection {
    /// Summarizes a [`ServeOutcome`], dropping payloads.
    pub fn from_outcome<B>(o: &ServeOutcome<B>) -> ServeSection {
        let totals: Vec<f64> = o.responses.iter().map(|r| r.timing.total_secs()).collect();
        ServeSection {
            admitted: o.responses.len() as u64,
            rejected: o.rejects.len() as u64,
            batches: o.batches.len() as u64,
            max_queue_depth: o.max_queue_depth as u64,
            makespan_secs: o.makespan_secs,
            queue_secs_total: o.responses.iter().map(|r| r.timing.queue_secs).sum(),
            linger_secs_total: o.responses.iter().map(|r| r.timing.batch_secs).sum(),
            execute_secs_total: o.responses.iter().map(|r| r.timing.execute_secs).sum(),
            p50_latency_secs: percentile(&totals, 50.0),
            p99_latency_secs: percentile(&totals, 99.0),
        }
    }
}

/// A named histogram's full state.
#[derive(Debug, Clone)]
pub struct HistogramRow {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Bucket counts (last is overflow).
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Observation count.
    pub count: u64,
    /// Nearest-rank median (bucket-edge estimate).
    pub p50: Option<f64>,
    /// Nearest-rank p99 (bucket-edge estimate).
    pub p99: Option<f64>,
}

impl HistogramRow {
    fn from(name: &str, h: &Histogram) -> HistogramRow {
        HistogramRow {
            name: name.to_string(),
            bounds: h.bounds().to_vec(),
            counts: h.bucket_counts().to_vec(),
            sum: h.sum(),
            count: h.count(),
            p50: h.p50(),
            p99: h.p99(),
        }
    }
}

/// The flight-recorder bundle: everything one run did, joined by plan
/// node id. See the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Schema version ([`SCHEMA_VERSION`] at capture time).
    pub schema_version: u32,
    /// Run kind.
    pub kind: RunKind,
    /// Whether wall quantities were dropped at capture.
    pub deterministic: bool,
    /// Free-form run label.
    pub label: String,
    /// Optimizer wall seconds (`None` in deterministic mode or non-fit
    /// runs).
    pub optimize_secs: Option<f64>,
    /// The structural section.
    pub plan: PlanSection,
    /// Joined per-node telemetry, ascending node id.
    pub nodes: Vec<NodeRow>,
    /// The simulated-clock ledger, in charge order.
    pub sim_entries: Vec<SimEntry>,
    /// Ledger total, seconds.
    pub sim_total_secs: f64,
    /// Ledger grouped by stage prefix, first-seen order.
    pub sim_by_stage: Vec<(String, f64)>,
    /// Counters, sorted by name at serialization.
    pub counters: HashMap<String, u64>,
    /// Gauges, sorted by name at serialization.
    pub gauges: HashMap<String, f64>,
    /// Histograms with full bucket state.
    pub histograms: Vec<HistogramRow>,
    /// The trace event stream, in recording order.
    pub events: Vec<TracedEvent>,
    /// Per-partition task spans (sorted deterministically).
    pub spans: Vec<SpanRow>,
    /// Aggregate recovery statistics.
    pub recovery: RecoveryStats,
    /// Serving latency splits (serve runs only).
    pub serve: Option<ServeSection>,
    /// Adaptive re-optimization summary (fit runs only; `None` elsewhere
    /// and on fits where adaptation was disabled before schema v2).
    pub adaptation: Option<keystone_core::optimizer::AdaptationReport>,
    /// Per-tenant attribution rows when the run was a multi-tenant forest
    /// fit (`fit_forest`); empty for ordinary runs. Schema v3.
    pub tenants: Vec<keystone_core::report::TenantRow>,
}

fn kind_name(kind: &NodeKind) -> &'static str {
    match kind {
        NodeKind::RuntimeInput => "input",
        NodeKind::DataSource(_) => "source",
        NodeKind::Transform(_) => "transform",
        NodeKind::Estimate(_) => "estimate",
        NodeKind::ModelApply => "model_apply",
    }
}

fn plan_section(graph: &Graph, output: NodeId, cache_set: &[NodeId]) -> PlanSection {
    let nodes = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(id, n)| {
            let fused_members = match &n.kind {
                NodeKind::Transform(op) => op.fused_members().unwrap_or_default(),
                _ => Vec::new(),
            };
            PlanNode {
                id,
                label: n.label.clone(),
                kind: kind_name(&n.kind),
                inputs: n.inputs.clone(),
                fused_members,
                cached: cache_set.contains(&id),
            }
        })
        .collect();
    PlanSection {
        nodes,
        output,
        cache_set: cache_set.to_vec(),
        choices: Vec::new(),
        eliminated_nodes: 0,
        fused_nodes: 0,
    }
}

/// Per-stage record skew: max/median of per-partition summed `items_in`,
/// keyed by stage id. This is the deterministic straggler signal — input
/// cardinality per partition is a pure function of the data layout.
fn record_skew_by_node(spans: &[TaskSpan]) -> HashMap<u64, f64> {
    let mut groups: HashMap<u64, HashMap<usize, u64>> = HashMap::new();
    for s in spans {
        if let Some(id) = s.stage_id {
            *groups
                .entry(id)
                .or_default()
                .entry(s.partition)
                .or_insert(0) += s.items_in;
        }
    }
    groups
        .into_iter()
        .map(|(id, parts)| {
            let mut counts: Vec<u64> = parts.values().copied().collect();
            counts.sort_unstable();
            let max = *counts.last().expect("non-empty group") as f64;
            let median = counts[(counts.len() - 1) / 2].max(1) as f64;
            (id, max / median)
        })
        .collect()
}

fn node_rows(report: &PipelineReport, spans: &[TaskSpan], deterministic: bool) -> Vec<NodeRow> {
    let record_skew = record_skew_by_node(spans);
    report
        .nodes
        .iter()
        .map(|n| NodeRow {
            node: n.node,
            label: n.label.clone(),
            predicted_secs: n.predicted_secs,
            predicted_out_bytes: n.predicted_out_bytes,
            actual_wall_secs: if deterministic {
                None
            } else {
                Some(n.actual_wall_secs)
            },
            actual_sim_secs: n.actual_sim_secs,
            actual_out_bytes: n.actual_out_bytes,
            execs: n.execs,
            cache: n.cache,
            task_spans: n.task_spans,
            partitions: n.partitions,
            time_skew: if deterministic { None } else { n.skew_ratio },
            record_skew: record_skew.get(&(n.node as u64)).copied(),
            retries: n.retries,
            speculative_wins: n.speculative_wins,
            recovery_secs: n.recovery_secs,
            adapt: n.adapt.clone(),
        })
        .collect()
}

fn span_rows(spans: Vec<TaskSpan>, deterministic: bool) -> Vec<SpanRow> {
    let mut rows: Vec<SpanRow> = spans
        .into_iter()
        .map(|s| SpanRow {
            stage_id: s.stage_id,
            op_seq: s.op_seq,
            partition: s.partition,
            op: s.op,
            items_in: s.items_in,
            items_out: s.items_out,
            bytes: s.bytes,
            retries: s.retries,
            speculative: s.speculative,
            worker: if deterministic { None } else { Some(s.worker) },
            start_us: if deterministic {
                None
            } else {
                Some(s.start_us)
            },
            end_us: if deterministic { None } else { Some(s.end_us) },
            stage: s.stage,
        })
        .collect();
    // Recording order races under a parallel pool; the artifact orders
    // spans by identity instead.
    rows.sort_by(|a, b| {
        (a.stage_id, &a.stage, a.op_seq, a.partition, a.op).cmp(&(
            b.stage_id,
            &b.stage,
            b.op_seq,
            b.partition,
            b.op,
        ))
    });
    rows
}

impl RunArtifact {
    fn capture_common(
        kind: RunKind,
        plan: PlanSection,
        report: &PipelineReport,
        ctx: &ExecContext,
        opts: &CaptureOptions,
        serve: Option<ServeSection>,
    ) -> RunArtifact {
        let spans = ctx.metrics.spans();
        let nodes = node_rows(report, &spans, opts.deterministic);
        let snapshot = ctx.metrics.snapshot();
        let mut histograms: Vec<HistogramRow> = snapshot
            .histograms
            .iter()
            .map(|(name, h)| HistogramRow::from(name, h))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        RunArtifact {
            schema_version: SCHEMA_VERSION,
            kind,
            deterministic: opts.deterministic,
            label: opts.label.clone(),
            optimize_secs: None,
            plan,
            nodes,
            sim_entries: ctx.sim.entries(),
            sim_total_secs: ctx.sim.total_seconds(),
            sim_by_stage: ctx.sim.by_stage(),
            counters: snapshot.counters,
            gauges: snapshot.gauges,
            histograms,
            events: ctx.tracer.events(),
            spans: span_rows(spans, opts.deterministic),
            recovery: ctx.tracer.recovery_stats(),
            serve,
            adaptation: None,
            tenants: report.tenants.clone(),
        }
    }

    /// Captures a fit run: the [`FitReport`]'s optimizer decisions and
    /// predicted-vs-actual join, plus everything on the context.
    pub fn capture_fit(
        report: &FitReport,
        plan: &ExecutablePlan,
        ctx: &ExecContext,
        opts: &CaptureOptions,
    ) -> RunArtifact {
        let mut cache_set: Vec<NodeId> = report.cache_set.iter().copied().collect();
        cache_set.sort_unstable();
        let mut section = plan_section(plan.graph(), plan.output_node(), &cache_set);
        section.choices = report.choices.clone();
        section.eliminated_nodes = report.eliminated_nodes;
        section.fused_nodes = report.fused_nodes;
        let mut artifact = Self::capture_common(
            RunKind::Fit,
            section,
            &report.observability,
            ctx,
            opts,
            None,
        );
        if !opts.deterministic {
            artifact.optimize_secs = Some(report.optimize_secs);
        }
        artifact.adaptation = Some(report.adaptation.clone());
        artifact
    }

    /// Captures an apply run over a fitted plan: rebuilds the
    /// predicted-vs-actual join from the plan's stored profiles against
    /// the context's tracer/metrics.
    pub fn capture_apply(
        plan: &ExecutablePlan,
        ctx: &ExecContext,
        opts: &CaptureOptions,
    ) -> RunArtifact {
        let profile = PipelineProfile {
            nodes: plan.profiles().clone(),
            choices: Vec::new(),
        };
        let report = PipelineReport::build_with_metrics(
            plan.graph(),
            &profile,
            &ctx.tracer,
            Some(&ctx.metrics),
        );
        let section = plan_section(plan.graph(), plan.output_node(), &[]);
        Self::capture_common(RunKind::Apply, section, &report, ctx, opts, None)
    }

    /// Captures a serving run: like [`RunArtifact::capture_apply`] plus
    /// the serving latency section.
    pub fn capture_serve(
        plan: &ExecutablePlan,
        serve: ServeSection,
        ctx: &ExecContext,
        opts: &CaptureOptions,
    ) -> RunArtifact {
        let profile = PipelineProfile {
            nodes: plan.profiles().clone(),
            choices: Vec::new(),
        };
        let report = PipelineReport::build_with_metrics(
            plan.graph(),
            &profile,
            &ctx.tracer,
            Some(&ctx.metrics),
        );
        let section = plan_section(plan.graph(), plan.output_node(), &[]);
        Self::capture_common(RunKind::Serve, section, &report, ctx, opts, Some(serve))
    }

    /// The cache hit ratio over all nodes (`hits / (hits + misses)`),
    /// `None` when there were no lookups.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits: u64 = self.nodes.iter().map(|n| n.cache.hits).sum();
        let misses: u64 = self.nodes.iter().map(|n| n.cache.misses).sum();
        if hits + misses == 0 {
            None
        } else {
            Some(hits as f64 / (hits + misses) as f64)
        }
    }

    /// The node row for `id`.
    pub fn node(&self, id: NodeId) -> Option<&NodeRow> {
        self.nodes.iter().find(|n| n.node == id)
    }

    /// The label of plan node `id` (empty when out of range).
    pub fn node_label(&self, id: NodeId) -> &str {
        self.plan
            .nodes
            .get(id)
            .map(|n| n.label.as_str())
            .unwrap_or("")
    }

    /// Serializes the bundle as deterministic JSON (sorted keys,
    /// shortest-roundtrip floats).
    pub fn to_json(&self) -> String {
        self.to_jval().render()
    }

    fn to_jval(&self) -> JVal {
        JVal::obj(vec![
            (
                "meta",
                JVal::obj(vec![
                    ("schema_version", JVal::UInt(self.schema_version as u64)),
                    ("kind", JVal::str(self.kind.as_str())),
                    ("deterministic", JVal::Bool(self.deterministic)),
                    ("label", JVal::str(&self.label)),
                    ("optimize_secs", JVal::opt_num(self.optimize_secs)),
                ]),
            ),
            ("plan", plan_jval(&self.plan)),
            (
                "nodes",
                JVal::Arr(self.nodes.iter().map(node_row_jval).collect()),
            ),
            (
                "sim",
                JVal::obj(vec![
                    ("total_secs", JVal::Num(self.sim_total_secs)),
                    (
                        "by_stage",
                        JVal::Arr(
                            self.sim_by_stage
                                .iter()
                                .map(|(stage, secs)| {
                                    JVal::obj(vec![
                                        ("stage", JVal::str(stage)),
                                        ("secs", JVal::Num(*secs)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "entries",
                        JVal::Arr(
                            self.sim_entries
                                .iter()
                                .map(|e| {
                                    JVal::obj(vec![
                                        ("stage", JVal::str(&e.stage)),
                                        ("exec_secs", JVal::Num(e.exec_secs)),
                                        ("coord_secs", JVal::Num(e.coord_secs)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("counters", json::uint_map(&self.counters)),
            ("gauges", json::num_map(&self.gauges)),
            (
                "histograms",
                JVal::Arr(self.histograms.iter().map(histogram_jval).collect()),
            ),
            (
                "events",
                JVal::Arr(
                    self.events
                        .iter()
                        .map(|e| event_jval(e, self.deterministic))
                        .collect(),
                ),
            ),
            (
                "spans",
                JVal::Arr(self.spans.iter().map(span_jval).collect()),
            ),
            (
                "recovery",
                JVal::obj(vec![
                    ("retries", JVal::UInt(self.recovery.retries)),
                    (
                        "speculative_wins",
                        JVal::UInt(self.recovery.speculative_wins),
                    ),
                    ("cache_losses", JVal::UInt(self.recovery.cache_losses)),
                    ("recovery_secs", JVal::Num(self.recovery.recovery_secs)),
                ]),
            ),
            (
                "serve",
                match &self.serve {
                    Some(s) => serve_jval(s),
                    None => JVal::Null,
                },
            ),
            (
                "adaptation",
                match &self.adaptation {
                    Some(a) => adaptation_jval(a),
                    None => JVal::Null,
                },
            ),
            (
                "tenants",
                JVal::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            JVal::obj(vec![
                                ("tenant", JVal::UInt(t.tenant as u64)),
                                ("output", JVal::UInt(t.output as u64)),
                                (
                                    "fit_roots",
                                    JVal::Arr(
                                        t.fit_roots.iter().map(|&n| JVal::UInt(n as u64)).collect(),
                                    ),
                                ),
                                ("shared_nodes", JVal::UInt(t.shared_nodes as u64)),
                                ("sim_secs", JVal::Num(t.sim_secs)),
                                ("solo_secs", JVal::Num(t.solo_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Reads the schema version out of an artifact JSON document without
/// interpreting the rest — the check a reader performs before trusting
/// field paths.
pub fn schema_version_of(json: &str) -> Option<u32> {
    let doc = json::parse(json).ok()?;
    doc.get("meta")?
        .get("schema_version")?
        .as_f64()
        .map(|v| v as u32)
}

fn plan_jval(p: &PlanSection) -> JVal {
    JVal::obj(vec![
        (
            "nodes",
            JVal::Arr(
                p.nodes
                    .iter()
                    .map(|n| {
                        JVal::obj(vec![
                            ("id", JVal::UInt(n.id as u64)),
                            ("label", JVal::str(&n.label)),
                            ("kind", JVal::str(n.kind)),
                            (
                                "inputs",
                                JVal::Arr(n.inputs.iter().map(|&i| JVal::UInt(i as u64)).collect()),
                            ),
                            (
                                "fused_members",
                                JVal::Arr(n.fused_members.iter().map(|m| JVal::str(m)).collect()),
                            ),
                            ("cached", JVal::Bool(n.cached)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("output", JVal::UInt(p.output as u64)),
        (
            "cache_set",
            JVal::Arr(p.cache_set.iter().map(|&i| JVal::UInt(i as u64)).collect()),
        ),
        (
            "choices",
            JVal::Arr(
                p.choices
                    .iter()
                    .map(|(label, op)| {
                        JVal::obj(vec![("label", JVal::str(label)), ("chosen", JVal::str(op))])
                    })
                    .collect(),
            ),
        ),
        ("eliminated_nodes", JVal::UInt(p.eliminated_nodes as u64)),
        ("fused_nodes", JVal::UInt(p.fused_nodes as u64)),
    ])
}

fn node_row_jval(n: &NodeRow) -> JVal {
    JVal::obj(vec![
        ("node", JVal::UInt(n.node as u64)),
        ("label", JVal::str(&n.label)),
        ("predicted_secs", JVal::opt_num(n.predicted_secs)),
        ("predicted_out_bytes", JVal::opt_num(n.predicted_out_bytes)),
        ("actual_wall_secs", JVal::opt_num(n.actual_wall_secs)),
        ("actual_sim_secs", JVal::Num(n.actual_sim_secs)),
        ("actual_out_bytes", JVal::UInt(n.actual_out_bytes)),
        ("execs", JVal::UInt(n.execs)),
        (
            "cache",
            JVal::obj(vec![
                ("hits", JVal::UInt(n.cache.hits)),
                ("misses", JVal::UInt(n.cache.misses)),
                ("admissions", JVal::UInt(n.cache.admissions)),
                ("evictions", JVal::UInt(n.cache.evictions)),
                ("rejections", JVal::UInt(n.cache.rejections)),
            ]),
        ),
        ("task_spans", JVal::UInt(n.task_spans)),
        ("partitions", JVal::UInt(n.partitions)),
        ("time_skew", JVal::opt_num(n.time_skew)),
        ("record_skew", JVal::opt_num(n.record_skew)),
        ("retries", JVal::UInt(n.retries)),
        ("speculative_wins", JVal::UInt(n.speculative_wins)),
        ("recovery_secs", JVal::Num(n.recovery_secs)),
        (
            "adapt",
            n.adapt.as_deref().map(JVal::str).unwrap_or(JVal::Null),
        ),
    ])
}

fn adaptation_jval(a: &keystone_core::optimizer::AdaptationReport) -> JVal {
    JVal::obj(vec![
        ("recalibrations", JVal::UInt(a.recalibrations)),
        (
            "revisions",
            JVal::Arr(
                a.revisions
                    .iter()
                    .map(|r| {
                        JVal::obj(vec![
                            ("wave", JVal::UInt(r.wave)),
                            (
                                "promoted",
                                JVal::Arr(
                                    r.promoted.iter().map(|&n| JVal::UInt(n as u64)).collect(),
                                ),
                            ),
                            (
                                "evicted",
                                JVal::Arr(
                                    r.evicted.iter().map(|&n| JVal::UInt(n as u64)).collect(),
                                ),
                            ),
                            ("predicted_saving_secs", JVal::Num(r.predicted_saving_secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("decision_secs", JVal::Num(a.decision_secs)),
    ])
}

fn histogram_jval(h: &HistogramRow) -> JVal {
    JVal::obj(vec![
        ("name", JVal::str(&h.name)),
        (
            "bounds",
            JVal::Arr(h.bounds.iter().map(|&b| JVal::Num(b)).collect()),
        ),
        (
            "counts",
            JVal::Arr(h.counts.iter().map(|&c| JVal::UInt(c)).collect()),
        ),
        ("sum", JVal::Num(h.sum)),
        ("count", JVal::UInt(h.count)),
        ("p50", JVal::opt_num(h.p50)),
        ("p99", JVal::opt_num(h.p99)),
    ])
}

fn span_jval(s: &SpanRow) -> JVal {
    JVal::obj(vec![
        ("stage", JVal::str(&s.stage)),
        ("stage_id", s.stage_id.map(JVal::UInt).unwrap_or(JVal::Null)),
        ("op", JVal::str(s.op)),
        ("op_seq", JVal::UInt(s.op_seq)),
        ("partition", JVal::UInt(s.partition as u64)),
        (
            "worker",
            s.worker.map(|w| JVal::UInt(w as u64)).unwrap_or(JVal::Null),
        ),
        ("items_in", JVal::UInt(s.items_in)),
        ("items_out", JVal::UInt(s.items_out)),
        ("bytes", JVal::UInt(s.bytes)),
        ("retries", JVal::UInt(s.retries as u64)),
        ("speculative", JVal::Bool(s.speculative)),
        ("start_us", s.start_us.map(JVal::UInt).unwrap_or(JVal::Null)),
        ("end_us", s.end_us.map(JVal::UInt).unwrap_or(JVal::Null)),
    ])
}

fn serve_jval(s: &ServeSection) -> JVal {
    JVal::obj(vec![
        ("admitted", JVal::UInt(s.admitted)),
        ("rejected", JVal::UInt(s.rejected)),
        ("batches", JVal::UInt(s.batches)),
        ("max_queue_depth", JVal::UInt(s.max_queue_depth)),
        ("makespan_secs", JVal::Num(s.makespan_secs)),
        ("queue_secs_total", JVal::Num(s.queue_secs_total)),
        ("linger_secs_total", JVal::Num(s.linger_secs_total)),
        ("execute_secs_total", JVal::Num(s.execute_secs_total)),
        ("p50_latency_secs", JVal::Num(s.p50_latency_secs)),
        ("p99_latency_secs", JVal::Num(s.p99_latency_secs)),
    ])
}

fn event_jval(e: &TracedEvent, deterministic: bool) -> JVal {
    let mut pairs: Vec<(&str, JVal)> = vec![("seq", JVal::UInt(e.seq))];
    match &e.event {
        TraceEvent::NodeStart { node, label } => {
            pairs.push(("type", JVal::str("node_start")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("label", JVal::str(label)));
        }
        TraceEvent::NodeEnd {
            node,
            label,
            records,
            out_bytes,
            wall_secs,
            sim_secs,
        } => {
            pairs.push(("type", JVal::str("node_end")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("label", JVal::str(label)));
            pairs.push(("records", JVal::UInt(*records as u64)));
            pairs.push(("out_bytes", JVal::UInt(*out_bytes)));
            pairs.push((
                "wall_secs",
                if deterministic {
                    JVal::Null
                } else {
                    JVal::Num(*wall_secs)
                },
            ));
            pairs.push(("sim_secs", JVal::Num(*sim_secs)));
        }
        TraceEvent::CacheHit { node } => {
            pairs.push(("type", JVal::str("cache_hit")));
            pairs.push(("node", JVal::UInt(*node as u64)));
        }
        TraceEvent::CacheMiss { node } => {
            pairs.push(("type", JVal::str("cache_miss")));
            pairs.push(("node", JVal::UInt(*node as u64)));
        }
        TraceEvent::CacheAdmit { node, bytes } => {
            pairs.push(("type", JVal::str("cache_admit")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("bytes", JVal::UInt(*bytes)));
        }
        TraceEvent::CacheEvict { node } => {
            pairs.push(("type", JVal::str("cache_evict")));
            pairs.push(("node", JVal::UInt(*node as u64)));
        }
        TraceEvent::CacheReject { node } => {
            pairs.push(("type", JVal::str("cache_reject")));
            pairs.push(("node", JVal::UInt(*node as u64)));
        }
        TraceEvent::OperatorChoice {
            node,
            label,
            chosen,
            candidates,
        } => {
            pairs.push(("type", JVal::str("operator_choice")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("label", JVal::str(label)));
            pairs.push(("chosen", JVal::str(chosen)));
            pairs.push((
                "candidates",
                JVal::Arr(
                    candidates
                        .iter()
                        .map(|c| {
                            JVal::obj(vec![
                                ("name", JVal::str(&c.name)),
                                ("est_secs", JVal::Num(c.est_secs)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        TraceEvent::CseMerge {
            kept,
            label,
            duplicates,
        } => {
            pairs.push(("type", JVal::str("cse_merge")));
            pairs.push(("node", JVal::UInt(*kept as u64)));
            pairs.push(("label", JVal::str(label)));
            pairs.push(("duplicates", JVal::UInt(*duplicates as u64)));
        }
        TraceEvent::MaterializePick {
            node,
            label,
            est_saving_secs,
            size_bytes,
        } => {
            pairs.push(("type", JVal::str("materialize_pick")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("label", JVal::str(label)));
            pairs.push(("est_saving_secs", JVal::Num(*est_saving_secs)));
            pairs.push(("size_bytes", JVal::UInt(*size_bytes)));
        }
        TraceEvent::TaskRetry {
            node,
            partition,
            attempt,
            backoff_secs,
        } => {
            pairs.push(("type", JVal::str("task_retry")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("partition", JVal::UInt(*partition as u64)));
            pairs.push(("attempt", JVal::UInt(*attempt as u64)));
            pairs.push(("backoff_secs", JVal::Num(*backoff_secs)));
        }
        TraceEvent::SpeculativeWin {
            node,
            partition,
            original_secs,
            copy_secs,
        } => {
            pairs.push(("type", JVal::str("speculative_win")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("partition", JVal::UInt(*partition as u64)));
            pairs.push((
                "original_secs",
                if deterministic {
                    JVal::Null
                } else {
                    JVal::Num(*original_secs)
                },
            ));
            pairs.push(("copy_secs", JVal::Num(*copy_secs)));
        }
        TraceEvent::CacheLost { node } => {
            pairs.push(("type", JVal::str("cache_lost")));
            pairs.push(("node", JVal::UInt(*node as u64)));
        }
        TraceEvent::FusionMerge {
            node,
            label,
            members,
        } => {
            pairs.push(("type", JVal::str("fusion_merge")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("label", JVal::str(label)));
            pairs.push((
                "members",
                JVal::Arr(members.iter().map(|m| JVal::str(m)).collect()),
            ));
        }
        TraceEvent::ServeBatch {
            batch,
            size,
            dispatch_secs,
            linger_secs,
            execute_secs,
        } => {
            pairs.push(("type", JVal::str("serve_batch")));
            pairs.push(("batch", JVal::UInt(*batch)));
            pairs.push(("size", JVal::UInt(*size as u64)));
            pairs.push(("dispatch_secs", JVal::Num(*dispatch_secs)));
            pairs.push(("linger_secs", JVal::Num(*linger_secs)));
            pairs.push(("execute_secs", JVal::Num(*execute_secs)));
        }
        TraceEvent::ServeReject {
            request,
            at_secs,
            queue_depth,
        } => {
            pairs.push(("type", JVal::str("serve_reject")));
            pairs.push(("request", JVal::UInt(*request)));
            pairs.push(("at_secs", JVal::Num(*at_secs)));
            pairs.push(("queue_depth", JVal::UInt(*queue_depth as u64)));
        }
        TraceEvent::Recalibrate {
            node,
            label,
            observed_requests,
            predicted_requests,
        } => {
            pairs.push(("type", JVal::str("recalibrate")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("label", JVal::str(label)));
            pairs.push(("observed_requests", JVal::UInt(*observed_requests)));
            pairs.push(("predicted_requests", JVal::Num(*predicted_requests)));
        }
        TraceEvent::PlanRevision {
            wave,
            promoted,
            evicted,
            predicted_saving_secs,
        } => {
            pairs.push(("type", JVal::str("plan_revision")));
            pairs.push(("wave", JVal::UInt(*wave)));
            pairs.push((
                "promoted",
                JVal::Arr(promoted.iter().map(|&n| JVal::UInt(n as u64)).collect()),
            ));
            pairs.push((
                "evicted",
                JVal::Arr(evicted.iter().map(|&n| JVal::UInt(n as u64)).collect()),
            ));
            pairs.push(("predicted_saving_secs", JVal::Num(*predicted_saving_secs)));
        }
        TraceEvent::CrossCseMerge {
            node,
            label,
            tenants,
            signature,
        } => {
            pairs.push(("type", JVal::str("cross_cse_merge")));
            pairs.push(("node", JVal::UInt(*node as u64)));
            pairs.push(("label", JVal::str(label)));
            pairs.push(("tenants", JVal::UInt(*tenants as u64)));
            pairs.push(("signature", JVal::UInt(*signature)));
        }
    }
    JVal::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystone_core::trace::Tracer;

    fn empty_report() -> PipelineReport {
        PipelineReport::default()
    }

    #[test]
    fn artifact_json_has_meta_and_parses() {
        let ctx = ExecContext::default_cluster();
        ctx.sim.charge_seconds("stage:a", 1.0, 0.5);
        ctx.metrics.inc_counter("c", 3);
        ctx.metrics.observe("h", &[1.0, 2.0], 1.5);
        let report = empty_report();
        let artifact = capture_test(&report, &ctx);
        let json = artifact.to_json();
        assert_eq!(schema_version_of(&json), Some(SCHEMA_VERSION));
        let doc = json::parse(&json).expect("valid artifact JSON");
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("kind"))
                .and_then(|v| v.as_str()),
            Some("apply")
        );
        assert_eq!(
            doc.get("sim")
                .and_then(|s| s.get("total_secs"))
                .and_then(|v| v.as_f64()),
            Some(1.5)
        );
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(|v| v.as_f64()),
            Some(3.0)
        );
    }

    fn capture_test(report: &PipelineReport, ctx: &ExecContext) -> RunArtifact {
        RunArtifact::capture_common(
            RunKind::Apply,
            PlanSection::default(),
            report,
            ctx,
            &CaptureOptions::default(),
            None,
        )
    }

    #[test]
    fn deterministic_mode_nulls_wall_fields() {
        let ctx = ExecContext::default_cluster();
        let t: &Tracer = &ctx.tracer;
        t.node_end(0, "x", 10, 80, 1.25, 0.5);
        ctx.metrics.record_span(TaskSpan {
            stage: "x".into(),
            op: "map",
            op_seq: 0,
            stage_id: Some(0),
            partition: 0,
            worker: 1,
            start_us: 10,
            end_us: 20,
            items_in: 5,
            items_out: 5,
            bytes: 40,
            retries: 0,
            speculative: false,
        });
        let artifact = capture_test(&empty_report(), &ctx);
        let json = artifact.to_json();
        assert!(json.contains("\"wall_secs\":null"), "{json}");
        assert!(json.contains("\"start_us\":null"), "{json}");
        assert!(!json.contains("1.25"), "wall leaked: {json}");

        let wall = RunArtifact::capture_common(
            RunKind::Apply,
            PlanSection::default(),
            &empty_report(),
            &ctx,
            &CaptureOptions {
                deterministic: false,
                label: String::new(),
            },
            None,
        );
        let wall_json = wall.to_json();
        assert!(wall_json.contains("\"wall_secs\":1.25"), "{wall_json}");
        assert!(wall_json.contains("\"start_us\":10"), "{wall_json}");
    }

    #[test]
    fn spans_sort_by_identity_not_recording_order() {
        let ctx = ExecContext::default_cluster();
        for partition in [2usize, 0, 1] {
            ctx.metrics.record_span(TaskSpan {
                stage: "s".into(),
                op: "map",
                op_seq: 0,
                stage_id: Some(3),
                partition,
                worker: 0,
                start_us: 0,
                end_us: 1,
                items_in: 1,
                items_out: 1,
                bytes: 8,
                retries: 0,
                speculative: false,
            });
        }
        let artifact = capture_test(&empty_report(), &ctx);
        let parts: Vec<usize> = artifact.spans.iter().map(|s| s.partition).collect();
        assert_eq!(parts, vec![0, 1, 2]);
    }

    #[test]
    fn record_skew_flags_the_fat_partition() {
        let spans: Vec<TaskSpan> = [(0usize, 8u64), (1, 1), (2, 1), (3, 1)]
            .into_iter()
            .map(|(partition, items)| TaskSpan {
                stage: "s".into(),
                op: "map",
                op_seq: 0,
                stage_id: Some(7),
                partition,
                worker: 0,
                start_us: 0,
                end_us: 1,
                items_in: items,
                items_out: items,
                bytes: items * 8,
                retries: 0,
                speculative: false,
            })
            .collect();
        let skew = record_skew_by_node(&spans);
        assert!((skew[&7] - 8.0).abs() < 1e-12);
    }
}
