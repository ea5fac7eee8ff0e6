//! The [`RunArtifact`]: one self-describing, versioned JSON bundle per
//! fit, apply or serving run.
//!
//! A run's telemetry — trace events, per-partition [`TaskSpan`]s, the
//! simulated-clock ledger, serving latency splits, and the
//! [`PipelineReport`] rows folded from them — evaporates at process exit.
//! The artifact keeps it, keyed by the node ids of the plan's graph, as
//! deterministic JSON: sorted object keys, shortest-roundtrip floats, and
//! (in the default deterministic capture mode) only *virtual* quantities.
//!
//! # Determinism contract
//!
//! With [`CaptureOptions::deterministic`] set (the default):
//!
//! * wall-clock fields are nulled (`NodeEnd.wall_secs`, span
//!   start/end/worker, the wall-derived fields of each node row, see
//!   [`NodeReport::to_jval`], and `FitReport::optimize_secs`);
//! * task spans are sorted by `(stage_id, stage, op_seq, partition, op)`
//!   — their recording order can race under a parallel pool;
//! * straggler evidence comes from *record* skew (per-partition
//!   `items_in`, which is seed-pure) rather than time skew.
//!
//! Byte-identity additionally requires the run itself to be seed-pure:
//! profile with `ProfileOptions::deterministic_timing` (profiled nodes
//! otherwise carry measured wall time into their sim charges). Injected
//! faults are seed-pure — a retry's backoff is a function of its attempt
//! number, and a straggler's delay is wall time only. `examples/diagnose.rs`
//! and the round-trip tests follow exactly this recipe.
//!
//! Every capture reads the context's ledgers from one [`LedgerWindow`]: a
//! fit capture the window its report folded, an apply or serving capture
//! the window its caller opened before the run. So a run on a reused
//! `ExecContext` is captured alone.
//!
//! Every value the artifact shares with another document — node rows, trace
//! events, task spans, cache counters, recovery totals, tenant rows, the
//! adaptation summary — is rendered by that type's own `to_jval`.

use keystone_dataflow::json::{self, JVal};
use keystone_dataflow::metrics::TaskSpan;
use keystone_dataflow::simclock::SimEntry;

use super::{LedgerWindow, NodeReport, PipelineReport, TenantRow};
use crate::context::ExecContext;
use crate::graph::{Graph, NodeId};
use crate::optimizer::AdaptationReport;
use crate::pipeline::{ExecutablePlan, FitReport};
use crate::profiler::PipelineProfile;
use crate::trace::TracedEvent;

/// Version stamped into every artifact; bump on any change to the JSON
/// layout. Readers check it via [`schema_version_of`] before trusting
/// field paths.
///
/// History: v1 — initial layout; v2 — adaptive re-optimization: per-node
/// `adapt` flags, the top-level `adaptation` section (fit runs), and the
/// `recalibrate` / `plan_revision` event types; v3 — multi-tenant forest
/// fits: the top-level `tenants` section (per-tenant attribution rows) and
/// the `cross_cse_merge` event type; v4 — the `counters`, `gauges` and
/// `histograms` sections are gone (every value in them re-counted trace
/// events or the `serve` section); v5 — straggler copies are no longer
/// priced: the copy-win counts in node rows and the `recovery` section, the
/// lost-race flag on task spans and the copy-win event type are gone; v6 —
/// node rows are the report's rows (`time_skew` is `skew_ratio`, and the
/// relative errors, utilization and fused members join them), and plan
/// nodes drop `fused_members` and `cached`, which the rows and `cache_set`
/// carry; v7 — a node run writes one event, `node_end` (node, label and
/// costs), and the event type that marked its start is gone.
pub const SCHEMA_VERSION: u32 = 7;

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

/// Serving-run latency splits, payload-free (`keystone-serve` builds one
/// from its outcome).
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
    fn to_jval(&self) -> JVal {
        JVal::obj(vec![
            ("admitted", JVal::UInt(self.admitted)),
            ("rejected", JVal::UInt(self.rejected)),
            ("batches", JVal::UInt(self.batches)),
            ("max_queue_depth", JVal::UInt(self.max_queue_depth)),
            ("makespan_secs", JVal::Num(self.makespan_secs)),
            ("queue_secs_total", JVal::Num(self.queue_secs_total)),
            ("linger_secs_total", JVal::Num(self.linger_secs_total)),
            ("execute_secs_total", JVal::Num(self.execute_secs_total)),
            ("p50_latency_secs", JVal::Num(self.p50_latency_secs)),
            ("p99_latency_secs", JVal::Num(self.p99_latency_secs)),
        ])
    }
}

/// The flight-recorder bundle: everything one run did, joined by plan
/// node id. See the module docs for the determinism contract.
#[derive(Clone)]
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
    /// The plan's optimized graph: every node id below points into it.
    pub graph: Graph,
    /// The plan's output node.
    pub output: NodeId,
    /// Materialization picks, ascending node id (fit runs only).
    pub cache_set: Vec<NodeId>,
    /// `(node label, chosen physical operator)` pairs (fit runs only).
    pub choices: Vec<(String, String)>,
    /// Nodes removed by CSE (fit runs only).
    pub eliminated_nodes: usize,
    /// Nodes absorbed into fused chains (fit runs only).
    pub fused_nodes: usize,
    /// The run's predicted-vs-actual report: its node rows (ascending node
    /// id), recovery totals and tenant rows are the artifact's.
    pub report: PipelineReport,
    /// The simulated-clock ledger, in charge order.
    pub sim_entries: Vec<SimEntry>,
    /// Ledger total, seconds.
    pub sim_total_secs: f64,
    /// Ledger grouped by stage prefix, first-seen order.
    pub sim_by_stage: Vec<(String, f64)>,
    /// The trace event stream, in recording order.
    pub events: Vec<TracedEvent>,
    /// Per-partition task spans, sorted by identity (their recording order
    /// races under a parallel pool); wall fields are nulled at
    /// serialization in deterministic mode.
    pub spans: Vec<TaskSpan>,
    /// Serving latency splits (serve runs only).
    pub serve: Option<ServeSection>,
    /// Adaptive re-optimization summary (fit runs only).
    pub adaptation: Option<AdaptationReport>,
}

impl RunArtifact {
    fn capture(
        kind: RunKind,
        plan: &ExecutablePlan,
        report: PipelineReport,
        ctx: &ExecContext,
        opts: &CaptureOptions,
    ) -> RunArtifact {
        let window = report.window;
        let mut spans = ctx.metrics.spans_from(window.spans);
        spans.sort_by_cached_key(|s| (s.stage_id, s.stage.clone(), s.op_seq, s.partition, s.op));
        let sim = ctx.sim.since(window.sim);
        RunArtifact {
            schema_version: SCHEMA_VERSION,
            kind,
            deterministic: opts.deterministic,
            label: opts.label.clone(),
            optimize_secs: None,
            graph: plan.graph().clone(),
            output: plan.output_node(),
            cache_set: Vec::new(),
            choices: Vec::new(),
            eliminated_nodes: 0,
            fused_nodes: 0,
            sim_entries: sim.entries(),
            sim_total_secs: sim.total_seconds(),
            sim_by_stage: sim.by_stage(),
            events: ctx.tracer.since(window.events).events(),
            spans,
            serve: None,
            adaptation: None,
            report,
        }
    }

    /// Captures a fit run: the [`FitReport`]'s optimizer decisions and
    /// predicted-vs-actual rows, plus the context's ledgers from the
    /// window that report folded.
    pub fn capture_fit(
        report: &FitReport,
        plan: &ExecutablePlan,
        ctx: &ExecContext,
        opts: &CaptureOptions,
    ) -> RunArtifact {
        let mut cache_set: Vec<NodeId> = report.cache_set.iter().copied().collect();
        cache_set.sort_unstable();
        RunArtifact {
            optimize_secs: (!opts.deterministic).then_some(report.optimize_secs),
            cache_set,
            choices: report.choices.clone(),
            eliminated_nodes: report.eliminated_nodes,
            fused_nodes: report.fused_nodes,
            adaptation: Some(report.adaptation.clone()),
            ..Self::capture(RunKind::Fit, plan, report.observability.clone(), ctx, opts)
        }
    }

    /// Captures an apply run over a fitted plan, or a serving run when
    /// `serve` is given: the predicted-vs-actual rows are rebuilt from the
    /// plan's stored profiles against the ledgers from `window` onward.
    /// Open the window ([`LedgerWindow::open`]) just before the run.
    pub fn capture_apply(
        plan: &ExecutablePlan,
        window: &LedgerWindow,
        serve: Option<ServeSection>,
        ctx: &ExecContext,
        opts: &CaptureOptions,
    ) -> RunArtifact {
        let profile = PipelineProfile {
            nodes: plan.profiles().clone(),
            choices: Vec::new(),
        };
        let metrics = Some(&ctx.metrics);
        let report =
            PipelineReport::build_since(plan.graph(), &profile, &ctx.tracer, metrics, window.marks);
        let kind = if serve.is_some() {
            RunKind::Serve
        } else {
            RunKind::Apply
        };
        RunArtifact {
            serve,
            ..Self::capture(kind, plan, report, ctx, opts)
        }
    }

    /// The node row for `id`.
    pub fn node(&self, id: NodeId) -> Option<&NodeReport> {
        self.report.nodes.iter().find(|n| n.node == id)
    }

    /// The label of plan node `id` (empty when out of range).
    pub fn node_label(&self, id: NodeId) -> &str {
        self.graph.nodes.get(id).map_or("", |n| n.label.as_str())
    }

    /// Serializes the bundle as deterministic JSON (sorted keys,
    /// shortest-roundtrip floats).
    pub fn to_json(&self) -> String {
        self.to_jval().render()
    }

    fn to_jval(&self) -> JVal {
        let det = self.deterministic;
        let ids = |ns: &[NodeId]| JVal::Arr(ns.iter().map(|&n| JVal::UInt(n as u64)).collect());
        let plan_nodes = self.graph.nodes.iter().enumerate().map(|(id, n)| {
            JVal::obj(vec![
                ("id", JVal::UInt(id as u64)),
                ("label", JVal::str(&n.label)),
                ("kind", JVal::str(n.kind.name())),
                ("inputs", ids(&n.inputs)),
            ])
        });
        let choices = self.choices.iter().map(|(label, op)| {
            JVal::obj(vec![("label", JVal::str(label)), ("chosen", JVal::str(op))])
        });
        let by_stage = self.sim_by_stage.iter().map(|(stage, secs)| {
            JVal::obj(vec![
                ("stage", JVal::str(stage)),
                ("secs", JVal::Num(*secs)),
            ])
        });
        let entries = self.sim_entries.iter().map(|e| {
            JVal::obj(vec![
                ("stage", JVal::str(&e.stage)),
                ("exec_secs", JVal::Num(e.exec_secs)),
                ("coord_secs", JVal::Num(e.coord_secs)),
            ])
        });
        JVal::obj(vec![
            (
                "meta",
                JVal::obj(vec![
                    ("schema_version", JVal::UInt(self.schema_version as u64)),
                    ("kind", JVal::str(self.kind.as_str())),
                    ("deterministic", JVal::Bool(det)),
                    ("label", JVal::str(&self.label)),
                    ("optimize_secs", JVal::opt_num(self.optimize_secs)),
                ]),
            ),
            (
                "plan",
                JVal::obj(vec![
                    ("nodes", JVal::Arr(plan_nodes.collect())),
                    ("output", JVal::UInt(self.output as u64)),
                    ("cache_set", ids(&self.cache_set)),
                    ("choices", JVal::Arr(choices.collect())),
                    ("eliminated_nodes", JVal::UInt(self.eliminated_nodes as u64)),
                    ("fused_nodes", JVal::UInt(self.fused_nodes as u64)),
                ]),
            ),
            (
                "nodes",
                JVal::Arr(self.report.nodes.iter().map(|n| n.to_jval(det)).collect()),
            ),
            (
                "sim",
                JVal::obj(vec![
                    ("total_secs", JVal::Num(self.sim_total_secs)),
                    ("by_stage", JVal::Arr(by_stage.collect())),
                    ("entries", JVal::Arr(entries.collect())),
                ]),
            ),
            (
                "events",
                JVal::Arr(self.events.iter().map(|e| e.to_jval(det)).collect()),
            ),
            (
                "spans",
                JVal::Arr(self.spans.iter().map(|s| s.to_jval(det)).collect()),
            ),
            ("recovery", self.report.recovery.to_jval()),
            (
                "serve",
                self.serve
                    .as_ref()
                    .map_or(JVal::Null, ServeSection::to_jval),
            ),
            (
                "adaptation",
                self.adaptation
                    .as_ref()
                    .map_or(JVal::Null, AdaptationReport::to_jval),
            ),
            (
                "tenants",
                JVal::Arr(self.report.tenants.iter().map(TenantRow::to_jval).collect()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// An apply capture over a one-node plan, reading the whole context.
    fn capture_test(ctx: &ExecContext, deterministic: bool) -> RunArtifact {
        let mut g = Graph::new();
        g.add(NodeKind::RuntimeInput, vec![], "x");
        let plan = ExecutablePlan::new(Arc::new(g), 0, HashMap::new(), Arc::new(HashMap::new()));
        let opts = CaptureOptions {
            deterministic,
            label: String::new(),
        };
        RunArtifact::capture_apply(&plan, &LedgerWindow::default(), None, ctx, &opts)
    }

    fn span(partition: usize, start_us: u64, end_us: u64) -> TaskSpan {
        TaskSpan {
            stage: "x".into(),
            op: "map",
            op_seq: 0,
            stage_id: Some(0),
            partition,
            worker: 1,
            start_us,
            end_us,
            items_in: 5,
            items_out: 5,
            bytes: 40,
            retries: 0,
        }
    }

    #[test]
    fn artifact_json_has_meta_and_parses() {
        let ctx = ExecContext::default_cluster();
        ctx.sim.charge_seconds("stage:a", 1.0, 0.5);
        let json = capture_test(&ctx, true).to_json();
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
        for gone in ["counters", "gauges", "histograms"] {
            assert!(doc.get(gone).is_none(), "schema v4 dropped `{gone}`");
        }
    }

    #[test]
    fn deterministic_mode_nulls_wall_fields() {
        let ctx = ExecContext::default_cluster();
        ctx.tracer.node_end(0, "x", 10, 80, 1.25, 0.5);
        ctx.metrics.record_span(span(0, 10, 20));
        let json = capture_test(&ctx, true).to_json();
        assert!(json.contains("\"wall_secs\":null"), "{json}");
        assert!(json.contains("\"actual_wall_secs\":null"), "{json}");
        assert!(json.contains("\"start_us\":null"), "{json}");
        assert!(!json.contains("1.25"), "wall leaked: {json}");

        let wall_json = capture_test(&ctx, false).to_json();
        assert!(wall_json.contains("\"wall_secs\":1.25"), "{wall_json}");
        assert!(wall_json.contains("\"start_us\":10"), "{wall_json}");
    }

    #[test]
    fn spans_sort_by_identity_not_recording_order() {
        let ctx = ExecContext::default_cluster();
        for partition in [2usize, 0, 1] {
            ctx.metrics.record_span(span(partition, 0, 1));
        }
        let artifact = capture_test(&ctx, true);
        let parts: Vec<usize> = artifact.spans.iter().map(|s| s.partition).collect();
        assert_eq!(parts, vec![0, 1, 2]);
    }
}
