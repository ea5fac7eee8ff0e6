//! The account of a run: predictions joined against actuals, the
//! flight-recorder artifact, and the diagnosis over it.
//!
//! The paper's §4.1 claims execution subsampling predicts memory "nearly
//! perfectly" and runtimes within ~15%. The [`PipelineReport`] makes that
//! claim checkable on every fit: each node's profiled estimate
//! ([`NodeProfile::est_secs`] / [`NodeProfile::est_output_bytes`]) is joined
//! against what the [`Tracer`] actually observed —
//! wall/simulated seconds, execution counts, output bytes, cache hit/miss
//! counters and the task spans' skew — with per-node relative errors, one
//! [`NodeReport`] per node.
//!
//! A [`RunArtifact`] persists one fit, apply or serving run as versioned,
//! deterministic JSON: the plan's graph, those same [`NodeReport`] rows,
//! the trace events, task spans and simulated-clock ledger, keyed by plan
//! node id. [`diagnose()`] runs rule-based detectors over it and emits
//! structured [`Finding`]s — stragglers, cache thrash, unpaid
//! materialization picks, mispredictions, fusion barriers, linger-bound
//! serving, recovery overhead — each with severity and evidence.
//!
//! The invariant, inherited from the dual-clock design: **virtual
//! quantities are deterministic, wall quantities are not.** Captured in
//! deterministic mode (the default), two identical seeded runs serialize
//! to byte-identical JSON, which is what lets CI verify an artifact by
//! re-running and comparing bytes, and the goldens pin its simulated
//! seconds across commits. Wall-clock performance is gated by
//! `scripts/perf_smoke.sh` over the `perf/` benchmark, not here.
//!
//! [`NodeProfile::est_secs`]: crate::profiler::NodeProfile::est_secs
//! [`NodeProfile::est_output_bytes`]: crate::profiler::NodeProfile::est_output_bytes

pub mod artifact;
pub mod diagnose;

pub use artifact::{
    schema_version_of, CaptureOptions, RunArtifact, RunKind, ServeSection, SCHEMA_VERSION,
};
pub use diagnose::{
    diagnose, diagnose_with, replanner_hints, DiagnoseOptions, Diagnosis, Finding, Severity,
};

use std::collections::HashMap;

use keystone_dataflow::json::JVal;
use keystone_dataflow::metrics::MetricsRegistry;

use crate::context::ExecContext;
use crate::graph::{Graph, NodeId};
use crate::profiler::PipelineProfile;
use crate::trace::{CacheCounters, RecoveryStats, Tracer};

/// One node's predicted-vs-actual row: the report's and the run
/// artifact's one per-node row.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Node id in the executed graph.
    pub node: NodeId,
    /// Node label.
    pub label: String,
    /// Profiler-predicted seconds for one full-scale execution, if the node
    /// was profiled. For a priced terminal estimator (see
    /// [`crate::profiler`]) this is the chosen option's §3 estimate, not an
    /// extrapolated measurement.
    pub predicted_secs: Option<f64>,
    /// Profiler-predicted output bytes at full scale.
    pub predicted_out_bytes: Option<f64>,
    /// Observed wall-clock seconds summed over executions.
    pub actual_wall_secs: f64,
    /// Observed simulated-cluster seconds summed over executions.
    pub actual_sim_secs: f64,
    /// Observed output bytes (last execution).
    pub actual_out_bytes: u64,
    /// How many times the node actually executed.
    pub execs: u64,
    /// Cache counters for the node's output.
    pub cache: CacheCounters,
    /// `|predicted - actual_per_exec| / actual_per_exec` for wall time;
    /// `None` when either side is missing.
    pub time_rel_error: Option<f64>,
    /// Same for output bytes.
    pub bytes_rel_error: Option<f64>,
    /// Task spans recorded while this node executed (partition-parallel
    /// `DistCollection` operations × partitions).
    pub task_spans: u64,
    /// Distinct partitions those spans covered.
    pub partitions: u64,
    /// Max / median per-partition busy time across the node's spans.
    /// `None` when the node emitted no spans.
    pub skew_ratio: Option<f64>,
    /// Max / median per-partition input records across the same spans —
    /// the seed-pure skew signal.
    pub record_skew: Option<f64>,
    /// Busy wall time ÷ (lanes × stage span), clamped to 1.0.
    pub utilization: Option<f64>,
    /// Recovery work this node's executions absorbed: retries, lost cache
    /// entries and their simulated seconds.
    pub recovery: RecoveryStats,
    /// Member labels when this node is a whole-stage fused chain
    /// (execution order); empty for ordinary nodes.
    pub fused_members: Vec<String>,
    /// What adaptive re-optimization did to this node during the fit:
    /// `"recalibrated"`, `"promoted"`, `"evicted"`, or a `+`-joined
    /// combination (in that order); `None` when adaptation never touched
    /// the node.
    pub adapt: Option<String>,
}

impl NodeReport {
    /// Why did the runtime prediction miss? Returns `None` when the
    /// prediction was within `threshold` relative error (or either side is
    /// missing). Otherwise classifies the miss: a skewed node (max partition
    /// time > 2× median) violates the cost model's "slowest worker"
    /// uniformity assumption, so the miss is attributed to `"skew"`; an
    /// evenly-loaded node that still missed is a `"uniform"` mis-estimate
    /// (wrong per-record cost or cardinality).
    pub fn miss_diagnosis(&self, threshold: f64) -> Option<&'static str> {
        let err = self.time_rel_error?;
        if err < threshold {
            return None;
        }
        match self.skew_ratio {
            Some(r) if r > 2.0 => Some("skew"),
            _ => Some("uniform"),
        }
    }

    /// The one JSON form of a row (the report's and the run artifact's
    /// `nodes`). `deterministic` nulls the wall-derived fields:
    /// `actual_wall_secs`, `time_rel_error`, `skew_ratio`, `utilization`.
    pub fn to_jval(&self, deterministic: bool) -> JVal {
        let wall = |v: Option<f64>| JVal::opt_num(v.filter(|_| !deterministic));
        let members = self.fused_members.iter().map(|m| JVal::str(m));
        let predicted_out_bytes = JVal::opt_num(self.predicted_out_bytes);
        let r = &self.recovery;
        JVal::obj(vec![
            ("node", JVal::UInt(self.node as u64)),
            ("label", JVal::str(&self.label)),
            ("predicted_secs", JVal::opt_num(self.predicted_secs)),
            ("predicted_out_bytes", predicted_out_bytes),
            ("actual_wall_secs", wall(Some(self.actual_wall_secs))),
            ("actual_sim_secs", JVal::Num(self.actual_sim_secs)),
            ("actual_out_bytes", JVal::UInt(self.actual_out_bytes)),
            ("execs", JVal::UInt(self.execs)),
            ("cache", self.cache.to_jval()),
            ("time_rel_error", wall(self.time_rel_error)),
            ("bytes_rel_error", JVal::opt_num(self.bytes_rel_error)),
            ("task_spans", JVal::UInt(self.task_spans)),
            ("partitions", JVal::UInt(self.partitions)),
            ("skew_ratio", wall(self.skew_ratio)),
            ("record_skew", JVal::opt_num(self.record_skew)),
            ("utilization", wall(self.utilization)),
            ("retries", JVal::UInt(r.retries)),
            ("recovery_secs", JVal::Num(r.recovery_secs)),
            ("fused_members", JVal::Arr(members.collect())),
            ("adapt", self.adapt.as_deref().map_or(JVal::Null, JVal::str)),
        ])
    }
}

/// One tenant's attribution row in a multi-tenant forest fit
/// (`keystone_core::optimizer::multi`). Solo fits have no rows — the
/// `tenants` section is empty unless the fit came from `fit_forest`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// Tenant index (lane `tenant{i}` in the `SimClock` ledger and the
    /// Chrome-trace export).
    pub tenant: usize,
    /// The tenant's output node in the executed (possibly merged) graph.
    pub output: NodeId,
    /// The tenant's estimator nodes, topological order.
    pub fit_roots: Vec<NodeId>,
    /// Computation nodes on this tenant's ancestry shared with ≥ 1 other
    /// tenant (0 when the tenants were fitted alone).
    pub shared_nodes: usize,
    /// Simulated seconds charged to this tenant's lane during the fit.
    pub sim_secs: f64,
    /// What fitting this tenant alone costs, in the unit `sim_secs` is
    /// charged in: the forest cost model's estimate (profile seconds ÷
    /// `resources.workers`) where `fit_forest` priced the forest, and the
    /// measured `sim_secs` itself on the paths it does not price (one
    /// tenant, `OptLevel::None`, LRU), where the tenant *was* fitted alone.
    pub solo_secs: f64,
}

impl TenantRow {
    /// The one JSON form (the report's and the artifact's `tenants` rows).
    pub fn to_jval(&self) -> JVal {
        let roots = self.fit_roots.iter().map(|&n| JVal::UInt(n as u64));
        JVal::obj(vec![
            ("tenant", JVal::UInt(self.tenant as u64)),
            ("output", JVal::UInt(self.output as u64)),
            ("fit_roots", JVal::Arr(roots.collect())),
            ("shared_nodes", JVal::UInt(self.shared_nodes as u64)),
            ("sim_secs", JVal::Num(self.sim_secs)),
            ("solo_secs", JVal::Num(self.solo_secs)),
        ])
    }
}

/// Where one run's slice of an [`ExecContext`]'s ledgers begins. A report
/// keeps the marks of the window it folded, so what is derived from it later
/// (the run artifact) reads the same slice; the default marks are the whole
/// context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerMarks {
    /// First trace event of the run ([`Tracer::len`] at its start).
    pub events: usize,
    /// First task span of the run ([`MetricsRegistry::span_count`]).
    pub spans: usize,
    /// First simulated-clock entry of the run (`SimClock::mark`).
    pub sim: usize,
}

/// A window on an [`ExecContext`]'s ledgers, open until dropped: while it
/// is open every ledger stores every row, including those of a quiet
/// apply-path call on any thread. A fit opens one; open one before an
/// apply or serving run to capture or read its rows. The default window
/// registers nothing and marks the whole context.
#[derive(Debug, Default)]
pub struct LedgerWindow {
    /// Where the run's rows begin.
    pub marks: LedgerMarks,
    ctx: Option<ExecContext>,
}

impl LedgerWindow {
    /// Opens a window at the context's current ledger ends.
    pub fn open(ctx: &ExecContext) -> Self {
        set_window(ctx, true);
        LedgerWindow {
            marks: LedgerMarks {
                events: ctx.tracer.len(),
                spans: ctx.metrics.span_count(),
                sim: ctx.sim.mark(),
            },
            ctx: Some(ctx.clone()),
        }
    }
}

impl Drop for LedgerWindow {
    fn drop(&mut self) {
        if let Some(ctx) = &self.ctx {
            set_window(ctx, false);
        }
    }
}

fn set_window(ctx: &ExecContext, open: bool) {
    ctx.tracer.window(open);
    ctx.metrics.window(open);
    ctx.sim.window(open);
}

/// Whole-pipeline observability report.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-node rows, ordered by node id (topological for executor graphs).
    pub nodes: Vec<NodeReport>,
    /// Total trace events behind this report.
    pub events: usize,
    /// Total cache hits across nodes.
    pub cache_hits: u64,
    /// Total cache misses across nodes.
    pub cache_misses: u64,
    /// Run-wide recovery totals, folded from the window's trace events.
    pub recovery: RecoveryStats,
    /// Per-tenant rows when this fit was part of a multi-tenant forest
    /// (`fit_forest`); empty for ordinary solo fits.
    pub tenants: Vec<TenantRow>,
    /// The marks of the window this report folded.
    pub window: LedgerMarks,
}

fn rel_error(predicted: f64, actual: f64) -> f64 {
    (predicted - actual).abs() / actual.abs().max(1e-9)
}

impl PipelineReport {
    /// Joins profiler predictions with tracer actuals over `graph`'s nodes
    /// (a node appears if it was profiled or it executed) and, with
    /// `metrics`, each node's task spans: span/partition counts, skew ratio
    /// and worker utilization, keyed by the node id on every task scope.
    pub fn build_with_metrics(
        graph: &Graph,
        profile: &PipelineProfile,
        tracer: &Tracer,
        metrics: Option<&MetricsRegistry>,
    ) -> Self {
        Self::build_since(graph, profile, tracer, metrics, LedgerMarks::default())
    }

    /// [`PipelineReport::build_with_metrics`] over the events and spans from
    /// the `window` marks onward, which the report keeps. A fit opens its
    /// window on entry, so on a reused `ExecContext` it reports itself
    /// alone — node ids repeat from one fit's graph to the next.
    pub fn build_since(
        graph: &Graph,
        profile: &PipelineProfile,
        tracer: &Tracer,
        metrics: Option<&MetricsRegistry>,
        window: LedgerMarks,
    ) -> Self {
        let tracer = &tracer.since(window.events);
        let actuals = tracer.node_actuals();
        let counters = tracer.cache_counters();
        let recovery = tracer.recovery_by_node();
        // One skew row per executor node; when a node somehow carries more
        // than one stage group (relabeled re-execution), keep the busier one.
        let mut skew_by_node: HashMap<u64, keystone_dataflow::metrics::StageSkew> = HashMap::new();
        if let Some(m) = metrics {
            for sk in m.stage_skew_from(window.spans) {
                if let Some(id) = sk.stage_id {
                    match skew_by_node.get(&id) {
                        Some(prev) if prev.tasks >= sk.tasks => {}
                        _ => {
                            skew_by_node.insert(id, sk);
                        }
                    }
                }
            }
        }
        // Adaptation flags per node: (recalibrated, promoted, evicted),
        // folded from the fit's Recalibrate / PlanRevision trace events.
        let mut adapt_by_node: HashMap<NodeId, (bool, bool, bool)> = HashMap::new();
        for te in tracer.events() {
            match &te.event {
                crate::trace::TraceEvent::Recalibrate { node, .. } => {
                    adapt_by_node.entry(*node).or_default().0 = true;
                }
                crate::trace::TraceEvent::PlanRevision {
                    promoted, evicted, ..
                } => {
                    for n in promoted {
                        adapt_by_node.entry(*n).or_default().1 = true;
                    }
                    for n in evicted {
                        adapt_by_node.entry(*n).or_default().2 = true;
                    }
                }
                _ => {}
            }
        }
        let mut nodes = Vec::new();
        for id in 0..graph.len() {
            let prof = profile.nodes.get(&id);
            let act = actuals.get(&id);
            if prof.is_none()
                && act.is_none()
                && !counters.contains_key(&id)
                && !recovery.contains_key(&id)
                && !adapt_by_node.contains_key(&id)
            {
                continue;
            }
            let predicted_secs = prof.map(|p| p.est_secs(p.records_hint));
            let predicted_out_bytes = prof.map(|p| p.est_output_bytes());
            let (wall, sim, execs, out_bytes) = act
                .map(|a| (a.wall_secs, a.sim_secs, a.execs, a.out_bytes))
                .unwrap_or((0.0, 0.0, 0, 0));
            let per_exec = if execs > 0 {
                Some(wall / execs as f64)
            } else {
                None
            };
            let time_rel_error = match (predicted_secs, per_exec) {
                (Some(p), Some(a)) => Some(rel_error(p, a)),
                _ => None,
            };
            let bytes_rel_error = match (predicted_out_bytes, act) {
                (Some(p), Some(a)) if a.out_bytes > 0 => Some(rel_error(p, a.out_bytes as f64)),
                _ => None,
            };
            let skew = skew_by_node.get(&(id as u64));
            let fused_members = match &graph.nodes[id].kind {
                crate::graph::NodeKind::Transform(op) => op.fused_members().unwrap_or_default(),
                _ => Vec::new(),
            };
            nodes.push(NodeReport {
                node: id,
                label: graph.nodes[id].label.clone(),
                predicted_secs,
                predicted_out_bytes,
                actual_wall_secs: wall,
                actual_sim_secs: sim,
                actual_out_bytes: out_bytes,
                execs,
                cache: counters.get(&id).copied().unwrap_or_default(),
                time_rel_error,
                bytes_rel_error,
                task_spans: skew.map_or(0, |s| s.tasks as u64),
                partitions: skew.map_or(0, |s| s.partitions as u64),
                skew_ratio: skew.map(|s| s.skew_ratio),
                record_skew: skew.map(|s| s.record_skew),
                utilization: skew.map(|s| s.utilization),
                recovery: recovery.get(&id).copied().unwrap_or_default(),
                fused_members,
                adapt: adapt_by_node.get(&id).map(|&(recal, promo, evict)| {
                    let mut parts = Vec::new();
                    if recal {
                        parts.push("recalibrated");
                    }
                    if promo {
                        parts.push("promoted");
                    }
                    if evict {
                        parts.push("evicted");
                    }
                    parts.join("+")
                }),
            });
        }
        let cache_hits = nodes.iter().map(|n| n.cache.hits).sum();
        let cache_misses = nodes.iter().map(|n| n.cache.misses).sum();
        PipelineReport {
            nodes,
            events: tracer.len(),
            cache_hits,
            cache_misses,
            recovery: tracer.recovery_stats(),
            tenants: Vec::new(),
            window,
        }
    }

    /// Row for a label (first match).
    pub fn node(&self, label: &str) -> Option<&NodeReport> {
        self.nodes.iter().find(|n| n.label == label)
    }

    /// Largest per-node wall-time relative error, if any node has one.
    pub fn max_time_rel_error(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.time_rel_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Largest per-node output-bytes relative error, if any node has one.
    pub fn max_bytes_rel_error(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.bytes_rel_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        self.to_jval().render()
    }

    fn to_jval(&self) -> JVal {
        let r = &self.recovery;
        let tenants = self.tenants.iter().map(TenantRow::to_jval);
        let nodes = self.nodes.iter().map(|n| n.to_jval(false));
        JVal::obj(vec![
            ("events", JVal::UInt(self.events as u64)),
            ("cache_hits", JVal::UInt(self.cache_hits)),
            ("cache_misses", JVal::UInt(self.cache_misses)),
            ("retries", JVal::UInt(r.retries)),
            ("cache_losses", JVal::UInt(r.cache_losses)),
            ("recovery_secs", JVal::Num(r.recovery_secs)),
            ("tenants", JVal::Arr(tenants.collect())),
            ("nodes", JVal::Arr(nodes.collect())),
        ])
    }

    /// Renders a fixed-width predicted-vs-actual table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>6} {:>11} {:>11} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {}\n",
            "node",
            "execs",
            "pred(s)",
            "wall(s)",
            "err%",
            "hits",
            "miss",
            "skew",
            "util%",
            "retry",
            "rec(s)",
            "adapt",
            "fused"
        ));
        for n in &self.nodes {
            let pred = n
                .predicted_secs
                .map_or("-".to_string(), |p| format!("{:.5}", p));
            let err = n
                .time_rel_error
                .map_or("-".to_string(), |e| format!("{:.1}", e * 100.0));
            let skew = n
                .skew_ratio
                .map_or("-".to_string(), |r| format!("{:.2}", r));
            let util = n
                .utilization
                .map_or("-".to_string(), |u| format!("{:.0}", u * 100.0));
            let mut label = n.label.clone();
            if label.len() > 28 {
                label.truncate(25);
                label.push_str("...");
            }
            let rec = if n.recovery.recovery_secs > 0.0 {
                format!("{:.3}", n.recovery.recovery_secs)
            } else {
                "-".to_string()
            };
            let fused = if n.fused_members.is_empty() {
                "-".to_string()
            } else {
                n.fused_members.join("+")
            };
            let adapt = n.adapt.as_deref().unwrap_or("-");
            out.push_str(&format!(
                "{:<28} {:>6} {:>11} {:>11.5} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {}\n",
                label,
                n.execs,
                pred,
                n.actual_wall_secs,
                err,
                n.cache.hits,
                n.cache.misses,
                skew,
                util,
                n.recovery.retries,
                rec,
                adapt,
                fused
            ));
        }
        out.push_str(&format!(
            "events: {}, cache hits: {}, misses: {}, retries: {}, cache losses: {}, \
             recovery: {:.3}s\n",
            self.events,
            self.cache_hits,
            self.cache_misses,
            self.recovery.retries,
            self.recovery.cache_losses,
            self.recovery.recovery_secs
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, NodeKind};
    use crate::operator::AnyData;
    use crate::profiler::{NodeProfile, PipelineProfile};
    use crate::record::DataStats;
    use keystone_dataflow::collection::DistCollection;
    use keystone_dataflow::json;

    fn graph_with(labels: &[&str]) -> Graph {
        let mut g = Graph::new();
        let mut prev = None;
        for l in labels {
            let inputs = prev.map(|p| vec![p]).unwrap_or_default();
            let kind = if prev.is_none() {
                NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64], 1)))
            } else {
                NodeKind::RuntimeInput // kind irrelevant for report joins
            };
            prev = Some(g.add(kind, inputs, *l));
        }
        g
    }

    fn profile_for(node: usize, secs: f64, bytes: f64) -> PipelineProfile {
        let mut p = PipelineProfile::default();
        p.nodes.insert(
            node,
            NodeProfile {
                secs_per_record: 0.0,
                fixed_secs: secs,
                out_bytes_per_record: 8.0,
                out_records_per_in: 1.0,
                records_hint: 100,
                out_stats: DataStats {
                    count: 100,
                    bytes_per_record: bytes / 100.0,
                    ..DataStats::empty()
                },
            },
        );
        p
    }

    #[test]
    fn join_computes_relative_errors() {
        let g = graph_with(&["src", "op"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        t.node_end(1, "op", 100, 800, 1.0, 0.5);
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, None);
        let row = r.node("op").expect("row for op");
        assert_eq!(row.execs, 1);
        // pred 2.0 vs actual 1.0 → 100% relative error.
        assert!((row.time_rel_error.expect("err") - 1.0).abs() < 1e-9);
        // bytes predicted exactly.
        assert!(row.bytes_rel_error.expect("bytes err") < 1e-9);
        assert_eq!(r.max_time_rel_error(), row.time_rel_error);
    }

    #[test]
    fn unexecuted_profiled_node_has_no_error() {
        let g = graph_with(&["src", "op"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, None);
        let row = r.node("op").expect("row");
        assert_eq!(row.execs, 0);
        assert!(row.time_rel_error.is_none());
        assert!(r.max_time_rel_error().is_none());
    }

    #[test]
    fn json_is_well_formed_and_contains_counters() {
        let g = graph_with(&["src", "a\"quoted\"", "b"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        t.node_end(1, "a\"quoted\"", 100, 800, 1.5, 0.0);
        t.record(crate::trace::TraceEvent::CacheMiss { node: 1 });
        t.record(crate::trace::TraceEvent::CacheHit { node: 1 });
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, None);
        let json = r.to_json();
        assert!(json::parse(&json).is_ok(), "invalid JSON: {json}");
        assert!(json.contains("\"cache_hits\":1"));
        assert!(json.contains("\"cache_misses\":1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"predicted_secs\":2"));
    }

    #[test]
    fn table_renders_every_row() {
        let g = graph_with(&["src", "op"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        t.node_end(1, "op", 100, 800, 1.0, 0.0);
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, None);
        let table = r.render_table();
        assert!(table.contains("op"));
        assert!(table.contains("err%"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn build_with_metrics_joins_skew_by_node_id() {
        let g = graph_with(&["src", "op"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        t.node_end(1, "op", 100, 800, 1.0, 0.5);
        let m = MetricsRegistry::new();
        // Three even partitions and one 5× straggler on node 1.
        for (p, dur) in [(0u64, 10u64), (1, 10), (2, 10), (3, 50)] {
            m.record_span(keystone_dataflow::metrics::TaskSpan {
                stage: "op".into(),
                op: "map",
                op_seq: 0,
                stage_id: Some(1),
                partition: p as usize,
                worker: p as usize % 2,
                start_us: 0,
                end_us: dur,
                items_in: 1,
                items_out: 1,
                bytes: 8,
                retries: 0,
            });
        }
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, Some(&m));
        let row = r.node("op").expect("row");
        assert_eq!(row.task_spans, 4);
        assert_eq!(row.partitions, 4);
        assert!((row.skew_ratio.expect("skew") - 5.0).abs() < 1e-9);
        assert!(row.utilization.expect("util") > 0.0);
        // err is 100% > 15% threshold, and skew 5 > 2 → blamed on skew.
        assert_eq!(row.miss_diagnosis(0.15), Some("skew"));
        let json = r.to_json();
        assert!(json::parse(&json).is_ok(), "invalid JSON: {json}");
        assert!(json.contains("\"skew_ratio\":5"));
        assert!(json.contains("\"task_spans\":4"));
        let table = r.render_table();
        assert!(table.contains("skew"));
        assert!(table.contains("util%"));
        assert!(table.contains("5.00"));
    }

    #[test]
    fn miss_diagnosis_classifies_uniform_and_accurate_rows() {
        let base = NodeReport {
            label: "x".into(),
            predicted_secs: Some(1.0),
            actual_wall_secs: 2.0,
            execs: 1,
            time_rel_error: Some(0.5),
            task_spans: 4,
            partitions: 4,
            skew_ratio: Some(1.1),
            utilization: Some(0.9),
            ..NodeReport::default()
        };
        // Even load but 50% off → uniform mis-estimate.
        assert_eq!(base.miss_diagnosis(0.15), Some("uniform"));
        // Within threshold → no diagnosis.
        let accurate = NodeReport {
            time_rel_error: Some(0.05),
            ..base.clone()
        };
        assert_eq!(accurate.miss_diagnosis(0.15), None);
        // No spans at all → still a uniform call (no evidence of skew).
        let no_spans = NodeReport {
            skew_ratio: None,
            ..base
        };
        assert_eq!(no_spans.miss_diagnosis(0.15), Some("uniform"));
    }

    /// Builds a report row from `spans` ((partition, start_us, end_us))
    /// joined against a 2.0s prediction and a 1.0s single-exec actual, so
    /// `time_rel_error` is always 100% and only `skew_ratio` varies.
    fn row_from_spans(spans: &[(usize, u64, u64)]) -> NodeReport {
        let g = graph_with(&["src", "op"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        t.node_end(1, "op", 100, 800, 1.0, 0.5);
        let m = MetricsRegistry::new();
        for &(p, start, end) in spans {
            m.record_span(keystone_dataflow::metrics::TaskSpan {
                stage: "op".into(),
                op: "map",
                op_seq: 0,
                stage_id: Some(1),
                partition: p,
                worker: p % 2,
                start_us: start,
                end_us: end,
                items_in: 1,
                items_out: 1,
                bytes: 8,
                retries: 0,
            });
        }
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, Some(&m));
        r.node("op").expect("row").clone()
    }

    #[test]
    fn miss_diagnosis_single_partition_stage_is_uniform() {
        // One partition: max == median busy time, so skew can never be
        // blamed — the miss must fall through to "uniform".
        let row = row_from_spans(&[(0, 0, 40)]);
        assert_eq!(row.partitions, 1);
        assert!((row.skew_ratio.expect("skew") - 1.0).abs() < 1e-9);
        assert_eq!(row.miss_diagnosis(0.15), Some("uniform"));
    }

    #[test]
    fn miss_diagnosis_zero_duration_spans_are_uniform_not_nan() {
        // All spans start and end on the same microsecond. The skew ratio
        // must stay finite (no 0/0 → NaN leaking into the diagnosis), and a
        // NaN comparison would silently fail `r > 2.0` — pin that it lands
        // on "uniform", not a panic or "skew".
        let row = row_from_spans(&[(0, 5, 5), (1, 5, 5), (2, 5, 5)]);
        let skew = row.skew_ratio.expect("skew present");
        assert!(skew.is_finite(), "zero-duration spans produced {skew}");
        assert_eq!(row.miss_diagnosis(0.15), Some("uniform"));
    }

    #[test]
    fn miss_diagnosis_all_equal_spans_sit_exactly_on_the_boundary() {
        // Four identical spans → skew ratio exactly 1.0; the `> 2.0` guard
        // must not fire on equality-adjacent values.
        let row = row_from_spans(&[(0, 0, 10), (1, 0, 10), (2, 0, 10), (3, 0, 10)]);
        assert!((row.skew_ratio.expect("skew") - 1.0).abs() < 1e-9);
        assert_eq!(row.miss_diagnosis(0.15), Some("uniform"));
        // And exactly-2.0 max/median (two at 10, two at 20 → median 15,
        // max 20 → ratio < 2) stays uniform; only strictly >2 flips.
        let boundary = NodeReport {
            skew_ratio: Some(2.0),
            ..row.clone()
        };
        assert_eq!(boundary.miss_diagnosis(0.15), Some("uniform"));
        let over = NodeReport {
            skew_ratio: Some(2.0 + 1e-9),
            ..row
        };
        assert_eq!(over.miss_diagnosis(0.15), Some("skew"));
    }

    #[test]
    fn adaptation_events_join_onto_rows_json_and_table() {
        use crate::trace::TraceEvent;
        let g = graph_with(&["src", "hot", "stale"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        t.node_end(1, "hot", 100, 800, 1.0, 0.5);
        t.record(TraceEvent::Recalibrate {
            node: 1,
            label: "hot".into(),
            observed_requests: 3,
            predicted_requests: 1.0,
        });
        t.record(TraceEvent::PlanRevision {
            wave: 1,
            promoted: vec![1],
            evicted: vec![2],
            predicted_saving_secs: 4.0,
        });
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, None);
        let hot = r.node("hot").expect("hot row");
        assert_eq!(hot.adapt.as_deref(), Some("recalibrated+promoted"));
        // The evicted node never executed and was never profiled, but the
        // revision alone earns it a row.
        let stale = r.node("stale").expect("stale row");
        assert_eq!(stale.adapt.as_deref(), Some("evicted"));
        assert_eq!(stale.execs, 0);
        let json = r.to_json();
        assert!(json::parse(&json).is_ok(), "invalid JSON: {json}");
        assert!(json.contains("\"adapt\":\"recalibrated+promoted\""));
        assert!(json.contains("\"adapt\":\"evicted\""));
        let table = r.render_table();
        assert!(table.contains("adapt"), "header column missing: {table}");
        assert!(table.contains("evicted"), "flag missing: {table}");
    }

    #[test]
    fn recovery_events_join_onto_node_rows_and_totals() {
        use crate::trace::TraceEvent;
        let g = graph_with(&["src", "op"]);
        let profile = profile_for(1, 2.0, 800.0);
        let t = Tracer::new();
        t.node_end(1, "op", 100, 800, 1.0, 0.5);
        t.record(TraceEvent::TaskRetry {
            node: 1,
            partition: 0,
            attempt: 0,
            backoff_secs: 1.0,
        });
        t.record(TraceEvent::TaskRetry {
            node: 1,
            partition: 0,
            attempt: 1,
            backoff_secs: 2.0,
        });
        t.record(TraceEvent::CacheLost { node: 1 });
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, None);
        let row = r.node("op").expect("row");
        assert_eq!(row.recovery.retries, 2);
        assert!((row.recovery.recovery_secs - 3.0).abs() < 1e-12);
        assert_eq!(r.recovery.retries, 2);
        assert_eq!(r.recovery.cache_losses, 1);
        assert!((r.recovery.recovery_secs - 3.0).abs() < 1e-12);
        let json = r.to_json();
        assert!(json::parse(&json).is_ok(), "invalid JSON: {json}");
        assert!(json.contains("\"retries\":2"));
        assert!(json.contains("\"cache_losses\":1"));
        assert!(json.contains("\"recovery_secs\":3.0"));
        let table = r.render_table();
        assert!(table.contains("retry"));
        assert!(table.contains("recovery: 3.000s"));
    }

    #[test]
    fn fused_rows_render_member_lists() {
        use crate::operator::{Transformer, TypedTransformer};
        use std::sync::Arc;
        struct Inc;
        impl Transformer<f64, f64> for Inc {
            fn apply(&self, x: &f64) -> f64 {
                x + 1.0
            }
        }
        struct Dbl;
        impl Transformer<f64, f64> for Dbl {
            fn apply(&self, x: &f64) -> f64 {
                x * 2.0
            }
        }
        let members: Vec<(String, Arc<dyn crate::operator::ErasedTransformer>)> = vec![
            ("Inc".into(), Arc::new(TypedTransformer::new(Inc))),
            ("Dbl".into(), Arc::new(TypedTransformer::new(Dbl))),
        ];
        let fused = crate::optimizer::FusedMap::try_fuse_with(&members, false).expect("fusable");
        let mut g = Graph::new();
        let src = g.add(
            NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64], 1))),
            vec![],
            "src",
        );
        let f = g.add(
            NodeKind::Transform(Arc::new(fused)),
            vec![src],
            "Fused[Inc+Dbl]",
        );
        let profile = profile_for(f, 1.0, 800.0);
        let t = Tracer::new();
        t.node_end(f, "Fused[Inc+Dbl]", 100, 800, 0.5, 0.25);
        let r = PipelineReport::build_with_metrics(&g, &profile, &t, None);
        let row = r.node("Fused[Inc+Dbl]").expect("row");
        assert_eq!(row.fused_members, vec!["Inc", "Dbl"]);
        let json = r.to_json();
        assert!(json::parse(&json).is_ok(), "invalid JSON: {json}");
        assert!(json.contains("\"fused_members\":[\"Inc\",\"Dbl\"]"));
        let table = r.render_table();
        assert!(table.contains("fused"), "header column missing: {table}");
        assert!(table.contains("Inc+Dbl"), "member list missing: {table}");
    }
}
