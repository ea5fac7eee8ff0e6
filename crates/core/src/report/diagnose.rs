//! Rule-based diagnosis over a [`RunArtifact`]: structured [`Finding`]s
//! with severity and evidence pointers back into the artifact.
//!
//! Each detector encodes one failure mode the paper's optimizer (or this
//! repo's extensions of it) can exhibit, and every finding carries the
//! numbers that triggered it — a diagnosis is an argument, not a vibe:
//!
//! * **straggler** — a stage whose slowest partition dwarfs the median
//!   (record skew in deterministic captures, busy-time skew otherwise),
//!   the regime where the cost model's "slowest worker" pricing diverges
//!   from uniform-split pricing (§4.1).
//! * **cache-thrash** — a key evicted and then missed again: the budget
//!   is too small for the working set, so the cache converts hits into
//!   recomputes.
//! * **unpaid-materialization** — an Algorithm-1 pick whose output was
//!   never hit: budget spent for zero reuse (§4.3).
//! * **misprediction** — the largest predicted-vs-actual runtime errors,
//!   the signal adaptive re-optimization reads via [`replanner_hints`].
//! * **fusion-barrier** — unfused multi-span stages adjacent to fusion
//!   barriers (materialization picks, multi-consumer nodes): where span
//!   count — and per-record dispatch overhead — concentrates.
//! * **serve-linger** — serving latency dominated by batch formation
//!   rather than execution: the linger knob is mis-tuned for the load.
//! * **recovery-overhead** — retry backoff (injected failures or panicking
//!   operators) consuming an outsized share of the simulated clock.

use std::collections::HashMap;

use keystone_dataflow::json::JVal;

use super::artifact::{RunArtifact, RunKind};
use super::NodeReport;
use crate::graph::NodeId;
use crate::optimizer::AdaptiveHints;
use crate::trace::TraceEvent;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing; no action needed.
    Info,
    /// Costing real time or memory; worth fixing.
    Warning,
    /// Dominating the run; fix first.
    Critical,
}

impl Severity {
    /// Lowercase name (`info`/`warning`/`critical`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One detector hit: the rule, where it points, and its evidence.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Detector name (stable identifier, e.g. `straggler`).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Plan node the finding points at, when node-scoped.
    pub node: Option<NodeId>,
    /// Stage or node label, when available.
    pub label: Option<String>,
    /// One-sentence human-readable statement.
    pub summary: String,
    /// Named quantities that triggered the rule, in evidence order.
    pub evidence: Vec<(&'static str, f64)>,
}

/// The full diagnosis: findings in deterministic order (severity
/// descending, then rule, then node).
#[derive(Debug, Clone, Default)]
pub struct Diagnosis {
    /// All findings.
    pub findings: Vec<Finding>,
}

/// Detector thresholds. The defaults are deliberately opinionated; tests
/// construct artifacts that clear them by a wide margin.
#[derive(Debug, Clone)]
pub struct DiagnoseOptions {
    /// Skew ratio above which a stage is a straggler (`Warning`), and the
    /// multiplier above which it is `Critical` (4× this value).
    pub skew_threshold: f64,
    /// Relative predicted-vs-actual error above which a node counts as
    /// mispredicted.
    pub misprediction_threshold: f64,
    /// How many top mispredictions to report.
    pub misprediction_top: usize,
    /// Recovery share of the simulated clock above which recovery is a
    /// `Warning` (3× this value: `Critical`).
    pub recovery_share_threshold: f64,
}

impl Default for DiagnoseOptions {
    fn default() -> Self {
        DiagnoseOptions {
            skew_threshold: 2.0,
            misprediction_threshold: 0.15,
            misprediction_top: 3,
            recovery_share_threshold: 0.10,
        }
    }
}

/// Runs every detector over the artifact with default thresholds.
pub fn diagnose(artifact: &RunArtifact) -> Diagnosis {
    diagnose_with(artifact, &DiagnoseOptions::default())
}

/// Runs every detector with explicit thresholds.
pub fn diagnose_with(artifact: &RunArtifact, opts: &DiagnoseOptions) -> Diagnosis {
    let mut findings = Vec::new();
    detect_stragglers(artifact, opts, &mut findings);
    detect_cache_thrash(artifact, &mut findings);
    detect_unpaid_materialization(artifact, &mut findings);
    detect_mispredictions(artifact, opts, &mut findings);
    detect_fusion_barriers(artifact, &mut findings);
    detect_serve_linger(artifact, &mut findings);
    detect_recovery_overhead(artifact, opts, &mut findings);
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(b.rule))
            .then_with(|| a.node.cmp(&b.node))
    });
    Diagnosis { findings }
}

/// Converts a diagnosis into [`AdaptiveHints`] for the next fit's
/// what-if re-planner: `misprediction` findings become per-node cost
/// overrides (the observed simulated seconds per execution replaces the
/// profiler's estimate) and `unpaid-materialization` findings flag their
/// picks for eviction at the first revision point. This closes the
/// observe → diagnose → re-plan loop: feed the result to
/// [`PipelineOptions::with_adaptive_hints`].
///
/// [`PipelineOptions::with_adaptive_hints`]:
///     crate::optimizer::PipelineOptions::with_adaptive_hints
pub fn replanner_hints(diagnosis: &Diagnosis) -> AdaptiveHints {
    let mut hints = AdaptiveHints::default();
    for f in &diagnosis.findings {
        let Some(node) = f.node else { continue };
        match f.rule {
            "misprediction" => {
                let observed = f
                    .evidence
                    .iter()
                    .find(|(k, _)| *k == "actual_sim_secs_per_exec")
                    .map(|&(_, v)| v);
                if let Some(secs) = observed {
                    if secs.is_finite() && secs > 0.0 {
                        hints.cost_overrides.push((node, secs));
                    }
                }
            }
            "unpaid-materialization" => hints.unpaid_picks.push(node),
            _ => {}
        }
    }
    hints.cost_overrides.sort_by_key(|o| o.0);
    hints.cost_overrides.dedup_by_key(|&mut (n, _)| n);
    hints.unpaid_picks.sort_unstable();
    hints.unpaid_picks.dedup();
    hints
}

fn detect_stragglers(artifact: &RunArtifact, opts: &DiagnoseOptions, out: &mut Vec<Finding>) {
    for n in &artifact.report.nodes {
        // Prefer the deterministic record-skew signal; fall back to busy
        // time when records are balanced but time is not (wall captures).
        let time_skew = n.skew_ratio.filter(|_| !artifact.deterministic);
        let (metric, ratio) = match (n.record_skew, time_skew) {
            (Some(r), _) if r > opts.skew_threshold => ("record_skew", r),
            (_, Some(t)) if t > opts.skew_threshold => ("time_skew", t),
            _ => continue,
        };
        let severity = if ratio > 4.0 * opts.skew_threshold {
            Severity::Critical
        } else {
            Severity::Warning
        };
        out.push(Finding {
            rule: "straggler",
            severity,
            node: Some(n.node),
            label: Some(n.label.clone()),
            summary: format!(
                "stage `{}` is skewed: slowest partition carries {ratio:.1}x the median \
                 ({metric} over {} partitions) — repartition or salt the hot key",
                n.label, n.partitions
            ),
            evidence: vec![(metric, ratio), ("partitions", n.partitions as f64)],
        });
    }
}

fn detect_cache_thrash(artifact: &RunArtifact, out: &mut Vec<Finding>) {
    // Walk the event stream: a key that misses *after* being evicted was
    // thrashed — the eviction converted a future hit into a recompute.
    let mut evicted: HashMap<NodeId, u64> = HashMap::new();
    let mut thrash: HashMap<NodeId, u64> = HashMap::new();
    for e in &artifact.events {
        match &e.event {
            TraceEvent::CacheEvict { node } => {
                *evicted.entry(*node).or_insert(0) += 1;
            }
            TraceEvent::CacheMiss { node } => {
                if let Some(pending) = evicted.get_mut(node) {
                    if *pending > 0 {
                        *pending -= 1;
                        *thrash.entry(*node).or_insert(0) += 1;
                    }
                }
            }
            _ => {}
        }
    }
    let mut nodes: Vec<(NodeId, u64)> = thrash.into_iter().collect();
    nodes.sort_unstable();
    for (node, count) in nodes {
        let label = artifact.node_label(node).to_string();
        out.push(Finding {
            rule: "cache-thrash",
            severity: if count > 2 {
                Severity::Critical
            } else {
                Severity::Warning
            },
            node: Some(node),
            label: Some(label.clone()),
            summary: format!(
                "node `{label}` was evicted then recomputed {count}x — the cache budget \
                 is below the working set; raise it or drop a colder pick"
            ),
            evidence: vec![("evict_then_miss", count as f64)],
        });
    }
}

fn detect_unpaid_materialization(artifact: &RunArtifact, out: &mut Vec<Finding>) {
    // Saving estimates live on the pick events; hits live on the rows.
    let mut est_saving: HashMap<NodeId, (f64, u64)> = HashMap::new();
    for e in &artifact.events {
        if let TraceEvent::MaterializePick {
            node,
            est_saving_secs,
            size_bytes,
            ..
        } = &e.event
        {
            est_saving.insert(*node, (*est_saving_secs, *size_bytes));
        }
    }
    for &node in &artifact.cache_set {
        let hits = artifact.node(node).map(|n| n.cache.hits).unwrap_or(0);
        if hits > 0 {
            continue;
        }
        let label = artifact.node_label(node).to_string();
        let (saving, bytes) = est_saving.get(&node).copied().unwrap_or((0.0, 0));
        out.push(Finding {
            rule: "unpaid-materialization",
            severity: Severity::Warning,
            node: Some(node),
            label: Some(label.clone()),
            summary: format!(
                "materialization pick `{label}` was never hit — {bytes} bytes of budget \
                 spent for zero reuse (estimated saving was {saving:.3}s)"
            ),
            evidence: vec![
                ("cache_hits", 0.0),
                ("est_saving_secs", saving),
                ("size_bytes", bytes as f64),
            ],
        });
    }
}

fn detect_mispredictions(artifact: &RunArtifact, opts: &DiagnoseOptions, out: &mut Vec<Finding>) {
    // Compare the profiler's full-scale estimate against the charged
    // simulated seconds per execution — both virtual, so the signal
    // survives deterministic capture.
    let mut missed: Vec<(f64, &NodeReport, f64, f64)> = Vec::new();
    for n in &artifact.report.nodes {
        let (Some(pred), true) = (n.predicted_secs, n.execs > 0) else {
            continue;
        };
        let actual = n.actual_sim_secs / n.execs as f64;
        if actual <= 0.0 {
            continue;
        }
        let err = (pred - actual).abs() / actual.abs().max(1e-9);
        if err > opts.misprediction_threshold {
            missed.push((err, n, pred, actual));
        }
    }
    missed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    for (err, n, pred, actual) in missed.into_iter().take(opts.misprediction_top) {
        out.push(Finding {
            rule: "misprediction",
            severity: if err > 1.0 {
                Severity::Warning
            } else {
                Severity::Info
            },
            node: Some(n.node),
            label: Some(n.label.clone()),
            summary: format!(
                "profiler predicted {pred:.4}s for `{}` but the run charged {actual:.4}s \
                 per execution ({:.0}% off) — a candidate for re-profiling",
                n.label,
                err * 100.0
            ),
            evidence: vec![
                ("rel_error", err),
                ("predicted_secs", pred),
                ("actual_sim_secs_per_exec", actual),
            ],
        });
    }
}

fn detect_fusion_barriers(artifact: &RunArtifact, out: &mut Vec<Finding>) {
    // Consumers per node: a node feeding >1 consumers is a fusion barrier,
    // as is every materialization pick. Rank barriers by the spans their
    // stage emitted — that's the per-record dispatch overhead fusion
    // could not remove.
    let mut consumers: HashMap<NodeId, u64> = HashMap::new();
    for n in &artifact.graph.nodes {
        for &i in &n.inputs {
            *consumers.entry(i).or_insert(0) += 1;
        }
    }
    let mut worst: Option<(u64, NodeId, &'static str)> = None;
    for n in &artifact.report.nodes {
        if n.task_spans == 0 {
            continue;
        }
        let reason = if artifact.cache_set.contains(&n.node) {
            "materialization pick"
        } else if consumers.get(&n.node).copied().unwrap_or(0) > 1 {
            "multi-consumer output"
        } else {
            continue;
        };
        if worst.map(|(s, _, _)| n.task_spans > s).unwrap_or(true) {
            worst = Some((n.task_spans, n.node, reason));
        }
    }
    if let Some((spans, node, reason)) = worst {
        let label = artifact.node_label(node).to_string();
        out.push(Finding {
            rule: "fusion-barrier",
            severity: Severity::Info,
            node: Some(node),
            label: Some(label.clone()),
            summary: format!(
                "fusion barrier at `{label}` ({reason}) emitted {spans} task spans — the \
                 largest unfusable span population in this run"
            ),
            evidence: vec![("task_spans", spans as f64)],
        });
    }
}

fn detect_serve_linger(artifact: &RunArtifact, out: &mut Vec<Finding>) {
    let Some(serve) = &artifact.serve else {
        return;
    };
    if artifact.kind != RunKind::Serve || serve.admitted == 0 {
        return;
    }
    let wait = serve.queue_secs_total + serve.linger_secs_total;
    if wait > serve.execute_secs_total && wait > 0.0 {
        let share = wait / (wait + serve.execute_secs_total);
        out.push(Finding {
            rule: "serve-linger",
            severity: Severity::Warning,
            node: None,
            label: None,
            summary: format!(
                "{:.0}% of total serve latency is waiting (queue + linger), not execution \
                 — lower max_linger or raise max_batch",
                share * 100.0
            ),
            evidence: vec![
                ("wait_secs_total", wait),
                ("execute_secs_total", serve.execute_secs_total),
                ("wait_share", share),
            ],
        });
    }
}

fn detect_recovery_overhead(
    artifact: &RunArtifact,
    opts: &DiagnoseOptions,
    out: &mut Vec<Finding>,
) {
    if artifact.sim_total_secs <= 0.0 || artifact.report.recovery.recovery_secs <= 0.0 {
        return;
    }
    let share = artifact.report.recovery.recovery_secs / artifact.sim_total_secs;
    if share <= opts.recovery_share_threshold {
        return;
    }
    out.push(Finding {
        rule: "recovery-overhead",
        severity: if share > 3.0 * opts.recovery_share_threshold {
            Severity::Critical
        } else {
            Severity::Warning
        },
        node: None,
        label: None,
        summary: format!(
            "recovery (retry backoff) consumed {:.0}% of the simulated clock \
             ({} retries, {} cache losses)",
            share * 100.0,
            artifact.report.recovery.retries,
            artifact.report.recovery.cache_losses
        ),
        evidence: vec![
            ("recovery_share", share),
            ("recovery_secs", artifact.report.recovery.recovery_secs),
            ("sim_total_secs", artifact.sim_total_secs),
        ],
    });
}

impl Diagnosis {
    /// The most severe finding's severity, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Findings for one rule.
    pub fn rule(&self, rule: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Human-readable report, one block per finding.
    pub fn render_text(&self) -> String {
        if self.findings.is_empty() {
            return "diagnosis: no findings — the run looks healthy\n".to_string();
        }
        let mut out = format!("diagnosis: {} finding(s)\n", self.findings.len());
        for f in &self.findings {
            out.push_str(&format!(
                "[{:>8}] {}{}\n",
                f.severity.as_str(),
                f.rule,
                match f.node {
                    Some(n) => format!(" @ node {n}"),
                    None => String::new(),
                }
            ));
            out.push_str(&format!("           {}\n", f.summary));
            for (k, v) in &f.evidence {
                out.push_str(&format!("           · {k} = {v:.4}\n"));
            }
        }
        out
    }

    /// Deterministic JSON rendering (sorted keys).
    pub fn to_json(&self) -> String {
        JVal::obj(vec![(
            "findings",
            JVal::Arr(
                self.findings
                    .iter()
                    .map(|f| {
                        JVal::obj(vec![
                            ("rule", JVal::str(f.rule)),
                            ("severity", JVal::str(f.severity.as_str())),
                            (
                                "node",
                                f.node.map(|n| JVal::UInt(n as u64)).unwrap_or(JVal::Null),
                            ),
                            (
                                "label",
                                f.label.as_deref().map(JVal::str).unwrap_or(JVal::Null),
                            ),
                            ("summary", JVal::str(&f.summary)),
                            (
                                "evidence",
                                JVal::Arr(
                                    f.evidence
                                        .iter()
                                        .map(|(k, v)| {
                                            JVal::obj(vec![
                                                ("name", JVal::str(k)),
                                                ("value", JVal::Num(*v)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use crate::graph::{Graph, NodeKind};
    use crate::pipeline::ExecutablePlan;
    use crate::report::{CaptureOptions, LedgerWindow, ServeSection};
    use crate::trace::{CacheCounters, RecoveryStats, TracedEvent};
    use std::sync::Arc;

    /// A hand-built artifact with a straggler, a thrashing cache key, an
    /// unpaid pick, and a fat misprediction — the synthetic run the
    /// acceptance criteria require the engine to diagnose.
    fn synthetic_artifact() -> RunArtifact {
        let mut g = Graph::new();
        for id in 0..4 {
            let inputs = if id == 0 { vec![] } else { vec![id - 1] };
            g.add(NodeKind::RuntimeInput, inputs, format!("n{id}"));
        }
        let plan = ExecutablePlan::new(Arc::new(g), 3, HashMap::new(), Arc::new(HashMap::new()));
        let ctx = ExecContext::default_cluster();
        let opts = CaptureOptions::default();
        let mut a = RunArtifact::capture_apply(&plan, LedgerWindow::default(), None, &ctx, &opts);
        a.kind = RunKind::Fit;
        a.cache_set = vec![2];
        a.report.nodes = (0..4)
            .map(|node| NodeReport {
                node,
                label: format!("n{node}"),
                actual_sim_secs: 1.0,
                execs: 1,
                task_spans: 4,
                partitions: 4,
                record_skew: Some(1.0),
                ..NodeReport::default()
            })
            .collect();
        // Node 1: 10x record skew — straggler (critical: > 4× threshold).
        a.report.nodes[1].record_skew = Some(10.0);
        // Node 2: materialization pick with zero hits — unpaid.
        a.report.nodes[2].cache = CacheCounters {
            hits: 0,
            misses: 3,
            admissions: 2,
            evictions: 2,
            rejections: 0,
        };
        // Node 3: predicted 0.1s, charged 1.0s per exec — 90% off.
        a.report.nodes[3].predicted_secs = Some(0.1);
        // Event stream: node 2 admitted, evicted, then missed again (twice)
        // — cache thrash.
        a.events = [
            TraceEvent::CacheMiss { node: 2 },
            TraceEvent::CacheAdmit { node: 2, bytes: 64 },
            TraceEvent::CacheEvict { node: 2 },
            TraceEvent::CacheMiss { node: 2 },
            TraceEvent::CacheAdmit { node: 2, bytes: 64 },
            TraceEvent::CacheEvict { node: 2 },
            TraceEvent::CacheMiss { node: 2 },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, event)| TracedEvent {
            seq: i as u64,
            event,
        })
        .collect();
        a.sim_total_secs = 4.0;
        a.report.recovery = RecoveryStats {
            retries: 3,
            cache_losses: 1,
            recovery_secs: 1.0,
        };
        a
    }

    #[test]
    fn replanner_hints_fold_mispredictions_and_unpaid_picks() {
        let d = diagnose(&synthetic_artifact());
        let hints = replanner_hints(&d);
        // Node 3: predicted 0.1s but charged 1.0s/exec → cost override at
        // the observed rate.
        assert_eq!(hints.cost_overrides, vec![(3, 1.0)]);
        // Node 2: the never-hit materialization pick → eviction flag.
        assert_eq!(hints.unpaid_picks, vec![2]);
        // An empty diagnosis yields empty hints.
        let none = replanner_hints(&Diagnosis::default());
        assert!(none.cost_overrides.is_empty() && none.unpaid_picks.is_empty());
    }

    #[test]
    fn synthetic_run_yields_straggler_thrash_and_misprediction() {
        let d = diagnose(&synthetic_artifact());
        let straggler = d.rule("straggler");
        assert_eq!(straggler.len(), 1, "{}", d.render_text());
        assert_eq!(straggler[0].node, Some(1));
        assert_eq!(straggler[0].severity, Severity::Critical);

        let thrash = d.rule("cache-thrash");
        assert_eq!(thrash.len(), 1, "{}", d.render_text());
        assert_eq!(thrash[0].node, Some(2));
        assert_eq!(thrash[0].label.as_deref(), Some("n2"));
        assert_eq!(thrash[0].evidence[0], ("evict_then_miss", 2.0));

        let miss = d.rule("misprediction");
        assert_eq!(miss.len(), 1, "{}", d.render_text());
        assert_eq!(miss[0].node, Some(3));

        let unpaid = d.rule("unpaid-materialization");
        assert_eq!(unpaid.len(), 1);
        assert_eq!(unpaid[0].node, Some(2));

        let recovery = d.rule("recovery-overhead");
        assert_eq!(recovery.len(), 1);
        assert_eq!(recovery[0].severity, Severity::Warning);

        assert_eq!(d.max_severity(), Some(Severity::Critical));
    }

    #[test]
    fn deterministic_captures_ignore_wall_skew() {
        let mut a = synthetic_artifact();
        a.report.nodes[1].record_skew = Some(1.0);
        a.report.nodes[1].skew_ratio = Some(10.0);
        assert!(diagnose(&a).rule("straggler").is_empty());
        a.deterministic = false;
        let d = diagnose(&a);
        assert_eq!(d.rule("straggler")[0].evidence[0], ("time_skew", 10.0));
    }

    #[test]
    fn findings_order_is_severity_then_rule_then_node() {
        let d = diagnose(&synthetic_artifact());
        let severities: Vec<Severity> = d.findings.iter().map(|f| f.severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted);
        // Same diagnosis twice renders identically (determinism).
        let d2 = diagnose(&synthetic_artifact());
        assert_eq!(d.to_json(), d2.to_json());
        assert_eq!(d.render_text(), d2.render_text());
    }

    #[test]
    fn healthy_artifact_yields_no_findings() {
        let mut a = synthetic_artifact();
        a.report.nodes = vec![];
        a.cache_set.clear();
        a.events.clear();
        a.report.recovery = RecoveryStats::default();
        let d = diagnose(&a);
        assert!(d.findings.is_empty(), "{}", d.render_text());
        assert!(d.render_text().contains("healthy"));
        assert_eq!(d.max_severity(), None);
    }

    #[test]
    fn serve_linger_fires_when_waiting_dominates() {
        let mut a = synthetic_artifact();
        a.kind = RunKind::Serve;
        a.report.nodes = vec![];
        a.cache_set.clear();
        a.events.clear();
        a.report.recovery = RecoveryStats::default();
        a.serve = Some(ServeSection {
            admitted: 100,
            rejected: 0,
            batches: 10,
            max_queue_depth: 5,
            makespan_secs: 10.0,
            queue_secs_total: 3.0,
            linger_secs_total: 4.0,
            execute_secs_total: 2.0,
            p50_latency_secs: 0.05,
            p99_latency_secs: 0.2,
        });
        let d = diagnose(&a);
        let linger = d.rule("serve-linger");
        assert_eq!(linger.len(), 1, "{}", d.render_text());
        assert!(linger[0].summary.contains("78%"), "{}", linger[0].summary);
    }

    #[test]
    fn render_text_names_every_rule_with_evidence() {
        let d = diagnose(&synthetic_artifact());
        let text = d.render_text();
        for rule in [
            "straggler",
            "cache-thrash",
            "unpaid-materialization",
            "misprediction",
            "recovery-overhead",
        ] {
            assert!(text.contains(rule), "missing {rule} in:\n{text}");
        }
        assert!(text.contains("record_skew"));
        let json = d.to_json();
        assert!(keystone_dataflow::json::parse(&json).is_ok());
    }
}
