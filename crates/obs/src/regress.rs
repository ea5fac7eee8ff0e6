//! Regression harness: snapshot the virtual metrics of a [`RunArtifact`]
//! that matter into `BENCH_*.json` files, and gate CI on them.
//!
//! Everything in this module compares **virtual** quantities (simulated
//! seconds, span counts, hit ratios, virtual latency percentiles) — the
//! numbers that are byte-identical across runs of the same binary — so a
//! committed baseline stays meaningful on any machine. Wall time never
//! enters a snapshot.
//!
//! Direction is inferred from the metric name: `*_secs`, `*_bytes`,
//! `*_spans`, `*p50*`, `*p99*` regress when they go *up*;
//! `*hit_ratio*`, `*qps*`, `*throughput*` regress when they go *down*.
//! Unknown names are change-detected in both directions.

use std::collections::BTreeMap;

use keystone_dataflow::json::{self, JVal};

use crate::artifact::RunArtifact;

/// A named bag of scalar metrics — the unit the CI gate compares. The
/// on-disk form is a `BENCH_<name>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Snapshot name (e.g. `fusion`, `serve`).
    pub name: String,
    /// Metric name → value, sorted for deterministic serialization.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchSnapshot {
    /// An empty snapshot.
    pub fn new(name: &str) -> BenchSnapshot {
        BenchSnapshot {
            name: name.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds (or overwrites) one metric.
    pub fn set(&mut self, metric: &str, value: f64) -> &mut Self {
        self.metrics.insert(metric.to_string(), value);
        self
    }

    /// Extracts the gateable virtual metrics from an artifact.
    pub fn from_artifact(name: &str, artifact: &RunArtifact) -> BenchSnapshot {
        let mut snap = BenchSnapshot::new(name);
        snap.set("sim_total_secs", artifact.sim_total_secs);
        snap.set("span_count_spans", artifact.spans.len() as f64);
        if let Some(ratio) = artifact.cache_hit_ratio() {
            snap.set("cache_hit_ratio", ratio);
        }
        for (stage, secs) in &artifact.sim_by_stage {
            snap.set(&format!("stage.{stage}_secs"), *secs);
        }
        if let Some(serve) = &artifact.serve {
            snap.set("serve.p50_latency_secs", serve.p50_latency_secs);
            snap.set("serve.p99_latency_secs", serve.p99_latency_secs);
            snap.set("serve.makespan_secs", serve.makespan_secs);
            snap.set("serve.admitted", serve.admitted as f64);
        }
        snap
    }

    /// Deterministic JSON form.
    pub fn to_json(&self) -> String {
        JVal::obj(vec![
            ("name", JVal::str(&self.name)),
            (
                "metrics",
                JVal::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JVal::Num(*v)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses a snapshot written by [`BenchSnapshot::to_json`].
    pub fn from_json(json: &str) -> Result<BenchSnapshot, String> {
        let doc = json::parse(json).map_err(|e| format!("snapshot parse error: {e}"))?;
        let name = doc
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("snapshot missing `name`")?
            .to_string();
        let mut metrics = BTreeMap::new();
        if let Some(json::Value::Obj(pairs)) = doc.get("metrics") {
            for (k, v) in pairs {
                let value = v
                    .as_f64()
                    .ok_or_else(|| format!("metric `{k}` is not a number"))?;
                metrics.insert(k.clone(), value);
            }
        } else {
            return Err("snapshot missing `metrics` object".to_string());
        }
        Ok(BenchSnapshot { name, metrics })
    }
}

/// Which way a metric is allowed to move without tripping the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Going up beyond tolerance is a regression (`*_secs`, `*_spans`, …).
    LowerIsBetter,
    /// Going down beyond tolerance is a regression (`*hit_ratio*`, …).
    HigherIsBetter,
    /// Any move beyond tolerance is a regression (unknown names).
    Exact,
}

/// Infers a metric's direction from its name.
pub fn direction_of(metric: &str) -> Direction {
    let m = metric.to_ascii_lowercase();
    if m.contains("hit_ratio") || m.contains("qps") || m.contains("throughput") {
        Direction::HigherIsBetter
    } else if m.ends_with("_secs")
        || m.ends_with("_bytes")
        || m.ends_with("_spans")
        || m.contains("p50")
        || m.contains("p99")
    {
        Direction::LowerIsBetter
    } else {
        Direction::Exact
    }
}

/// One gate violation.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The metric that moved.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub new: f64,
    /// Relative change, signed ((new − base) / max(|base|, ε)).
    pub rel_change: f64,
}

/// Result of a gate check.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Metrics that regressed beyond tolerance.
    pub regressions: Vec<Regression>,
    /// Metrics that moved beyond tolerance in the *good* direction.
    pub improvements: Vec<Regression>,
    /// Metrics present in only one snapshot (name, which side has it).
    pub missing: Vec<(String, &'static str)>,
}

impl GateReport {
    /// True when no metric regressed and none went missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Human-readable verdict.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            out.push_str(&format!(
                "REGRESSION {}: {} -> {} ({:+.1}%)\n",
                r.metric,
                r.base,
                r.new,
                r.rel_change * 100.0
            ));
        }
        for (metric, side) in &self.missing {
            out.push_str(&format!("MISSING    {metric}: only in {side} snapshot\n"));
        }
        for r in &self.improvements {
            out.push_str(&format!(
                "improved   {}: {} -> {} ({:+.1}%)\n",
                r.metric,
                r.base,
                r.new,
                r.rel_change * 100.0
            ));
        }
        if self.passed() {
            out.push_str("gate: PASS\n");
        } else {
            out.push_str(&format!(
                "gate: FAIL ({} regression(s), {} missing)\n",
                self.regressions.len(),
                self.missing.len()
            ));
        }
        out
    }
}

/// The CI perf-regression gate: compares a fresh snapshot against a
/// committed baseline with a relative tolerance.
#[derive(Debug, Clone)]
pub struct RegressionGate {
    /// Allowed relative drift before a directional move counts as a
    /// regression (e.g. `0.05` = 5%).
    pub tolerance: f64,
}

impl Default for RegressionGate {
    fn default() -> Self {
        // Virtual quantities are deterministic, so the default tolerance
        // only absorbs intentional-but-tiny cost-model adjustments.
        RegressionGate { tolerance: 0.05 }
    }
}

impl RegressionGate {
    /// A gate with an explicit tolerance.
    pub fn with_tolerance(tolerance: f64) -> RegressionGate {
        RegressionGate { tolerance }
    }

    /// Checks `new` against `base`.
    pub fn check(&self, base: &BenchSnapshot, new: &BenchSnapshot) -> GateReport {
        let mut report = GateReport::default();
        for (metric, &b) in &base.metrics {
            let Some(&n) = new.metrics.get(metric) else {
                report.missing.push((metric.clone(), "baseline"));
                continue;
            };
            let rel = (n - b) / b.abs().max(1e-12);
            if rel.abs() <= self.tolerance {
                continue;
            }
            let entry = Regression {
                metric: metric.clone(),
                base: b,
                new: n,
                rel_change: rel,
            };
            let regressed = match direction_of(metric) {
                Direction::LowerIsBetter => rel > 0.0,
                Direction::HigherIsBetter => rel < 0.0,
                Direction::Exact => true,
            };
            if regressed {
                report.regressions.push(entry);
            } else {
                report.improvements.push(entry);
            }
        }
        for metric in new.metrics.keys() {
            if !base.metrics.contains_key(metric) {
                report.missing.push((metric.clone(), "current"));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_snapshot() -> BenchSnapshot {
        let mut s = BenchSnapshot::new("fusion");
        s.set("sim_total_secs", 10.0)
            .set("span_count_spans", 64.0)
            .set("cache_hit_ratio", 0.8)
            .set("stage.fit_secs", 8.0);
        s
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = base_snapshot();
        let parsed = BenchSnapshot::from_json(&s.to_json()).expect("round trip");
        assert_eq!(parsed, s);
        // Serialization itself is deterministic.
        assert_eq!(s.to_json(), parsed.to_json());
    }

    #[test]
    fn direction_heuristics_follow_the_suffix() {
        assert_eq!(direction_of("sim_total_secs"), Direction::LowerIsBetter);
        assert_eq!(direction_of("span_count_spans"), Direction::LowerIsBetter);
        assert_eq!(
            direction_of("serve.p99_latency_secs"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_of("cache_hit_ratio"), Direction::HigherIsBetter);
        assert_eq!(direction_of("loadgen_qps"), Direction::HigherIsBetter);
        assert_eq!(direction_of("serve.admitted"), Direction::Exact);
    }

    #[test]
    fn gate_fails_on_slowdown_and_passes_within_tolerance() {
        let base = base_snapshot();
        let mut slow = base.clone();
        slow.set("sim_total_secs", 13.0); // +30%
        let gate = RegressionGate::default();
        let report = gate.check(&base, &slow);
        assert!(!report.passed(), "{}", report.render_text());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "sim_total_secs");

        let mut ok = base.clone();
        ok.set("sim_total_secs", 10.2); // +2% < 5% tolerance
        assert!(gate.check(&base, &ok).passed());
    }

    #[test]
    fn gate_treats_speedup_as_improvement_and_hit_ratio_drop_as_regression() {
        let base = base_snapshot();
        let mut new = base.clone();
        new.set("sim_total_secs", 7.0); // faster: improvement
        new.set("cache_hit_ratio", 0.4); // halved: regression
        let report = RegressionGate::default().check(&base, &new);
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].metric, "sim_total_secs");
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "cache_hit_ratio");
    }

    #[test]
    fn gate_flags_missing_metrics_on_either_side() {
        let base = base_snapshot();
        let mut new = base.clone();
        new.metrics.remove("stage.fit_secs");
        new.set("stage.apply_secs", 1.0);
        let report = RegressionGate::default().check(&base, &new);
        assert!(!report.passed());
        assert_eq!(report.missing.len(), 2);
        let text = report.render_text();
        assert!(text.contains("stage.fit_secs"), "{text}");
        assert!(text.contains("stage.apply_secs"), "{text}");
    }
}
