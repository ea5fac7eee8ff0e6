//! End-to-end observability: fitting a deterministic pipeline yields a
//! [`PipelineReport`] whose predicted-vs-actual errors are finite and
//! bounded, whose cache counters reflect real reuse, and whose JSON and
//! table renderings are well formed. Structural outputs (event order,
//! cache picks) are identical across repeated runs with the same seeds.

use keystoneml::core::trace::TraceEvent;
use keystoneml::prelude::*;

/// Busy-waits per record so profiled costs are linear in the input size —
/// the regime where execution subsampling (§4.1) is accurate.
struct BusyWork(u64);
impl Transformer<Vec<f64>, Vec<f64>> for BusyWork {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        let mut acc = 0.0f64;
        for i in 0..self.0 * 100 {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
        x.clone()
    }
}

/// Subtracts the training mean of the first component. Deterministic.
struct MeanShift;
impl Estimator<Vec<f64>, Vec<f64>> for MeanShift {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        let n = data.count().max(1) as f64;
        let mu = data.aggregate(0.0, |a, x| a + x[0], |a, b| a + b) / n;
        struct Shift(f64);
        impl Transformer<Vec<f64>, Vec<f64>> for Shift {
            fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
                x.iter().map(|v| v - self.0).collect()
            }
        }
        Box::new(Shift(mu))
    }
}

fn train_data() -> DistCollection<Vec<f64>> {
    DistCollection::from_vec((0..768).map(|i| vec![i as f64, 1.0]).collect(), 4)
}

fn opts() -> PipelineOptions {
    PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![64, 128],
            seed: 7,
            select_operators: true,
            ..Default::default()
        },
        caching: CachingStrategy::Greedy,
        mem_budget: Some(64 << 20),
        ..Default::default()
    }
}

/// Shared expensive prefix feeding two estimators: CSE merges the prefix
/// copies and the materializer should cache the reused intermediate.
fn pipeline() -> Pipeline<Vec<f64>, Vec<f64>> {
    let train = train_data();
    Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(BusyWork(20))
        .and_then_est(MeanShift, &train)
        .and_then_est(MeanShift, &train)
}

fn fit_pipeline() -> (ExecContext, FitReport) {
    let ctx = ExecContext::default_cluster();
    let (_fitted, report) = pipeline().fit(&ctx, &opts());
    (ctx, report)
}

/// The run-stable part of a report: totals, then per node its id, label,
/// execution count, cache counters, task spans, partitions and simulated
/// seconds (wall-clock fields are left out).
fn structural(r: &PipelineReport) -> impl PartialEq + std::fmt::Debug {
    let rows: Vec<_> = r
        .nodes
        .iter()
        .map(|n| {
            let sim = n.actual_sim_secs.to_bits();
            let spans = (n.task_spans, n.partitions);
            (n.node, n.label.clone(), n.execs, n.cache, spans, sim)
        })
        .collect();
    (r.events, r.cache_hits, r.cache_misses, rows)
}

#[test]
fn a_report_on_a_reused_context_covers_its_own_fit_only() {
    let mut o = opts();
    o.profile.deterministic_timing = true;
    let fresh = structural(
        &pipeline()
            .fit(&ExecContext::default_cluster(), &o)
            .1
            .observability,
    );

    let ctx = ExecContext::default_cluster();
    for round in 0..2 {
        let (_, report) = pipeline().fit(&ctx, &o);
        assert_eq!(structural(&report.observability), fresh, "fit {round}");
    }

    // `fit_forest` fits LRU tenants alone, one after the other on the one
    // context: tenant 1's report must not contain tenant 0.
    let lru = PipelineOptions {
        caching: CachingStrategy::Lru {
            admission_fraction: 1.0,
        },
        ..o
    };
    let fresh = structural(
        &pipeline()
            .fit(&ExecContext::default_cluster(), &lru)
            .1
            .observability,
    );
    let ctx = ExecContext::default_cluster();
    let (_, forest) = fit_forest(&[pipeline(), pipeline()], &ctx, &lru);
    assert_eq!(forest.solo_reports.len(), 2);
    for r in &forest.solo_reports {
        assert_eq!(structural(&r.observability), fresh);
    }
}

#[test]
fn report_joins_predictions_with_bounded_error() {
    let (_ctx, report) = fit_pipeline();
    let obs = &report.observability;
    assert!(!obs.nodes.is_empty(), "report has no rows");
    assert!(obs.events > 0, "no trace events recorded");

    // At least one node carries a predicted-vs-actual comparison, and every
    // error that exists is finite. Busy-wait work is linear in the input,
    // so subsampling extrapolations land within a generous constant factor
    // even on noisy CI machines.
    let max_err = obs
        .max_time_rel_error()
        .expect("no node has both a prediction and an observation");
    assert!(max_err.is_finite(), "non-finite relative error");
    assert!(max_err < 25.0, "time relative error unbounded: {max_err}");

    // Memory extrapolation is exact for fixed-width records (§4.1 reports
    // it as nearly perfect).
    if let Some(bytes_err) = obs.max_bytes_rel_error() {
        assert!(bytes_err.is_finite());
        assert!(
            bytes_err < 0.5,
            "bytes relative error too large: {bytes_err}"
        );
    }

    // Executed rows account their executions.
    for n in &obs.nodes {
        if n.execs > 0 {
            assert!(n.actual_wall_secs >= 0.0 && n.actual_wall_secs.is_finite());
        }
    }
}

#[test]
fn cache_counters_reflect_real_reuse() {
    let (ctx, report) = fit_pipeline();
    let obs = &report.observability;

    // The shared BusyWork(train) intermediate is requested by both
    // estimator branches; with greedy materialization it must be cached:
    // one miss on first computation, at least one hit on reuse.
    assert!(!report.cache_set.is_empty(), "greedy cached nothing");
    assert!(obs.cache_hits >= 1, "no cache hit despite shared prefix");
    assert!(obs.cache_misses >= 1);

    // Per-node consistency: admissions only follow misses, evictions never
    // exceed admissions, and pinned-set totals add up.
    for n in &obs.nodes {
        assert!(
            n.cache.admissions <= n.cache.misses,
            "node {} admitted {} times with only {} misses",
            n.label,
            n.cache.admissions,
            n.cache.misses
        );
        assert!(n.cache.evictions <= n.cache.admissions);
    }

    // The tracer's totals and the report's totals are the same aggregation.
    let counters = ctx.tracer.cache_counters();
    let hits: u64 = counters.values().map(|c| c.hits).sum();
    let misses: u64 = counters.values().map(|c| c.misses).sum();
    assert_eq!(hits, obs.cache_hits);
    assert_eq!(misses, obs.cache_misses);
}

#[test]
fn optimizer_decisions_appear_as_events() {
    let (ctx, report) = fit_pipeline();
    let events = ctx.tracer.events();
    // CSE merged the duplicated BusyWork prefix.
    assert!(report.eliminated_nodes > 0);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::CseMerge { duplicates, .. } if duplicates > 0)),
        "no CseMerge event despite eliminated nodes"
    );
    // Greedy picks surface with positive estimated savings matching the set.
    let picks: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::MaterializePick {
                node,
                est_saving_secs,
                ..
            } => Some((*node, *est_saving_secs)),
            _ => None,
        })
        .collect();
    assert_eq!(picks.len(), report.cache_set.len());
    for (node, saving) in &picks {
        assert!(report.cache_set.contains(node));
        assert!(*saving > 0.0);
    }
}

#[test]
fn report_serializes_to_json_and_table() {
    let (_ctx, report) = fit_pipeline();
    let json = report.observability.to_json();
    assert!(
        keystoneml::dataflow::json::parse(&json).is_ok(),
        "malformed JSON: {json}"
    );
    for key in [
        "\"predicted_secs\"",
        "\"actual_wall_secs\"",
        "\"cache\"",
        "\"hits\"",
        "\"misses\"",
        "\"time_rel_error\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}");
    }
    let table = report.observability.render_table();
    assert!(table.contains("pred(s)") && table.contains("err%"));
    assert!(table.lines().count() >= report.observability.nodes.len() + 2);
}

#[test]
fn structural_outputs_are_deterministic_across_runs() {
    let (ctx1, r1) = fit_pipeline();
    let (ctx2, r2) = fit_pipeline();
    assert_eq!(r1.cache_set, r2.cache_set);
    assert_eq!(r1.cache_set_labels, r2.cache_set_labels);
    assert_eq!(r1.eliminated_nodes, r2.eliminated_nodes);
    assert_eq!(r1.choices, r2.choices);
    // Node completion order (timings differ; structure must not).
    assert_eq!(
        ctx1.tracer.completion_order(),
        ctx2.tracer.completion_order()
    );
    let labels = |r: &FitReport| -> Vec<String> {
        r.observability
            .nodes
            .iter()
            .map(|n| n.label.clone())
            .collect()
    };
    assert_eq!(labels(&r1), labels(&r2));
}
