//! End-to-end flight-recorder tests: capture real fit/apply/serve runs as
//! [`RunArtifact`]s and check the two load-bearing properties —
//!
//! 1. **byte-identity**: two identical seeded runs serialize to the same
//!    JSON, byte for byte (deterministic capture nulls every wall field);
//! 2. **diagnosability**: the diagnosis engine surfaces the straggler and
//!    cache-thrash findings the run was engineered to contain, with the
//!    evidence pointing at the right plan nodes;
//!
//! plus two properties of how it is assembled: an artifact covers its own
//! run alone even on a reused context, and every section and node row it
//! shares with the report is that value's own `to_jval`.

use keystoneml::dataflow::json::{parse, JVal, Value};
use keystoneml::obs::{
    diagnose, schema_version_of, CaptureOptions, LedgerWindow, RunArtifact, RunKind, SCHEMA_VERSION,
};
use keystoneml::prelude::*;
use keystoneml::serve::LoadGen;

struct Scale(f64);
impl Transformer<Vec<f64>, Vec<f64>> for Scale {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        x.iter().map(|v| v * self.0).collect()
    }
}

struct Offset(f64);
impl Transformer<Vec<f64>, Vec<f64>> for Offset {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        x.iter().map(|v| v + self.0).collect()
    }
}

/// Re-reads its input once per pass so the cache sees repeated lookups.
struct MultiPassMean {
    passes: u32,
}
impl Estimator<Vec<f64>, Vec<f64>> for MultiPassMean {
    fn fit(
        &self,
        _data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        unreachable!("fit_lazy overridden")
    }
    fn fit_lazy(
        &self,
        data: &dyn Fn() -> DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        let mut mu = 0.0;
        for _ in 0..self.passes {
            let d = data();
            let n = d.count().max(1) as f64;
            mu = d.aggregate(0.0, |a, x| a + x[0], |a, b| a + b) / n;
        }
        Box::new(Offset(-mu))
    }
    fn weight(&self) -> u32 {
        self.passes
    }
}

/// The diagnose example's run shape, miniaturized: 6x record skew, an LRU
/// budget that fits one intermediate but not both, and seeded cache loss,
/// task failures and stragglers. Every recovery charge is seed-pure: a
/// failed attempt re-runs for real and is charged its backoff, and a
/// straggler costs wall time only.
fn skewed_faulted_fit() -> (RunArtifact, FitReport) {
    let skewed: Vec<Vec<Vec<f64>>> = vec![
        (0..50).map(|i| vec![i as f64, 1.0]).collect(),
        (0..50).map(|i| vec![i as f64, 1.0]).collect(),
        (0..50).map(|i| vec![i as f64, 1.0]).collect(),
        (0..300).map(|i| vec![i as f64, 1.0]).collect(),
    ];
    let train = DistCollection::from_partitions(skewed);
    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(Scale(2.0))
        .and_then(Offset(1.0))
        .and_then_est(MultiPassMean { passes: 6 }, &train);
    let faults = FaultSpec::new(0xD1A6)
        .with_cache_loss(0.35)
        .with_task_failures(0.2)
        .with_stragglers(0.1)
        .with_straggler_min_delay_us(200)
        .into_plan();
    let ctx = ExecContext::default_cluster().with_faults(faults);
    let opts = PipelineOptions {
        caching: CachingStrategy::Lru {
            admission_fraction: 1.0,
        },
        mem_budget: Some(24 * 1024),
        profile: ProfileOptions {
            sizes: vec![32, 64],
            seed: 11,
            select_operators: false,
            deterministic_timing: true,
        },
        ..Default::default()
    }
    .with_fusion(false);
    let (fitted, report) = pipe.fit(&ctx, &opts);
    let artifact =
        RunArtifact::capture_fit(&report, &fitted.plan(), &ctx, &CaptureOptions::default());
    (artifact, report)
}

#[test]
fn two_identical_seeded_runs_are_byte_identical() {
    let (a, _) = skewed_faulted_fit();
    let (b, _) = skewed_faulted_fit();
    let (ja, jb) = (a.to_json(), b.to_json());
    assert!(!ja.is_empty());
    assert_eq!(
        ja, jb,
        "deterministic capture must serialize identical runs to identical bytes"
    );
    assert_eq!(schema_version_of(&ja), Some(SCHEMA_VERSION));
}

#[test]
fn diagnosis_surfaces_straggler_and_cache_thrash_on_a_real_fit() {
    let (artifact, _) = skewed_faulted_fit();
    let d = diagnose(&artifact);
    let stragglers = d.rule("straggler");
    assert!(
        !stragglers.is_empty(),
        "expected the 6x-skewed stages flagged:\n{}",
        d.render_text()
    );
    for f in &stragglers {
        let row = artifact.node(f.node.expect("node-scoped")).expect("row");
        assert!(
            row.record_skew.expect("record skew") > 2.0,
            "straggler finding must point at a genuinely skewed node"
        );
    }
    assert!(
        !d.rule("cache-thrash").is_empty(),
        "expected evict-then-recompute under the starved LRU budget:\n{}",
        d.render_text()
    );
    // Evidence joins back to the artifact: every node-scoped finding names
    // a real plan node.
    for f in &d.findings {
        if let Some(n) = f.node {
            assert!(n < artifact.graph.len(), "finding points off-plan");
        }
    }
}

#[test]
fn misprediction_findings_report_the_relative_error() {
    let (artifact, _) = skewed_faulted_fit();
    let d = diagnose(&artifact);
    // The synthetic profile extrapolates from 32/64-record subsamples to
    // the full 450-record run; the deliberate skew makes at least one
    // node's predicted-vs-charged time miss by more than 15%.
    let miss = d.rule("misprediction");
    assert!(!miss.is_empty(), "{}", d.render_text());
    for f in &miss {
        let rel = f
            .evidence
            .iter()
            .find(|(k, _)| *k == "rel_error")
            .map(|(_, v)| *v)
            .expect("rel_error evidence");
        assert!(rel > 0.15, "below the reporting threshold: {rel}");
    }
}

#[test]
fn apply_capture_joins_plan_nodes_without_a_fit_report() {
    let train = DistCollection::from_vec((0..64).map(|i| vec![i as f64]).collect(), 4);
    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(Scale(3.0))
        .and_then_est(MultiPassMean { passes: 2 }, &train);
    let fit_ctx = ExecContext::default_cluster();
    let opts = PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![16, 32],
            seed: 5,
            select_operators: false,
            deterministic_timing: true,
        },
        ..Default::default()
    };
    let (fitted, _) = pipe.fit(&fit_ctx, &opts);

    let apply_ctx = ExecContext::default_cluster();
    let test = DistCollection::from_vec((0..16).map(|i| vec![i as f64]).collect(), 2);
    let window = LedgerWindow::open(&apply_ctx);
    let _ = fitted.apply(&test, &apply_ctx);
    let capture = || {
        let opts = CaptureOptions::default();
        RunArtifact::capture_apply(&fitted.plan(), window, None, &apply_ctx, &opts)
    };
    let artifact = capture();
    assert_eq!(artifact.kind, RunKind::Apply);
    assert!(artifact.sim_total_secs > 0.0, "apply charges the sim clock");
    assert!(
        artifact.report.nodes.iter().any(|n| n.execs > 0),
        "apply-path nodes executed"
    );
    // Capture is repeatable from the same context.
    assert_eq!(artifact.to_json(), capture().to_json());
}

#[test]
fn serve_capture_carries_latency_splits_and_virtual_batches() {
    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(Scale(2.0))
        .and_then(Offset(0.5));
    let fit_ctx = ExecContext::default_cluster();
    let (fitted, _) = pipe.fit(&fit_ctx, &PipelineOptions::default());
    let server = Server::new(&fitted, BatchPolicy::new(4, 1e-4).with_queue_capacity(64));
    let pool: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0]).collect();

    let run = || {
        let ctx = ExecContext::default_cluster();
        let window = LedgerWindow::open(&ctx);
        let outcome = server.run(LoadGen::new(9).requests_from_pool(64, 1e-5, &pool), &ctx);
        let serve = Some(outcome.section());
        RunArtifact::capture_apply(
            &fitted.plan(),
            window,
            serve,
            &ctx,
            &CaptureOptions::default(),
        )
    };
    let artifact = run();
    assert_eq!(artifact.kind, RunKind::Serve);
    let serve = artifact.serve.as_ref().expect("serve section");
    assert_eq!(serve.admitted, 64);
    assert!(serve.batches > 0);
    assert!(serve.p99_latency_secs >= serve.p50_latency_secs);
    assert!(
        serve.execute_secs_total > 0.0,
        "virtual execute time accumulates"
    );
    // ServeBatch events are on the virtual timeline (satellite: the trace
    // exporter lowers them onto the pid-3 serving lanes).
    assert!(artifact
        .events
        .iter()
        .any(|e| matches!(e.event, TraceEvent::ServeBatch { .. })));
    // Identical seeded load => byte-identical serve artifact.
    assert_eq!(artifact.to_json(), run().to_json());
}

/// The shared-trunk ridge sweep of `examples/multi_tenant.rs`, fitted as a
/// forest (the shared plan wins) and captured from the one fit report.
fn shared_forest_fit() -> (RunArtifact, FitReport) {
    use keystoneml::solvers::logistic::one_hot;
    use keystoneml::workloads::dense_gen::TimitLike;
    use keystoneml::workloads::sweep::{sweep_pipelines, SweepConfig};
    let train = TimitLike {
        n: 96,
        dim: 8,
        classes: 4,
        separation: 2.0,
        seed: 2611,
        stream: 0,
        partitions: 4,
        quantize: Some(64),
    }
    .generate();
    let tenants = sweep_pipelines(
        &SweepConfig::default(),
        &train.data,
        &one_hot(&train.labels, 4),
    );
    let opts = PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![8, 16],
            seed: 7,
            select_operators: false,
            deterministic_timing: true,
        },
        ..PipelineOptions::pipe_only()
    }
    .with_budget(1 << 30);
    let ctx = ExecContext::default_cluster();
    let (fitted, forest) = fit_forest(&tenants, &ctx, &opts);
    assert!(forest.shared, "fixture must take the shared forest path");
    let report = forest.fit.expect("shared path fit report");
    let artifact =
        RunArtifact::capture_fit(&report, &fitted[0].plan(), &ctx, &CaptureOptions::default());
    (artifact, report)
}

/// The artifact's `adaptation`, `tenants` and `recovery` objects, and each
/// of its node rows, are exactly the `to_jval` of the report values they
/// came from (the rows under deterministic capture).
fn assert_one_writer(artifact: &RunArtifact, report: &FitReport) {
    let doc = parse(&artifact.to_json()).expect("artifact parses");
    let jval = |v: JVal| parse(&v.render()).expect("to_jval parses");
    let obs = &report.observability;
    let tenants = JVal::Arr(obs.tenants.iter().map(TenantRow::to_jval).collect());
    for (section, value) in [
        ("adaptation", report.adaptation.to_jval()),
        ("tenants", tenants),
        ("recovery", obs.recovery.to_jval()),
    ] {
        assert_eq!(doc.get(section), Some(&jval(value)), "`{section}` drifted");
    }
    let rows = doc.get("nodes").and_then(Value::as_arr).expect("nodes");
    assert_eq!(rows.len(), obs.nodes.len());
    for (row, n) in rows.iter().zip(&obs.nodes) {
        assert_eq!(*row, jval(n.to_jval(true)), "{}", n.label);
    }
}

#[test]
fn shared_sections_have_one_writer_on_forest_and_faulted_fits() {
    let (forest, forest_report) = shared_forest_fit();
    assert!(
        !forest.report.tenants.is_empty(),
        "forest fit carries tenant rows"
    );
    assert_one_writer(&forest, &forest_report);

    let (faulted, faulted_report) = skewed_faulted_fit();
    assert!(
        faulted.report.recovery.cache_losses > 0 && faulted.report.recovery.retries > 0,
        "fixture loses cache entries and retries tasks"
    );
    assert!(
        faulted
            .report
            .nodes
            .iter()
            .any(|n| n.cache.hits + n.cache.misses > 0),
        "fixture exercises the cache"
    );
    assert_one_writer(&faulted, &faulted_report);
}

#[test]
fn a_fit_artifact_on_a_reused_context_covers_its_own_fit_only() {
    let fit_on = |ctx: &ExecContext| {
        let train = DistCollection::from_vec((0..64).map(|i| vec![i as f64]).collect(), 4);
        let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
            .and_then(Scale(3.0))
            .and_then_est(MultiPassMean { passes: 3 }, &train);
        let opts = PipelineOptions {
            profile: ProfileOptions {
                sizes: vec![16, 32],
                seed: 5,
                select_operators: false,
                deterministic_timing: true,
            },
            ..Default::default()
        };
        let (fitted, report) = pipe.fit(ctx, &opts);
        RunArtifact::capture_fit(&report, &fitted.plan(), ctx, &CaptureOptions::default()).to_json()
    };
    let fresh = fit_on(&ExecContext::default_cluster());
    let reused = ExecContext::default_cluster();
    assert_eq!(fit_on(&reused), fresh);
    assert_eq!(
        fit_on(&reused),
        fresh,
        "a second fit's artifact must not carry the first fit's events, spans or sim entries"
    );
}

#[test]
fn an_apply_artifact_on_a_reused_context_covers_its_own_apply_only() {
    let train = DistCollection::from_vec((0..64).map(|i| vec![i as f64]).collect(), 4);
    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(Scale(3.0))
        .and_then_est(MultiPassMean { passes: 2 }, &train);
    let opts = PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![16, 32],
            seed: 5,
            select_operators: false,
            deterministic_timing: true,
        },
        ..Default::default()
    };
    let test = DistCollection::from_vec((0..16).map(|i| vec![i as f64]).collect(), 2);
    let apply_on = |fitted: &FittedPipeline<Vec<f64>, Vec<f64>>, ctx: &ExecContext| {
        let window = LedgerWindow::open(ctx);
        let _ = fitted.apply(&test, ctx);
        let opts = CaptureOptions::default();
        RunArtifact::capture_apply(&fitted.plan(), window, None, ctx, &opts)
    };
    // The README quickstart's pattern: fit and apply on one context.
    let reused = ExecContext::default_cluster();
    let (fitted, _) = pipe.fit(&reused, &opts);
    let after_fit = apply_on(&fitted, &reused);
    let fresh = apply_on(&fitted, &ExecContext::default_cluster());
    let execs = |a: &RunArtifact| -> Vec<(usize, u64)> {
        a.report.nodes.iter().map(|n| (n.node, n.execs)).collect()
    };
    assert_eq!(
        execs(&after_fit),
        execs(&fresh),
        "the apply artifact must not count the fit's node executions"
    );
    assert_eq!(after_fit.sim_total_secs, fresh.sim_total_secs);
}
