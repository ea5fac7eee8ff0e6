//! End-to-end serving tests: equivalence with batch apply, behavior under
//! injected faults, bit-identical latency accounting across runs, and
//! cross-request cache reuse.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use keystone_core::context::ExecContext;
use keystone_core::graph::{Graph, NodeKind};
use keystone_core::operator::{AnyData, Estimator, Transformer, TypedEstimator, TypedTransformer};
use keystone_core::optimizer::PipelineOptions;
use keystone_core::pipeline::{ExecutablePlan, FittedPipeline, Pipeline};
use keystone_core::profiler::ProfileOptions;
use keystone_core::trace::TraceEvent;
use keystone_dataflow::cluster::ClusterProfile;
use keystone_dataflow::collection::DistCollection;
use keystone_dataflow::faults::FaultSpec;
use keystone_serve::{BatchPolicy, LoadGen, Request, Server};

struct Inc;
impl Transformer<f64, f64> for Inc {
    fn apply(&self, x: &f64) -> f64 {
        x + 1.0
    }
}

struct Scale;
impl Transformer<f64, f64> for Scale {
    fn apply(&self, x: &f64) -> f64 {
        x * 3.0
    }
}

/// Subtracts the training mean (fit on the train branch, applied per
/// record — the canonical record-wise estimator).
struct MeanCenter;
impl Estimator<f64, f64> for MeanCenter {
    fn fit(
        &self,
        data: &DistCollection<f64>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<f64, f64>> {
        let n = data.count().max(1) as f64;
        let mu = data.aggregate(0.0, |a, x| a + x, |a, b| a + b) / n;
        struct Shift(f64);
        impl Transformer<f64, f64> for Shift {
            fn apply(&self, x: &f64) -> f64 {
                x - self.0
            }
        }
        Box::new(Shift(mu))
    }
}

fn ctx() -> ExecContext {
    ExecContext::new(ClusterProfile::R3_4xlarge.descriptor(4))
}

fn profile_opts() -> ProfileOptions {
    ProfileOptions {
        sizes: vec![4, 8],
        seed: 1,
        select_operators: true,
        deterministic_timing: true,
    }
}

fn fitted_pipeline(ctx: &ExecContext) -> FittedPipeline<f64, f64> {
    let train = DistCollection::from_vec((0..32).map(|i| i as f64).collect::<Vec<_>>(), 4);
    let pipe = Pipeline::<f64, f64>::input()
        .and_then(Inc)
        .and_then(Scale)
        .and_then_est(MeanCenter, &train);
    let (fitted, _) = pipe.fit(
        ctx,
        &PipelineOptions {
            profile: profile_opts(),
            ..Default::default()
        },
    );
    fitted
}

fn one_at_a_time(records: &[f64]) -> Vec<Request<f64>> {
    records
        .iter()
        .enumerate()
        .map(|(i, &record)| Request {
            id: i as u64,
            arrival_secs: i as f64 * 1e-4,
            record,
        })
        .collect()
}

#[test]
fn serving_matches_batch_apply_bitwise() {
    let fit_ctx = ctx();
    let fitted = fitted_pipeline(&fit_ctx);
    let held_out: Vec<f64> = (0..17).map(|i| 0.25 * i as f64 - 2.0).collect();
    let batch_ctx = ctx();
    let baseline: Vec<u64> = fitted
        .apply(&DistCollection::from_vec(held_out.clone(), 2), &batch_ctx)
        .collect()
        .into_iter()
        .map(f64::to_bits)
        .collect();

    for (max_batch, linger) in [(1usize, 0.0), (4, 2e-4), (8, 1e-3)] {
        let serve_ctx = ctx();
        let server = Server::new(&fitted, BatchPolicy::new(max_batch, linger));
        let outcome = server.run(one_at_a_time(&held_out), &serve_ctx);
        assert!(outcome.rejects.is_empty());
        let served: Vec<u64> = outcome
            .responses
            .iter()
            .map(|r| r.output.to_bits())
            .collect();
        assert_eq!(
            served, baseline,
            "serve (batch={max_batch}, linger={linger}) diverged from batch apply"
        );
    }
}

#[test]
fn serving_under_injected_faults_answers_every_request_identically() {
    let fit_ctx = ctx();
    let fitted = fitted_pipeline(&fit_ctx);
    let held_out: Vec<f64> = (0..13).map(|i| 0.5 * i as f64).collect();

    let calm_ctx = ctx();
    let calm =
        Server::new(&fitted, BatchPolicy::new(4, 1e-4)).run(one_at_a_time(&held_out), &calm_ctx);

    // The same serving schedule with an aggressive fault plan active: the
    // apply path runs memoized (fault-free by design), so every request is
    // answered, bit-identically, with zero recovery events.
    let faulty_ctx = ctx().with_faults(
        FaultSpec::new(0xFA17)
            .with_task_failures(0.25)
            .with_stragglers(0.2)
            .with_cache_loss(0.3)
            .with_straggler_min_delay_us(200)
            .into_plan(),
    );
    let faulty =
        Server::new(&fitted, BatchPolicy::new(4, 1e-4)).run(one_at_a_time(&held_out), &faulty_ctx);

    assert_eq!(faulty.responses.len(), held_out.len());
    assert!(faulty.rejects.is_empty());
    let a: Vec<u64> = calm.responses.iter().map(|r| r.output.to_bits()).collect();
    let b: Vec<u64> = faulty
        .responses
        .iter()
        .map(|r| r.output.to_bits())
        .collect();
    assert_eq!(a, b, "fault plan changed served predictions");
    assert_eq!(
        faulty_ctx.tracer.recovery_stats(),
        Default::default(),
        "serving waves must be fault-free"
    );
}

#[test]
fn latency_accounting_is_bit_identical_across_runs() {
    let run = || {
        let fit_ctx = ctx();
        let fitted = fitted_pipeline(&fit_ctx);
        let serve_ctx = ctx().with_faults(FaultSpec::new(9).with_task_failures(0.5).into_plan());
        let pool: Vec<f64> = (0..8).map(|i| i as f64 * 0.125).collect();
        let requests = LoadGen::new(21).requests_from_pool(96, 5e-4, &pool);
        let server = Server::new(&fitted, BatchPolicy::new(8, 1e-3).with_queue_capacity(16));
        let outcome = server.run(requests, &serve_ctx);
        let timings: Vec<(u64, u64, u64, u64, u64)> = outcome
            .responses
            .iter()
            .map(|r| {
                (
                    r.timing.id,
                    r.timing.queue_secs.to_bits(),
                    r.timing.batch_secs.to_bits(),
                    r.timing.execute_secs.to_bits(),
                    r.timing.arrival_secs.to_bits(),
                )
            })
            .collect();
        // The whole ledger: the executor prices unprofiled apply-path nodes
        // synthetically, so every stage, not only the server's, is a pure
        // function of the plan and the schedule.
        let sim: Vec<(String, u64)> = serve_ctx
            .sim
            .by_stage()
            .into_iter()
            .map(|(stage, secs)| (stage, secs.to_bits()))
            .collect();
        assert!(!sim.is_empty());
        (
            timings,
            serve_ctx.tracer.recovery_stats(),
            sim,
            outcome.makespan_secs.to_bits(),
            outcome.rejects.len(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "two identical load-generator runs must produce identical accounting"
    );
}

#[test]
fn serve_metrics_and_trace_events_surface() {
    let fit_ctx = ctx();
    let fitted = fitted_pipeline(&fit_ctx);
    let held_out: Vec<f64> = (0..12).map(|i| i as f64).collect();
    let serve_ctx = ctx();
    let server = Server::new(&fitted, BatchPolicy::new(4, 1e-4));
    let outcome = server.run(one_at_a_time(&held_out), &serve_ctx);

    assert_eq!(outcome.responses.len(), 12);
    assert!(outcome.rejects.is_empty());
    assert_eq!(outcome.batches.iter().map(|b| b.size).sum::<usize>(), 12);
    assert!(outcome.latency_percentile(99.0) >= outcome.latency_percentile(50.0));

    let batch_events: Vec<(u64, usize)> = serve_ctx
        .tracer
        .events()
        .into_iter()
        .filter_map(|e| match e.event {
            TraceEvent::ServeBatch { batch, size, .. } => Some((batch, size)),
            _ => None,
        })
        .collect();
    assert_eq!(batch_events.len(), outcome.batches.len());
    assert_eq!(batch_events.iter().map(|&(_, s)| s).sum::<usize>(), 12);
    assert!(batch_events.windows(2).all(|w| w[0].0 < w[1].0));

    // Each wave is charged once: its nodes charge the executor's
    // `transform:`/`apply:` stages, which is its `execute_secs`, and the
    // server adds only the linger.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1e-12);
    let entries = serve_ctx.sim.entries();
    assert!(entries.iter().all(|e| e.stage != "serve:execute"));
    let stage_secs = |prefixes: &[&str]| -> f64 {
        entries
            .iter()
            .filter(|e| prefixes.iter().any(|p| e.stage.starts_with(p)))
            .map(|e| e.exec_secs + e.coord_secs)
            .sum()
    };
    let executed: f64 = outcome.batches.iter().map(|b| b.execute_secs).sum();
    let lingered: f64 = outcome.batches.iter().map(|b| b.linger_secs).sum();
    let nodes = stage_secs(&["transform:", "apply:"]);
    assert!(executed > 0.0);
    assert!(
        close(executed, nodes),
        "Σ execute_secs {executed} vs nodes {nodes}"
    );
    let serve = stage_secs(&["serve:"]);
    assert!(
        close(serve, lingered),
        "serve {serve} vs Σ linger {lingered}"
    );
}

#[test]
fn bounded_queue_rejections_are_traced() {
    let fit_ctx = ctx();
    let fitted = fitted_pipeline(&fit_ctx);
    // Batch 1, capacity 1, all requests arriving while the executor grinds:
    // most requests must be rejected, observably.
    let records: Vec<f64> = (0..10).map(|i| i as f64).collect();
    let requests: Vec<Request<f64>> = records
        .iter()
        .enumerate()
        .map(|(i, &record)| Request {
            id: i as u64,
            arrival_secs: 1e-9 * i as f64,
            record,
        })
        .collect();
    let serve_ctx = ctx();
    let server = Server::new(&fitted, BatchPolicy::new(1, 0.0).with_queue_capacity(1));
    let outcome = server.run(requests, &serve_ctx);
    assert!(
        !outcome.rejects.is_empty(),
        "expected queue-full rejections"
    );
    assert_eq!(outcome.responses.len() + outcome.rejects.len(), 10);
    let reject_events = serve_ctx
        .tracer
        .events()
        .into_iter()
        .filter(|e| matches!(e.event, TraceEvent::ServeReject { .. }))
        .count();
    assert_eq!(reject_events, outcome.rejects.len());
    assert!(outcome.max_queue_depth <= 1);
}

/// Counts collection-level passes, like the executor tests' idiom.
struct CountingDouble(Arc<AtomicU64>);
impl Transformer<f64, f64> for CountingDouble {
    fn apply(&self, x: &f64) -> f64 {
        x * 2.0
    }
    fn apply_collection(
        &self,
        input: &DistCollection<f64>,
        _ctx: &ExecContext,
    ) -> DistCollection<f64> {
        self.0.fetch_add(1, Ordering::SeqCst);
        input.map(|x| x * 2.0)
    }
}

#[test]
fn request_independent_work_is_computed_once_across_waves() {
    // Hand-built plan: a train-side branch (source → counted transform →
    // estimator) feeding a ModelApply over the runtime input, with no
    // preloaded models. The estimator is then a request-independent value
    // the apply path reads: the first wave fits it, once, and the plan's
    // cross-request cache must serve it to waves 2..n.
    let calls = Arc::new(AtomicU64::new(0));
    let mut g = Graph::new();
    let input = g.add(NodeKind::RuntimeInput, vec![], "input");
    let train = DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2);
    let src = g.add(
        NodeKind::DataSource(AnyData::wrap(train)),
        vec![],
        "train-data",
    );
    let counted = g.add(
        NodeKind::Transform(Arc::new(TypedTransformer::new(CountingDouble(
            calls.clone(),
        )))),
        vec![src],
        "double",
    );
    let est = g.add(
        NodeKind::Estimate(Arc::new(TypedEstimator::new(MeanCenter))),
        vec![counted],
        "mean",
    );
    let apply = g.add(NodeKind::ModelApply, vec![est, input], "meanModel");
    let plan = Arc::new(ExecutablePlan::new(
        Arc::new(g),
        apply,
        HashMap::new(),
        Arc::new(HashMap::new()),
    ));
    let serve_ctx = ctx();
    let server = Server::<f64, f64>::from_plan(plan.clone(), BatchPolicy::new(1, 0.0));
    let records = [10.0f64, 20.0, 30.0];
    let outcome = server.run(one_at_a_time(&records), &serve_ctx);

    // mean(double([1,2,3])) = 4: every record is shifted by -4.
    let outputs: Vec<f64> = outcome.responses.iter().map(|r| r.output).collect();
    assert_eq!(outputs, vec![6.0, 16.0, 26.0]);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "request-independent transform recomputed across waves"
    );
    let fits = |c: &ExecContext| c.tracer.node_actuals().get(&est).map_or(0, |a| a.execs);
    assert_eq!(fits(&serve_ctx), 1, "the estimator was refit across waves");
    let stats = server.cache().stats();
    assert_eq!(stats.hits, 2, "waves 2 and 3 must hit the shared cache");
    assert_eq!(
        server.cache().resident_keys(),
        vec![est as u64],
        "only the constant the path reads is kept, never an apply-path node"
    );

    // A batch apply of the same plan shares that cache: the estimator the
    // waves fitted is not fitted again.
    let apply_ctx = ctx();
    let applied = FittedPipeline::<f64, f64>::from_plan(plan)
        .apply(&DistCollection::from_vec(vec![40.0], 1), &apply_ctx);
    assert_eq!(applied.collect(), vec![36.0]);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "apply recomputed what the server's waves cached"
    );
    assert_eq!(
        fits(&apply_ctx),
        0,
        "apply refit what the server's waves cached"
    );
    assert_eq!(server.cache().stats().hits, 3);
}

/// A node two apply-path consumers share runs once per call: once per
/// `apply`, once per `apply_one` and once per serving wave. `CountingDouble`
/// has two consumers, so fusion leaves it a node of its own.
#[test]
fn a_shared_apply_path_node_runs_once_per_call() {
    struct Lift(f64);
    impl Transformer<f64, Vec<f64>> for Lift {
        fn apply(&self, x: &f64) -> Vec<f64> {
            vec![x + self.0]
        }
    }
    let calls = Arc::new(AtomicU64::new(0));
    let shared = Pipeline::<f64, f64>::input().and_then(CountingDouble(calls.clone()));
    let pipe = keystone_core::gather(&[shared.and_then(Lift(1.0)), shared.and_then(Lift(2.0))]);
    let opts = PipelineOptions {
        profile: profile_opts(),
        ..PipelineOptions::full()
    };
    let (fitted, _) = pipe.fit(&ctx(), &opts);
    let runs = || calls.swap(0, Ordering::SeqCst);
    runs();

    let out = fitted.apply(&DistCollection::from_vec(vec![1.0, 2.0, 3.0], 2), &ctx());
    assert_eq!(out.collect()[2], vec![7.0, 8.0]);
    assert_eq!(runs(), 1, "apply");

    let one_ctx = ctx();
    assert_eq!(fitted.apply_one(&5.0, &one_ctx), vec![11.0, 12.0]);
    assert_eq!(runs(), 1, "apply_one");
    // One `NodeEnd` per node on the apply path, and no other.
    let mut ops: Vec<usize> = fitted.plan().apply_path().to_vec();
    let mut ended: Vec<usize> = one_ctx
        .tracer
        .events()
        .into_iter()
        .filter_map(|e| match e.event {
            TraceEvent::NodeEnd { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    ops.sort_unstable();
    ended.sort_unstable();
    assert!(ops.len() >= 2, "CountingDouble was fused: {ops:?}");
    assert_eq!(ended, ops);

    let server = Server::new(&fitted, BatchPolicy::new(4, 1e-3));
    let records: Vec<f64> = (0..10).map(f64::from).collect();
    let outcome = server.run(one_at_a_time(&records), &ctx());
    assert_eq!(outcome.responses.len(), records.len());
    assert!(outcome.batches.len() > 1, "{} waves", outcome.batches.len());
    assert_eq!(runs(), outcome.batches.len() as u64, "serving waves");
}
