//! End-to-end fault injection and recovery: a pipeline fit under a seeded
//! [`FaultPlan`] — partition task failures, straggler delays, and cache-entry
//! loss all enabled — must (a) produce results identical to the fault-free
//! fit under the same data seed, (b) never panic on a missing cache entry
//! (the lineage-recompute path), and (c) report nonzero retry/recovery
//! statistics in the [`PipelineReport`] that match the trace-sink event
//! counts.

use keystoneml::prelude::*;

/// Busy-waits per record so every partition does measurable work.
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

/// An iterative estimator that re-reads its input once per pass through the
/// lazy handle, so fit-time cache hits (and injected cache losses) happen.
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
        struct Shift(f64);
        impl Transformer<Vec<f64>, Vec<f64>> for Shift {
            fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
                x.iter().map(|v| v - self.0).collect()
            }
        }
        Box::new(Shift(mu))
    }
    fn weight(&self) -> u32 {
        self.passes
    }
}

fn train_data() -> DistCollection<Vec<f64>> {
    DistCollection::from_vec((0..768).map(|i| vec![i as f64, 1.0]).collect(), 4)
}

fn pipeline(train: &DistCollection<Vec<f64>>) -> Pipeline<Vec<f64>, Vec<f64>> {
    Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(BusyWork(20))
        .and_then_est(MultiPassMean { passes: 6 }, train)
}

fn options() -> PipelineOptions {
    // LRU caching with a fixed budget keeps cache traffic (and therefore
    // the deterministic cache-loss probe sequence) independent of measured
    // wall times; operator selection is off for the same reason.
    PipelineOptions {
        caching: CachingStrategy::Lru {
            admission_fraction: 1.0,
        },
        mem_budget: Some(1 << 30),
        profile: ProfileOptions {
            sizes: vec![64, 128],
            seed: 7,
            select_operators: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn fit_and_apply(ctx: &ExecContext) -> (Vec<Vec<f64>>, FitReport) {
    let train = train_data();
    let (fitted, report) = pipeline(&train).fit(ctx, &options());
    let test = DistCollection::from_vec((0..32).map(|i| vec![i as f64, 2.0]).collect(), 4);
    (fitted.apply(&test, ctx).collect(), report)
}

#[test]
fn faulted_fit_recovers_and_accounts_for_it() {
    // Fault-free baseline.
    let clean_ctx = ExecContext::default_cluster();
    let (clean_out, _clean_report) = fit_and_apply(&clean_ctx);

    // All three fault classes at aggressive rates.
    let plan = FaultSpec::new(0xC0FFEE)
        .with_task_failures(0.5)
        .with_stragglers(0.5)
        .with_cache_loss(0.6)
        .into_plan();
    let ctx = ExecContext::default_cluster().with_faults(plan);
    let (faulted_out, report) = fit_and_apply(&ctx);

    // (a) Identical results under the same data seed: faults perturb the
    // schedule and the accounting, never the data.
    assert_eq!(clean_out, faulted_out, "faults changed pipeline results");

    // (b) is implicit: cache losses at 50% forced lineage recomputes and
    // nothing panicked.
    let obs = &report.observability;
    assert!(
        obs.recovery.retries > 0,
        "no retries despite 50% task failure rate"
    );
    assert!(
        obs.recovery.cache_losses > 0,
        "no cache losses at 50% loss rate"
    );
    assert!(obs.recovery.recovery_secs > 0.0);

    // (c) The report's totals match the raw trace-event counts...
    let mut retry_events = 0u64;
    let mut loss_events = 0u64;
    for e in ctx.tracer.events() {
        match e.event {
            TraceEvent::TaskRetry { .. } => retry_events += 1,
            TraceEvent::CacheLost { .. } => loss_events += 1,
            _ => {}
        }
    }
    assert_eq!(obs.recovery.retries, retry_events);
    assert_eq!(obs.recovery.cache_losses, loss_events);

    // ...and the tracer's own fold over the whole ledger (the apply after
    // the fit runs fault-free, so it adds no recovery events).
    let totals = ctx.tracer.recovery_stats();
    assert_eq!(totals.retries, retry_events);
    assert_eq!(totals.cache_losses, loss_events);

    // Per-node rows sum to the totals.
    assert_eq!(
        obs.nodes.iter().map(|n| n.recovery.retries).sum::<u64>(),
        retry_events
    );

    // Recovery work is charged to the simulated clock under a dedicated
    // stage, and spans record their absorbed retries.
    let entries = ctx.sim.entries();
    assert!(
        entries.iter().any(|e| e.stage.starts_with("recovery:")),
        "no recovery stage on the simulated clock"
    );
    let spans = ctx.metrics.spans();
    assert_eq!(
        spans.iter().map(|s| u64::from(s.retries)).sum::<u64>(),
        retry_events
    );

    // The renderers surface the recovery columns.
    let table = obs.render_table();
    assert!(table.contains("retry"));
    assert!(table.contains("rec(s)"));
    let json = obs.to_json();
    assert!(json.contains("\"retries\":"));
    assert!(json.contains("\"recovery_secs\":"));
}

#[test]
fn same_fault_seed_reproduces_the_same_schedule() {
    let run = || {
        let plan = FaultSpec::new(42)
            .with_task_failures(0.5)
            .with_cache_loss(0.5)
            .into_plan();
        let ctx = ExecContext::default_cluster().with_faults(plan);
        let (out, report) = fit_and_apply(&ctx);
        let obs = report.observability;
        (out, obs.recovery.retries, obs.recovery.cache_losses)
    };
    let (out1, retries1, losses1) = run();
    let (out2, retries2, losses2) = run();
    assert_eq!(out1, out2);
    assert_eq!(retries1, retries2, "retry schedule not reproducible");
    assert_eq!(losses1, losses2, "cache-loss schedule not reproducible");
    assert!(retries1 > 0 && losses1 > 0);
}
