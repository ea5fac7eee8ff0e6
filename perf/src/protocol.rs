//! The run protocol's phases — fit, apply, apply_one, serve, checks — as
//! functions both the untraced and the traced run call. Every layer is
//! measured from outside, by timing calls into its public functions.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use keystoneml::prelude::*;
use keystoneml::serve::LoadGen;
use keystoneml::workloads::pipelines::predictions;

use crate::speed::{Cores, Sample, Speedometer};
use crate::stats::{highest_percentile, median, percentile};
use crate::workloads::{bench_ctx, Bench, Scores};

/// Attempted and failed operations: fits, applies, `apply_one` calls, served
/// requests and checks. A caught panic, a rejected request or a failed
/// check is a failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Runs `f`, which performs `n` operations; a panic fails all of them.
    pub fn guard<R>(&mut self, n: u64, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += n;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(_) => {
                self.fail(n, format!("{what}: panicked"));
                None
            }
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(1, format!("check failed: {what}"));
        }
    }

    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        eprintln!("FAILED {why}");
        self.failures.push(why);
    }
}

/// Calls `rep` `count` times. `rep` measures its own timed section, so work
/// done between repetitions (fresh contexts, cloned request streams) stays
/// out of the sample; a failed repetition returns `None` and leaves no
/// sample.
pub fn repeat<T>(count: usize, mut rep: impl FnMut() -> Option<T>) -> Vec<T> {
    (0..count).filter_map(|_| rep()).collect()
}

/// What the optimizer decided, as counts and as a comparable string.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// See [`Plan::fingerprint_of`].
    pub fingerprint: String,
    pub cse_eliminated: usize,
    pub cache_picks: usize,
    pub fused_nodes: usize,
    pub columnar_chains: usize,
    /// `FitReport.optimize_secs`, the library's own optimizer stopwatch.
    pub optimize_secs: f64,
}

impl Plan {
    /// Operator choices + cache-set labels + fused member labels.
    pub fn fingerprint_of(
        choices: &[(String, String)],
        cache_set_labels: &[String],
        fused: &[(usize, Vec<String>)],
    ) -> String {
        let members: Vec<&Vec<String>> = fused.iter().map(|(_, m)| m).collect();
        format!("{choices:?}|{cache_set_labels:?}|{members:?}")
    }

    pub fn of(report: &FitReport) -> Plan {
        Plan {
            fingerprint: Plan::fingerprint_of(
                &report.choices,
                &report.cache_set_labels,
                &report.fused,
            ),
            cse_eliminated: report.eliminated_nodes,
            cache_picks: report.cache_set.len(),
            fused_nodes: report.fused_nodes,
            columnar_chains: report.columnar_chains,
            optimize_secs: report.optimize_secs,
        }
    }

    fn of_forest(report: &ForestReport) -> Plan {
        let mut plan = match &report.fit {
            Some(fit) => Plan::of(fit),
            None => {
                let mut all = Plan::default();
                for p in report.solo_reports.iter().map(Plan::of) {
                    all.fingerprint.push_str(&p.fingerprint);
                    all.cse_eliminated += p.cse_eliminated;
                    all.cache_picks += p.cache_picks;
                    all.fused_nodes += p.fused_nodes;
                    all.columnar_chains += p.columnar_chains;
                    all.optimize_secs += p.optimize_secs;
                }
                all
            }
        };
        plan.fingerprint = format!("shared={}|{}", report.shared, plan.fingerprint);
        plan
    }
}

/// The fitted tenants of one fit and the plan behind them.
pub struct Fitted<A: Record> {
    pub tenants: Vec<FittedPipeline<A, Scores>>,
    pub plan: Plan,
    pub forest: Option<ForestReport>,
}

/// One fit as the user calls it, optimizer included: `Pipeline::fit`, or
/// `fit_forest` over all tenants of the sweep. Only the call is timed.
pub fn fit_once<A: Record>(
    pipes: &[Pipeline<A, Scores>],
    ctx: &ExecContext,
    opts: &PipelineOptions,
    speed: &mut Speedometer,
) -> (Sample, Fitted<A>) {
    if let [pipe] = pipes {
        let ((fitted, report), sample) = speed.measure(Cores::All, || pipe.fit(ctx, opts));
        let fitted = Fitted {
            tenants: vec![fitted],
            plan: Plan::of(&report),
            forest: None,
        };
        (sample, fitted)
    } else {
        let ((tenants, report), sample) =
            speed.measure(Cores::All, || fit_forest(pipes, ctx, opts));
        let fitted = Fitted {
            tenants,
            plan: Plan::of_forest(&report),
            forest: Some(report),
        };
        (sample, fitted)
    }
}

/// The `fit` phase: timed fits, a fresh `Pipeline` graph and a fresh
/// context for each.
pub struct FitPhase<A: Record> {
    pub secs: Vec<Sample>,
    /// The plans the timed fits chose.
    pub plans: PlanCounts,
    /// The warm-up fit first — the plan the other phases run — then the
    /// first timed fits and the last one.
    pub kept: Vec<Fitted<A>>,
}

impl<A: Record> FitPhase<A> {
    /// Starts the phase with its one untimed warm-up fit.
    pub fn warm_up(
        bench: &Bench<A>,
        opts: &PipelineOptions,
        speed: &mut Speedometer,
        ops: &mut Ops,
    ) -> Option<FitPhase<A>> {
        let mut phase = FitPhase {
            secs: Vec::new(),
            plans: PlanCounts::default(),
            kept: Vec::new(),
        };
        phase.fit(bench, opts, speed, ops)?;
        Some(phase)
    }

    fn fit(
        &mut self,
        bench: &Bench<A>,
        opts: &PipelineOptions,
        speed: &mut Speedometer,
        ops: &mut Ops,
    ) -> Option<(Sample, String)> {
        let pipes = (bench.build)();
        let ctx = bench_ctx();
        let (sample, fitted) = ops.guard(1, "fit", || fit_once(&pipes, &ctx, opts, speed))?;
        let fingerprint = fitted.plan.fingerprint.clone();
        if self.kept.len() < 5 {
            self.kept.push(fitted);
        } else {
            *self.kept.last_mut().expect("non-empty") = fitted;
        }
        Some((sample, fingerprint))
    }

    pub fn run(
        &mut self,
        reps: usize,
        bench: &Bench<A>,
        opts: &PipelineOptions,
        speed: &mut Speedometer,
        ops: &mut Ops,
    ) {
        for _ in 0..reps {
            if let Some((sample, fingerprint)) = self.fit(bench, opts, speed, ops) {
                self.secs.push(sample);
                self.plans.add(&fingerprint);
            }
        }
    }

    /// The warm-up fit: every later phase scores with this plan.
    pub fn fitted(&self) -> &Fitted<A> {
        &self.kept[0]
    }
}

/// How often each plan fingerprint was chosen. Counted, not listed:
/// `chain_serve` fits 50 000 times.
#[derive(Debug, Default)]
pub struct PlanCounts(HashMap<String, usize>);

impl PlanCounts {
    pub fn add(&mut self, fingerprint: &str) {
        match self.0.get_mut(fingerprint) {
            Some(n) => *n += 1,
            None => {
                self.0.insert(fingerprint.to_string(), 1);
            }
        }
    }

    /// Repetitions whose plan differs from the most common one.
    pub fn flips(&self) -> usize {
        let total: usize = self.0.values().sum();
        total - self.0.values().max().copied().unwrap_or(0)
    }
}

pub fn bits(scores: &DistCollection<Scores>) -> Vec<Vec<u64>> {
    scores
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The `apply` phase: batch scoring of the held-out set, `apply` + `count()`
/// for every tenant, on one context.
pub struct ApplyPhase {
    ctx: ExecContext,
    pub secs: Vec<Sample>,
}

impl ApplyPhase {
    pub fn new() -> ApplyPhase {
        ApplyPhase {
            ctx: bench_ctx(),
            secs: Vec::new(),
        }
    }

    pub fn run<A: Record>(
        &mut self,
        reps: usize,
        fitted: &Fitted<A>,
        heldout: &DistCollection<A>,
        speed: &mut Speedometer,
        ops: &mut Ops,
    ) {
        let tenants = fitted.tenants.len() as u64;
        let ctx = &self.ctx;
        self.secs.extend(repeat(reps, || {
            ops.guard(tenants, "apply", || {
                let ((), sample) = speed.measure(Cores::All, || {
                    for tenant in &fitted.tenants {
                        std::hint::black_box(tenant.apply(heldout, ctx).count());
                    }
                });
                sample
            })
        }));
    }
}

/// The `apply_one` phase: a closed loop with one caller, blocks of
/// `apply_one` calls over the held-out records in order, each call timed,
/// on one context.
pub struct ApplyOnePhase {
    ctx: ExecContext,
    next: usize,
    calls: u64,
    /// Per-block median and p99 of the call latencies, microseconds.
    pub p50_us: Vec<Sample>,
    pub p99_us: Vec<Sample>,
}

impl ApplyOnePhase {
    pub fn new() -> ApplyOnePhase {
        ApplyOnePhase {
            ctx: bench_ctx(),
            next: 0,
            calls: 0,
            p50_us: Vec::new(),
            p99_us: Vec::new(),
        }
    }

    pub fn run<A: Record>(
        &mut self,
        blocks: usize,
        block: usize,
        fitted: &FittedPipeline<A, Scores>,
        heldout: &[A],
        speed: &mut Speedometer,
        ops: &mut Ops,
    ) {
        assert!(
            highest_percentile(block) >= Some(99.0),
            "a block of {block} calls leaves fewer than ten samples beyond p99"
        );
        for _ in 0..blocks {
            let (ctx, next) = (&self.ctx, &mut self.next);
            let Some(lat) = ops.guard(block as u64, "apply_one", || {
                let mut lat = Vec::with_capacity(block);
                for _ in 0..block {
                    let record = &heldout[*next % heldout.len()];
                    *next += 1;
                    // One record is one partition: the call never leaves
                    // this core.
                    lat.push(
                        speed
                            .measure(Cores::One, || fitted.apply_one(record, ctx))
                            .1,
                    );
                }
                lat
            }) else {
                continue;
            };
            self.calls += block as u64;
            let (raw_us, norm_us): (Vec<f64>, Vec<f64>) =
                lat.iter().map(|s| (s.raw * 1e6, s.norm * 1e6)).unzip();
            self.p50_us.push(Sample {
                raw: median(&raw_us),
                norm: median(&norm_us),
            });
            self.p99_us.push(Sample {
                raw: percentile(&raw_us, 99.0),
                norm: percentile(&norm_us, 99.0),
            });
        }
    }

    /// Tracer events + metric spans the phase's context holds, per call.
    pub fn ctx_events_per_call(&self) -> f64 {
        let events = self.ctx.tracer.len() + self.ctx.metrics.span_count();
        events as f64 / self.calls.max(1) as f64
    }
}

/// The seeded request stream: held-out records round-robin, arrival gaps
/// uniform around 10 virtual microseconds.
pub fn request_stream<A: Record>(seed: u64, n: usize, pool: &[A]) -> Vec<Request<A>> {
    LoadGen::new(seed).requests_from_pool(n, 1e-5, pool)
}

/// The policy `serve_rps` is measured under: 32-record waves split over two
/// partitions, a queue that never rejects.
pub fn serve_policy(requests: usize) -> BatchPolicy {
    BatchPolicy::new(32, 1e-3)
        .with_batch_partitions(2)
        .with_queue_capacity(requests)
}

/// The `serve` phase: repetitions of one `Server::run` over the whole
/// stream on one warm server and one context. Rejected requests are failed
/// operations.
pub struct ServePhase<A: Record> {
    ctx: ExecContext,
    server: Server<A, Scores>,
    /// Wall seconds of each `Server::run`.
    pub secs: Vec<Sample>,
    pub last: Option<ServeOutcome<Scores>>,
}

impl<A: Record> ServePhase<A> {
    pub fn new(fitted: &FittedPipeline<A, Scores>, policy: BatchPolicy) -> ServePhase<A> {
        ServePhase {
            ctx: bench_ctx(),
            server: Server::new(fitted, policy),
            secs: Vec::new(),
            last: None,
        }
    }

    pub fn run(
        &mut self,
        reps: usize,
        stream: &[Request<A>],
        speed: &mut Speedometer,
        ops: &mut Ops,
    ) {
        for _ in 0..reps {
            let requests = stream.to_vec();
            let (server, ctx) = (&self.server, &self.ctx);
            let Some((outcome, sample)) = ops.guard(stream.len() as u64, "serve", || {
                speed.measure(Cores::All, || server.run(requests, ctx))
            }) else {
                continue;
            };
            if !outcome.rejects.is_empty() {
                ops.fail(
                    outcome.rejects.len() as u64,
                    format!("serve: {} requests rejected", outcome.rejects.len()),
                );
            }
            self.secs.push(sample);
            self.last = Some(outcome);
        }
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        let stats = self.server.cache().stats();
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
    }
}

/// The `checks` phase: every output the run produced must equal what one
/// batch `apply` of the final plan gives, bit for bit.
pub fn checks<A: Record>(
    bench: &Bench<A>,
    opts: &PipelineOptions,
    fits: &FitPhase<A>,
    served: Option<&ServeOutcome<Scores>>,
    ops: &mut Ops,
) {
    let ctx = bench_ctx();
    let fitted = fits.fitted();
    let Some(reference) = ops.guard(fitted.tenants.len() as u64, "reference apply", || {
        fitted
            .tenants
            .iter()
            .map(|t| t.apply(&bench.heldout, &ctx))
            .collect::<Vec<_>>()
    }) else {
        return;
    };
    let reference_bits: Vec<Vec<Vec<u64>>> = reference.iter().map(bits).collect();

    if let Some(labels) = &bench.heldout_labels {
        for (t, scores) in reference.iter().enumerate() {
            let acc = accuracy(&predictions(scores), labels);
            ops.check(
                &format!(
                    "tenant {t} held-out accuracy {acc:.4} >= {}",
                    bench.min_accuracy
                ),
                acc >= bench.min_accuracy,
            );
        }
    }

    let heldout = bench.heldout.collect();
    let sample = heldout.len().min(64);
    let same = ops.guard(sample as u64, "apply_one check", || {
        (0..sample).all(|i| {
            let one = fitted.tenants[0].apply_one(&heldout[i], &ctx);
            one.iter().map(|v| v.to_bits()).collect::<Vec<_>>() == reference_bits[0][i]
        })
    });
    ops.check("apply_one bit-equal to apply", same == Some(true));

    if let Some(outcome) = served {
        ops.check("zero rejected requests", outcome.rejects.is_empty());
        let same = outcome.responses.iter().all(|r| {
            let row = &reference_bits[0][r.id as usize % heldout.len()];
            r.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>() == *row
        });
        ops.check("served outputs bit-equal to apply", same);
    }

    // Fits that chose the same plan must score the held-out set identically.
    for (i, other) in fits.kept.iter().enumerate().skip(1) {
        if other.plan.fingerprint != fitted.plan.fingerprint {
            continue;
        }
        let same = ops.guard(other.tenants.len() as u64, "repeat-fit apply", || {
            other
                .tenants
                .iter()
                .zip(&reference_bits)
                .all(|(t, want)| bits(&t.apply(&bench.heldout, &ctx)) == *want)
        });
        ops.check(
            &format!("kept fit {i} bit-identical under the same plan"),
            same == Some(true),
        );
    }

    // The forest contract: each tenant equals its solo fit.
    if fitted.tenants.len() > 1 {
        for (t, pipe) in (bench.build)().iter().enumerate() {
            let solo_ctx = bench_ctx();
            let same = ops.guard(2, "solo fit + apply", || {
                let (solo, _) = pipe.fit(&solo_ctx, opts);
                bits(&solo.apply(&bench.heldout, &solo_ctx)) == reference_bits[t]
            });
            ops.check(
                &format!("forest tenant {t} bit-identical to its solo fit"),
                same == Some(true),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_calls_exactly_count_times_and_drops_failures() {
        let mut n = 0;
        let s = repeat(5, || {
            n += 1;
            (n % 2 == 1).then_some(n as f64)
        });
        assert_eq!((n, s), (5, vec![1.0, 3.0, 5.0]));
    }

    #[test]
    fn plan_flips_counts_departures_from_the_mode() {
        let mut plans = PlanCounts::default();
        assert_eq!(plans.flips(), 0);
        for f in ["a", "b", "a", "a", "c"] {
            plans.add(f);
        }
        assert_eq!(plans.flips(), 2);
    }

    #[test]
    fn a_panic_fails_every_operation_it_covered() {
        let mut ops = Ops::default();
        assert_eq!(ops.guard(3, "ok", || 1), Some(1));
        let r: Option<()> = ops.guard(4, "boom", || panic!("boom"));
        assert!(r.is_none());
        ops.check("fine", true);
        ops.check("broken", false);
        assert_eq!((ops.attempted, ops.failed), (9, 5));
    }
}
