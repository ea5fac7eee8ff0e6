//! The serving front-end: micro-batcher × executable plan.
//!
//! A [`Server`] owns a fitted pipeline's [`ExecutablePlan`] and a
//! [`BatchPolicy`]. Each dispatched batch runs as a single apply wave
//! through `ExecutablePlan::execute_erased` — the one code path
//! `FittedPipeline::apply` uses too, one walk of the plan's lowered program
//! — so a request's score cannot depend on how it was batched. A hand-built
//! plan's request-independent values are computed once, into the plan's
//! own cache, shared with every other apply of the plan.
//!
//! Accounting is split between the two clocks, and each wave is charged
//! once. On the *simulated* clock the executor charges the wave's nodes as
//! they run (deterministic synthetic or profiled prices); the wave's
//! `execute_secs` is what the wave's walk charged on the serving thread
//! (`SimClock::tally`), so an apply running on the same context from
//! another thread never moves it, and the server itself adds only the
//! batch linger, under `serve:linger`. Wall time is measured only for the
//! sustained-QPS figure. Per-request latency splits, admission and batch
//! counts live in the returned [`ServeOutcome`]; each wave and each reject
//! is also recorded once as a `ServeBatch`/`ServeReject` event on the
//! context's `Tracer`.
//!
//! Each wave runs `quiet` (`keystone_dataflow::ledger`): unless a window is
//! open on the context, the wave's node rows, clock entries and
//! `ServeBatch` event only add to the ledgers' totals and are not stored,
//! so a long-lived server's context stays bounded. Open a `LedgerWindow`
//! around a run to keep its rows.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use keystone_core::context::ExecContext;
use keystone_core::operator::AnyData;
use keystone_core::pipeline::{ExecutablePlan, FittedPipeline};
use keystone_core::record::Record;
use keystone_core::report::ServeSection;
use keystone_core::trace::TraceEvent;
use keystone_dataflow::cache::CacheManager;
use keystone_dataflow::collection::DistCollection;
use keystone_dataflow::ledger::quiet;

use crate::batcher::{Arrival, MicroBatcher, Rejection, RequestTiming};
use crate::loadgen::percentile;
use crate::policy::BatchPolicy;

/// One single-record apply call entering the front-end.
#[derive(Debug, Clone)]
pub struct Request<A> {
    /// Caller-assigned id, unique per run.
    pub id: u64,
    /// Virtual arrival instant, seconds.
    pub arrival_secs: f64,
    /// The record to score.
    pub record: A,
}

/// A served request: its output plus the latency split.
#[derive(Debug, Clone)]
pub struct Response<B> {
    /// The request id.
    pub id: u64,
    /// The pipeline's output for the request's record.
    pub output: B,
    /// Queue/batch/execute breakdown on the virtual clock.
    pub timing: RequestTiming,
}

/// Payload-free record of one dispatched wave.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    /// Dispatch sequence number.
    pub index: u64,
    /// Requests in the wave.
    pub size: usize,
    /// When the batch opened, virtual seconds.
    pub open_secs: f64,
    /// When it dispatched, virtual seconds.
    pub dispatch_secs: f64,
    /// Formation-window length (`dispatch - open`).
    pub linger_secs: f64,
    /// Simulated seconds the executor charged while running the wave.
    pub execute_secs: f64,
}

/// The complete result of one serving run.
#[derive(Debug, Clone)]
pub struct ServeOutcome<B> {
    /// Served requests, sorted by id.
    pub responses: Vec<Response<B>>,
    /// Rejected requests, sorted by id.
    pub rejects: Vec<Rejection>,
    /// Dispatched waves in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Largest queue depth observed.
    pub max_queue_depth: usize,
    /// When the last wave finished, virtual seconds.
    pub makespan_secs: f64,
    /// Measured wall seconds for the whole run (QPS only — every other
    /// number in this struct is virtual and deterministic).
    pub wall_secs: f64,
}

impl<B> ServeOutcome<B> {
    /// Sustained wall-clock throughput: responses per measured second.
    pub fn qps(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.responses.len() as f64 / self.wall_secs
    }

    /// Nearest-rank percentile of total virtual latency (`p` in 0..=100).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let totals: Vec<f64> = self
            .responses
            .iter()
            .map(|r| r.timing.total_secs())
            .collect();
        percentile(&totals, p)
    }

    /// The outputs in id order.
    pub fn outputs(&self) -> Vec<&B> {
        self.responses.iter().map(|r| &r.output).collect()
    }

    /// The run artifact's latency section: this outcome, payloads dropped.
    pub fn section(&self) -> ServeSection {
        let total = |part: fn(&Response<B>) -> f64| self.responses.iter().map(part).sum();
        ServeSection {
            admitted: self.responses.len() as u64,
            rejected: self.rejects.len() as u64,
            batches: self.batches.len() as u64,
            max_queue_depth: self.max_queue_depth as u64,
            makespan_secs: self.makespan_secs,
            queue_secs_total: total(|r| r.timing.queue_secs),
            linger_secs_total: total(|r| r.timing.batch_secs),
            execute_secs_total: total(|r| r.timing.execute_secs),
            p50_latency_secs: self.latency_percentile(50.0),
            p99_latency_secs: self.latency_percentile(99.0),
        }
    }
}

/// Micro-batched request front-end over one fitted pipeline.
pub struct Server<A: Record, B: Record> {
    plan: Arc<ExecutablePlan>,
    policy: BatchPolicy,
    _ph: PhantomData<fn(&A) -> B>,
}

impl<A: Record, B: Record> Server<A, B> {
    /// A server over a fitted pipeline.
    pub fn new(fitted: &FittedPipeline<A, B>, policy: BatchPolicy) -> Self {
        Self::from_plan(fitted.plan(), policy)
    }

    /// A server over a raw plan (serving/test harnesses that assemble the
    /// optimized graph directly).
    pub fn from_plan(plan: Arc<ExecutablePlan>, policy: BatchPolicy) -> Self {
        Server {
            plan,
            policy,
            _ph: PhantomData,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// The executable plan waves run through (artifact capture joins
    /// serve telemetry back to this plan's node ids).
    pub fn plan(&self) -> &Arc<ExecutablePlan> {
        &self.plan
    }

    /// The plan's cache, which every wave shares; it stays empty for a
    /// fitted pipeline (see [`ExecutablePlan::cache`]).
    pub fn cache(&self) -> &CacheManager {
        self.plan.cache()
    }

    /// Runs the batcher over `requests`, scoring each dispatched wave as
    /// one walk of the plan's program and charging it what its nodes charged
    /// the simulated clock. Only a hand-built plan's request-independent
    /// values outlive a wave, in the plan's cache.
    ///
    /// # Panics
    /// Panics if a wave's output count differs from its input count — the
    /// serving layer requires a record-wise pipeline (every apply produces
    /// exactly one output per input record).
    pub fn run(&self, requests: Vec<Request<A>>, ctx: &ExecContext) -> ServeOutcome<B> {
        let start = Instant::now();
        let arrivals: Vec<Arrival<A>> = requests
            .into_iter()
            .map(|r| Arrival {
                id: r.id,
                at_secs: r.arrival_secs,
                payload: r.record,
            })
            .collect();

        let mut scored: Vec<(u64, B)> = Vec::new();
        let batcher = MicroBatcher::new(self.policy.clone());
        let schedule = batcher.run(arrivals, |batch| {
            quiet(|| {
                let records: Vec<A> = batch.members.iter().map(|m| m.payload.clone()).collect();
                let n = records.len();
                let partitions = self.policy.batch_partitions.min(n).max(1);
                let wave = DistCollection::from_vec(records, partitions);
                // The executor's deterministic charges for this wave; wall time
                // stays out of the accounting so two same-seed runs split
                // bit-identically.
                let (out, execute) = ctx
                    .sim
                    .tally(|| self.plan.execute_erased(AnyData::wrap(wave), ctx));
                let execute_secs = execute.secs;
                let out: DistCollection<B> = out.downcast();
                let outputs = out.collect();
                assert_eq!(
                    outputs.len(),
                    n,
                    "serving requires a record-wise pipeline ({n} records in, {} out)",
                    outputs.len()
                );
                for (m, o) in batch.members.iter().zip(outputs) {
                    scored.push((m.id, o));
                }
                ctx.sim
                    .charge_seconds("serve:linger", batch.linger_secs, 0.0);
                ctx.tracer.record(TraceEvent::ServeBatch {
                    batch: batch.index,
                    size: n,
                    dispatch_secs: batch.dispatch_secs,
                    linger_secs: batch.linger_secs,
                    execute_secs,
                });
                execute_secs
            })
        });

        for r in &schedule.rejects {
            ctx.tracer.record(TraceEvent::ServeReject {
                request: r.id,
                at_secs: r.at_secs,
                queue_depth: r.queue_depth,
            });
        }

        let mut timings: Vec<RequestTiming> = schedule.timings;
        timings.sort_by_key(|t| t.id);
        scored.sort_by_key(|(id, _)| *id);
        debug_assert_eq!(scored.len(), timings.len());
        let responses: Vec<Response<B>> = scored
            .into_iter()
            .zip(timings)
            .map(|((id, output), timing)| {
                debug_assert_eq!(id, timing.id);
                Response { id, output, timing }
            })
            .collect();
        let mut rejects = schedule.rejects;
        rejects.sort_by_key(|r| r.id);
        let batches: Vec<BatchRecord> = schedule
            .batches
            .iter()
            .map(|b| BatchRecord {
                index: b.index,
                size: b.members.len(),
                open_secs: b.open_secs,
                dispatch_secs: b.dispatch_secs,
                linger_secs: b.linger_secs,
                execute_secs: b.execute_secs,
            })
            .collect();

        ServeOutcome {
            responses,
            rejects,
            batches,
            max_queue_depth: schedule.max_queue_depth,
            makespan_secs: schedule.makespan_secs,
            wall_secs: start.elapsed().as_secs_f64(),
        }
    }
}
