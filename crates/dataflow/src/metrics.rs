//! Partition-level metrics: task spans and skew analysis.
//!
//! The node-level tracer (in `keystone-core`) sees a pipeline as a sequence
//! of operator executions, but the paper's cost model is a claim about
//! *partition-parallel* execution: `ResourceDesc` prices a node's work as
//! "slowest worker + coordination" (§4.1), so a skewed partition — one
//! straggling worker lane — is exactly what breaks a prediction without
//! showing up in node-granularity wall time. This module observes below the
//! node level:
//!
//! * [`TaskSpan`] — one partition's work inside one stage: wall-clock start
//!   and end (microseconds on a shared epoch), the partition index, the
//!   worker lane that actually executed it (the pool thread's index,
//!   falling back to `partition % workers` when no pool is active), and
//!   item/byte throughput.
//! * [`MetricsRegistry`] — a cheaply-cloneable span ledger. Every other run
//!   fact (retry events, cache traffic, serving admissions) is a trace event
//!   in `keystone-core` or a field of the serving outcome, recorded once
//!   there.
//! * [`TaskScope`] — an ambient, thread-local attribution scope. The
//!   executor pushes a scope around each node's work; every instrumented
//!   [`DistCollection`](crate::collection::DistCollection) operation invoked
//!   under it emits one `TaskSpan` per partition into the scope's registry,
//!   and the scope itself lists the partitions that retried.
//! * [`StageSkew`] — per-stage max/median/p99 partition time, a straggler
//!   flag (`max > 2 × median`), and worker-lane utilization (busy wall time
//!   ÷ lane span).
//!
//! The Chrome trace-event export of these spans lives in
//! `keystone_core::export`, beside the tracer events it renders with them.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::faults::FaultPlan;
use crate::json::JVal;
use crate::ledger::{Ledger, Totals};

/// One partition's work inside one stage: the physical-task record the
/// node-level trace decomposes into.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpan {
    /// Stage label (the executor uses its node label, e.g. `transform:NGrams`),
    /// shared with the scope that recorded the span.
    pub stage: Arc<str>,
    /// Collection operation that did the work (`map`, `aggregate`, ...).
    pub op: &'static str,
    /// Sequence number of the collection operation within its scope — one
    /// per parallel wave, so recovery logic can compare partitions of the
    /// same wave rather than lifetime totals.
    pub op_seq: u64,
    /// Opaque stage identity set by the scope owner (the executor stores the
    /// graph node id) — lets reports join spans back to nodes even when
    /// labels collide.
    pub stage_id: Option<u64>,
    /// Partition index within the collection.
    pub partition: usize,
    /// Worker lane that ran the task: the pool thread's index within its
    /// parallel region, or `partition % workers` when none is available.
    pub worker: usize,
    /// Wall-clock start, microseconds since the registry epoch.
    pub start_us: u64,
    /// Wall-clock end, microseconds since the registry epoch.
    pub end_us: u64,
    /// Items read from the partition.
    pub items_in: u64,
    /// Items produced (1 for per-partition aggregations).
    pub items_out: u64,
    /// Bytes read, estimated shallowly as `items_in × size_of::<T>()`.
    pub bytes: u64,
    /// Failed attempts (a panic, or one the fault plan injected) that were
    /// re-run before one succeeded; 0 on healthy runs.
    pub retries: u32,
}

impl TaskSpan {
    /// Wall-clock duration in seconds (non-negative by construction).
    pub fn duration_secs(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1e6
    }

    /// The span's one JSON form. `deterministic` nulls what depends on
    /// wall time or pool scheduling: the worker lane and the start/end
    /// timestamps.
    pub fn to_jval(&self, deterministic: bool) -> JVal {
        let wall = |v: u64| {
            if deterministic {
                JVal::Null
            } else {
                JVal::UInt(v)
            }
        };
        JVal::obj(vec![
            ("stage", JVal::str(&self.stage)),
            ("stage_id", self.stage_id.map_or(JVal::Null, JVal::UInt)),
            ("op", JVal::str(self.op)),
            ("op_seq", JVal::UInt(self.op_seq)),
            ("partition", JVal::UInt(self.partition as u64)),
            ("worker", wall(self.worker as u64)),
            ("items_in", JVal::UInt(self.items_in)),
            ("items_out", JVal::UInt(self.items_out)),
            ("bytes", JVal::UInt(self.bytes)),
            ("retries", JVal::UInt(self.retries as u64)),
            ("start_us", wall(self.start_us)),
            ("end_us", wall(self.end_us)),
        ])
    }
}

/// Per stage, in first-seen order, its task count and busy seconds: the
/// figures of a [`StageSkew`] that need no partition breakdown.
#[derive(Debug, Clone, Default)]
struct SpanTotals(Vec<StageSkew>);

impl Totals<TaskSpan> for SpanTotals {
    fn absorb(&mut self, s: &TaskSpan) {
        let same = |t: &StageSkew| t.stage_id == s.stage_id && *t.stage == *s.stage;
        let i = self.0.iter().position(same).unwrap_or_else(|| {
            self.0.push(StageSkew {
                stage: s.stage.to_string(),
                stage_id: s.stage_id,
                skew_ratio: 1.0,
                record_skew: 1.0,
                utilization: 1.0,
                ..StageSkew::default()
            });
            self.0.len() - 1
        });
        self.0[i].tasks += 1;
        self.0[i].total_secs += s.duration_secs();
    }
}

/// Shared partition-metrics sink. Cloning shares the span ledger, so
/// collection operations deep inside operators record into the same registry
/// the driver reads — the same ownership model as `SimClock`.
///
/// [`MetricsRegistry::stage_skew`] counts every span ever recorded in its
/// task counts and busy seconds; every other reader sees the spans held,
/// which leave out what a quiet call recorded outside any window (see
/// [`crate::ledger`]).
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    epoch: Instant,
    spans: Arc<Mutex<Ledger<TaskSpan, SpanTotals>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Fresh, empty registry; its epoch (span timestamp zero) is now.
    pub fn new() -> Self {
        MetricsRegistry {
            epoch: Instant::now(),
            spans: Arc::default(),
        }
    }

    /// Microseconds elapsed since the registry epoch.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Appends one task span.
    pub fn record_span(&self, span: TaskSpan) {
        self.record_spans(vec![span]);
    }

    /// Appends a batch of task spans (one lock acquisition).
    pub fn record_spans(&self, spans: Vec<TaskSpan>) {
        if spans.is_empty() {
            return;
        }
        self.spans.lock().extend(spans);
    }

    /// Snapshot of the spans held.
    pub fn spans(&self) -> Vec<TaskSpan> {
        self.spans.lock().rows().to_vec()
    }

    /// Number of spans held.
    pub fn span_count(&self) -> usize {
        self.spans.lock().rows().len()
    }

    /// Spans held at index `mark` onward ([`MetricsRegistry::span_count`]
    /// taken earlier serves as the mark) — how a capture reads one run's
    /// spans on a reused context.
    pub fn spans_from(&self, mark: usize) -> Vec<TaskSpan> {
        let spans = self.spans.lock();
        spans.rows().iter().skip(mark).cloned().collect()
    }

    /// Opens (`true`) or closes (`false`) one window on the ledger: while
    /// any is open, every span is stored.
    pub fn window(&self, open: bool) {
        self.spans.lock().window(open);
    }

    /// Per-stage skew and utilization over the recorded spans, in first-seen
    /// stage order. Stages are keyed by `(stage_id, stage)`, so two nodes
    /// sharing a label stay separate. Partition time is the summed busy time
    /// of that partition's spans within the stage (a node may run several
    /// collection operations). `tasks` and `total_secs` count dropped spans
    /// too; the other figures read the spans held, and a stage with none
    /// held reads as balanced.
    pub fn stage_skew(&self) -> Vec<StageSkew> {
        let held = self.stage_skew_from(0);
        let totals = self.spans.lock().totals().0.clone();
        let merge = |t: StageSkew| {
            let found = held
                .iter()
                .find(|s| (s.stage_id, &s.stage) == (t.stage_id, &t.stage));
            StageSkew {
                tasks: t.tasks,
                total_secs: t.total_secs,
                ..found.cloned().unwrap_or(t)
            }
        };
        totals.into_iter().map(merge).collect()
    }

    /// [`MetricsRegistry::stage_skew`] over the spans held at index `mark`
    /// onward only.
    pub fn stage_skew_from(&self, mark: usize) -> Vec<StageSkew> {
        let spans = self.spans.lock();
        let mut order: Vec<(Option<u64>, Arc<str>)> = Vec::new();
        let mut groups: HashMap<(Option<u64>, Arc<str>), Vec<&TaskSpan>> = HashMap::new();
        for s in spans.rows().iter().skip(mark) {
            let key = (s.stage_id, s.stage.clone());
            groups.entry(key.clone()).or_insert_with(|| {
                order.push(key.clone());
                Vec::new()
            });
            groups.get_mut(&key).expect("just inserted").push(s);
        }
        order
            .into_iter()
            .map(|key| {
                let group = &groups[&key];
                StageSkew::from_spans(key.1.to_string(), key.0, group)
            })
            .collect()
    }
}

/// Skew and utilization analysis of one stage's task spans.
#[derive(Debug, Clone, Default)]
pub struct StageSkew {
    /// Stage label.
    pub stage: String,
    /// Stage identity, when the scope owner set one (executor node id).
    pub stage_id: Option<u64>,
    /// Number of task spans recorded for the stage.
    pub tasks: usize,
    /// Number of distinct partitions touched.
    pub partitions: usize,
    /// Number of distinct worker lanes touched.
    pub lanes: usize,
    /// Summed busy seconds across all spans.
    pub total_secs: f64,
    /// Slowest partition's busy seconds.
    pub max_secs: f64,
    /// Median partition busy seconds.
    pub median_secs: f64,
    /// 99th-percentile partition busy seconds (nearest-rank).
    pub p99_secs: f64,
    /// `max / median` partition time — 1.0 is perfectly balanced.
    pub skew_ratio: f64,
    /// `max / median` per-partition input records (`items_in`): the
    /// seed-pure skew signal, where `skew_ratio` reads the wall clock.
    pub record_skew: f64,
    /// Straggler flag: the slowest partition took more than twice the
    /// median, the regime where "slowest worker" pricing diverges from
    /// uniform-split pricing.
    pub straggler: bool,
    /// Busy wall time ÷ (lanes × stage wall span): 1.0 means every lane was
    /// busy for the stage's whole duration.
    pub utilization: f64,
}

impl StageSkew {
    fn from_spans(stage: String, stage_id: Option<u64>, spans: &[&TaskSpan]) -> StageSkew {
        let mut per_partition: HashMap<usize, f64> = HashMap::new();
        let mut records: HashMap<usize, u64> = HashMap::new();
        let mut lanes: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut start = u64::MAX;
        let mut end = 0u64;
        let mut total = 0.0;
        for s in spans {
            *per_partition.entry(s.partition).or_insert(0.0) += s.duration_secs();
            *records.entry(s.partition).or_insert(0) += s.items_in;
            lanes.insert(s.worker);
            start = start.min(s.start_us);
            end = end.max(s.end_us);
            total += s.duration_secs();
        }
        let mut times: Vec<f64> = per_partition.values().copied().collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        let nearest_rank = |q: f64| -> f64 {
            let idx = ((q * times.len() as f64).ceil() as usize).clamp(1, times.len()) - 1;
            times[idx]
        };
        let max_secs = *times.last().expect("non-empty stage group");
        let median_secs = nearest_rank(0.5);
        let p99_secs = nearest_rank(0.99);
        // Timer floor: sub-microsecond partitions all read 0; treat the
        // ratio as balanced rather than dividing by zero.
        let skew_ratio = if median_secs > 0.0 {
            max_secs / median_secs
        } else {
            1.0
        };
        let mut counts: Vec<u64> = records.into_values().collect();
        counts.sort_unstable();
        let record_skew =
            counts[counts.len() - 1] as f64 / counts[(counts.len() - 1) / 2].max(1) as f64;
        let span_secs = end.saturating_sub(start) as f64 / 1e6;
        let utilization = if span_secs > 0.0 && !lanes.is_empty() {
            (total / (lanes.len() as f64 * span_secs)).min(1.0)
        } else {
            1.0
        };
        StageSkew {
            stage,
            stage_id,
            tasks: spans.len(),
            partitions: per_partition.len(),
            lanes: lanes.len(),
            total_secs: total,
            max_secs,
            median_secs,
            p99_secs,
            skew_ratio,
            record_skew,
            straggler: median_secs > 0.0 && max_secs > 2.0 * median_secs,
            utilization,
        }
    }
}

/// Ambient attribution for instrumented collection operations: which
/// registry to record into, what the current stage is called, and how many
/// logical worker lanes the active `ResourceDesc` provides. Optionally
/// carries a [`FaultPlan`] so partition tasks run under injected faults.
#[derive(Debug, Clone)]
pub struct TaskScope {
    /// Destination registry.
    pub registry: MetricsRegistry,
    /// Stage label stamped on every span.
    pub stage: Arc<str>,
    /// Opaque stage identity (executor node id).
    pub stage_id: Option<u64>,
    /// Logical worker lanes (fallback lane mapping when no pool thread
    /// index is available is `partition % workers`).
    pub workers: usize,
    /// Fault schedule governing tasks under this scope, if any.
    pub faults: Option<FaultPlan>,
    /// What clones of this scope share.
    shared: Arc<ScopeState>,
}

#[derive(Debug, Default)]
struct ScopeState {
    /// Sequence number of collection operations run under the scope, so
    /// two ops on the same partition get independent fault decisions.
    op_seq: AtomicU64,
    /// `(partition, retries)` of each span recorded under the scope that
    /// retried, in recording order.
    retried: Mutex<Vec<(usize, u32)>>,
}

impl TaskScope {
    /// A fault-free scope. An `Arc<str>` stage label is shared, not copied.
    pub fn new(
        registry: &MetricsRegistry,
        stage: impl Into<Arc<str>>,
        stage_id: Option<u64>,
        workers: usize,
    ) -> Self {
        TaskScope {
            registry: registry.clone(),
            stage: stage.into(),
            stage_id,
            workers: workers.max(1),
            faults: None,
            shared: Arc::default(),
        }
    }

    /// Attaches a fault plan (pass `None` to keep the scope fault-free).
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Key identifying this stage in fault decisions: the stage id when the
    /// scope owner set one, else a hash of the stage label.
    pub fn fault_key(&self) -> u64 {
        self.stage_id
            .unwrap_or_else(|| crate::faults::hash_label(&self.stage))
    }

    /// Takes the next operation sequence number (one per collection
    /// operation, drawn on the driving thread before the fan-out).
    pub fn next_op_seq(&self) -> u64 {
        self.shared.op_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Records spans measured under this scope into its registry, noting
    /// the ones that retried.
    pub fn record(&self, spans: Vec<TaskSpan>) {
        for s in spans.iter().filter(|s| s.retries > 0) {
            self.shared.retried.lock().push((s.partition, s.retries));
        }
        self.registry.record_spans(spans);
    }

    /// `(partition, retries)` of every span recorded under this scope (or
    /// a clone) that retried, in recording order.
    pub fn retried(&self) -> Vec<(usize, u32)> {
        self.shared.retried.lock().clone()
    }
}

thread_local! {
    static SCOPES: RefCell<Vec<TaskScope>> = const { RefCell::new(Vec::new()) };
}

/// Pops the pushed scope even when `f` panics.
struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `scope` active on this thread. Scopes nest: the innermost
/// wins, so an estimator that re-enters the executor attributes inner nodes'
/// partition work to the inner nodes. The scope is visible only on the
/// calling thread — instrumented collection operations read it before
/// fanning out to the pool, so per-partition work is still attributed.
pub fn enter_task_scope<T>(scope: TaskScope, f: impl FnOnce() -> T) -> T {
    SCOPES.with(|s| s.borrow_mut().push(scope));
    let _guard = ScopeGuard;
    f()
}

/// Replaces the calling thread's scope stack and returns the one it
/// replaces.
pub(crate) fn swap_task_scopes(scopes: Vec<TaskScope>) -> Vec<TaskScope> {
    SCOPES.with(|s| s.replace(scopes))
}

/// The innermost active scope on this thread, if any.
pub fn current_task_scope() -> Option<TaskScope> {
    SCOPES.with(|s| s.borrow().last().cloned())
}

/// The parser lives in [`crate::json`]; `perf/` (frozen by
/// `BENCHMARK.json`) imports it by this path.
#[doc(hidden)]
pub use crate::json as microjson;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: &str, partition: usize, worker: usize, start: u64, end: u64) -> TaskSpan {
        TaskSpan {
            stage: stage.into(),
            op: "map",
            op_seq: 0,
            stage_id: Some(1),
            partition,
            worker,
            start_us: start,
            end_us: end,
            items_in: 10,
            items_out: 10,
            bytes: 80,
            retries: 0,
        }
    }

    #[test]
    fn clones_share_the_ledger() {
        let r = MetricsRegistry::new();
        let c = r.clone();
        c.record_span(span("s", 0, 0, 0, 10));
        assert_eq!(r.span_count(), 1);
        assert_eq!(r.spans_from(1), Vec::new());
    }

    fn with_task_scope<T>(
        registry: &MetricsRegistry,
        stage: &str,
        stage_id: Option<u64>,
        workers: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        enter_task_scope(TaskScope::new(registry, stage, stage_id, workers), f)
    }

    #[test]
    fn task_scope_nests_and_unwinds() {
        let r = MetricsRegistry::new();
        assert!(current_task_scope().is_none());
        with_task_scope(&r, "outer", Some(1), 4, || {
            assert_eq!(&*current_task_scope().expect("outer").stage, "outer");
            with_task_scope(&r, "inner", Some(2), 4, || {
                assert_eq!(&*current_task_scope().expect("inner").stage, "inner");
            });
            assert_eq!(&*current_task_scope().expect("outer again").stage, "outer");
        });
        assert!(current_task_scope().is_none());
    }

    #[test]
    fn task_scope_pops_on_panic() {
        let r = MetricsRegistry::new();
        let result = std::panic::catch_unwind(|| {
            with_task_scope(&r, "boom", None, 1, || panic!("inner panic"));
        });
        assert!(result.is_err());
        assert!(current_task_scope().is_none(), "scope leaked across panic");
    }

    #[test]
    fn stage_skew_flags_stragglers() {
        let r = MetricsRegistry::new();
        // Three balanced partitions at 10ms, one straggler at 50ms, on two
        // lanes.
        r.record_spans(vec![
            span("stage", 0, 0, 0, 10_000),
            span("stage", 1, 1, 0, 10_000),
            span("stage", 2, 0, 10_000, 20_000),
            span("stage", 3, 1, 10_000, 60_000),
        ]);
        let skews = r.stage_skew();
        assert_eq!(skews.len(), 1);
        let s = &skews[0];
        assert_eq!(s.tasks, 4);
        assert_eq!(s.partitions, 4);
        assert_eq!(s.lanes, 2);
        assert!((s.max_secs - 0.05).abs() < 1e-9);
        assert!((s.median_secs - 0.01).abs() < 1e-9);
        assert!((s.skew_ratio - 5.0).abs() < 1e-9);
        assert!(s.straggler);
        // Busy 0.08s over 2 lanes × 0.06s span.
        assert!((s.utilization - 0.08 / 0.12).abs() < 1e-9);
    }

    #[test]
    fn record_skew_flags_the_fat_partition_from_counts_alone() {
        let r = MetricsRegistry::new();
        // Equal busy time, but partition 0 reads 8x the records.
        r.record_spans(
            [80u64, 10, 10, 10]
                .into_iter()
                .enumerate()
                .map(|(p, items)| TaskSpan {
                    items_in: items,
                    ..span("s", p, 0, 0, 10)
                })
                .collect(),
        );
        let s = &r.stage_skew()[0];
        assert!((s.record_skew - 8.0).abs() < 1e-12);
        assert!((s.skew_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stage_skew_balanced_is_not_straggler() {
        let r = MetricsRegistry::new();
        r.record_spans(vec![span("s", 0, 0, 0, 10_000), span("s", 1, 1, 0, 11_000)]);
        let s = &r.stage_skew()[0];
        assert!(!s.straggler);
        assert!(s.skew_ratio < 2.0);
    }

    #[test]
    fn stage_skew_separates_colliding_labels_by_id() {
        let r = MetricsRegistry::new();
        let mut a = span("same", 0, 0, 0, 10);
        a.stage_id = Some(1);
        let mut b = span("same", 0, 0, 0, 10);
        b.stage_id = Some(2);
        r.record_spans(vec![a, b]);
        assert_eq!(r.stage_skew().len(), 2);
    }
}
