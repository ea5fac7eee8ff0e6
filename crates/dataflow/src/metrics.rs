//! Partition-level metrics: task spans, counters/gauges/histograms, skew
//! analysis, and a Chrome trace-event exporter.
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
//! * [`MetricsRegistry`] — a cheaply-cloneable sink for spans plus named
//!   counters, gauges and fixed-bucket [`Histogram`]s whose
//!   [`MetricsSnapshot`]s merge associatively (roll up registries from
//!   parallel drivers).
//! * [`TaskScope`] — an ambient, thread-local attribution scope. The
//!   executor pushes a scope around each node's work; every instrumented
//!   [`DistCollection`](crate::collection::DistCollection) operation invoked
//!   under it emits one `TaskSpan` per partition into the scope's registry.
//! * [`StageSkew`] — per-stage max/median/p99 partition time, a straggler
//!   flag (`max > 2 × median`), and worker-lane utilization (busy wall time
//!   ÷ lane span).
//! * [`chrome_trace_json`] — a Chrome trace-event (Perfetto-loadable) JSON
//!   export rendering real worker lanes and the simulated-cluster stage
//!   ledger side by side as two process groups, written with the
//!   [`crate::json`] codec.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::faults::FaultPlan;
use crate::json::{write_f64, write_string};
use crate::simclock::SimClock;

/// One partition's work inside one stage: the physical-task record the
/// node-level trace decomposes into.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpan {
    /// Stage label (the executor uses its node label, e.g. `transform:NGrams`).
    pub stage: String,
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
    /// Failed attempts this task absorbed before succeeding (fault
    /// injection; 0 on healthy runs).
    pub retries: u32,
    /// This span lost a speculative race: it straggled, a re-execution's
    /// result was taken instead. Tagged after the fact by recovery.
    pub speculative: bool,
}

impl TaskSpan {
    /// Wall-clock duration in seconds (non-negative by construction).
    pub fn duration_secs(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1e6
    }
}

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`, with one implicit overflow bucket. Snapshots with identical
/// bounds merge by adding counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram over ascending bucket upper bounds.
    pub fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket upper bounds (one shorter than
    /// [`Histogram::bucket_counts`] — the overflow bucket has no bound).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket holding
    /// the rank-`⌈q·n⌉` observation. `q` outside `0.0..=1.0` is clamped to
    /// the nearest valid quantile; a NaN `q` returns `None`. Observations in
    /// the overflow bucket report the largest finite bound — the histogram
    /// cannot resolve beyond its edges. Returns `None` on an empty
    /// histogram, and the only bucket bound on a bound-less histogram.
    ///
    /// Because the estimate is a pure function of the bucket counts,
    /// quantiles commute with [`Histogram::merge`]: merging two snapshots
    /// and taking a quantile equals taking the quantile of the merged
    /// counts (asserted by tests below).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // A NaN rank is meaningless — reject it here rather than relying on
        // every caller: `f64::clamp` passes NaN through, and `NaN as u64`
        // would silently collapse to rank 1 (i.e. report q≈0).
        if q.is_nan() {
            return None;
        }
        // Out-of-range requests saturate to the nearest valid quantile.
        let q = q.clamp(0.0, 1.0);
        // Nearest rank, 1-based: ceil(q·n) clamped to [1, n] so q=0.0 maps
        // to the first observation rather than rank 0.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Overflow bucket: saturate to the last finite bound.
                let edge = i.min(self.bounds.len().saturating_sub(1));
                return self.bounds.get(edge).copied().or(Some(0.0));
            }
        }
        unreachable!("rank {rank} exceeds histogram count {}", self.count)
    }

    /// Median estimate ([`Histogram::quantile`] at 0.5).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th-percentile estimate ([`Histogram::quantile`] at 0.99).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Adds another histogram's counts into this one.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ — merging is only defined across
    /// snapshots of the same metric.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Mergeable point-in-time copy of a registry's scalar metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: HashMap<String, u64>,
    /// Last-write gauges by name.
    pub gauges: HashMap<String, f64>,
    /// Histograms by name.
    pub histograms: HashMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Folds `other` into this snapshot: counters add, histograms merge
    /// bucket-wise, gauges take `other`'s value (last write wins).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

#[derive(Debug)]
struct RegistryInner {
    epoch: Instant,
    spans: Mutex<Vec<TaskSpan>>,
    scalars: Mutex<MetricsSnapshot>,
}

/// Shared partition-metrics sink. Cloning shares the underlying ledgers, so
/// collection operations deep inside operators record into the same registry
/// the driver reads — the same ownership model as `SimClock`.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
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
            inner: Arc::new(RegistryInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                scalars: Mutex::new(MetricsSnapshot::default()),
            }),
        }
    }

    /// Microseconds elapsed since the registry epoch.
    pub fn now_micros(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Appends one task span.
    pub fn record_span(&self, span: TaskSpan) {
        self.inner.spans.lock().push(span);
    }

    /// Appends a batch of task spans (one lock acquisition).
    pub fn record_spans(&self, spans: Vec<TaskSpan>) {
        if !spans.is_empty() {
            self.inner.spans.lock().extend(spans);
        }
    }

    /// Snapshot of all recorded spans.
    pub fn spans(&self) -> Vec<TaskSpan> {
        self.inner.spans.lock().clone()
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.inner.spans.lock().len()
    }

    /// Spans recorded at index `mark` onward ([`MetricsRegistry::span_count`]
    /// taken earlier serves as the mark) — how the executor attributes a
    /// window of the ledger to one node execution.
    pub fn spans_from(&self, mark: usize) -> Vec<TaskSpan> {
        self.inner.spans.lock().iter().skip(mark).cloned().collect()
    }

    /// Tags spans of `(stage_id, op_seq, partition)` recorded at `mark`
    /// onward as speculative losers (their straggling result was replaced by
    /// a re-execution's). Returns how many spans were tagged.
    pub fn mark_speculative(
        &self,
        mark: usize,
        stage_id: Option<u64>,
        op_seq: u64,
        partition: usize,
    ) -> usize {
        let mut spans = self.inner.spans.lock();
        let mut tagged = 0;
        for s in spans.iter_mut().skip(mark) {
            if s.stage_id == stage_id && s.op_seq == op_seq && s.partition == partition {
                s.speculative = true;
                tagged += 1;
            }
        }
        tagged
    }

    /// Adds `by` to the named counter.
    pub fn inc_counter(&self, name: &str, by: u64) {
        *self
            .inner
            .scalars
            .lock()
            .counters
            .entry(name.to_string())
            .or_insert(0) += by;
    }

    /// Current value of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .scalars
            .lock()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.inner
            .scalars
            .lock()
            .gauges
            .insert(name.to_string(), value);
    }

    /// Current value of the named gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.scalars.lock().gauges.get(name).copied()
    }

    /// Records an observation into the named histogram, creating it with
    /// `bounds` on first use. Later calls ignore `bounds`.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let mut scalars = self.inner.scalars.lock();
        scalars
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .observe(value);
    }

    /// Copy of the named histogram.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.scalars.lock().histograms.get(name).cloned()
    }

    /// Mergeable snapshot of counters, gauges and histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.scalars.lock().clone()
    }

    /// Clears spans and scalar metrics (the epoch is unchanged, so span
    /// timestamps stay comparable across resets).
    pub fn reset(&self) {
        self.inner.spans.lock().clear();
        *self.inner.scalars.lock() = MetricsSnapshot::default();
    }

    /// Per-stage skew and utilization over the recorded spans, in first-seen
    /// stage order. Stages are keyed by `(stage_id, stage)`, so two nodes
    /// sharing a label stay separate. Partition time is the summed busy time
    /// of that partition's spans within the stage (a node may run several
    /// collection operations).
    pub fn stage_skew(&self) -> Vec<StageSkew> {
        self.stage_skew_from(0)
    }

    /// [`MetricsRegistry::stage_skew`] over the spans recorded at index
    /// `mark` onward only.
    pub fn stage_skew_from(&self, mark: usize) -> Vec<StageSkew> {
        let spans = self.inner.spans.lock();
        let mut order: Vec<(Option<u64>, String)> = Vec::new();
        let mut groups: HashMap<(Option<u64>, String), Vec<&TaskSpan>> = HashMap::new();
        for s in spans.iter().skip(mark) {
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
                StageSkew::from_spans(key.1, key.0, group)
            })
            .collect()
    }
}

/// Skew and utilization analysis of one stage's task spans.
#[derive(Debug, Clone)]
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
        let mut lanes: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut start = u64::MAX;
        let mut end = 0u64;
        let mut total = 0.0;
        for s in spans {
            *per_partition.entry(s.partition).or_insert(0.0) += s.duration_secs();
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
    /// Sequence number of collection operations run under this scope, so
    /// two ops on the same partition get independent fault decisions.
    op_seq: Arc<AtomicU64>,
}

impl TaskScope {
    /// A fault-free scope.
    pub fn new(
        registry: &MetricsRegistry,
        stage: &str,
        stage_id: Option<u64>,
        workers: usize,
    ) -> Self {
        TaskScope {
            registry: registry.clone(),
            stage: Arc::from(stage),
            stage_id,
            workers: workers.max(1),
            faults: None,
            op_seq: Arc::new(AtomicU64::new(0)),
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
        self.op_seq.fetch_add(1, Ordering::Relaxed)
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

/// The innermost active scope on this thread, if any.
pub fn current_task_scope() -> Option<TaskScope> {
    SCOPES.with(|s| s.borrow().last().cloned())
}

/// One argument value on a [`ChromeExtra`] event.
#[derive(Debug, Clone)]
pub enum ChromeArg {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
}

/// A caller-supplied complete (`"ph":"X"`) event rendered on the third
/// process group (`pid 3`, "serving (virtual)") of
/// [`chrome_trace_json_with`]. The node-level tracer in `keystone-core`
/// lives above this crate, so events it owns — serve batch waves, admission
/// rejects — are lowered into this carrier type and handed to the exporter
/// (see `keystone_core::export::chrome_trace_json`).
#[derive(Debug, Clone)]
pub struct ChromeExtra {
    /// Thread name within the virtual process (e.g. `serve:batches`);
    /// lanes are assigned tids in first-seen order.
    pub lane: String,
    /// Event name.
    pub name: String,
    /// Start, microseconds of *virtual* time.
    pub start_us: u64,
    /// Duration, microseconds of virtual time (0 renders as an instant).
    pub dur_us: u64,
    /// `args` payload, in the given order.
    pub args: Vec<(String, ChromeArg)>,
}

/// Serializes the registry's task spans and a [`SimClock`] ledger as a
/// Chrome trace-event JSON array, loadable in `chrome://tracing` and
/// Perfetto.
///
/// Two process groups:
/// * `pid 1` — **measured worker lanes**: one thread per logical worker
///   lane, one complete (`"ph":"X"`) event per [`TaskSpan`], at real
///   wall-clock microseconds.
/// * `pid 2` — **simulated cluster**: the `SimClock` ledger laid out
///   sequentially (entry `i` starts where `i-1` ended), one thread per
///   stage prefix — including the `recovery:`/`speculative:` stages the
///   executor books for retries and speculation and the `serve:` stages
///   the serving layer charges — so paper-scale estimated stage times sit
///   next to the measured lanes.
///
/// Metadata (`"ph":"M"`) events name both processes and every thread.
pub fn chrome_trace_json(registry: &MetricsRegistry, sim: &SimClock) -> String {
    chrome_trace_json_with(registry, sim, &[])
}

/// [`chrome_trace_json`] plus a third process group (`pid 3`, "serving
/// (virtual)") of caller-supplied [`ChromeExtra`] events on virtual-time
/// lanes — how `ServeBatch`/`ServeReject` trace events reach Perfetto.
pub fn chrome_trace_json_with(
    registry: &MetricsRegistry,
    sim: &SimClock,
    extras: &[ChromeExtra],
) -> String {
    let spans = registry.spans();
    let mut out = String::with_capacity(256 + spans.len() * 160);
    out.push('[');
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&ev);
    };

    push(
        &mut out,
        meta_event("process_name", 1, None, "workers (measured)"),
    );
    let mut lanes: Vec<usize> = spans.iter().map(|s| s.worker).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in &lanes {
        push(
            &mut out,
            meta_event(
                "thread_name",
                1,
                Some(*lane as u64),
                &format!("worker-{lane}"),
            ),
        );
    }
    for s in &spans {
        let mut ev = String::with_capacity(160);
        ev.push_str("{\"name\":");
        write_string(&mut ev, &format!("{}[p{}]", s.stage, s.partition));
        ev.push_str(",\"cat\":");
        write_string(&mut ev, s.op);
        ev.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":");
        ev.push_str(&s.worker.to_string());
        ev.push_str(",\"ts\":");
        ev.push_str(&s.start_us.to_string());
        ev.push_str(",\"dur\":");
        ev.push_str(&s.end_us.saturating_sub(s.start_us).to_string());
        ev.push_str(",\"args\":{\"partition\":");
        ev.push_str(&s.partition.to_string());
        ev.push_str(",\"items_in\":");
        ev.push_str(&s.items_in.to_string());
        ev.push_str(",\"items_out\":");
        ev.push_str(&s.items_out.to_string());
        ev.push_str(",\"bytes\":");
        ev.push_str(&s.bytes.to_string());
        ev.push_str(",\"retries\":");
        ev.push_str(&s.retries.to_string());
        ev.push_str(",\"speculative\":");
        ev.push_str(if s.speculative { "true" } else { "false" });
        ev.push_str("}}");
        push(&mut out, ev);
    }

    push(
        &mut out,
        meta_event("process_name", 2, None, "simulated cluster"),
    );
    let timeline = sim.timeline();
    // One simulated thread per stage prefix, in first-seen order.
    let mut sim_tids: Vec<String> = Vec::new();
    let tid_of = |stage: &str, sim_tids: &mut Vec<String>| -> u64 {
        let prefix = stage.split(':').next().unwrap_or(stage).to_string();
        match sim_tids.iter().position(|p| p == &prefix) {
            Some(i) => i as u64,
            None => {
                sim_tids.push(prefix);
                (sim_tids.len() - 1) as u64
            }
        }
    };
    let mut sim_events = Vec::with_capacity(timeline.len());
    for (start_secs, e) in &timeline {
        let tid = tid_of(&e.stage, &mut sim_tids);
        let cursor_us = (start_secs * 1e6).max(0.0) as u64;
        let dur_us = ((e.exec_secs + e.coord_secs) * 1e6).max(0.0) as u64;
        let mut ev = String::with_capacity(160);
        ev.push_str("{\"name\":");
        write_string(&mut ev, &e.stage);
        ev.push_str(",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":2,\"tid\":");
        ev.push_str(&tid.to_string());
        ev.push_str(",\"ts\":");
        ev.push_str(&cursor_us.to_string());
        ev.push_str(",\"dur\":");
        ev.push_str(&dur_us.to_string());
        ev.push_str(",\"args\":{\"exec_secs\":");
        write_f64(&mut ev, e.exec_secs);
        ev.push_str(",\"coord_secs\":");
        write_f64(&mut ev, e.coord_secs);
        ev.push_str("}}");
        sim_events.push(ev);
    }
    for (i, prefix) in sim_tids.iter().enumerate() {
        push(
            &mut out,
            meta_event("thread_name", 2, Some(i as u64), &format!("sim:{prefix}")),
        );
    }
    for ev in sim_events {
        push(&mut out, ev);
    }

    if !extras.is_empty() {
        push(
            &mut out,
            meta_event("process_name", 3, None, "serving (virtual)"),
        );
        let mut lanes: Vec<&str> = Vec::new();
        let mut lane_events = Vec::with_capacity(extras.len());
        for e in extras {
            let tid = match lanes.iter().position(|l| *l == e.lane) {
                Some(i) => i as u64,
                None => {
                    lanes.push(&e.lane);
                    (lanes.len() - 1) as u64
                }
            };
            let mut ev = String::with_capacity(160);
            ev.push_str("{\"name\":");
            write_string(&mut ev, &e.name);
            ev.push_str(",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":3,\"tid\":");
            ev.push_str(&tid.to_string());
            ev.push_str(",\"ts\":");
            ev.push_str(&e.start_us.to_string());
            ev.push_str(",\"dur\":");
            ev.push_str(&e.dur_us.to_string());
            ev.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    ev.push(',');
                }
                write_string(&mut ev, k);
                ev.push(':');
                match v {
                    ChromeArg::Num(n) => write_f64(&mut ev, *n),
                    ChromeArg::Str(s) => write_string(&mut ev, s),
                }
            }
            ev.push_str("}}");
            lane_events.push(ev);
        }
        for (i, lane) in lanes.iter().enumerate() {
            push(&mut out, meta_event("thread_name", 3, Some(i as u64), lane));
        }
        for ev in lane_events {
            push(&mut out, ev);
        }
    }

    out.push(']');
    out
}

fn meta_event(name: &str, pid: u64, tid: Option<u64>, value: &str) -> String {
    let mut ev = String::with_capacity(96);
    ev.push_str("{\"name\":");
    write_string(&mut ev, name);
    ev.push_str(",\"ph\":\"M\",\"pid\":");
    ev.push_str(&pid.to_string());
    if let Some(tid) = tid {
        ev.push_str(",\"tid\":");
        ev.push_str(&tid.to_string());
    }
    ev.push_str(",\"args\":{\"name\":");
    write_string(&mut ev, value);
    ev.push_str("}}");
    ev
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
            stage: stage.to_string(),
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
            speculative: false,
        }
    }

    #[test]
    fn clones_share_the_ledger() {
        let r = MetricsRegistry::new();
        let c = r.clone();
        c.record_span(span("s", 0, 0, 0, 10));
        c.inc_counter("x", 2);
        assert_eq!(r.span_count(), 1);
        assert_eq!(r.counter("x"), 2);
        r.reset();
        assert_eq!(c.span_count(), 0);
        assert_eq!(c.counter("x"), 0);
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        let mut other = Histogram::new(vec![1.0, 10.0]);
        other.observe(0.1);
        h.merge(&other);
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert!((h.mean() - 55.6 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_on_empty_histogram_is_none() {
        let h = Histogram::new(vec![1.0, 10.0]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn quantile_on_one_sample_is_its_bucket_for_every_q() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        h.observe(5.0);
        // Every quantile of a single observation is that observation's
        // bucket bound — including q=0.0, which must not underflow to an
        // imaginary rank-0 observation.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(10.0), "q={q}");
        }
    }

    #[test]
    fn quantile_on_two_samples_splits_at_the_median() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        h.observe(0.5);
        h.observe(50.0);
        // Nearest rank: ceil(0.5·2) = 1 → the lower observation.
        assert_eq!(h.p50(), Some(1.0));
        // ceil(0.99·2) = 2 → the upper observation.
        assert_eq!(h.p99(), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn quantile_clamps_out_of_range_and_rejects_nan() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        h.observe(0.5); // bucket bound 1.0
        h.observe(50.0); // bucket bound 100.0
                         // Out-of-range q saturates to the nearest valid quantile.
        assert_eq!(h.quantile(-0.1), h.quantile(0.0), "q=-0.1 clamps to 0.0");
        assert_eq!(h.quantile(-0.1), Some(1.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(1.5), h.quantile(1.0), "q=1.5 clamps to 1.0");
        assert_eq!(h.quantile(1.5), Some(100.0));
        // NaN has no rank: it must be rejected, not silently treated as
        // q≈0 (which is what `NaN as u64 == 0` used to produce).
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn quantile_saturates_in_the_overflow_bucket() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(1e9);
        assert_eq!(h.p50(), Some(10.0), "overflow reports the largest bound");
    }

    #[test]
    fn merge_then_quantile_equals_quantile_of_merged() {
        let bounds = vec![0.001, 0.01, 0.1, 1.0, 10.0];
        let mut a = Histogram::new(bounds.clone());
        let mut b = Histogram::new(bounds.clone());
        let mut all = Histogram::new(bounds.clone());
        // Deterministic pseudo-random split of one observation stream.
        let mut x = 0x9E37_79B9u64;
        for i in 0..257 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as f64 / 1e8;
            all.observe(v);
            if i % 3 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.merge(&b);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                a.quantile(q),
                all.quantile(q),
                "merge-then-quantile diverged at q={q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bounds mismatch")]
    fn histogram_merge_rejects_different_bounds() {
        let mut a = Histogram::new(vec![1.0]);
        let b = Histogram::new(vec![2.0]);
        a.merge(&b);
    }

    #[test]
    fn snapshots_merge_associatively() {
        let a = MetricsRegistry::new();
        a.inc_counter("items", 5);
        a.set_gauge("mem", 1.0);
        a.observe("lat", &[1.0], 0.5);
        let b = MetricsRegistry::new();
        b.inc_counter("items", 3);
        b.set_gauge("mem", 2.0);
        b.observe("lat", &[1.0], 2.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counters["items"], 8);
        assert_eq!(merged.gauges["mem"], 2.0);
        assert_eq!(merged.histograms["lat"].count(), 2);
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

    #[test]
    fn chrome_trace_is_parseable_with_both_process_groups() {
        let r = MetricsRegistry::new();
        r.record_spans(vec![
            span("transform:x", 0, 0, 0, 1_000),
            span("transform:x", 1, 1, 0, 2_000),
        ]);
        let sim = SimClock::new();
        sim.charge_seconds("solve:iter0", 1.5, 0.5);
        sim.charge_seconds("featurize", 1.0, 0.0);
        let json = chrome_trace_json(&r, &sim);
        let doc = microjson::parse(&json).expect("trace must parse");
        let events = doc.as_arr().expect("trace is an array");
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 4, "two spans + two sim entries");
        for e in &xs {
            for key in ["pid", "tid", "ts", "dur"] {
                assert!(
                    e.get(key).and_then(|v| v.as_f64()).is_some(),
                    "X event missing numeric {key}: {e:?}"
                );
            }
            assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        }
        // Both process groups present.
        let pids: std::collections::HashSet<i64> = xs
            .iter()
            .map(|e| e.get("pid").and_then(|v| v.as_f64()).expect("pid") as i64)
            .collect();
        assert_eq!(pids, [1i64, 2].into_iter().collect());
        // Sim entries are laid out sequentially: 2.0s then 1.0s.
        let sim_events: Vec<_> = xs
            .iter()
            .filter(|e| e.get("pid").and_then(|v| v.as_f64()) == Some(2.0))
            .collect();
        assert_eq!(sim_events[0].get("ts").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(
            sim_events[1].get("ts").and_then(|v| v.as_f64()),
            Some(2_000_000.0)
        );
    }

    #[test]
    fn chrome_trace_extras_render_as_third_process() {
        let r = MetricsRegistry::new();
        r.record_span(span("transform:x", 0, 0, 0, 1_000));
        let sim = SimClock::new();
        sim.charge_seconds("serve:execute", 1.0, 0.0);
        sim.charge_seconds("recovery:solve", 0.5, 0.0);
        sim.charge_seconds("speculative:solve", 0.25, 0.0);
        let extras = vec![
            ChromeExtra {
                lane: "serve:batches".into(),
                name: "batch 0".into(),
                start_us: 100,
                dur_us: 900,
                args: vec![
                    ("size".into(), ChromeArg::Num(4.0)),
                    ("kind".into(), ChromeArg::Str("wave".into())),
                ],
            },
            ChromeExtra {
                lane: "serve:rejects".into(),
                name: "reject 7".into(),
                start_us: 250,
                dur_us: 0,
                args: vec![("queue_depth".into(), ChromeArg::Num(8.0))],
            },
        ];
        let json = chrome_trace_json_with(&r, &sim, &extras);
        let doc = microjson::parse(&json).expect("trace must parse");
        let events = doc.as_arr().expect("array");
        // The virtual-serving process is named and carries both lanes.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"serving (virtual)"), "{names:?}");
        assert!(names.contains(&"serve:batches"));
        assert!(names.contains(&"serve:rejects"));
        // Sim lanes exist for serve/recovery/speculative stage prefixes, so
        // the full run — not just fit-path stages — shows in Perfetto.
        for lane in ["sim:serve", "sim:recovery", "sim:speculative"] {
            assert!(names.contains(&lane), "missing {lane} in {names:?}");
        }
        let pid3: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("pid").and_then(|v| v.as_f64()) == Some(3.0)
            })
            .collect();
        assert_eq!(pid3.len(), 2);
        assert_eq!(
            pid3[0]
                .get("args")
                .and_then(|a| a.get("size"))
                .and_then(|v| v.as_f64()),
            Some(4.0)
        );
        assert_eq!(
            pid3[0]
                .get("args")
                .and_then(|a| a.get("kind"))
                .and_then(|v| v.as_str()),
            Some("wave")
        );
        assert_eq!(pid3[1].get("dur").and_then(|v| v.as_f64()), Some(0.0));
    }
}
