//! Pipeline observability: the structured event sink every optimizer and
//! executor decision flows through.
//!
//! The paper validates its optimizer by comparing *predicted* quantities
//! (per-node runtimes and memory from execution subsampling, §4.1; cache
//! picks from Algorithm 1, §4.3) against *observed* execution. This module
//! records both sides as structured [`TraceEvent`]s on a shared [`Tracer`]:
//!
//! * one event per node run, carrying its wall-clock and simulated-clock
//!   durations (from the [`Executor`](crate::executor::Executor)),
//! * cache hits/misses/evictions/admissions/rejections per node (via a
//!   [`CacheObserver`] adapter on the
//!   [`CacheManager`](keystone_dataflow::cache::CacheManager)),
//! * operator-selection decisions including the losing candidates' cost
//!   profiles (from the profiler, §4.1),
//! * CSE merges (§4.2) and materialization picks with their estimated
//!   savings (§4.3).
//!
//! The tracer lives on [`ExecContext`](crate::context::ExecContext) and is
//! cheaply cloneable (clones share the ledger), so operators deep in a
//! pipeline append to the same event stream the driver reads. Joining the
//! stream against a [`PipelineProfile`](crate::profiler::PipelineProfile)
//! yields a [`PipelineReport`](crate::report::PipelineReport) of
//! predicted-vs-actual metrics.
//!
//! One layer *below* these node-level events sits the partition-level
//! [`MetricsRegistry`](keystone_dataflow::metrics::MetricsRegistry), also on
//! the context: the executor opens a task scope per node, so every
//! partition-parallel `DistCollection` operation emits a
//! [`TaskSpan`](keystone_dataflow::metrics::TaskSpan) with worker-lane
//! attribution. The report joins those spans back onto node rows (skew
//! ratio, worker utilization), explaining *why* a node-level prediction
//! missed — a straggler partition versus a uniform mis-estimate.

use std::collections::HashMap;
use std::sync::Arc;

use keystone_dataflow::cache::CacheObserver;
use keystone_dataflow::cost::CostProfile;
use keystone_dataflow::json::JVal;
use parking_lot::Mutex;

use crate::graph::NodeId;

/// One candidate considered during cost-based operator selection.
#[derive(Debug, Clone)]
pub struct OperatorCandidate {
    /// Physical operator name.
    pub name: String,
    /// Its cost profile over the full-scale input statistics.
    pub cost: CostProfile,
    /// The scalar the optimizer minimized: estimated seconds on the target
    /// cluster.
    pub est_secs: f64,
}

/// A structured record of one runtime or optimizer decision.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A node's own work finished.
    NodeEnd {
        /// Node id in the executing graph.
        node: NodeId,
        /// Node label.
        label: String,
        /// Input records consumed by this execution.
        records: usize,
        /// Output bytes produced (0 for models).
        out_bytes: u64,
        /// Wall-clock seconds of the node's own work.
        wall_secs: f64,
        /// Simulated cluster seconds charged during the node's work.
        sim_secs: f64,
    },
    /// Cache lookup found the node's output resident.
    CacheHit {
        /// Node id (cache key).
        node: NodeId,
    },
    /// Cache lookup missed.
    CacheMiss {
        /// Node id (cache key).
        node: NodeId,
    },
    /// The node's output was admitted to the cache.
    CacheAdmit {
        /// Node id (cache key).
        node: NodeId,
        /// Admitted size in bytes.
        bytes: u64,
    },
    /// The node's output was evicted to make room.
    CacheEvict {
        /// Node id (cache key).
        node: NodeId,
    },
    /// An offer of the node's output was refused by policy or size.
    CacheReject {
        /// Node id (cache key).
        node: NodeId,
    },
    /// Cost-based operator selection resolved a logical operator (§4.1).
    OperatorChoice {
        /// Node id of the rewritten operator.
        node: NodeId,
        /// Logical node label before rewriting.
        label: String,
        /// Winning physical operator name.
        chosen: String,
        /// Every candidate considered, winners and losers, with costs.
        candidates: Vec<OperatorCandidate>,
    },
    /// CSE merged a structurally duplicate node into a canonical one (§4.2).
    CseMerge {
        /// Canonical node id (post-CSE graph).
        kept: NodeId,
        /// Canonical node's label.
        label: String,
        /// Number of duplicate nodes folded into it.
        duplicates: usize,
    },
    /// Algorithm 1 pinned a node's output for materialization (§4.3).
    MaterializePick {
        /// Node id chosen for caching.
        node: NodeId,
        /// Node label.
        label: String,
        /// Estimated runtime saving of this pick, seconds.
        est_saving_secs: f64,
        /// Output size charged against the memory budget, bytes.
        size_bytes: u64,
    },
    /// A partition task's attempt failed (it panicked, or the fault plan
    /// failed it) and was re-run; the retry's backoff is charged to the
    /// simulated clock.
    TaskRetry {
        /// Node whose work the failed task belonged to.
        node: NodeId,
        /// Partition index of the failed task.
        partition: usize,
        /// Zero-based index of the failed attempt.
        attempt: u32,
        /// Backoff charged before the retry, simulated seconds.
        backoff_secs: f64,
    },
    /// A cache entry was found lost (or was explicitly invalidated); the
    /// executor recomputes the node from its DAG ancestry.
    CacheLost {
        /// Node id (cache key).
        node: NodeId,
    },
    /// Whole-stage fusion collapsed a chain of per-record transformers into
    /// one `FusedMap` on the chain tail's node id. Emitted in ascending
    /// fused-node (topological) order, the same determinism discipline as
    /// [`CseMerge`](TraceEvent::CseMerge).
    FusionMerge {
        /// Node id the fused operator lives on (the chain tail).
        node: NodeId,
        /// The fused node's label (`Fused[a+b+c]`).
        label: String,
        /// Member labels in execution order.
        members: Vec<String>,
    },
    /// The serving layer closed one micro-batch and dispatched it as a
    /// single apply wave (`keystone-serve`). All durations are virtual
    /// (simulated-clock) seconds.
    ServeBatch {
        /// Zero-based batch sequence number.
        batch: u64,
        /// Requests in the wave.
        size: usize,
        /// When the wave dispatched, virtual seconds — with `linger_secs`
        /// this places the wave on a virtual timeline, so exporters can
        /// render serving lanes without consulting the batcher's schedule.
        dispatch_secs: f64,
        /// Seconds the batch lingered open waiting for more arrivals.
        linger_secs: f64,
        /// Simulated seconds the executor charged while running the wave.
        execute_secs: f64,
    },
    /// Admission control refused a request: the bounded serving queue was
    /// full at arrival.
    ServeReject {
        /// The rejected request's id.
        request: u64,
        /// The rejected request's arrival instant, virtual seconds.
        at_secs: f64,
        /// Queue depth observed at arrival (equals the configured bound).
        queue_depth: usize,
    },
    /// Adaptive re-optimization observed a node being requested more often
    /// than the cost model predicted and recalibrated the materialization
    /// problem from the executor's measured actuals (observed per-execution
    /// simulated seconds and output bytes replace the subsample
    /// extrapolations).
    Recalibrate {
        /// The node whose observed demand exceeded the prediction.
        node: NodeId,
        /// Node label.
        label: String,
        /// Requests observed so far this fit (including the triggering one).
        observed_requests: u64,
        /// Requests the pre-fit cost model predicted for the whole fit.
        predicted_requests: f64,
    },
    /// The adaptive re-planner applied a mid-fit plan revision at a wave
    /// boundary: materialization picks with no remaining demand are evicted,
    /// and picks the recalibrated greedy solution wants — and that fit the
    /// freed budget — are promoted. The decision itself is charged to the
    /// simulated clock under an `adapt:` stage.
    PlanRevision {
        /// One-based revision number within this fit.
        wave: u64,
        /// Node ids newly admitted to the materialization set.
        promoted: Vec<NodeId>,
        /// Node ids removed from the materialization set (zero remaining
        /// demand; their budget is reclaimed).
        evicted: Vec<NodeId>,
        /// Recalibrated-model runtime saving this revision predicts, seconds.
        predicted_saving_secs: f64,
    },
    /// Cross-pipeline CSE found a plan region shared by two or more tenants
    /// of a forest fit and merged it into one shared node
    /// (`keystone_core::optimizer::multi`). Emitted once per shared node in
    /// ascending node-id order, the same determinism discipline as
    /// [`CseMerge`](TraceEvent::CseMerge).
    CrossCseMerge {
        /// Node id in the merged forest graph.
        node: NodeId,
        /// Node label.
        label: String,
        /// How many tenants' outputs depend on this node.
        tenants: usize,
        /// Content-addressed structural signature (kind tag, label and
        /// input signatures) — stable under tenant permutation and across
        /// runs, unlike the node id.
        signature: u64,
    },
}

impl TraceEvent {
    /// The one JSON form of an event (a run artifact's `events` rows): a
    /// `type` tag plus the variant's fields. `deterministic` nulls the one
    /// wall-clock field, `NodeEnd.wall_secs`.
    pub fn to_jval(&self, deterministic: bool) -> JVal {
        let id = |n: &NodeId| JVal::UInt(*n as u64);
        let ids = |ns: &[NodeId]| JVal::Arr(ns.iter().map(id).collect());
        let (kind, mut pairs) = match self {
            TraceEvent::NodeEnd {
                node,
                label,
                records,
                out_bytes,
                wall_secs,
                sim_secs,
            } => (
                "node_end",
                vec![
                    ("node", id(node)),
                    ("label", JVal::str(label)),
                    ("records", JVal::UInt(*records as u64)),
                    ("out_bytes", JVal::UInt(*out_bytes)),
                    (
                        "wall_secs",
                        JVal::opt_num((!deterministic).then_some(*wall_secs)),
                    ),
                    ("sim_secs", JVal::Num(*sim_secs)),
                ],
            ),
            TraceEvent::CacheHit { node } => ("cache_hit", vec![("node", id(node))]),
            TraceEvent::CacheMiss { node } => ("cache_miss", vec![("node", id(node))]),
            TraceEvent::CacheAdmit { node, bytes } => (
                "cache_admit",
                vec![("node", id(node)), ("bytes", JVal::UInt(*bytes))],
            ),
            TraceEvent::CacheEvict { node } => ("cache_evict", vec![("node", id(node))]),
            TraceEvent::CacheReject { node } => ("cache_reject", vec![("node", id(node))]),
            TraceEvent::CacheLost { node } => ("cache_lost", vec![("node", id(node))]),
            TraceEvent::OperatorChoice {
                node,
                label,
                chosen,
                candidates,
            } => {
                let candidates = candidates.iter().map(|c| {
                    JVal::obj(vec![
                        ("name", JVal::str(&c.name)),
                        ("est_secs", JVal::Num(c.est_secs)),
                    ])
                });
                let fields = vec![
                    ("node", id(node)),
                    ("label", JVal::str(label)),
                    ("chosen", JVal::str(chosen)),
                    ("candidates", JVal::Arr(candidates.collect())),
                ];
                ("operator_choice", fields)
            }
            TraceEvent::CseMerge {
                kept,
                label,
                duplicates,
            } => (
                "cse_merge",
                vec![
                    ("node", id(kept)),
                    ("label", JVal::str(label)),
                    ("duplicates", JVal::UInt(*duplicates as u64)),
                ],
            ),
            TraceEvent::MaterializePick {
                node,
                label,
                est_saving_secs,
                size_bytes,
            } => (
                "materialize_pick",
                vec![
                    ("node", id(node)),
                    ("label", JVal::str(label)),
                    ("est_saving_secs", JVal::Num(*est_saving_secs)),
                    ("size_bytes", JVal::UInt(*size_bytes)),
                ],
            ),
            TraceEvent::TaskRetry {
                node,
                partition,
                attempt,
                backoff_secs,
            } => (
                "task_retry",
                vec![
                    ("node", id(node)),
                    ("partition", JVal::UInt(*partition as u64)),
                    ("attempt", JVal::UInt(*attempt as u64)),
                    ("backoff_secs", JVal::Num(*backoff_secs)),
                ],
            ),
            TraceEvent::FusionMerge {
                node,
                label,
                members,
            } => {
                let members = members.iter().map(|m| JVal::str(m));
                let fields = vec![
                    ("node", id(node)),
                    ("label", JVal::str(label)),
                    ("members", JVal::Arr(members.collect())),
                ];
                ("fusion_merge", fields)
            }
            TraceEvent::ServeBatch {
                batch,
                size,
                dispatch_secs,
                linger_secs,
                execute_secs,
            } => (
                "serve_batch",
                vec![
                    ("batch", JVal::UInt(*batch)),
                    ("size", JVal::UInt(*size as u64)),
                    ("dispatch_secs", JVal::Num(*dispatch_secs)),
                    ("linger_secs", JVal::Num(*linger_secs)),
                    ("execute_secs", JVal::Num(*execute_secs)),
                ],
            ),
            TraceEvent::ServeReject {
                request,
                at_secs,
                queue_depth,
            } => (
                "serve_reject",
                vec![
                    ("request", JVal::UInt(*request)),
                    ("at_secs", JVal::Num(*at_secs)),
                    ("queue_depth", JVal::UInt(*queue_depth as u64)),
                ],
            ),
            TraceEvent::Recalibrate {
                node,
                label,
                observed_requests,
                predicted_requests,
            } => (
                "recalibrate",
                vec![
                    ("node", id(node)),
                    ("label", JVal::str(label)),
                    ("observed_requests", JVal::UInt(*observed_requests)),
                    ("predicted_requests", JVal::Num(*predicted_requests)),
                ],
            ),
            TraceEvent::PlanRevision {
                wave,
                promoted,
                evicted,
                predicted_saving_secs,
            } => (
                "plan_revision",
                vec![
                    ("wave", JVal::UInt(*wave)),
                    ("promoted", ids(promoted)),
                    ("evicted", ids(evicted)),
                    ("predicted_saving_secs", JVal::Num(*predicted_saving_secs)),
                ],
            ),
            TraceEvent::CrossCseMerge {
                node,
                label,
                tenants,
                signature,
            } => (
                "cross_cse_merge",
                vec![
                    ("node", id(node)),
                    ("label", JVal::str(label)),
                    ("tenants", JVal::UInt(*tenants as u64)),
                    ("signature", JVal::UInt(*signature)),
                ],
            ),
        };
        pairs.push(("type", JVal::str(kind)));
        JVal::obj(pairs)
    }
}

/// Aggregate recovery statistics derived from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Failed attempts absorbed as retries.
    pub retries: u64,
    /// Cache entries lost and recomputed from lineage.
    pub cache_losses: u64,
    /// Simulated seconds spent on recovery: retry backoff.
    pub recovery_secs: f64,
}

impl RecoveryStats {
    fn absorb(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::TaskRetry { backoff_secs, .. } => {
                self.retries += 1;
                self.recovery_secs += backoff_secs;
            }
            TraceEvent::CacheLost { .. } => self.cache_losses += 1,
            _ => {}
        }
    }

    /// The one JSON form (the run artifact's `recovery` section).
    pub fn to_jval(&self) -> JVal {
        JVal::obj(vec![
            ("retries", JVal::UInt(self.retries)),
            ("cache_losses", JVal::UInt(self.cache_losses)),
            ("recovery_secs", JVal::Num(self.recovery_secs)),
        ])
    }
}

/// A [`TraceEvent`] plus its global sequence number (0-based, in the order
/// events were recorded).
#[derive(Debug, Clone)]
pub struct TracedEvent {
    /// Position in the event stream.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TracedEvent {
    /// [`TraceEvent::to_jval`] plus the event's `seq`.
    pub fn to_jval(&self, deterministic: bool) -> JVal {
        let mut row = self.event.to_jval(deterministic);
        if let JVal::Obj(pairs) = &mut row {
            pairs.push(("seq".to_string(), JVal::UInt(self.seq)));
        }
        row
    }
}

/// Per-node cache counters derived from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found the node's output.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Admissions.
    pub admissions: u64,
    /// Evictions.
    pub evictions: u64,
    /// Rejected offers.
    pub rejections: u64,
}

impl CacheCounters {
    /// The one JSON form (a report row's and an artifact row's `cache`).
    pub fn to_jval(&self) -> JVal {
        JVal::obj(vec![
            ("hits", JVal::UInt(self.hits)),
            ("misses", JVal::UInt(self.misses)),
            ("admissions", JVal::UInt(self.admissions)),
            ("evictions", JVal::UInt(self.evictions)),
            ("rejections", JVal::UInt(self.rejections)),
        ])
    }
}

/// Per-node execution actuals derived from the event stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeActuals {
    /// Number of completed executions.
    pub execs: u64,
    /// Total wall-clock seconds across executions.
    pub wall_secs: f64,
    /// Total simulated seconds across executions.
    pub sim_secs: f64,
    /// Output bytes of the last execution.
    pub out_bytes: u64,
}

/// Shared, append-only event sink. Cloning shares the ledger.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl Tracer {
    /// Fresh, empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// A detached tracer holding only the events recorded at index `mark`
    /// onward ([`Tracer::len`] taken earlier serves as the mark) — how a fit
    /// on a reused context reports its own part of the ledger.
    pub fn since(&self, mark: usize) -> Tracer {
        let events = self.events.lock();
        Tracer {
            events: Arc::new(Mutex::new(events[mark.min(events.len())..].to_vec())),
        }
    }

    /// Snapshot of all events with sequence numbers.
    pub fn events(&self) -> Vec<TracedEvent> {
        self.events
            .lock()
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, event)| TracedEvent {
                seq: i as u64,
                event,
            })
            .collect()
    }

    /// Records a node's work finishing.
    pub fn node_end(
        &self,
        node: NodeId,
        label: &str,
        records: usize,
        out_bytes: u64,
        wall_secs: f64,
        sim_secs: f64,
    ) {
        self.record(TraceEvent::NodeEnd {
            node,
            label: label.to_string(),
            records,
            out_bytes,
            wall_secs,
            sim_secs,
        });
    }

    /// Per-node cache counters aggregated from the stream.
    pub fn cache_counters(&self) -> HashMap<NodeId, CacheCounters> {
        let mut out: HashMap<NodeId, CacheCounters> = HashMap::new();
        for e in self.events.lock().iter() {
            match e {
                TraceEvent::CacheHit { node } => out.entry(*node).or_default().hits += 1,
                TraceEvent::CacheMiss { node } => out.entry(*node).or_default().misses += 1,
                TraceEvent::CacheAdmit { node, .. } => {
                    out.entry(*node).or_default().admissions += 1
                }
                TraceEvent::CacheEvict { node } => out.entry(*node).or_default().evictions += 1,
                TraceEvent::CacheReject { node } => out.entry(*node).or_default().rejections += 1,
                _ => {}
            }
        }
        out
    }

    /// Per-node execution actuals aggregated from `NodeEnd` events.
    pub fn node_actuals(&self) -> HashMap<NodeId, NodeActuals> {
        let mut out: HashMap<NodeId, NodeActuals> = HashMap::new();
        for e in self.events.lock().iter() {
            if let TraceEvent::NodeEnd {
                node,
                out_bytes,
                wall_secs,
                sim_secs,
                ..
            } = e
            {
                let a = out.entry(*node).or_default();
                a.execs += 1;
                a.wall_secs += wall_secs;
                a.sim_secs += sim_secs;
                a.out_bytes = *out_bytes;
            }
        }
        out
    }

    /// Pipeline-wide recovery statistics aggregated from the stream.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut out = RecoveryStats::default();
        for e in self.events.lock().iter() {
            out.absorb(e);
        }
        out
    }

    /// Per-node recovery statistics aggregated from the stream.
    pub fn recovery_by_node(&self) -> HashMap<NodeId, RecoveryStats> {
        let mut out: HashMap<NodeId, RecoveryStats> = HashMap::new();
        for e in self.events.lock().iter() {
            let node = match e {
                TraceEvent::TaskRetry { node, .. } | TraceEvent::CacheLost { node } => *node,
                _ => continue,
            };
            out.entry(node).or_default().absorb(e);
        }
        out
    }

    /// Labels of `NodeEnd` events in completion order (handy for asserting
    /// execution order in tests).
    pub fn completion_order(&self) -> Vec<String> {
        self.events
            .lock()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::NodeEnd { label, .. } => Some(label.clone()),
                _ => None,
            })
            .collect()
    }
}

/// Adapter: forwards [`CacheManager`](keystone_dataflow::cache::CacheManager)
/// callbacks into a [`Tracer`]. Cache keys are node ids by the executor's
/// convention (`node as u64`).
pub struct TraceCacheObserver(pub Tracer);

impl CacheObserver for TraceCacheObserver {
    fn on_hit(&self, key: u64) {
        self.0.record(TraceEvent::CacheHit {
            node: key as NodeId,
        });
    }
    fn on_miss(&self, key: u64) {
        self.0.record(TraceEvent::CacheMiss {
            node: key as NodeId,
        });
    }
    fn on_admit(&self, key: u64, size: u64) {
        self.0.record(TraceEvent::CacheAdmit {
            node: key as NodeId,
            bytes: size,
        });
    }
    fn on_evict(&self, key: u64) {
        self.0.record(TraceEvent::CacheEvict {
            node: key as NodeId,
        });
    }
    fn on_reject(&self, key: u64) {
        self.0.record(TraceEvent::CacheReject {
            node: key as NodeId,
        });
    }
    fn on_invalidate(&self, key: u64) {
        self.0.record(TraceEvent::CacheLost {
            node: key as NodeId,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_follow_recording_order() {
        let t = Tracer::new();
        t.node_end(0, "a", 10, 80, 0.5, 0.1);
        t.node_end(1, "b", 10, 80, 0.25, 0.05);
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(t.completion_order(), vec!["a", "b"]);
    }

    #[test]
    fn clones_share_the_ledger() {
        let t = Tracer::new();
        let clone = t.clone();
        assert!(clone.is_empty());
        clone.record(TraceEvent::CacheMiss { node: 3 });
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn cache_counters_aggregate_per_node() {
        let t = Tracer::new();
        let obs = TraceCacheObserver(t.clone());
        obs.on_miss(1);
        obs.on_admit(1, 64);
        obs.on_hit(1);
        obs.on_hit(1);
        obs.on_miss(2);
        obs.on_reject(2);
        obs.on_evict(1);
        let counters = t.cache_counters();
        assert_eq!(
            counters[&1],
            CacheCounters {
                hits: 2,
                misses: 1,
                admissions: 1,
                evictions: 1,
                rejections: 0,
            }
        );
        assert_eq!(counters[&2].misses, 1);
        assert_eq!(counters[&2].rejections, 1);
    }

    #[test]
    fn recovery_stats_aggregate_globally_and_per_node() {
        let t = Tracer::new();
        t.record(TraceEvent::TaskRetry {
            node: 1,
            partition: 0,
            attempt: 0,
            backoff_secs: 1.0,
        });
        t.record(TraceEvent::TaskRetry {
            node: 1,
            partition: 0,
            attempt: 1,
            backoff_secs: 2.0,
        });
        t.record(TraceEvent::TaskRetry {
            node: 2,
            partition: 3,
            attempt: 0,
            backoff_secs: 1.0,
        });
        t.record(TraceEvent::CacheLost { node: 1 });
        let total = t.recovery_stats();
        assert_eq!(total.retries, 3);
        assert_eq!(total.cache_losses, 1);
        assert!((total.recovery_secs - 4.0).abs() < 1e-12);
        let per = t.recovery_by_node();
        assert_eq!(per[&1].retries, 2);
        assert_eq!(per[&1].cache_losses, 1);
        assert!((per[&1].recovery_secs - 3.0).abs() < 1e-12);
        assert_eq!(per[&2].retries, 1);
        assert!((per[&2].recovery_secs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_actuals_sum_over_executions() {
        let t = Tracer::new();
        t.node_end(5, "x", 100, 800, 1.0, 0.5);
        t.node_end(5, "x", 100, 800, 3.0, 1.5);
        let a = t.node_actuals()[&5];
        assert_eq!(a.execs, 2);
        assert!((a.wall_secs - 4.0).abs() < 1e-12);
        assert!((a.sim_secs - 2.0).abs() < 1e-12);
        assert_eq!(a.out_bytes, 800);
    }
}
