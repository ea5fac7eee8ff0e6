//! Executor-level observability: the tracer's view of an execution must
//! agree exactly with the cache manager's own statistics and with the
//! number of times operators really ran.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use keystone_core::context::ExecContext;
use keystone_core::executor::Executor;
use keystone_core::graph::{Graph, NodeKind};
use keystone_core::operator::{AnyData, Transformer, TypedTransformer};
use keystone_core::trace::{TraceCacheObserver, TraceEvent};
use keystone_dataflow::cache::{CacheManager, CachePolicy};
use keystone_dataflow::collection::DistCollection;

struct CountingAdd {
    calls: Arc<AtomicU64>,
    delta: f64,
}

impl Transformer<f64, f64> for CountingAdd {
    fn apply(&self, x: &f64) -> f64 {
        x + self.delta
    }
    fn apply_collection(
        &self,
        input: &DistCollection<f64>,
        _ctx: &ExecContext,
    ) -> DistCollection<f64> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let d = self.delta;
        input.map(move |x| x + d)
    }
}

/// src -> a -> b.
fn chain(calls_a: Arc<AtomicU64>, calls_b: Arc<AtomicU64>) -> (Graph, usize, usize) {
    let mut g = Graph::new();
    let src = g.add(
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64; 64], 4))),
        vec![],
        "src",
    );
    let a = g.add(
        NodeKind::Transform(Arc::new(TypedTransformer::new(CountingAdd {
            calls: calls_a,
            delta: 1.0,
        }))),
        vec![src],
        "a",
    );
    let b = g.add(
        NodeKind::Transform(Arc::new(TypedTransformer::new(CountingAdd {
            calls: calls_b,
            delta: 10.0,
        }))),
        vec![a],
        "b",
    );
    (g, a, b)
}

#[test]
fn tracer_counters_match_cache_manager_stats() {
    let (ca, cb) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (g, a, b) = chain(ca.clone(), cb.clone());
    let ctx = ExecContext::default_cluster();
    // Pin only `a`: b recomputes per request, pulling the cached a.
    let cache = Arc::new(
        CacheManager::new(
            1 << 20,
            CachePolicy::Pinned([a as u64].into_iter().collect()),
        )
        .with_observer(Arc::new(TraceCacheObserver(ctx.tracer.clone()))),
    );
    let exec = Executor::new(&g, ctx.clone(), cache.clone());
    let requests = 4;
    for _ in 0..requests {
        let _ = exec.eval(b);
    }

    // Counter consistency: every lookup is a hit or a miss, and the tracer
    // saw exactly the events the cache manager counted.
    let stats = cache.stats();
    let counters = ctx.tracer.cache_counters();
    let hits: u64 = counters.values().map(|c| c.hits).sum();
    let misses: u64 = counters.values().map(|c| c.misses).sum();
    let rejections: u64 = counters.values().map(|c| c.rejections).sum();
    assert_eq!(hits, stats.hits);
    assert_eq!(misses, stats.misses);
    assert_eq!(rejections, stats.rejected);
    // Every lookup is a hit or a miss: b once per request, a once per b
    // recomputation, src once for a's single computation.
    assert_eq!(hits + misses, 2 * requests as u64 + 1);
    // Pinned a: one miss then hits; everything else misses.
    assert_eq!(counters[&a].misses, 1);
    assert_eq!(counters[&a].hits, requests as u64 - 1);
    assert_eq!(counters[&b].misses, requests as u64);
    assert_eq!(counters[&b].hits, 0);
    // Operator call counts agree with the tracer's NodeEnd aggregation.
    let actuals = ctx.tracer.node_actuals();
    assert_eq!(actuals[&a].execs, ca.load(Ordering::SeqCst));
    assert_eq!(actuals[&b].execs, cb.load(Ordering::SeqCst));
    assert_eq!(actuals[&a].execs, 1);
    assert_eq!(actuals[&b].execs, requests as u64);
}

#[test]
fn oversized_intermediates_reach_tracer_as_reject_events() {
    let (ca, cb) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (g, a, b) = chain(ca, cb.clone());
    let ctx = ExecContext::default_cluster();
    // LRU with admission control: the 64-record f64 intermediates are ~512
    // bytes, far above admission_fraction × budget = 102 bytes, so every
    // put is refused at the admission gate and must surface as an
    // `on_reject` callback -> CacheReject trace event.
    let cache = Arc::new(
        CacheManager::new(
            1024,
            CachePolicy::Lru {
                admission_fraction: 0.1,
            },
        )
        .with_observer(Arc::new(TraceCacheObserver(ctx.tracer.clone()))),
    );
    let exec = Executor::new(&g, ctx.clone(), cache.clone());
    let requests = 3;
    for _ in 0..requests {
        let _ = exec.eval(b);
    }

    let stats = cache.stats();
    assert!(stats.rejected > 0, "admission gate never fired");
    assert_eq!(cache.used(), 0, "oversized object was admitted");
    assert!(cache.resident_keys().is_empty());

    // The tracer saw exactly the rejections the cache manager counted, on
    // the nodes that produced the oversized intermediates.
    let counters = ctx.tracer.cache_counters();
    let rejections: u64 = counters.values().map(|c| c.rejections).sum();
    assert_eq!(rejections, stats.rejected);
    assert!(counters[&a].rejections > 0);
    assert!(counters[&b].rejections > 0);
    let reject_events = ctx
        .tracer
        .events()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::CacheReject { .. }))
        .count() as u64;
    assert_eq!(reject_events, stats.rejected);

    // Nothing cacheable -> every request recomputes the whole chain.
    assert_eq!(counters[&b].hits, 0);
    assert_eq!(counters[&b].misses, requests as u64);
    assert_eq!(cb.load(Ordering::SeqCst), requests as u64);
}

#[test]
fn events_are_ordered_and_start_end_balanced() {
    let (ca, cb) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (g, _a, b) = chain(ca, cb);
    let ctx = ExecContext::default_cluster();
    let cache = Arc::new(
        CacheManager::new(0, CachePolicy::Pinned(Default::default()))
            .with_observer(Arc::new(TraceCacheObserver(ctx.tracer.clone()))),
    );
    let exec = Executor::new(&g, ctx.clone(), cache);
    let _ = exec.eval(b);

    let events = ctx.tracer.events();
    // Sequence numbers are dense and strictly increasing.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    // A linear chain completes inputs before consumers.
    assert_eq!(
        ctx.tracer.completion_order(),
        vec!["transform:a", "transform:b"]
    );
}

#[test]
fn node_end_durations_are_nonnegative_and_finite() {
    let (ca, cb) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (g, _a, b) = chain(ca, cb);
    let ctx = ExecContext::default_cluster();
    let cache = Arc::new(
        CacheManager::new(0, CachePolicy::Pinned(Default::default()))
            .with_observer(Arc::new(TraceCacheObserver(ctx.tracer.clone()))),
    );
    let exec = Executor::new(&g, ctx.clone(), cache);
    let _ = exec.eval(b);
    let mut ends = 0;
    for e in ctx.tracer.events() {
        if let TraceEvent::NodeEnd {
            wall_secs,
            sim_secs,
            out_bytes,
            ..
        } = e.event
        {
            ends += 1;
            assert!(wall_secs.is_finite() && wall_secs >= 0.0);
            assert!(sim_secs.is_finite() && sim_secs >= 0.0);
            assert!(out_bytes > 0, "transforms produce data");
        }
    }
    assert_eq!(ends, 2);
}
