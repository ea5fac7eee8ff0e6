//! The budgeted cache-management layer.
//!
//! The paper adds "an additional cache-management layer that is aware of the
//! multiple Spark jobs that comprise a pipeline" (§5). This module is that
//! layer: node outputs are cached as erased `Arc`s with explicit byte sizes
//! against a cluster-wide budget, under one of three policies:
//!
//! * [`CachePolicy::Pinned`] — only the set chosen by the whole-pipeline
//!   materialization optimizer is admitted (the *KeystoneML* strategy of
//!   Fig. 10). Pinned entries are never evicted.
//! * [`CachePolicy::Lru`] — least-recently-used eviction with Spark-style
//!   admission control: objects larger than `admission_fraction × budget`
//!   are never admitted. (The paper's Fig. 10 discussion observes that this
//!   implicit admission policy causes LRU anomalies.)
//! * `Lru` with `admission_fraction = 1.0` — the naïve "cache everything"
//!   strategy.

use parking_lot::Mutex;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Type-erased cached value.
pub type CachedValue = Arc<dyn Any + Send + Sync>;

/// Observer of cache-manager decisions, for tracing layers that want the
/// per-key story (which node hit, which was evicted to make room) rather
/// than the aggregate [`CacheStats`] counters.
///
/// Callbacks fire *after* the cache lock is released, in the order the
/// decisions were made within one operation, so implementations may call
/// back into the cache (the serving layer's many small concurrent lookups
/// made the old hold-the-lock contract a deadlock hazard). The trade-off:
/// under concurrent use, callbacks from different threads interleave in
/// scheduling order rather than strict cache-state order; within a single
/// thread the stream is unchanged.
pub trait CacheObserver: Send + Sync {
    /// A lookup found `key` resident.
    fn on_hit(&self, key: u64) {
        let _ = key;
    }
    /// A lookup missed `key`.
    fn on_miss(&self, key: u64) {
        let _ = key;
    }
    /// `key` was admitted at `size` bytes.
    fn on_admit(&self, key: u64, size: u64) {
        let _ = (key, size);
    }
    /// `key` was evicted to make room.
    fn on_evict(&self, key: u64) {
        let _ = key;
    }
    /// An offer of `key` was refused by policy or size.
    fn on_reject(&self, key: u64) {
        let _ = key;
    }
    /// `key` was explicitly invalidated (e.g. a simulated executor lost the
    /// block), distinct from a capacity eviction.
    fn on_invalidate(&self, key: u64) {
        let _ = key;
    }
}

/// Admission/eviction policy.
#[derive(Debug, Clone)]
pub enum CachePolicy {
    /// Admit only the listed keys; never evict them.
    Pinned(HashSet<u64>),
    /// LRU eviction; admit only objects `<= admission_fraction * budget`.
    Lru {
        /// Fraction of the budget above which a single object is refused
        /// admission (Spark uses a similar implicit rule).
        admission_fraction: f64,
    },
}

/// Hit/miss counters for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Put calls refused by policy or size.
    pub rejected: u64,
    /// Entries explicitly invalidated (lost blocks), not capacity evictions.
    pub invalidations: u64,
}

struct Entry {
    value: CachedValue,
    size: u64,
    last_used: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    used: u64,
    clock: u64,
    stats: CacheStats,
    /// Keys an adaptive plan revision added to a [`CachePolicy::Pinned`]
    /// membership after construction (see [`CacheManager::promote`]).
    promoted: HashSet<u64>,
    /// Keys an adaptive plan revision removed from a
    /// [`CachePolicy::Pinned`] membership (see [`CacheManager::demote`]).
    demoted: HashSet<u64>,
}

/// One observer notification, buffered inside the locked section and
/// replayed once the lock is released (see [`CacheObserver`]).
#[derive(Debug, Clone, Copy)]
enum Note {
    Hit(u64),
    Miss(u64),
    Admit(u64, u64),
    Evict(u64),
    Reject(u64),
    Invalidate(u64),
}

/// Budgeted, policy-driven cache of erased node outputs.
pub struct CacheManager {
    budget: u64,
    policy: CachePolicy,
    observer: Option<Arc<dyn CacheObserver>>,
    inner: Mutex<Inner>,
}

impl CacheManager {
    /// Creates a cache with a byte budget and a policy.
    pub fn new(budget: u64, policy: CachePolicy) -> Self {
        CacheManager {
            budget,
            policy,
            observer: None,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                used: 0,
                clock: 0,
                stats: CacheStats::default(),
                promoted: HashSet::new(),
                demoted: HashSet::new(),
            }),
        }
    }

    /// Attaches an observer that is notified of every hit, miss, admission,
    /// eviction, and rejection.
    pub fn with_observer(mut self, observer: Arc<dyn CacheObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Replays the notes an operation buffered while it held the lock.
    /// Called only after the lock guard is dropped.
    fn emit(&self, notes: &[Note]) {
        let Some(obs) = &self.observer else {
            return;
        };
        for note in notes {
            match *note {
                Note::Hit(k) => obs.on_hit(k),
                Note::Miss(k) => obs.on_miss(k),
                Note::Admit(k, size) => obs.on_admit(k, size),
                Note::Evict(k) => obs.on_evict(k),
                Note::Reject(k) => obs.on_reject(k),
                Note::Invalidate(k) => obs.on_invalidate(k),
            }
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.inner.lock().used
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Keys currently resident, in ascending key order. The backing store is
    /// a `HashMap`, so the raw iteration order would vary run to run; sorting
    /// at this boundary keeps every consumer (reports, tests, trace dumps)
    /// deterministic.
    pub fn resident_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.inner.lock().entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Adds `key` to a [`CachePolicy::Pinned`] membership after
    /// construction. Used by adaptive plan revisions to promote a
    /// materialization pick the recalibrated cost model now wants. A no-op
    /// under [`CachePolicy::Lru`], which already considers every key.
    pub fn promote(&self, key: u64) {
        let mut inner = self.inner.lock();
        inner.demoted.remove(&key);
        inner.promoted.insert(key);
    }

    /// Removes `key` from a [`CachePolicy::Pinned`] membership and drops
    /// any resident entry, releasing its bytes. Returns `true` if an entry
    /// was resident and dropped. The drop is an *eviction* (a deliberate
    /// policy decision), not an invalidation: observers see `on_evict` and
    /// the executor's lineage recompute covers any later demand.
    pub fn demote(&self, key: u64) -> bool {
        let (dropped, note) = {
            let mut inner = self.inner.lock();
            inner.promoted.remove(&key);
            inner.demoted.insert(key);
            match inner.entries.remove(&key) {
                Some(e) => {
                    inner.used -= e.size;
                    inner.stats.evictions += 1;
                    (true, Some(Note::Evict(key)))
                }
                None => (false, None),
            }
        };
        if let Some(note) = note {
            self.emit(&[note]);
        }
        dropped
    }

    /// Looks up a cached value, updating recency.
    pub fn get(&self, key: u64) -> Option<CachedValue> {
        let (result, note) = {
            let mut inner = self.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            match inner.entries.get_mut(&key) {
                Some(e) => {
                    e.last_used = clock;
                    let v = e.value.clone();
                    inner.stats.hits += 1;
                    (Some(v), Note::Hit(key))
                }
                None => {
                    inner.stats.misses += 1;
                    (None, Note::Miss(key))
                }
            }
        };
        self.emit(&[note]);
        result
    }

    /// Offers a value for caching. Returns `true` if it was admitted.
    ///
    /// Re-offering a resident key at the same size is a hit: recency is
    /// bumped and `on_hit` fires — the same outcome a lookup would have
    /// had, so trace counters stay in step with executor behavior. The
    /// *stored value keeps the first-admitted `Arc`*: concurrent readers
    /// may hold it, and value identity is observable downstream
    /// (`DistCollection::content_id` hashes partition pointers), so
    /// swapping in an equal-but-distinct recomputation under a racing
    /// reader would make two lookups of one key disagree on identity. A
    /// re-offer at a *different* size drops the stale entry (its accounting
    /// would otherwise desync `used`) and runs the normal admission path
    /// for the new size.
    pub fn put(&self, key: u64, value: CachedValue, size: u64) -> bool {
        let mut notes = Vec::new();
        let admitted = {
            let mut inner = self.inner.lock();
            self.put_locked(&mut inner, key, value, size, &mut notes)
        };
        self.emit(&notes);
        admitted
    }

    fn put_locked(
        &self,
        inner: &mut Inner,
        key: u64,
        value: CachedValue,
        size: u64,
        notes: &mut Vec<Note>,
    ) -> bool {
        match inner.entries.get(&key).map(|e| e.size == size) {
            Some(true) => {
                inner.clock += 1;
                let clock = inner.clock;
                let e = inner.entries.get_mut(&key).expect("resident");
                e.last_used = clock;
                inner.stats.hits += 1;
                notes.push(Note::Hit(key));
                return true;
            }
            Some(false) => {
                let old = inner.entries.remove(&key).expect("resident");
                inner.used -= old.size;
                inner.stats.invalidations += 1;
                notes.push(Note::Invalidate(key));
            }
            None => {}
        }
        match &self.policy {
            CachePolicy::Pinned(set) => {
                let member = (set.contains(&key) && !inner.demoted.contains(&key))
                    || inner.promoted.contains(&key);
                if !member || size > self.budget.saturating_sub(inner.used) {
                    inner.stats.rejected += 1;
                    notes.push(Note::Reject(key));
                    return false;
                }
                inner.clock += 1;
                let clock = inner.clock;
                inner.entries.insert(
                    key,
                    Entry {
                        value,
                        size,
                        last_used: clock,
                    },
                );
                inner.used += size;
                notes.push(Note::Admit(key, size));
                true
            }
            CachePolicy::Lru { admission_fraction } => {
                let max_object = (self.budget as f64 * admission_fraction) as u64;
                if size > max_object || size > self.budget {
                    inner.stats.rejected += 1;
                    notes.push(Note::Reject(key));
                    return false;
                }
                // Evict LRU entries until the new object fits.
                // Tie-break equal recency timestamps by key: `min_by_key`
                // over a HashMap otherwise resolves ties in iteration order,
                // which differs between processes.
                while inner.used + size > self.budget {
                    let victim = inner
                        .entries
                        .iter()
                        .min_by_key(|(&k, e)| (e.last_used, k))
                        .map(|(&k, _)| k);
                    match victim {
                        Some(k) => {
                            let e = inner.entries.remove(&k).expect("victim exists");
                            inner.used -= e.size;
                            inner.stats.evictions += 1;
                            notes.push(Note::Evict(k));
                        }
                        None => {
                            inner.stats.rejected += 1;
                            notes.push(Note::Reject(key));
                            return false;
                        }
                    }
                }
                inner.clock += 1;
                let clock = inner.clock;
                inner.entries.insert(
                    key,
                    Entry {
                        value,
                        size,
                        last_used: clock,
                    },
                );
                inner.used += size;
                notes.push(Note::Admit(key, size));
                true
            }
        }
    }

    /// Drops a resident entry (a lost block, not a capacity eviction) and
    /// releases its bytes. Returns `true` if the key was resident. Fires
    /// `on_invalidate` so trace sinks can distinguish loss from eviction.
    pub fn invalidate(&self, key: u64) -> bool {
        let removed = {
            let mut inner = self.inner.lock();
            match inner.entries.remove(&key) {
                Some(e) => {
                    inner.used -= e.size;
                    inner.stats.invalidations += 1;
                    true
                }
                None => false,
            }
        };
        if removed {
            self.emit(&[Note::Invalidate(key)]);
        }
        removed
    }

    /// Drops everything (keeps counters).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.used = 0;
    }
}

impl std::fmt::Debug for CacheManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CacheManager")
            .field("budget", &self.budget)
            .field("used", &inner.used)
            .field("entries", &inner.entries.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(x: i64) -> CachedValue {
        Arc::new(x)
    }

    #[test]
    fn pinned_admits_only_members() {
        let set: HashSet<u64> = [1, 2].into_iter().collect();
        let c = CacheManager::new(100, CachePolicy::Pinned(set));
        assert!(c.put(1, val(10), 40));
        assert!(!c.put(3, val(30), 10), "non-member admitted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_none());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn pinned_respects_budget() {
        let set: HashSet<u64> = [1, 2].into_iter().collect();
        let c = CacheManager::new(50, CachePolicy::Pinned(set));
        assert!(c.put(1, val(1), 40));
        assert!(!c.put(2, val(2), 20), "over budget admitted");
        assert_eq!(c.used(), 40);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        assert!(c.put(1, val(1), 40));
        assert!(c.put(2, val(2), 40));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        assert!(c.put(3, val(3), 40));
        assert!(c.get(1).is_some(), "recently used entry evicted");
        assert!(c.get(2).is_none(), "LRU entry survived");
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_admission_control_rejects_huge_objects() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 0.5,
            },
        );
        assert!(!c.put(1, val(1), 60), "oversized object admitted");
        assert!(c.put(2, val(2), 50));
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn downcast_roundtrip() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        c.put(7, Arc::new(vec![1u8, 2, 3]), 3);
        let v = c.get(7).expect("cached");
        let bytes = v.downcast::<Vec<u8>>().expect("type");
        assert_eq!(*bytes, vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_put_is_idempotent() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        assert!(c.put(1, val(1), 30));
        assert!(c.put(1, val(1), 30));
        assert_eq!(c.used(), 30);
        // The re-offer counts as a hit, not a silent no-op.
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn resident_put_bumps_recency_and_keeps_first_value() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        assert!(c.put(1, val(10), 40));
        assert!(c.put(2, val(20), 40));
        // Re-offering key 1 bumps its recency, so key 2 is now the LRU
        // victim — before the fix this was a no-op and key 1 got evicted.
        assert!(c.put(1, val(11), 40));
        assert!(c.put(3, val(30), 40));
        assert!(c.get(1).is_some(), "recently re-offered entry evicted");
        assert!(c.get(2).is_none(), "LRU entry survived");
        // First write wins: the originally admitted value stays resident, so
        // readers holding the old Arc and fresh lookups agree on identity.
        let v = c.get(1).expect("resident");
        assert_eq!(*v.downcast::<i64>().expect("type"), 10);
    }

    #[test]
    fn same_size_reoffer_preserves_value_identity() {
        // The serving pattern: two waves race to compute the same
        // request-independent node and both offer it. Whoever wins, every
        // subsequent lookup must return the *same* Arc — pointer identity
        // is observable via `DistCollection::content_id`.
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        let first: CachedValue = Arc::new(7i64);
        assert!(c.put(1, first.clone(), 16));
        let held = c.get(1).expect("resident");
        assert!(c.put(1, Arc::new(7i64), 16), "re-offer not a hit");
        let after = c.get(1).expect("resident");
        assert!(
            Arc::ptr_eq(&held, &after),
            "same-size re-offer replaced the resident Arc under a reader"
        );
        assert!(Arc::ptr_eq(&after, &first));
    }

    /// An observer that re-enters the cache from its callbacks. Before the
    /// buffered-notification fix, callbacks fired while the cache lock was
    /// held, so this deadlocked; now callbacks run outside the lock and
    /// re-entrancy is legal.
    struct Reentrant {
        cache: Mutex<Option<Arc<CacheManager>>>,
        seen: Mutex<Vec<String>>,
    }
    impl CacheObserver for Reentrant {
        fn on_hit(&self, key: u64) {
            let guard = self.cache.lock();
            if let Some(c) = guard.as_ref() {
                // A stats probe and a foreign-key lookup, both of which
                // take the cache lock.
                let stats = c.stats();
                let other = c.get(key + 1000).is_some();
                self.seen
                    .lock()
                    .push(format!("hit:{key}:hits={}:other={other}", stats.hits));
            }
        }
    }

    #[test]
    fn observer_may_reenter_the_cache() {
        let obs = Arc::new(Reentrant {
            cache: Mutex::new(None),
            seen: Mutex::new(Vec::new()),
        });
        let c = Arc::new(
            CacheManager::new(
                100,
                CachePolicy::Lru {
                    admission_fraction: 1.0,
                },
            )
            .with_observer(obs.clone()),
        );
        *obs.cache.lock() = Some(c.clone());
        assert!(c.put(1, val(1), 10));
        let _ = c.get(1); // on_hit re-enters: stats() + get(1001)
        let seen = obs.seen.lock().clone();
        assert_eq!(seen, vec!["hit:1:hits=1:other=false"]);
        // Drop the cycle so the test leaks nothing.
        *obs.cache.lock() = None;
    }

    #[test]
    fn concurrent_small_lookups_keep_stats_and_identity_consistent() {
        // The serving workload: many threads issuing small lookups and
        // re-offers against one fitted pipeline's materialized set. Checks
        // (a) no hit/miss undercounting, (b) the resident Arc is stable,
        // (c) `used` stays truthful.
        const THREADS: usize = 8;
        const OPS: usize = 200;
        let c = Arc::new(CacheManager::new(
            10_000,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        ));
        let original: CachedValue = Arc::new(42i64);
        assert!(c.put(7, original.clone(), 100));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = c.clone();
                let original = original.clone();
                s.spawn(move || {
                    for i in 0..OPS {
                        let got = c.get(7).expect("resident entry vanished");
                        assert!(
                            Arc::ptr_eq(&got, &original),
                            "resident Arc replaced under concurrent readers"
                        );
                        if i % 3 == t % 3 {
                            // Competing same-size re-offer (counts as a hit).
                            assert!(c.put(7, Arc::new(42i64), 100));
                        }
                    }
                });
            }
        });
        let s = c.stats();
        let reoffers: u64 = (0..THREADS)
            .map(|t| (0..OPS).filter(|i| i % 3 == t % 3).count() as u64)
            .sum();
        assert_eq!(
            s.hits,
            (THREADS * OPS) as u64 + reoffers,
            "hit accounting lost updates under concurrency"
        );
        assert_eq!(s.misses, 0);
        assert_eq!(c.used(), 100, "size accounting drifted");
        assert_eq!(c.resident_keys(), vec![7]);
    }

    #[test]
    fn resident_put_with_new_size_reaccounts() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        assert!(c.put(1, val(1), 30));
        assert_eq!(c.used(), 30);
        // Same key, different size: the stale entry is dropped and the new
        // size admitted, keeping `used` truthful.
        assert!(c.put(1, val(2), 50));
        assert_eq!(c.used(), 50);
        assert_eq!(c.stats().invalidations, 1);
        // Shrinking works the same way.
        assert!(c.put(1, val(3), 10));
        assert_eq!(c.used(), 10);
        // A size-changed re-offer that fails admission leaves the key gone
        // rather than resident with stale accounting.
        let tight = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 0.5,
            },
        );
        assert!(tight.put(7, val(1), 40));
        assert!(!tight.put(7, val(2), 60), "oversized re-offer admitted");
        assert!(tight.get(7).is_none());
        assert_eq!(tight.used(), 0);
    }

    #[test]
    fn lru_admission_boundary_truncation() {
        // budget 10 × fraction 0.35 = 3.5, truncated to a 3-byte cap: an
        // exact-fit 3-byte object is admitted, 4 bytes is rejected.
        let c = CacheManager::new(
            10,
            CachePolicy::Lru {
                admission_fraction: 0.35,
            },
        );
        assert!(c.put(1, val(1), 3), "exact-fit object rejected");
        assert!(!c.put(2, val(2), 4), "over-cap object admitted");
        assert_eq!(c.stats().rejected, 1);
        // fraction 1.0 admits exactly up to the budget.
        let full = CacheManager::new(
            10,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        assert!(full.put(1, val(1), 10));
        assert!(!full.put(2, val(2), 11));
    }

    #[test]
    fn invalidate_releases_bytes_and_counts() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        assert!(c.put(1, val(1), 30));
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1), "double invalidate reported success");
        assert_eq!(c.used(), 0);
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.get(1).is_none());
        // The freed room is reusable.
        assert!(c.put(2, val(2), 100));
    }

    #[test]
    fn clear_resets_usage() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        c.put(1, val(1), 30);
        c.clear();
        assert_eq!(c.used(), 0);
        assert!(c.get(1).is_none());
    }

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<String>>,
    }
    impl CacheObserver for Recorder {
        fn on_hit(&self, key: u64) {
            self.events.lock().push(format!("hit:{key}"));
        }
        fn on_miss(&self, key: u64) {
            self.events.lock().push(format!("miss:{key}"));
        }
        fn on_admit(&self, key: u64, size: u64) {
            self.events.lock().push(format!("admit:{key}:{size}"));
        }
        fn on_evict(&self, key: u64) {
            self.events.lock().push(format!("evict:{key}"));
        }
        fn on_reject(&self, key: u64) {
            self.events.lock().push(format!("reject:{key}"));
        }
        fn on_invalidate(&self, key: u64) {
            self.events.lock().push(format!("invalidate:{key}"));
        }
    }

    #[test]
    fn observer_sees_invalidations() {
        let rec = Arc::new(Recorder::default());
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        )
        .with_observer(rec.clone());
        assert!(c.put(1, val(1), 30));
        assert!(c.invalidate(1));
        assert!(c.put(2, val(2), 30));
        assert!(c.put(2, val(2), 40)); // size change → invalidate + admit
        let events = rec.events.lock().clone();
        assert_eq!(
            events,
            vec![
                "admit:1:30",
                "invalidate:1",
                "admit:2:30",
                "invalidate:2",
                "admit:2:40",
            ]
        );
    }

    #[test]
    fn observer_sees_the_full_story() {
        let rec = Arc::new(Recorder::default());
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 0.5,
            },
        )
        .with_observer(rec.clone());
        let _ = c.get(1); // miss
        assert!(c.put(1, val(1), 40)); // admit
        let _ = c.get(1); // hit
        assert!(!c.put(2, val(2), 60)); // reject (oversized)
        assert!(c.put(3, val(3), 50)); // admit
        assert!(c.put(4, val(4), 40)); // evicts LRU (key 1), admit
        let events = rec.events.lock().clone();
        assert_eq!(
            events,
            vec![
                "miss:1",
                "admit:1:40",
                "hit:1",
                "reject:2",
                "admit:3:50",
                "evict:1",
                "admit:4:40",
            ]
        );
        // Observer totals agree with the aggregate counters.
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.rejected, 1);
    }

    #[test]
    fn promote_opens_pinned_membership() {
        let set: HashSet<u64> = [1].into_iter().collect();
        let c = CacheManager::new(100, CachePolicy::Pinned(set));
        assert!(!c.put(5, val(5), 10), "non-member admitted");
        c.promote(5);
        assert!(c.put(5, val(5), 10), "promoted key rejected");
        assert!(c.get(5).is_some());
        // Original members are unaffected.
        assert!(c.put(1, val(1), 10), "member rejected");
    }

    #[test]
    fn demote_closes_membership_and_evicts_resident_entry() {
        let rec = Arc::new(Recorder::default());
        let set: HashSet<u64> = [1, 2].into_iter().collect();
        let c = CacheManager::new(100, CachePolicy::Pinned(set)).with_observer(rec.clone());
        assert!(c.put(1, val(1), 40));
        assert!(c.demote(1), "resident entry not dropped");
        assert!(c.get(1).is_none());
        assert_eq!(c.used(), 0, "demote did not release bytes");
        assert!(!c.put(1, val(1), 40), "demoted key re-admitted");
        // The drop is an eviction (a policy decision), never an invalidation.
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().invalidations, 0);
        let events = rec.events.lock().clone();
        assert_eq!(events, vec!["admit:1:40", "evict:1", "miss:1", "reject:1"]);
        // Demoting a non-resident key reports nothing dropped.
        assert!(!c.demote(2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn promote_after_demote_reopens_membership() {
        let set: HashSet<u64> = [1].into_iter().collect();
        let c = CacheManager::new(100, CachePolicy::Pinned(set));
        c.demote(1);
        assert!(!c.put(1, val(1), 10), "demoted key admitted");
        c.promote(1);
        assert!(c.put(1, val(1), 10), "re-promoted key rejected");
        // And the freed budget from a demotion is usable by a promotion.
        let tight = CacheManager::new(40, CachePolicy::Pinned([7u64].into_iter().collect()));
        assert!(tight.put(7, val(7), 40));
        assert!(!tight.put(8, val(8), 40));
        tight.demote(7);
        tight.promote(8);
        assert!(tight.put(8, val(8), 40), "freed budget not reusable");
    }

    #[test]
    fn resident_keys_are_sorted() {
        let c = CacheManager::new(
            1000,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        // Insert in a scrambled order; the boundary must still sort.
        for k in [9u64, 2, 7, 1, 5, 3, 8] {
            assert!(c.put(k, val(k as i64), 10));
        }
        let keys = c.resident_keys();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "resident_keys not sorted: {keys:?}");
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn eviction_ties_resolve_by_smallest_key() {
        // Two runs with identical operations must evict the same victim even
        // when recency timestamps tie. Recency is bumped per operation so
        // real ties cannot arise through the public API; this pins the
        // tie-break contract directly on the selection expression instead.
        let run = || {
            let rec = Arc::new(Recorder::default());
            let c = CacheManager::new(
                100,
                CachePolicy::Lru {
                    admission_fraction: 1.0,
                },
            )
            .with_observer(rec.clone());
            for k in [4u64, 1, 3, 2] {
                assert!(c.put(k, val(k as i64), 25));
            }
            // Full: the next admit must evict exactly the LRU entry (key 4).
            assert!(c.put(9, val(9), 25));
            let events = rec.events.lock().clone();
            events
        };
        let first = run();
        assert_eq!(first, run(), "eviction schedule not reproducible");
        assert!(first.contains(&"evict:4".to_string()), "events: {first:?}");
    }

    #[test]
    fn hit_miss_counting() {
        let c = CacheManager::new(
            100,
            CachePolicy::Lru {
                admission_fraction: 1.0,
            },
        );
        c.put(1, val(1), 10);
        let _ = c.get(1);
        let _ = c.get(2);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }
}
