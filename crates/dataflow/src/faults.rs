//! Deterministic, seeded fault injection for the dataflow substrate.
//!
//! The paper's pipelines inherit fault tolerance from Spark's RDD lineage:
//! failed tasks are re-run and lost partitions are recomputed from their
//! lineage. This from-scratch engine has to provide (and *test*) that
//! machinery itself, so this module supplies the adversary: a [`FaultPlan`]
//! that decides — as a pure function of a seed and the task's identity —
//! which partition tasks fail, which become stragglers, and which cache
//! entries go missing.
//!
//! Determinism is the point. Every decision is keyed on
//! `(seed, stage, op, partition, attempt)` via splitmix64, so two runs with
//! the same seed inject byte-identical fault schedules, recovery statistics
//! are reproducible in CI, and a failing run can be replayed exactly.
//!
//! The plan only *decides*; the machinery that reacts to it lives where the
//! work happens. [`collection`](crate::collection) re-runs a failed partition
//! attempt — injected or a real panic — up to [`RETRY_LIMIT`] times and
//! sleeps a straggler's delay; the `keystone-core` executor charges each
//! retry's [`backoff_secs`] to the [`SimClock`](crate::simclock::SimClock)
//! and recomputes lost cache entries from their lineage.

use crate::rng_util::split_seed;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Failed attempts of one partition task that are re-run. The next failure
/// fails the job with that attempt's own panic.
pub const RETRY_LIMIT: u32 = 4;

/// Most injected failures one partition task takes, so a hostile seed can
/// never exhaust [`RETRY_LIMIT`]: a task that fails for good is a panicking
/// operator, not a plan setting.
pub const MAX_INJECTED_FAILURES: u32 = 2;
const _: () = assert!(MAX_INJECTED_FAILURES < RETRY_LIMIT);

/// First retry's backoff in simulated seconds; see [`backoff_secs`].
pub const BACKOFF_BASE_SECS: f64 = 1.0;

/// A straggler runs this many times its natural duration.
const STRAGGLER_MULTIPLIER: f64 = 4.0;

/// Simulated seconds the `attempt`-th retry waits before relaunching:
/// `BACKOFF_BASE_SECS × 2^attempt` (exponential backoff).
pub fn backoff_secs(attempt: u32) -> f64 {
    BACKOFF_BASE_SECS * f64::from(2u32.saturating_pow(attempt.min(30)))
}

/// What to inject. Probabilities are per decision point (per partition
/// task, per cache lookup).
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Seed all decisions derive from; same seed ⇒ same fault schedule.
    pub seed: u64,
    /// Probability that a partition task's next attempt fails.
    pub task_failure_prob: f64,
    /// Probability that a partition task is delayed into a straggler.
    pub straggler_prob: f64,
    /// Floor on a straggler's injected delay, microseconds, so even
    /// microsecond-scale tasks stall visibly.
    pub straggler_min_delay_us: u64,
    /// Probability that a cache lookup finds its entry lost (per lookup).
    pub cache_loss_prob: f64,
}

impl FaultSpec {
    /// A spec that injects nothing (all probabilities zero) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            task_failure_prob: 0.0,
            straggler_prob: 0.0,
            straggler_min_delay_us: 2_000,
            cache_loss_prob: 0.0,
        }
    }

    /// Sets the per-attempt task failure probability.
    pub fn with_task_failures(mut self, prob: f64) -> Self {
        self.task_failure_prob = prob;
        self
    }

    /// Sets the per-task straggler probability.
    pub fn with_stragglers(mut self, prob: f64) -> Self {
        self.straggler_prob = prob;
        self
    }

    /// Sets the per-lookup cache-entry loss probability.
    pub fn with_cache_loss(mut self, prob: f64) -> Self {
        self.cache_loss_prob = prob;
        self
    }

    /// Overrides the straggler delay floor.
    pub fn with_straggler_min_delay_us(mut self, us: u64) -> Self {
        self.straggler_min_delay_us = us;
        self
    }

    /// Freezes the spec into an injectable plan.
    pub fn into_plan(self) -> FaultPlan {
        FaultPlan::new(self)
    }
}

/// A frozen, cloneable fault schedule. Clones share the spec and the
/// per-key cache-probe counters, so one plan threaded through an
/// `ExecContext` sees every lookup in program order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: Arc<FaultSpec>,
    /// How many times each cache key has been probed for loss — the probe
    /// index salts the decision so a key isn't lost on every single lookup.
    cache_probes: Arc<Mutex<HashMap<u64, u64>>>,
}

// Domain-separation tags so the three decision streams never correlate.
const DOMAIN_FAILURE: u64 = 1;
const DOMAIN_STRAGGLER: u64 = 2;
const DOMAIN_CACHE: u64 = 3;

impl FaultPlan {
    /// Plan over a spec.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan {
            spec: Arc::new(spec),
            cache_probes: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Seeded Bernoulli trial: folds `words` into the seed and compares a
    /// 53-bit uniform draw against `prob`.
    fn chance(&self, words: &[u64], prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        if prob >= 1.0 {
            return true;
        }
        let mut h = self.spec.seed;
        for &w in words {
            h = split_seed(h, w);
        }
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < prob
    }

    /// How many attempts of the task `(stage_key, op_seq, partition)` fail
    /// before one succeeds, capped at [`MAX_INJECTED_FAILURES`]. Pure:
    /// recomputing the same task reports the same failure count.
    pub fn injected_failures(&self, stage_key: u64, op_seq: u64, partition: usize) -> u32 {
        let mut fails = 0u32;
        while fails < MAX_INJECTED_FAILURES
            && self.chance(
                &[
                    DOMAIN_FAILURE,
                    stage_key,
                    op_seq,
                    partition as u64,
                    fails as u64,
                ],
                self.spec.task_failure_prob,
            )
        {
            fails += 1;
        }
        fails
    }

    /// Extra microseconds of injected delay when this task is chosen as a
    /// straggler: the larger of `busy_us × (STRAGGLER_MULTIPLIER − 1)` and
    /// the delay floor, so even microsecond-scale tasks stall visibly.
    pub fn straggler_extra_us(
        &self,
        stage_key: u64,
        op_seq: u64,
        partition: usize,
        busy_us: u64,
    ) -> Option<u64> {
        if self.chance(
            &[DOMAIN_STRAGGLER, stage_key, op_seq, partition as u64],
            self.spec.straggler_prob,
        ) {
            let scaled = (busy_us as f64 * (STRAGGLER_MULTIPLIER - 1.0)).round() as u64;
            Some(scaled.max(self.spec.straggler_min_delay_us))
        } else {
            None
        }
    }

    /// Whether the cache entry under `key` is lost at this lookup. Each call
    /// advances the key's probe counter, so losses are spread across a run
    /// rather than repeated forever — and since lookups happen in a
    /// deterministic order, so are the losses.
    pub fn cache_entry_lost(&self, key: u64) -> bool {
        let probe = {
            let mut probes = self.cache_probes.lock();
            let c = probes.entry(key).or_insert(0);
            let p = *c;
            *c += 1;
            p
        };
        self.chance(&[DOMAIN_CACHE, key, probe], self.spec.cache_loss_prob)
    }
}

/// Stable 64-bit hash of a stage label, used as the fault key when a task
/// scope carries no stage id.
pub fn hash_label(label: &str) -> u64 {
    let mut h = split_seed(0xFA17_5EED, label.len() as u64);
    for b in label.as_bytes() {
        h = split_seed(h, u64::from(*b));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: FaultSpec) -> FaultPlan {
        spec.into_plan()
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = plan(
            FaultSpec::new(42)
                .with_task_failures(0.5)
                .with_stragglers(0.5),
        );
        let b = plan(
            FaultSpec::new(42)
                .with_task_failures(0.5)
                .with_stragglers(0.5),
        );
        for stage in 0..8u64 {
            for part in 0..8usize {
                assert_eq!(
                    a.injected_failures(stage, 0, part),
                    b.injected_failures(stage, 0, part)
                );
                assert_eq!(
                    a.straggler_extra_us(stage, 0, part, 100),
                    b.straggler_extra_us(stage, 0, part, 100)
                );
            }
        }
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = plan(FaultSpec::new(1).with_task_failures(0.5));
        let b = plan(FaultSpec::new(2).with_task_failures(0.5));
        let differ = (0..32u64)
            .any(|s| (0..8).any(|p| a.injected_failures(s, 0, p) != b.injected_failures(s, 0, p)));
        assert!(differ, "32 stages × 8 partitions agreed across seeds");
    }

    #[test]
    fn failure_counts_respect_the_cap() {
        let p = plan(FaultSpec::new(7).with_task_failures(1.0));
        assert_eq!(p.injected_failures(0, 0, 0), MAX_INJECTED_FAILURES);
        let none = plan(FaultSpec::new(7));
        assert_eq!(none.injected_failures(0, 0, 0), 0);
    }

    #[test]
    fn failure_rate_tracks_probability() {
        let p = plan(FaultSpec::new(99).with_task_failures(0.3));
        let trials = 2000;
        let failed = (0..trials)
            .filter(|&i| p.injected_failures(i, 0, 0) > 0)
            .count();
        let rate = failed as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed rate {rate}");
    }

    #[test]
    fn straggler_delay_has_a_floor_and_scales() {
        let p = plan(FaultSpec::new(5).with_stragglers(1.0));
        // Tiny task: floor applies.
        assert_eq!(p.straggler_extra_us(0, 0, 0, 10), Some(2_000));
        // Large task: multiplier applies (4× total ⇒ 3× extra).
        assert_eq!(p.straggler_extra_us(0, 0, 0, 10_000), Some(30_000));
        let never = plan(FaultSpec::new(5));
        assert_eq!(never.straggler_extra_us(0, 0, 0, 10_000), None);
    }

    #[test]
    fn cache_losses_advance_per_probe_and_replay_identically() {
        let spec = FaultSpec::new(11).with_cache_loss(0.5);
        let a = plan(spec.clone());
        let b = plan(spec);
        let seq_a: Vec<bool> = (0..64).map(|_| a.cache_entry_lost(3)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.cache_entry_lost(3)).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same loss stream");
        assert!(seq_a.iter().any(|&l| l), "p=0.5 over 64 probes never lost");
        assert!(
            !seq_a.iter().all(|&l| l),
            "p=0.5 over 64 probes always lost"
        );
    }

    #[test]
    fn backoff_is_exponential() {
        assert_eq!(backoff_secs(0), BACKOFF_BASE_SECS);
        assert_eq!(backoff_secs(1), 2.0 * BACKOFF_BASE_SECS);
        assert_eq!(backoff_secs(3), 8.0 * BACKOFF_BASE_SECS);
    }

    #[test]
    fn hash_label_separates_labels() {
        assert_ne!(hash_label("transform:a"), hash_label("transform:b"));
        assert_eq!(hash_label("fit:x"), hash_label("fit:x"));
    }
}
