//! The simulated cluster clock.
//!
//! Real execution in this reproduction happens on one machine, so wall-clock
//! time cannot exhibit cluster-scale effects (128-node scaling, 10 GbE
//! bottlenecks). `SimClock` accumulates *estimated* time from
//! [`CostProfile`]s charged by operators, split into execution and
//! coordination components per stage, so experiments such as Fig. 12 and
//! Table 6 can report the quantities the paper plots.

use crate::cluster::ResourceDesc;
use crate::cost::CostProfile;
use parking_lot::Mutex;
use std::sync::Arc;

/// One charged entry on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEntry {
    /// Stage label (e.g. "featurize", "solve:lbfgs iter 3").
    pub stage: String,
    /// Execution seconds on the critical-path node.
    pub exec_secs: f64,
    /// Coordination (network) seconds on the most loaded link.
    pub coord_secs: f64,
}

/// Thread-safe simulated clock. Cloning shares the underlying ledger.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    entries: Arc<Mutex<Vec<SimEntry>>>,
    /// Ambient lane prepended (as `lane:`) to every charged stage label
    /// inside [`SimClock::in_lane`], so charges operators make themselves
    /// (a solver's `solve:lbfgs`) land in the lane too.
    prefix: Arc<Mutex<Option<String>>>,
}

impl SimClock {
    /// Fresh, empty clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with every charge on this clock and its clones scoped into
    /// lane `name`, then restores the previous lane — also when `f` panics.
    pub fn in_lane<R>(&self, name: String, f: impl FnOnce() -> R) -> R {
        struct Restore<'a>(&'a Mutex<Option<String>>, Option<String>);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                *self.0.lock() = self.1.take();
            }
        }
        let _restore = Restore(&self.prefix, self.prefix.lock().replace(name));
        f()
    }

    fn labeled(&self, stage: &str) -> String {
        match self.prefix.lock().as_deref() {
            Some(p) => format!("{p}:{stage}"),
            None => stage.to_string(),
        }
    }

    /// Charges a cost profile under a stage label.
    pub fn charge(&self, stage: &str, profile: &CostProfile, r: &ResourceDesc) {
        let entry = SimEntry {
            stage: self.labeled(stage),
            exec_secs: r.exec_weight * profile.exec_seconds(r),
            coord_secs: r.coord_weight * profile.coord_seconds(r),
        };
        self.entries.lock().push(entry);
    }

    /// Charges raw seconds directly (used when an operator measures a
    /// sample and extrapolates rather than deriving FLOPs analytically).
    pub fn charge_seconds(&self, stage: &str, exec_secs: f64, coord_secs: f64) {
        let stage = self.labeled(stage);
        self.entries.lock().push(SimEntry {
            stage,
            exec_secs,
            coord_secs,
        });
    }

    /// Total simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.entries
            .lock()
            .iter()
            .map(|e| e.exec_secs + e.coord_secs)
            .sum()
    }

    /// Total simulated seconds attributed to coordination.
    pub fn coord_seconds(&self) -> f64 {
        self.entries.lock().iter().map(|e| e.coord_secs).sum()
    }

    /// Seconds grouped by stage prefix (everything before the first ':').
    pub fn by_stage(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for e in self.entries.lock().iter() {
            let key = e.stage.split(':').next().unwrap_or(&e.stage).to_string();
            if !totals.contains_key(&key) {
                order.push(key.clone());
            }
            *totals.entry(key).or_insert(0.0) += e.exec_secs + e.coord_secs;
        }
        order
            .into_iter()
            .map(|k| {
                let v = totals[&k];
                (k, v)
            })
            .collect()
    }

    /// Opaque position in the ledger; pair with [`SimClock::seconds_since`]
    /// to attribute a span of charges (e.g. one node's execution) without
    /// re-summing the whole ledger.
    pub fn mark(&self) -> usize {
        self.entries.lock().len()
    }

    /// Simulated seconds charged since `mark`.
    pub fn seconds_since(&self, mark: usize) -> f64 {
        self.entries
            .lock()
            .iter()
            .skip(mark)
            .map(|e| e.exec_secs + e.coord_secs)
            .sum()
    }

    /// Snapshot of all entries.
    pub fn entries(&self) -> Vec<SimEntry> {
        self.entries.lock().clone()
    }

    /// A detached clock holding only the entries charged at `mark` onward
    /// ([`SimClock::mark`] taken earlier) — how one run on a reused context
    /// reads its own part of the ledger.
    pub fn since(&self, mark: usize) -> SimClock {
        let entries = self.entries.lock();
        SimClock {
            entries: Arc::new(Mutex::new(entries[mark.min(entries.len())..].to_vec())),
            prefix: Arc::default(),
        }
    }

    /// Entries paired with cumulative start offsets (seconds): entry `i`
    /// starts where entry `i-1` ended. This is the sequential layout trace
    /// renderers use (see `keystone_core::export::chrome_trace_json`) —
    /// the ledger records durations, not timestamps, so the timeline is the
    /// canonical reconstruction.
    ///
    /// Note the layout is strictly sequential: charges that would overlap
    /// wall-clock time on a real cluster — e.g. the `recovery:` stages the
    /// executor books for retry backoff, which on a cluster a task waits out
    /// while other partitions run — are laid end to end here. The timeline
    /// is a cost ledger, not a schedule.
    pub fn timeline(&self) -> Vec<(f64, SimEntry)> {
        let mut t = 0.0;
        self.entries
            .lock()
            .iter()
            .map(|e| {
                let start = t;
                t += e.exec_secs + e.coord_secs;
                (start, e.clone())
            })
            .collect()
    }

    /// Clears the ledger.
    pub fn reset(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterProfile;

    #[test]
    fn charge_accumulates() {
        let clock = SimClock::new();
        let r = ClusterProfile::R3_4xlarge.descriptor(4);
        clock.charge(
            "solve",
            &CostProfile {
                flops: r.gflops_per_worker, // exactly 1 exec second
                bytes: 0.0,
                network: 0.0,
                barriers: 0.0,
            },
            &r,
        );
        clock.charge(
            "solve",
            &CostProfile {
                flops: 0.0,
                bytes: 0.0,
                network: r.net_bandwidth, // exactly 1 coord second
                barriers: 0.0,
            },
            &r,
        );
        assert!((clock.total_seconds() - 2.0).abs() < 1e-12);
        assert!((clock.coord_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_lane_scopes_charges_and_restores_the_previous_one() {
        let clock = SimClock::new();
        clock.charge_seconds("fit:a", 1.0, 0.0);
        clock.in_lane("tenant0".to_string(), || {
            clock.charge_seconds("solve:lbfgs", 2.0, 0.0);
            // The lane is shared by clones, like the ledger.
            clock.clone().charge_seconds("fit:b", 4.0, 0.0);
            // A nested lane restores the outer one when it ends.
            clock.in_lane("tenant1".to_string(), || ());
            clock.charge_seconds("fit:c", 8.0, 0.0);
        });
        // A panic unwinding out of a lane ends it too.
        let unwound = std::panic::catch_unwind(|| {
            clock.in_lane("tenant2".to_string(), || panic!("tenant failed"))
        });
        assert!(unwound.is_err());
        clock.charge_seconds("fit:d", 16.0, 0.0);
        assert_eq!(
            clock.by_stage(),
            vec![("fit".to_string(), 17.0), ("tenant0".to_string(), 14.0)]
        );
    }

    #[test]
    fn by_stage_groups_on_prefix() {
        let clock = SimClock::new();
        clock.charge_seconds("featurize:sift", 1.0, 0.0);
        clock.charge_seconds("featurize:fisher", 2.0, 0.0);
        clock.charge_seconds("solve:iter0", 0.0, 3.0);
        let stages = clock.by_stage();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0], ("featurize".to_string(), 3.0));
        assert_eq!(stages[1], ("solve".to_string(), 3.0));
    }

    #[test]
    fn mark_and_seconds_since_span_charges() {
        let clock = SimClock::new();
        clock.charge_seconds("before", 1.0, 0.0);
        let mark = clock.mark();
        assert_eq!(clock.seconds_since(mark), 0.0);
        clock.charge_seconds("during", 2.0, 0.5);
        assert!((clock.seconds_since(mark) - 2.5).abs() < 1e-12);
        assert!((clock.total_seconds() - 3.5).abs() < 1e-12);
        let window = clock.since(mark);
        assert_eq!(window.by_stage(), vec![("during".to_string(), 2.5)]);
        window.charge_seconds("detached", 1.0, 0.0);
        assert!((clock.total_seconds() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_lays_entries_end_to_end() {
        let clock = SimClock::new();
        clock.charge_seconds("a", 1.0, 0.5);
        clock.charge_seconds("b", 2.0, 0.0);
        let tl = clock.timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].0, 0.0);
        assert!((tl[1].0 - 1.5).abs() < 1e-12);
        assert_eq!(tl[1].1.stage, "b");
    }

    #[test]
    fn clones_share_ledger() {
        let clock = SimClock::new();
        let clone = clock.clone();
        clone.charge_seconds("x", 1.5, 0.0);
        assert_eq!(clock.total_seconds(), 1.5);
        clock.reset();
        assert_eq!(clone.total_seconds(), 0.0);
    }

    #[test]
    fn weights_applied_at_charge_time() {
        let mut r = ClusterProfile::R3_4xlarge.descriptor(1);
        r.exec_weight = 2.0;
        let clock = SimClock::new();
        clock.charge("w", &CostProfile::compute(r.gflops_per_worker), &r);
        assert!((clock.total_seconds() - 2.0).abs() < 1e-12);
    }
}
