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
use crate::ledger::{Ledger, Totals};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::Arc;

/// One charged entry on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEntry {
    /// Stage label (e.g. "featurize", "solve:lbfgs iter 3").
    pub stage: Arc<str>,
    /// Execution seconds on the critical-path node.
    pub exec_secs: f64,
    /// Coordination (network) seconds on the most loaded link.
    pub coord_secs: f64,
}

/// The sums the clock's totals readers return, accumulated in entry order;
/// `stages` is per stage prefix, in first-charged order.
#[derive(Debug, Clone)]
struct SimTotals {
    secs: f64,
    coord: f64,
    stages: Vec<(String, f64)>,
}

impl Default for SimTotals {
    fn default() -> Self {
        // `Iterator::sum` over `f64` starts from -0.0.
        SimTotals {
            secs: -0.0,
            coord: -0.0,
            stages: Vec::new(),
        }
    }
}

impl Totals<SimEntry> for SimTotals {
    fn absorb(&mut self, e: &SimEntry) {
        let secs = e.exec_secs + e.coord_secs;
        self.secs += secs;
        self.coord += e.coord_secs;
        let prefix = e.stage.split(':').next().unwrap_or_default();
        match self.stages.iter_mut().find(|(p, _)| p == prefix) {
            Some((_, total)) => *total += secs,
            // A stage's sum starts from +0.0, the overall ones from -0.0.
            None => self.stages.push((prefix.to_string(), 0.0 + secs)),
        }
    }
}

/// What was charged to one clock on one thread while a closure ran (see
/// [`SimClock::tally`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Execution plus coordination seconds, summed in charge order from
    /// `-0.0`, as `Iterator::sum` sums.
    pub secs: f64,
    /// Entries charged.
    pub entries: usize,
}

thread_local! {
    /// The open tallies on this thread, innermost last: the identity of the
    /// clock each counts, its seconds and its entries.
    static TALLIES: RefCell<Vec<(usize, f64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Thread-safe simulated clock. Cloning shares the underlying ledger.
///
/// [`SimClock::total_seconds`], [`SimClock::coord_seconds`] and
/// [`SimClock::by_stage`] sum every entry ever charged; every other reader
/// sees the entries held, which leave out what a quiet call charged
/// outside any window (see [`crate::ledger`]).
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    entries: Arc<Mutex<Ledger<SimEntry, SimTotals>>>,
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

    /// Charges a cost profile under a stage label.
    pub fn charge(&self, stage: impl Into<Arc<str>>, profile: &CostProfile, r: &ResourceDesc) {
        let (exec, coord) = (profile.exec_seconds(r), profile.coord_seconds(r));
        self.charge_seconds(stage, r.exec_weight * exec, r.coord_weight * coord);
    }

    /// Charges raw seconds directly (used when an operator measures a
    /// sample and extrapolates rather than deriving FLOPs analytically),
    /// under the current lane, and counts them in every tally of this
    /// clock open on the calling thread. An `Arc<str>` label is shared.
    pub fn charge_seconds(&self, stage: impl Into<Arc<str>>, exec_secs: f64, coord_secs: f64) {
        let stage = stage.into();
        let stage = match self.prefix.lock().as_deref() {
            Some(p) => format!("{p}:{stage}").into(),
            None => stage,
        };
        let (id, secs) = (Arc::as_ptr(&self.entries) as usize, exec_secs + coord_secs);
        TALLIES.with(|t| {
            for (_, sum, n) in t.borrow_mut().iter_mut().filter(|(c, ..)| *c == id) {
                *sum += secs;
                *n += 1;
            }
        });
        self.entries.lock().push(SimEntry {
            stage,
            exec_secs,
            coord_secs,
        });
    }

    /// Runs `f` and returns what was charged to this clock (or a clone) on
    /// the calling thread meanwhile — how one node run or serving wave is
    /// attributed its own charges while other threads charge the same
    /// clock. Tallies nest: an inner one's charges count in the outer too.
    pub fn tally<R>(&self, f: impl FnOnce() -> R) -> (R, Tally) {
        struct Pop;
        impl Drop for Pop {
            fn drop(&mut self) {
                TALLIES.with(|t| t.borrow_mut().pop());
            }
        }
        let id = Arc::as_ptr(&self.entries) as usize;
        TALLIES.with(|t| t.borrow_mut().push((id, -0.0, 0)));
        let pop = Pop;
        let out = f();
        let (_, secs, entries) = TALLIES.with(|t| *t.borrow().last().expect("opened above"));
        drop(pop);
        (out, Tally { secs, entries })
    }

    /// Total simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.entries.lock().totals().secs
    }

    /// Total simulated seconds attributed to coordination.
    pub fn coord_seconds(&self) -> f64 {
        self.entries.lock().totals().coord
    }

    /// Seconds grouped by stage prefix (everything before the first ':').
    pub fn by_stage(&self) -> Vec<(String, f64)> {
        self.entries.lock().totals().stages.clone()
    }

    /// Opaque position in the entries held: the number stored so far. An
    /// entry once stored stays, so a mark taken under a window still
    /// points at the same entry later; pass it to [`SimClock::since`].
    pub fn mark(&self) -> usize {
        self.entries.lock().rows().len()
    }

    /// Snapshot of the entries held.
    pub fn entries(&self) -> Vec<SimEntry> {
        self.entries.lock().rows().to_vec()
    }

    /// A detached clock holding only the entries charged at `mark` onward
    /// ([`SimClock::mark`] taken earlier) — how one run on a reused context
    /// reads its own part of the ledger.
    pub fn since(&self, mark: usize) -> SimClock {
        SimClock {
            entries: Arc::new(Mutex::new(self.entries.lock().since(mark))),
            prefix: Arc::default(),
        }
    }

    /// Opens (`true`) or closes (`false`) one window on the ledger: while
    /// any is open, every entry is stored.
    pub fn window(&self, open: bool) {
        self.entries.lock().window(open);
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
            .rows()
            .iter()
            .map(|e| {
                let start = t;
                t += e.exec_secs + e.coord_secs;
                (start, e.clone())
            })
            .collect()
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
    fn a_tally_counts_this_threads_charges_in_order() {
        let clock = SimClock::new();
        clock.charge_seconds("before", 1.0, 0.0);
        let (_, empty) = clock.tally(|| ());
        assert_eq!(
            (empty.secs.to_bits(), empty.entries),
            ((-0.0f64).to_bits(), 0)
        );
        let ((_, inner), outer) = clock.tally(|| {
            clock.charge_seconds("during", 2.0, 0.5);
            let inner = clock
                .clone()
                .tally(|| clock.charge_seconds("inner", 0.25, 0.0));
            // Another thread's charge and another clock's are not counted.
            std::thread::scope(|s| {
                s.spawn(|| clock.charge_seconds("elsewhere", 8.0, 0.0));
            });
            SimClock::new().charge_seconds("other clock", 16.0, 0.0);
            inner
        });
        assert_eq!((inner.secs, inner.entries), (0.25, 1));
        assert_eq!((outer.secs, outer.entries), (2.75, 2));
        let unwound = std::panic::catch_unwind(|| clock.tally(|| panic!("work failed")));
        assert!(unwound.is_err());
        let (_, after) = clock.tally(|| clock.charge_seconds("after", 1.0, 0.0));
        assert_eq!((after.secs, after.entries), (1.0, 1));
    }

    #[test]
    fn since_a_mark_detaches_the_later_entries() {
        let clock = SimClock::new();
        clock.charge_seconds("before", 1.0, 0.0);
        let mark = clock.mark();
        clock.charge_seconds("during", 2.0, 0.5);
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
        assert_eq!(&*tl[1].1.stage, "b");
    }

    #[test]
    fn clones_share_ledger() {
        let clock = SimClock::new();
        let clone = clock.clone();
        clone.charge_seconds("x", 1.5, 0.0);
        assert_eq!(clock.total_seconds(), 1.5);
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
