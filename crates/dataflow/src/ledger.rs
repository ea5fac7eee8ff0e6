//! The row ledger under [`SimClock`](crate::simclock::SimClock), the
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) and the core
//! crate's `Tracer`: rows in recording order, plus running totals every row
//! is absorbed into, in that order, as it is recorded.
//!
//! A row recorded inside [`quiet`] on the calling thread is absorbed into
//! the totals and not stored when its kind [`Totals::folds`] and no window
//! is open on the ledger ([`Ledger::window`]). Every other row is stored,
//! and a stored row is never dropped, so a mark into the rows stays good.
//! A reader of totals reads the same bits whether or not a row was stored.

use std::cell::Cell;

/// What a ledger's rows add up to.
pub trait Totals<R>: Default {
    /// Adds one row. Rows arrive in recording order.
    fn absorb(&mut self, row: &R);

    /// Whether a quiet call may leave `row` out of the rows; one it may
    /// not is always stored.
    fn folds(_row: &R) -> bool {
        true
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `call` quiet on the calling thread: every ledger it records into
/// with no window open absorbs the rows that fold without storing them.
/// The flag is restored when `call` returns or unwinds.
pub fn quiet<R>(call: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_quiet(self.0);
        }
    }
    let _restore = Restore(set_quiet(true));
    call()
}

/// Sets the calling thread's quiet flag and returns the one it replaces.
pub(crate) fn set_quiet(quiet: bool) -> bool {
    QUIET.with(|q| q.replace(quiet))
}

/// Rows plus the totals of every row ever recorded.
#[derive(Debug)]
pub struct Ledger<R, T> {
    rows: Vec<R>,
    /// Windows open on this ledger; while any is, every row is stored.
    windows: usize,
    totals: T,
}

impl<R, T: Default> Default for Ledger<R, T> {
    fn default() -> Self {
        Ledger {
            rows: Vec::new(),
            windows: 0,
            totals: T::default(),
        }
    }
}

impl<R, T: Totals<R>> Ledger<R, T> {
    /// A detached ledger that recorded the rows held from index `mark` on.
    pub fn since(&self, mark: usize) -> Self
    where
        R: Clone,
    {
        let rows = self.rows.get(mark..).unwrap_or_default().to_vec();
        let mut ledger = Ledger {
            rows,
            ..Self::default()
        };
        ledger.rows.iter().for_each(|r| ledger.totals.absorb(r));
        ledger
    }

    /// Records one row: absorbs it, and stores it unless a quiet call may
    /// leave it out.
    pub fn push(&mut self, row: R) {
        self.totals.absorb(&row);
        if self.windows > 0 || !T::folds(&row) || !QUIET.with(Cell::get) {
            self.rows.push(row);
        }
    }

    /// Records rows in order.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = R>) {
        rows.into_iter().for_each(|r| self.push(r));
    }

    /// The rows held, in recording order.
    pub fn rows(&self) -> &[R] {
        &self.rows
    }

    /// The totals over every row recorded, held or not.
    pub fn totals(&self) -> &T {
        &self.totals
    }

    /// Opens (`true`) or closes (`false`) one window on this ledger.
    pub fn window(&mut self, open: bool) {
        self.windows = if open {
            self.windows + 1
        } else {
            self.windows - 1
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums the rows; a negative one is always stored.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Sum(f64);
    impl Totals<f64> for Sum {
        fn absorb(&mut self, row: &f64) {
            self.0 += row;
        }
        fn folds(row: &f64) -> bool {
            *row >= 0.0
        }
    }

    #[test]
    fn a_quiet_push_stores_only_what_does_not_fold_or_a_window_holds() {
        let mut l = Ledger::<f64, Sum>::default();
        l.push(0.1);
        quiet(|| {
            l.extend([0.2, -1.0]);
            l.window(true);
            l.push(0.3);
            l.window(false);
            l.push(0.4);
        });
        l.push(0.5);
        assert_eq!(l.rows(), [0.1, -1.0, 0.3, 0.5]);
        assert_eq!(l.since(2).rows(), [0.3, 0.5]);
    }

    #[test]
    fn totals_equal_a_scan_of_every_row_in_order() {
        let rows = [0.1, 0.7, 0.3, -0.2, 1e-17, 0.9, 0.6];
        let mut l = Ledger::<f64, Sum>::default();
        for (i, &r) in rows.iter().enumerate() {
            if i % 2 == 0 {
                quiet(|| l.push(r));
            } else {
                l.push(r);
            }
            let scan = rows[..=i].iter().fold(0.0, |a, r| a + r);
            assert_eq!(l.totals().0.to_bits(), scan.to_bits());
        }
    }
}
