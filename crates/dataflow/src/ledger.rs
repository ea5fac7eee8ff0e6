//! The row ledger under [`SimClock`](crate::simclock::SimClock), the
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) and the core
//! crate's `Tracer`: rows in recording order, plus running totals every row
//! is absorbed into, in that order, as it is recorded. A fold drops the
//! rows above the kept prefix and leaves the totals whole, so a reader of
//! totals reads the same bits whether or not anything folded.

/// What a ledger's rows add up to.
pub trait Totals<R>: Default {
    /// Adds one row. Rows arrive in recording order.
    fn absorb(&mut self, row: &R);

    /// Whether a fold may drop `row`; one it may not stays held.
    fn folds(_row: &R) -> bool {
        true
    }
}

/// Rows plus the totals of every row ever recorded.
#[derive(Debug)]
pub struct Ledger<R, T> {
    rows: Vec<R>,
    /// Rows below this index are never dropped.
    kept: usize,
    totals: T,
}

impl<R, T: Default> Default for Ledger<R, T> {
    fn default() -> Self {
        Ledger {
            rows: Vec::new(),
            kept: 0,
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
        let mut ledger = Ledger::default();
        ledger.extend(self.rows.get(mark..).unwrap_or_default().iter().cloned());
        ledger
    }

    /// Records one row.
    pub fn push(&mut self, row: R) {
        self.totals.absorb(&row);
        self.rows.push(row);
    }

    /// Records rows in order.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = R>) {
        rows.into_iter().for_each(|r| self.push(r));
    }

    /// The rows held, in recording order.
    pub fn rows(&self) -> &[R] {
        &self.rows
    }

    /// The totals over every row recorded, held or dropped.
    pub fn totals(&self) -> &T {
        &self.totals
    }

    /// Keeps every row held now through all later folds.
    pub fn keep(&mut self) {
        self.kept = self.rows.len();
    }

    /// Drops every row above the kept prefix that [`Totals::folds`],
    /// keeping the rest in order.
    pub fn fold(&mut self) {
        let mut held = self.kept;
        for i in self.kept..self.rows.len() {
            if !T::folds(&self.rows[i]) {
                self.rows.swap(held, i);
                held += 1;
            }
        }
        self.rows.truncate(held);
        self.kept = held;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums the rows, and keeps the negative ones.
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
    fn a_fold_keeps_the_kept_prefix_and_what_does_not_fold() {
        let mut l = Ledger::<f64, Sum>::default();
        l.extend([0.1, 0.2]);
        l.keep();
        l.extend([0.3, -1.0, 0.4]);
        l.fold();
        assert_eq!(l.rows(), [0.1, 0.2, -1.0]);
        l.push(0.5);
        l.fold();
        assert_eq!(l.rows(), [0.1, 0.2, -1.0]);
    }

    #[test]
    fn totals_equal_a_scan_of_every_row_in_order() {
        let rows = [0.1, 0.7, 0.3, -0.2, 1e-17, 0.9, 0.6];
        let mut l = Ledger::<f64, Sum>::default();
        for (i, &r) in rows.iter().enumerate() {
            l.push(r);
            match i % 3 {
                0 => l.fold(),
                1 => l.keep(),
                _ => {}
            }
            let scan = rows[..=i].iter().fold(0.0, |a, r| a + r);
            assert_eq!(l.totals().0.to_bits(), scan.to_bits());
        }
    }
}
