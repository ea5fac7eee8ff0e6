//! Columnar batch storage for dense `f64` feature vectors.
//!
//! A [`ColumnarBatch`] packs one partition's records into a single
//! contiguous `values` buffer plus an `offsets` index (CSR-style), so a
//! fused operator chain can run as tight loops over slices instead of
//! per-record boxed-closure dispatch. Records keep their identity — record
//! `i` is the slice `values[offsets[i]..offsets[i+1]]` — and may have
//! ragged lengths, which is what lets shape-changing per-record operators
//! (e.g. a half-swap or a projection) run columnar too.
//!
//! The batch is an *execution-time* representation: the optimizer's
//! columnar path gathers a `DistCollection<Vec<f64>>` partition into a
//! batch, ping-pongs it through the chain's kernels, and scatters the
//! result back out. Gather and scatter are each a single pass; everything
//! in between touches only contiguous memory.

/// One partition's records packed into contiguous storage.
///
/// Invariant: `offsets` is non-empty, starts at 0, is non-decreasing, and
/// ends at `values.len()`; record `i` occupies
/// `values[offsets[i]..offsets[i+1]]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarBatch {
    values: Vec<f64>,
    offsets: Vec<usize>,
}

impl ColumnarBatch {
    /// An empty batch with room for `values` doubles across `records`
    /// records.
    pub fn with_capacity(values: usize, records: usize) -> Self {
        let mut offsets = Vec::with_capacity(records + 1);
        offsets.push(0);
        ColumnarBatch {
            values: Vec::with_capacity(values),
            offsets,
        }
    }

    /// Gathers a slice of records into one contiguous batch (a single copy
    /// of each record's values).
    pub fn from_records(records: &[Vec<f64>]) -> Self {
        let mut batch = ColumnarBatch::default();
        batch.gather(records);
        batch
    }

    /// Replaces the batch's records with a copy of `records`, reusing its
    /// buffers.
    pub fn gather(&mut self, records: &[Vec<f64>]) {
        self.offsets.reserve(records.len() + 1);
        self.clear();
        self.values.reserve(records.iter().map(|r| r.len()).sum());
        for r in records {
            self.values.extend_from_slice(r);
            self.offsets.push(self.values.len());
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The packed value buffer (all records back to back).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Record `i` as a zero-copy slice view.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn record(&self, i: usize) -> &[f64] {
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates the records as zero-copy slice views.
    pub fn records(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.values[w[0]..w[1]])
    }

    /// Appends one record by letting `f` write its values directly onto the
    /// packed buffer — whatever `f` appends becomes the record, so kernels
    /// can produce a different length than they consumed.
    pub fn push_record_with(&mut self, f: impl FnOnce(&mut Vec<f64>)) {
        f(&mut self.values);
        self.offsets.push(self.values.len());
    }

    /// Clears the batch (retaining allocations) so it can be reused as the
    /// output side of a ping-pong pass.
    pub fn clear(&mut self) {
        self.values.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Scatters the batch back into per-record `Vec`s (one allocation per
    /// record, the inverse of [`ColumnarBatch::from_records`]).
    pub fn into_records(self) -> Vec<Vec<f64>> {
        self.offsets
            .windows(2)
            .map(|w| self.values[w[0]..w[1]].to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_view_scatter_roundtrip() {
        let records = vec![vec![1.0, 2.0], vec![], vec![3.0], vec![4.0, 5.0, 6.0]];
        let batch = ColumnarBatch::from_records(&records);
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        assert_eq!(batch.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(batch.record(0), &[1.0, 2.0]);
        assert_eq!(batch.record(1), &[] as &[f64]);
        assert_eq!(batch.record(3), &[4.0, 5.0, 6.0]);
        let views: Vec<&[f64]> = batch.records().collect();
        assert_eq!(views.len(), 4);
        assert_eq!(views[2], &[3.0]);
        assert_eq!(batch.into_records(), records);
    }

    #[test]
    fn empty_batch() {
        let batch = ColumnarBatch::from_records(&[]);
        assert_eq!(batch.len(), 0);
        assert!(batch.is_empty());
        assert_eq!(batch.records().count(), 0);
        assert_eq!(batch.into_records(), Vec::<Vec<f64>>::new());
    }

    #[test]
    fn push_record_with_supports_shape_changes() {
        let mut batch = ColumnarBatch::with_capacity(8, 3);
        batch.push_record_with(|out| out.extend_from_slice(&[1.0, 2.0, 3.0]));
        // A kernel may emit fewer (or more) values than it read.
        batch.push_record_with(|out| out.push(9.0));
        batch.push_record_with(|_| {});
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.record(0), &[1.0, 2.0, 3.0]);
        assert_eq!(batch.record(1), &[9.0]);
        assert_eq!(batch.record(2), &[] as &[f64]);
    }

    #[test]
    fn clear_retains_reusability() {
        let mut batch = ColumnarBatch::from_records(&[vec![1.0], vec![2.0, 3.0]]);
        batch.clear();
        assert!(batch.is_empty());
        batch.push_record_with(|out| out.push(7.0));
        assert_eq!(batch.record(0), &[7.0]);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn ping_pong_through_kernels() {
        // The exact loop shape the fused columnar driver uses: two batches
        // swapped through a chain of per-record kernels.
        let records: Vec<Vec<f64>> = (0..5)
            .map(|r| (0..4).map(|c| (r * 4 + c) as f64).collect())
            .collect();
        type Kernel = Box<dyn Fn(&[f64], &mut Vec<f64>)>;
        let kernels: Vec<Kernel> = vec![
            Box::new(|x, out| out.extend(x.iter().map(|v| v * 2.0))),
            Box::new(|x, out| out.extend(x.iter().map(|v| v + 1.0))),
        ];
        let mut batch = ColumnarBatch::from_records(&records);
        let mut next = ColumnarBatch::with_capacity(batch.values().len(), batch.len());
        for k in &kernels {
            next.clear();
            for i in 0..batch.len() {
                next.push_record_with(|out| k(batch.record(i), out));
            }
            std::mem::swap(&mut batch, &mut next);
        }
        let expect: Vec<Vec<f64>> = records
            .iter()
            .map(|r| r.iter().map(|v| v * 2.0 + 1.0).collect())
            .collect();
        assert_eq!(batch.into_records(), expect);
    }
}
