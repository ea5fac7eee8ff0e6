//! Row-major dense matrices and the vector helpers built on plain `Vec<f64>`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A row-major dense matrix of `f64`.
///
/// The element at row `i`, column `j` lives at `data[i * cols + j]`. Storage
/// is a single contiguous allocation, which keeps GEMM and decomposition
/// kernels cache-friendly and lets rows be handed out as slices.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        DenseMatrix { rows, cols, data }
    }

    /// Builds a matrix whose rows are the given slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the raw row-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the raw row-major storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Iterator over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t.data[j * self.rows + i] = v;
            }
        }
        t
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        self.iter_rows().map(|row| dot(row, x)).collect()
    }

    /// Transposed matrix-vector product `self^T * x`.
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "tr_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, row) in self.iter_rows().enumerate() {
            axpy(x[i], row, &mut out);
        }
        out
    }

    /// Sub-matrix copy of rows `r0..r1` and columns `c0..c1`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> DenseMatrix {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let mut out = DenseMatrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Copy of the selected rows, in the given order.
    pub fn select_rows(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i));
        }
        out
    }

    /// Copy of the selected columns, in the given order.
    pub fn select_cols(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            let row = self.row(i);
            for (o, &j) in idx.iter().enumerate() {
                out.data[i * idx.len() + o] = row[j];
            }
        }
        out
    }

    /// Stacks `self` on top of `other`.
    pub fn vstack(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        DenseMatrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Concatenates `self` and `other` horizontally.
    pub fn hstack(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let cols = self.cols + other.cols;
        let mut out = DenseMatrix::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales every entry in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Column means (the empirical mean row vector).
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for row in self.iter_rows() {
            axpy(1.0, row, &mut means);
        }
        let inv = 1.0 / self.rows as f64;
        for m in &mut means {
            *m *= inv;
        }
        means
    }

    /// Subtracts `mu` from every row in place.
    pub fn center_rows(&mut self, mu: &[f64]) {
        assert_eq!(mu.len(), self.cols);
        let cols = self.cols;
        for row in self.data.chunks_exact_mut(cols) {
            for (v, m) in row.iter_mut().zip(mu) {
                *v -= m;
            }
        }
    }

    /// Maximum absolute difference from `other`.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Approximate in-memory footprint in bytes.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            writeln!(f, "  {:?}", &self.row(i)[..self.cols.min(8)])?;
        }
        if show < self.rows {
            writeln!(f, "  ... ({} more rows)", self.rows - show)?;
        }
        write!(f, "]")
    }
}

impl Add<&DenseMatrix> for &DenseMatrix {
    type Output = DenseMatrix;
    fn add(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&DenseMatrix> for &DenseMatrix {
    type Output = DenseMatrix;
    fn sub(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&DenseMatrix> for DenseMatrix {
    fn add_assign(&mut self, rhs: &DenseMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Mul<f64> for &DenseMatrix {
    type Output = DenseMatrix;
    fn mul(self, s: f64) -> DenseMatrix {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four-way unrolled accumulation: keeps the FP pipelines busy and is
    // deterministic across runs (unlike a parallel reduction).
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for c in 0..chunks {
        let i = c * 4;
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    let mut s = s0 + s1 + s2 + s3;
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_identity_shapes() {
        let z = DenseMatrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.data().iter().all(|&v| v == 0.0));
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    fn from_rows_and_access() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMatrix::from_fn(4, 7, |i, j| (i * 7 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 4));
        assert_eq!(t.transpose(), m);
        assert_eq!(m.get(2, 5), t.get(5, 2));
    }

    #[test]
    fn matvec_known() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(m.tr_matvec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn submatrix_and_selection() {
        let m = DenseMatrix::from_fn(5, 5, |i, j| (10 * i + j) as f64);
        let s = m.submatrix(1, 3, 2, 5);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s.get(0, 0), 12.0);
        assert_eq!(s.get(1, 2), 24.0);
        let r = m.select_rows(&[4, 0]);
        assert_eq!(r.row(0)[0], 40.0);
        assert_eq!(r.row(1)[0], 0.0);
        let c = m.select_cols(&[3, 1]);
        assert_eq!(c.get(2, 0), 23.0);
        assert_eq!(c.get(2, 1), 21.0);
    }

    #[test]
    fn stacking() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0]]);
        let b = DenseMatrix::from_rows(&[&[3.0, 4.0]]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn centering_removes_mean() {
        let mut m = DenseMatrix::from_rows(&[&[1.0, 10.0], &[3.0, 20.0]]);
        let mu = m.col_means();
        assert_eq!(mu, vec![2.0, 15.0]);
        m.center_rows(&mu);
        let mu2 = m.col_means();
        assert!(mu2.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn arithmetic_ops() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::identity(2);
        let s = &a + &b;
        assert_eq!(s.get(0, 0), 2.0);
        let d = &s - &b;
        assert_eq!(d, a);
        let m = &a * 2.0;
        assert_eq!(m.get(1, 1), 8.0);
    }

    #[test]
    fn blas_level1() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
        let mut y = [0.0; 5];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [2.0, 4.0, 6.0, 8.0, 10.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(rows in 1usize..12, cols in 1usize..12, seed in 0u64..1000) {
            let m = DenseMatrix::from_fn(rows, cols, |i, j| {
                ((i as u64 * 31 + j as u64 * 17 + seed) % 101) as f64 - 50.0
            });
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_dot_symmetry(v in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
            let w: Vec<f64> = v.iter().rev().cloned().collect();
            let d1 = dot(&v, &w);
            let d2 = dot(&w, &v);
            prop_assert!((d1 - d2).abs() <= 1e-9 * (1.0 + d1.abs()));
        }

        #[test]
        fn prop_matvec_linearity(rows in 1usize..8, cols in 1usize..8, s in -3.0f64..3.0) {
            let m = DenseMatrix::from_fn(rows, cols, |i, j| (i + 2 * j) as f64);
            let x: Vec<f64> = (0..cols).map(|j| j as f64 + 1.0).collect();
            let sx: Vec<f64> = x.iter().map(|v| v * s).collect();
            let lhs = m.matvec(&sx);
            let rhs: Vec<f64> = m.matvec(&x).iter().map(|v| v * s).collect();
            for (a, b) in lhs.iter().zip(&rhs) {
                prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
            }
        }
    }
}
