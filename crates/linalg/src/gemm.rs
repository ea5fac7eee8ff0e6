//! General matrix-matrix multiplication: a cache-blocked sequential kernel
//! and a rayon-parallel wrapper that splits over row panels.
//!
//! This is the "BLAS" strategy referenced by the convolution operator
//! (im2col + GEMM) and by the dense solvers; its cost is the textbook
//! `O(m·n·k)` the paper's cost models assume.
//!
//! The inner update of all three entry points (`matmul`, [`gram`],
//! [`tr_matmul`]) is the same rank-1 row update `out[j] += alpha * b[j]`,
//! [`kernels::saxpy_row`]: a portable 4-wide unrolled loop that LLVM lowers
//! to vector FMAs. It computes the same per-element expression in the same
//! order as the plain scalar loop the tests keep as their reference, so the
//! two are bit-identical — asserted by the `simd_matches_scalar_*` tests
//! below.

use crate::dense::DenseMatrix;
use rayon::prelude::*;

/// Block edge used by the cache-blocked kernel. 64 doubles = 512 bytes per
/// row segment, comfortably inside L1 for the three panels touched at once.
const BLOCK: usize = 64;

/// Nonzero-fraction threshold below which the zero-skip fast path in the
/// GEMM-family kernels is enabled. On inputs at least this dense the skip
/// test is pure overhead *and* makes runtime data-dependent, which skews
/// FLOP-proportional cost accounting; on genuinely sparse inputs it saves
/// whole row updates.
pub const ZERO_SKIP_MAX_DENSITY: f64 = 0.5;

/// Fraction of nonzero entries in `data` (1.0 for an empty slice, so empty
/// inputs count as dense and never take the skip path).
pub fn density(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let nnz = data.iter().filter(|v| **v != 0.0).count();
    nnz as f64 / data.len() as f64
}

/// The zero-skip policy: skip zero multipliers only when the input is
/// sparse enough ([`density`] below [`ZERO_SKIP_MAX_DENSITY`]). Skipping a
/// `0.0` multiplier never changes the result bitwise on finite inputs —
/// accumulators start at `+0.0` and adding `±0.0` products is the identity
/// — so this gate trades only *runtime* determinism, never values.
pub fn zero_skip_enabled(data: &[f64]) -> bool {
    density(data) < ZERO_SKIP_MAX_DENSITY
}

/// The shared inner row-update kernel.
pub mod kernels {
    /// `out[j] += alpha * b[j]`, four independent lanes per iteration, which
    /// LLVM auto-vectorizes to vector mul/add (or FMA where the target
    /// allows). Each element's update is the same single expression as the
    /// plain scalar loop, so the two are bit-identical on every input.
    #[inline]
    pub fn saxpy_row(alpha: f64, b: &[f64], out: &mut [f64]) {
        let n = out.len().min(b.len());
        let (out4, out_tail) = out[..n].split_at_mut(n - n % 4);
        let (b4, b_tail) = b[..n].split_at(n - n % 4);
        for (o, bv) in out4.chunks_exact_mut(4).zip(b4.chunks_exact(4)) {
            o[0] += alpha * bv[0];
            o[1] += alpha * bv[1];
            o[2] += alpha * bv[2];
            o[3] += alpha * bv[3];
        }
        for (o, &bv) in out_tail.iter_mut().zip(b_tail) {
            *o += alpha * bv;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only cost probe: counts inner row updates actually executed by
    /// `gram`/`tr_matmul`, so tests can assert the zero-skip gate keeps
    /// runtime FLOP-proportional on dense inputs.
    static ROW_UPDATES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_row_update() {
    #[cfg(test)]
    ROW_UPDATES.with(|c| c.set(c.get() + 1));
}

/// Computes `A * B`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {:?} * {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = DenseMatrix::zeros(m, n);
    let skip = zero_skip_enabled(a.data());
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n, skip);
    out
}

/// Computes `A^T * A` exploiting symmetry (used for Gram matrices in the
/// normal-equation solvers). Cost is `n·d²/2` multiply-adds.
pub fn gram(a: &DenseMatrix) -> DenseMatrix {
    let (n, d) = a.shape();
    let skip = zero_skip_enabled(a.data());
    let mut g = DenseMatrix::zeros(d, d);
    for r in 0..n {
        let row = a.row(r);
        for i in 0..d {
            let ai = row[i];
            if skip && ai == 0.0 {
                continue;
            }
            count_row_update();
            let grow = &mut g.data_mut()[i * d..(i + 1) * d];
            kernels::saxpy_row(ai, &row[i..d], &mut grow[i..d]);
        }
    }
    // Mirror the upper triangle.
    for i in 0..d {
        for j in 0..i {
            let v = g.get(j, i);
            g.set(i, j, v);
        }
    }
    g
}

/// Computes `A^T * B` (used for the right-hand side of normal equations).
pub fn tr_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.rows(), b.rows(), "tr_matmul dimension mismatch");
    let (n, d) = a.shape();
    let k = b.cols();
    let skip = zero_skip_enabled(a.data());
    let mut out = DenseMatrix::zeros(d, k);
    for r in 0..n {
        let arow = a.row(r);
        let brow = b.row(r);
        for i in 0..d {
            let ai = arow[i];
            if skip && ai == 0.0 {
                continue;
            }
            count_row_update();
            let orow = &mut out.data_mut()[i * k..(i + 1) * k];
            kernels::saxpy_row(ai, brow, orow);
        }
    }
    out
}

/// Parallel `A * B`, splitting A's rows across the rayon pool. Falls back to
/// the sequential kernel for small products where fork overhead dominates.
pub fn matmul_parallel(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(k, b.rows(), "matmul dimension mismatch");
    if m * k * n < 64 * 64 * 64 {
        return matmul(a, b);
    }
    let mut out = DenseMatrix::zeros(m, n);
    let skip = zero_skip_enabled(a.data());
    let panel = (m / rayon::current_num_threads().max(1)).max(16);
    out.data_mut()
        .par_chunks_mut(panel * n)
        .enumerate()
        .for_each(|(p, chunk)| {
            // `m*n` and `panel*n` are both multiples of `n`, so every chunk
            // — including the trailing remainder — covers whole rows. The
            // `chunk.len() / n` below relies on that; a misaligned chunk
            // would silently drop its partial row.
            debug_assert_eq!(
                chunk.len() % n,
                0,
                "matmul_parallel: chunk of {} elements is not row-aligned (n = {n})",
                chunk.len()
            );
            let r0 = p * panel;
            let rows = chunk.len() / n;
            matmul_into(
                &a.data()[r0 * k..(r0 + rows) * k],
                b.data(),
                chunk,
                rows,
                k,
                n,
                skip,
            );
        });
    out
}

/// Cache-blocked row-major GEMM into a pre-zeroed output buffer.
/// `skip_zeros` enables the sparse fast path (see [`zero_skip_enabled`]);
/// the result is bitwise independent of the flag on finite inputs.
#[allow(clippy::too_many_arguments)]
fn matmul_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize, skip: bool) {
    for kk in (0..k).step_by(BLOCK) {
        let kmax = (kk + BLOCK).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for p in kk..kmax {
                let aval = arow[p];
                if skip && aval == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                kernels::saxpy_row(aval, brow, orow);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = DenseMatrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    fn row_updates_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
        ROW_UPDATES.with(|c| c.set(0));
        let r = f();
        (r, ROW_UPDATES.with(|c| c.get()))
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let i = DenseMatrix::identity(5);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    fn matmul_rectangular_known() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = DenseMatrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn gram_matches_explicit() {
        let a = DenseMatrix::from_fn(7, 4, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
        let g = gram(&a);
        let expect = matmul(&a.transpose(), &a);
        assert!(g.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn tr_matmul_matches_explicit() {
        let a = DenseMatrix::from_fn(6, 3, |i, j| (i + j) as f64);
        let b = DenseMatrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64);
        let out = tr_matmul(&a, &b);
        let expect = matmul(&a.transpose(), &b);
        assert!(out.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn parallel_matches_sequential_large() {
        let a = DenseMatrix::from_fn(130, 70, |i, j| ((i * 7 + j) % 13) as f64 - 6.0);
        let b = DenseMatrix::from_fn(70, 90, |i, j| ((i * 5 + j) % 17) as f64 - 8.0);
        let p = matmul_parallel(&a, &b);
        let s = matmul(&a, &b);
        assert!(p.max_abs_diff(&s) < 1e-9);
    }

    /// Regression for the trailing-chunk remainder: with prime dimensions
    /// no panel size divides `m`, so the last `par_chunks_mut` chunk is a
    /// remainder chunk. Row partitioning never changes per-row arithmetic,
    /// so the parallel result must match the sequential kernel *bitwise*.
    #[test]
    fn parallel_prime_dims_remainder_chunk_exact() {
        let (m, k, n) = (97, 61, 53);
        let a = DenseMatrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 29) as f64 / 7.0 - 2.0);
        let b = DenseMatrix::from_fn(k, n, |i, j| ((i * 13 + j * 19) % 23) as f64 / 5.0 - 2.0);
        let p = matmul_parallel(&a, &b);
        let s = matmul(&a, &b);
        assert_eq!(p.shape(), (m, n));
        assert_eq!(
            p.max_abs_diff(&s),
            0.0,
            "parallel remainder chunk diverged from sequential kernel"
        );
    }

    /// Scalar reference for [`kernels::saxpy_row`]: `out[j] += alpha * b[j]`.
    fn saxpy_row_scalar(alpha: f64, b: &[f64], out: &mut [f64]) {
        for (o, &bv) in out.iter_mut().zip(b) {
            *o += alpha * bv;
        }
    }

    #[test]
    fn simd_matches_scalar_saxpy_row_exactly() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 17, 64, 65] {
            let b: Vec<f64> = (0..len).map(|i| (i as f64 - 3.5) * 0.377).collect();
            let init: Vec<f64> = (0..len).map(|i| (i as f64) * 1.0e-3 - 0.02).collect();
            for alpha in [0.0, -0.0, 1.0, -2.75, 3.0e-9] {
                let mut scalar = init.clone();
                let mut simd = init.clone();
                saxpy_row_scalar(alpha, &b, &mut scalar);
                kernels::saxpy_row(alpha, &b, &mut simd);
                let sb: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
                let vb: Vec<u64> = simd.iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, vb, "len={len} alpha={alpha}");
            }
        }
    }

    /// The zero-skip gate: on a dense input with a few sprinkled zeros the
    /// skip must stay OFF (row-update count equals the full n·d, keeping
    /// runtime FLOP-proportional); on a sparse input it must fire.
    #[test]
    fn zero_skip_cost_accounting() {
        let (n, d) = (16, 8);
        // Dense but with a handful of exact zeros (~10% of entries).
        let dense = DenseMatrix::from_fn(n, d, |i, j| {
            if (i * d + j) % 10 == 0 {
                0.0
            } else {
                (i * d + j) as f64 * 0.1 - 3.0
            }
        });
        assert!(!zero_skip_enabled(dense.data()));
        let (g_dense, updates_dense) = row_updates_during(|| gram(&dense));
        assert_eq!(
            updates_dense,
            (n * d) as u64,
            "dense gram must execute every row update regardless of stray zeros"
        );

        // Mostly zeros: the skip fires and the update count drops to nnz.
        let sparse = DenseMatrix::from_fn(n, d, |i, j| if (i + j) % 8 == 0 { 2.0 } else { 0.0 });
        assert!(zero_skip_enabled(sparse.data()));
        let nnz = sparse.data().iter().filter(|v| **v != 0.0).count() as u64;
        let (_, updates_sparse) = row_updates_during(|| gram(&sparse));
        assert_eq!(updates_sparse, nnz);
        assert!(updates_sparse < (n * d) as u64);

        // Values are bitwise independent of the gate: force both paths
        // through matmul_into on the dense input and diff exactly.
        let expect = matmul(&dense.transpose(), &dense);
        assert_eq!(g_dense.max_abs_diff(&expect), 0.0);
        let (m, k) = dense.shape();
        let mut skip_on = DenseMatrix::zeros(m, m);
        let mut skip_off = DenseMatrix::zeros(m, m);
        let dt = dense.transpose();
        matmul_into(dense.data(), dt.data(), skip_on.data_mut(), m, k, m, true);
        matmul_into(dense.data(), dt.data(), skip_off.data_mut(), m, k, m, false);
        assert_eq!(skip_on.max_abs_diff(&skip_off), 0.0);

        // tr_matmul honors the same gate.
        let rhs = DenseMatrix::from_fn(n, 3, |i, j| (i + 2 * j) as f64 * 0.25 - 1.0);
        let (_, tr_updates) = row_updates_during(|| tr_matmul(&dense, &rhs));
        assert_eq!(tr_updates, (n * d) as u64);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_blocked_matches_naive(m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..100) {
            let a = DenseMatrix::from_fn(m, k, |i, j| ((i as u64 * 13 + j as u64 * 7 + seed) % 19) as f64 - 9.0);
            let b = DenseMatrix::from_fn(k, n, |i, j| ((i as u64 * 5 + j as u64 * 11 + seed) % 23) as f64 - 11.0);
            let fast = matmul(&a, &b);
            let slow = naive(&a, &b);
            prop_assert!(fast.max_abs_diff(&slow) < 1e-9);
        }

        #[test]
        fn prop_matmul_associates_with_vector(m in 1usize..10, k in 1usize..10, n in 1usize..10) {
            // (A * B) x == A * (B x)
            let a = DenseMatrix::from_fn(m, k, |i, j| (i as f64 - j as f64) / 3.0);
            let b = DenseMatrix::from_fn(k, n, |i, j| (i * j) as f64 / 5.0);
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let lhs = matmul(&a, &b).matvec(&x);
            let rhs = a.matvec(&b.matvec(&x));
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() < 1e-9 * (1.0 + r.abs()));
            }
        }

        /// Bit-identity of the zero-skip gate on random sparse-ish inputs:
        /// matmul's output must not depend on whether the gate fired.
        #[test]
        fn prop_skip_gate_never_changes_values(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..50) {
            let a = DenseMatrix::from_fn(m, k, |i, j| {
                let h = i as u64 * 13 + j as u64 * 7 + seed;
                if h.is_multiple_of(3) { 0.0 } else { (h % 19) as f64 - 9.0 }
            });
            let b = DenseMatrix::from_fn(k, n, |i, j| ((i as u64 * 5 + j as u64 * 11 + seed) % 23) as f64 - 11.0);
            let mut with_skip = DenseMatrix::zeros(m, n);
            let mut without = DenseMatrix::zeros(m, n);
            matmul_into(a.data(), b.data(), with_skip.data_mut(), m, k, n, true);
            matmul_into(a.data(), b.data(), without.data_mut(), m, k, n, false);
            prop_assert_eq!(with_skip.max_abs_diff(&without), 0.0);
        }
    }
}
