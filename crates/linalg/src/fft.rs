//! Radix-2 Cooley–Tukey FFT (1-D and 2-D) and FFT-based convolution.
//!
//! This backs the FFT physical implementation of the `Convolver` operator
//! (§3, Fig. 7): cost `O(d·b·n² log n)` independent of the filter size `k`,
//! which is what makes it win for large filters.

use std::ops::{Add, Mul, Sub};

/// Minimal complex number (we avoid a dependency for two fields).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// `re + im·i`.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Next power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place iterative radix-2 FFT. `inverse` selects the inverse transform
/// (including the `1/n` scaling).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft_inplace(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterflies. The twiddle factors for a stage are the same for every
    // `start` block, so they are generated once per stage — by the exact
    // `w = w * wlen` recurrence the serial loop used, keeping the values
    // bit-identical — and the per-block butterfly becomes a data-parallel
    // pass over the twiddle table (see [`butterfly`]).
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut twiddles: Vec<Complex> = Vec::with_capacity(n / 2);
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        twiddles.clear();
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..len / 2 {
            twiddles.push(w);
            w = w * wlen;
        }
        for start in (0..n).step_by(len) {
            butterfly(&mut buf[start..start + len], &twiddles);
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for c in buf {
            c.re *= inv;
            c.im *= inv;
        }
    }
}

/// One radix-2 butterfly pass over a `len`-element block, with the stage's
/// precomputed twiddle table (`len / 2` entries). Each index `i` reads
/// `(block[i], block[i + half])` and writes `(u + v, u - v)` with
/// `v = block[i + half] * w_i` — indices are independent, so the pass is
/// data-parallel: unrolled 2-wide on the re/im components directly, two
/// independent butterflies per iteration, eight multiplies LLVM packs into
/// vector lanes. Per-index arithmetic is exactly the serial loop's, so
/// outputs are bit-identical to it (asserted by
/// `butterfly_simd_matches_scalar_exactly`).
#[inline]
fn butterfly(block: &mut [Complex], twiddles: &[Complex]) {
    let half = block.len() / 2;
    let (lo, hi) = block.split_at_mut(half);
    let pairs = half - half % 2;
    let mut i = 0;
    while i < pairs {
        let (w0, w1) = (twiddles[i], twiddles[i + 1]);
        let (u0, u1) = (lo[i], lo[i + 1]);
        let (b0, b1) = (hi[i], hi[i + 1]);
        let v0 = Complex::new(b0.re * w0.re - b0.im * w0.im, b0.re * w0.im + b0.im * w0.re);
        let v1 = Complex::new(b1.re * w1.re - b1.im * w1.im, b1.re * w1.im + b1.im * w1.re);
        lo[i] = Complex::new(u0.re + v0.re, u0.im + v0.im);
        lo[i + 1] = Complex::new(u1.re + v1.re, u1.im + v1.im);
        hi[i] = Complex::new(u0.re - v0.re, u0.im - v0.im);
        hi[i + 1] = Complex::new(u1.re - v1.re, u1.im - v1.im);
        i += 2;
    }
    if i < half {
        let w = twiddles[i];
        let u = lo[i];
        let v = hi[i] * w;
        lo[i] = u + v;
        hi[i] = u - v;
    }
}

/// Forward FFT of a real signal, zero-padded to the next power of two at
/// least `min_len`.
pub fn rfft(signal: &[f64], min_len: usize) -> Vec<Complex> {
    let n = next_pow2(min_len.max(signal.len()));
    let mut buf = vec![Complex::default(); n];
    for (b, &s) in buf.iter_mut().zip(signal) {
        b.re = s;
    }
    fft_inplace(&mut buf, false);
    buf
}

/// Linear convolution of two real signals via FFT. Output length is
/// `a.len() + b.len() - 1`.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return vec![];
    }
    let out_len = a.len() + b.len() - 1;
    let mut fa = rfft(a, out_len);
    let fb = rfft(b, out_len);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x = *x * *y;
    }
    fft_inplace(&mut fa, true);
    fa[..out_len].iter().map(|c| c.re).collect()
}

/// Direct (naive) linear convolution, used as the oracle in tests and for
/// tiny signals where FFT overhead dominates.
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return vec![];
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// 2-D FFT of a row-major `rows × cols` grid, in place. Both dims must be
/// powers of two.
pub fn fft2_inplace(grid: &mut [Complex], rows: usize, cols: usize, inverse: bool) {
    assert_eq!(grid.len(), rows * cols);
    // Rows.
    for r in 0..rows {
        fft_inplace(&mut grid[r * cols..(r + 1) * cols], inverse);
    }
    // Columns via a scratch buffer.
    let mut col = vec![Complex::default(); rows];
    for c in 0..cols {
        for r in 0..rows {
            col[r] = grid[r * cols + c];
        }
        fft_inplace(&mut col, inverse);
        for r in 0..rows {
            grid[r * cols + c] = col[r];
        }
    }
}

/// "Valid"-mode 2-D cross-correlation of an `n×n` image with a `k×k` filter
/// via FFT; output is `(n-k+1) × (n-k+1)`. This is what a CNN-style
/// convolution layer computes.
pub fn correlate2d_fft(image: &[f64], n: usize, filter: &[f64], k: usize) -> Vec<f64> {
    assert_eq!(image.len(), n * n);
    assert_eq!(filter.len(), k * k);
    assert!(k <= n, "filter larger than image");
    let m = n - k + 1;
    let rows = next_pow2(n);
    let cols = next_pow2(n);
    let mut fi = vec![Complex::default(); rows * cols];
    for r in 0..n {
        for c in 0..n {
            fi[r * cols + c].re = image[r * n + c];
        }
    }
    // Correlation = convolution with the flipped filter; place the flipped
    // filter so that full-convolution index (k-1+r, k-1+c) is output (r, c).
    let mut ff = vec![Complex::default(); rows * cols];
    for r in 0..k {
        for c in 0..k {
            ff[r * cols + c].re = filter[(k - 1 - r) * k + (k - 1 - c)];
        }
    }
    fft2_inplace(&mut fi, rows, cols, false);
    fft2_inplace(&mut ff, rows, cols, false);
    for (a, b) in fi.iter_mut().zip(&ff) {
        *a = *a * *b;
    }
    fft2_inplace(&mut fi, rows, cols, true);
    let mut out = vec![0.0; m * m];
    for r in 0..m {
        for c in 0..m {
            out[r * m + c] = fi[(r + k - 1) * cols + (c + k - 1)].re;
        }
    }
    out
}

/// Direct "valid"-mode 2-D cross-correlation (oracle / small-k path).
pub fn correlate2d_direct(image: &[f64], n: usize, filter: &[f64], k: usize) -> Vec<f64> {
    assert_eq!(image.len(), n * n);
    assert_eq!(filter.len(), k * k);
    assert!(k <= n, "filter larger than image");
    let m = n - k + 1;
    let mut out = vec![0.0; m * m];
    for r in 0..m {
        for c in 0..m {
            let mut s = 0.0;
            for fr in 0..k {
                for fc in 0..k {
                    s += image[(r + fr) * n + (c + fc)] * filter[fr * k + fc];
                }
            }
            out[r * m + c] = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol * (1.0 + y.abs()),
                "index {}: {} vs {}",
                i,
                x,
                y
            );
        }
    }

    #[test]
    fn fft_roundtrip() {
        let mut buf: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let orig = buf.clone();
        fft_inplace(&mut buf, false);
        fft_inplace(&mut buf, true);
        for (a, b) in buf.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-12);
            assert!((a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::default(); 8];
        buf[0].re = 1.0;
        fft_inplace(&mut buf, false);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval() {
        let signal: Vec<f64> = (0..32).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let spec = rfft(&signal, 32);
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.abs().powi(2)).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    /// Scalar reference butterfly pass (the original serial loop body, minus
    /// the twiddle recurrence, which the caller hoists).
    fn butterfly_scalar(block: &mut [Complex], twiddles: &[Complex]) {
        let half = block.len() / 2;
        let (lo, hi) = block.split_at_mut(half);
        for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
            let u = *a;
            let v = *b * *w;
            *a = u + v;
            *b = u - v;
        }
    }

    /// The SIMD butterfly must match the scalar reference bit-for-bit on
    /// deterministic inputs, across odd/even half sizes.
    #[test]
    fn butterfly_simd_matches_scalar_exactly() {
        for half in [1usize, 2, 3, 4, 7, 8, 16] {
            let len = half * 2;
            let block: Vec<Complex> = (0..len)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let twiddles: Vec<Complex> = (0..half)
                .map(|i| {
                    let ang = -2.0 * std::f64::consts::PI * i as f64 / len as f64;
                    Complex::new(ang.cos(), ang.sin())
                })
                .collect();
            let mut scalar = block.clone();
            let mut simd = block.clone();
            butterfly_scalar(&mut scalar, &twiddles);
            butterfly(&mut simd, &twiddles);
            for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
                assert_eq!(s.re.to_bits(), v.re.to_bits(), "half={half} idx={i} re");
                assert_eq!(s.im.to_bits(), v.im.to_bits(), "half={half} idx={i} im");
            }
        }
    }

    /// The hoisted twiddle table + unrolled kernel must reproduce the
    /// original serial butterfly loop bit-for-bit.
    #[test]
    fn fft_matches_serial_reference_exactly() {
        fn fft_serial(buf: &mut [Complex], inverse: bool) {
            let n = buf.len();
            let mut j = 0usize;
            for i in 1..n {
                let mut bit = n >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
                if i < j {
                    buf.swap(i, j);
                }
            }
            let sign = if inverse { 1.0 } else { -1.0 };
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex::new(ang.cos(), ang.sin());
                for start in (0..n).step_by(len) {
                    let mut w = Complex::new(1.0, 0.0);
                    for i in 0..len / 2 {
                        let u = buf[start + i];
                        let v = buf[start + i + len / 2] * w;
                        buf[start + i] = u + v;
                        buf[start + i + len / 2] = u - v;
                        w = w * wlen;
                    }
                }
                len <<= 1;
            }
            if inverse {
                let inv = 1.0 / n as f64;
                for c in buf {
                    c.re *= inv;
                    c.im *= inv;
                }
            }
        }
        for log in 1u32..8 {
            let n = 1usize << log;
            for inverse in [false, true] {
                let init: Vec<Complex> = (0..n)
                    .map(|i| Complex::new((i as f64 * 0.31).sin() * 3.0, (i as f64 * 0.17).cos()))
                    .collect();
                let mut fast = init.clone();
                let mut slow = init;
                fft_inplace(&mut fast, inverse);
                fft_serial(&mut slow, inverse);
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n} idx={i} re");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} idx={i} im");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![Complex::default(); 6];
        fft_inplace(&mut buf, false);
    }

    #[test]
    fn convolution_known() {
        let out = convolve_fft(&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.5]);
        assert_close(&out, &[0.0, 1.0, 2.5, 4.0, 1.5], 1e-10);
    }

    #[test]
    fn convolution_empty() {
        assert!(convolve_fft(&[], &[1.0]).is_empty());
        assert!(convolve_direct(&[1.0], &[]).is_empty());
    }

    #[test]
    fn correlate2d_identity_filter() {
        // 1x1 filter of value 2 just scales the image.
        let img: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let out = correlate2d_fft(&img, 4, &[2.0], 1);
        let expect: Vec<f64> = img.iter().map(|v| v * 2.0).collect();
        assert_close(&out, &expect, 1e-10);
    }

    #[test]
    fn correlate2d_fft_matches_direct() {
        let n = 12;
        let k = 4;
        let img: Vec<f64> = (0..n * n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let fil: Vec<f64> = (0..k * k).map(|i| ((i * 5) % 3) as f64 - 1.0).collect();
        let fast = correlate2d_fft(&img, n, &fil, k);
        let slow = correlate2d_direct(&img, n, &fil, k);
        assert_close(&fast, &slow, 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_conv_fft_matches_direct(
            a in proptest::collection::vec(-5.0f64..5.0, 1..40),
            b in proptest::collection::vec(-5.0f64..5.0, 1..40),
        ) {
            let fast = convolve_fft(&a, &b);
            let slow = convolve_direct(&a, &b);
            prop_assert_eq!(fast.len(), slow.len());
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert!((x - y).abs() < 1e-8 * (1.0 + y.abs()));
            }
        }

        #[test]
        fn prop_conv_commutative(
            a in proptest::collection::vec(-3.0f64..3.0, 1..20),
            b in proptest::collection::vec(-3.0f64..3.0, 1..20),
        ) {
            let ab = convolve_fft(&a, &b);
            let ba = convolve_fft(&b, &a);
            for (x, y) in ab.iter().zip(&ba) {
                prop_assert!((x - y).abs() < 1e-8 * (1.0 + y.abs()));
            }
        }
    }
}

#[cfg(test)]
mod proptests_2d {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// 2-D FFT round-trip is the identity.
        #[test]
        fn prop_fft2_roundtrip(rows_log in 1u32..4, cols_log in 1u32..4, seed in 0u64..200) {
            let rows = 1usize << rows_log;
            let cols = 1usize << cols_log;
            let mut grid: Vec<Complex> = (0..rows * cols)
                .map(|i| {
                    let h = (i as u64 + 1).wrapping_mul(seed + 17);
                    Complex::new(((h % 100) as f64) / 10.0 - 5.0, ((h % 37) as f64) / 5.0)
                })
                .collect();
            let orig = grid.clone();
            fft2_inplace(&mut grid, rows, cols, false);
            fft2_inplace(&mut grid, rows, cols, true);
            for (a, b) in grid.iter().zip(&orig) {
                prop_assert!((a.re - b.re).abs() < 1e-9);
                prop_assert!((a.im - b.im).abs() < 1e-9);
            }
        }

        /// Valid-mode correlation agrees with the direct oracle across
        /// random image/filter sizes.
        #[test]
        fn prop_correlate2d_matches_direct(n in 4usize..14, k in 1usize..5, seed in 0u64..200) {
            let k = k.min(n);
            let img: Vec<f64> = (0..n * n)
                .map(|i| (((i as u64 + seed) * 2654435761) % 13) as f64 - 6.0)
                .collect();
            let fil: Vec<f64> = (0..k * k)
                .map(|i| (((i as u64 + seed) * 40503) % 7) as f64 - 3.0)
                .collect();
            let fast = correlate2d_fft(&img, n, &fil, k);
            let slow = correlate2d_direct(&img, n, &fil, k);
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert!((a - b).abs() < 1e-8 * (1.0 + b.abs()));
            }
        }
    }
}
