//! The optimizable `Convolver` (§3, Fig. 7): one logical convolution, three
//! physical implementations —
//!
//! * **separable** matrix-vector scheme, `O(d·b·k·m² + b·k³)`, valid only
//!   when every filter is rank-1;
//! * **BLAS** im2col + GEMM, `O(d·b·k²·m²)`;
//! * **FFT**, `O(d·b·(6 n² log n + 4 n²))`, independent of `k`.
//!
//! where the image is `n×n×d`, filters are `k×k`, and `m = n − k + 1`.

use std::sync::Arc;

use keystone_core::operator::{OptimizableTransformer, Transformer, TransformerOption};
use keystone_core::record::DataStats;
use keystone_dataflow::cluster::ResourceDesc;
use keystone_dataflow::cost::CostProfile;
use keystone_linalg::dense::DenseMatrix;
use keystone_linalg::fft::{correlate2d_direct, correlate2d_fft};
use keystone_linalg::gemm::matmul;
use keystone_linalg::rng::XorShiftRng;
use keystone_linalg::svd::svd;

use super::Image;
use crate::stats::INFEASIBLE_COST;

/// A bank of `b` square filters, each `k × k`, shared across channels.
#[derive(Debug, Clone)]
pub struct FilterBank {
    filters: Vec<DenseMatrix>,
    k: usize,
}

impl FilterBank {
    /// Builds a bank from explicit filters.
    ///
    /// # Panics
    /// Panics on an empty bank or non-square / inconsistent filters.
    pub fn new(filters: Vec<DenseMatrix>) -> Self {
        assert!(!filters.is_empty(), "empty filter bank");
        let k = filters[0].rows();
        for f in &filters {
            assert_eq!(f.shape(), (k, k), "filters must be square, same size");
        }
        FilterBank { filters, k }
    }

    /// Random Gaussian filters (generally non-separable).
    pub fn random(count: usize, k: usize, seed: u64) -> Self {
        let mut rng = XorShiftRng::new(seed);
        let filters = (0..count)
            .map(|_| DenseMatrix::from_fn(k, k, |_, _| rng.next_gaussian()))
            .collect();
        FilterBank::new(filters)
    }

    /// Random rank-1 (separable) filters `u vᵀ`.
    pub fn random_separable(count: usize, k: usize, seed: u64) -> Self {
        let mut rng = XorShiftRng::new(seed);
        let filters = (0..count)
            .map(|_| {
                let u: Vec<f64> = (0..k).map(|_| rng.next_gaussian()).collect();
                let v: Vec<f64> = (0..k).map(|_| rng.next_gaussian()).collect();
                DenseMatrix::from_fn(k, k, |i, j| u[i] * v[j])
            })
            .collect();
        FilterBank::new(filters)
    }

    /// Number of filters `b`.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the bank is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Filter edge `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The filters.
    pub fn filters(&self) -> &[DenseMatrix] {
        &self.filters
    }

    /// True when every filter is numerically rank-1 (second singular value
    /// below `tol` relative to the first).
    pub fn is_separable(&self, tol: f64) -> bool {
        self.filters.iter().all(|f| {
            let s = svd(f).s;
            s.len() < 2 || s[1] <= tol * s[0].max(1e-300)
        })
    }

    /// Rank-1 factors `(u, v)` of each filter (valid when separable).
    fn rank1_factors(&self) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.filters
            .iter()
            .map(|f| {
                let dec = svd(f);
                let s0 = dec.s[0];
                let u: Vec<f64> = dec.u.col(0).iter().map(|x| x * s0).collect();
                let v: Vec<f64> = dec.v.col(0).to_vec();
                (u, v)
            })
            .collect()
    }
}

fn output_side(img: &Image, k: usize) -> (usize, usize) {
    assert!(
        img.width() >= k && img.height() >= k,
        "filter larger than image"
    );
    (img.width() - k + 1, img.height() - k + 1)
}

/// im2col + GEMM physical implementation ("BLAS" in Fig. 7).
#[derive(Clone)]
pub struct ConvolverMatMul {
    bank: Arc<FilterBank>,
    /// The filters as im2col's right-hand side, `k² × b`.
    fmat: DenseMatrix,
}

impl ConvolverMatMul {
    /// Builds the physical operator over a shared filter bank, laying the
    /// filters out as the GEMM operand once up front.
    pub fn from_bank(bank: Arc<FilterBank>) -> Self {
        let k = bank.k();
        let mut fmat = DenseMatrix::zeros(k * k, bank.len());
        for (bi, f) in bank.filters().iter().enumerate() {
            for i in 0..k {
                for j in 0..k {
                    fmat.set(i * k + j, bi, f.get(i, j));
                }
            }
        }
        ConvolverMatMul { bank, fmat }
    }
}

impl Transformer<Image, Image> for ConvolverMatMul {
    fn apply(&self, img: &Image) -> Image {
        let k = self.bank.k();
        let (mw, mh) = output_side(img, k);
        let b = self.bank.len();
        let mut out = Image::zeros(mw, mh, b);
        // Accumulate channel by channel: im2col (m² × k²) × fmat (k² × b).
        let mut cols = DenseMatrix::zeros(mw * mh, k * k);
        for c in 0..img.channels() {
            for oy in 0..mh {
                for ox in 0..mw {
                    let row = cols.row_mut(oy * mw + ox);
                    for i in 0..k {
                        for j in 0..k {
                            row[i * k + j] = img.get(ox + j, oy + i, c);
                        }
                    }
                }
            }
            let res = matmul(&cols, &self.fmat);
            for bi in 0..b {
                for oy in 0..mh {
                    for ox in 0..mw {
                        let v = out.get(ox, oy, bi) + res.get(oy * mw + ox, bi);
                        out.set(ox, oy, bi, v);
                    }
                }
            }
        }
        out
    }
    fn name(&self) -> String {
        "Convolver[blas]".into()
    }
}

/// FFT physical implementation.
#[derive(Clone)]
pub struct ConvolverFft {
    bank: Arc<FilterBank>,
}

impl ConvolverFft {
    /// Builds the physical operator over a shared filter bank.
    pub fn from_bank(bank: Arc<FilterBank>) -> Self {
        ConvolverFft { bank }
    }
}

impl Transformer<Image, Image> for ConvolverFft {
    fn apply(&self, img: &Image) -> Image {
        let k = self.bank.k();
        let (mw, mh) = output_side(img, k);
        assert_eq!(
            img.width(),
            img.height(),
            "FFT convolver requires square images"
        );
        let n = img.width();
        let b = self.bank.len();
        let mut out = Image::zeros(mw, mh, b);
        for (bi, f) in self.bank.filters().iter().enumerate() {
            for c in 0..img.channels() {
                // A `k × k` filter's row-major storage is the operand as is.
                let res = correlate2d_fft(img.plane(c), n, f.data(), k);
                for oy in 0..mh {
                    for ox in 0..mw {
                        let v = out.get(ox, oy, bi) + res[oy * mw + ox];
                        out.set(ox, oy, bi, v);
                    }
                }
            }
        }
        out
    }
    fn name(&self) -> String {
        "Convolver[fft]".into()
    }
}

/// Separable matrix-vector physical implementation.
#[derive(Clone)]
pub struct ConvolverSeparable {
    bank: Arc<FilterBank>,
    factors: Vec<(Vec<f64>, Vec<f64>)>,
}

impl ConvolverSeparable {
    /// Builds the physical operator over a shared filter bank, extracting
    /// the rank-1 factors once up front.
    pub fn from_bank(bank: Arc<FilterBank>) -> Self {
        let factors = bank.rank1_factors();
        ConvolverSeparable { bank, factors }
    }
}

impl Transformer<Image, Image> for ConvolverSeparable {
    fn apply(&self, img: &Image) -> Image {
        let k = self.bank.k();
        let (mw, mh) = output_side(img, k);
        let b = self.bank.len();
        let w = img.width();
        let mut out = Image::zeros(mw, mh, b);
        for (bi, (u, v)) in self.factors.iter().enumerate() {
            for c in 0..img.channels() {
                let plane = img.plane(c);
                // Horizontal pass with v: rows stay, columns shrink to mw.
                let mut horiz = vec![0.0; mw * img.height()];
                for y in 0..img.height() {
                    for ox in 0..mw {
                        let mut s = 0.0;
                        for (j, &vj) in v.iter().enumerate() {
                            s += plane[y * w + ox + j] * vj;
                        }
                        horiz[y * mw + ox] = s;
                    }
                }
                // Vertical pass with u.
                for oy in 0..mh {
                    for ox in 0..mw {
                        let mut s = 0.0;
                        for (i, &ui) in u.iter().enumerate() {
                            s += horiz[(oy + i) * mw + ox] * ui;
                        }
                        let cur = out.get(ox, oy, bi) + s;
                        out.set(ox, oy, bi, cur);
                    }
                }
            }
        }
        out
    }
    fn name(&self) -> String {
        "Convolver[separable]".into()
    }
}

/// The optimizable logical convolution operator.
#[derive(Clone)]
pub struct Convolver {
    bank: Arc<FilterBank>,
    /// Channel count assumed by the cost models when sizing inputs.
    pub expected_channels: usize,
    separable: bool,
}

impl Convolver {
    /// Wraps a filter bank; separability is detected once here.
    pub fn new(bank: FilterBank, expected_channels: usize) -> Self {
        let separable = bank.is_separable(1e-10);
        Convolver {
            bank: Arc::new(bank),
            expected_channels,
            separable,
        }
    }
}

impl OptimizableTransformer<Image, Image> for Convolver {
    fn options(&self) -> Vec<TransformerOption<Image, Image>> {
        let b = self.bank.len() as f64;
        let k = self.bank.k() as f64;
        let d = self.expected_channels.max(1) as f64;
        let separable = self.separable;

        // Image side n from input statistics: dims = n²·d.
        let side = move |stats: &[DataStats]| -> f64 {
            let dims = stats.first().map_or(0.0, |s| s.dims.max(1.0));
            (dims / d).sqrt().max(k)
        };
        let records =
            |stats: &[DataStats]| -> f64 { stats.first().map_or(1.0, |s| s.count.max(1) as f64) };

        vec![
            TransformerOption {
                name: "blas".into(),
                cost: Box::new(move |stats, _r: &ResourceDesc| {
                    let n = side(stats);
                    let m = (n - k + 1.0).max(1.0);
                    CostProfile::compute(records(stats) * 2.0 * d * b * k * k * m * m)
                }),
                op: Box::new(ConvolverMatMul::from_bank(self.bank.clone())),
            },
            TransformerOption {
                name: "fft".into(),
                cost: Box::new(move |stats, _r: &ResourceDesc| {
                    let n = side(stats);
                    CostProfile::compute(
                        records(stats) * d * b * (6.0 * n * n * n.log2().max(1.0) + 4.0 * n * n),
                    )
                }),
                op: Box::new(ConvolverFft {
                    bank: self.bank.clone(),
                }),
            },
            TransformerOption {
                name: "separable".into(),
                cost: Box::new(move |stats, _r: &ResourceDesc| {
                    if !separable {
                        return CostProfile::compute(INFEASIBLE_COST);
                    }
                    let n = side(stats);
                    let m = (n - k + 1.0).max(1.0);
                    CostProfile::compute(records(stats) * (2.0 * d * b * k * m * m + b * k * k * k))
                }),
                op: Box::new(ConvolverSeparable::from_bank(self.bank.clone())),
            },
        ]
    }

    fn name(&self) -> String {
        "Convolver".into()
    }
}

/// Direct (nested-loop) convolution used as the test oracle.
pub fn convolve_direct_oracle(img: &Image, bank: &FilterBank) -> Image {
    let k = bank.k();
    let (mw, mh) = output_side(img, k);
    let mut out = Image::zeros(mw, mh, bank.len());
    for (bi, f) in bank.filters().iter().enumerate() {
        let fdata: Vec<f64> = f.data().to_vec();
        for c in 0..img.channels() {
            let res = correlate2d_direct(img.plane(c), img.width(), &fdata, k);
            for oy in 0..mh {
                for ox in 0..mw {
                    let v = out.get(ox, oy, bi) + res[oy * mw + ox];
                    out.set(ox, oy, bi, v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystone_core::operator::OptimizableTransformer;

    fn test_image(n: usize, c: usize, seed: u64) -> Image {
        let mut rng = XorShiftRng::new(seed);
        let data: Vec<f64> = (0..n * n * c).map(|_| rng.next_gaussian()).collect();
        Image::new(n, n, c, data)
    }

    fn assert_images_close(a: &Image, b: &Image, tol: f64) {
        assert_eq!(a.width(), b.width());
        assert_eq!(a.channels(), b.channels());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol * (1.0 + y.abs()), "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_matches_direct() {
        let img = test_image(12, 3, 1);
        let bank = FilterBank::random(4, 3, 2);
        let oracle = convolve_direct_oracle(&img, &bank);
        let got = ConvolverMatMul::from_bank(Arc::new(bank)).apply(&img);
        assert_images_close(&got, &oracle, 1e-10);
    }

    #[test]
    fn fft_matches_direct() {
        let img = test_image(16, 2, 3);
        let bank = FilterBank::random(3, 5, 4);
        let oracle = convolve_direct_oracle(&img, &bank);
        let got = ConvolverFft {
            bank: Arc::new(bank),
        }
        .apply(&img);
        assert_images_close(&got, &oracle, 1e-8);
    }

    #[test]
    fn separable_matches_direct_on_rank1_filters() {
        let img = test_image(10, 2, 5);
        let bank = FilterBank::random_separable(3, 4, 6);
        assert!(bank.is_separable(1e-10));
        let oracle = convolve_direct_oracle(&img, &bank);
        let got = ConvolverSeparable::from_bank(Arc::new(bank)).apply(&img);
        assert_images_close(&got, &oracle, 1e-8);
    }

    #[test]
    fn random_filters_not_separable() {
        let bank = FilterBank::random(4, 5, 7);
        assert!(!bank.is_separable(1e-10));
    }

    #[test]
    fn cost_models_flip_with_filter_size() {
        // Small k: BLAS cheapest; large k: FFT cheapest (Fig. 7).
        let conv_small = Convolver::new(FilterBank::random(8, 3, 1), 3);
        let conv_large = Convolver::new(FilterBank::random(8, 25, 1), 3);
        let stats = vec![DataStats {
            count: 50,
            bytes_per_record: 256.0 * 256.0 * 3.0 * 8.0,
            dims: 256.0 * 256.0 * 3.0,
            nnz_per_record: 256.0 * 256.0 * 3.0,
            is_sparse: false,
        }];
        let r = keystone_dataflow::cluster::ClusterProfile::R3_4xlarge.descriptor(1);
        let pick = |conv: &Convolver| {
            conv.options()
                .into_iter()
                .min_by(|a, b| {
                    (a.cost)(&stats, &r)
                        .estimated_seconds(&r)
                        .partial_cmp(&(b.cost)(&stats, &r).estimated_seconds(&r))
                        .expect("finite")
                })
                .map(|o| o.name)
                .expect("non-empty")
        };
        assert_eq!(pick(&conv_small), "blas");
        assert_eq!(pick(&conv_large), "fft");
    }

    #[test]
    fn separable_cheapest_when_valid() {
        let conv = Convolver::new(FilterBank::random_separable(8, 9, 1), 3);
        let stats = vec![DataStats {
            count: 50,
            bytes_per_record: 0.0,
            dims: 128.0 * 128.0 * 3.0,
            nnz_per_record: 0.0,
            is_sparse: false,
        }];
        let r = keystone_dataflow::cluster::ClusterProfile::R3_4xlarge.descriptor(1);
        let best = conv
            .options()
            .into_iter()
            .min_by(|a, b| {
                (a.cost)(&stats, &r)
                    .estimated_seconds(&r)
                    .partial_cmp(&(b.cost)(&stats, &r).estimated_seconds(&r))
                    .expect("finite")
            })
            .map(|o| o.name)
            .expect("non-empty");
        assert_eq!(best, "separable");
    }

    #[test]
    fn separable_infeasible_for_full_rank_bank() {
        let conv = Convolver::new(FilterBank::random(4, 5, 9), 3);
        let stats = vec![DataStats::empty().at_scale(10)];
        let r = keystone_dataflow::cluster::ClusterProfile::R3_4xlarge.descriptor(1);
        let options = conv.options();
        let sep = options.iter().find(|o| o.name == "separable").expect("sep");
        assert!((sep.cost)(&stats, &r).flops >= INFEASIBLE_COST);
    }

    #[test]
    #[should_panic(expected = "filter larger than image")]
    fn filter_too_large_panics() {
        let img = test_image(4, 1, 1);
        let bank = FilterBank::random(1, 8, 1);
        let _ = convolve_direct_oracle(&img, &bank);
    }
}
