//! The optimizable PCA operator (§3, Table 2): one logical operator, four
//! physical implementations — {local, distributed} × {exact SVD, randomized
//! truncated SVD}.
//!
//! * local exact: gather + covariance eigendecomposition, `O(n d²)`;
//! * local approximate: gather + randomized TSVD, `O(n d k)`;
//! * distributed exact: tree-aggregated covariance (`O(n d² / w)` compute,
//!   `O(d²)` network) + driver eigensolve;
//! * distributed approximate: distributed randomized range finder
//!   (`O(n d l / w)` per pass, `O(d l)` network per pass).

use keystone_core::context::ExecContext;
use keystone_core::operator::{Estimator, EstimatorOption, OptimizableEstimator, Transformer};
use keystone_core::record::DataStats;
use keystone_dataflow::cluster::ResourceDesc;
use keystone_dataflow::collection::DistCollection;
use keystone_dataflow::cost::CostProfile;
use keystone_linalg::dense::DenseMatrix;
use keystone_linalg::eigen::sym_eigen;
use keystone_linalg::gemm::matmul;
use keystone_linalg::qr::QrFactorization;
use keystone_linalg::rng::XorShiftRng;
use keystone_linalg::svd::pca_via_covariance;
use keystone_linalg::tsvd::{truncated_svd, TsvdOptions};

use super::INFEASIBLE_COST;

/// Fitted PCA projection.
#[derive(Clone)]
pub struct PcaModel {
    /// Training mean.
    pub mean: Vec<f64>,
    /// Principal components, `d × k`.
    pub components: DenseMatrix,
}

impl PcaModel {
    /// Projects one vector.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(a, b)| a - b).collect();
        self.components.tr_matvec(&centered)
    }
}

impl Transformer<Vec<f64>, Vec<f64>> for PcaModel {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        self.project(x)
    }
    fn name(&self) -> String {
        "PCAModel".into()
    }
}

/// Row-wise PCA over descriptor matrices.
#[derive(Clone)]
pub struct DescriptorPcaModel {
    inner: PcaModel,
}

impl Transformer<DenseMatrix, DenseMatrix> for DescriptorPcaModel {
    fn apply(&self, rows: &DenseMatrix) -> DenseMatrix {
        let k = self.inner.components.cols();
        let mut out = DenseMatrix::zeros(rows.rows(), k);
        for i in 0..rows.rows() {
            out.row_mut(i)
                .copy_from_slice(&self.inner.project(rows.row(i)));
        }
        out
    }
    fn name(&self) -> String {
        "ReduceDimensions".into()
    }
}

// ---------------------------------------------------------------------------
// Fitting kernels (shared by the physical operators and the Table 2 bench)
// ---------------------------------------------------------------------------

/// Exact PCA on a local matrix via the covariance eigendecomposition.
pub fn fit_local_exact(x: &DenseMatrix, k: usize) -> PcaModel {
    let mean = x.col_means();
    let mut centered = x.clone();
    centered.center_rows(&mean);
    let components = pca_via_covariance(&centered, k.min(x.cols()));
    PcaModel { mean, components }
}

/// Approximate PCA on a local matrix via randomized truncated SVD.
pub fn fit_local_tsvd(x: &DenseMatrix, k: usize, seed: u64) -> PcaModel {
    let mean = x.col_means();
    let mut centered = x.clone();
    centered.center_rows(&mean);
    let dec = truncated_svd(
        &centered,
        k.min(x.cols()),
        TsvdOptions {
            seed,
            ..Default::default()
        },
    );
    PcaModel {
        mean,
        components: dec.v,
    }
}

/// Exact PCA over a distributed collection: per-partition `(n, Σx, XᵀX)`
/// tree-aggregated, covariance formed and eigendecomposed on the driver.
pub fn fit_dist_exact(data: &DistCollection<Vec<f64>>, k: usize) -> PcaModel {
    let d = data.iter().next().map_or(0, |x| x.len());
    let partial = data.map_reduce_partitions(
        |part| {
            let mut sum = vec![0.0; d];
            let mut g = DenseMatrix::zeros(d, d);
            for x in part {
                for (s, &v) in sum.iter_mut().zip(x) {
                    *s += v;
                }
                for i in 0..d {
                    let xi = x[i];
                    if xi == 0.0 {
                        continue;
                    }
                    let row = &mut g.data_mut()[i * d..(i + 1) * d];
                    for (j, &xj) in x.iter().enumerate().skip(i) {
                        row[j] += xi * xj;
                    }
                }
            }
            (part.len() as f64, sum, g)
        },
        |(n1, mut s1, mut g1), (n2, s2, g2)| {
            for (a, b) in s1.iter_mut().zip(&s2) {
                *a += b;
            }
            g1 += &g2;
            (n1 + n2, s1, g1)
        },
    );
    let Some((n, sum, g)) = partial else {
        return PcaModel {
            mean: vec![],
            components: DenseMatrix::zeros(0, 0),
        };
    };
    let mean: Vec<f64> = sum.iter().map(|s| s / n).collect();
    // cov = (XᵀX)/n − μμᵀ, symmetrized from the upper triangle.
    let mut cov = DenseMatrix::zeros(d, d);
    for i in 0..d {
        for j in i..d {
            let v = g.get(i, j) / n - mean[i] * mean[j];
            cov.set(i, j, v);
            cov.set(j, i, v);
        }
    }
    let components = sym_eigen(&cov).top_k(k.min(d));
    PcaModel { mean, components }
}

/// Approximate distributed PCA: randomized range finder with distributed
/// passes (`Y = XᵀX Ω` style power iterations), small factorization on the
/// driver.
pub fn fit_dist_tsvd(
    data: &DistCollection<Vec<f64>>,
    k: usize,
    power_iters: usize,
    seed: u64,
) -> PcaModel {
    let d = data.iter().next().map_or(0, |x| x.len());
    let n = data.count().max(1) as f64;
    let k = k.min(d);
    let l = (k + 8).min(d);
    // Mean (one pass).
    let sum = data
        .map_reduce_partitions(
            |part| {
                let mut s = vec![0.0; d];
                for x in part {
                    for (a, &v) in s.iter_mut().zip(x) {
                        *a += v;
                    }
                }
                s
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            },
        )
        .unwrap_or_else(|| vec![0.0; d]);
    let mean: Vec<f64> = sum.iter().map(|s| s / n).collect();

    let mut rng = XorShiftRng::new(seed);
    let mut omega = DenseMatrix::from_fn(d, l, |_, _| rng.next_gaussian());
    // Power iterations on the covariance: Ω ← orth(Cov · Ω), where
    // Cov·Ω is computed in one distributed pass per iteration.
    for _ in 0..power_iters.max(1) {
        let mean_c = mean.clone();
        let om = omega.clone();
        let y = data
            .map_reduce_partitions(
                |part| {
                    let mut acc = DenseMatrix::zeros(d, l);
                    for x in part {
                        let xc: Vec<f64> = x.iter().zip(&mean_c).map(|(a, b)| a - b).collect();
                        // t = xcᵀ Ω (length l), acc += xc ⊗ t.
                        let t = om.tr_matvec(&xc);
                        for (i, &xv) in xc.iter().enumerate() {
                            if xv == 0.0 {
                                continue;
                            }
                            let row = acc.row_mut(i);
                            for (r, &tv) in row.iter_mut().zip(&t) {
                                *r += xv * tv;
                            }
                        }
                    }
                    acc
                },
                |mut a, b| {
                    a += &b;
                    a
                },
            )
            .unwrap_or_else(|| DenseMatrix::zeros(d, l));
        omega = QrFactorization::new(y).q();
    }
    // Project covariance into the basis: B = Qᵀ Cov Q (small l×l), then
    // eigendecompose. Cov Q was the last pre-orthonormalization product; we
    // recompute via one more pass folded into the loop above by simply
    // using the final Q's Rayleigh quotient on a sample — cheaper: use the
    // relation Cov Q ≈ Y R⁻¹... For clarity we take one more pass:
    let mean_c = mean.clone();
    let q = omega.clone();
    let cov_q = data
        .map_reduce_partitions(
            |part| {
                let mut acc = DenseMatrix::zeros(d, l);
                for x in part {
                    let xc: Vec<f64> = x.iter().zip(&mean_c).map(|(a, b)| a - b).collect();
                    let t = q.tr_matvec(&xc);
                    for (i, &xv) in xc.iter().enumerate() {
                        if xv == 0.0 {
                            continue;
                        }
                        let row = acc.row_mut(i);
                        for (r, &tv) in row.iter_mut().zip(&t) {
                            *r += xv * tv;
                        }
                    }
                }
                acc
            },
            |mut a, b| {
                a += &b;
                a
            },
        )
        .unwrap_or_else(|| DenseMatrix::zeros(d, l));
    let small = matmul(&omega.transpose(), &cov_q); // l × l
                                                    // Symmetrize against numerical drift.
    let smallt = small.transpose();
    let mut sym = small;
    sym += &smallt;
    sym.scale_inplace(0.5);
    let eig = sym_eigen(&sym);
    let top = eig.top_k(k);
    let components = matmul(&omega, &top);
    PcaModel { mean, components }
}

// ---------------------------------------------------------------------------
// The optimizable operators
// ---------------------------------------------------------------------------

/// Optimizable PCA over vector records.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Output dimensionality.
    pub k: usize,
    /// Randomized-method seed.
    pub seed: u64,
    /// Power iterations for the approximate paths.
    pub power_iters: usize,
}

impl Pca {
    /// PCA to `k` components.
    pub fn new(k: usize) -> Self {
        Pca {
            k,
            seed: 0xACE,
            power_iters: 2,
        }
    }
}

struct LocalExactEst {
    k: usize,
}
impl Estimator<Vec<f64>, Vec<f64>> for LocalExactEst {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        let rows = data.collect();
        let d = rows.first().map_or(0, |r| r.len());
        let mut m = DenseMatrix::zeros(rows.len(), d);
        for (i, r) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(r);
        }
        Box::new(fit_local_exact(&m, self.k))
    }
    fn name(&self) -> String {
        "PCA[local-svd]".into()
    }
}

struct LocalTsvdEst {
    k: usize,
    seed: u64,
}
impl Estimator<Vec<f64>, Vec<f64>> for LocalTsvdEst {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        let rows = data.collect();
        let d = rows.first().map_or(0, |r| r.len());
        let mut m = DenseMatrix::zeros(rows.len(), d);
        for (i, r) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(r);
        }
        Box::new(fit_local_tsvd(&m, self.k, self.seed))
    }
    fn name(&self) -> String {
        "PCA[local-tsvd]".into()
    }
}

struct DistExactEst {
    k: usize,
}
impl Estimator<Vec<f64>, Vec<f64>> for DistExactEst {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        Box::new(fit_dist_exact(data, self.k))
    }
    fn name(&self) -> String {
        "PCA[dist-svd]".into()
    }
}

struct DistTsvdEst {
    k: usize,
    seed: u64,
    power_iters: usize,
}
impl Estimator<Vec<f64>, Vec<f64>> for DistTsvdEst {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        Box::new(fit_dist_tsvd(data, self.k, self.power_iters, self.seed))
    }
    fn name(&self) -> String {
        "PCA[dist-tsvd]".into()
    }
    fn weight(&self) -> u32 {
        (self.power_iters + 2) as u32
    }
}

/// Shape helper shared by the PCA cost models.
fn nd(stats: &[DataStats]) -> (f64, f64) {
    let s = stats.first().copied().unwrap_or_else(DataStats::empty);
    (s.count.max(1) as f64, s.dims.max(1.0))
}

impl OptimizableEstimator<Vec<f64>, Vec<f64>> for Pca {
    fn options(&self) -> Vec<EstimatorOption<Vec<f64>, Vec<f64>>> {
        let k = self.k as f64;
        let kk = self.k;
        let seed = self.seed;
        let q = self.power_iters;
        vec![
            EstimatorOption {
                name: "local-svd".into(),
                cost: Box::new(move |stats, r: &ResourceDesc| {
                    let (n, d) = nd(stats);
                    if 8.0 * n * d > r.mem_per_worker as f64 * 0.5 {
                        return CostProfile::compute(INFEASIBLE_COST);
                    }
                    CostProfile {
                        flops: 2.0 * n * d * d + d * d * d,
                        bytes: 8.0 * n * d,
                        network: 8.0 * n * d,
                        barriers: 1.0,
                    }
                }),
                op: Box::new(LocalExactEst { k: kk }),
            },
            EstimatorOption {
                name: "local-tsvd".into(),
                cost: Box::new(move |stats, r: &ResourceDesc| {
                    let (n, d) = nd(stats);
                    if 8.0 * n * d > r.mem_per_worker as f64 * 0.5 {
                        return CostProfile::compute(INFEASIBLE_COST);
                    }
                    let l = k + 8.0;
                    CostProfile {
                        flops: 2.0 * (q as f64 + 2.0) * n * d * l + n * l * l,
                        bytes: 8.0 * n * d,
                        network: 8.0 * n * d,
                        barriers: 1.0,
                    }
                }),
                op: Box::new(LocalTsvdEst { k: kk, seed }),
            },
            EstimatorOption {
                name: "dist-svd".into(),
                cost: Box::new(move |stats, r: &ResourceDesc| {
                    let (n, d) = nd(stats);
                    let w = r.workers.max(1) as f64;
                    CostProfile {
                        flops: n * d * d / w + 8.0 * d * d * d,
                        bytes: 8.0 * (n * d / w + d * d),
                        network: 8.0 * d * d * w.log2().max(1.0),
                        barriers: 1.0,
                    }
                }),
                op: Box::new(DistExactEst { k: kk }),
            },
            EstimatorOption {
                name: "dist-tsvd".into(),
                cost: Box::new(move |stats, r: &ResourceDesc| {
                    let (n, d) = nd(stats);
                    let w = r.workers.max(1) as f64;
                    let l = k + 8.0;
                    let passes = q as f64 + 2.0;
                    CostProfile {
                        flops: 4.0 * passes * n * d * l / w + l * l * l,
                        bytes: 8.0 * n * d / w,
                        network: 8.0 * passes * d * l * w.log2().max(1.0),
                        barriers: passes,
                    }
                }),
                op: Box::new(DistTsvdEst {
                    k: kk,
                    seed,
                    power_iters: q,
                }),
            },
        ]
    }

    fn default_index(&self) -> usize {
        2 // dist-svd: the safe exact default
    }

    fn name(&self) -> String {
        "PCA".into()
    }
}

/// PCA over per-record descriptor matrices (the image pipelines'
/// `ColumnSampler → PCA → ReduceDimensions` fused into one estimator:
/// descriptor rows are subsampled internally before fitting).
#[derive(Debug, Clone)]
pub struct DescriptorPca {
    /// Output dimensionality.
    pub k: usize,
    /// Cap on descriptor rows gathered for fitting.
    pub max_samples: usize,
    /// Randomized-method seed.
    pub seed: u64,
}

impl DescriptorPca {
    /// PCA to `k` components over at most 20k sampled descriptors.
    pub fn new(k: usize) -> Self {
        DescriptorPca {
            k,
            max_samples: 20_000,
            seed: 0xACE,
        }
    }
}

impl Estimator<DenseMatrix, DenseMatrix> for DescriptorPca {
    fn fit(
        &self,
        data: &DistCollection<DenseMatrix>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<DenseMatrix, DenseMatrix>> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        'outer: for m in data.iter() {
            for i in 0..m.rows() {
                rows.push(m.row(i).to_vec());
                if rows.len() >= self.max_samples {
                    break 'outer;
                }
            }
        }
        let d = rows.first().map_or(0, |r| r.len());
        let mut mat = DenseMatrix::zeros(rows.len(), d);
        for (i, r) in rows.iter().enumerate() {
            mat.row_mut(i).copy_from_slice(r);
        }
        // Sampled rows are modest: exact local PCA unless k is small
        // relative to d, where the randomized method is clearly cheaper.
        let inner = if self.k * 4 < d && rows.len() > 512 {
            fit_local_tsvd(&mat, self.k, self.seed)
        } else {
            fit_local_exact(&mat, self.k)
        };
        Box::new(DescriptorPcaModel { inner })
    }

    fn name(&self) -> String {
        "PCA".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data stretched along a known direction.
    fn anisotropic(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = XorShiftRng::new(seed);
        (0..n)
            .map(|_| {
                let main = rng.next_gaussian() * 10.0;
                (0..d)
                    .map(|j| {
                        let dir = if j == 0 { 1.0 } else { 0.5 / (j as f64) };
                        main * dir + rng.next_gaussian() * 0.1 + 3.0
                    })
                    .collect()
            })
            .collect()
    }

    fn to_matrix(rows: &[Vec<f64>]) -> DenseMatrix {
        let d = rows[0].len();
        let mut m = DenseMatrix::zeros(rows.len(), d);
        for (i, r) in rows.iter().enumerate() {
            m.row_mut(i).copy_from_slice(r);
        }
        m
    }

    /// Captured variance of the projection (should be ~total for k=1 here).
    fn captured_variance(model: &PcaModel, rows: &[Vec<f64>]) -> f64 {
        let projs: Vec<Vec<f64>> = rows.iter().map(|r| model.project(r)).collect();
        let k = projs[0].len();
        let n = projs.len() as f64;
        let mut var = 0.0;
        for c in 0..k {
            let mean: f64 = projs.iter().map(|p| p[c]).sum::<f64>() / n;
            var += projs.iter().map(|p| (p[c] - mean).powi(2)).sum::<f64>() / n;
        }
        var
    }

    #[test]
    fn all_four_implementations_agree_on_captured_variance() {
        let rows = anisotropic(400, 6, 1);
        let m = to_matrix(&rows);
        let dist = DistCollection::from_vec(rows.clone(), 4);
        let models = [
            fit_local_exact(&m, 2),
            fit_local_tsvd(&m, 2, 7),
            fit_dist_exact(&dist, 2),
            fit_dist_tsvd(&dist, 2, 3, 7),
        ];
        let exact_var = captured_variance(&models[0], &rows);
        for (i, model) in models.iter().enumerate() {
            let v = captured_variance(model, &rows);
            assert!(
                (v - exact_var).abs() < 0.02 * exact_var,
                "impl {}: variance {} vs exact {}",
                i,
                v,
                exact_var
            );
            assert_eq!(model.components.shape(), (6, 2));
        }
    }

    #[test]
    fn dist_exact_matches_local_exact_components() {
        let rows = anisotropic(200, 4, 2);
        let local = fit_local_exact(&to_matrix(&rows), 2);
        let dist = fit_dist_exact(&DistCollection::from_vec(rows, 3), 2);
        // Components match up to sign.
        for c in 0..2 {
            let a = local.components.col(c);
            let b = dist.components.col(c);
            let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                dot.abs() > 0.999,
                "component {} misaligned: |dot| = {}",
                c,
                dot.abs()
            );
        }
    }

    #[test]
    fn projection_removes_mean() {
        let rows = anisotropic(300, 5, 3);
        let model = fit_dist_exact(&DistCollection::from_vec(rows.clone(), 2), 3);
        let projs: Vec<Vec<f64>> = rows.iter().map(|r| model.project(r)).collect();
        for c in 0..3 {
            let mean: f64 = projs.iter().map(|p| p[c]).sum::<f64>() / projs.len() as f64;
            assert!(mean.abs() < 1e-6, "projected mean {} for comp {}", mean, c);
        }
    }

    #[test]
    fn optimizable_pca_prefers_approximate_for_small_k_large_d() {
        // Table 2 regime: n=1e6, d=4096, k=16 -> dist-tsvd.
        let pca = Pca::new(16);
        let stats = vec![DataStats {
            count: 1_000_000,
            bytes_per_record: 4096.0 * 8.0,
            dims: 4096.0,
            nnz_per_record: 4096.0,
            is_sparse: false,
        }];
        let r = keystone_dataflow::cluster::ClusterProfile::R3_4xlarge.descriptor(16);
        let best = pca
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
        assert_eq!(best, "dist-tsvd");
    }

    #[test]
    fn optimizable_pca_prefers_exact_for_large_k() {
        // k close to d: approximate loses its advantage (Table 2, k=1024).
        let pca = Pca::new(1024);
        let stats = vec![DataStats {
            count: 10_000,
            bytes_per_record: 4096.0 * 8.0,
            dims: 4096.0,
            nnz_per_record: 4096.0,
            is_sparse: false,
        }];
        let r = keystone_dataflow::cluster::ClusterProfile::R3_4xlarge.descriptor(16);
        let opts = pca.options();
        let tsvd_cost = opts
            .iter()
            .find(|o| o.name == "local-tsvd")
            .map(|o| (o.cost)(&stats, &r).estimated_seconds(&r))
            .expect("tsvd option");
        let svd_cost = opts
            .iter()
            .find(|o| o.name == "local-svd")
            .map(|o| (o.cost)(&stats, &r).estimated_seconds(&r))
            .expect("svd option");
        // With k ~ d/4, the gap must be small or reversed vs the k=16 case.
        assert!(svd_cost < tsvd_cost * 4.0);
    }

    #[test]
    fn local_infeasible_on_huge_data() {
        let pca = Pca::new(8);
        let stats = vec![DataStats {
            count: 10_000_000_000,
            bytes_per_record: 8.0 * 4096.0,
            dims: 4096.0,
            nnz_per_record: 4096.0,
            is_sparse: false,
        }];
        let r = keystone_dataflow::cluster::ClusterProfile::R3_4xlarge.descriptor(16);
        let opts = pca.options();
        let local = opts.iter().find(|o| o.name == "local-svd").expect("local");
        assert!((local.cost)(&stats, &r).flops >= INFEASIBLE_COST);
    }

    /// `Pca` chained with `and_then_optimizable_est` reaches
    /// `profile_and_select`: every physical option is priced, and the fitted
    /// pipeline is the one the chosen option gives when chained directly.
    #[test]
    fn optimizable_pca_in_a_pipeline_is_priced_and_the_pick_is_what_runs() {
        use keystone_core::optimizer::{OptLevel, PipelineOptions};
        use keystone_core::pipeline::Pipeline;
        use keystone_core::profiler::ProfileOptions;
        use keystone_core::trace::TraceEvent;

        struct Physical(Box<dyn Estimator<Vec<f64>, Vec<f64>>>);
        impl Estimator<Vec<f64>, Vec<f64>> for Physical {
            fn fit(
                &self,
                data: &DistCollection<Vec<f64>>,
                ctx: &ExecContext,
            ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
                self.0.fit(data, ctx)
            }
        }

        let train = DistCollection::from_vec(anisotropic(300, 6, 5), 4);
        let opts = PipelineOptions {
            level: OptLevel::Full,
            profile: ProfileOptions {
                sizes: vec![64, 128],
                deterministic_timing: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let ctx = ExecContext::default_cluster();
        let (fitted, _) = Pipeline::<Vec<f64>, Vec<f64>>::input()
            .and_then_optimizable_est(Pca::new(2), &train)
            .fit(&ctx, &opts);

        let choices: Vec<(String, Vec<_>)> = ctx
            .tracer
            .events()
            .into_iter()
            .filter_map(|e| match e.event {
                TraceEvent::OperatorChoice {
                    label,
                    chosen,
                    candidates,
                    ..
                } if label == "PCA" => Some((chosen, candidates)),
                _ => None,
            })
            .collect();
        assert_eq!(choices.len(), 1, "one OperatorChoice for the PCA node");
        let (chosen, candidates) = &choices[0];
        let names: Vec<&str> = candidates.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["local-svd", "local-tsvd", "dist-svd", "dist-tsvd"]);
        for c in candidates {
            assert!(
                c.est_secs.is_finite() || c.cost.flops >= INFEASIBLE_COST,
                "{}: {}",
                c.name,
                c.est_secs
            );
        }

        let op = Pca::new(2)
            .options()
            .into_iter()
            .find(|o| &o.name == chosen)
            .expect("the chosen name is one of the options")
            .op;
        let ctx2 = ExecContext::default_cluster();
        let (direct, _) = Pipeline::<Vec<f64>, Vec<f64>>::input()
            .and_then_est(Physical(op), &train)
            .fit(&ctx2, &opts);
        assert_eq!(
            fitted.apply(&train, &ctx).collect(),
            direct.apply(&train, &ctx2).collect()
        );
    }

    #[test]
    fn descriptor_pca_projects_rows() {
        let rows = anisotropic(100, 8, 4);
        let mats: Vec<DenseMatrix> = rows.chunks(10).map(to_matrix).collect();
        let data = DistCollection::from_vec(mats.clone(), 2);
        let ctx = ExecContext::default_cluster();
        let model = DescriptorPca::new(3).fit(&data, &ctx);
        let out = model.apply(&mats[0]);
        assert_eq!(out.shape(), (10, 3));
    }
}
