//! §3 "Cost Model Evaluation": how often does the cost-based optimizer pick
//! the empirically fastest physical operator?
//!
//! The paper reports 90% correct for linear solvers and 84% for PCA, with
//! wrong picks only where two operators were nearly tied. We reproduce the
//! protocol: enumerate a problem grid, time every physical operator, and
//! compare the optimizer's pick (using a locally *calibrated* resource
//! descriptor, as §3 prescribes) against the measured winner. A pick is
//! also scored "near-tie" when it is within 2× of the best.

use keystone_bench::problems::{dense, sparse};
use keystone_bench::{print_table, quick_mode, save_json, time_once};
use keystone_core::context::ExecContext;
use keystone_core::operator::{OptimizableEstimator, OptimizableLabelEstimator};
use keystone_core::record::DataStats;
use keystone_dataflow::cluster::calibrate_local;
use keystone_dataflow::collection::DistCollection;
use keystone_linalg::rng::XorShiftRng;
use keystone_ops::stats::pca::{
    fit_dist_exact, fit_dist_tsvd, fit_local_exact, fit_local_tsvd, Pca,
};
use keystone_ops::stats::INFEASIBLE_COST;
use keystone_solvers::solver_op::LinearSolverOp;

fn stats_for(n: usize, d: usize, k: usize, nnz: Option<f64>) -> Vec<DataStats> {
    vec![
        DataStats {
            count: n,
            bytes_per_record: nnz.map_or(d as f64 * 8.0, |s| s * 12.0),
            dims: d as f64,
            nnz_per_record: nnz.unwrap_or(d as f64),
            is_sparse: nnz.is_some(),
        },
        DataStats {
            count: n,
            bytes_per_record: k as f64 * 8.0,
            dims: k as f64,
            nnz_per_record: 1.0,
            is_sparse: false,
        },
    ]
}

fn main() {
    // Calibrated descriptor: local FLOP rate / bandwidths, as the paper's
    // microbenchmark-driven R. One worker, negligible barrier latency —
    // matching how the measured runs actually execute.
    // 8 logical workers: collections use 8 partitions, so distributed
    // operators genuinely run 8-way parallel on the local cores.
    let r = calibrate_local(8);
    let ctx = ExecContext::new(r.clone());

    let grid: Vec<(usize, usize, usize, Option<usize>)> = if quick_mode() {
        vec![
            (600, 64, 2, None),
            (600, 256, 2, None),
            (600, 512, 16, None),
            (2000, 64, 8, None),
            (2000, 512, 2, Some(8)),
            (2000, 2048, 2, Some(8)),
            (1000, 1024, 2, Some(16)),
            (600, 128, 32, None),
        ]
    } else {
        vec![
            (2000, 256, 2, None),
            (2000, 1024, 16, None),
            (8000, 512, 8, None),
            (8000, 4096, 2, Some(16)),
            (4000, 8192, 2, Some(32)),
            (2000, 512, 64, None),
        ]
    };

    let mut rows = Vec::new();
    let mut correct = 0usize;
    let mut near = 0usize;
    for &(n, d, k, nnz) in &grid {
        let op = LinearSolverOp {
            lbfgs_iters: 10,
            block_sweeps: 3,
            block_size: (d / 4).max(32),
            ..Default::default()
        };
        let stats = stats_for(n, d, k, nnz.map(|v| v as f64));
        // Time every feasible option and record the model's pick.
        let (pick, times) = if let Some(nnz) = nnz {
            let (data, labels) = sparse(n, d, nnz, k, 5);
            run_all(&op, &stats, &r, &ctx, &data, &labels)
        } else {
            let (data, labels) = dense(n, d, k, 5);
            run_all(&op, &stats, &r, &ctx, &data, &labels)
        };
        let best = times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .clone();
        let picked_time = times
            .iter()
            .find(|(name, _)| *name == pick)
            .map(|(_, t)| *t)
            .unwrap_or(f64::INFINITY);
        let ok = pick == best.0;
        let near_tie = picked_time <= best.1 * 2.0;
        correct += usize::from(ok);
        near += usize::from(near_tie);
        rows.push(vec![
            format!("{}x{}", n, d),
            format!("{}", k),
            nnz.map_or("dense".to_string(), |z| format!("nnz={}", z)),
            pick.clone(),
            best.0.clone(),
            if ok {
                "yes"
            } else if near_tie {
                "tie"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    print_table(
        "Cost model evaluation: linear solvers",
        &["problem", "k", "type", "picked", "fastest", "correct"],
        &rows,
    );
    println!(
        "solver: optimizer correct {}/{} ({:.0}%), within 2x of best {}/{} ({:.0}%)   [paper: 90%]",
        correct,
        grid.len(),
        100.0 * correct as f64 / grid.len() as f64,
        near,
        grid.len(),
        100.0 * near as f64 / grid.len() as f64
    );
    save_json("costmodel_eval_solvers", &rows);

    // ---- PCA ----
    let pca_grid: Vec<(usize, usize, usize)> = if quick_mode() {
        vec![
            (1000, 64, 2),
            (1000, 64, 32),
            (4000, 256, 4),
            (4000, 256, 128),
            (8000, 128, 8),
            (2000, 512, 8),
        ]
    } else {
        vec![
            (10_000, 256, 4),
            (10_000, 256, 128),
            (50_000, 512, 8),
            (5_000, 2048, 16),
        ]
    };
    let mut rows = Vec::new();
    let mut correct = 0usize;
    let mut near = 0usize;
    for &(n, d, k) in &pca_grid {
        let mut rng = XorShiftRng::new((n * d) as u64);
        let vecs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|j| rng.next_gaussian() / (1.0 + j as f64 / 4.0))
                    .collect()
            })
            .collect();
        let dist = DistCollection::from_vec(vecs.clone(), 8);
        let mut m = keystone_linalg::dense::DenseMatrix::zeros(n, d);
        for (i, v) in vecs.iter().enumerate() {
            m.row_mut(i).copy_from_slice(v);
        }
        let times = [
            (
                "local-svd".to_string(),
                time_once(|| fit_local_exact(&m, k)).1,
            ),
            (
                "local-tsvd".to_string(),
                time_once(|| fit_local_tsvd(&m, k, 1)).1,
            ),
            (
                "dist-svd".to_string(),
                time_once(|| fit_dist_exact(&dist, k)).1,
            ),
            (
                "dist-tsvd".to_string(),
                time_once(|| fit_dist_tsvd(&dist, k, 2, 1)).1,
            ),
        ];
        let stats = vec![DataStats {
            count: n,
            bytes_per_record: d as f64 * 8.0,
            dims: d as f64,
            nnz_per_record: d as f64,
            is_sparse: false,
        }];
        let opts = Pca::new(k).options();
        let pick = opts
            .iter()
            .filter(|o| (o.cost)(&stats, &r).flops < INFEASIBLE_COST)
            .min_by(|a, b| {
                (a.cost)(&stats, &r)
                    .estimated_seconds(&r)
                    .partial_cmp(&(b.cost)(&stats, &r).estimated_seconds(&r))
                    .expect("finite")
            })
            .map(|o| o.name.clone())
            .expect("feasible option");
        let best = times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .clone();
        let picked_time = times
            .iter()
            .find(|(nm, _)| *nm == pick)
            .map(|(_, t)| *t)
            .unwrap_or(f64::INFINITY);
        let ok = pick == best.0;
        let near_tie = picked_time <= best.1 * 2.0;
        correct += usize::from(ok);
        near += usize::from(near_tie);
        rows.push(vec![
            format!("{}x{}", n, d),
            format!("{}", k),
            pick.clone(),
            best.0.clone(),
            if ok {
                "yes"
            } else if near_tie {
                "tie"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    print_table(
        "Cost model evaluation: PCA",
        &["problem", "k", "picked", "fastest", "correct"],
        &rows,
    );
    println!(
        "pca: optimizer correct {}/{} ({:.0}%), within 2x of best {}/{} ({:.0}%)   [paper: 84%]",
        correct,
        pca_grid.len(),
        100.0 * correct as f64 / pca_grid.len() as f64,
        near,
        pca_grid.len(),
        100.0 * near as f64 / pca_grid.len() as f64
    );
    save_json("costmodel_eval_pca", &rows);
}

type Timed = Vec<(String, f64)>;

fn run_all<F: keystone_solvers::Features>(
    op: &LinearSolverOp,
    stats: &[DataStats],
    r: &keystone_dataflow::cluster::ResourceDesc,
    ctx: &ExecContext,
    data: &DistCollection<F>,
    labels: &DistCollection<Vec<f64>>,
) -> (String, Timed) {
    let options = <LinearSolverOp as OptimizableLabelEstimator<F, Vec<f64>, Vec<f64>>>::options(op);
    let mut times = Vec::new();
    for o in &options {
        if (o.cost)(stats, r).flops >= keystone_solvers::cost::INFEASIBLE {
            continue;
        }
        let (_, t) = time_once(|| o.op.fit(data, labels, ctx));
        times.push((o.name.clone(), t));
    }
    let pick = options
        .iter()
        .min_by(|a, b| {
            (a.cost)(stats, r)
                .estimated_seconds(r)
                .partial_cmp(&(b.cost)(stats, r).estimated_seconds(r))
                .expect("finite")
        })
        .map(|o| o.name.clone())
        .expect("non-empty");
    (pick, times)
}
