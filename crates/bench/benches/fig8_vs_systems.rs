//! Figure 8: KeystoneML's optimizing solver vs a Vowpal-Wabbit-style fixed
//! online-SGD solver and a SystemML-style fixed CG solver, on binary
//! Amazon-like (sparse) and binary TIMIT-like (dense) problems across
//! feature sizes.
//!
//! Protocol (matching §5.2, "identical inputs and objective functions ...
//! end-to-end solve time"): every system must reach the same training-loss
//! target — 1.1× the loss of the exact least-squares solution. KeystoneML
//! solves once with its cost-model-selected operator; the fixed-algorithm
//! baselines double their iteration budget until they hit the target (or a
//! cap, reported as `> time`). SystemML additionally pays its
//! data-conversion pass.

use keystone_bench::problems::{dense, mse, sparse};
use keystone_bench::{print_table, quick_mode, save_json, secs, time_once};
use keystone_core::context::ExecContext;
use keystone_core::operator::{LabelEstimator, OptimizableLabelEstimator};
use keystone_core::record::DataStats;
use keystone_dataflow::collection::DistCollection;
use keystone_solvers::cg::CgSolver;
use keystone_solvers::dist_qr::DistQrSolver;
use keystone_solvers::losses::LossKind;
use keystone_solvers::solver_op::LinearSolverOp;
use keystone_solvers::vw::VwSolver;
use keystone_solvers::Features;

/// Doubles the baseline's iteration budget until the loss target is met.
/// Returns (cumulative seconds, hit-target).
fn time_to_target<F: Features>(
    mut fit: impl FnMut(usize) -> Box<dyn keystone_core::operator::Transformer<F, Vec<f64>>>,
    data: &DistCollection<F>,
    labels: &DistCollection<Vec<f64>>,
    target: f64,
    budgets: &[usize],
) -> (f64, bool) {
    let mut total = 0.0;
    for &budget in budgets {
        let (model, t) = time_once(|| fit(budget));
        total += t;
        if mse(&*model, data, labels) <= target {
            return (total, true);
        }
    }
    (total, false)
}

fn main() {
    let ctx = ExecContext::calibrated(8);
    let r = ctx.resources.clone();
    let dims: Vec<usize> = if quick_mode() {
        vec![256, 1024, 4096]
    } else {
        vec![1024, 4096, 16384]
    };
    let budgets = [5usize, 10, 20, 40, 80, 160];
    let mut rows = Vec::new();

    for &(name, is_sparse) in &[("amazon-bin", true), ("timit-bin", false)] {
        for &d in &dims {
            let n = if is_sparse { 6_000 } else { 1_500 };
            let (data_s, labels) = if is_sparse {
                let (a, b) = sparse(n, d, 20, 1, 11);
                (Some(a), b)
            } else {
                (None, dense(n, d, 1, 11).1)
            };
            let data_d = if is_sparse {
                None
            } else {
                Some(dense(n, d, 1, 11).0)
            };

            // Loss target: 1.1× the exact solution's loss.
            macro_rules! run {
                ($data:expr) => {{
                    let data = $data;
                    let exact = DistQrSolver::new().fit(data, &labels, &ctx);
                    let target = (mse(&*exact, data, &labels) * 1.1).max(1e-4);

                    // KeystoneML: cost-model pick, one solve.
                    let stats = vec![
                        DataStats {
                            count: n,
                            bytes_per_record: 0.0,
                            dims: d as f64,
                            nnz_per_record: if is_sparse { 20.0 } else { d as f64 },
                            is_sparse,
                        },
                        DataStats {
                            count: n,
                            bytes_per_record: 8.0,
                            dims: 1.0,
                            nnz_per_record: 1.0,
                            is_sparse: false,
                        },
                    ];
                    let op = LinearSolverOp::new();
                    let options = OptimizableLabelEstimator::<_, Vec<f64>, Vec<f64>>::options(&op);
                    let chosen = options
                        .iter()
                        .min_by(|a, b| {
                            (a.cost)(&stats, &r)
                                .estimated_seconds(&r)
                                .partial_cmp(&(b.cost)(&stats, &r).estimated_seconds(&r))
                                .expect("finite")
                        })
                        .expect("non-empty");
                    // KeystoneML gets the same iteration-doubling protocol
                    // as the baselines when its chosen operator is
                    // iterative; exact operators solve in one shot.
                    let (t_ks, ks_hit) = match chosen.name.as_str() {
                        "lbfgs" => time_to_target(
                            |iters| {
                                keystone_solvers::lbfgs::LbfgsSolver::with_iters(iters)
                                    .fit(data, &labels, &ctx)
                            },
                            data,
                            &labels,
                            target,
                            &budgets,
                        ),
                        "block" => time_to_target(
                            |sweeps| {
                                keystone_solvers::block::BlockSolver::with_config(
                                    (d / 4).max(32),
                                    sweeps,
                                )
                                .fit(data, &labels, &ctx)
                            },
                            data,
                            &labels,
                            target,
                            &budgets,
                        ),
                        _ => {
                            let (model, t) = time_once(|| chosen.op.fit(data, &labels, &ctx));
                            (t, mse(&*model, data, &labels) <= target * 1.01)
                        }
                    };

                    // VW-style: online SGD, epoch budget doubling.
                    let (t_vw, vw_hit) = time_to_target(
                        |epochs| {
                            VwSolver {
                                epochs,
                                lr: 0.5,
                                loss: LossKind::Squared,
                            }
                            .fit(data, &labels, &ctx)
                        },
                        data,
                        &labels,
                        target,
                        &budgets,
                    );

                    // SystemML-style: CG with conversion, iteration doubling.
                    let (t_sy, sy_hit) = time_to_target(
                        |iters| {
                            CgSolver {
                                iters,
                                lambda: 1e-8,
                                conversion_pass: true,
                            }
                            .fit(data, &labels, &ctx)
                        },
                        data,
                        &labels,
                        target,
                        &budgets,
                    );
                    (
                        chosen.name.clone(),
                        t_ks,
                        ks_hit,
                        t_vw,
                        vw_hit,
                        t_sy,
                        sy_hit,
                    )
                }};
            }

            let (choice, t_ks, ks_hit, t_vw, vw_hit, t_sy, sy_hit) = match (&data_s, &data_d) {
                (Some(dset), _) => run!(dset),
                (_, Some(dset)) => run!(dset),
                _ => unreachable!(),
            };
            let fmt = |t: f64, hit: bool| {
                if hit {
                    secs(t)
                } else {
                    format!(">{}", secs(t))
                }
            };
            rows.push(vec![
                name.to_string(),
                format!("{}", d),
                format!("{} ({})", fmt(t_ks, ks_hit), choice),
                fmt(t_vw, vw_hit),
                fmt(t_sy, sy_hit),
            ]);
        }
    }
    print_table(
        "Fig 8a: measured time to reach 1.1x the exact training loss (>t = target missed)",
        &["dataset", "features", "keystoneml", "vw-style", "systemml"],
        &rows,
    );
    save_json("fig8_vs_systems", &rows);

    // ---- Part B: cost models at paper scale (65M sparse / 2.25M dense,
    // 16 nodes). This is where the paper's gaps appear: at bench scale the
    // in-process CG baseline is free of SystemML's real-system overheads
    // (JVM, buffer pool, MR job launch) and thus competitive.
    use keystone_dataflow::cluster::ClusterProfile;
    use keystone_dataflow::cost::CostProfile;
    use keystone_solvers::cost::{dist_qr_cost, lbfgs_cost, SolveShape};
    let r16 = ClusterProfile::R3_4xlarge.descriptor(16);
    let mut model_rows = Vec::new();
    for &(name, d, shape) in &[
        (
            "amazon-bin",
            16384usize,
            SolveShape::new(65_000_000, 16_384, 1, Some(100.0)),
        ),
        (
            "timit-bin",
            1024,
            SolveShape::new(2_251_569, 1_024, 1, None),
        ),
        (
            "timit-bin",
            16384,
            SolveShape::new(2_251_569, 16_384, 1, None),
        ),
    ] {
        let w = 16.0f64;
        let ks_lbfgs = lbfgs_cost(&shape, 20, &r16).estimated_seconds(&r16);
        let ks_exact = dist_qr_cost(&shape, &r16).estimated_seconds(&r16);
        let ks = ks_lbfgs.min(ks_exact);
        // VW: streaming SGD + per-epoch model averaging. Part A measured
        // that averaged online SGD needs >60 epochs to approach the exact
        // training loss even on sparse data (and more on dense).
        let vw_epochs = if shape.s < shape.d { 60.0 } else { 80.0 };
        let vw = CostProfile {
            flops: 4.0 * vw_epochs * shape.n * shape.s / w,
            bytes: 8.0 * shape.n * shape.s / w,
            network: 8.0 * vw_epochs * shape.d * w.log2(),
            barriers: vw_epochs,
        }
        .estimated_seconds(&r16);
        // SystemML: conversion pass + CG (2 passes/iter, per class column).
        let cg_iters = 40.0;
        let sy = CostProfile {
            flops: 4.0 * cg_iters * shape.n * shape.s / w,
            bytes: (2.0 + cg_iters) * 8.0 * shape.n * shape.s / w,
            network: 8.0 * cg_iters * shape.d * w.log2(),
            barriers: 1.0 + 2.0 * cg_iters,
        }
        .estimated_seconds(&r16);
        model_rows.push(vec![
            name.to_string(),
            format!("{}", d),
            secs(ks),
            secs(vw),
            secs(sy),
        ]);
    }
    print_table(
        "Fig 8b: cost models @ paper scale (16 nodes)",
        &["dataset", "features", "keystoneml", "vw-style", "systemml"],
        &model_rows,
    );
    save_json("fig8_vs_systems_model", &model_rows);
    println!(
        "\nExpected shape: KeystoneML beats VW everywhere (measured) and leads both\n\
         at paper scale, where the fixed-algorithm baselines pay convergence\n\
         (VW on dense) and conversion + extra passes (SystemML); its physical\n\
         choice flips with shape (exact on small dense, L-BFGS on sparse/large)."
    );
}
