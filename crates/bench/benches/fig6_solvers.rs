//! Figure 6: solver runtime as the number of features grows, on a sparse
//! Amazon-like problem and a dense TIMIT-like problem.
//!
//! The paper's finding: on sparse text features L-BFGS is 5–260× faster
//! than the exact/block solvers (it exploits `O(nnz)` gradients, and the
//! exact solver runs out of memory past 4k features); on dense features the
//! exact solver wins at small `d` but its quadratic growth hands the lead
//! to the block solver past ~8k features.
//!
//! Part A measures wall time on scaled problems; part B evaluates the
//! Table 1 cost models at **paper scale** (Table 3 record counts on
//! 16 × r3.4xlarge) over the paper's 1k–64k feature range, which is where
//! the published crossovers appear. `x` marks infeasible plans.

use keystone_bench::problems::{dense, mse, sparse};
use keystone_bench::{print_table, quick_mode, save_json, secs, time_once};
use keystone_core::context::ExecContext;
use keystone_core::operator::LabelEstimator;
use keystone_dataflow::cluster::ClusterProfile;
use keystone_solvers::block::BlockSolver;
use keystone_solvers::cost::{
    block_solve_cost, dist_qr_cost, lbfgs_cost, local_qr_cost, SolveShape, INFEASIBLE,
};
use keystone_solvers::dist_qr::DistQrSolver;
use keystone_solvers::lbfgs::LbfgsSolver;

fn fmt_cost(
    c: keystone_dataflow::cost::CostProfile,
    r: &keystone_dataflow::cluster::ResourceDesc,
) -> String {
    if c.flops >= INFEASIBLE {
        "x".to_string()
    } else {
        secs(c.estimated_seconds(r))
    }
}

fn main() {
    let ctx = ExecContext::default_cluster();
    let dims: Vec<usize> = if quick_mode() {
        vec![256, 512, 1024, 2048]
    } else {
        vec![1024, 2048, 4096, 8192, 16384]
    };

    // ---------------- Part A: measured wall time, scaled problems --------
    let mut rows = Vec::new();
    for &d in &dims {
        let n = 4_000;
        let (data, labels) = sparse(n, d, 20, 2, 42);
        let (exact, t_exact) = time_once(|| DistQrSolver::new().fit(&data, &labels, &ctx));
        let (lb, t_lbfgs) = time_once(|| LbfgsSolver::with_iters(20).fit(&data, &labels, &ctx));
        let (bl, t_block) =
            time_once(|| BlockSolver::with_config(d / 4, 5).fit(&data, &labels, &ctx));
        rows.push(vec![
            "amazon".to_string(),
            format!("{}", d),
            secs(t_exact),
            secs(t_block),
            secs(t_lbfgs),
            format!(
                "{:.3}/{:.3}/{:.3}",
                mse(&*exact, &data, &labels),
                mse(&*bl, &data, &labels),
                mse(&*lb, &data, &labels)
            ),
        ]);
    }
    for &d in &dims {
        let n = 1_000;
        let k = 32;
        let (data, labels) = dense(n, d, k, 7);
        let (exact, t_exact) = time_once(|| DistQrSolver::new().fit(&data, &labels, &ctx));
        let (lb, t_lbfgs) = time_once(|| LbfgsSolver::with_iters(20).fit(&data, &labels, &ctx));
        let (bl, t_block) =
            time_once(|| BlockSolver::with_config((d / 4).max(64), 5).fit(&data, &labels, &ctx));
        rows.push(vec![
            "timit".to_string(),
            format!("{}", d),
            secs(t_exact),
            secs(t_block),
            secs(t_lbfgs),
            format!(
                "{:.3}/{:.3}/{:.3}",
                mse(&*exact, &data, &labels),
                mse(&*bl, &data, &labels),
                mse(&*lb, &data, &labels)
            ),
        ]);
    }
    print_table(
        "Fig 6a: measured wall time at bench scale (loss = exact/block/lbfgs)",
        &[
            "dataset",
            "features",
            "exact",
            "block",
            "lbfgs",
            "train mse e/b/l",
        ],
        &rows,
    );
    save_json("fig6_solvers_measured", &rows);

    // ---------------- Part B: cost model at paper scale -------------------
    let r16 = ClusterProfile::R3_4xlarge.descriptor(16);
    let mut model_rows = Vec::new();
    for &d in &[1024usize, 2048, 4096, 8192, 16384, 32768, 65536] {
        // Amazon: 65M examples, sparse (~100 nnz), binary.
        let amazon = SolveShape::new(65_000_000, d, 2, Some(100.0));
        model_rows.push(vec![
            "amazon".to_string(),
            format!("{}", d),
            fmt_cost(local_qr_cost(&amazon, &r16), &r16),
            fmt_cost(dist_qr_cost(&amazon, &r16), &r16),
            fmt_cost(block_solve_cost(&amazon, 5, 4096, &r16), &r16),
            fmt_cost(lbfgs_cost(&amazon, 20, &r16), &r16),
        ]);
    }
    for &d in &[1024usize, 2048, 4096, 8192, 16384, 32768, 65536] {
        // TIMIT: 2.25M examples, dense, 147 classes. Fig. 6 compares time
        // to reach the *same training loss*: on dense ill-conditioned
        // features L-BFGS needs ~100 iterations to match the exact
        // solution, while 5 Gauss-Seidel sweeps over 2048-wide blocks
        // suffice.
        let timit = SolveShape::new(2_251_569, d, 147, None);
        model_rows.push(vec![
            "timit".to_string(),
            format!("{}", d),
            fmt_cost(local_qr_cost(&timit, &r16), &r16),
            fmt_cost(dist_qr_cost(&timit, &r16), &r16),
            fmt_cost(block_solve_cost(&timit, 5, 2048, &r16), &r16),
            fmt_cost(lbfgs_cost(&timit, 100, &r16), &r16),
        ]);
    }
    print_table(
        "Fig 6b: Table 1 cost models @ paper scale (16 nodes; x = infeasible)",
        &[
            "dataset", "features", "local-qr", "dist-qr", "block", "lbfgs",
        ],
        &model_rows,
    );
    save_json("fig6_solvers_model", &model_rows);
    println!(
        "\nExpected shape: amazon — lbfgs dominates everywhere and local exact\n\
         becomes infeasible (the paper's solver crash past 4k features);\n\
         timit — exact (dist-qr) cheapest below ~8k features, block overtakes\n\
         beyond that, lbfgs 2-3x slower than block on dense many-class data\n\
         (at loss-matched iteration budgets), exactly Fig. 6's ordering."
    );
}
