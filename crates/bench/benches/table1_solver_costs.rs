//! Table 1 validation: the solver cost formulas' *scaling* must match
//! measured behaviour. For each solver we double one problem axis and
//! compare the measured wall-time ratio against the cost model's predicted
//! ratio (constants cancel, so this checks the asymptotics directly).

use keystone_bench::problems::dense;
use keystone_bench::{print_table, save_json, time_once};
use keystone_core::context::ExecContext;
use keystone_core::operator::LabelEstimator;
use keystone_dataflow::cluster::calibrate_local;
use keystone_solvers::block::BlockSolver;
use keystone_solvers::cost::{block_solve_cost, dist_qr_cost, lbfgs_cost, SolveShape};
use keystone_solvers::dist_qr::DistQrSolver;
use keystone_solvers::lbfgs::LbfgsSolver;

fn main() {
    let r = calibrate_local(1);
    let ctx = ExecContext::new(r.clone());
    let (n0, d0, k) = (1_500usize, 192usize, 8usize);
    let mut rows = Vec::new();

    type Run = Box<dyn Fn(usize, usize) -> f64>;
    type Model = Box<dyn Fn(&SolveShape) -> f64>;
    let ctx2 = ctx.clone();
    let ctx3 = ctx.clone();
    let solvers: Vec<(&str, Run, Model)> = vec![
        (
            "dist-qr",
            Box::new(move |n, d| {
                let (data, labels) = dense(n, d, k, 1);
                time_once(|| DistQrSolver::new().fit(&data, &labels, &ctx)).1
            }),
            {
                let r = r.clone();
                Box::new(move |s| dist_qr_cost(s, &r).exec_seconds(&r))
            },
        ),
        (
            "lbfgs",
            Box::new(move |n, d| {
                let (data, labels) = dense(n, d, k, 1);
                time_once(|| LbfgsSolver::with_iters(8).fit(&data, &labels, &ctx2)).1
            }),
            {
                let r = r.clone();
                Box::new(move |s| lbfgs_cost(s, 8, &r).exec_seconds(&r))
            },
        ),
        (
            "block",
            Box::new(move |n, d| {
                let (data, labels) = dense(n, d, k, 1);
                time_once(|| BlockSolver::with_config(48, 3).fit(&data, &labels, &ctx3)).1
            }),
            {
                let r = r.clone();
                Box::new(move |s| block_solve_cost(s, 3, 48, &r).exec_seconds(&r))
            },
        ),
    ];

    for (name, run, model) in &solvers {
        let base = run(n0, d0);
        let shape0 = SolveShape::new(n0, d0, k, None);
        for (axis, n1, d1) in [("2x n", 2 * n0, d0), ("2x d", n0, 2 * d0)] {
            let t1 = run(n1, d1);
            let shape1 = SolveShape::new(n1, d1, k, None);
            let measured = t1 / base.max(1e-9);
            let predicted = model(&shape1) / model(&shape0).max(1e-30);
            rows.push(vec![
                name.to_string(),
                axis.to_string(),
                format!("{:.2}x", measured),
                format!("{:.2}x", predicted),
                if measured / predicted < 2.0 && predicted / measured < 2.0 {
                    "ok"
                } else {
                    "OFF"
                }
                .to_string(),
            ]);
        }
    }
    print_table(
        "Table 1 validation: measured vs predicted scaling ratios",
        &["solver", "axis", "measured", "predicted", "within 2x"],
        &rows,
    );
    save_json("table1_solver_costs", &rows);
    println!(
        "\nThe cost model only needs to rank alternatives (\"avoid bad decisions\"),\n\
         so agreement within 2x on scaling ratios is the success criterion."
    );
}
