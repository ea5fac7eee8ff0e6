//! Figure 12: strong scaling from 8 to 128 nodes with a per-stage breakdown
//! (load / featurize / solve), on the Amazon, TIMIT (65k features) and
//! ImageNet (16k features) configurations the paper plots.
//!
//! This is a paper-scale cost-model projection (a laptop cannot exhibit
//! 128-node behaviour): stage costs use Table 3's dataset shapes, Table 1's
//! solver models, and per-record featurization costs calibrated so the
//! 8-node totals land in the paper's range. The *shape* under test:
//! featurization scales ~1/w; solves carry communication + barrier terms
//! that do not scale, so the solve-heavy pipelines (TIMIT) and the
//! aggregation-bound one (Amazon) go sub-linear by 128 nodes while ImageNet
//! stays near-linear — exactly Fig. 12's story.

use keystone_bench::{print_table, save_json};
use keystone_dataflow::cluster::{ClusterProfile, ResourceDesc};
use keystone_solvers::cost::{block_solve_cost, lbfgs_cost, SolveShape};

/// Sustained DGEMM throughput of an r3.4xlarge's 8 cores (the conservative
/// default in `ClusterProfile` models mixed scalar workloads; dense solver
/// kernels run near BLAS peak).
const BLAS_GFLOPS: f64 = 1.6e11;

fn r3(workers: usize) -> ResourceDesc {
    let mut r = ClusterProfile::R3_4xlarge.descriptor(workers);
    r.gflops_per_worker = BLAS_GFLOPS;
    r
}

struct StageModel {
    name: &'static str,
    /// Raw input gigabytes (load stage).
    raw_gb: f64,
    /// Records.
    n: f64,
    /// Featurization FLOPs per record.
    feat_flops: f64,
    /// Featurization coordination bytes on the busiest link (aggregation
    /// trees, e.g. CommonSparseFeatures' vocabulary count).
    feat_coord_bytes: f64,
    /// Solve-stage shape + solver.
    solve: Box<dyn Fn(&ResourceDesc) -> f64>,
}

fn main() {
    let models = vec![
        StageModel {
            name: "amazon",
            raw_gb: 13.97,
            n: 65_000_000.0,
            feat_flops: 2.3e6, // tokenization + n-grams + hashing per doc
            // Aggregation tree over ~10M distinct n-gram counts.
            feat_coord_bytes: 10e6 * 16.0,
            solve: Box::new(|r| {
                let shape = SolveShape::new(65_000_000, 100_000, 2, Some(100.0));
                lbfgs_cost(&shape, 20, r).estimated_seconds(r)
            }),
        },
        StageModel {
            name: "timit-65k",
            raw_gb: 7.5,
            n: 2_251_569.0,
            feat_flops: 440.0 * 65_536.0 * 2.0, // random-feature projection
            feat_coord_bytes: 0.0,
            solve: Box::new(|r| {
                let shape = SolveShape::new(2_251_569, 65_536, 147, None);
                block_solve_cost(&shape, 5, 4096, r).estimated_seconds(r)
            }),
        },
        StageModel {
            name: "imagenet-16k",
            raw_gb: 74.0,
            n: 1_281_167.0,
            feat_flops: 2.5e10, // SIFT + LCS + Fisher vectors per image
            feat_coord_bytes: 0.0,
            solve: Box::new(|r| {
                let shape = SolveShape::new(1_281_167, 16_384, 1000, None);
                block_solve_cost(&shape, 5, 4096, r).estimated_seconds(r)
            }),
        },
    ];

    let workers = [8usize, 16, 32, 64, 128];
    let mut rows = Vec::new();
    for m in &models {
        let mut base_total = 0.0;
        for &w in &workers {
            let r = r3(w);
            let wf = w as f64;
            let load = m.raw_gb * 1e9 / (r.disk_bandwidth * wf);
            let featurize = m.n * m.feat_flops / (r.gflops_per_worker * wf)
                + m.feat_coord_bytes * (wf.log2()) / r.net_bandwidth;
            let solve = (m.solve)(&r);
            let total = load + featurize + solve;
            if w == 8 {
                base_total = total;
            }
            rows.push(vec![
                m.name.to_string(),
                format!("{}", w),
                format!("{:.1}", load / 60.0),
                format!("{:.1}", featurize / 60.0),
                format!("{:.1}", solve / 60.0),
                format!("{:.1}", total / 60.0),
                format!("{:.2}x", base_total / total),
            ]);
        }
    }
    print_table(
        "Fig 12: strong scaling, simulated minutes by stage (speedup vs 8 nodes; ideal 16x at 128)",
        &[
            "pipeline",
            "nodes",
            "load",
            "featurize",
            "solve",
            "total",
            "speedup",
        ],
        &rows,
    );
    save_json("fig12_scaling", &rows);
    println!(
        "\nExpected shape (paper): ImageNet near-ideal to 128 nodes (featurization-\n\
         dominated, embarrassingly parallel); TIMIT sub-linear (solve communication);\n\
         Amazon sub-linear (solver barriers + the CommonSparseFeatures aggregation\n\
         tree)."
    );
}
