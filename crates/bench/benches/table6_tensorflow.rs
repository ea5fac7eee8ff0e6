//! Table 6: time to 84% accuracy on CIFAR-10 — synchronous minibatch SGD
//! (TensorFlow-style, strong and weak scaling) vs KeystoneML's
//! communication-avoiding solver, across 1–32 nodes.
//!
//! This is a paper-scale cost-model projection. Constants are calibrated
//! once against the paper's **1-node** measurements (TF 184 min, KeystoneML
//! 235 min); every other cell then follows from the cost model:
//!
//! * sync SGD pays, per step, minibatch-conv-net compute (`/w`) plus a model
//!   synchronization whose straggler-amplified barrier grows with `w` —
//!   which is what makes its curve bottom out and turn around;
//! * weak scaling keeps per-step compute constant and stops converging once
//!   the global batch passes ~2k examples (the paper's xxx entries);
//! * KeystoneML's solve is one communication-avoiding sweep whose compute
//!   scales `/w` against a small non-parallelizable driver fraction.
//!
//! The convergence dynamics themselves (sync SGD does reach the target on a
//! scaled problem; chunked runs resume deterministically) are exercised by
//! the unit tests in `keystone_solvers::sgd`.

use keystone_bench::{print_table, save_json};
use keystone_dataflow::cluster::ClusterProfile;
use keystone_solvers::cost::{block_solve_cost, SolveShape};

/// Conv-net forward+backward FLOPs per example (order of the paper's CIFAR
/// model; calibrated with `STEPS_STRONG` to the 1-node 184 min).
const FLOPS_PER_EXAMPLE: f64 = 5.0e8;
/// SGD steps to 84% with the fixed 128-image batch.
const STEPS_STRONG: usize = 4_000;
/// SGD steps to 84% in the weak regime while it still converges (larger
/// batches need slightly fewer steps).
const STEPS_WEAK: usize = 2_900;
/// Straggler / parameter-server congestion amplification per node.
const STRAGGLER: f64 = 0.3;
/// Model parameters synchronized each step.
const MODEL_PARAMS: f64 = 1.0e6;
/// Non-parallelizable driver fraction of the KeystoneML pipeline (minutes),
/// calibrated to the paper's 1-node run.
const KS_DRIVER_MINUTES: f64 = 22.0;

fn sgd_minutes(steps: usize, workers: usize, minibatch: usize) -> f64 {
    let r = ClusterProfile::R3_4xlarge.descriptor(workers);
    let w = workers as f64;
    let per_step_compute = FLOPS_PER_EXAMPLE * minibatch as f64 / (w * r.gflops_per_worker);
    let per_step_coord = 8.0 * MODEL_PARAMS * w.log2().max(1.0) / r.net_bandwidth
        + r.barrier_latency_secs * (1.0 + STRAGGLER * w);
    steps as f64 * (per_step_compute + per_step_coord) / 60.0
}

fn main() {
    // CIFAR at paper scale (Table 3: 500k augmented examples, 135k conv
    // features, 10 classes) for the KeystoneML solve.
    let cifar = SolveShape::new(500_000, 135_168, 10, None);

    let workers = [1usize, 2, 4, 8, 16, 32];
    let mut table = Vec::new();
    for &w in &workers {
        let strong = Some(sgd_minutes(STEPS_STRONG, w, 128));
        // Weak scaling: global batch 128·w; past ~2k examples per batch the
        // paper's runs stopped converging to a good model.
        let weak = if 128 * w <= 1024 {
            Some(sgd_minutes(
                if w == 1 { STEPS_STRONG } else { STEPS_WEAK },
                w,
                128 * w,
            ))
        } else {
            None
        };
        let r = ClusterProfile::R3_4xlarge.descriptor(w);
        let ks_minutes =
            block_solve_cost(&cifar, 1, 2048, &r).estimated_seconds(&r) / 60.0 + KS_DRIVER_MINUTES;
        let fmt = |t: Option<f64>| t.map_or("xxx".to_string(), |m| format!("{:.0}", m));
        table.push(vec![
            format!("{}", w),
            fmt(strong),
            fmt(weak),
            format!("{:.0}", ks_minutes),
        ]);
    }
    print_table(
        "Table 6: simulated minutes to 84% accuracy (xxx = no convergence)",
        &["nodes", "sgd-strong", "sgd-weak", "keystoneml"],
        &table,
    );
    save_json("table6_tensorflow", &table);
    println!(
        "\nPaper:      TF-strong 184/90/57/67/122/292 | TF-weak 184/135/135/114/xxx/xxx\n\
         \u{20}           KeystoneML 235/125/69/43/32/29  (1/2/4/8/16/32 nodes)\n\
         Expected shape here: sgd-strong bottoms out around 4-8 nodes then\n\
         degrades; sgd-weak flat then xxx; keystoneml keeps improving and wins\n\
         from ~8 nodes on."
    );
}
