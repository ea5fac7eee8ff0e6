//! Hyperparameter-sweep workload: N pipeline variants over one shared
//! featurization-plus-base-model trunk.
//!
//! This is the regime the forest optimizer
//! ([`keystone_core::optimizer::fit_forest`]) targets: a sweep trains many
//! near-identical pipelines whose expensive prefix is byte-for-byte the
//! same plan region, while only a cheap head varies. The trunk here is the
//! TIMIT-style random-feature lift of [`crate::pipelines::speech_pipeline`]
//! followed by a full-budget base solve (a model-stacking preconditioner);
//! each variant then re-solves the base model's scores under its own ridge
//! parameter with a small iteration budget. Fitted independently, every
//! variant recomputes the lift *and* the base solve; fitted as a forest,
//! cross-pipeline CSE merges the trunk and the expensive base solve runs
//! once.
//!
//! All variants are built from **one** `Pipeline::input()` handle, so the
//! trunk is shared at the graph level (same nodes, same operator `Arc`s) —
//! exactly what repeated `and_then` calls in a real sweep loop produce.

use keystone_core::pipeline::{gather, Pipeline};
use keystone_dataflow::collection::DistCollection;
use keystone_ops::stats::RandomFeatures;
use keystone_solvers::solver_op::LinearSolverOp;

/// Configuration for the sweep: trunk shape plus the head grid.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Random-feature blocks merged with `gather` (the shared trunk).
    pub blocks: usize,
    /// Features per block.
    pub block_dim: usize,
    /// RBF bandwidth of the random-feature lift.
    pub gamma: f64,
    /// Seed for the random feature maps (shared by every variant).
    pub seed: u64,
    /// The shared base solve ending the trunk — deliberately given the
    /// full iteration budget, it dominates the simulated cost.
    pub trunk_solver: LinearSolverOp,
    /// Template for the per-variant head solve; `lambda` is overridden by
    /// each grid value. Kept cheap (few iterations) so the sweep's cost
    /// lives in the shared trunk, as in a real stacking sweep.
    pub head_solver: LinearSolverOp,
    /// Ridge-regularization grid — one pipeline variant per value.
    pub lambdas: Vec<f64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            blocks: 3,
            block_dim: 24,
            gamma: 0.8,
            seed: 42,
            trunk_solver: LinearSolverOp::default(),
            head_solver: LinearSolverOp {
                lbfgs_iters: 2,
                ..LinearSolverOp::default()
            },
            lambdas: vec![1e-6, 1e-4, 1e-2, 1.0],
        }
    }
}

impl SweepConfig {
    /// Number of variants the grid produces.
    pub fn variants(&self) -> usize {
        self.lambdas.len()
    }
}

/// Builds the sweep: one shared trunk (random-feature lift + base solve),
/// then one variant per `lambda` in the grid, each ending in its own cheap
/// head solver over the base model's scores. The returned pipelines all
/// view the same underlying graph; pass them together to `fit_forest`
/// (sharing merges the trunk, so the base solve runs once) or fit each
/// alone (every fit pays for it).
pub fn sweep_pipelines(
    cfg: &SweepConfig,
    train: &DistCollection<Vec<f64>>,
    train_labels: &DistCollection<Vec<f64>>,
) -> Vec<Pipeline<Vec<f64>, Vec<f64>>> {
    assert!(!cfg.lambdas.is_empty(), "sweep needs at least one lambda");
    let input = Pipeline::<Vec<f64>, Vec<f64>>::input();
    let branches: Vec<Pipeline<Vec<f64>, Vec<f64>>> = (0..cfg.blocks)
        .map(|b| {
            input.and_then(
                RandomFeatures {
                    out_dim: cfg.block_dim,
                    gamma: cfg.gamma,
                    seed: cfg.seed.wrapping_add(b as u64),
                }
                .materialized(),
            )
        })
        .collect();
    let trunk = gather(&branches).and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
        cfg.trunk_solver.clone(),
        train,
        train_labels,
    );
    cfg.lambdas
        .iter()
        .map(|&lambda| {
            trunk.and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
                LinearSolverOp {
                    lambda,
                    ..cfg.head_solver.clone()
                },
                train,
                train_labels,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_gen::TimitLike;
    use keystone_solvers::logistic::one_hot;

    #[test]
    fn sweep_variants_share_one_graph() {
        let ds = TimitLike {
            n: 32,
            dim: 4,
            classes: 3,
            separation: 2.0,
            seed: 9,
            stream: 0,
            partitions: 1,
            quantize: Some(64),
        }
        .generate();
        let labels = one_hot(&ds.labels, 3);
        let cfg = SweepConfig::default();
        let tenants = sweep_pipelines(&cfg, &ds.data, &labels);
        assert_eq!(tenants.len(), cfg.variants());
        // Same graph object under every handle: equal node counts, and the
        // trunk (everything but the per-variant head solve + apply)
        // accounts for all sharing.
        let len = tenants[0].graph_snapshot().len();
        for t in &tenants[1..] {
            assert_eq!(t.graph_snapshot().len(), len);
        }
    }
}
