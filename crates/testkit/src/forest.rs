//! Multi-tenant forest axis of the differential oracle.
//!
//! The forest optimizer ([`keystone_core::optimizer::fit_forest`]) merges N
//! tenant pipelines into one plan — cross-pipeline CSE over a shared trunk,
//! one global materialization budget, round-robin wave execution — and runs
//! it only when its cost model estimates it strictly cheaper than N solo
//! fits. The model chooses; this module verifies, per seed, per cell:
//!
//! 1. **Equivalence** — each tenant's fitted pipeline must produce held-out
//!    predictions *bit-identical* (`f64::to_bits`) to the pipeline fit
//!    alone, in every optimization-level × budget × fusion × columnar cell;
//! 2. **Dominance** — the forest fit's total *measured* simulated cost must
//!    never exceed the sum of the N independent fits' measured costs;
//! 3. **Decision consistency** — the reported choice is the one the
//!    reported estimates imply.
//!
//! Forests are generated with *controlled prefix overlap*: one seeded trunk
//! of 0–4 stages (0 ⇒ no sharing at all, exercising the declined path) on a
//! single `Pipeline::input()` handle, then 2–4 divergent tenant heads each
//! ending in at least one estimator. **Precondition**: only truthfully-
//! declared operators are drawn. `fit_forest` chooses from estimates, so
//! dominance is a property of truthful profiles, not of the mechanism; cost
//! mis-declaration is a different axis ([`crate::oracle`]).

use keystone_core::context::ExecContext;
use keystone_core::optimizer::{fit_forest, CachingStrategy, PipelineOptions};
use keystone_core::pipeline::Pipeline;
use keystone_dataflow::collection::DistCollection;
use keystone_ops::stats::{Normalizer, SignedPowerNormalizer};

use crate::gen::{DataSpec, SplitMix64};
use crate::ops::{AbsVal, Affine, SeqMeanCenter, SeqRangeScale, SwapHalves, TwoPathScale};
use crate::oracle::{BUDGET_TIGHT, BUDGET_UNBOUNDED};

/// Parameter grids, shared with [`crate::gen`]'s philosophy: all float
/// operator parameters come from small fixed grids so a seed reproduces the
/// exact same bits everywhere.
const A_GRID: [f64; 4] = [0.5, -1.5, 2.0, 0.25];
const B_GRID: [f64; 4] = [0.0, 1.0, -2.0, 0.5];
const C_GRID: [f64; 4] = [2.0, 0.5, -1.0, 1.25];

/// A seeded multi-tenant forest: 2–4 pipelines branching off one shared
/// trunk, all handles into the *same* underlying graph so trunk stages are
/// literally the same nodes (maximal, honest prefix overlap).
pub struct GeneratedForest {
    /// One pipeline per tenant, sharing a trunk of `trunk_len` stages.
    pub tenants: Vec<Pipeline<Vec<f64>, Vec<f64>>>,
    /// Human-readable recipe, for failure reports.
    pub description: String,
    /// Number of shared trunk stages (0 ⇒ tenants only share the source).
    pub trunk_len: usize,
}

/// Draws one truthful stage onto `cur`. The pool deliberately excludes the
/// mis-declared estimators (`UnderdeclaredMeanCenter` and friends): the
/// forest axis compares costs across plans, so every operator's declared
/// cost must be honest.
fn truthful_stage(
    rng: &mut SplitMix64,
    cur: &Pipeline<Vec<f64>, Vec<f64>>,
    train: &DistCollection<Vec<f64>>,
    desc: &mut String,
) -> (Pipeline<Vec<f64>, Vec<f64>>, bool) {
    match rng.pick(7) {
        0 => {
            let a = A_GRID[rng.pick(4) as usize];
            let b = B_GRID[rng.pick(4) as usize];
            desc.push_str(&format!(" affine({a},{b})"));
            (cur.and_then(Affine { a, b }), false)
        }
        1 => {
            desc.push_str(" abs");
            (cur.and_then(AbsVal), false)
        }
        2 => {
            desc.push_str(" swap");
            (cur.and_then(SwapHalves), false)
        }
        3 => {
            if rng.pick(2) == 0 {
                desc.push_str(" normalize");
                (cur.and_then(Normalizer), false)
            } else {
                desc.push_str(" signed-power");
                (cur.and_then(SignedPowerNormalizer::default()), false)
            }
        }
        4 => {
            let c = C_GRID[rng.pick(4) as usize];
            desc.push_str(&format!(" two-path({c})"));
            (cur.and_then_optimizable(TwoPathScale { c }), false)
        }
        5 => {
            let passes = 2 + rng.pick(2) as u32;
            desc.push_str(&format!(" mean-center(x{passes})"));
            (cur.and_then_est(SeqMeanCenter { passes }, train), true)
        }
        _ => {
            let passes = 2 + rng.pick(2) as u32;
            desc.push_str(&format!(" range-scale(x{passes})"));
            (cur.and_then_est(SeqRangeScale { passes }, train), true)
        }
    }
}

/// Generates the seed's forest over `train`. Deterministic: same seed and
/// data ⇒ same graph node-for-node, same operator parameters.
pub fn generate_forest(seed: u64, train: &DistCollection<Vec<f64>>) -> GeneratedForest {
    // A distinct mixing constant keeps the forest stream independent of the
    // single-pipeline generator's stream for the same seed.
    let mut rng = SplitMix64(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xF0E1_D2C3_B4A5_9687);
    let n_tenants = 2 + rng.pick(3) as usize; // 2..=4
    let trunk_len = rng.pick(5) as usize; // 0..=4, 0 = no prefix overlap

    let mut desc = format!("{n_tenants} tenants; trunk[");
    let mut trunk: Pipeline<Vec<f64>, Vec<f64>> = Pipeline::input();
    for _ in 0..trunk_len {
        let (next, _) = truthful_stage(&mut rng, &trunk, train, &mut desc);
        trunk = next;
    }
    desc.push_str(" ]");

    let tenants = (0..n_tenants)
        .map(|t| {
            desc.push_str(&format!("; head{t}["));
            let head_len = 1 + rng.pick(3) as usize; // 1..=3
            let mut cur = trunk.clone();
            let mut has_est = false;
            for _ in 0..head_len {
                let (next, est) = truthful_stage(&mut rng, &cur, train, &mut desc);
                cur = next;
                has_est |= est;
            }
            if !has_est {
                desc.push_str(" mean-center(x2)");
                cur = cur.and_then_est(SeqMeanCenter { passes: 2 }, train);
            }
            desc.push_str(" ]");
            cur
        })
        .collect();

    GeneratedForest {
        tenants,
        description: desc,
        trunk_len,
    }
}

/// One configuration under which a forest is fit both ways.
pub struct ForestCell {
    /// Display name, e.g. `full/greedy-tight+fuse+col`.
    pub name: String,
    /// Optimizer configuration.
    pub opts: PipelineOptions,
    /// Partition count for training and held-out data.
    pub partitions: usize,
}

/// The forest configuration grid: opt level × budget × caching strategy ×
/// fusion × columnar. Fault plans are deliberately absent — the solo and
/// shared paths draw from a fault schedule in different orders, which is
/// fine for bit-equality (faults are masked) but would make the two cost
/// measurements incommensurable.
pub fn forest_matrix() -> Vec<ForestCell> {
    let profiled = |opts: PipelineOptions| PipelineOptions {
        profile: crate::oracle::profile_opts(),
        ..opts
    };
    let cells: Vec<(&str, PipelineOptions, usize)> = vec![
        ("none", PipelineOptions::none(), 1),
        (
            "pipe/greedy-tight",
            profiled(PipelineOptions::pipe_only().with_budget(BUDGET_TIGHT)),
            1,
        ),
        (
            "pipe/greedy-unbounded/p4",
            profiled(PipelineOptions::pipe_only().with_budget(BUDGET_UNBOUNDED)),
            4,
        ),
        (
            "pipe/lru-tight",
            profiled(
                PipelineOptions::pipe_only()
                    .with_budget(BUDGET_TIGHT)
                    .with_caching(CachingStrategy::Lru {
                        admission_fraction: 1.0,
                    }),
            ),
            1,
        ),
        (
            "pipe/greedy-tight+fuse",
            profiled(
                PipelineOptions::pipe_only()
                    .with_budget(BUDGET_TIGHT)
                    .with_fusion(true),
            ),
            1,
        ),
        (
            "full/greedy-tight+fuse+col",
            profiled(
                PipelineOptions::full()
                    .with_budget(BUDGET_TIGHT)
                    .with_fusion(true)
                    .with_columnar(true),
            ),
            1,
        ),
        (
            "full/greedy-unbounded/p4",
            profiled(PipelineOptions::full().with_budget(BUDGET_UNBOUNDED)),
            4,
        ),
        (
            "full/greedy-unbounded+fuse+col",
            profiled(
                PipelineOptions::full()
                    .with_budget(BUDGET_UNBOUNDED)
                    .with_fusion(true)
                    .with_columnar(true),
            ),
            1,
        ),
    ];
    cells
        .into_iter()
        .map(|(name, opts, partitions)| ForestCell {
            name: name.to_string(),
            opts,
            partitions,
        })
        .collect()
}

/// Summary of one passing forest seed.
#[derive(Debug)]
pub struct ForestSeedReport {
    /// The seed checked.
    pub seed: u64,
    /// Cells swept.
    pub cells: usize,
    /// Tenants in the generated forest.
    pub tenants: usize,
    /// Shared trunk stages.
    pub trunk_len: usize,
    /// Cells in which the shared merged plan won and ran.
    pub shared_cells: usize,
}

/// Renders the diagnostic block for a forest divergence.
pub fn forest_failure_report(seed: u64, cell: &str, detail: &str) -> String {
    let spec = DataSpec::from_seed(seed);
    let train = spec.train(1);
    let forest = generate_forest(seed, &train);
    format!(
        "forest oracle failure at seed {seed}: cell `{cell}`: {detail}\n\
         data: n={} dim={} classes={}\n\
         forest: {}\n\
         reproduce: KEYSTONE_TESTKIT_SEED={seed} cargo test --test differential forest -- --nocapture\n",
        spec.n, spec.dim, spec.classes, forest.description,
    )
}

/// Held-out predictions as raw bit patterns.
fn prediction_bits(
    fitted: &keystone_core::pipeline::FittedPipeline<Vec<f64>, Vec<f64>>,
    test: &DistCollection<Vec<f64>>,
    ctx: &ExecContext,
) -> Vec<Vec<u64>> {
    fitted
        .apply(test, ctx)
        .collect()
        .into_iter()
        .map(|row| row.into_iter().map(f64::to_bits).collect())
        .collect()
}

/// Fits the seed's forest in every cell, solo and shared, and checks the
/// equivalence and dominance halves of the forest contract.
pub fn check_forest_seed(seed: u64) -> Result<ForestSeedReport, String> {
    let spec = DataSpec::from_seed(seed);
    let cells = forest_matrix();
    let mut tenants_seen = 0;
    let mut trunk_seen = 0;
    let mut shared_cells = 0;

    for cell in &cells {
        let train = spec.train(cell.partitions);
        let test = spec.test(cell.partitions);
        let forest = generate_forest(seed, &train);
        tenants_seen = forest.tenants.len();
        trunk_seen = forest.trunk_len;

        // Solo fits: each tenant alone on a fresh context. The simulated
        // cost is read *before* apply so held-out scoring is not charged.
        let mut solo_total = 0.0;
        let mut solo_bits = Vec::with_capacity(forest.tenants.len());
        for tenant in &forest.tenants {
            let ctx = ExecContext::default_cluster();
            let (fitted, _report) = tenant.fit(&ctx, &cell.opts);
            solo_total += ctx.sim.total_seconds();
            solo_bits.push(prediction_bits(&fitted, &test, &ctx));
        }

        // Forest fit: all tenants through one shared optimizer pass.
        let fctx = ExecContext::default_cluster();
        let (fitted_all, report) = fit_forest(&forest.tenants, &fctx, &cell.opts);
        let forest_total = fctx.sim.total_seconds();
        if report.shared {
            shared_cells += 1;
        }

        if fitted_all.len() != forest.tenants.len() {
            return Err(forest_failure_report(
                seed,
                &cell.name,
                &format!(
                    "fit_forest returned {} pipelines for {} tenants",
                    fitted_all.len(),
                    forest.tenants.len()
                ),
            ));
        }

        // Equivalence: bit-identical held-out predictions per tenant.
        for (t, fitted) in fitted_all.iter().enumerate() {
            let forest_bits = prediction_bits(fitted, &test, &fctx);
            if forest_bits != solo_bits[t] {
                return Err(forest_failure_report(
                    seed,
                    &cell.name,
                    &format!(
                        "tenant {t} predictions diverged between solo fit and forest fit \
                         (shared={})",
                        report.shared
                    ),
                ));
            }
        }

        // Dominance: the forest never costs more than N independent fits.
        if forest_total > solo_total + 1e-9 {
            return Err(forest_failure_report(
                seed,
                &cell.name,
                &format!(
                    "forest fit cost {forest_total:.6}s exceeds Σ solo {solo_total:.6}s \
                     (shared={})",
                    report.shared
                ),
            ));
        }
        // Decision consistency: the shared plan ran iff the model priced
        // the forest and estimated sharing strictly cheaper.
        let favoured = report
            .estimate
            .as_ref()
            .is_some_and(|e| e.shared_secs < e.solo_secs.iter().sum::<f64>());
        let well_formed = report.estimate.as_ref().is_none_or(|e| {
            e.solo_secs.len() == forest.tenants.len()
                && std::iter::once(&e.shared_secs)
                    .chain(&e.solo_secs)
                    .all(|s| s.is_finite() && *s >= 0.0)
        });
        if report.shared != favoured || !well_formed {
            return Err(forest_failure_report(
                seed,
                &cell.name,
                &format!(
                    "choice shared={} disagrees with its estimate {:?}",
                    report.shared, report.estimate
                ),
            ));
        }
        // Attribution rows must cover every tenant exactly once.
        let mut row_ids: Vec<usize> = report.tenants.iter().map(|r| r.tenant).collect();
        row_ids.sort_unstable();
        if row_ids != (0..forest.tenants.len()).collect::<Vec<_>>() {
            return Err(forest_failure_report(
                seed,
                &cell.name,
                &format!("tenant attribution rows {row_ids:?} do not cover every tenant"),
            ));
        }
    }

    Ok(ForestSeedReport {
        seed,
        cells: cells.len(),
        tenants: tenants_seen,
        trunk_len: trunk_seen,
        shared_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_generation_is_deterministic() {
        let spec = DataSpec::from_seed(7);
        let train = spec.train(1);
        let a = generate_forest(7, &train);
        let b = generate_forest(7, &train);
        assert_eq!(a.description, b.description);
        assert_eq!(a.tenants.len(), b.tenants.len());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.summary(), y.summary());
        }
    }

    #[test]
    fn forest_tenants_share_one_graph() {
        let spec = DataSpec::from_seed(3);
        let train = spec.train(1);
        let forest = generate_forest(3, &train);
        assert!(forest.tenants.len() >= 2);
        // All tenants draw from the same Pipeline::input() handle, so their
        // snapshots are node-for-node the same graph (different outputs).
        let first = forest.tenants[0].graph_snapshot().len();
        for t in &forest.tenants[1..] {
            assert_eq!(t.graph_snapshot().len(), first);
        }
    }

    #[test]
    fn single_tenant_forest_is_bit_equal_to_solo_fit() {
        use keystone_core::optimizer::PipelineOptions;
        let spec = DataSpec::from_seed(5);
        let train = spec.train(1);
        let test = spec.test(1);
        let generated = crate::gen::generate(5, &train);
        let opts = PipelineOptions {
            profile: crate::oracle::profile_opts(),
            ..PipelineOptions::full().with_budget(BUDGET_TIGHT)
        };

        let solo_ctx = ExecContext::default_cluster();
        let (solo_fitted, _) = generated.pipeline.fit(&solo_ctx, &opts);

        let forest_ctx = ExecContext::default_cluster();
        let (forest_fitted, report) = fit_forest(
            std::slice::from_ref(&generated.pipeline),
            &forest_ctx,
            &opts,
        );
        assert!(!report.shared, "N=1 must delegate to Pipeline::fit");

        // Same SimClock ledger to the last bit: same stages, same charges.
        let a = solo_ctx.sim.entries();
        let b = forest_ctx.sim.entries();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stage, y.stage);
            assert_eq!(x.exec_secs.to_bits(), y.exec_secs.to_bits());
            assert_eq!(x.coord_secs.to_bits(), y.coord_secs.to_bits());
        }

        // And identical held-out predictions.
        assert_eq!(
            prediction_bits(&solo_fitted, &test, &solo_ctx),
            prediction_bits(&forest_fitted[0], &test, &forest_ctx)
        );
    }

    #[test]
    fn one_seed_passes_the_forest_oracle() {
        let report = check_forest_seed(11).expect("seed 11 must pass");
        assert_eq!(report.cells, forest_matrix().len());
        assert!(report.tenants >= 2);
    }
}
