//! The differential-execution oracle.
//!
//! For one seed, [`matrix`] enumerates a grid of optimizer configurations —
//! optimization level × materialization budget × caching strategy ×
//! partition count × seeded fault plan × physical variant (unfused,
//! fused-record, fused-columnar), plus an adaptive twin of every cell in
//! which `Pipeline::fit` actually builds an `AdaptiveController` (fault-free
//! greedy configurations) — and
//! [`check_seed`] fits the seed's generated pipeline in every cell,
//! comparing held-out predictions *bitwise* (`f64::to_bits`, so `-0.0` vs
//! `0.0` or NaN payload drift cannot masquerade as equality). The three
//! physical variants of each configuration must
//! additionally choose the exact same materialization picks — fusion and
//! columnar lowering are physical rewrites and may never perturb the
//! caching decision. Each adaptive cell is further compared against its
//! static twin: adaptation is *cost-only*, so it may never increase the
//! simulated fit cost beyond the charged decision overhead, and when no
//! revision fires the two twins must agree to the last bit of the clock.
//! After every `OptLevel::Full` fit no apply-path node may still be a
//! logical operator: the apply path runs what operator selection chose.
//! Any divergence produces a report carrying the seed, the generated
//! recipe, the DAG summary, and the one-command repro.

use std::collections::{HashMap, HashSet};

use keystone_core::context::ExecContext;
use keystone_core::graph::NodeKind;
use keystone_core::optimizer::{
    build_mat_problem, fit_roots, CachingStrategy, OptLevel, PipelineOptions, ADAPT_DECISION_SECS,
};
use keystone_core::profiler::ProfileOptions;
use keystone_dataflow::faults::FaultSpec;

use crate::gen::{generate, DataSpec};

/// A cache budget that admits nothing.
pub const BUDGET_ZERO: u64 = 0;
/// A budget that forces real greedy trade-offs on the tiny generated data.
pub const BUDGET_TIGHT: u64 = 4 * 1024;
/// A budget that is effectively unbounded.
pub const BUDGET_UNBOUNDED: u64 = 1 << 40;

/// One configuration under which a generated pipeline is fit and applied.
pub struct MatrixCell {
    /// Display name, e.g. `full/greedy-tight/p4+adapt+fuse+col`.
    pub name: String,
    /// Key shared by the three physical variants (unfused, fused-record,
    /// fused-columnar) of the same base configuration; materialization picks are compared within a
    /// pair.
    pub pair: String,
    /// Optimizer configuration.
    pub opts: PipelineOptions,
    /// Partition count for both the training and held-out data.
    pub partitions: usize,
    /// Whether a seeded fault plan is injected during fit.
    pub faulted: bool,
    /// Whether whole-stage fusion is forced on (vs forced off).
    pub fused: bool,
    /// Whether columnar lowering of fused chains is forced on (vs forced
    /// off). Only set together with `fused`: without fusion the toggle is
    /// never read (pinned by a unit test beside `FitPlan`), so an
    /// unfused columnar cell would re-run its unfused sibling.
    pub col: bool,
    /// Whether mid-fit adaptive re-optimization is forced on (vs forced
    /// off). Adaptation is cost-only: predictions must stay bit-identical
    /// and the simulated fit cost may never exceed the static twin's by
    /// more than the charged decision overhead. Only set on fault-free
    /// greedy configurations: everywhere else `Pipeline::fit` builds no
    /// controller (pinned by a unit test beside it), so an adaptive cell
    /// would re-run its static twin.
    pub adapt: bool,
}

pub(crate) fn profile_opts() -> ProfileOptions {
    ProfileOptions {
        sizes: vec![8, 16],
        seed: 5,
        select_operators: true,
        // Pick-equality between fusion variants (and repro of a failing
        // cell) requires the cost model to be a pure function of the seed.
        deterministic_timing: true,
    }
}

/// The full configuration matrix for one seed: 7 optimizer configurations ×
/// {1, 4} partitions × {no faults, seeded faults} × {unfused, fused-record,
/// fused-columnar} = 84 static cells, plus an adaptive twin of the 30
/// fault-free greedy ones = 114 cells.
pub fn matrix(_seed: u64) -> Vec<MatrixCell> {
    let configs: Vec<(&str, PipelineOptions)> = vec![
        ("none", PipelineOptions::none()),
        (
            "pipe/greedy-b0",
            PipelineOptions::pipe_only().with_budget(BUDGET_ZERO),
        ),
        (
            "pipe/greedy-tight",
            PipelineOptions::pipe_only().with_budget(BUDGET_TIGHT),
        ),
        (
            "pipe/greedy-unbounded",
            PipelineOptions::pipe_only().with_budget(BUDGET_UNBOUNDED),
        ),
        (
            "pipe/lru-tight",
            PipelineOptions::pipe_only()
                .with_budget(BUDGET_TIGHT)
                .with_caching(CachingStrategy::Lru {
                    admission_fraction: 1.0,
                }),
        ),
        (
            "full/greedy-tight",
            PipelineOptions::full().with_budget(BUDGET_TIGHT),
        ),
        (
            "full/greedy-unbounded",
            PipelineOptions::full().with_budget(BUDGET_UNBOUNDED),
        ),
    ];
    let mut cells = Vec::with_capacity(114);
    for partitions in [1usize, 4] {
        for faulted in [false, true] {
            for (tag, opts) in &configs {
                let adapts = !faulted
                    && opts.level != OptLevel::None
                    && opts.caching == CachingStrategy::Greedy;
                for adapt in [false, true] {
                    if adapt && !adapts {
                        continue;
                    }
                    let pair = format!(
                        "{tag}/p{partitions}{}{}",
                        if faulted { "/faults" } else { "" },
                        if adapt { "+adapt" } else { "" }
                    );
                    for (fused, col) in [(false, false), (true, false), (true, true)] {
                        let mut name = pair.clone();
                        if fused {
                            name.push_str("+fuse");
                        }
                        if col {
                            name.push_str("+col");
                        }
                        cells.push(MatrixCell {
                            name,
                            pair: pair.clone(),
                            opts: PipelineOptions {
                                profile: profile_opts(),
                                ..opts
                                    .clone()
                                    .with_fusion(fused)
                                    .with_columnar(col)
                                    .with_adaptive(adapt)
                            },
                            partitions,
                            faulted,
                            fused,
                            col,
                            adapt,
                        });
                    }
                }
            }
        }
    }
    cells
}

fn cell_context(seed: u64, cell: &MatrixCell) -> ExecContext {
    let ctx = ExecContext::default_cluster();
    if cell.faulted {
        // The fault schedule is a pure function of the seed: failures and
        // stragglers perturb scheduling and accounting, cache losses force
        // lineage recomputes — none of which may change a single output bit.
        ctx.with_faults(
            FaultSpec::new(seed ^ 0xFA17)
                .with_task_failures(0.25)
                .with_stragglers(0.2)
                .with_cache_loss(0.3)
                .with_straggler_min_delay_us(200)
                .into_plan(),
        )
    } else {
        ctx
    }
}

/// What one matrix cell produced: the held-out predictions (bitwise) plus
/// the materialization picks the fit chose, for pairwise fused-vs-unfused
/// comparison.
pub struct CellRun {
    /// Held-out predictions as raw `f64::to_bits` patterns.
    pub bits: Vec<Vec<u64>>,
    /// The chosen cache set, sorted for stable comparison.
    pub mat_picks: Vec<usize>,
    /// Simulated seconds on the clock when fit returned (profiling +
    /// optimization + fit waves + any adaptive decision charges).
    pub sim_fit_secs: f64,
    /// Applied (non-empty) mid-fit plan revisions.
    pub revisions: u64,
    /// Apply-path nodes that still expose physical options after an
    /// `OptLevel::Full` fit: each must run the option selection chose.
    pub logical_on_apply_path: Vec<String>,
}

/// Fits the seed's pipeline under `cell` and returns the held-out
/// predictions as raw bit patterns plus the materialization picks and the
/// adaptive accounting for twin comparison.
pub fn run_cell(seed: u64, cell: &MatrixCell) -> CellRun {
    let spec = DataSpec::from_seed(seed);
    let train = spec.train(cell.partitions);
    let test = spec.test(cell.partitions);
    let generated = generate(seed, &train);
    let ctx = cell_context(seed, cell);
    let (fitted, report) = generated.pipeline.fit(&ctx, &cell.opts);
    let sim_fit_secs = ctx.sim.total_seconds();
    let mut mat_picks: Vec<usize> = report.cache_set.iter().copied().collect();
    mat_picks.sort_unstable();
    let plan = fitted.plan();
    let selected = cell.opts.level == OptLevel::Full;
    let logical_on_apply_path = plan
        .apply_path()
        .iter()
        .map(|&id| &plan.graph().nodes[id])
        .filter(|n| matches!(&n.kind, NodeKind::Transform(op) if selected && op.physical_options().is_some()))
        .map(|n| n.label.clone())
        .collect();
    let bits = fitted
        .apply(&test, &ctx)
        .collect()
        .into_iter()
        .map(|row| row.into_iter().map(f64::to_bits).collect())
        .collect();
    CellRun {
        bits,
        mat_picks,
        sim_fit_secs,
        revisions: report.adaptation.revisions.len() as u64,
        logical_on_apply_path,
    }
}

/// Successful differential run over one seed.
#[derive(Debug)]
pub struct SeedReport {
    /// The seed checked.
    pub seed: u64,
    /// Number of matrix cells that agreed.
    pub cells: usize,
}

/// Runs the full matrix for `seed`, requiring bit-identical predictions in
/// every cell, identical materialization picks among the three physical
/// variants of each base configuration, and cost-only
/// adaptation: every `+adapt` cell is compared against its static twin —
/// the adaptive simulated fit cost may never exceed the static cost by more
/// than the charged decision overhead, and when no revision fired the twins
/// must match the clock (and the picks) exactly. On divergence returns a
/// report with everything needed to reproduce: the seed, the generated
/// recipe, the DAG, and the command.
pub fn check_seed(seed: u64) -> Result<SeedReport, String> {
    let cells = matrix(seed);
    let mut baseline: Option<(&str, Vec<Vec<u64>>)> = None;
    let mut picks_by_pair: HashMap<&str, (&str, Vec<usize>)> = HashMap::new();
    let mut static_twins: HashMap<String, (&str, f64, Vec<usize>)> = HashMap::new();
    for cell in &cells {
        let run = run_cell(seed, cell);
        if !run.logical_on_apply_path.is_empty() {
            return Err(format!(
                "`{}` applies logical operators {:?} instead of the fit's choice\n{}",
                cell.name,
                run.logical_on_apply_path,
                failure_report(seed, &cell.name, &cell.name)
            ));
        }
        match &baseline {
            None => baseline = Some((&cell.name, run.bits)),
            Some((base_name, base_out)) => {
                if *base_out != run.bits {
                    return Err(failure_report(seed, base_name, &cell.name));
                }
            }
        }
        match picks_by_pair.get(cell.pair.as_str()) {
            None => {
                picks_by_pair.insert(&cell.pair, (&cell.name, run.mat_picks.clone()));
            }
            Some((other_name, other_picks)) => {
                if *other_picks != run.mat_picks {
                    return Err(format!(
                        "materialization picks diverged between physical variants: \
                         `{}` chose {:?} but `{}` chose {:?}\n{}",
                        other_name,
                        other_picks,
                        cell.name,
                        run.mat_picks,
                        failure_report(seed, other_name, &cell.name)
                    ));
                }
            }
        }
        if !cell.adapt {
            static_twins.insert(
                cell.name.clone(),
                (&cell.name, run.sim_fit_secs, run.mat_picks),
            );
        } else {
            // The static twin shares the name minus the `+adapt` marker and
            // is always generated (and therefore run) first.
            let twin_key = cell.name.replace("+adapt", "");
            let (twin_name, sim_off, twin_picks) = static_twins
                .get(&twin_key)
                .unwrap_or_else(|| panic!("static twin `{twin_key}` missing for `{}`", cell.name));
            let allowance = run.revisions as f64 * ADAPT_DECISION_SECS + 1e-12;
            if run.sim_fit_secs > sim_off + allowance {
                return Err(format!(
                    "adaptation increased simulated fit cost: `{}` spent {:.9}s but \
                     static twin `{twin_name}` spent {:.9}s ({} revisions, allowance \
                     {allowance:.12}s)\n{}",
                    cell.name,
                    run.sim_fit_secs,
                    sim_off,
                    run.revisions,
                    failure_report(seed, twin_name, &cell.name)
                ));
            }
            if run.revisions == 0 {
                if run.sim_fit_secs.to_bits() != sim_off.to_bits() {
                    return Err(format!(
                        "adaptation without a revision perturbed the clock: `{}` spent \
                         {:.12}s but static twin `{twin_name}` spent {:.12}s\n{}",
                        cell.name,
                        run.sim_fit_secs,
                        sim_off,
                        failure_report(seed, twin_name, &cell.name)
                    ));
                }
                if run.mat_picks != *twin_picks {
                    return Err(format!(
                        "adaptation without a revision changed the cache set: `{}` \
                         chose {:?} but static twin `{twin_name}` chose {:?}\n{}",
                        cell.name,
                        run.mat_picks,
                        twin_picks,
                        failure_report(seed, twin_name, &cell.name)
                    ));
                }
            }
        }
    }
    Ok(SeedReport {
        seed,
        cells: cells.len(),
    })
}

/// Renders the diagnostic block for a diverged cell.
pub fn failure_report(seed: u64, baseline_cell: &str, diverged_cell: &str) -> String {
    let spec = DataSpec::from_seed(seed);
    let train = spec.train(1);
    let generated = generate(seed, &train);
    format!(
        "differential mismatch at seed {seed}: cell `{diverged_cell}` diverged from `{baseline_cell}`\n\
         data: n={} dim={} classes={}\n\
         recipe: {}\n\
         DAG:\n{}\
         reproduce: KEYSTONE_TESTKIT_SEED={seed} cargo test --test differential -- --nocapture\n",
        spec.n,
        spec.dim,
        spec.classes,
        generated.description,
        generated.pipeline.summary(),
    )
}

/// Seeds to sweep: the pinned default range unless `KEYSTONE_TESTKIT_SEED`
/// overrides it with a single seed (`17`) or a half-open range (`0..50`).
pub fn seeds_from_env(default_start: u64, default_count: u64) -> Vec<u64> {
    match std::env::var("KEYSTONE_TESTKIT_SEED") {
        Ok(raw) => {
            let raw = raw.trim().to_string();
            if let Some((a, b)) = raw.split_once("..") {
                let a: u64 = a.parse().expect("KEYSTONE_TESTKIT_SEED range start");
                let b: u64 = b.parse().expect("KEYSTONE_TESTKIT_SEED range end");
                (a..b).collect()
            } else {
                vec![raw.parse().expect("KEYSTONE_TESTKIT_SEED must be a u64")]
            }
        }
        Err(_) => (default_start..default_start + default_count).collect(),
    }
}

/// Writes a failure report where CI's artifact step expects it
/// (`target/testkit-failure.txt` relative to the test's working directory).
/// Best-effort: returns the path on success.
pub fn write_failure_artifact(report: &str) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("target");
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join("testkit-failure.txt");
    std::fs::write(&path, report).ok()?;
    Some(path)
}

/// Cost-model facts about the materialization plan of one fitted pipeline,
/// for metamorphic assertions (monotonicity, budget feasibility,
/// greedy-vs-optimal) at the pipeline level rather than on synthetic DAGs.
#[derive(Debug)]
pub struct CachePlanCheck {
    /// `est_runtime(∅)`.
    pub empty_runtime: f64,
    /// `est_runtime` of the cache set the fit actually chose.
    pub planned_runtime: f64,
    /// Bytes of the chosen cache set.
    pub planned_bytes: u64,
    /// The budget the plan was solved under.
    pub budget: u64,
    /// Number of cacheable (non-`always_cached`) nodes.
    pub candidates: usize,
    /// `est_runtime` of a fresh greedy solution on the rebuilt problem.
    pub greedy_runtime: f64,
    /// `est_runtime` of the exact solution, when the instance is small
    /// enough to enumerate (≤ 12 candidates).
    pub optimal_runtime: Option<f64>,
}

/// Fits the seed's pipeline with greedy materialization under `budget`,
/// rebuilds the exact [`MatProblem`](keystone_core::optimizer::MatProblem)
/// that fit solved, and evaluates the cost model around the chosen plan.
pub fn check_cache_plan(seed: u64, budget: u64) -> CachePlanCheck {
    let spec = DataSpec::from_seed(seed);
    let train = spec.train(4);
    let generated = generate(seed, &train);
    let ctx = ExecContext::default_cluster();
    let opts = PipelineOptions {
        profile: profile_opts(),
        ..PipelineOptions::pipe_only().with_budget(budget)
    };
    let (fitted, report) = generated.pipeline.fit(&ctx, &opts);
    let roots = fit_roots(fitted.graph(), fitted.output_node());
    let problem = build_mat_problem(fitted.graph(), &report.profile, &roots);
    // Must match `MatProblem::candidates()`: the exact solver enumerates
    // 2^candidates subsets, so the gate below has to count what it counts.
    let candidates = problem.nodes.iter().filter(|n| !n.always_cached).count();
    let empty_runtime = problem.est_runtime(&HashSet::new());
    let planned_runtime = problem.est_runtime(&report.cache_set);
    let planned_bytes = problem.set_bytes(&report.cache_set);
    let greedy_runtime = problem.est_runtime(&problem.greedy_cache_set(budget));
    let optimal_runtime =
        (candidates <= 12).then(|| problem.est_runtime(&problem.optimal_cache_set(budget)));
    CachePlanCheck {
        empty_runtime,
        planned_runtime,
        planned_bytes,
        budget,
        candidates,
        greedy_runtime,
        optimal_runtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_114_distinct_cells_in_physical_variant_pairs() {
        let cells = matrix(0);
        assert_eq!(cells.len(), 114);
        let names: HashSet<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), 114, "cell names must be unique");
        let pairs: HashSet<&str> = cells.iter().map(|c| c.pair.as_str()).collect();
        assert_eq!(pairs.len(), 38, "every base config appears as one pair");
        for pair in &pairs {
            let variants: Vec<&MatrixCell> = cells.iter().filter(|c| c.pair == *pair).collect();
            let physical: Vec<(bool, bool)> = variants.iter().map(|c| (c.fused, c.col)).collect();
            assert_eq!(
                physical,
                [(false, false), (true, false), (true, true)],
                "pair `{pair}` must be unfused, fused-record, fused-columnar"
            );
            // Adaptation is part of the pair key, never mixed inside one.
            let adapt = variants[0].adapt;
            assert!(variants.iter().all(|c| c.adapt == adapt));
            assert_eq!(pair.contains("+adapt"), adapt);
        }
        assert!(cells.iter().any(|c| c.faulted));
        assert!(cells.iter().any(|c| c.partitions == 4));
        // A static cell has an adaptive twin under the `+adapt` name exactly
        // when it is a fault-free greedy configuration.
        for cell in cells.iter().filter(|c| !c.adapt) {
            let twin = format!("{}+adapt", cell.pair);
            let adapts = !cell.faulted
                && !cell.pair.starts_with("none/")
                && !cell.pair.starts_with("pipe/lru-tight/");
            assert_eq!(
                cells.iter().any(|c| c.adapt && c.pair == twin),
                adapts,
                "static pair `{}`",
                cell.pair
            );
        }
        assert_eq!(cells.iter().filter(|c| c.adapt).count(), 30);
        // The fusion, columnar, and adaptive axes must be forced in both
        // directions, never left to the opt level's default.
        assert!(cells.iter().all(|c| c.opts.fusion_enabled() == c.fused));
        assert!(cells.iter().all(|c| c.opts.columnar_enabled() == c.col));
        assert!(cells.iter().all(|c| c.opts.adaptive_enabled() == c.adapt));
    }

    #[test]
    fn failure_report_carries_repro() {
        let r = failure_report(99, "none/p1", "full/greedy-tight/p4/faults");
        assert!(r.contains("seed 99"));
        assert!(r.contains("KEYSTONE_TESTKIT_SEED=99 cargo test --test differential"));
        assert!(r.contains("recipe: seed=99:"));
        assert!(r.contains("input"), "DAG summary missing:\n{r}");
    }

    #[test]
    fn seeds_env_parsing() {
        // Can't mutate the real env safely under parallel tests; exercise
        // only the default path here (the parse paths are covered by the
        // differential test's documented usage).
        let seeds = seeds_from_env(10, 3);
        if std::env::var("KEYSTONE_TESTKIT_SEED").is_err() {
            assert_eq!(seeds, vec![10, 11, 12]);
        }
    }

    #[test]
    fn single_seed_smoke() {
        let report = check_seed(3).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.cells, 114);
    }
}
