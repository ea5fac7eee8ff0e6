//! Tier-1 differential-equivalence sweep (the testkit's headline oracle).
//!
//! Every seed in the pinned range drives one random well-typed pipeline
//! through the full 114-cell configuration matrix — optimization level ×
//! materialization budget × caching strategy × partition count × seeded
//! fault plan × physical variant (unfused, fused-record, fused-columnar),
//! plus an adaptive twin of every fault-free greedy cell (the only ones in
//! which `Pipeline::fit` builds an adaptive controller) — and the held-out
//! predictions must be
//! bit-identical in every cell, with the three physical variants of each
//! configuration choosing identical materialization picks and every
//! adaptive cell staying within the charged decision overhead of its static
//! twin's simulated fit cost. A failing cell prints (and writes to
//! `target/testkit-failure.txt`, which CI uploads as an artifact) the seed,
//! the generated recipe, the DAG summary, and the one-command repro:
//!
//! ```text
//! KEYSTONE_TESTKIT_SEED=<seed> cargo test --test differential -- --nocapture
//! ```
//!
//! `KEYSTONE_TESTKIT_SEED` accepts a single seed (`17`) or a half-open
//! range (`0..50`).

use keystone_testkit::{forest, oracle, serve};

#[test]
fn optimizer_configurations_are_output_equivalent() {
    let seeds = oracle::seeds_from_env(0, 25);
    let mut cells_checked = 0usize;
    for &seed in &seeds {
        match oracle::check_seed(seed) {
            Ok(report) => cells_checked += report.cells,
            Err(report) => {
                let artifact = oracle::write_failure_artifact(&report)
                    .map(|p| format!("failure report written to {}\n", p.display()))
                    .unwrap_or_default();
                panic!("{report}{artifact}");
            }
        }
    }
    // The pinned sweep must cover at least 25 pipelines x 114 cells; an env
    // override (targeted repro) may legitimately run fewer.
    if std::env::var("KEYSTONE_TESTKIT_SEED").is_err() {
        assert!(
            seeds.len() >= 25 && cells_checked >= 25 * 114,
            "pinned sweep shrank: {} seeds, {} cells",
            seeds.len(),
            cells_checked
        );
    }
}

/// Multi-tenant forest axis: each seed generates 2–4 pipeline variants
/// sharing a seeded trunk (0–4 stages of controlled prefix overlap), fit
/// both independently and through `fit_forest`'s merged plan, across an
/// opt-level × budget × caching × fusion × columnar grid. Per-tenant
/// held-out predictions must be bit-identical between the two, the
/// forest's total measured simulated cost may never exceed the sum of the
/// solo fits, and the reported choice must follow from the reported
/// estimates. Shares `KEYSTONE_TESTKIT_SEED` repro semantics with the matrix
/// above.
#[test]
fn forest_fit_is_tenant_equivalent_and_cost_dominant() {
    let seeds = oracle::seeds_from_env(0, 15);
    let mut cells_checked = 0usize;
    let mut shared_cells = 0usize;
    for &seed in &seeds {
        match forest::check_forest_seed(seed) {
            Ok(report) => {
                cells_checked += report.cells;
                shared_cells += report.shared_cells;
            }
            Err(report) => {
                let artifact = oracle::write_failure_artifact(&report)
                    .map(|p| format!("failure report written to {}\n", p.display()))
                    .unwrap_or_default();
                panic!("{report}{artifact}");
            }
        }
    }
    println!(
        "forest sweep: {} seeds, {cells_checked} cells, {shared_cells} shared",
        seeds.len()
    );
    if std::env::var("KEYSTONE_TESTKIT_SEED").is_err() {
        let per_seed = forest::forest_matrix().len();
        assert!(
            cells_checked >= 15 * per_seed,
            "pinned forest sweep shrank: {} seeds, {} cells",
            seeds.len(),
            cells_checked
        );
        // Sharing must actually engage somewhere in the pinned sweep —
        // otherwise the dominance check degenerates to testing solo fits
        // against solo fits.
        assert!(
            shared_cells > 0,
            "no cell in the pinned sweep took the shared merged-plan path"
        );
    }
}

/// Serving-equivalence axis: one-record-at-a-time requests through the
/// `keystone-serve` micro-batcher (batch-size × linger sweep, including
/// batch=1, with and without an injected fault plan) must be bit-identical
/// to one batch `apply()`. Shares `KEYSTONE_TESTKIT_SEED` repro semantics
/// with the optimizer matrix above.
#[test]
fn serving_is_equivalent_to_batch_apply() {
    let seeds = oracle::seeds_from_env(0, 25);
    let mut configs_checked = 0usize;
    for &seed in &seeds {
        match serve::check_serving(seed) {
            Ok(report) => configs_checked += report.configs,
            Err(report) => {
                let artifact = oracle::write_failure_artifact(&report)
                    .map(|p| format!("failure report written to {}\n", p.display()))
                    .unwrap_or_default();
                panic!("{report}{artifact}");
            }
        }
    }
    if std::env::var("KEYSTONE_TESTKIT_SEED").is_err() {
        let per_seed = 2 * 2 * serve::SERVING_POLICIES.len();
        assert!(
            configs_checked >= 25 * per_seed,
            "pinned serving sweep shrank: {} seeds, {} configs",
            seeds.len(),
            configs_checked
        );
    }
}
