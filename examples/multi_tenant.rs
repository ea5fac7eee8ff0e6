//! Multi-tenant forest optimization on a hyperparameter sweep.
//!
//! A ridge-parameter sweep trains several variants of the TIMIT-style
//! random-feature pipeline. The variants differ only in the solver's
//! `lambda` — the expensive random-feature trunk is byte-for-byte the same
//! plan region in every one. Fitted independently, every variant
//! recomputes the trunk; fitted as a forest (`fit_forest`), cross-pipeline
//! CSE merges the trunks, one global budget materializes the shared
//! featurized output, the cost model estimates the merged plan cheaper
//! than four solo fits, and the per-tenant solver waves run round-robin
//! under `tenant{i}` SimClock lanes.
//!
//! The run asserts the two halves of the forest contract:
//!
//! * every tenant's held-out predictions are **bit-identical** to the
//!   pipeline fit alone, and
//! * the forest's simulated cost is at least **2x** cheaper than the sum
//!   of the independent fits.
//!
//! It writes the forest fit's deterministic artifact to
//! `target/multi_tenant.json`; running the example twice must produce
//! byte-identical files (CI does exactly that with `cmp`).
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use keystoneml::prelude::*;
use keystoneml::solvers::logistic::one_hot;
use keystoneml::workloads::dense_gen::TimitLike;
use keystoneml::workloads::sweep::{sweep_pipelines, SweepConfig};

const CLASSES: usize = 4;

fn dataset(stream: u64) -> keystoneml::workloads::dense_gen::DenseDataset {
    TimitLike {
        n: 96,
        dim: 8,
        classes: CLASSES,
        separation: 2.0,
        seed: 2611,
        stream,
        partitions: 4,
        quantize: Some(64),
    }
    .generate()
}

fn opts() -> PipelineOptions {
    PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![8, 16],
            seed: 7,
            select_operators: false,
            deterministic_timing: true,
        },
        ..PipelineOptions::pipe_only()
    }
    .with_budget(1 << 30)
}

fn prediction_bits(
    fitted: &FittedPipeline<Vec<f64>, Vec<f64>>,
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

fn main() {
    let train = dataset(0);
    let test = dataset(1);
    let labels = one_hot(&train.labels, CLASSES);
    let cfg = SweepConfig::default();
    let opts = opts();

    // The sweep: one shared random-feature trunk, one variant per lambda.
    let tenants = sweep_pipelines(&cfg, &train.data, &labels);
    println!(
        "sweep: {} variants over a {}-block random-feature trunk",
        tenants.len(),
        cfg.blocks
    );

    // N independent fits: every variant pays for the trunk itself.
    let mut solo_total = 0.0;
    let mut solo_bits = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        let ctx = ExecContext::default_cluster();
        let (fitted, _) = tenant.fit(&ctx, &opts);
        let secs = ctx.sim.total_seconds();
        solo_total += secs;
        solo_bits.push(prediction_bits(&fitted, &test.data, &ctx));
        println!("  solo fit {i}: {secs:.6} simulated seconds");
    }

    // One forest fit: merged trunk, global budget, round-robin waves.
    let ctx = ExecContext::default_cluster();
    let (fitted, report) = fit_forest(&tenants, &ctx, &opts);
    let forest_total = ctx.sim.total_seconds();
    println!(
        "forest fit:  {forest_total:.6} simulated seconds (shared plan: {})",
        report.shared
    );
    println!(
        "  {} cross-pipeline merges, e.g. {:?}",
        report.cross_merges.len(),
        report
            .cross_merges
            .first()
            .map(|m| m.label.as_str())
            .unwrap_or("-")
    );
    // The estimates are in profile seconds (here the deterministic
    // synthetic scale), so only their ratio compares with the measured
    // ledger, which also carries the solvers' analytic `solve:` charges.
    let estimate = report
        .estimate
        .as_ref()
        .expect("the model prices this forest");
    println!(
        "  model: shared {:.6}s vs {:.6}s for {} solo fits (estimated {:.2}x)",
        estimate.shared_secs,
        estimate.solo_total(),
        tenants.len(),
        report.speedup()
    );
    for row in &report.tenants {
        println!(
            "  tenant {}: {:.6}s in its forest lane",
            row.tenant, row.sim_secs
        );
    }

    // Contract half 1: bit-identical predictions per tenant.
    for (i, f) in fitted.iter().enumerate() {
        assert_eq!(
            prediction_bits(f, &test.data, &ctx),
            solo_bits[i],
            "tenant {i} predictions diverged between forest and solo fit"
        );
    }
    println!("per-tenant predictions: bit-identical to solo fits");

    // Contract half 2: the forest plan must be >= 2x cheaper than N fits.
    assert!(report.shared, "expected the shared merged plan to win");
    assert!(
        !report.cross_merges.is_empty(),
        "expected cross-pipeline CSE to merge the trunk"
    );
    let speedup = solo_total / forest_total;
    println!(
        "speedup: {speedup:.2}x over {} independent fits",
        tenants.len()
    );
    assert!(
        speedup >= 2.0,
        "expected >= 2x simulated-cost reduction, got {speedup:.2}x"
    );

    // Persist the deterministic forest artifact (obs schema v3 carries the
    // per-tenant rows); two invocations must write byte-identical files.
    let fit_report = report.fit.as_ref().expect("shared path fit report");
    let artifact = RunArtifact::capture_fit(
        fit_report,
        &fitted[0].plan(),
        &ctx,
        &CaptureOptions {
            deterministic: true,
            label: "multi-tenant-sweep".to_string(),
        },
    );
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/multi_tenant.json", artifact.to_json()).expect("write artifact");
    println!("artifact: target/multi_tenant.json");
}
