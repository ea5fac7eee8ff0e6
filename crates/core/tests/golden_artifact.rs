//! Golden-file test for the [`RunArtifact`] wire format.
//!
//! The artifact JSON is a compatibility surface: the diagnosis CLI flow and
//! any external tooling parse it. This test fits a
//! small fully-deterministic pipeline, captures it, and compares the JSON
//! byte-for-byte against a checked-in golden file — so any change to the
//! schema (key set, layout, number formatting) is a conscious decision.
//!
//! To regenerate after an intentional format change (and bump
//! [`SCHEMA_VERSION`] if the layout changed shape):
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p keystone-core --test golden_artifact
//! ```

use keystone_core::context::ExecContext;
use keystone_core::operator::{Estimator, Transformer};
use keystone_core::optimizer::PipelineOptions;
use keystone_core::pipeline::Pipeline;
use keystone_core::profiler::ProfileOptions;
use keystone_core::report::{schema_version_of, CaptureOptions, RunArtifact, SCHEMA_VERSION};
use keystone_dataflow::collection::DistCollection;

struct Double;
impl Transformer<f64, f64> for Double {
    fn apply(&self, x: &f64) -> f64 {
        x * 2.0
    }
}

struct MeanShift;
impl Estimator<f64, f64> for MeanShift {
    fn fit(
        &self,
        data: &DistCollection<f64>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<f64, f64>> {
        let n = data.count().max(1) as f64;
        let mu = data.aggregate(0.0, |a, x| a + x, |a, b| a + b) / n;
        struct Shift(f64);
        impl Transformer<f64, f64> for Shift {
            fn apply(&self, x: &f64) -> f64 {
                x - self.0
            }
        }
        Box::new(Shift(mu))
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_artifact_fit.json")
}

fn capture() -> RunArtifact {
    let train = DistCollection::from_vec((0..48).map(|i| i as f64).collect(), 2);
    let pipe = Pipeline::<f64, f64>::input()
        .and_then(Double)
        .and_then_est(MeanShift, &train);
    let ctx = ExecContext::default_cluster();
    let opts = PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![8, 16],
            seed: 3,
            select_operators: false,
            deterministic_timing: true,
        },
        ..Default::default()
    };
    let (fitted, report) = pipe.fit(&ctx, &opts);
    RunArtifact::capture_fit(
        &report,
        &fitted.plan(),
        &ctx,
        &CaptureOptions {
            deterministic: true,
            label: "golden".to_string(),
        },
    )
}

#[test]
fn fit_artifact_matches_golden_bytes() {
    let actual = capture().to_json();
    let path = golden_path();
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "RunArtifact JSON drifted from its golden file. If the change is \
         intentional, bump SCHEMA_VERSION when the layout changed shape and \
         regenerate: GOLDEN_UPDATE=1 cargo test -p keystone-core --test golden_artifact"
    );
}

#[test]
fn golden_schema_version_matches_the_crate() {
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden present");
    assert_eq!(
        schema_version_of(&golden),
        Some(SCHEMA_VERSION),
        "schema version bumped without regenerating the golden artifact \
         (or vice versa) — regenerate with GOLDEN_UPDATE=1"
    );
}

#[test]
fn golden_is_reparsable_and_self_describing() {
    let golden = if let Ok(s) = std::fs::read_to_string(golden_path()) {
        s
    } else {
        capture().to_json()
    };
    let doc = keystone_dataflow::json::parse(&golden).expect("valid JSON");
    let meta = doc.get("meta").expect("meta section");
    assert_eq!(meta.get("kind").and_then(|v| v.as_str()), Some("fit"));
    for key in [
        "plan",
        "nodes",
        "sim",
        "events",
        "spans",
        "recovery",
        "adaptation",
        "tenants",
    ] {
        assert!(doc.get(key).is_some(), "missing top-level `{key}`");
    }
    for gone in ["counters", "gauges", "histograms"] {
        assert!(doc.get(gone).is_none(), "schema v4 dropped `{gone}`");
    }
}
