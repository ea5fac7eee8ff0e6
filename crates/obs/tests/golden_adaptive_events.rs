//! Golden-file test for the adaptive trace-event wire format.
//!
//! Schema v2 added the `recalibrate` and `plan_revision` event types and
//! the top-level `adaptation` section. This test runs a deliberately
//! mis-declared two-branch fit that triggers exactly one mid-fit
//! revision, captures the full artifact, and compares it byte-for-byte
//! against a checked-in golden file — pinning the event layout, the
//! per-node `adapt` flags, and the `adaptation` summary all at once.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p keystone-obs --test golden_adaptive_events
//! ```

use keystone_core::context::ExecContext;
use keystone_core::operator::{Estimator, Transformer};
use keystone_core::optimizer::PipelineOptions;
use keystone_core::pipeline::{gather, Pipeline};
use keystone_core::profiler::ProfileOptions;
use keystone_dataflow::collection::DistCollection;
use keystone_obs::{CaptureOptions, RunArtifact};

struct WideLift;
impl Transformer<Vec<f64>, Vec<f64>> for WideLift {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        (0..16)
            .map(|j| x.iter().sum::<f64>() * (j + 1) as f64)
            .collect()
    }
}

struct SkewLift;
impl Transformer<Vec<f64>, Vec<f64>> for SkewLift {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        (0..16).map(|j| x.iter().sum::<f64>() + j as f64).collect()
    }
}

struct MeanSub(Vec<f64>);
impl Transformer<Vec<f64>, Vec<f64>> for MeanSub {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        x.iter().zip(&self.0).map(|(v, m)| v - m).collect()
    }
}

fn column_means(data: &DistCollection<Vec<f64>>) -> Vec<f64> {
    let rows = data.collect();
    let n = rows.len().max(1) as f64;
    let dim = rows.first().map(|r| r.len()).unwrap_or(0);
    let mut mu = vec![0.0; dim];
    for r in &rows {
        for (m, v) in mu.iter_mut().zip(r) {
            *m += v / n;
        }
    }
    mu
}

struct EagerSolver;
impl Estimator<Vec<f64>, Vec<f64>> for EagerSolver {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        Box::new(MeanSub(column_means(data)))
    }

    fn weight(&self) -> u32 {
        6
    }
}

struct StubbornSolver;
impl Estimator<Vec<f64>, Vec<f64>> for StubbornSolver {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        Box::new(MeanSub(column_means(data)))
    }

    fn fit_lazy(
        &self,
        data: &dyn Fn() -> DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        let mut mu = Vec::new();
        for _ in 0..5 {
            mu = column_means(&data());
        }
        Box::new(MeanSub(mu))
    }
}

fn capture() -> RunArtifact {
    let train = DistCollection::from_vec(
        (0..48)
            .map(|r| (0..8).map(|c| ((r * 13 + c) % 11) as f64).collect())
            .collect(),
        4,
    );
    let input = Pipeline::<Vec<f64>, Vec<f64>>::input();
    let stale = input.and_then(WideLift).and_then_est(EagerSolver, &train);
    let hot = input
        .and_then(SkewLift)
        .and_then_est(StubbornSolver, &train);
    let pipe = gather(&[stale, hot]);
    let ctx = ExecContext::default_cluster();
    let opts = PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![8, 16],
            seed: 11,
            select_operators: false,
            deterministic_timing: true,
        },
        ..PipelineOptions::full()
    }
    .with_budget(20_000)
    .with_adaptive(true);
    let (fitted, report) = pipe.fit(&ctx, &opts);
    RunArtifact::capture_fit(
        &report,
        &fitted.plan(),
        &ctx,
        &CaptureOptions {
            deterministic: true,
            label: "adaptive-golden".to_string(),
        },
    )
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/adaptive_events.json")
}

#[test]
fn adaptive_fit_artifact_matches_golden_bytes() {
    let artifact = capture();
    let actual = artifact.to_json();
    // The fixture is only useful if it actually adapts.
    assert!(
        actual.contains("\"type\":\"recalibrate\""),
        "no recalibrate event in fixture: {actual}"
    );
    assert!(
        actual.contains("\"type\":\"plan_revision\""),
        "no plan_revision event in fixture: {actual}"
    );
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
        "adaptive artifact drifted from its golden file; if intentional, bump \
         SCHEMA_VERSION when the layout changed shape and regenerate with \
         GOLDEN_UPDATE=1 cargo test -p keystone-obs --test golden_adaptive_events"
    );
}

#[test]
fn golden_adaptation_section_is_parseable() {
    let golden = if let Ok(s) = std::fs::read_to_string(golden_path()) {
        s
    } else {
        capture().to_json()
    };
    let doc = keystone_dataflow::json::parse(&golden).expect("valid JSON");
    let adaptation = doc.get("adaptation").expect("adaptation section");
    assert_eq!(
        adaptation
            .get("recalibrations")
            .and_then(|v| v.as_f64())
            .map(|v| v as u64),
        Some(1)
    );
    let revisions = adaptation
        .get("revisions")
        .and_then(|v| v.as_arr())
        .expect("revisions array");
    assert_eq!(revisions.len(), 1);
    assert!(revisions[0].get("promoted").is_some());
    assert!(revisions[0].get("evicted").is_some());
}
