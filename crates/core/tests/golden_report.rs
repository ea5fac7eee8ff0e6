//! Golden-file tests for the [`PipelineReport`] renderers.
//!
//! The table and JSON forms are consumed by scripts and by CI artifact
//! diffing, so their exact shape — key set (JSON keys render sorted), column
//! set (including the `retry`/`rec(s)` recovery columns), number
//! formatting — is a compatibility surface. These tests render a fully
//! synthetic, fully deterministic report and compare byte-for-byte against
//! checked-in golden files.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p keystone-core --test golden_report
//! ```

use std::sync::Arc;

use keystone_core::graph::{Graph, NodeKind};
use keystone_core::operator::{AnyData, ErasedTransformer, Transformer, TypedTransformer};
use keystone_core::optimizer::FusedMap;
use keystone_core::profiler::{NodeProfile, PipelineProfile};
use keystone_core::record::DataStats;
use keystone_core::report::PipelineReport;
use keystone_core::trace::{TraceEvent, Tracer};
use keystone_dataflow::collection::DistCollection;
use keystone_dataflow::metrics::{MetricsRegistry, TaskSpan};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, actual).expect("write golden");
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
        "{name} drifted from its golden file; if intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test -p keystone-core --test golden_report"
    );
}

/// A synthetic report exercising every column: a profiled, cache-hit node;
/// a node with two retries of one partition and a lost cache entry; and a
/// whole-stage fused node whose row carries its member list.
fn synthetic_report() -> PipelineReport {
    let mut g = Graph::new();
    let src = g.add(
        NodeKind::DataSource(AnyData::wrap(DistCollection::from_vec(vec![1.0f64; 4], 2))),
        vec![],
        "train-data",
    );
    let featurize = g.add(NodeKind::RuntimeInput, vec![src], "Featurize");
    let solve = g.add(NodeKind::RuntimeInput, vec![featurize], "Solve");

    // A real fused operator so the member-list column renders from the
    // operator itself, not a hand-written field.
    struct Normalize;
    impl Transformer<f64, f64> for Normalize {
        fn apply(&self, x: &f64) -> f64 {
            x / 255.0
        }
    }
    struct Center;
    impl Transformer<f64, f64> for Center {
        fn apply(&self, x: &f64) -> f64 {
            x - 0.5
        }
    }
    let members: Vec<(String, Arc<dyn ErasedTransformer>)> = vec![
        (
            "Normalize".into(),
            Arc::new(TypedTransformer::new(Normalize)),
        ),
        ("Center".into(), Arc::new(TypedTransformer::new(Center))),
    ];
    let fused_op = FusedMap::try_fuse_with(&members, false).expect("per-record members fuse");
    let fused = g.add(
        NodeKind::Transform(Arc::new(fused_op)),
        vec![solve],
        "Fused[Normalize+Center]",
    );

    let mut profile = PipelineProfile::default();
    for (node, fixed_secs, bytes_per_record) in
        [(featurize, 2.0, 8.0), (solve, 0.5, 4.0), (fused, 0.75, 8.0)]
    {
        profile.nodes.insert(
            node,
            NodeProfile {
                secs_per_record: 0.0,
                fixed_secs,
                out_bytes_per_record: bytes_per_record,
                out_records_per_in: 1.0,
                records_hint: 100,
                out_stats: DataStats {
                    count: 100,
                    bytes_per_record,
                    ..DataStats::empty()
                },
            },
        );
    }

    let t = Tracer::new();
    t.node_end(featurize, "Featurize", 100, 800, 1.0, 0.5);
    t.node_end(solve, "Solve", 100, 400, 0.5, 0.25);
    t.node_end(fused, "Fused[Normalize+Center]", 100, 800, 0.6, 0.3);
    t.record(TraceEvent::FusionMerge {
        node: fused,
        label: "Fused[Normalize+Center]".into(),
        members: vec!["Normalize".into(), "Center".into()],
    });
    t.record(TraceEvent::CacheMiss { node: featurize });
    t.record(TraceEvent::CacheHit { node: featurize });
    t.record(TraceEvent::CacheHit { node: featurize });
    t.record(TraceEvent::TaskRetry {
        node: solve,
        partition: 1,
        attempt: 0,
        backoff_secs: 1.0,
    });
    t.record(TraceEvent::TaskRetry {
        node: solve,
        partition: 1,
        attempt: 1,
        backoff_secs: 2.0,
    });
    t.record(TraceEvent::CacheLost { node: featurize });

    let m = MetricsRegistry::new();
    // Featurize: four even partitions. Solve: one 4x straggler. The fused
    // stage emits one even "fused" span wave — a single pass for the whole
    // chain.
    for (node, label, op, durations) in [
        (featurize, "Featurize", "map", [10u64, 10, 10, 10]),
        (solve, "Solve", "map", [10, 10, 10, 40]),
        (fused, "Fused[Normalize+Center]", "fused", [5, 5, 5, 5]),
    ] {
        for (p, dur) in durations.iter().enumerate() {
            m.record_span(TaskSpan {
                stage: label.into(),
                op,
                op_seq: 0,
                stage_id: Some(node as u64),
                partition: p,
                worker: p % 2,
                start_us: 0,
                end_us: *dur,
                items_in: 1,
                items_out: 1,
                bytes: 8,
                retries: 0,
            });
        }
    }

    PipelineReport::build_with_metrics(&g, &profile, &t, Some(&m))
}

#[test]
fn table_matches_golden() {
    assert_matches_golden("report_table.txt", &synthetic_report().render_table());
}

#[test]
fn json_matches_golden() {
    assert_matches_golden("report.json", &synthetic_report().to_json());
}

/// The golden surface itself: renderers must stay pure functions of the
/// report (two renders of the same report are byte-identical).
#[test]
fn renderers_are_deterministic() {
    let a = synthetic_report();
    let b = synthetic_report();
    assert_eq!(a.render_table(), b.render_table());
    assert_eq!(a.to_json(), b.to_json());
}
