//! End-to-end integration tests: the VOC-style Fisher-vector pipeline and
//! the CIFAR-style convolutional pipeline on synthetic texture classes.

use keystoneml::core::graph::NodeKind;
use keystoneml::prelude::*;
use keystoneml::solvers::logistic::one_hot;
use keystoneml::workloads::image_gen::ImageDatasetSpec;
use keystoneml::workloads::pipelines::{
    cifar_pipeline, image_classification_pipeline, predictions, CifarPipelineConfig,
    ImagePipelineConfig,
};

#[test]
fn fisher_vector_pipeline_learns_textures() {
    let classes = 4;
    let spec = ImageDatasetSpec {
        classes,
        noise: 0.3,
        ..ImageDatasetSpec::voc_like(160, 32)
    };
    let (train, test) = spec.generate_split(0.25);
    let labels = one_hot(&train.labels, classes);
    let cfg = ImagePipelineConfig {
        pca_dims: 12,
        gmm_k: 4,
        ..Default::default()
    };
    let pipe = image_classification_pipeline(&cfg, &train.images, &labels);
    let ctx = ExecContext::calibrated(8);
    let (fitted, report) = pipe.fit(&ctx, &demo_opts());
    let acc = accuracy(
        &predictions(&fitted.apply(&test.images, &ctx)),
        &test.labels.collect(),
    );
    let chance = 1.0 / classes as f64;
    assert!(acc > chance + 0.25, "accuracy {} vs chance {}", acc, chance);
    // The DAG must contain the Fig. 5 stages.
    for stage in ["GrayScale", "SIFT", "PCA", "FisherVector", "LinearSolver"] {
        assert!(report.dot.contains(stage), "missing stage {}", stage);
    }
}

#[test]
fn cifar_pipeline_learns_and_selects_convolver() {
    let classes = 4;
    let spec = ImageDatasetSpec {
        classes,
        noise: 0.3,
        ..ImageDatasetSpec::cifar_like(160)
    };
    let (train, test) = spec.generate_split(0.25);
    let labels = one_hot(&train.labels, classes);
    let cfg = CifarPipelineConfig {
        filters: 8,
        filter_size: 5,
        pool: 14,
        ..Default::default()
    };
    let pipe = cifar_pipeline(&cfg, &train.images, &labels);
    let ctx = ExecContext::calibrated(8);
    let (fitted, report) = pipe.fit(&ctx, &demo_opts());
    // The optimizable Convolver must have been resolved.
    let conv_choice = report
        .choices
        .iter()
        .find(|(n, _)| n.contains("Convolver"))
        .map(|(_, c)| c.clone());
    assert!(
        matches!(conv_choice.as_deref(), Some("blas") | Some("fft")),
        "unexpected convolver choice {:?} (random filters are not separable)",
        conv_choice
    );
    // The apply path runs that choice, not the default option (fused or
    // not: a fused node's members carry their own labels).
    let plan = fitted.plan();
    let conv_apply = plan
        .apply_path()
        .iter()
        .flat_map(|&id| {
            let node = &plan.graph().nodes[id];
            match &node.kind {
                NodeKind::Transform(op) => op.fused_members(),
                _ => None,
            }
            .unwrap_or_else(|| vec![node.label.clone()])
        })
        .find(|l| l.contains("Convolver"))
        .expect("an apply-path Convolver");
    let suffix = format!("[{}]", conv_choice.expect("a Convolver choice"));
    assert!(
        conv_apply.ends_with(&suffix),
        "apply-path node `{conv_apply}` does not run the fit's choice {suffix}"
    );
    let acc = accuracy(
        &predictions(&fitted.apply(&test.images, &ctx)),
        &test.labels.collect(),
    );
    let chance = 1.0 / classes as f64;
    assert!(acc > chance + 0.2, "accuracy {} vs chance {}", acc, chance);
}

#[test]
fn tighter_memory_budget_shrinks_cache_set() {
    let classes = 3;
    let spec = ImageDatasetSpec {
        classes,
        ..ImageDatasetSpec::voc_like(80, 32)
    };
    let ds = spec.generate();
    let labels = one_hot(&ds.labels, classes);
    let cfg = ImagePipelineConfig {
        pca_dims: 8,
        gmm_k: 2,
        ..Default::default()
    };
    let cache_bytes = |budget: u64| {
        let pipe = image_classification_pipeline(&cfg, &ds.images, &labels);
        let ctx = ExecContext::calibrated(8);
        let (_, report) = pipe.fit(&ctx, &demo_opts().with_budget(budget));
        report.cache_set.len()
    };
    let big = cache_bytes(u64::MAX / 2);
    let tiny = cache_bytes(1024);
    assert!(
        tiny <= big,
        "smaller budget must cache no more nodes: {} vs {}",
        tiny,
        big
    );
}

/// Pipeline options with profiling samples scaled to this test's small
/// synthetic dataset (the paper's 512/1024 samples assume millions of
/// records; here they would be the whole dataset).
fn demo_opts() -> PipelineOptions {
    PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![96, 192],
            ..Default::default()
        },
        ..Default::default()
    }
}
