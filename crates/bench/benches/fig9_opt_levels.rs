//! Figure 9: end-to-end impact of the optimization levels — None,
//! whole-pipeline only (`Pipe Only`), and full KeystoneML — on the text
//! (Amazon-like), speech (TIMIT-like) and image (VOC-like) pipelines, with
//! the per-stage breakdown (Optimize / Featurize / Solve / Eval).
//!
//! The paper's shape: Amazon gains ~7× from whole-pipeline caching alone
//! (featurized data reused across solver iterations); TIMIT gains mostly
//! from solver selection; VOC from both.

use keystone_bench::{print_table, save_json, secs, time_once};
use keystone_core::context::ExecContext;
use keystone_core::optimizer::{OptLevel, PipelineOptions};
use keystone_core::profiler::ProfileOptions;
use keystone_core::trace::TraceEvent;
use keystone_solvers::logistic::one_hot;
use keystone_solvers::solver_op::LinearSolverOp;
use keystone_workloads::image_gen::ImageDatasetSpec;
use keystone_workloads::pipelines::{
    image_classification_pipeline, speech_pipeline, text_classification_pipeline,
    ImagePipelineConfig, SpeechPipelineConfig, TextPipelineConfig,
};
use keystone_workloads::{AmazonLike, TimitLike};

fn levels() -> Vec<(&'static str, PipelineOptions)> {
    let base = PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![96, 192],
            ..Default::default()
        },
        ..Default::default()
    };
    vec![
        (
            "none",
            PipelineOptions {
                level: OptLevel::None,
                ..base.clone()
            },
        ),
        (
            "pipe-only",
            PipelineOptions {
                level: OptLevel::PipeOnly,
                ..base.clone()
            },
        ),
        ("keystoneml", base),
    ]
}

fn breakdown(ctx: &ExecContext, optimize: f64, total: f64) -> (f64, f64, f64) {
    let solve: f64 = ctx
        .tracer
        .events()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::NodeEnd {
                label, wall_secs, ..
            } if label.starts_with("fit:LinearSolver") => Some(*wall_secs),
            _ => None,
        })
        .sum();
    let featurize = (total - optimize - solve).max(0.0);
    (optimize, featurize, solve)
}

fn main() {
    let mut rows = Vec::new();

    // --- Amazon-like text (iterative solver + expensive featurization). ---
    let (train, test) = AmazonLike::with_docs(1_500).generate_split(0.2);
    let labels = one_hot(&train.labels, 2);
    let cfg = TextPipelineConfig {
        max_features: 2_000,
        // Force the iterative solver so caching matters, mirroring the
        // paper's Amazon configuration (L-BFGS).
        solver: LinearSolverOp {
            lbfgs_iters: 15,
            ..Default::default()
        },
        ..Default::default()
    };
    for (name, opts) in levels() {
        let pipe = text_classification_pipeline(&cfg, &train.docs, &labels);
        let ctx = ExecContext::calibrated(8);
        let ((fitted, report), fit_secs) = time_once(|| pipe.fit(&ctx, &opts));
        let (opt, feat, solve) = breakdown(&ctx, report.optimize_secs, fit_secs);
        let (_, eval_secs) = time_once(|| fitted.apply(&test.docs, &ctx));
        rows.push(vec![
            "amazon".into(),
            name.into(),
            secs(opt),
            secs(feat),
            secs(solve),
            secs(eval_secs),
            secs(fit_secs + eval_secs),
        ]);
    }

    // --- TIMIT-like speech. ---
    let (train, test) = TimitLike {
        separation: 4.0,
        ..TimitLike::new(1_200, 32, 12)
    }
    .generate_split(0.2);
    let labels = one_hot(&train.labels, 12);
    let cfg = SpeechPipelineConfig {
        blocks: 2,
        block_dim: 96,
        gamma: 0.08,
        ..Default::default()
    };
    for (name, opts) in levels() {
        let pipe = speech_pipeline(&cfg, &train.data, &labels);
        let ctx = ExecContext::calibrated(8);
        let ((fitted, report), fit_secs) = time_once(|| pipe.fit(&ctx, &opts));
        let (opt, feat, solve) = breakdown(&ctx, report.optimize_secs, fit_secs);
        let (_, eval_secs) = time_once(|| fitted.apply(&test.data, &ctx));
        rows.push(vec![
            "timit".into(),
            name.into(),
            secs(opt),
            secs(feat),
            secs(solve),
            secs(eval_secs),
            secs(fit_secs + eval_secs),
        ]);
    }

    // --- VOC-like images. ---
    let (train, test) = ImageDatasetSpec {
        classes: 4,
        ..ImageDatasetSpec::voc_like(120, 32)
    }
    .generate_split(0.2);
    let labels = one_hot(&train.labels, 4);
    let cfg = ImagePipelineConfig {
        pca_dims: 10,
        gmm_k: 4,
        ..Default::default()
    };
    for (name, opts) in levels() {
        let pipe = image_classification_pipeline(&cfg, &train.images, &labels);
        let ctx = ExecContext::calibrated(8);
        let ((fitted, report), fit_secs) = time_once(|| pipe.fit(&ctx, &opts));
        let (opt, feat, solve) = breakdown(&ctx, report.optimize_secs, fit_secs);
        let (_, eval_secs) = time_once(|| fitted.apply(&test.images, &ctx));
        rows.push(vec![
            "voc".into(),
            name.into(),
            secs(opt),
            secs(feat),
            secs(solve),
            secs(eval_secs),
            secs(fit_secs + eval_secs),
        ]);
    }

    print_table(
        "Fig 9: optimization levels, stage breakdown",
        &[
            "pipeline",
            "level",
            "optimize",
            "featurize",
            "solve",
            "eval",
            "total",
        ],
        &rows,
    );
    save_json("fig9_opt_levels", &rows);
    println!(
        "\nExpected shape: 'none' pays repeated featurization inside the iterative\n\
         solver; 'pipe-only' removes it via materialization; 'keystoneml' adds\n\
         operator selection (solver/PCA/convolver choices)."
    );
}
