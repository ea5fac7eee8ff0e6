//! Amazon-style text classification (§5.1) with the three optimization
//! levels of Fig. 9: None, Pipe-Only, and full KeystoneML. Prints the
//! fit-time breakdown so the effect of whole-pipeline optimization (the 7×
//! the paper reports came from caching features ahead of the iterative
//! solver) is visible. For the fully optimized fit it also prints the
//! per-node predicted-vs-actual report — profiled estimates (§4.1) joined
//! against what the executor measured, with cache counters — and exports
//! the partition-level task spans as a Chrome trace.
//!
//! ```sh
//! cargo run --release --example text_classification
//! # then load target/trace.json in chrome://tracing or https://ui.perfetto.dev
//! ```

use std::time::Instant;

use keystoneml::prelude::*;
use keystoneml::solvers::logistic::one_hot;
use keystoneml::workloads::pipelines::{
    predictions, text_classification_pipeline, TextPipelineConfig,
};
use keystoneml::workloads::AmazonLike;

fn main() {
    let (train, test) = AmazonLike::with_docs(2_000).generate_split(0.2);
    let train_labels = one_hot(&train.labels, 2);
    let cfg = TextPipelineConfig {
        max_features: 5_000,
        ..Default::default()
    };

    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "level", "fit (s)", "eval (s)", "accuracy"
    );
    for (name, opts) in [
        (
            "None",
            PipelineOptions {
                level: OptLevel::None,
                ..demo_opts()
            },
        ),
        (
            "PipeOnly",
            PipelineOptions {
                level: OptLevel::PipeOnly,
                ..demo_opts()
            },
        ),
        ("KeystoneML", demo_opts()),
    ] {
        let pipe = text_classification_pipeline(&cfg, &train.docs, &train_labels);
        let ctx = ExecContext::calibrated(8);

        let t0 = Instant::now();
        let (fitted, report) = pipe.fit(&ctx, &opts);
        let fit_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let scores = fitted.apply(&test.docs, &ctx);
        let eval_secs = t1.elapsed().as_secs_f64();

        let preds = predictions(&scores);
        let acc = accuracy(&preds, &test.labels.collect());
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.3}",
            name, fit_secs, eval_secs, acc
        );
        if name == "KeystoneML" {
            println!("\nKeystoneML decisions:");
            println!("  optimize overhead: {:.2}s", report.optimize_secs);
            for (node, choice) in &report.choices {
                println!("  {} -> {}", node, choice);
            }
            println!("  cached: {:?}", report.cache_set_labels);

            println!("\n== predicted vs actual ==");
            print!("{}", report.observability.render_table());
            if let Some(err) = report.observability.max_time_rel_error() {
                println!(
                    "worst per-node runtime prediction error: {:.0}%",
                    err * 100.0
                );
            }
            if let Some(err) = report.observability.max_bytes_rel_error() {
                println!(
                    "worst per-node memory prediction error:  {:.1}%",
                    err * 100.0
                );
            }

            // Worker lanes next to the simulated-cluster stage timeline.
            let trace = chrome_trace_json(&ctx);
            std::fs::create_dir_all("target").expect("create target/");
            std::fs::write("target/trace.json", &trace).expect("write trace");
            println!(
                "wrote target/trace.json ({} task spans from {} stages)",
                ctx.metrics.span_count(),
                ctx.metrics.stage_skew().len()
            );
        }
    }
}

/// Pipeline options with profiling samples scaled to this demo's small
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
