//! `speech_pipeline` and `sweep_pipelines` chain the physical
//! `RandomFeatureMap`; the same graphs built here with the bare
//! `RandomFeatures` spec must be indistinguishable from them in everything
//! but speed: node labels, optimizer decisions and every output bit.

use keystone_core::context::ExecContext;
use keystone_core::optimizer::{fit_forest, OptLevel, PipelineOptions};
use keystone_core::pipeline::{gather, FittedPipeline, Pipeline};
use keystone_core::profiler::ProfileOptions;
use keystone_dataflow::collection::DistCollection;
use keystone_ops::stats::RandomFeatures;
use keystone_solvers::logistic::one_hot;
use keystone_solvers::solver_op::LinearSolverOp;
use keystone_workloads::dense_gen::{DenseDataset, TimitLike};
use keystone_workloads::pipelines::{speech_pipeline, SpeechPipelineConfig};
use keystone_workloads::sweep::{sweep_pipelines, SweepConfig};

type VecPipeline = Pipeline<Vec<f64>, Vec<f64>>;
type Data = DistCollection<Vec<f64>>;

const CLASSES: usize = 4;

fn dataset(stream: u64) -> DenseDataset {
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

/// The random-feature lift both builders start with, from the bare spec.
fn spec_lift(blocks: usize, block_dim: usize, gamma: f64, seed: u64) -> VecPipeline {
    let input = VecPipeline::input();
    let branches: Vec<VecPipeline> = (0..blocks)
        .map(|b| {
            input.and_then(RandomFeatures {
                out_dim: block_dim,
                gamma,
                seed: seed.wrapping_add(b as u64),
            })
        })
        .collect();
    gather(&branches)
}

fn spec_speech(cfg: &SpeechPipelineConfig, train: &Data, labels: &Data) -> VecPipeline {
    spec_lift(cfg.blocks, cfg.block_dim, cfg.gamma, cfg.seed)
        .and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(cfg.solver.clone(), train, labels)
}

fn spec_sweep(cfg: &SweepConfig, train: &Data, labels: &Data) -> Vec<VecPipeline> {
    let trunk = spec_lift(cfg.blocks, cfg.block_dim, cfg.gamma, cfg.seed)
        .and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
            cfg.trunk_solver.clone(),
            train,
            labels,
        );
    cfg.lambdas
        .iter()
        .map(|&lambda| {
            trunk.and_then_optimizable_label_est::<Vec<f64>, Vec<f64>>(
                LinearSolverOp {
                    lambda,
                    ..cfg.head_solver.clone()
                },
                train,
                labels,
            )
        })
        .collect()
}

/// Every optimizer pass on, and none of them; the synthetic profiling clock
/// makes the cache picks comparable across two independent fits.
fn modes() -> [PipelineOptions; 2] {
    let profile = ProfileOptions {
        sizes: vec![8, 16],
        deterministic_timing: true,
        ..ProfileOptions::default()
    };
    [PipelineOptions::full(), PipelineOptions::none()].map(|opts| {
        PipelineOptions {
            profile: profile.clone(),
            ..opts
        }
        .with_budget(1 << 30)
    })
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Held-out predictions through `apply` and through `apply_one`, as bits.
fn prediction_bits(
    fitted: &FittedPipeline<Vec<f64>, Vec<f64>>,
    test: &Data,
    ctx: &ExecContext,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let batch = fitted.apply(test, ctx).collect();
    let single: Vec<Vec<f64>> = test
        .collect()
        .iter()
        .map(|x| fitted.apply_one(x, ctx))
        .collect();
    (bits(&batch), bits(&single))
}

#[test]
fn speech_pipeline_is_indistinguishable_from_its_bare_spec_build() {
    let (train, test) = (dataset(0), dataset(1));
    let labels = one_hot(&train.labels, CLASSES);
    let cfg = SpeechPipelineConfig {
        blocks: 3,
        block_dim: 13,
        gamma: 0.3,
        ..SpeechPipelineConfig::default()
    };
    for opts in modes() {
        let built = [
            speech_pipeline(&cfg, &train.data, &labels),
            spec_speech(&cfg, &train.data, &labels),
        ];
        let [map, spec] = built.map(|pipe| {
            let ctx = ExecContext::default_cluster();
            let (fitted, report) = pipe.fit(&ctx, &opts);
            (
                pipe.graph_snapshot().summary(),
                report.cache_set_labels,
                report.choices,
                prediction_bits(&fitted, &test.data, &ctx),
            )
        });
        assert_eq!(map, spec, "level {:?}", opts.level);
        let (batch, single) = &map.3;
        assert_eq!(batch, single, "apply_one diverged from apply");
    }
}

#[test]
fn sweep_forest_is_indistinguishable_from_its_bare_spec_build() {
    let (train, test) = (dataset(0), dataset(1));
    let labels = one_hot(&train.labels, CLASSES);
    let cfg = SweepConfig::default();
    for opts in modes() {
        let built = [
            sweep_pipelines(&cfg, &train.data, &labels),
            spec_sweep(&cfg, &train.data, &labels),
        ];
        let [map, spec] = built.map(|tenants| {
            let ctx = ExecContext::default_cluster();
            let (fitted, report) = fit_forest(&tenants, &ctx, &opts);
            let merges: Vec<(String, usize)> = report
                .cross_merges
                .iter()
                .map(|m| (m.label.clone(), m.tenants))
                .collect();
            let cache_labels: Vec<Vec<String>> = report
                .fit
                .iter()
                .chain(&report.solo_reports)
                .map(|fit| fit.cache_set_labels.clone())
                .collect();
            let predictions: Vec<_> = fitted
                .iter()
                .map(|f| prediction_bits(f, &test.data, &ctx))
                .collect();
            (
                tenants[0].graph_snapshot().summary(),
                report.shared,
                merges,
                cache_labels,
                predictions,
            )
        });
        assert_eq!(map, spec, "level {:?}", opts.level);
        // `full` runs the shared plan, with the merge count EXPERIMENTS.md
        // quotes for this sweep; `none` fits every tenant alone.
        let (shared, merges) = (map.1, &map.2);
        if opts.level == OptLevel::Full {
            assert!(shared);
            assert_eq!(merges.len(), 11);
            assert_eq!(merges[0].0, "RandomFeatures");
        } else {
            assert!(!shared && merges.is_empty());
        }
    }
}
