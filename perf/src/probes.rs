//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions, at the shapes the workloads use. `generic` runs on
//! every workload; `text`, `speech`, `chain` and `sweep` cover the layers
//! only their workload exercises.

use std::sync::Arc;
use std::time::Instant;

use keystoneml::dataflow::cache::{CacheManager, CachePolicy, CachedValue};
use keystoneml::dataflow::cluster::calibrate_local;
use keystoneml::linalg::fft::fft_inplace;
use keystoneml::linalg::gemm::{gram, matmul, matmul_parallel, tr_matmul};
use keystoneml::linalg::{Complex, CsrMatrix, DenseMatrix};
use keystoneml::ops::stats::RandomFeatures;
use keystoneml::ops::text::{CommonSparseFeatures, LowerCase, NGrams, Tokenizer, Trim};
use keystoneml::prelude::*;
use keystoneml::solvers::Features;

use crate::metrics::Metrics;
use crate::protocol::{fit_once, repeat, ApplyPhase, Ops};
use crate::spans::SpanLog;
use crate::speed::{norm, Cores, Sample, Speedometer};
use crate::stats::median;
use crate::workloads::{
    bench_ctx, Bench, CHAIN_DEPTH, CHAIN_DIM, MAX_FEATURES, PARTITIONS, SPEECH_BLOCK_DIM,
};

/// The traced run's instruments, handed to every probe.
pub struct Lab<'a> {
    pub m: &'a mut Metrics,
    pub spans: &'a mut SpanLog,
    pub speed: &'a mut Speedometer,
    pub ops: &'a mut Ops,
}

/// What a workload's own probes need from the phases that ran before them.
pub struct ProbeCtx<'a> {
    /// The run's `--seconds`.
    pub seconds: f64,
    pub opts: &'a PipelineOptions,
    /// `(node label, chosen physical operator)` of the default plan.
    pub choices: &'a [(String, String)],
    /// Median seconds of the default `Pipeline::fit` in this run.
    pub base_fit_s: f64,
}

impl ProbeCtx<'_> {
    /// Seconds the generic probes, and then a workload's own time-boxed
    /// ones, may spend.
    pub fn budget(&self) -> f64 {
        self.seconds * 0.15
    }
}

/// A workload's own probes, for `main` to dispatch on.
pub type Specific<A> = fn(&Bench<A>, &ProbeCtx, &mut Lab);

/// Times each call to `f`, repeated for `budget` seconds and at least
/// `min_reps` times. Probes are time-boxed, not counted like the phases:
/// they have no bound to hold, only the traced run's time to respect.
fn time(
    speed: &mut Speedometer,
    cores: Cores,
    budget: f64,
    min_reps: usize,
    mut f: impl FnMut(),
) -> Vec<Sample> {
    let begun = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || begun.elapsed().as_secs_f64() < budget {
        samples.push(speed.measure(cores, &mut f).1);
    }
    samples
}

fn dense(rows: usize, cols: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5
    })
}

/// Probes whose shapes do not depend on the workload: the machine, dense
/// kernels, `DistCollection` operators, the cache and the executor's
/// per-node cost.
pub fn generic(budget: f64, lab: &mut Lab) {
    let slice = budget / 12.0;

    lab.spans.scope("probe.machine", |_| {
        let r = calibrate_local(1);
        lab.m
            .put_value("machine.peak_gflops", r.gflops_per_worker / 1e9);
        lab.m.put_value("machine.mem_gbps", r.mem_bandwidth / 1e9);
    });

    lab.spans.scope("probe.linalg", |_| {
        let (m, speed) = (&mut *lab.m, &mut *lab.speed);
        let (a, b) = (dense(512, 512), dense(512, 512));
        let gflop = 2.0 * 512f64.powi(3) / 1e9;
        let secs = time(speed, Cores::One, slice, 2, || {
            std::hint::black_box(matmul(&a, &b));
        });
        m.put_samples("linalg.gemm_gflops", &secs, |s| gflop / s);
        let secs = time(speed, Cores::All, slice, 2, || {
            std::hint::black_box(matmul_parallel(&a, &b));
        });
        m.put_samples("linalg.gemm_par_gflops", &secs, |s| gflop / s);
        m.put_value(
            "linalg.gemm_roofline_frac",
            m.value("linalg.gemm_gflops") / m.value("machine.peak_gflops"),
        );

        // The speech solver's shapes: 3200 training rows of 512 features,
        // 12 label columns. `gram` does n·d·(d+1)/2 multiply-adds.
        let (x, y) = (dense(3200, 512), dense(3200, 12));
        let secs = time(speed, Cores::One, slice, 2, || {
            std::hint::black_box(gram(&x));
        });
        m.put_samples("linalg.gram_gflops", &secs, |s| {
            3200.0 * 512.0 * 513.0 / 1e9 / s
        });
        let secs = time(speed, Cores::One, slice, 3, || {
            std::hint::black_box(tr_matmul(&x, &y));
        });
        m.put_samples("linalg.tr_matmul_gflops", &secs, |s| {
            2.0 * 3200.0 * 512.0 * 12.0 / 1e9 / s
        });

        let n = 4096usize;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0))
            .collect();
        let mflop = 5.0 * n as f64 * (n as f64).log2() / 1e6;
        let secs = time(speed, Cores::One, slice / 2.0, 20, || {
            let mut buf = signal.clone();
            fft_inplace(&mut buf, false);
            std::hint::black_box(buf);
        });
        m.put_samples("linalg.fft_mflops", &secs, |s| mflop / s);
    });

    lab.spans.scope("probe.dataflow", |_| {
        let (m, speed) = (&mut *lab.m, &mut *lab.speed);
        let n = 1_000_000usize;
        let data = DistCollection::from_vec((0..n as u64).collect::<Vec<u64>>(), PARTITIONS);
        let secs = time(speed, Cores::All, slice / 3.0, 5, || {
            std::hint::black_box(data.map(|x| x + 1).count());
        });
        m.put_samples("dataflow.map_rec_per_s", &secs, |s| n as f64 / s);
        let secs = time(speed, Cores::All, slice / 3.0, 5, || {
            let sums = data.fold_partitions(|p| (p.iter().sum::<u64>(), p.len() as u64));
            std::hint::black_box(sums.count());
        });
        m.put_samples("dataflow.fold_partitions_rec_per_s", &secs, |s| {
            n as f64 / s
        });
        let secs = time(speed, Cores::All, slice / 3.0, 5, || {
            std::hint::black_box(data.aggregate(0u64, |a, x| a + x, |a, b| a + b));
        });
        m.put_samples("dataflow.aggregate_rec_per_s", &secs, |s| n as f64 / s);

        // What one parallel region costs when it has nothing to do: a
        // serving wave over two partitions pays this per operator.
        let tiny = DistCollection::from_vec(vec![1u64, 2], 2);
        let secs = time(speed, Cores::All, slice, 2000, || {
            std::hint::black_box(tiny.map(|x| x + 1).count());
        });
        m.put_samples("dataflow.region_fixed_us", &secs, |s| s * 1e6);

        let records = crate::workloads::chain_records(50_000, 1);
        let gbytes = 2.0 * (records.len() * CHAIN_DIM * 8) as f64 / 1e9;
        let secs = time(speed, Cores::One, slice, 5, || {
            let batch = ColumnarBatch::from_records(&records);
            std::hint::black_box(batch.into_records());
        });
        m.put_samples("dataflow.columnar_pack_gbps", &secs, |s| gbytes / s);

        let keys = 10_000u64;
        let value: CachedValue = Arc::new(0u64);
        let mut puts = Vec::new();
        let mut gets = Vec::new();
        let begun = Instant::now();
        while puts.len() < 5 || begun.elapsed().as_secs_f64() < slice {
            let cache = CacheManager::new(
                u64::MAX,
                CachePolicy::Lru {
                    admission_fraction: 1.0,
                },
            );
            puts.push(
                speed
                    .measure(Cores::One, || {
                        for k in 0..keys {
                            cache.put(k, value.clone(), 64);
                        }
                    })
                    .1,
            );
            gets.push(
                speed
                    .measure(Cores::One, || {
                        for k in 0..keys {
                            std::hint::black_box(cache.get(k));
                        }
                    })
                    .1,
            );
        }
        m.put_samples("dataflow.cache_put_ns", &puts, |s| s * 1e9 / keys as f64);
        m.put_samples("dataflow.cache_get_ns", &gets, |s| s * 1e9 / keys as f64);
    });

    lab.spans.scope("probe.executor", |_| {
        struct Identity;
        impl Transformer<Vec<f64>, Vec<f64>> for Identity {
            fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
                x.clone()
            }
        }
        let mut pipe = Pipeline::<Vec<f64>, Vec<f64>>::input();
        for _ in 0..CHAIN_DEPTH {
            pipe = pipe.and_then(Identity);
        }
        let ctx = bench_ctx();
        let (fitted, _) = pipe.fit(&ctx, &PipelineOptions::full().with_fusion(false));
        let record = vec![0.5; CHAIN_DIM];
        let secs = time(lab.speed, Cores::One, slice, 2000, || {
            std::hint::black_box(fitted.apply_one(&record, &ctx));
        });
        lab.m.put_samples("executor.node_overhead_us", &secs, |s| {
            s * 1e6 / CHAIN_DEPTH as f64
        });
    });
}

/// `optimizer.mat_speedup`: the same pipeline fitted with a zero cache
/// budget, over the default fit. One repetition: without materialization an
/// iterative solver recomputes its featurizer on every pass.
fn mat_speedup<A: Record>(bench: &Bench<A>, pc: &ProbeCtx, lab: &mut Lab) {
    lab.spans.scope("probe.optimizer", |_| {
        let pipes = (bench.build)();
        let ctx = bench_ctx();
        let opts = pc.opts.clone().with_budget(0);
        let speed = &mut *lab.speed;
        if let Some((sample, _)) = lab.ops.guard(1, "fit without materialization", || {
            fit_once(&pipes, &ctx, &opts, speed)
        }) {
            lab.m
                .put_value("optimizer.mat_speedup", sample.norm / pc.base_fit_s);
        }
    });
}

/// The solver the optimizer chose, by name, fitted directly on materialized
/// features.
fn solver_fit<F: Features>(
    name: &str,
    features: &DistCollection<F>,
    labels: &DistCollection<Vec<f64>>,
    pc: &ProbeCtx,
    lab: &mut Lab,
) {
    let options = <LinearSolverOp as OptimizableLabelEstimator<F, Vec<f64>, Vec<f64>>>::options(
        &LinearSolverOp::new(),
    );
    let chosen = pc.choices.first().map(|c| c.1.as_str());
    let Some(option) = options
        .into_iter()
        .find(|o| Some(o.name.as_str()) == chosen)
    else {
        return;
    };
    lab.spans.scope("probe.solvers", |_| {
        let ctx = bench_ctx();
        let speed = &mut *lab.speed;
        if let Some(sample) = lab.ops.guard(1, "solver fit", || {
            speed
                .measure(Cores::All, || option.op.fit(features, labels, &ctx))
                .1
        }) {
            lab.m.put_samples(name, &[sample], |s| s);
        }
    });
}

pub fn text(bench: &Bench<String>, pc: &ProbeCtx, lab: &mut Lab) {
    let slice = pc.budget() / 8.0;
    let heldout = bench.heldout.collect();
    let docs = heldout.len() as f64;
    let ngrams = NGrams::new(1, 2);
    let tokens = |doc: &String| ngrams.apply(&Tokenizer.apply(&LowerCase.apply(&Trim.apply(doc))));
    let train_tokens = bench.train.map(tokens);
    let model = CommonSparseFeatures::new(MAX_FEATURES).fit(&train_tokens, &bench_ctx());
    let heldout_tokens: Vec<Vec<String>> = heldout.iter().map(tokens).collect();

    lab.spans.scope("probe.ops", |_| {
        let secs = time(lab.speed, Cores::One, slice, 3, || {
            std::hint::black_box(heldout.iter().map(tokens).collect::<Vec<_>>());
        });
        lab.m
            .put_samples("ops.text_featurize_rec_per_s", &secs, |s| docs / s);
        let secs = time(lab.speed, Cores::One, slice, 3, || {
            std::hint::black_box(
                heldout_tokens
                    .iter()
                    .map(|t| model.apply(t))
                    .collect::<Vec<_>>(),
            );
        });
        lab.m
            .put_samples("ops.sparse_features_rec_per_s", &secs, |s| docs / s);
    });

    lab.spans.scope("probe.linalg", |_| {
        let rows: Vec<SparseVector> = heldout_tokens.iter().map(|t| model.apply(t)).collect();
        let csr = CsrMatrix::from_rows(&rows);
        // Bytes one product moves: values + column indices + row pointers,
        // the dense vector read and the dense vector written.
        let gbytes =
            (csr.nnz() * 12 + (csr.rows() + 1) * 8 + csr.cols() * 8 + csr.rows() * 8) as f64 / 1e9;
        let x = vec![1.0; csr.cols()];
        let secs = time(lab.speed, Cores::One, slice, 20, || {
            std::hint::black_box(csr.matvec(&x));
        });
        lab.m.put_samples("linalg.spmv_gbps", &secs, |s| gbytes / s);
        let y = vec![1.0; csr.rows()];
        let secs = time(lab.speed, Cores::One, slice, 20, || {
            std::hint::black_box(csr.tr_matvec(&y));
        });
        lab.m
            .put_samples("linalg.sp_tr_matvec_gbps", &secs, |s| gbytes / s);
    });

    let features = train_tokens.map(|t| model.apply(t));
    let labels = bench.train_labels.as_ref().expect("text has labels");
    solver_fit("solvers.sparse_fit_s", &features, labels, pc, lab);
    mat_speedup(bench, pc, lab);
}

fn random_features(heldout: &[Vec<f64>], out_dim: usize, budget: f64, lab: &mut Lab) {
    lab.spans.scope("probe.ops", |_| {
        let rf = RandomFeatures {
            out_dim,
            gamma: 0.07,
            seed: 0x5117,
        };
        let secs = time(lab.speed, Cores::One, budget, 3, || {
            std::hint::black_box(heldout.iter().map(|x| rf.apply(x)).collect::<Vec<_>>());
        });
        lab.m
            .put_samples("ops.random_features_rec_per_s", &secs, |s| {
                heldout.len() as f64 / s
            });
    });
}

pub fn speech(bench: &Bench<Vec<f64>>, pc: &ProbeCtx, lab: &mut Lab) {
    random_features(
        &bench.heldout.collect(),
        SPEECH_BLOCK_DIM,
        pc.budget() / 8.0,
        lab,
    );

    // The gathered training features, as the cached `Gather` holds them.
    let blocks: Vec<RandomFeatures> = (0..4u64)
        .map(|b| RandomFeatures {
            out_dim: SPEECH_BLOCK_DIM,
            gamma: 0.07,
            seed: 0x5117 + b,
        })
        .collect();
    let features = bench.train.map(|x| {
        blocks
            .iter()
            .flat_map(|rf| rf.apply(x))
            .collect::<Vec<f64>>()
    });
    let labels = bench.train_labels.as_ref().expect("speech has labels");
    solver_fit("solvers.dense_fit_s", &features, labels, pc, lab);
    // Without the cached `Gather`, L-BFGS recomputes 3200 × 512 random
    // features on every pass: one such fit takes about 16 s, most of a
    // run's time cap, so it is measured only when the run is given room.
    if pc.seconds >= 60.0 {
        mat_speedup(bench, pc, lab);
    }
}

pub fn chain(bench: &Bench<Vec<f64>>, pc: &ProbeCtx, lab: &mut Lab) {
    lab.spans.scope("probe.executor", |_| {
        let n = bench.heldout.count() as f64;
        // The three physical variants of one plan, each fitted afresh and
        // applied 20 times on its own context.
        let mut variant = |opts: PipelineOptions, name: &str| {
            let (_, fitted) = fit_once(&(bench.build)(), &bench_ctx(), &opts, lab.speed);
            let mut apply = ApplyPhase::new();
            apply.run(20, &fitted, &bench.heldout, lab.speed, lab.ops);
            lab.m.put_samples(name, &apply.secs, |s| n / s);
        };
        variant(pc.opts.clone(), "executor.apply_columnar_rec_per_s");
        variant(
            pc.opts.clone().with_columnar(false),
            "executor.apply_fused_record_rec_per_s",
        );
        variant(
            pc.opts.clone().with_fusion(false),
            "executor.apply_unfused_rec_per_s",
        );
        let columnar = lab.m.value("executor.apply_columnar_rec_per_s");
        lab.m.put_value(
            "executor.fusion_speedup",
            columnar / lab.m.value("executor.apply_unfused_rec_per_s"),
        );
        lab.m.put_value(
            "executor.columnar_speedup",
            columnar / lab.m.value("executor.apply_fused_record_rec_per_s"),
        );
    });
}

pub fn sweep(bench: &Bench<Vec<f64>>, pc: &ProbeCtx, lab: &mut Lab) {
    random_features(&bench.heldout.collect(), 64, pc.budget() / 8.0, lab);

    lab.spans.scope("probe.optimizer", |_| {
        let (speed, ops) = (&mut *lab.speed, &mut *lab.ops);
        let mut forest = None;
        let forest_secs = repeat(2, || {
            let pipes = (bench.build)();
            let (sample, fitted) = ops.guard(1, "fit_forest", || {
                fit_once(&pipes, &bench_ctx(), pc.opts, speed)
            })?;
            forest = fitted.forest;
            Some(sample)
        });
        let solo_secs = repeat(2, || {
            let pipes = (bench.build)();
            ops.guard(pipes.len() as u64, "solo fits", || {
                let solo = speed.measure(Cores::All, || {
                    for pipe in &pipes {
                        std::hint::black_box(pipe.fit(&bench_ctx(), pc.opts));
                    }
                });
                solo.1
            })
        });
        lab.m
            .put_samples("optimizer.forest_solo_sum_s", &solo_secs, |s| s);
        lab.m.put_value(
            "optimizer.forest_vs_solo_wall",
            median(&norm(&forest_secs)) / median(&norm(&solo_secs)),
        );
        if let Some(report) = forest {
            lab.m
                .put_value("optimizer.forest_sim_speedup", report.speedup());
            lab.m.put_value(
                "optimizer.forest_cross_merges",
                report.cross_merges.len() as f64,
            );
        }
    });
}
