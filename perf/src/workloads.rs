//! The four workloads: what each generates from the seed and which pipeline
//! it builds. Why each exists is recorded in `BENCHMARK.json` and, at length,
//! in `perf/README.md`.
//!
//! Record counts are the issue's shapes scaled so that one run, set-up and
//! checks included, ends inside the builder's per-run time cap; the phase
//! structure and every pipeline parameter other than the counts are kept.

use std::sync::Arc;

use keystoneml::linalg::rng::XorShiftRng;
use keystoneml::prelude::*;
use keystoneml::workloads::dense_gen::TimitLike;
use keystoneml::workloads::pipelines::{
    labels_one_hot, speech_pipeline, text_classification_pipeline, SpeechPipelineConfig,
    TextPipelineConfig,
};
use keystoneml::workloads::sweep::{sweep_pipelines, SweepConfig};
use keystoneml::workloads::text_gen::AmazonLike;

/// Every workload's pipeline ends in class scores (or, on `chain_serve`,
/// the transformed record).
pub type Scores = Vec<f64>;

/// The descriptor every context is built over. Pinned, not calibrated per
/// run: the descriptor alone flips the speech solver between `dist-qr` and
/// `lbfgs`, so a calibrated one would make `fit_wall_s` bimodal. The values
/// are where `calibrate_local(2)` lands on the reference 2-core box.
pub const BENCH_RESOURCES: ResourceDesc = ResourceDesc {
    workers: 2,
    cores_per_worker: 1,
    gflops_per_worker: 2.0e9,
    mem_bandwidth: 1.0e10,
    disk_bandwidth: 5.0e8,
    net_bandwidth: 1.0e9,
    mem_per_worker: 1 << 30,
    barrier_latency_secs: 0.001,
    exec_weight: 1.0,
    coord_weight: 1.0,
};

pub const PARTITIONS: usize = 4;
pub const MAX_FEATURES: usize = 20_000;
pub const SPEECH_CLASSES: usize = 12;
pub const SPEECH_BLOCK_DIM: usize = 128;
pub const CHAIN_DEPTH: usize = 16;
pub const CHAIN_DIM: usize = 16;

pub fn bench_ctx() -> ExecContext {
    ExecContext::new(BENCH_RESOURCES)
}

/// How often a phase repeats: `at20` times in a 20-second run (scaled with
/// `--seconds`), never fewer than `floor`. The counts are fixed, not
/// whatever fits in the time: a context's ledgers grow with every call, so
/// both the later samples and `peak_rss_mb` depend on how many calls came
/// before, and a faster program must not be handed more work.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub floor: usize,
    pub at20: usize,
}

impl Reps {
    pub fn count(&self, seconds: f64) -> usize {
        ((self.at20 as f64 * seconds / 20.0).round() as usize).max(self.floor)
    }
}

/// Per-workload repetition counts and stream sizes, sized so that a whole
/// run at `--seconds 20` takes 20 to 25 seconds on the reference 2-core box.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub fit: Reps,
    pub apply: Reps,
    pub apply_one_blocks: Reps,
    pub serve: Reps,
    /// `apply_one` calls per block; at least 1000 so that ten samples lie
    /// beyond each block's p99.
    pub apply_one_block: usize,
    pub serve_requests: usize,
}

const fn reps(floor: usize, at20: usize) -> Reps {
    Reps { floor, at20 }
}

/// One workload, generated: the training data is bound inside the pipeline
/// graphs `build` returns.
pub struct Bench<A: Record> {
    /// Builds fresh pipeline graphs over the generated training data: one
    /// tenant, or on `sweep_forest` one per lambda.
    pub build: Box<dyn Fn() -> Vec<Pipeline<A, Scores>>>,
    pub train: DistCollection<A>,
    pub train_labels: Option<DistCollection<Vec<f64>>>,
    pub heldout: DistCollection<A>,
    pub heldout_labels: Option<Vec<usize>>,
    /// Floor for the held-out accuracy check (unused without labels).
    pub min_accuracy: f64,
    pub shape: Shape,
}

pub const WORKLOADS: [&str; 4] = ["text_sparse", "speech_dense", "chain_serve", "sweep_forest"];

pub fn text_sparse(seed: u64) -> Bench<String> {
    let (train, test) = AmazonLike {
        docs: 10_000,
        seed,
        partitions: PARTITIONS,
        ..Default::default()
    }
    .generate_split(0.2);
    let labels = labels_one_hot(&train.labels, 2);
    let cfg = TextPipelineConfig {
        max_features: MAX_FEATURES,
        max_ngram: 2,
        solver: LinearSolverOp::new(),
    };
    let (docs, y) = (train.docs.clone(), labels.clone());
    let build = Box::new(move || vec![text_classification_pipeline(&cfg, &docs, &y)]);
    build();
    Bench {
        build,
        train: train.docs,
        train_labels: Some(labels),
        heldout: test.docs,
        heldout_labels: Some(test.labels.collect()),
        // 0.93 in the issue, at 64k training documents; at 8k the accuracy
        // sits near 0.95 with a held-out standard error of 0.005.
        min_accuracy: 0.90,
        shape: Shape {
            fit: reps(5, 16),
            apply: reps(10, 120),
            apply_one_blocks: reps(5, 20),
            serve: reps(5, 12),
            apply_one_block: 2000,
            serve_requests: 10_000,
        },
    }
}

fn timit(n: usize, seed: u64) -> TimitLike {
    TimitLike {
        n,
        dim: 40,
        classes: SPEECH_CLASSES,
        separation: 4.0,
        seed,
        stream: 0,
        partitions: PARTITIONS,
        quantize: None,
    }
}

pub fn speech_dense(seed: u64) -> Bench<Vec<f64>> {
    let (train, test) = timit(4000, seed).generate_split(0.2);
    let labels = labels_one_hot(&train.labels, SPEECH_CLASSES);
    let cfg = SpeechPipelineConfig {
        blocks: 4,
        block_dim: SPEECH_BLOCK_DIM,
        gamma: 0.07,
        ..Default::default()
    };
    let (x, y) = (train.data.clone(), labels.clone());
    let build = Box::new(move || vec![speech_pipeline(&cfg, &x, &y)]);
    build();
    Bench {
        build,
        train: train.data,
        train_labels: Some(labels),
        heldout: test.data,
        heldout_labels: Some(test.labels.collect()),
        min_accuracy: 0.95,
        shape: Shape {
            fit: reps(5, 5),
            apply: reps(10, 10),
            apply_one_blocks: reps(5, 5),
            serve: reps(5, 5),
            apply_one_block: 1000,
            serve_requests: 2000,
        },
    }
}

/// One stage of the `chain_serve` pipeline: `y[i] = a * x[i] + b`, with a
/// columnar kernel computing the same expression over a batch slice (as in
/// `examples/columnar_ablation.rs`).
pub struct AxPlusB {
    pub a: f64,
    pub b: f64,
}

impl Transformer<Vec<f64>, Vec<f64>> for AxPlusB {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        x.iter().map(|v| self.a * v + self.b).collect()
    }

    fn columnar_kernel(&self) -> Option<ColumnarFn> {
        let (a, b) = (self.a, self.b);
        Some(Arc::new(move |x, out| {
            out.extend(x.iter().map(|v| a * v + b))
        }))
    }
}

pub fn chain_pipeline() -> Pipeline<Vec<f64>, Scores> {
    let mut pipe = Pipeline::<Vec<f64>, Vec<f64>>::input();
    for i in 0..CHAIN_DEPTH {
        pipe = pipe.and_then(AxPlusB {
            a: 1.0 + i as f64 * 1e-3,
            b: 0.5,
        });
    }
    pipe
}

pub fn chain_records(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = XorShiftRng::new(seed);
    (0..n)
        .map(|_| (0..CHAIN_DIM).map(|_| rng.next_f64()).collect())
        .collect()
}

pub fn chain_serve(seed: u64) -> Bench<Vec<f64>> {
    let heldout = DistCollection::from_vec(chain_records(50_000, seed), PARTITIONS);
    let build = Box::new(|| vec![chain_pipeline()]);
    build();
    Bench {
        build,
        // No estimator: nothing is trained, the records are the held-out set.
        train: heldout.clone(),
        train_labels: None,
        heldout,
        heldout_labels: None,
        min_accuracy: 0.0,
        shape: Shape {
            // One fit is the optimizer's fixed cost on a data-free plan,
            // tens of microseconds; a median needs hundreds of them.
            fit: reps(300, 50_000),
            apply: reps(200, 400),
            apply_one_blocks: reps(5, 12),
            serve: reps(5, 20),
            apply_one_block: 20_000,
            serve_requests: 50_000,
        },
    }
}

pub fn sweep_forest(seed: u64) -> Bench<Vec<f64>> {
    let (train, test) = timit(2000, seed).generate_split(0.2);
    let labels = labels_one_hot(&train.labels, SPEECH_CLASSES);
    let cfg = SweepConfig {
        blocks: 3,
        block_dim: 64,
        gamma: 0.07,
        ..Default::default()
    };
    let (x, y) = (train.data.clone(), labels.clone());
    let build = Box::new(move || sweep_pipelines(&cfg, &x, &y));
    build();
    Bench {
        build,
        train: train.data,
        train_labels: Some(labels),
        heldout: test.data,
        heldout_labels: Some(test.labels.collect()),
        min_accuracy: 0.95,
        shape: Shape {
            fit: reps(5, 5),
            apply: reps(10, 10),
            apply_one_blocks: reps(5, 6),
            serve: reps(5, 10),
            apply_one_block: 1000,
            serve_requests: 2000,
        },
    }
}

/// Records that can be folded into the input hash.
pub trait HashInput {
    fn feed(&self, h: &mut u64);
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

impl HashInput for String {
    fn feed(&self, h: &mut u64) {
        fnv(h, self.as_bytes());
        fnv(h, &[0xff]);
    }
}

impl HashInput for Vec<f64> {
    fn feed(&self, h: &mut u64) {
        for v in self {
            fnv(h, &v.to_bits().to_le_bytes());
        }
        fnv(h, &[0xff]);
    }
}

/// FNV-1a over everything the seed generated: training records and labels,
/// held-out records and labels. Same seed, same hash.
pub fn input_hash<A: Record + HashInput>(bench: &Bench<A>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for r in bench.train.iter().chain(bench.heldout.iter()) {
        r.feed(&mut h);
    }
    if let Some(labels) = &bench.train_labels {
        for y in labels.iter() {
            y.feed(&mut h);
        }
    }
    for c in bench.heldout_labels.iter().flatten() {
        fnv(&mut h, &(*c as u64).to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes<A: Record + HashInput>(setup: fn(u64) -> Bench<A>) -> (u64, u64, u64) {
        (
            input_hash(&setup(11)),
            input_hash(&setup(11)),
            input_hash(&setup(12)),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for (a, b, c) in [
            hashes(text_sparse),
            hashes(speech_dense),
            hashes(chain_serve),
            hashes(sweep_forest),
        ] {
            assert_eq!(a, b, "same seed must regenerate the same inputs");
            assert_ne!(a, c, "a different seed must change the inputs");
        }
    }

    #[test]
    fn request_streams_follow_the_seed() {
        use keystoneml::serve::LoadGen;
        let stamps = |seed| LoadGen::new(seed).arrival_stamps(64, 1e-5);
        assert_eq!(stamps(3), stamps(3));
        assert_ne!(stamps(3), stamps(4));
    }

    #[test]
    fn rep_counts_scale_with_seconds_above_the_floor() {
        let r = reps(5, 12);
        assert_eq!(r.count(20.0), 12);
        assert_eq!(r.count(40.0), 24);
        assert_eq!(r.count(10.0), 6);
        assert_eq!(r.count(1.0), 5);
    }

    #[test]
    fn blocks_are_large_enough_for_p99() {
        for shape in [
            text_sparse(1).shape,
            speech_dense(1).shape,
            chain_serve(1).shape,
            sweep_forest(1).shape,
        ] {
            assert_eq!(
                crate::stats::highest_percentile(shape.apply_one_block).map(|p| p >= 99.0),
                Some(true)
            );
        }
    }
}
