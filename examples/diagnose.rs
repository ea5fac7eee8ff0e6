//! Flight-recorder + diagnosis walkthrough: fit a deliberately unhealthy
//! pipeline — skewed partitions, a cache budget below the working set,
//! seeded cache-entry loss — capture the run as a versioned
//! [`RunArtifact`], and let the diagnosis engine name what went wrong,
//! with evidence.
//!
//! ```sh
//! cargo run --release --example diagnose
//! # target/run_artifact.json   — the full flight-recorder bundle
//! # target/diagnosis.json      — structured findings
//! # re-running produces byte-identical files (CI compares with `cmp`)
//! # target/trace_skew.json     — Chrome trace of the worker lanes; load it
//! #                              in chrome://tracing or Perfetto
//! ```
//!
//! The cost model (§4.1) prices a node as "slowest worker + coordination",
//! which assumes uniform partitions. One partition here holds most of the
//! data, so the per-stage skew table flags the straggler and
//! `miss_diagnosis` attributes a runtime prediction miss to skew rather
//! than a uniform mis-estimate.
//!
//! The capture is deterministic: wall-clock fields are nulled, spans are
//! sorted by identity, skew is measured in *records* (seed-pure), and the
//! fault plan's cache losses are a pure function of its seed.
//!
//! Exit status: nonzero when any finding reaches the threshold in
//! `KEYSTONE_DIAGNOSE_FAIL_ON` (`info`|`warning`|`critical`; default
//! `critical`) — which is how CI uses this example as a health gate.

use keystoneml::prelude::*;

/// Busy-waits per record so partition runtime tracks partition size.
struct BusyWork(u64);
impl Transformer<Vec<f64>, Vec<f64>> for BusyWork {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        let mut acc = 0.0f64;
        for i in 0..self.0 * 50 {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
        x.clone()
    }
}

/// An iterative estimator that re-reads its input once per pass, so the
/// cache sees repeated lookups — and, with a starved budget, thrashes.
struct MultiPassMean {
    passes: u32,
}
impl Estimator<Vec<f64>, Vec<f64>> for MultiPassMean {
    fn fit(
        &self,
        _data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        unreachable!("fit_lazy overridden")
    }
    fn fit_lazy(
        &self,
        data: &dyn Fn() -> DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        let mut mu = 0.0;
        for _ in 0..self.passes {
            let d = data();
            let n = d.count().max(1) as f64;
            mu = d.aggregate(0.0, |a, x| a + x[0], |a, b| a + b) / n;
        }
        struct Shift(f64);
        impl Transformer<Vec<f64>, Vec<f64>> for Shift {
            fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
                x.iter().map(|v| v - self.0).collect()
            }
        }
        Box::new(Shift(mu))
    }
    fn weight(&self) -> u32 {
        self.passes
    }
}

fn main() {
    // Four partitions, one carrying 8x the records: the straggler detector
    // must attribute the skew to the fat partition from record counts alone.
    let skewed: Vec<Vec<Vec<f64>>> = vec![
        (0..100).map(|i| vec![i as f64, 1.0]).collect(),
        (0..100).map(|i| vec![i as f64, 1.0]).collect(),
        (0..100).map(|i| vec![i as f64, 1.0]).collect(),
        (0..800).map(|i| vec![i as f64, 1.0]).collect(),
    ];
    let train = DistCollection::from_partitions(skewed);

    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(BusyWork(10))
        .and_then(BusyWork(12))
        .and_then_est(MultiPassMean { passes: 6 }, &train);

    // Faults: seeded cache-entry loss only.
    let faults = FaultSpec::new(0xD1A6).with_cache_loss(0.35).into_plan();
    let ctx = ExecContext::default_cluster().with_faults(faults);
    // Fusion off keeps the two BusyWork stages separate cache entries; the
    // LRU budget fits one of them but not both, so admitting the second
    // evicts the first — and every lost downstream entry forces a
    // recompute that misses the evicted upstream again (cache thrash).
    let opts = PipelineOptions {
        caching: CachingStrategy::Lru {
            admission_fraction: 1.0,
        },
        mem_budget: Some(64 * 1024),
        profile: ProfileOptions {
            sizes: vec![64, 128],
            seed: 11,
            select_operators: false,
            deterministic_timing: true,
        },
        ..Default::default()
    }
    .with_fusion(false);
    let (fitted, report) = pipe.fit(&ctx, &opts);

    // Flight-record the run and diagnose it.
    let capture = CaptureOptions {
        deterministic: true,
        label: "diagnose-example".to_string(),
    };
    let artifact = RunArtifact::capture_fit(&report, &fitted.plan(), &ctx, &capture);
    let diagnosis = diagnose(&artifact);

    // Per-stage skew analysis straight from the metrics registry (wall
    // time, so it varies run to run; the artifact's skew is in records).
    println!("== per-stage partition skew ==");
    for sk in ctx.metrics.stage_skew() {
        println!(
            "{:<28} tasks {:>3}  max {:>8.5}s  median {:>8.5}s  skew {:>5.2}{}  util {:>3.0}%",
            sk.stage,
            sk.tasks,
            sk.max_secs,
            sk.median_secs,
            sk.skew_ratio,
            if sk.straggler { "  STRAGGLER" } else { "" },
            sk.utilization * 100.0
        );
    }

    println!("\n== predicted vs actual (faulted, skewed fit) ==");
    print!("{}", report.observability.render_table());
    for n in &report.observability.nodes {
        if let Some(cause) = n.miss_diagnosis(0.15) {
            println!(
                "prediction miss on {}: {:.0}% off, attributed to {cause}",
                n.label,
                n.time_rel_error.unwrap_or(0.0) * 100.0
            );
        }
    }
    println!();
    print!("{}", diagnosis.render_text());

    // Chrome trace: worker lanes (pid 1) next to the simulated-cluster
    // stage timeline (pid 2), with the recovery stages of the seeded cache
    // loss on their own lanes.
    let trace = chrome_trace_json(&ctx);
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/run_artifact.json", artifact.to_json()).expect("write artifact");
    std::fs::write("target/diagnosis.json", diagnosis.to_json()).expect("write diagnosis");
    std::fs::write("target/trace_skew.json", &trace).expect("write trace");
    println!(
        "\nwrote target/run_artifact.json, target/diagnosis.json and target/trace_skew.json ({} spans)",
        ctx.metrics.span_count()
    );

    // The run is engineered to be unhealthy: the gate below only means
    // anything if the detectors actually fired.
    assert!(
        !diagnosis.rule("straggler").is_empty(),
        "expected a straggler finding on the 8x-skewed stage:\n{}",
        diagnosis.render_text()
    );
    assert!(
        !diagnosis.rule("cache-thrash").is_empty(),
        "expected cache thrash under a starved budget:\n{}",
        diagnosis.render_text()
    );

    // CI health gate: fail when any finding reaches the threshold.
    let threshold = match std::env::var("KEYSTONE_DIAGNOSE_FAIL_ON").as_deref() {
        Ok("info") => Severity::Info,
        Ok("warning") => Severity::Warning,
        Ok(other) if !other.is_empty() && other != "critical" => {
            eprintln!("unknown KEYSTONE_DIAGNOSE_FAIL_ON={other:?}; using critical");
            Severity::Critical
        }
        _ => Severity::Critical,
    };
    if diagnosis.findings.iter().any(|f| f.severity >= threshold) {
        eprintln!(
            "diagnosis gate: findings at or above {} — failing",
            threshold.as_str()
        );
        std::process::exit(2);
    }
    println!(
        "diagnosis gate: no findings at or above {}",
        threshold.as_str()
    );
}
