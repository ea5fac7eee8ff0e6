//! Fault injection and lineage-based recovery: fit the same pipeline twice —
//! once clean, once under a seeded [`FaultPlan`] that injects task failures,
//! straggler delays, and cache-entry loss — and show that the results are
//! identical while the report accounts for every retry (a failed partition
//! attempt really re-runs) and every lineage recompute.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! # target/fault_report.json holds the seeded-deterministic summary;
//! # running the example twice produces byte-identical files.
//! ```
//!
//! KeystoneML (§3) assumes a fault-tolerant dataflow substrate: lineage
//! makes lost state recomputable, so failures cost time but never
//! correctness. This example exercises that contract end to end — the
//! faulted fit takes recovery charges on the simulated clock, yet its
//! output checksum matches the clean run bit for bit.

use keystoneml::prelude::*;

/// Busy-waits per record so every partition does measurable work.
struct BusyWork(u64);
impl Transformer<Vec<f64>, Vec<f64>> for BusyWork {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        let mut acc = 0.0f64;
        for i in 0..self.0 * 100 {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
        x.clone()
    }
}

/// An iterative estimator that re-reads its input once per pass through the
/// lazy handle, so fit-time cache hits (and injected cache losses) happen.
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

/// Splitmix64-style fold over the output values: a stable checksum that two
/// runs (clean vs. faulted, or run vs. re-run) must agree on exactly.
fn checksum(rows: &[Vec<f64>]) -> u64 {
    let mut h = 0x517C_C1B7_2722_0A95_u64;
    for row in rows {
        for v in row {
            let mut z = h
                .wrapping_add(v.to_bits().wrapping_mul(0x9E3779B97F4A7C15))
                .wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            h = z ^ (z >> 31);
        }
    }
    h
}

fn fit_and_apply(ctx: &ExecContext) -> (Vec<Vec<f64>>, FitReport) {
    let train = DistCollection::from_vec((0..768).map(|i| vec![i as f64, 1.0]).collect(), 4);
    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(BusyWork(20))
        .and_then_est(MultiPassMean { passes: 6 }, &train);
    // LRU caching with a fixed budget keeps cache traffic (and therefore the
    // deterministic cache-loss probe sequence) independent of measured wall
    // times; operator selection is off for the same reason.
    let opts = PipelineOptions {
        caching: CachingStrategy::Lru {
            admission_fraction: 1.0,
        },
        mem_budget: Some(1 << 30),
        profile: ProfileOptions {
            sizes: vec![64, 128],
            seed: 7,
            select_operators: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let (fitted, report) = pipe.fit(ctx, &opts);
    let test = DistCollection::from_vec((0..32).map(|i| vec![i as f64, 2.0]).collect(), 4);
    (fitted.apply(&test, ctx).collect(), report)
}

fn main() {
    const SEED: u64 = 0xDECAF;

    // Fault-free baseline.
    let clean_ctx = ExecContext::default_cluster();
    let (clean_out, _) = fit_and_apply(&clean_ctx);

    // Same pipeline under an aggressive seeded fault plan.
    let plan = FaultSpec::new(SEED)
        .with_task_failures(0.5)
        .with_stragglers(0.5)
        .with_cache_loss(0.6)
        .into_plan();
    let ctx = ExecContext::default_cluster().with_faults(plan);
    let (faulted_out, report) = fit_and_apply(&ctx);

    assert_eq!(clean_out, faulted_out, "faults must never change results");

    let obs = &report.observability;
    println!("== faulted fit: predicted vs actual, with recovery columns ==");
    print!("{}", obs.render_table());

    // Recovery time is the retries' backoff, a pure function of the seeded
    // retry schedule, so two runs agree on it exactly.
    let backoff_secs = obs.recovery.recovery_secs;

    println!("\n== recovery summary (seed {SEED:#x}) ==");
    println!("retries:         {}", obs.recovery.retries);
    println!("cache losses:    {}", obs.recovery.cache_losses);
    println!("backoff charged: {backoff_secs:.3}s (simulated)");
    println!(
        "output checksum: {:#018x} (clean run: {:#018x})",
        checksum(&faulted_out),
        checksum(&clean_out)
    );

    // Persist only seeded-deterministic fields: re-running the example must
    // reproduce this file byte for byte (the CI determinism job checks).
    let json = format!(
        "{{\n  \"seed\": {SEED},\n  \"retries\": {},\n  \"cache_losses\": {},\n  \
         \"backoff_secs\": {:.6},\n  \"output_checksum\": \"{:#018x}\"\n}}\n",
        obs.recovery.retries,
        obs.recovery.cache_losses,
        backoff_secs,
        checksum(&faulted_out)
    );
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/fault_report.json", &json).expect("write fault report");
    println!("\nwrote target/fault_report.json");
}
