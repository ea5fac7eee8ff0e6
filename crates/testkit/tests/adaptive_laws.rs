//! Property tests for the adaptive re-planner's laws.
//!
//! 1. **Revision soundness** — across all revisions of one fit, an evicted
//!    pick is never evicted twice, never promoted back, and a promoted pick
//!    is never evicted later. Checked end-to-end on fuzzer-generated
//!    pipelines, not just synthetic problems.
//! 2. **Determinism** — fitting the same generated pipeline twice gives the
//!    same [`AdaptationReport`] and a bit-equal simulated clock.
//! 3. **The trigger fires** — an estimator that under-declares its passes
//!    is observed as a recalibration even when no revision can follow.
//!
//! All three run the real `fit` machinery over the generated-pipeline
//! corpus with adaptation forced on.

use std::collections::HashSet;

use keystone_core::context::ExecContext;
use keystone_core::optimizer::{AdaptationReport, PipelineOptions};
use keystone_core::pipeline::Pipeline;
use keystone_core::profiler::ProfileOptions;
use keystone_dataflow::collection::DistCollection;
use keystone_testkit::ops::{Affine, UnderdeclaredMeanCenter};
use keystone_testkit::oracle::{BUDGET_TIGHT, BUDGET_ZERO};
use keystone_testkit::{generate, DataSpec};

/// Revision-soundness invariants over one fit's revision sequence.
fn assert_sound(adaptation: &AdaptationReport, ctx: &str) {
    let mut evicted_ever: HashSet<usize> = HashSet::new();
    let mut promoted_ever: HashSet<usize> = HashSet::new();
    for rev in &adaptation.revisions {
        for e in &rev.evicted {
            assert!(
                evicted_ever.insert(*e),
                "{ctx}: pick {e} evicted twice in one fit"
            );
            assert!(
                !promoted_ever.contains(e),
                "{ctx}: pick {e} promoted then evicted in one fit"
            );
        }
        for p in &rev.promoted {
            assert!(
                !evicted_ever.contains(p),
                "{ctx}: pick {p} evicted then promoted back in one fit"
            );
            promoted_ever.insert(*p);
        }
        assert!(
            rev.predicted_saving_secs > 0.0,
            "{ctx}: revision applied without predicted savings"
        );
    }
}

fn adaptive_opts(budget: u64) -> PipelineOptions {
    PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![8, 16],
            seed: 5,
            select_operators: false,
            deterministic_timing: true,
        },
        ..PipelineOptions::full()
    }
    .with_budget(budget)
    .with_adaptive(true)
}

#[test]
fn generated_pipelines_adapt_soundly_and_deterministically() {
    for seed in 0..12u64 {
        let spec = DataSpec::from_seed(seed);
        let train = spec.train(4);
        for budget in [BUDGET_ZERO, BUDGET_TIGHT] {
            let run = |train: &DistCollection<Vec<f64>>| {
                let ctx = ExecContext::default_cluster();
                let (_fitted, report) = generate(seed, train)
                    .pipeline
                    .fit(&ctx, &adaptive_opts(budget));
                (report.adaptation, ctx.sim.total_seconds())
            };
            let (adaptation, sim) = run(&train);
            assert_sound(&adaptation, &format!("seed {seed} budget {budget}"));
            let (again, sim_again) = run(&train);
            assert_eq!(
                adaptation, again,
                "seed {seed} budget {budget}: adaptation not deterministic"
            );
            assert_eq!(
                sim.to_bits(),
                sim_again.to_bits(),
                "seed {seed} budget {budget}: simulated clock not deterministic"
            );
        }
    }
}

/// The corpus must actually exercise the trigger path: an estimator that
/// declares one pass but iterates five re-requests its input beyond the
/// plan's prediction, which must be observed as a recalibration even when
/// a zero budget forecloses any revision.
#[test]
fn underdeclared_estimator_triggers_recalibration() {
    let train = DistCollection::from_vec(
        (0..48)
            .map(|r| (0..6).map(|c| ((r * 7 + c) % 13) as f64).collect())
            .collect(),
        4,
    );
    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(Affine { a: 0.5, b: 1.0 })
        .and_then_est(UnderdeclaredMeanCenter { actual_passes: 5 }, &train);
    let ctx = ExecContext::default_cluster();
    let (_fitted, report) = pipe.fit(&ctx, &adaptive_opts(BUDGET_ZERO));
    assert!(
        report.adaptation.recalibrations >= 1,
        "excess demand went unobserved: {:?}",
        report.adaptation
    );
    // Nothing fits in a zero budget, so soundness is trivially preserved —
    // but the law still has to hold.
    assert_sound(&report.adaptation, "underdeclared/zero-budget");
    // Sanity: the honest estimator under the same options never triggers.
    let honest = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(Affine { a: 0.5, b: 1.0 })
        .and_then_est(keystone_testkit::ops::SeqMeanCenter { passes: 2 }, &train);
    let ctx2 = ExecContext::default_cluster();
    let (_f2, r2) = honest.fit(&ctx2, &adaptive_opts(BUDGET_ZERO));
    assert_eq!(r2.adaptation.recalibrations, 0, "{:?}", r2.adaptation);
}
