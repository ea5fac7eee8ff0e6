//! Metamorphic oracles over *generated* pipelines: laws the optimizer must
//! satisfy on every DAG the fuzzer can produce, checked against the real
//! `fit` machinery rather than hand-built synthetic instances.

use std::collections::BTreeSet;

use keystone_core::optimizer::{eliminate_common_subexpressions, fit_roots};
use keystone_testkit::oracle::{BUDGET_TIGHT, BUDGET_UNBOUNDED, BUDGET_ZERO};
use keystone_testkit::{check_cache_plan, check_seed, generate, DataSpec};

/// Caching can only help: `est_runtime` is monotone non-increasing as the
/// cache set grows, the plan `fit` chooses never exceeds its budget, and a
/// fresh greedy solve of the rebuilt problem reproduces the plan exactly.
#[test]
fn cache_plans_are_feasible_and_never_hurt() {
    let mut exact_instances = 0;
    for seed in 0..12u64 {
        for budget in [BUDGET_ZERO, BUDGET_TIGHT, BUDGET_UNBOUNDED] {
            let c = check_cache_plan(seed, budget);
            assert!(
                c.planned_runtime <= c.empty_runtime + 1e-9,
                "seed {seed} budget {budget}: plan slower than no caching \
                 ({} > {})",
                c.planned_runtime,
                c.empty_runtime
            );
            assert!(
                c.planned_bytes <= c.budget,
                "seed {seed}: plan uses {} bytes over budget {}",
                c.planned_bytes,
                c.budget
            );
            assert!(
                (c.planned_runtime - c.greedy_runtime).abs() <= 1e-9,
                "seed {seed} budget {budget}: re-solving greedy diverged from \
                 the plan fit chose"
            );
            // On instances small enough to enumerate, greedy must be within
            // a constant factor of the exact optimum (and never beat it).
            if let Some(opt) = c.optimal_runtime {
                exact_instances += 1;
                assert!(
                    opt <= c.greedy_runtime + 1e-9,
                    "seed {seed} budget {budget}: 'optimal' {opt} worse than \
                     greedy {}",
                    c.greedy_runtime
                );
                assert!(
                    c.greedy_runtime <= 2.0 * opt + 1e-9,
                    "seed {seed} budget {budget}: greedy {} more than 2x \
                     optimal {opt}",
                    c.greedy_runtime
                );
            }
        }
    }
    assert!(
        exact_instances > 0,
        "no generated instance was small enough for the exact solver — \
         the greedy-vs-optimal oracle never ran"
    );
}

/// The paper's motivation for materialization (§4.3): on reuse-heavy DAGs
/// (multi-pass estimators over shared prefixes), the optimized configuration
/// strictly beats no caching in estimated simulated runtime.
#[test]
fn reuse_heavy_dags_strictly_benefit_from_caching() {
    let mut strict_wins = 0;
    let mut reuse_heavy = 0;
    for seed in 0..16u64 {
        let spec = DataSpec::from_seed(seed);
        let generated = generate(seed, &spec.train(4));
        if generated.estimators < 2 {
            continue;
        }
        reuse_heavy += 1;
        let c = check_cache_plan(seed, BUDGET_UNBOUNDED);
        assert!(c.planned_runtime <= c.empty_runtime + 1e-9);
        if c.planned_runtime < c.empty_runtime - 1e-12 {
            strict_wins += 1;
        }
    }
    assert!(reuse_heavy >= 3, "fuzzer produced too few reuse-heavy DAGs");
    assert!(
        strict_wins > 0,
        "caching never strictly improved any reuse-heavy DAG"
    );
}

/// CSE is a projection: running it twice eliminates nothing further, and it
/// preserves the fit roots (estimators feeding the output) and their
/// reachability, on every generated DAG.
#[test]
fn cse_is_idempotent_and_preserves_fit_roots() {
    for seed in 0..16u64 {
        let spec = DataSpec::from_seed(seed);
        let generated = generate(seed, &spec.train(2));
        let graph = generated.pipeline.graph_snapshot();
        let output = generated.pipeline.output_node();
        let roots_before = fit_roots(&graph, output);

        let first = eliminate_common_subexpressions(&graph);
        assert!(
            first.graph.len() <= graph.len(),
            "seed {seed}: CSE grew the graph"
        );
        let output1 = first.remap[&output];
        let mapped: BTreeSet<_> = roots_before.iter().map(|r| first.remap[r]).collect();
        let after: BTreeSet<_> = fit_roots(&first.graph, output1).into_iter().collect();
        assert_eq!(
            mapped, after,
            "seed {seed}: fit roots changed under CSE\n{}",
            generated.description
        );
        let ancestors = first.graph.ancestors(&[output1]);
        for root in &after {
            assert!(
                ancestors.contains(root),
                "seed {seed}: root {root} unreachable from output after CSE"
            );
        }

        let second = eliminate_common_subexpressions(&first.graph);
        assert_eq!(
            second.eliminated, 0,
            "seed {seed}: second CSE pass still found merges\n{}",
            generated.description
        );
        assert_eq!(second.graph.len(), first.graph.len());
    }
}

/// Whole-stage fusion laws on every generated DAG, checked against the same
/// pass `fit` runs: the pass is idempotent, every absorbed (non-tail) member
/// was a single-consumer node outside the materialization picks, the cost
/// model's `est_runtime` never increases, and the rewrite touches only chain
/// tails — every other node keeps its label and inputs byte-for-byte.
#[test]
fn fusion_respects_barriers_and_cost_model() {
    use keystone_core::context::ExecContext;
    use keystone_core::optimizer::{build_mat_problem, fuse_chains, merge_profiles};
    use keystone_core::profiler::{profile_and_select, ProfileOptions};

    let mut chains_seen = 0usize;
    for seed in 0..16u64 {
        let spec = DataSpec::from_seed(seed);
        let generated = generate(seed, &spec.train(2));
        let cse = eliminate_common_subexpressions(&generated.pipeline.graph_snapshot());
        let mut graph = cse.graph;
        let output = cse.remap[&generated.pipeline.output_node()];
        let roots = fit_roots(&graph, output);
        let ctx = ExecContext::default_cluster();
        let mut profile = profile_and_select(
            &mut graph,
            &roots,
            &ctx,
            &ProfileOptions {
                sizes: vec![8, 16],
                seed: 5,
                select_operators: false,
                deterministic_timing: true,
            },
        );
        let problem = build_mat_problem(&graph, &profile, &roots);
        let picks = problem.greedy_cache_set(BUDGET_TIGHT);
        let rt_before = problem.est_runtime(&picks);

        let relevant = graph.ancestors(&[output]);
        let successors = graph.successors();
        let result = fuse_chains(&graph, output, &picks);
        chains_seen += result.chains.len();

        // Barriers: absorbed members were single-consumer, un-picked nodes.
        let mut tails = std::collections::HashSet::new();
        for chain in &result.chains {
            assert!(chain.members.len() >= 2, "seed {seed}: degenerate chain");
            assert_eq!(*chain.members.last().unwrap(), chain.tail);
            tails.insert(chain.tail);
            for &m in &chain.members[..chain.members.len() - 1] {
                assert!(
                    !picks.contains(&m),
                    "seed {seed}: fused across materialization pick {m}\n{}",
                    generated.description
                );
                let live: Vec<_> = successors[m]
                    .iter()
                    .filter(|c| relevant.contains(*c))
                    .collect();
                assert_eq!(
                    live.len(),
                    1,
                    "seed {seed}: fused across multi-consumer node {m}\n{}",
                    generated.description
                );
            }
        }

        // The rewrite is tail-only: every non-tail node keeps its label and
        // inputs; every tail keeps its consumers and takes the head's input.
        assert_eq!(
            result.graph.len(),
            graph.len(),
            "seed {seed}: fusion resized graph"
        );
        for id in 0..graph.len() {
            if tails.contains(&id) {
                let chain = result.chains.iter().find(|c| c.tail == id).unwrap();
                let head = chain.members[0];
                assert!(
                    result.graph.nodes[id].label.starts_with("Fused["),
                    "seed {seed}: tail {id} not relabeled"
                );
                assert_eq!(
                    result.graph.nodes[id].inputs, graph.nodes[head].inputs,
                    "seed {seed}: tail {id} must take the chain head's input"
                );
            } else {
                assert_eq!(result.graph.nodes[id].label, graph.nodes[id].label);
                assert_eq!(result.graph.nodes[id].inputs, graph.nodes[id].inputs);
            }
        }

        // Cost model: fusing never makes the planned runtime worse.
        merge_profiles(&mut profile, &result.chains);
        let fused_problem = build_mat_problem(&result.graph, &profile, &roots);
        let rt_after = fused_problem.est_runtime(&picks);
        assert!(
            rt_after <= rt_before * (1.0 + 1e-9) + 1e-9,
            "seed {seed}: fusion increased est_runtime ({rt_after} > {rt_before})\n{}",
            generated.description
        );

        // Idempotence: a second pass finds nothing and changes nothing.
        let second = fuse_chains(&result.graph, output, &picks);
        assert_eq!(
            second.chains.len(),
            0,
            "seed {seed}: second fusion pass still found chains\n{}",
            generated.description
        );
        assert_eq!(second.absorbed, 0);
        assert_eq!(second.graph.summary(), result.graph.summary());
    }
    assert!(
        chains_seen > 0,
        "fuzzer produced no fusable chain in 16 seeds — the fusion laws never ran"
    );
}

/// A handful of full differential sweeps from a disjoint seed range (the
/// tier-1 `tests/differential.rs` covers the pinned 0..25 range).
#[test]
fn differential_smoke() {
    for seed in 100..106u64 {
        let report = check_seed(seed).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.cells, 114);
    }
}
