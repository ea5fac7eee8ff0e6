//! The staged fit: `Pipeline::fit` at `OptLevel::Full` with greedy caching,
//! replayed step by step through the same public passes in the same order,
//! with one span around each. It exists so the traced run can say where a
//! fit's wall time goes without any span inside the library. It must yield
//! the plan and the predictions `Pipeline::fit` yields; the traced run
//! checks both and reports the breakdown as unresolved otherwise.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use keystoneml::core::executor::Executor;
use keystoneml::core::graph::NodeId;
use keystoneml::core::optimizer::{
    build_mat_problem, eliminate_common_subexpressions, fit_roots, fuse_chains_with, labels_of,
    merge_profiles, AdaptiveController, OptLevel,
};
use keystoneml::core::pipeline::ExecutablePlan;
use keystoneml::core::profiler::profile_and_select;
use keystoneml::core::report::PipelineReport;
use keystoneml::core::trace::TraceCacheObserver;
use keystoneml::dataflow::cache::{CacheManager, CachePolicy};
use keystoneml::prelude::*;

use crate::protocol::Plan;
use crate::spans::SpanLog;

/// Replays `pipe.fit(ctx, opts)` under a `fit.staged` span with one child
/// span per stage: `cse`, `profile`, `materialize`, `fuse`, `execute`.
pub fn staged_fit<A: Record, B: Record>(
    pipe: &Pipeline<A, B>,
    ctx: &ExecContext,
    opts: &PipelineOptions,
    spans: &mut SpanLog,
) -> (FittedPipeline<A, B>, Plan) {
    assert!(
        opts.level == OptLevel::Full && opts.caching == CachingStrategy::Greedy,
        "the staged fit replays the Full/Greedy path only"
    );
    spans.scope("fit.staged", |spans| {
        let snapshot = pipe.graph_snapshot();
        let start = std::time::Instant::now();

        let (mut graph, output, eliminated) = spans.scope("cse", |_| {
            let r = eliminate_common_subexpressions(&snapshot);
            let out = r.remap[&pipe.output_node()];
            let mut group_sizes: HashMap<NodeId, usize> = HashMap::new();
            for &new in r.remap.values() {
                *group_sizes.entry(new).or_insert(0) += 1;
            }
            let mut merges: Vec<(NodeId, usize)> =
                group_sizes.into_iter().filter(|&(_, n)| n > 1).collect();
            merges.sort_unstable();
            for (kept, size) in merges {
                ctx.tracer.record(TraceEvent::CseMerge {
                    kept,
                    label: r.graph.nodes[kept].label.clone(),
                    duplicates: size - 1,
                });
            }
            (r.graph, out, r.eliminated)
        });

        let roots = fit_roots(&graph, output);
        let mut profile = spans.scope("profile", |_| {
            let popts = ProfileOptions {
                select_operators: true,
                ..opts.profile.clone()
            };
            profile_and_select(&mut graph, &roots, ctx, &popts)
        });

        let budget = opts
            .mem_budget
            .unwrap_or_else(|| ctx.resources.total_cache_bytes());
        let (cache, cache_set, adaptive) = spans.scope("materialize", |_| {
            let observer = Arc::new(TraceCacheObserver(ctx.tracer.clone()));
            let problem = build_mat_problem(&graph, &profile, &roots);
            let (set, picks) = problem.greedy_cache_set_traced(budget);
            for pick in picks {
                ctx.tracer.record(TraceEvent::MaterializePick {
                    node: pick.node,
                    label: pick.label,
                    est_saving_secs: pick.est_saving_secs,
                    size_bytes: pick.size_bytes,
                });
            }
            let keys: HashSet<u64> = set.iter().map(|&v| v as u64).collect();
            let adaptive = (opts.adaptive_enabled() && ctx.faults.is_none()).then(|| {
                Arc::new(AdaptiveController::new(
                    problem,
                    set.clone(),
                    budget,
                    ctx.resources.workers,
                    ctx.tracer.clone(),
                    ctx.sim.clone(),
                    opts.adaptive_hints.clone(),
                ))
            });
            let cache =
                CacheManager::new(budget, CachePolicy::Pinned(keys)).with_observer(observer);
            (cache, set, adaptive)
        });
        let choices: Vec<(String, String)> = profile
            .choices
            .iter()
            .map(|(id, name)| (graph.nodes[*id].label.clone(), name.clone()))
            .collect();

        let mut fused: Vec<(NodeId, Vec<String>)> = Vec::new();
        let mut fused_nodes = 0;
        let mut columnar_chains = 0;
        if opts.fusion_enabled() {
            spans.scope("fuse", |_| {
                let result = fuse_chains_with(&graph, output, &cache_set, opts.columnar_enabled());
                graph = result.graph;
                merge_profiles(&mut profile, &result.chains);
                fused_nodes = result.absorbed;
                columnar_chains = result.columnar_chains;
                for chain in &result.chains {
                    ctx.tracer.record(TraceEvent::FusionMerge {
                        node: chain.tail,
                        label: graph.nodes[chain.tail].label.clone(),
                        members: chain.labels.clone(),
                    });
                    fused.push((chain.tail, chain.labels.clone()));
                }
            });
        }
        let optimize_secs = start.elapsed().as_secs_f64();

        let profiles = Arc::new(profile.nodes.clone());
        let models = spans.scope("execute", |_| {
            let mut executor =
                Executor::new(&graph, ctx.clone(), Arc::new(cache)).with_profiles(profiles.clone());
            if let Some(ad) = &adaptive {
                executor = executor.with_adaptive(ad.clone());
            }
            for &est in &roots {
                let _ = executor.eval(est);
            }
            executor.models()
        });

        // What `Pipeline::fit` still does after the executor returns; it
        // stays in the fit span's self time.
        std::hint::black_box(adaptive.map(|ad| ad.report()));
        std::hint::black_box(PipelineReport::build_with_metrics(
            &graph,
            &profile,
            &ctx.tracer,
            Some(&ctx.metrics),
        ));
        let cache_set_labels = labels_of(&graph, &cache_set);
        std::hint::black_box(graph.to_dot(&cache_set));
        let plan = Plan {
            fingerprint: Plan::fingerprint_of(&choices, &cache_set_labels, &fused),
            cse_eliminated: eliminated,
            cache_picks: cache_set.len(),
            fused_nodes,
            columnar_chains,
            optimize_secs,
        };
        let fitted = FittedPipeline::from_plan(Arc::new(ExecutablePlan::new(
            Arc::new(graph),
            output,
            models,
            profiles,
        )));
        (fitted, plan)
    })
}
