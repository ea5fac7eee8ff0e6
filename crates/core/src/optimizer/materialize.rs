//! Automatic materialization (§4.3): choose which intermediate outputs to
//! cache under a memory budget to minimize total execution time.
//!
//! Implements the `T(v)` / `C(v)` recurrences and the greedy Algorithm 1
//! from the paper, plus an exhaustive optimal search for small DAGs (the
//! paper notes the exact ILP is too slow for practical use — the exhaustive
//! variant lets our tests *measure* the greedy/optimal gap the paper only
//! asserts is small).

use std::collections::HashSet;

/// Per-node inputs to the materialization problem.
#[derive(Debug, Clone)]
pub struct MatNode {
    /// `t(v)`: seconds for one execution of the node, inputs available.
    pub t_secs: f64,
    /// `size(v)`: bytes of the node's output.
    pub size_bytes: u64,
    /// `w(v)`: times the node iterates over its inputs per execution.
    pub weight: u32,
    /// Nodes that are effectively always materialized (bound data sources,
    /// fitted models): they cost nothing to revisit and use no cache budget.
    pub always_cached: bool,
    /// Direct input node indices.
    pub inputs: Vec<usize>,
    /// Display label.
    pub label: String,
}

/// A materialization problem: DAG + per-node costs + requested sinks.
#[derive(Debug, Clone, Default)]
pub struct MatProblem {
    /// Nodes in topological order (inputs precede users).
    pub nodes: Vec<MatNode>,
    /// Sink nodes the driver requests once each.
    pub sinks: Vec<usize>,
}

/// One greedy pick, in the order Algorithm 1 made it.
#[derive(Debug, Clone)]
pub struct MatPick {
    /// Index of the node chosen for caching.
    pub node: usize,
    /// Node label.
    pub label: String,
    /// Estimated runtime saving of this pick over the previous state, seconds.
    pub est_saving_secs: f64,
    /// Bytes the pick charged against the memory budget.
    pub size_bytes: u64,
}

impl MatProblem {
    /// How many times each node executes under a cache set — the measured
    /// counterpart of `C(v)` with `κ` applied. Computed sinks-first.
    pub fn exec_counts(&self, cache: &HashSet<usize>) -> Vec<f64> {
        let n = self.nodes.len();
        let mut requests = vec![0.0f64; n];
        for &s in &self.sinks {
            requests[s] += 1.0;
        }
        let mut execs = vec![0.0f64; n];
        // Reverse topological order: successors are finalized before their
        // inputs accumulate requests.
        for v in (0..n).rev() {
            let node = &self.nodes[v];
            execs[v] = if requests[v] <= 0.0 {
                0.0
            } else if node.always_cached || cache.contains(&v) {
                1.0
            } else {
                requests[v]
            };
            let pulls = execs[v] * node.weight as f64;
            for &u in &node.inputs {
                requests[u] += pulls;
            }
        }
        execs
    }

    /// How many times each node is *requested* under a cache set — the
    /// demand side of the `exec_counts` recurrence, before caching collapses
    /// it to one execution. The adaptive re-planner compares these
    /// predictions against the executor's observed request counters to
    /// decide when the declared iteration weights were wrong.
    pub fn request_counts(&self, cache: &HashSet<usize>) -> Vec<f64> {
        let n = self.nodes.len();
        let mut requests = vec![0.0f64; n];
        for &s in &self.sinks {
            requests[s] += 1.0;
        }
        for v in (0..n).rev() {
            let node = &self.nodes[v];
            let execs = if requests[v] <= 0.0 {
                0.0
            } else if node.always_cached || cache.contains(&v) {
                1.0
            } else {
                requests[v]
            };
            let pulls = execs * node.weight as f64;
            for &u in &node.inputs {
                requests[u] += pulls;
            }
        }
        requests
    }

    /// `T(sink(G))`: estimated total execution time under a cache set.
    pub fn est_runtime(&self, cache: &HashSet<usize>) -> f64 {
        self.exec_counts(cache)
            .iter()
            .zip(&self.nodes)
            .map(|(&e, n)| e * n.t_secs)
            .sum()
    }

    /// Total cache bytes a set would consume.
    pub fn set_bytes(&self, cache: &HashSet<usize>) -> u64 {
        cache
            .iter()
            .filter(|v| !self.nodes[**v].always_cached)
            .map(|&v| self.nodes[v].size_bytes)
            .sum()
    }

    /// Candidate nodes worth considering: actually requested, not free, and
    /// with positive recomputation cost in their subtree.
    fn candidates(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&v| !self.nodes[v].always_cached)
            .collect()
    }

    /// Greedy Algorithm 1: repeatedly cache the node yielding the largest
    /// runtime saving that still fits, until no strict improvement or no
    /// memory remains.
    pub fn greedy_cache_set(&self, budget: u64) -> HashSet<usize> {
        self.greedy_cache_set_traced(budget).0
    }

    /// Greedy Algorithm 1, additionally returning each pick with its
    /// estimated saving and budget charge — the observability layer turns
    /// these into `MaterializePick` trace events.
    pub fn greedy_cache_set_traced(&self, budget: u64) -> (HashSet<usize>, Vec<MatPick>) {
        let mut cache: HashSet<usize> = HashSet::new();
        let mut picks: Vec<MatPick> = Vec::new();
        let mut mem_left = budget;
        let candidates = self.candidates();
        let mut current = self.est_runtime(&cache);
        loop {
            // pickNext: argmin runtime over fitting, uncached nodes.
            let mut best: Option<(usize, f64)> = None;
            for &v in &candidates {
                if cache.contains(&v) || self.nodes[v].size_bytes > mem_left {
                    continue;
                }
                cache.insert(v);
                let runtime = self.est_runtime(&cache);
                cache.remove(&v);
                if best.is_none_or(|(_, b)| runtime < b) {
                    best = Some((v, runtime));
                }
            }
            match best {
                Some((v, runtime)) if runtime < current - 1e-12 => {
                    cache.insert(v);
                    mem_left -= self.nodes[v].size_bytes;
                    picks.push(MatPick {
                        node: v,
                        label: self.nodes[v].label.clone(),
                        est_saving_secs: current - runtime,
                        size_bytes: self.nodes[v].size_bytes,
                    });
                    current = runtime;
                }
                _ => break,
            }
        }
        (cache, picks)
    }

    /// Exhaustive optimal cache set (2^candidates subsets). Usable for DAGs
    /// with at most ~20 candidate nodes; tests compare greedy against it.
    ///
    /// # Panics
    /// Panics if there are more than 24 candidate nodes.
    pub fn optimal_cache_set(&self, budget: u64) -> HashSet<usize> {
        let candidates = self.candidates();
        assert!(
            candidates.len() <= 24,
            "optimal search is exponential; got {} candidates",
            candidates.len()
        );
        let mut best_set = HashSet::new();
        let mut best_time = self.est_runtime(&best_set);
        for mask in 1u32..(1 << candidates.len()) {
            let set: HashSet<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &v)| v)
                .collect();
            if self.set_bytes(&set) > budget {
                continue;
            }
            let t = self.est_runtime(&set);
            if t < best_time - 1e-12 {
                best_time = t;
                best_set = set;
            }
        }
        best_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear chain: src(free) -> a -> b -> est-like sink that re-reads b
    /// `w` times.
    fn chain(w: u32) -> MatProblem {
        MatProblem {
            nodes: vec![
                MatNode {
                    t_secs: 0.0,
                    size_bytes: 100,
                    weight: 1,
                    always_cached: true,
                    inputs: vec![],
                    label: "src".into(),
                },
                MatNode {
                    t_secs: 10.0,
                    size_bytes: 1000,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![0],
                    label: "a".into(),
                },
                MatNode {
                    t_secs: 1.0,
                    size_bytes: 500,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![1],
                    label: "b".into(),
                },
                MatNode {
                    t_secs: 5.0,
                    size_bytes: 1,
                    weight: w,
                    always_cached: false,
                    inputs: vec![2],
                    label: "solver".into(),
                },
            ],
            sinks: vec![3],
        }
    }

    #[test]
    fn exec_counts_without_cache_multiply_by_weight() {
        let p = chain(10);
        let execs = p.exec_counts(&HashSet::new());
        // Solver executes once, pulls b 10 times, which pulls a 10 times.
        assert_eq!(execs[3], 1.0);
        assert_eq!(execs[2], 10.0);
        assert_eq!(execs[1], 10.0);
        assert_eq!(execs[0], 1.0, "always-cached source computed once");
    }

    #[test]
    fn caching_b_cuts_upstream_recomputation() {
        let p = chain(10);
        let mut cache = HashSet::new();
        cache.insert(2);
        let execs = p.exec_counts(&cache);
        assert_eq!(execs[2], 1.0);
        assert_eq!(execs[1], 1.0, "a only needed for b's single execution");
    }

    #[test]
    fn request_counts_expose_demand_before_caching_collapses_it() {
        let p = chain(10);
        let req = p.request_counts(&HashSet::new());
        // Sink requested once; b pulled 10x by the solver; a pulled 10x by b.
        assert_eq!(req[3], 1.0);
        assert_eq!(req[2], 10.0);
        assert_eq!(req[1], 10.0);
        // Caching b leaves b's own demand intact (requests are demand, not
        // executions) but collapses the upstream pulls.
        let cached: HashSet<usize> = [2].into_iter().collect();
        let req = p.request_counts(&cached);
        assert_eq!(req[2], 10.0, "demand on the cached node is unchanged");
        assert_eq!(req[1], 1.0, "cached node pulls its input once");
    }

    #[test]
    fn est_runtime_decreases_with_cache() {
        let p = chain(10);
        let none = p.est_runtime(&HashSet::new());
        let mut cache = HashSet::new();
        cache.insert(2);
        let with_b = p.est_runtime(&cache);
        // none: 10*10 (a) + 1*10 (b) + 5 = 115; with b: 10 + 1 + 5 = 16.
        assert!((none - 115.0).abs() < 1e-9, "none = {}", none);
        assert!((with_b - 16.0).abs() < 1e-9, "with_b = {}", with_b);
    }

    #[test]
    fn greedy_picks_the_bottleneck_under_budget() {
        let p = chain(10);
        // Budget fits only b (500), not a (1000).
        let set = p.greedy_cache_set(600);
        assert!(set.contains(&2), "set = {:?}", set);
        assert!(!set.contains(&1));
    }

    #[test]
    fn greedy_with_ample_budget_matches_optimal() {
        let p = chain(10);
        let g = p.greedy_cache_set(10_000);
        let o = p.optimal_cache_set(10_000);
        assert!((p.est_runtime(&g) - p.est_runtime(&o)).abs() < 1e-9);
    }

    #[test]
    fn greedy_zero_budget_caches_nothing() {
        let p = chain(10);
        assert!(p.greedy_cache_set(0).is_empty());
    }

    #[test]
    fn traced_picks_agree_with_the_set_and_savings_are_positive() {
        let p = chain(10);
        let (set, picks) = p.greedy_cache_set_traced(10_000);
        let picked: HashSet<usize> = picks.iter().map(|m| m.node).collect();
        assert_eq!(picked, set);
        let mut spent = 0u64;
        for m in &picks {
            assert!(m.est_saving_secs > 0.0, "pick {:?} saved nothing", m.label);
            assert_eq!(m.size_bytes, p.nodes[m.node].size_bytes);
            assert_eq!(m.label, p.nodes[m.node].label);
            spent += m.size_bytes;
        }
        assert_eq!(spent, p.set_bytes(&set));
        // Total claimed saving equals the end-to-end runtime delta.
        let claimed: f64 = picks.iter().map(|m| m.est_saving_secs).sum();
        let delta = p.est_runtime(&HashSet::new()) - p.est_runtime(&set);
        assert!((claimed - delta).abs() < 1e-9);
    }

    /// Diamond: src -> x; x feeds both left and right; both feed sink.
    /// x is revisited twice unless cached.
    fn diamond() -> MatProblem {
        MatProblem {
            nodes: vec![
                MatNode {
                    t_secs: 0.0,
                    size_bytes: 0,
                    weight: 1,
                    always_cached: true,
                    inputs: vec![],
                    label: "src".into(),
                },
                MatNode {
                    t_secs: 8.0,
                    size_bytes: 100,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![0],
                    label: "x".into(),
                },
                MatNode {
                    t_secs: 1.0,
                    size_bytes: 50,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![1],
                    label: "left".into(),
                },
                MatNode {
                    t_secs: 1.0,
                    size_bytes: 50,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![1],
                    label: "right".into(),
                },
                MatNode {
                    t_secs: 1.0,
                    size_bytes: 1,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![2, 3],
                    label: "sink".into(),
                },
            ],
            sinks: vec![4],
        }
    }

    #[test]
    fn diamond_fanout_counts() {
        let p = diamond();
        let execs = p.exec_counts(&HashSet::new());
        assert_eq!(execs[1], 2.0, "x requested by both branches");
        let mut cache = HashSet::new();
        cache.insert(1);
        let execs = p.exec_counts(&cache);
        assert_eq!(execs[1], 1.0);
    }

    #[test]
    fn greedy_caches_shared_fanout_node() {
        let p = diamond();
        let set = p.greedy_cache_set(100);
        assert!(set.contains(&1), "set = {:?}", set);
    }

    #[test]
    fn greedy_matches_optimal_on_diamond_for_all_budgets() {
        let p = diamond();
        for budget in [0u64, 60, 100, 150, 1000] {
            let g = p.est_runtime(&p.greedy_cache_set(budget));
            let o = p.est_runtime(&p.optimal_cache_set(budget));
            assert!(
                g <= o + 1e-9,
                "budget {}: greedy {} worse than optimal {}",
                budget,
                g,
                o
            );
        }
    }

    /// A case where greedy is known to be suboptimal: two complementary
    /// items where the pair beats any single greedy-first pick that blocks
    /// the budget. Greedy must still be within a small factor.
    #[test]
    fn greedy_is_near_optimal_when_budget_forces_tradeoffs() {
        // expensive node (big) vs two medium nodes that together save more.
        let p = MatProblem {
            nodes: vec![
                MatNode {
                    t_secs: 0.0,
                    size_bytes: 0,
                    weight: 1,
                    always_cached: true,
                    inputs: vec![],
                    label: "src".into(),
                },
                // big: saves 30 per reuse, costs 100 bytes
                MatNode {
                    t_secs: 30.0,
                    size_bytes: 100,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![0],
                    label: "big".into(),
                },
                // m1, m2: save 20 each, cost 60 bytes each
                MatNode {
                    t_secs: 20.0,
                    size_bytes: 60,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![0],
                    label: "m1".into(),
                },
                MatNode {
                    t_secs: 20.0,
                    size_bytes: 60,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![0],
                    label: "m2".into(),
                },
                // consumers revisiting each input twice
                MatNode {
                    t_secs: 0.1,
                    size_bytes: 1,
                    weight: 2,
                    always_cached: false,
                    inputs: vec![1],
                    label: "c_big".into(),
                },
                MatNode {
                    t_secs: 0.1,
                    size_bytes: 1,
                    weight: 2,
                    always_cached: false,
                    inputs: vec![2],
                    label: "c1".into(),
                },
                MatNode {
                    t_secs: 0.1,
                    size_bytes: 1,
                    weight: 2,
                    always_cached: false,
                    inputs: vec![3],
                    label: "c2".into(),
                },
            ],
            sinks: vec![4, 5, 6],
        };
        let budget = 120; // fits big alone, or m1+m2.
        let g = p.est_runtime(&p.greedy_cache_set(budget));
        let o = p.est_runtime(&p.optimal_cache_set(budget));
        // Optimal caches m1+m2 (saves 40); greedy grabs big first (saves 30).
        assert!(o <= g);
        assert!(g <= o + 10.0 + 1e-9, "greedy within the single-item gap");
    }

    #[test]
    fn unrequested_nodes_never_execute() {
        let mut p = chain(1);
        // Add an orphan node nobody requests.
        p.nodes.push(MatNode {
            t_secs: 100.0,
            size_bytes: 10,
            weight: 1,
            always_cached: false,
            inputs: vec![0],
            label: "orphan".into(),
        });
        let execs = p.exec_counts(&HashSet::new());
        assert_eq!(execs[4], 0.0);
    }

    #[test]
    fn set_bytes_ignores_always_cached() {
        let p = chain(1);
        let mut s = HashSet::new();
        s.insert(0); // always_cached source
        s.insert(2);
        assert_eq!(p.set_bytes(&s), 500);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random DAG generator: node i draws inputs from earlier nodes, with
    /// random costs, sizes and iteration weights. Node 0 is a free source;
    /// the last node is the sink.
    fn random_problem(n: usize, seed: u64) -> MatProblem {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut nodes = vec![MatNode {
            t_secs: 0.0,
            size_bytes: 0,
            weight: 1,
            always_cached: true,
            inputs: vec![],
            label: "src".into(),
        }];
        for i in 1..n {
            let num_inputs = 1 + (next() as usize % 2.min(i));
            let mut inputs = Vec::new();
            for _ in 0..num_inputs {
                inputs.push(next() as usize % i);
            }
            inputs.sort_unstable();
            inputs.dedup();
            nodes.push(MatNode {
                t_secs: (next() % 100) as f64 / 10.0,
                size_bytes: 1 + next() % 500,
                weight: 1 + (next() % 4) as u32,
                always_cached: false,
                inputs,
                label: format!("n{}", i),
            });
        }
        MatProblem {
            nodes,
            sinks: vec![n - 1],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Caching anything can only help: greedy ≤ empty-set runtime.
        #[test]
        fn prop_greedy_never_hurts(n in 3usize..10, seed in 1u64..5000, budget in 0u64..4000) {
            let p = random_problem(n, seed);
            let empty = p.est_runtime(&HashSet::new());
            let greedy = p.est_runtime(&p.greedy_cache_set(budget));
            prop_assert!(greedy <= empty + 1e-9);
        }

        /// More memory can only help the greedy strategy.
        #[test]
        fn prop_greedy_monotone_in_budget(n in 3usize..10, seed in 1u64..5000, budget in 0u64..2000) {
            let p = random_problem(n, seed);
            let small = p.est_runtime(&p.greedy_cache_set(budget));
            let large = p.est_runtime(&p.greedy_cache_set(budget * 2 + 500));
            prop_assert!(large <= small + 1e-9);
        }

        /// Greedy respects the budget.
        #[test]
        fn prop_greedy_respects_budget(n in 3usize..10, seed in 1u64..5000, budget in 0u64..3000) {
            let p = random_problem(n, seed);
            let set = p.greedy_cache_set(budget);
            prop_assert!(p.set_bytes(&set) <= budget);
        }

        /// Greedy never caches a zero-reuse node: caching a node executed at
        /// most once can't strictly reduce runtime, and the algorithm
        /// requires strict improvement. (Exec counts only shrink as the
        /// cache grows, so the empty-cache count bounds every later state.)
        #[test]
        fn prop_greedy_skips_zero_reuse_nodes(n in 3usize..10, seed in 1u64..5000, budget in 0u64..4000) {
            let p = random_problem(n, seed);
            let baseline = p.exec_counts(&HashSet::new());
            let set = p.greedy_cache_set(budget);
            for &v in &set {
                prop_assert!(
                    baseline[v] > 1.0 + 1e-12,
                    "node {} cached with only {} baseline executions",
                    v,
                    baseline[v]
                );
            }
        }

        /// Greedy tracks the exhaustive optimum closely on small DAGs (the
        /// claim the paper makes without measurement). A 2x bound holds
        /// comfortably in practice; the typical gap is zero.
        #[test]
        fn prop_greedy_near_optimal(n in 3usize..9, seed in 1u64..3000, budget in 100u64..3000) {
            let p = random_problem(n, seed);
            let greedy = p.est_runtime(&p.greedy_cache_set(budget));
            let optimal = p.est_runtime(&p.optimal_cache_set(budget));
            prop_assert!(optimal <= greedy + 1e-9, "optimal must not exceed greedy");
            prop_assert!(
                greedy <= optimal * 2.0 + 1e-9,
                "greedy {} vs optimal {}",
                greedy,
                optimal
            );
        }

        /// Each traced pick's claimed saving equals the runtime delta its
        /// cache insertion actually causes, recomputed independently from
        /// `exec_counts`: the trace is an accurate story of Algorithm 1, not
        /// a parallel bookkeeping path that can drift.
        #[test]
        fn prop_traced_picks_match_exec_count_deltas(n in 3usize..11, seed in 1u64..4000, budget in 0u64..4000) {
            let p = random_problem(n, seed);
            let (set, picks) = p.greedy_cache_set_traced(budget);
            let mut cache: HashSet<usize> = HashSet::new();
            for pick in &picks {
                // Recompute the delta from raw exec counts, not est_runtime,
                // so the two paths are independent.
                let before = p.exec_counts(&cache);
                cache.insert(pick.node);
                let after = p.exec_counts(&cache);
                let delta: f64 = before
                    .iter()
                    .zip(&after)
                    .zip(&p.nodes)
                    .map(|((&b, &a), node)| (b - a) * node.t_secs)
                    .sum();
                prop_assert!(
                    (delta - pick.est_saving_secs).abs() < 1e-9,
                    "pick {} claimed {} but exec-count delta is {}",
                    pick.label,
                    pick.est_saving_secs,
                    delta
                );
                // A pick must strictly reduce its own exec count: caching a
                // node that was already executed at most once saves nothing.
                prop_assert!(before[pick.node] > after[pick.node]);
            }
            prop_assert_eq!(cache, set);
        }

        /// The bytes the picks charge agree with `set_bytes`, every greedy
        /// prefix stays within budget, and the final set passes the same
        /// budget check the optimizer applies.
        #[test]
        fn prop_set_bytes_agrees_with_budget_check(n in 3usize..11, seed in 1u64..4000, budget in 0u64..4000) {
            let p = random_problem(n, seed);
            let (set, picks) = p.greedy_cache_set_traced(budget);
            let mut cache: HashSet<usize> = HashSet::new();
            let mut charged = 0u64;
            for pick in &picks {
                cache.insert(pick.node);
                charged += pick.size_bytes;
                prop_assert_eq!(charged, p.set_bytes(&cache), "prefix bytes drifted");
                prop_assert!(charged <= budget, "prefix over budget");
            }
            prop_assert_eq!(charged, p.set_bytes(&set));
            prop_assert!(p.set_bytes(&set) <= budget);
        }

        /// On instances up to 12 nodes the exhaustive optimum is well
        /// defined; it never loses to greedy, respects the same budget, and
        /// greedy stays within 2x of it.
        #[test]
        fn prop_optimal_vs_greedy_up_to_12_nodes(n in 3usize..13, seed in 1u64..3000, budget in 0u64..4000) {
            let p = random_problem(n, seed);
            let greedy_set = p.greedy_cache_set(budget);
            let optimal_set = p.optimal_cache_set(budget);
            prop_assert!(p.set_bytes(&optimal_set) <= budget);
            let greedy = p.est_runtime(&greedy_set);
            let optimal = p.est_runtime(&optimal_set);
            prop_assert!(optimal <= greedy + 1e-9, "optimal {} worse than greedy {}", optimal, greedy);
            prop_assert!(greedy <= optimal * 2.0 + 1e-9, "greedy {} vs optimal {}", greedy, optimal);
        }

        /// `est_runtime` is monotone non-increasing as the cache set grows
        /// one node at a time, along any insertion order.
        #[test]
        fn prop_est_runtime_monotone_in_cache_set(n in 3usize..11, seed in 1u64..4000, order_seed in 1u64..1000) {
            let p = random_problem(n, seed);
            // A seed-scrambled insertion order over all candidate nodes.
            let mut ids: Vec<usize> = (0..p.nodes.len()).collect();
            let mut s = order_seed;
            for i in (1..ids.len()).rev() {
                s ^= s >> 12; s ^= s << 25; s ^= s >> 27;
                let j = (s.wrapping_mul(0x2545F4914F6CDD1D) % (i as u64 + 1)) as usize;
                ids.swap(i, j);
            }
            let mut cache: HashSet<usize> = HashSet::new();
            let mut prev = p.est_runtime(&cache);
            for v in ids {
                cache.insert(v);
                let now = p.est_runtime(&cache);
                prop_assert!(now <= prev + 1e-9, "caching node {} increased runtime {} -> {}", v, prev, now);
                prev = now;
            }
        }

        /// The premise behind pricing a terminal estimator instead of
        /// timing it: an always-cached node executes once under every cache
        /// set, so its `t(v)` adds one constant to every candidate's
        /// runtime. Rescaling those times, by 0 included, leaves Algorithm
        /// 1's picks and their order unchanged. Times are integers, so
        /// every sum is exact.
        #[test]
        fn prop_always_cached_times_do_not_move_picks(
            n in 3usize..11,
            seed in 1u64..4000,
            cached_mask in 0u64..1024,
            factors in proptest::collection::vec(0u32..4, 11..12),
            budget in 0u64..4000,
        ) {
            let mut p = random_problem(n, seed);
            for (i, node) in p.nodes.iter_mut().enumerate().skip(1) {
                node.t_secs = (node.t_secs * 10.0).round();
                node.always_cached = cached_mask >> (i - 1) & 1 == 1;
            }
            let picks = |p: &MatProblem| -> Vec<usize> {
                p.greedy_cache_set_traced(budget).1.iter().map(|m| m.node).collect()
            };
            let before = picks(&p);
            for (node, &f) in p.nodes.iter_mut().zip(&factors) {
                if node.always_cached {
                    node.t_secs = (node.t_secs + 1.0) * f as f64;
                }
            }
            prop_assert_eq!(picks(&p), before);
        }

        /// Unbounded memory: greedy equals the optimum (cache everything
        /// useful), and exec counts collapse to at most one per node.
        #[test]
        fn prop_unbounded_budget_is_optimal(n in 3usize..9, seed in 1u64..3000) {
            let p = random_problem(n, seed);
            let greedy = p.est_runtime(&p.greedy_cache_set(u64::MAX));
            let optimal = p.est_runtime(&p.optimal_cache_set(u64::MAX));
            prop_assert!((greedy - optimal).abs() < 1e-9);
            // With everything useful cached, total cost equals the
            // cache-everything lower bound: every node's cost paid at most
            // once. (Zero-cost nodes may legitimately re-execute for free.)
            let all: HashSet<usize> = (0..p.nodes.len()).collect();
            let lower_bound = p.est_runtime(&all);
            prop_assert!((greedy - lower_bound).abs() < 1e-9, "greedy {} vs lower bound {}", greedy, lower_bound);
        }
    }
}
