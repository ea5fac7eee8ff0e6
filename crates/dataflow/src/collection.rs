//! Partitioned, immutable distributed collections.
//!
//! `DistCollection<T>` plays the role of Spark's RDD: an immutable
//! collection split into partitions, with one partition per logical worker
//! node by default. Per-partition work runs concurrently on the rayon pool,
//! so a `w`-worker simulated cluster genuinely does `w`-way parallel work
//! (bounded by the machine's cores).
//!
//! Unlike Spark, collections here are **eager**; recomputation-versus-reuse
//! decisions live one level up, in the pipeline executor, which is where the
//! paper's materialization optimizer operates (§4.3).
//!
//! Every per-partition operation runs through one private bracket,
//! `DistCollection::run_region`: ambient [`TaskScope`] lookup, one `op_seq`
//! draw on the driving thread, the file's only parallel fan-out, per
//! partition the re-run of failed attempts and [`TaskSpan`] measurement,
//! one batched span commit. The public ops only say what a partition's work
//! is. Anything that changes how a region runs — a persistent pool in place
//! of the per-region thread spawn, a "don't fork below N records" rule,
//! turning an exhausted retry into a typed error — is an edit to that one
//! function.

use rayon::prelude::*;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::faults::RETRY_LIMIT;
use crate::metrics::{current_task_scope, TaskScope, TaskSpan};
use crate::rng_util::split_seed;

/// Shallow byte estimate of a partition: element count × element size. Deep
/// payloads (e.g. `Vec<f64>` records) are undercounted; spans report this as
/// a throughput indicator, not an allocator truth.
fn part_bytes<T>(p: &[T]) -> u64 {
    std::mem::size_of_val(p) as u64
}

/// A freshly produced partition and the `items_out` its span reports.
fn counted<U>(out: Vec<U>) -> (Arc<Vec<U>>, u64) {
    let n = out.len() as u64;
    (Arc::new(out), n)
}

/// Runs one partition's work, re-running a failed attempt, and measures a
/// [`TaskSpan`] when a task scope is active. `f` returns the result plus the
/// number of items produced. This is called on the pool's worker threads, so
/// timestamps bracket the real per-partition work of every attempt; the
/// scope itself is captured (and `op_seq` drawn) on the driving thread
/// before the fan-out.
///
/// An attempt fails when `f` panics, or when the scope's
/// [`FaultPlan`](crate::faults::FaultPlan) schedules it to: then the work
/// runs and the attempt raises through `resume_unwind`, which skips the
/// panic hook. A failed attempt is re-run up to [`RETRY_LIMIT`] times;
/// operators are deterministic, so the attempt that succeeds returns what a
/// clean run would. The span's `retries` counts the failed attempts
/// (recovery charges their backoff upstream). A task the plan picks as a
/// straggler sleeps its injected delay before the end timestamp, so the
/// slowdown is real wall time that skew detection sees.
///
/// # Panics
/// Resumes the last attempt's panic when all `1 + RETRY_LIMIT` attempts
/// fail, so the operator's own message fails the job.
fn measure_partition<R>(
    scope: &Option<TaskScope>,
    op: &'static str,
    op_seq: u64,
    partition: usize,
    items_in: usize,
    bytes: u64,
    f: impl Fn() -> (R, u64),
) -> (R, Option<TaskSpan>) {
    let injected = scope.as_ref().map_or(0, |sc| {
        sc.faults.as_ref().map_or(0, |fp| {
            fp.injected_failures(sc.fault_key(), op_seq, partition)
        })
    });
    let start_us = scope.as_ref().map_or(0, |sc| sc.registry.now_micros());
    let mut retries = 0;
    let (out, items_out) = loop {
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            let out = f();
            if retries < injected {
                panic::resume_unwind(Box::new("injected task failure"));
            }
            out
        }));
        match attempt {
            Ok(out) => break out,
            Err(payload) if retries == RETRY_LIMIT => panic::resume_unwind(payload),
            Err(_) => retries += 1,
        }
    };
    let Some(sc) = scope else {
        return (out, None);
    };
    if let Some(fp) = &sc.faults {
        let busy_us = sc.registry.now_micros().saturating_sub(start_us);
        if let Some(extra_us) = fp.straggler_extra_us(sc.fault_key(), op_seq, partition, busy_us) {
            std::thread::sleep(std::time::Duration::from_micros(extra_us));
        }
    }
    let span = TaskSpan {
        stage: sc.stage.clone(),
        op,
        op_seq,
        stage_id: sc.stage_id,
        partition,
        worker: rayon::current_thread_index().unwrap_or(partition % sc.workers.max(1)),
        start_us,
        end_us: sc.registry.now_micros(),
        items_in: items_in as u64,
        items_out,
        bytes,
        retries,
    };
    (out, Some(span))
}

/// An immutable, partitioned collection of `T`.
#[derive(Debug)]
pub struct DistCollection<T> {
    partitions: Vec<Arc<Vec<T>>>,
}

impl<T> Clone for DistCollection<T> {
    fn clone(&self) -> Self {
        DistCollection {
            partitions: self.partitions.clone(),
        }
    }
}

impl<T: Send + Sync + 'static> DistCollection<T> {
    /// Splits `data` into `num_partitions` nearly equal partitions
    /// (at least 1; empty collections get one empty partition).
    pub fn from_vec(data: Vec<T>, num_partitions: usize) -> Self {
        let p = num_partitions.max(1);
        let n = data.len();
        if n == 0 {
            return DistCollection {
                partitions: vec![Arc::new(Vec::new())],
            };
        }
        let p = p.min(n);
        let base = n / p;
        let extra = n % p;
        let mut partitions = Vec::with_capacity(p);
        let mut it = data.into_iter();
        for i in 0..p {
            let take = base + usize::from(i < extra);
            partitions.push(Arc::new(it.by_ref().take(take).collect::<Vec<T>>()));
        }
        DistCollection { partitions }
    }

    /// Builds directly from per-partition vectors.
    pub fn from_partitions(parts: Vec<Vec<T>>) -> Self {
        let partitions = if parts.is_empty() {
            vec![Arc::new(Vec::new())]
        } else {
            parts.into_iter().map(Arc::new).collect()
        };
        DistCollection { partitions }
    }

    /// Number of partitions (logical workers touched).
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Identity of the underlying data: clones of a collection share their
    /// partition allocations, so they report the same id. Used by the
    /// pipeline optimizer to recognize that two bound sources are the same
    /// dataset (common sub-expression elimination across `and_then_est`
    /// calls).
    ///
    /// The id hashes the partition count plus *every* partition's `Arc`
    /// pointer, so collections that merely share a first allocation (e.g. a
    /// collection and its union with extra partitions) cannot alias.
    pub fn content_id(&self) -> usize {
        let mut h = split_seed(0x9E37_79B9, self.partitions.len() as u64);
        for p in &self.partitions {
            h = split_seed(h, Arc::as_ptr(p) as *const () as usize as u64);
        }
        h as usize
    }

    /// Total number of elements.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Shared view of partition `i`.
    pub fn partition(&self, i: usize) -> &Arc<Vec<T>> {
        &self.partitions[i]
    }

    /// Iterator over all elements (sequential).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.partitions.iter().flat_map(|p| p.iter())
    }

    /// The one instrumented partition region under every operation below:
    /// looks up the ambient [`TaskScope`] and draws one `op_seq` from it on
    /// the driving thread (0 when uninstrumented) so every partition of the
    /// op shares it and fault decisions for distinct ops on the same
    /// partition stay independent, fans `work` out over the partitions,
    /// measures each visited partition, and commits the spans in one batch.
    ///
    /// `work` gets the partition index and slice and returns its result
    /// plus the `items_out` its span reports; `span_bytes` is the span's
    /// `bytes`. With `skip_empty`, empty partitions are not visited: no
    /// result, no span.
    fn run_region<R: Send>(
        &self,
        op: &'static str,
        skip_empty: bool,
        span_bytes: impl Fn(usize, &[T]) -> u64 + Sync,
        work: impl Fn(usize, &[T]) -> (R, u64) + Sync,
    ) -> Vec<R> {
        let scope = current_task_scope();
        let op_seq = scope.as_ref().map_or(0, |sc| sc.next_op_seq());
        let measured: Vec<(R, Option<TaskSpan>)> = self
            .partitions
            .par_iter()
            .enumerate()
            .filter(|(_, p)| !(skip_empty && p.is_empty()))
            .map(|(pi, p)| {
                let bytes = span_bytes(pi, p);
                measure_partition(&scope, op, op_seq, pi, p.len(), bytes, || work(pi, p))
            })
            .collect();
        let mut out = Vec::with_capacity(measured.len());
        let mut spans = Vec::new();
        for (r, span) in measured {
            out.push(r);
            spans.extend(span);
        }
        if let Some(sc) = &scope {
            sc.record(spans);
        }
        out
    }

    /// [`Self::run_region`] over every partition, reporting its own bytes.
    fn region<R: Send>(&self, op: &'static str, work: impl Fn(&[T]) -> (R, u64) + Sync) -> Vec<R> {
        self.run_region(op, false, |_, p| part_bytes(p), |_, p| work(p))
    }

    /// A region in which each partition produces one output partition.
    fn map_region<U: Send + Sync + 'static>(
        &self,
        op: &'static str,
        f: impl Fn(&[T]) -> Vec<U> + Sync,
    ) -> DistCollection<U> {
        DistCollection {
            partitions: self.region(op, |p| counted(f(p))),
        }
    }

    /// Element-wise transformation, preserving partitioning.
    pub fn map<U, F>(&self, f: F) -> DistCollection<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&T) -> U + Send + Sync,
    {
        self.map_region("map", |p| p.iter().map(&f).collect())
    }

    /// Whole-partition transformation (the `mapPartitions` of Spark) —
    /// lets operators amortize per-partition setup such as building a local
    /// matrix.
    pub fn map_partitions<U, F>(&self, f: F) -> DistCollection<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&[T]) -> Vec<U> + Send + Sync,
    {
        self.map_region("map_partitions", f)
    }

    /// Whole-stage fused execution: applies `f` to each partition slice in a
    /// single instrumented pass and returns exactly one folded value per
    /// partition, in partition order. `f` returns the folded value plus the
    /// number of records it represents, so the task span's `items_out`
    /// reflects the records a fused operator chain produced rather than the
    /// fold count. This is the execution primitive behind the optimizer's
    /// `FusedMap`: one `"fused"` task span per partition for the whole
    /// chain, no intermediate collections.
    pub fn fused_partitions<U, F>(&self, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(&[T]) -> (U, u64) + Send + Sync,
    {
        self.region("fused", f)
    }

    /// [`Self::fused_partitions`] with each folded value wrapped as a
    /// one-element partition of a new collection.
    pub fn fold_partitions<U, F>(&self, f: F) -> DistCollection<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&[T]) -> (U, u64) + Send + Sync,
    {
        DistCollection::from_partitions(
            self.fused_partitions(f)
                .into_iter()
                .map(|u| vec![u])
                .collect(),
        )
    }

    /// One-to-many element transformation.
    pub fn flat_map<U, F>(&self, f: F) -> DistCollection<U>
    where
        U: Send + Sync + 'static,
        F: Fn(&T) -> Vec<U> + Send + Sync,
    {
        self.map_region("flat_map", |p| p.iter().flat_map(&f).collect())
    }

    /// Keeps elements matching the predicate.
    pub fn filter<F>(&self, f: F) -> DistCollection<T>
    where
        T: Clone,
        F: Fn(&T) -> bool + Send + Sync,
    {
        self.map_region("filter", |p| p.iter().filter(|x| f(x)).cloned().collect())
    }

    /// Zips two collections with identical partitioning element-by-element.
    /// Spans count both sides' bytes.
    ///
    /// # Panics
    /// Panics if partition counts or sizes differ (same contract as Spark's
    /// `zip`).
    pub fn zip<U, V, F>(&self, other: &DistCollection<U>, f: F) -> DistCollection<V>
    where
        U: Send + Sync + 'static,
        V: Send + Sync + 'static,
        F: Fn(&T, &U) -> V + Send + Sync,
    {
        assert_eq!(
            self.num_partitions(),
            other.num_partitions(),
            "zip: partition count mismatch"
        );
        let partitions = self.run_region(
            "zip",
            false,
            |pi, a| part_bytes(a) + part_bytes(&other.partitions[pi]),
            |pi, a| {
                let b = &other.partitions[pi];
                assert_eq!(a.len(), b.len(), "zip: partition size mismatch");
                counted(a.iter().zip(b.iter()).map(|(x, y)| f(x, y)).collect())
            },
        );
        DistCollection { partitions }
    }

    /// Per-partition aggregation followed by an associative combine on the
    /// driver. This is the `treeAggregate` pattern the distributed solvers
    /// use; network accounting is done by their cost models (each partition
    /// ships one `U` up an aggregation tree).
    pub fn aggregate<U, SeqF, CombF>(&self, zero: U, seq: SeqF, comb: CombF) -> U
    where
        U: Send + Sync + Clone + 'static,
        SeqF: Fn(U, &T) -> U + Send + Sync,
        CombF: Fn(U, U) -> U + Send + Sync,
    {
        let partials = self.region("aggregate", |p| (p.iter().fold(zero.clone(), &seq), 1));
        partials.into_iter().fold(zero, comb)
    }

    /// Per-partition map to a partial value, then an associative reduce.
    /// Empty partitions are skipped (no `map` call, no span); returns `None`
    /// for an empty collection.
    pub fn map_reduce_partitions<U, MapF, RedF>(&self, map: MapF, red: RedF) -> Option<U>
    where
        U: Send + Sync + 'static,
        MapF: Fn(&[T]) -> U + Send + Sync,
        RedF: Fn(U, U) -> U + Send + Sync,
    {
        let partials = self.run_region(
            "map_reduce_partitions",
            true,
            |_, p| part_bytes(p),
            |_, p| (map(p), 1),
        );
        partials.into_iter().reduce(red)
    }

    /// Gathers all elements to the driver (clones).
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.count());
        for p in &self.partitions {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// First `n` elements in partition order.
    pub fn take(&self, n: usize) -> Vec<T>
    where
        T: Clone,
    {
        self.iter().take(n).cloned().collect()
    }

    /// Deterministic uniform sample of exactly `min(n, count)` elements
    /// (without replacement, proportional across partitions).
    ///
    /// Quotas round cumulatively: partition `i` draws `round(n·Cᵢ/total) −
    /// round(n·Cᵢ₋₁/total)`, where `C` is the running record count, so the
    /// quotas sum to `n` and many small partitions still share the sample.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<T>
    where
        T: Clone,
    {
        let total = self.count();
        if total == 0 || n == 0 {
            return vec![];
        }
        if n >= total {
            return self.collect();
        }
        let quota = |c: usize| (2 * n * c + total) / (2 * total);
        let mut out = Vec::with_capacity(n);
        let mut seen = 0;
        for (pi, p) in self.partitions.iter().enumerate() {
            let want = quota(seen + p.len()) - quota(seen);
            seen += p.len();
            if want == 0 {
                continue;
            }
            // Deterministic stride sampling with a seeded offset: cheap and
            // good enough for statistics collection.
            let stride = p.len() / want;
            let offset = (split_seed(seed, pi as u64) as usize) % stride.max(1);
            out.extend((0..want).map(|i| p[(offset + i * stride).min(p.len() - 1)].clone()));
        }
        out
    }

    /// Repartitions into `p` partitions (a full shuffle). The per-partition
    /// cost — cloning each source partition out for the reshard — runs in
    /// parallel and is attributed one task span per *source* partition.
    pub fn repartition(&self, p: usize) -> DistCollection<T>
    where
        T: Clone,
    {
        let cloned = self.region("repartition", |part| {
            let n = part.len() as u64;
            (part.to_vec(), n)
        });
        DistCollection::from_vec(cloned.into_iter().flatten().collect(), p)
    }

    /// Concatenates two collections, keeping both partition sets.
    pub fn union(&self, other: &DistCollection<T>) -> DistCollection<T> {
        let mut partitions = self.partitions.clone();
        partitions.extend(other.partitions.iter().cloned());
        DistCollection { partitions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::metrics::{enter_task_scope, MetricsRegistry};

    #[test]
    fn from_vec_balances_partitions() {
        let c = DistCollection::from_vec((0..10).collect::<Vec<i64>>(), 4);
        assert_eq!(c.num_partitions(), 4);
        let sizes: Vec<usize> = (0..4).map(|i| c.partition(i).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(c.count(), 10);
        assert_eq!(c.collect(), (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn empty_collection() {
        let c: DistCollection<i32> = DistCollection::from_vec(vec![], 8);
        assert_eq!(c.num_partitions(), 1);
        assert_eq!(c.count(), 0);
        assert!(c.collect().is_empty());
        assert!(c.sample(5, 1).is_empty());
    }

    #[test]
    fn more_partitions_than_elements() {
        let c = DistCollection::from_vec(vec![1, 2], 10);
        assert_eq!(c.num_partitions(), 2);
    }

    #[test]
    fn map_preserves_order_and_partitioning() {
        let c = DistCollection::from_vec((0..100).collect::<Vec<i64>>(), 7);
        let d = c.map(|x| x * 2);
        assert_eq!(d.num_partitions(), 7);
        assert_eq!(d.collect(), (0..100).map(|x| x * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn fold_partitions_produces_one_value_per_partition() {
        let c = DistCollection::from_vec((0..10).collect::<Vec<i64>>(), 4);
        let folded = c.fold_partitions(|part| (part.iter().sum::<i64>(), part.len() as u64));
        assert_eq!(folded.num_partitions(), 4);
        assert_eq!(folded.count(), 4);
        assert_eq!(folded.collect().iter().sum::<i64>(), 45);
    }

    #[test]
    fn flat_map_and_filter() {
        let c = DistCollection::from_vec(vec![1, 2, 3], 2);
        let d = c.flat_map(|&x| vec![x; x as usize]);
        assert_eq!(d.count(), 6);
        let e = d.filter(|&x| x > 1);
        assert_eq!(e.collect(), vec![2, 2, 3, 3, 3]);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let c = DistCollection::from_vec((0..9).collect::<Vec<i64>>(), 3);
        let sums = c.map_partitions(|p| vec![p.iter().sum::<i64>()]);
        assert_eq!(sums.collect(), vec![3, 12, 21]);
    }

    #[test]
    fn zip_matching_partitions() {
        let a = DistCollection::from_vec((0..10).collect::<Vec<i64>>(), 3);
        let b = a.map(|x| x * 10);
        let z = a.zip(&b, |x, y| x + y);
        assert_eq!(z.collect(), (0..10).map(|x| x * 11).collect::<Vec<i64>>());
    }

    #[test]
    #[should_panic(expected = "partition count mismatch")]
    fn zip_mismatched_panics() {
        let a = DistCollection::from_vec(vec![1, 2, 3, 4], 2);
        let b = DistCollection::from_vec(vec![1, 2, 3, 4], 4);
        let _ = a.zip(&b, |x, y| x + y);
    }

    #[test]
    fn aggregate_sums() {
        let c = DistCollection::from_vec((1..=100).collect::<Vec<i64>>(), 8);
        let s = c.aggregate(0i64, |acc, &x| acc + x, |a, b| a + b);
        assert_eq!(s, 5050);
    }

    #[test]
    fn map_reduce_partitions_max() {
        let c = DistCollection::from_vec(vec![3, 9, 1, 7, 5], 2);
        let m = c.map_reduce_partitions(|p| *p.iter().max().unwrap(), |a, b| a.max(b));
        assert_eq!(m, Some(9));
        let e: DistCollection<i32> = DistCollection::from_vec(vec![], 2);
        assert_eq!(e.map_reduce_partitions(|p| p.len(), |a, b| a + b), None);
    }

    #[test]
    fn sample_size_and_determinism() {
        let c = DistCollection::from_vec((0..1000).collect::<Vec<i64>>(), 8);
        let s1 = c.sample(100, 42);
        let s2 = c.sample(100, 42);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 100);
        // Sampling more than exists returns everything.
        assert_eq!(c.sample(5000, 1).len(), 1000);
    }

    /// Quotas round cumulatively: partitions smaller than one quota still
    /// yield exactly `n` distinct records, spread over the whole collection
    /// instead of none at all or only its head.
    #[test]
    fn sample_spreads_over_many_small_partitions() {
        for (len, parts) in [(2000, 2000), (3000, 1000)] {
            let c = DistCollection::from_vec((0..len).collect::<Vec<i64>>(), parts);
            let s = c.sample(512, 7);
            assert_eq!(s.len(), 512, "{len} records over {parts} partitions");
            assert!(s.windows(2).all(|w| w[0] < w[1]), "repeated records");
            assert!(s[0] < 8 && s[511] >= len - 10, "{}..{}", s[0], s[511]);
        }
    }

    #[test]
    fn sample_is_deterministic_per_seed_and_seed_sensitive() {
        let c = DistCollection::from_vec((0..1000).collect::<Vec<i64>>(), 4);
        // Same (n, seed) → identical samples across runs.
        for seed in [1u64, 42, 7777] {
            assert_eq!(c.sample(50, seed), c.sample(50, seed));
        }
        // Differing seeds shift the stride offsets, so at least one of a
        // batch of seeds selects a different sample (deterministically so:
        // split_seed is a fixed function).
        let base = c.sample(50, 1);
        let differing = (2u64..12).any(|seed| c.sample(50, seed) != base);
        assert!(
            differing,
            "10 distinct seeds all produced the seed-1 sample"
        );
    }

    /// Partition sizes 3, 0, 2: the empty middle partition is what
    /// `map_reduce_partitions` skips and everything else still visits.
    fn ragged() -> DistCollection<i64> {
        DistCollection::from_partitions(vec![vec![1, 2, 3], vec![], vec![4, 5]])
    }

    /// Every instrumented op as `(documented span name, the op run on `c`
    /// down to a throwaway count, expected `(partition, items_out)` per
    /// span)`; what the ops return is the other tests' business.
    /// `bytes` is 8 per `i64` in, doubled for `zip`, which reads two
    /// collections.
    type OpCase = (
        &'static str,
        fn(&DistCollection<i64>) -> usize,
        &'static [(usize, u64)],
    );
    #[rustfmt::skip]
    const OPS: [OpCase; 9] = [
        ("map", |c| c.map(|x| x + 1).count(), &[(0, 3), (1, 0), (2, 2)]),
        ("map_partitions", |c| c.map_partitions(|p| vec![p.len()]).count(), &[(0, 1), (1, 1), (2, 1)]),
        ("fused", |c| c.fold_partitions(|p| (p.len(), 2 * p.len() as u64)).count(), &[(0, 6), (1, 0), (2, 4)]),
        ("flat_map", |c| c.flat_map(|&x| vec![x, x]).count(), &[(0, 6), (1, 0), (2, 4)]),
        ("filter", |c| c.filter(|x| x % 2 == 1).count(), &[(0, 2), (1, 0), (2, 1)]),
        ("zip", |c| c.zip(c, |a, b| a + b).count(), &[(0, 3), (1, 0), (2, 2)]),
        ("aggregate", |c| c.aggregate(0, |a, _| a + 1, |a, b| a + b), &[(0, 1), (1, 1), (2, 1)]),
        ("map_reduce_partitions", |c| c.map_reduce_partitions(|p| p.len(), |a, b| a + b).unwrap_or(0), &[(0, 1), (2, 1)]),
        ("repartition", |c| c.repartition(2).count(), &[(0, 3), (1, 0), (2, 2)]),
    ];

    fn run_all_ops(scope: TaskScope) -> Vec<TaskSpan> {
        let registry = scope.registry.clone();
        let c = ragged();
        enter_task_scope(scope, || {
            for (_, run, _) in &OPS {
                let _ = run(&c);
            }
        });
        registry.spans()
    }

    #[test]
    fn every_op_runs_in_the_one_instrumented_region() {
        let r = MetricsRegistry::new();
        let spans = run_all_ops(TaskScope::new(&r, "stage", Some(7), 2));
        let sizes = [3u64, 0, 2];
        let mut next = spans.iter();
        for (seq, (op, _, expected)) in OPS.iter().enumerate() {
            // One span per visited partition, in partition order, all
            // carrying the op's one `op_seq`; consecutive ops draw
            // consecutive numbers.
            for &(partition, items_out) in *expected {
                let s = next.next().unwrap_or_else(|| panic!("{op}: span missing"));
                assert_eq!((s.op, s.op_seq, s.partition), (*op, seq as u64, partition));
                assert_eq!(s.items_in, sizes[partition], "{op} p{partition}");
                assert_eq!(s.items_out, items_out, "{op} p{partition}");
                let sides = if *op == "zip" { 2 } else { 1 };
                assert_eq!(s.bytes, 8 * sides * sizes[partition], "{op} p{partition}");
                assert_eq!((&*s.stage, s.stage_id), ("stage", Some(7)));
                // The shim hands contiguous chunks to pool threads, so a
                // partition's real lane never exceeds its own index.
                assert!(s.worker <= s.partition, "lane {} > p{partition}", s.worker);
                assert!(s.end_us >= s.start_us, "negative duration");
                assert_eq!(s.retries, 0, "no fault plan");
            }
        }
        assert!(next.next().is_none(), "more spans than visited partitions");

        // Outside a scope, operations are uninstrumented: no spans, and the
        // scope's `op_seq` counter is not drawn from.
        let scope = TaskScope::new(&r, "idle", None, 2);
        let before = r.span_count();
        for (_, run, _) in &OPS {
            let _ = run(&ragged());
        }
        assert_eq!(r.span_count(), before);
        assert_eq!(scope.next_op_seq(), 0);
    }

    /// Faults land per `(stage, op_seq, partition)`: each task's retries are
    /// the plan's decision for its key, injected stragglers really sleep,
    /// and two runs of one seed agree — so the region draws `op_seq` once
    /// per op, in op order, exactly as each op's own copy of the bracket did.
    #[test]
    fn faults_land_on_the_partitions_the_plan_names() {
        let plan = FaultSpec::new(0xFA17)
            .with_task_failures(0.4)
            .with_stragglers(0.3)
            .with_straggler_min_delay_us(300)
            .into_plan();
        let run = || {
            let r = MetricsRegistry::new();
            let scope = TaskScope::new(&r, "stage", Some(7), 2).with_faults(Some(plan.clone()));
            run_all_ops(scope)
        };
        let spans = run();
        assert_eq!(spans.len(), 26);
        let (mut retried, mut delayed) = (0, 0);
        for s in &spans {
            assert_eq!(
                s.retries,
                plan.injected_failures(7, s.op_seq, s.partition),
                "{} p{}",
                s.op,
                s.partition
            );
            retried += usize::from(s.retries > 0);
            // A straggler's delay is at least the 300 µs floor whatever its
            // natural duration; nothing else in these tiny tasks takes that.
            if plan
                .straggler_extra_us(7, s.op_seq, s.partition, 0)
                .is_some()
            {
                delayed += 1;
                assert!(s.end_us - s.start_us >= 300, "{} p{}", s.op, s.partition);
            }
        }
        assert!(
            retried > 0 && delayed > 0,
            "{retried} retried, {delayed} delayed"
        );
        let key = |s: &TaskSpan| (s.op, s.op_seq, s.partition, s.retries);
        assert_eq!(
            spans.iter().map(key).collect::<Vec<_>>(),
            run().iter().map(key).collect::<Vec<_>>()
        );
    }

    /// A panicking attempt is re-run for real, whether or not a scope is
    /// active, and an attempt that always panics fails the op with its own
    /// message after `1 + RETRY_LIMIT` tries.
    #[test]
    fn a_panicking_attempt_is_re_run_until_the_retry_limit() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let c = ragged();
        // Partition 2 (`[4, 5]`) panics on its first `fails` attempts.
        let run = |fails: u32| {
            let tries = AtomicU32::new(0);
            let out = panic::catch_unwind(AssertUnwindSafe(|| {
                c.map_partitions(|p| {
                    if p.contains(&4) && tries.fetch_add(1, Ordering::SeqCst) < fails {
                        panic!("partition {p:?} is poison");
                    }
                    p.to_vec()
                })
                .collect()
            }));
            (out, tries.into_inner())
        };
        let (out, tries) = run(1);
        assert_eq!((out.ok(), tries), (Some(vec![1, 2, 3, 4, 5]), 2));
        let (out, tries) = run(u32::MAX);
        let payload = out.expect_err("every attempt panicked");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("partition [4, 5] is poison")
        );
        assert_eq!(tries, 1 + RETRY_LIMIT);

        let r = MetricsRegistry::new();
        let (out, _) = enter_task_scope(TaskScope::new(&r, "stage", Some(7), 2), || run(1));
        assert!(out.is_ok());
        let retries: Vec<u32> = r.spans().iter().map(|s| s.retries).collect();
        assert_eq!(retries, [0, 0, 1]);
    }

    #[test]
    fn fused_partitions_and_fold_partitions_emit_identical_spans() {
        let c = ragged();
        let fold = |p: &[i64]| (p.iter().sum::<i64>(), p.len() as u64);
        let r = MetricsRegistry::new();
        let (plain, wrapped) = enter_task_scope(TaskScope::new(&r, "stage", None, 2), || {
            (c.fused_partitions(fold), c.fold_partitions(fold))
        });
        // One folded value per partition, empty ones included; the wrapper
        // only boxes each as a one-element partition.
        assert_eq!(plain, vec![6, 0, 9]);
        assert_eq!(wrapped.num_partitions(), 3);
        assert_eq!(wrapped.collect(), plain);
        let shape = |s: &TaskSpan| (s.op, s.partition, s.items_in, s.items_out, s.bytes);
        let spans = r.spans();
        let (a, b) = spans.split_at(3);
        assert!(a.iter().all(|s| s.op == "fused" && s.op_seq == 0));
        assert!(b.iter().all(|s| s.op_seq == 1));
        assert_eq!(
            a.iter().map(shape).collect::<Vec<_>>(),
            b.iter().map(shape).collect::<Vec<_>>()
        );
    }

    #[test]
    fn union_and_repartition() {
        let a = DistCollection::from_vec(vec![1, 2], 2);
        let b = DistCollection::from_vec(vec![3], 1);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.count(), 3);
        let r = u.repartition(2);
        assert_eq!(r.num_partitions(), 2);
        assert_eq!(r.collect(), vec![1, 2, 3]);
    }

    #[test]
    fn take_in_order() {
        let c = DistCollection::from_vec((0..50).collect::<Vec<i64>>(), 5);
        assert_eq!(c.take(3), vec![0, 1, 2]);
    }

    #[test]
    fn content_id_covers_all_partitions() {
        let a = DistCollection::from_vec((0..10).collect::<Vec<i64>>(), 2);
        // Clones share allocations, so their identity matches.
        assert_eq!(a.clone().content_id(), a.content_id());
        // Distinct data has distinct identity.
        let b = DistCollection::from_vec((0..10).collect::<Vec<i64>>(), 2);
        assert_ne!(a.content_id(), b.content_id());
        // A union shares `a`'s first partition allocation but must not alias
        // `a`: the id covers partition count and every partition pointer.
        let c = DistCollection::from_vec(vec![99i64], 1);
        let u = a.union(&c);
        assert_ne!(u.content_id(), a.content_id());
        // Identical unions (same constituent allocations) agree.
        assert_eq!(u.content_id(), a.union(&c).content_id());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// from_vec → collect is the identity at any partition count.
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(-1000i64..1000, 0..200), p in 1usize..16) {
            let c = DistCollection::from_vec(data.clone(), p);
            prop_assert_eq!(c.collect(), data);
        }

        /// Aggregation equals a sequential fold regardless of partitioning.
        #[test]
        fn prop_aggregate_partition_invariant(data in proptest::collection::vec(-100i64..100, 1..150), p in 1usize..12) {
            let c = DistCollection::from_vec(data.clone(), p);
            let agg = c.aggregate(0i64, |a, &x| a + x, |a, b| a + b);
            prop_assert_eq!(agg, data.iter().sum::<i64>());
        }

        /// map then collect == collect then map.
        #[test]
        fn prop_map_commutes_with_collect(data in proptest::collection::vec(-100i64..100, 0..150), p in 1usize..12) {
            let c = DistCollection::from_vec(data.clone(), p);
            let via_dist = c.map(|x| x * 3 - 1).collect();
            let via_vec: Vec<i64> = data.iter().map(|x| x * 3 - 1).collect();
            prop_assert_eq!(via_dist, via_vec);
        }

        /// Sample size is bounded and elements come from the collection.
        #[test]
        fn prop_sample_is_subset(data in proptest::collection::vec(0i64..1_000_000, 1..200), p in 1usize..10, n in 0usize..250, seed in 0u64..100) {
            let c = DistCollection::from_vec(data.clone(), p);
            let s = c.sample(n, seed);
            prop_assert_eq!(s.len(), n.min(data.len()));
            for v in &s {
                prop_assert!(data.contains(v));
            }
        }

        /// map_reduce over max equals the global max.
        #[test]
        fn prop_map_reduce_max(data in proptest::collection::vec(-1000i64..1000, 1..150), p in 1usize..12) {
            let c = DistCollection::from_vec(data.clone(), p);
            let m = c.map_reduce_partitions(|part| *part.iter().max().expect("non-empty"), |a, b| a.max(b));
            prop_assert_eq!(m, data.iter().max().copied());
        }
    }
}
