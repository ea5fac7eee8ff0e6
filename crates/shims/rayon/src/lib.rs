//! Offline shim for the `rayon` crate.
//!
//! The build container cannot reach crates.io, so this crate vendors the
//! subset of rayon's data-parallel API the workspace uses: `par_iter()` on
//! slices/`Vec`s, `par_chunks_mut`, and the `map`/`filter`/`zip`/
//! `enumerate`/`for_each`/`collect` adaptors. Work is genuinely parallel:
//! items are split into one contiguous chunk per available core and executed
//! on `std::thread::scope` threads, preserving input order in the output.
//!
//! The core count is read once per process, on first use, as real rayon
//! sizes its pool once: std's query re-reads the affinity mask and the
//! cgroup CPU quota on every call, which cost more than a single-partition
//! region's own work. Unlike real rayon there is no
//! work-stealing pool: each multi-chunk `collect`/`for_each` still spawns
//! short-lived scoped threads. That is a good fit for this workspace, where
//! parallel regions are coarse (per-partition pipeline work, GEMM row
//! panels) and already guarded against tiny inputs.

use std::sync::OnceLock;

/// Number of threads parallel regions fan out to (one per available core,
/// read once per process).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    static POOL_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Index of the calling thread within its parallel region (its chunk index),
/// or `None` on threads outside one — the same contract as rayon's
/// `current_thread_index`, which callers use for worker-lane attribution.
/// Because each region hands one contiguous chunk to each thread, an item's
/// lane never exceeds its own index within the region.
pub fn current_thread_index() -> Option<usize> {
    POOL_INDEX.with(|c| c.get())
}

/// Evaluates `f` over `items` in parallel, preserving order. A panic in `f`
/// reaches the caller with its own payload, as with real rayon.
fn parallel_process<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = n.div_ceil(threads);
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let c: Vec<I> = it.by_ref().take(chunk_len).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let results: Vec<Vec<O>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(ci, c)| {
                scope.spawn(move || {
                    POOL_INDEX.with(|cell| cell.set(Some(ci)));
                    c.into_iter().map(f).collect::<Vec<O>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// A parallel iterator over an eagerly collected list of items (references
/// into the source collection, so collection is cheap).
pub struct ParIter<I> {
    items: Vec<I>,
}

/// A parallel iterator with a fused `filter`/`map` stage applied per item at
/// drive time (`None` = filtered out).
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send> ParIter<I> {
    /// Element-wise transformation.
    pub fn map<U, G>(self, g: G) -> ParMap<I, impl Fn(I) -> Option<U> + Sync>
    where
        U: Send,
        G: Fn(I) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f: move |i| Some(g(i)),
        }
    }

    /// Keeps items matching the predicate.
    pub fn filter<P>(self, p: P) -> ParMap<I, impl Fn(I) -> Option<I> + Sync>
    where
        P: Fn(&I) -> bool + Sync,
    {
        ParMap {
            items: self.items,
            f: move |i| if p(&i) { Some(i) } else { None },
        }
    }

    /// Pairs this iterator with another, element by element (truncating to
    /// the shorter, like rayon/std `zip`).
    pub fn zip<J: Send>(self, other: ParIter<J>) -> ParIter<(I, J)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Attaches each item's index.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Runs `g` on every item in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(I) + Sync,
    {
        let _ = parallel_process(self.items, |i| g(i));
    }

    /// Evaluates in parallel and collects the results in input order.
    pub fn collect<C: FromIterator<I>>(self) -> C {
        parallel_process(self.items, |i| i).into_iter().collect()
    }
}

impl<I, U, F> ParMap<I, F>
where
    I: Send,
    U: Send,
    F: Fn(I) -> Option<U> + Sync,
{
    /// Element-wise transformation over the surviving items.
    pub fn map<V, G>(self, g: G) -> ParMap<I, impl Fn(I) -> Option<V> + Sync>
    where
        V: Send,
        G: Fn(U) -> V + Sync,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |i| f(i).map(&g),
        }
    }

    /// Keeps surviving items matching the predicate.
    pub fn filter<P>(self, p: P) -> ParMap<I, impl Fn(I) -> Option<U> + Sync>
    where
        P: Fn(&U) -> bool + Sync,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |i| f(i).filter(|u| p(u)),
        }
    }

    /// Runs `g` on every surviving item in parallel.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(U) + Sync,
    {
        let f = &self.f;
        let _ = parallel_process(self.items, |i| {
            if let Some(u) = f(i) {
                g(u)
            }
        });
    }

    /// Evaluates the stage in parallel and collects survivors in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let f = &self.f;
        parallel_process(self.items, f)
            .into_iter()
            .flatten()
            .collect()
    }
}

/// `par_iter()` over shared slices and `Vec`s.
pub trait IntoParallelRefIterator<'a> {
    /// The per-item reference type.
    type Item: Send;
    /// A parallel iterator of shared references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut()` over mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of `size`
    /// elements (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(size.max(1)).collect(),
        }
    }
}

/// Drop-in for `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_then_map() {
        let v: Vec<i64> = (0..100).collect();
        let out: Vec<i64> = v
            .par_iter()
            .filter(|x| **x % 2 == 0)
            .map(|x| x + 1)
            .collect();
        assert_eq!(out.len(), 50);
        assert_eq!(out[0], 1);
        assert_eq!(out[49], 99);
    }

    #[test]
    fn zip_then_map() {
        let a = vec![1, 2, 3];
        let b = vec![10, 20, 30];
        let out: Vec<i32> = a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect();
        assert_eq!(out, vec![11, 22, 33]);
    }

    #[test]
    fn chunks_mut_enumerate_for_each() {
        let mut data = vec![0usize; 10];
        data.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i;
            }
        });
        assert_eq!(data, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn for_each_runs_in_parallel_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let v: Vec<u64> = (0..64).collect();
        v.par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        // At least one thread participated; more when cores are available.
        assert!(!ids.lock().unwrap().is_empty());
    }

    #[test]
    fn empty_input() {
        let v: Vec<u64> = Vec::new();
        let out: Vec<u64> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        let v: Vec<u64> = (0..64).collect();
        let payload = std::panic::catch_unwind(|| {
            v.par_iter()
                .map(|&x| {
                    if x == 63 {
                        panic!("item {x} is poison")
                    } else {
                        x
                    }
                })
                .collect::<Vec<u64>>()
        })
        .expect_err("the closure panicked");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("item 63 is poison"));
    }

    #[test]
    fn current_num_threads_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn current_num_threads_is_one_value_per_process() {
        let first = super::current_num_threads();
        assert!((0..1000).all(|_| super::current_num_threads() == first));
        let seen: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(super::current_num_threads))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(seen, vec![first; 8]);
    }

    #[test]
    fn thread_index_set_inside_region_and_absent_outside() {
        assert_eq!(super::current_thread_index(), None);
        let v: Vec<usize> = (0..64).collect();
        let lanes: Vec<Option<usize>> = v
            .par_iter()
            .map(|_| super::current_thread_index())
            .collect();
        let threads = super::current_num_threads().min(64);
        if threads > 1 {
            for lane in &lanes {
                let lane = lane.expect("pool thread has an index");
                assert!(lane < threads, "lane {lane} out of range");
            }
            // Chunks are contiguous: lane indices are non-decreasing in
            // input order and an item's lane never exceeds its index.
            for (i, lane) in lanes.iter().enumerate() {
                assert!(lane.unwrap() <= i);
            }
        }
        assert_eq!(super::current_thread_index(), None);
    }
}
