//! Offline shim for the `rayon` crate.
//!
//! The build container cannot reach crates.io, so this crate vendors the
//! subset of rayon's data-parallel API the workspace uses: `par_iter()` on
//! slices/`Vec`s, `par_chunks_mut`, and the `map`/`filter`/`zip`/
//! `enumerate`/`for_each`/`collect` adaptors. Work is genuinely parallel and
//! the output keeps input order.
//!
//! The thread count is read once per process, on first use, as real rayon
//! sizes its pool once: `RAYON_NUM_THREADS` when set, else one per
//! available core (std's query re-reads the affinity mask and the cgroup
//! CPU quota on every call, which cost more than a single-partition
//! region's own work).
//!
//! A region of `n` items has `min(n, threads)` lanes of `ceil(n / threads)`
//! contiguous items. A single lane runs inline. More use one process-wide
//! pool of `threads - 1` parked workers, started on first use: the caller
//! publishes the region, wakes them and claims items from the same cursor,
//! so a region smaller than one wake-up finishes on the caller and a large
//! one uses every core. A region started while another holds the pool
//! (inside its items, or on another caller) runs inline.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of threads parallel regions fan out to: `RAYON_NUM_THREADS` when
/// set, else one per available core; read once per process.
///
/// # Panics
/// When `RAYON_NUM_THREADS` is not a whole number from 1 to 64.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let var = std::env::var_os("RAYON_NUM_THREADS");
        threads_from_env(var.as_ref().map(|v| v.to_string_lossy()).as_deref())
            .unwrap_or_else(|msg| panic!("{msg}"))
            .unwrap_or_else(cores)
    })
}

/// Parses `RAYON_NUM_THREADS`: `None` when unset, else a count from 1 to 64.
fn threads_from_env(var: Option<&str>) -> Result<Option<usize>, String> {
    let Some(var) = var else { return Ok(None) };
    match var.trim().parse() {
        Ok(n @ 1..=64) => Ok(Some(n)),
        _ => Err(format!(
            "RAYON_NUM_THREADS={var:?}: expected a whole number from 1 to 64"
        )),
    }
}

thread_local! {
    static POOL_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Lane of the item the calling thread is running, or `None` outside a
/// multi-lane region — rayon's `current_thread_index` contract, used for
/// worker-lane attribution. Item `i` is in lane `i / ceil(n / threads)`
/// whichever thread runs it, so a lane never exceeds its item's index.
pub fn current_thread_index() -> Option<usize> {
    POOL_INDEX.with(|c| c.get())
}

/// Sets the calling thread's lane; the one it replaced is put back on drop.
struct Lane(Option<usize>);

impl Lane {
    fn enter(lane: Option<usize>) -> Lane {
        Lane(POOL_INDEX.with(|c| c.replace(lane)))
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        POOL_INDEX.with(|c| c.set(self.0));
    }
}

/// A published region as the pool's threads see it.
trait Region: Sync {
    /// Claims and runs items until none is left unclaimed.
    fn run_items(&self);
}

/// One item of a region: its input until claimed, then its output or the
/// panic it raised.
type Slot<I, O> = Mutex<(Option<I>, Option<std::thread::Result<O>>)>;

/// One region's items, each claimed once from `next`.
struct Items<'f, I, O, F> {
    f: &'f F,
    chunk_len: usize,
    next: AtomicUsize,
    slots: Vec<Slot<I, O>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<I: Send, O: Send, F: Fn(I) -> O + Sync> Region for Items<'_, I, O, F> {
    fn run_items(&self) {
        let mut i = self.next.fetch_add(1, Ordering::Relaxed);
        while let Some(slot) = self.slots.get(i) {
            let item = lock(slot).0.take().expect("each item is claimed once");
            let out = panic::catch_unwind(AssertUnwindSafe(|| {
                let _lane = Lane::enter(Some(i / self.chunk_len));
                (self.f)(item)
            }));
            lock(slot).1 = Some(out);
            i = self.next.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The process-wide workers and the one region they may hold.
#[derive(Default)]
struct Pool {
    /// Set while a caller's region holds the pool.
    busy: AtomicBool,
    state: Mutex<Published>,
    /// Workers wait here for a region.
    wake: Condvar,
    /// The caller waits here for the last worker to let go of its region.
    idle: Condvar,
}

#[derive(Default)]
struct Published {
    region: Option<&'static dyn Region>,
    /// Workers holding `region`.
    holders: usize,
}

impl Pool {
    /// The pool, its `current_num_threads() - 1` workers started on first
    /// use. A worker that fails to start leaves its share to the others.
    fn get() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pool: &'static Pool = Box::leak(Box::default());
            for i in 1..current_num_threads() {
                let worker = std::thread::Builder::new().name(format!("rayon-shim-{i}"));
                let _ = worker.spawn(move || pool.work());
            }
            pool
        })
    }

    /// A worker: waits for a region, runs its items, lets go of it. One
    /// that wakes to an exhausted region finds nothing to claim.
    fn work(&self) {
        let mut st = lock(&self.state);
        loop {
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            if let Some(region) = st.region {
                st.holders += 1;
                drop(st);
                region.run_items();
                st = lock(&self.state);
                st.holders -= 1;
                if st.holders == 0 {
                    self.idle.notify_one();
                }
            }
        }
    }

    /// Runs `region` on the caller and whichever workers wake in time.
    fn run(&self, region: &dyn Region) {
        /// Retracts the region and waits out its holders, also on unwind.
        struct Retract<'p>(&'p Pool);
        impl Drop for Retract<'_> {
            fn drop(&mut self) {
                let mut st = lock(&self.0.state);
                st.region = None;
                while st.holders > 0 {
                    st = self.0.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                self.0.busy.store(false, Ordering::Release);
            }
        }
        // SAFETY: the region is only reachable through `Published::region`,
        // and a worker only uses it while counted in `holders`. `Retract`
        // clears `region` and waits until `holders` is 0 before this
        // function returns or unwinds, so no thread holds the reference
        // once the borrow it was made from ends.
        let erased: &'static dyn Region = unsafe { std::mem::transmute(region) };
        let _retract = Retract(self);
        lock(&self.state).region = Some(erased);
        self.wake.notify_all();
        region.run_items();
    }
}

/// Evaluates `f` over `items` in parallel, preserving order. A panic in `f`
/// reaches the caller with its own payload (the first item's, in input
/// order), as with real rayon.
fn parallel_process<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        let _lane = Lane::enter(None);
        return items.into_iter().map(f).collect();
    }
    let region = Items {
        f: &f,
        chunk_len: n.div_ceil(threads),
        next: AtomicUsize::new(0),
        slots: items
            .into_iter()
            .map(|i| Mutex::new((Some(i), None)))
            .collect(),
    };
    // A region that finds the pool held runs all its items on the calling
    // thread; so does every region started inside a pooled region's item.
    let pool = Pool::get();
    if pool.busy.swap(true, Ordering::Acquire) {
        region.run_items();
    } else {
        pool.run(&region);
    }
    let outputs = region.slots.into_iter().map(|slot| {
        let (_, out) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        out.expect("every item runs before its region returns")
    });
    outputs
        .collect::<std::thread::Result<Vec<O>>>()
        .unwrap_or_else(|payload| panic::resume_unwind(payload))
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
        let _ = parallel_process(self.items, g);
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
    use std::sync::atomic::Ordering;

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

    /// The lane `current_thread_index` reports for each item of an
    /// `n`-item region run from the calling thread.
    fn lanes(n: usize) -> Vec<Option<usize>> {
        let v: Vec<usize> = (0..n).collect();
        v.par_iter()
            .map(|_| super::current_thread_index())
            .collect()
    }

    /// Item `i`'s lane is its static chunk, `i / ceil(n / threads)`.
    fn assert_static_lanes(n: usize, lanes: &[Option<usize>]) {
        let threads = super::current_num_threads().min(n);
        for (i, lane) in lanes.iter().enumerate() {
            let want = (threads > 1).then(|| i / n.div_ceil(threads));
            assert_eq!(*lane, want, "item {i} of {n}");
        }
    }

    #[test]
    fn lanes_are_static_chunks_pooled_inline_and_nested() {
        for n in [1, 2, 3, 7, 64, 1000] {
            assert_static_lanes(n, &lanes(n));
            // Inline fallback: the pool is held by another caller.
            let pool = super::Pool::get();
            while pool.busy.swap(true, Ordering::Acquire) {
                std::thread::yield_now();
            }
            let inline = lanes(n);
            pool.busy.store(false, Ordering::Release);
            assert_static_lanes(n, &inline);
            // Nested: a region started inside a chunk runs inline and
            // reports its own chunks, then the outer lane is back.
            let outer: Vec<usize> = (0..4).collect();
            let nested: Vec<(Vec<Option<usize>>, Option<usize>)> = outer
                .par_iter()
                .map(|_| (lanes(n), super::current_thread_index()))
                .collect();
            for (i, (inner, after)) in nested.iter().enumerate() {
                assert_static_lanes(n, inner);
                assert_eq!(*after, lanes(4)[i], "outer lane restored");
            }
        }
    }

    #[test]
    fn concurrent_callers_finish_with_sequential_outputs() {
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                scope.spawn(move || {
                    for r in 0..500u64 {
                        let v: Vec<u64> = (0..(r % 97) + caller).collect();
                        let out: Vec<u64> = v.par_iter().map(|x| x * 3 + r).collect();
                        let want: Vec<u64> = v.iter().map(|x| x * 3 + r).collect();
                        assert_eq!(out, want, "caller {caller} region {r}");
                    }
                });
            }
        });
    }

    #[test]
    fn thread_count_parses_from_rayon_num_threads() {
        use super::threads_from_env as parse;
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some("1")), Ok(Some(1)));
        assert_eq!(parse(Some("8")), Ok(Some(8)));
        assert_eq!(parse(Some(" 4 ")), Ok(Some(4)));
        assert_eq!(parse(Some("64")), Ok(Some(64)));
        for bad in ["0", "65", "100000", "-1", "four", "", "2.5"] {
            let msg = parse(Some(bad)).expect_err(bad);
            assert!(
                msg.starts_with("RAYON_NUM_THREADS=") && msg.contains("from 1 to 64"),
                "{msg}"
            );
        }
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
