//! Offline stand-in for the real `rayon` crate.
//!
//! The workspace builds without network access, so this shim implements the slice of the
//! rayon API the codebase uses — `slice.par_iter().map(f).collect()`,
//! `range.into_par_iter().map(f).collect()` and scoped [`ThreadPool`]s — as one parallel map
//! on [`std::thread::scope`]:
//!
//! * a map of `n` items at width `w` runs on the calling thread and `min(w, n) − 1` scoped
//!   threads, which pull `(index, item)` pairs from one shared queue, so a slow item never
//!   holds up the items queued behind it;
//! * each thread keeps its `(index, result)` pairs and the caller sorts them back, so output
//!   order matches input order exactly as with real rayon;
//! * a map called from inside an item of a map that runs on more than one thread runs inline
//!   on that item's thread, so nested maps never multiply threads;
//! * a panic in an item is re-raised on the caller once every thread has stopped;
//! * the width is the installed [`ThreadPool`]'s, else the `P2PGRID_POOL_THREADS` environment
//!   variable, else the machine's available parallelism.  `1` runs every map inline on the
//!   calling thread; results are identical at any width, which CI pins by running the test
//!   suite at `1` and `8`.
//!
//! Swap the path dependency for the crates.io release to get a persistent work-stealing pool
//! and the full combinator set; call sites need no changes.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the default width (`>= 1`; `1` means every parallel map
/// runs inline on the calling thread, the fully sequential mode CI pins against `8`).
pub const POOL_THREADS_ENV: &str = "P2PGRID_POOL_THREADS";

/// The import surface (`use rayon::prelude::*`) mirroring rayon's prelude.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

thread_local! {
    /// The width set on this thread: by [`ThreadPool::install`], or `1` while the thread runs
    /// items of a map that runs on more than one thread.  `None` means the default width.
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Sets the calling thread's width and restores the previous one when dropped, unwinding
/// included.
struct WidthGuard(Option<usize>);

impl WidthGuard {
    fn set(width: usize) -> Self {
        WidthGuard(WIDTH.replace(Some(width)))
    }
}

impl Drop for WidthGuard {
    fn drop(&mut self) {
        WIDTH.set(self.0);
    }
}

/// The width when no pool is installed: `P2PGRID_POOL_THREADS` if it parses (clamped to at
/// least 1), otherwise the machine's available parallelism.  Read once per process.
fn default_width() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(POOL_THREADS_ENV)
            .ok()
            .and_then(|value| value.trim().parse::<usize>().ok())
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
                |n| n.max(1),
            )
    })
}

/// Number of threads a parallel map started here may use: the installed pool's width inside
/// [`ThreadPool::install`], `1` inside an item of a map that runs on more than one thread,
/// otherwise the default width.
pub fn current_num_threads() -> usize {
    WIDTH.get().unwrap_or_else(default_width)
}

/// Map `f` over `items` at the current width, preserving input order in the output.
///
/// The calling thread and `width − 1` scoped threads pull `(index, item)` pairs from one
/// queue, one item at a time, and run every item at width 1.  A panic in an item stops only
/// the thread it ran on; the scope waits for the others before the payload is re-raised here.
fn parallel_map<T, U, F, C>(items: Vec<T>, f: F) -> C
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
    C: FromIterator<U>,
{
    let threads = current_num_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let drain = || {
        let _inline = WidthGuard::set(1);
        // The lock guard dies with each `next()` call, so `f` runs unlocked.
        std::iter::from_fn(|| queue.lock().expect("map queue poisoned").next())
            .map(|(index, item)| (index, f(item)))
            .collect::<Vec<_>>()
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(pairs) => done.extend(pairs),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Error returned by [`ThreadPoolBuilder::build`] (mirrors rayon's opaque error type; this
/// shim's build cannot fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring rayon's `ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the width.  `0` (rayon convention) means the default width, i.e. the
    /// `P2PGRID_POOL_THREADS` override or the machine's available parallelism; `1` builds a
    /// pool whose parallel maps run inline on the calling thread.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = match self.num_threads {
            0 => default_width(),
            n => n,
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A width for the parallel maps run inside [`install`](Self::install).
///
/// Unlike real rayon, the pool owns no threads: `install` runs the closure on the *calling*
/// thread with this width set, and each parallel map inside starts its own scoped threads.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's width set for every parallel map inside.  The previous width
    /// comes back when `f` returns or panics.
    pub fn install<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let _installed = WidthGuard::set(self.num_threads);
        f()
    }

    /// This pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// A not-yet-mapped parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// The subset of rayon's `ParallelIterator` used by this workspace.
pub trait ParallelIterator: Sized {
    /// Item type produced by the iterator.
    type Item: Send;

    /// Evaluate the pipeline in parallel and hand the results, in input order, to `C`.
    fn collect<C: FromIterator<Self::Item>>(self) -> C;

    /// Map every item through `f` (evaluated in parallel at `collect` time).
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync>(self, f: F) -> Mapped<Self, F> {
        Mapped { inner: self, f }
    }
}

/// A `map` stage stacked on another parallel iterator.
pub struct Mapped<I, F> {
    inner: I,
    f: F,
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;
    fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

impl<I, U, F> ParallelIterator for Mapped<I, F>
where
    I: ParallelIterator,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    type Item = U;
    fn collect<C: FromIterator<U>>(self) -> C {
        parallel_map(self.inner.collect(), self.f)
    }
}

/// Mirror of rayon's `IntoParallelIterator` for owned collections and ranges.
pub trait IntoParallelIterator {
    /// Item type of the produced iterator.
    type Item: Send;
    /// The produced parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = ParIter<$t>;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter {
                    items: self.collect(),
                }
            }
        }
    )*};
}

impl_range_into_par_iter!(usize, u32, u64, i32, i64);

/// Mirror of rayon's `IntoParallelRefIterator`: `.par_iter()` on slices and arrays.
pub trait IntoParallelRefIterator<'a> {
    /// Item type of the produced iterator (a shared reference).
    type Item: Send;
    /// The produced parallel iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Iterate the collection by reference, in parallel.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<&'a T>;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<&'a T>;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares.len(), 1000);
        for (i, &sq) in squares.iter().enumerate() {
            assert_eq!(sq, i * i);
        }
    }

    #[test]
    fn par_iter_on_slices_and_arrays() {
        let arr = [1u64, 2, 3, 4, 5];
        let doubled: Vec<u64> = arr.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
        let v = vec![10u32, 20, 30];
        let s: Vec<u32> = v.par_iter().map(|&x| x + 1).collect();
        assert_eq!(s, vec![11, 21, 31]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let one: Vec<u8> = vec![7u8].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let totals: Vec<u64> = (0..16u64)
            .into_par_iter()
            .map(|i| {
                (0..100u64)
                    .into_par_iter()
                    .map(|j| i * j)
                    .collect::<Vec<_>>()
                    .iter()
                    .sum()
            })
            .collect();
        for (i, &total) in totals.iter().enumerate() {
            assert_eq!(total, i as u64 * (99 * 100 / 2));
        }
    }

    #[test]
    fn borrows_of_caller_stack_are_sound() {
        let data: Vec<u64> = (0..500).collect();
        let offset = 17u64;
        let shifted: Vec<u64> = data.par_iter().map(|&x| x + offset).collect();
        assert_eq!(shifted[499], 499 + 17);
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let work = |n: usize| -> Vec<u64> {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            pool.install(|| {
                (0..256u64)
                    .into_par_iter()
                    .map(|x| x.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17))
                    .collect()
            })
        };
        let one = work(1);
        let four = work(4);
        let eight = work(8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn installed_pool_is_current() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn a_panic_inside_install_restores_the_default_width() {
        let default = current_num_threads();
        let pool = ThreadPoolBuilder::new()
            .num_threads(default + 5)
            .build()
            .unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("boom"));
        }));
        assert!(outcome.is_err());
        assert_eq!(current_num_threads(), default);
    }

    #[test]
    fn a_width_2_map_runs_at_most_two_items_at_once() {
        // The bound holds in every interleaving; the sleep only makes the threads' items
        // overlap, so a third item in flight would be seen.  The calling thread counts as one
        // of the two.
        let in_flight = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            let _: Vec<()> = (0..32usize)
                .into_par_iter()
                .map(|_| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    most.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                })
                .collect();
        });
        let most = most.load(Ordering::SeqCst);
        assert!(most <= 2, "{most} items ran at once on a width-2 pool");
    }

    #[test]
    fn items_of_a_multi_thread_map_run_nested_maps_inline() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let items: Vec<(usize, bool)> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| {
                    let me = std::thread::current().id();
                    let nested: Vec<std::thread::ThreadId> = (0..16usize)
                        .into_par_iter()
                        .map(|_| std::thread::current().id())
                        .collect();
                    (current_num_threads(), nested.iter().all(|&id| id == me))
                })
                .collect()
        });
        for (width, inline) in items {
            assert_eq!(width, 1, "an item of a 4-wide map saw width {width}");
            assert!(inline, "a nested map left its item's thread");
        }
    }

    #[test]
    fn skewed_workloads_use_multiple_workers() {
        // One item is vastly more expensive than the rest; with dynamic chunks and stealing
        // the cheap items must not all serialise behind it on a single worker.  The
        // expensive item *blocks* (rather than spins) until a cheap item has run on a
        // different thread: blocking yields the CPU, so even on a one-hardware-thread host
        // the pool's other workers get scheduled and the property is deterministic, not a
        // race against the OS scheduler.  The timeout only bounds a genuine failure.
        use std::sync::{Arc, Condvar, Mutex};
        use std::time::Duration;
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let gate: Arc<(Mutex<Vec<std::thread::ThreadId>>, Condvar)> =
            Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let threads_used = pool.install(|| {
            let ids: Vec<std::thread::ThreadId> = (0..64usize)
                .into_par_iter()
                .map(|i| {
                    let me = std::thread::current().id();
                    let (seen, woken) = &*gate;
                    if i == 0 {
                        // Stay "expensive" until some cheap item finishes elsewhere.
                        let deadline = std::time::Instant::now() + Duration::from_secs(10);
                        let mut seen = seen.lock().unwrap();
                        while !seen.iter().any(|&id| id != me) {
                            let left =
                                deadline.saturating_duration_since(std::time::Instant::now());
                            if left.is_zero() {
                                break;
                            }
                            let (guard, _) = woken.wait_timeout(seen, left).unwrap();
                            seen = guard;
                        }
                    } else {
                        seen.lock().unwrap().push(me);
                        woken.notify_all();
                    }
                    me
                })
                .collect();
            ids.iter().collect::<std::collections::HashSet<_>>().len()
        });
        assert!(
            threads_used >= 2,
            "expected >= 2 distinct worker threads, saw {threads_used}"
        );
    }

    #[test]
    fn panics_propagate_after_batch_completes() {
        static COMPLETED: AtomicUsize = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                let _: Vec<usize> = (0..64usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 13 {
                            panic!("boom");
                        }
                        COMPLETED.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                    .collect();
            });
        }));
        assert!(outcome.is_err(), "panic in a mapped closure must propagate");
        assert!(COMPLETED.load(Ordering::Relaxed) >= 1);
    }
}
