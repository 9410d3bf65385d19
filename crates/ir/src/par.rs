//! Order-preserving parallel map on one persistent worker pool.
//!
//! The one parallel primitive the workspace needs: a search step expands
//! one entry of each selected frontier and the auditor re-verifies a list
//! of classes, each as `items → results` where the results must come back
//! in input order so outcomes never depend on thread scheduling.
//! [`map_in_order`] splits the items into one contiguous chunk per worker,
//! runs the first chunk on the calling thread and hands every other chunk
//! to a process-wide pool of persistent workers, then concatenates the
//! chunk results in order.
//!
//! The pool is std-only and spawns lazily: a chunk goes to a parked worker
//! when one is free and to a newly spawned worker otherwise, so the pool
//! never holds more workers than the jobs that have been in flight at once
//! (a 2-thread search step wakes one parked worker and spawns nothing).
//! Idle workers block on a [`Condvar`] and burn no CPU, and each keeps its
//! thread-local scratch buffers warm across calls. Jobs are owned `'static`
//! closures — items move into the map and results move out — so the pool
//! needs no lifetime tricks. A call made from inside a pool job runs
//! inline, so a job never waits on the queue it is part of. A panicking
//! item leaves its worker alive and re-raises on the caller.
//!
//! # Examples
//!
//! ```
//! let squares = quartz_ir::par::map_in_order(vec![1, 2, 3, 4, 5], 2, |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Number of hardware threads available to this process (at least 1) —
/// what a thread count of 0 means to [`map_in_order`].
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps every item through `f` on up to `threads` workers (0 = one per
/// [available](available_threads) hardware thread) and returns the results
/// **in input order**. Runs inline when one worker or one item suffices,
/// and when called from inside another call's pool job. Otherwise the
/// calling thread maps the first chunk itself while the process-wide pool
/// maps the rest.
///
/// # Panics
///
/// Propagates a panic from `f` on the calling thread's chunk; a panic on a
/// pool worker's chunk re-raises here as "parallel map worker panicked".
pub fn map_in_order<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(T) -> R + Send + Sync + 'static,
{
    static POOL: Pool = Pool::new();
    POOL.map_in_order(items, threads, f)
}

/// A queued chunk. Running it maps the chunk and returns its [`Reply`].
type Job = Box<dyn FnOnce() -> Reply + Send>;

/// A finished chunk's report to its caller, sent only once its worker
/// counts as free again, so a caller that has heard back never finds the
/// worker still busy.
type Reply = Box<dyn FnOnce() + Send>;

thread_local! {
    /// Set on pool workers, so a nested [`map_in_order`] runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A pool of persistent workers fed from one job queue.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled once per queued job; parked workers wait on it.
    work: Condvar,
}

struct PoolState {
    queue: VecDeque<Job>,
    /// Workers spawned so far; they never exit.
    workers: usize,
    /// Workers not running a job. Every queued job is owed one of them,
    /// so `queue.len() <= free` always holds.
    free: usize,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                workers: 0,
                free: 0,
            }),
            work: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // No code panics while holding the lock (jobs run outside it), so a
        // poisoned state is still consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn map_in_order<T, R, F>(&'static self, items: Vec<T>, threads: usize, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let threads = if threads == 0 {
            available_threads()
        } else {
            threads
        };
        let threads = threads.min(items.len()).max(1);
        if threads == 1 || IN_WORKER.get() {
            return items.into_iter().map(f).collect();
        }
        let len = items.len();
        let chunk_len = len.div_ceil(threads);
        let mut items = items.into_iter();
        let first: Vec<T> = items.by_ref().take(chunk_len).collect();
        let f = Arc::new(f);
        let mut pending = Vec::with_capacity(threads - 1);
        loop {
            let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            let (tx, rx) = mpsc::channel();
            let f = Arc::clone(&f);
            self.submit(Box::new(move || {
                let out = panic::catch_unwind(AssertUnwindSafe(|| {
                    chunk.into_iter().map(&*f).collect::<Vec<R>>()
                }));
                // Every item (and this handle on `f`) is dropped before the
                // caller hears back, so it can reclaim what they shared.
                drop(f);
                Box::new(move || {
                    // A caller whose own chunk panicked no longer listens.
                    let _ = tx.send(out.ok());
                })
            }));
            pending.push(rx);
        }
        let mut out = Vec::with_capacity(len);
        out.extend(first.into_iter().map(&*f));
        for rx in pending {
            let chunk = rx.recv().ok().flatten();
            out.extend(chunk.expect("parallel map worker panicked"));
        }
        out
    }

    /// Queues a job for a free worker, spawning one when every worker is
    /// busy or already owed a queued job.
    fn submit(&'static self, job: Job) {
        let mut state = self.lock();
        state.queue.push_back(job);
        if state.queue.len() <= state.free {
            drop(state);
            self.work.notify_one();
            return;
        }
        state.workers += 1;
        state.free += 1;
        drop(state);
        let spawned = std::thread::Builder::new()
            .name("quartz-par".into())
            .spawn(move || self.work_loop());
        if let Err(error) = spawned {
            let mut state = self.lock();
            state.workers -= 1;
            state.free -= 1;
            drop(state);
            panic!("failed to spawn a parallel map worker: {error}");
        }
    }

    fn work_loop(&self) {
        IN_WORKER.set(true);
        let mut state = self.lock();
        loop {
            let Some(job) = state.queue.pop_front() else {
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            state.free -= 1;
            drop(state);
            // A panic inside the map is caught in the job and reported in
            // its reply, so the worker lives on.
            let reply = job();
            self.lock().free += 1;
            reply();
            state = self.lock();
        }
    }

    #[cfg(test)]
    fn workers(&self) -> usize {
        self.lock().workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// A pool of its own, so worker counts and thread ids are not shared
    /// with other tests running at the same time. Its workers stay parked
    /// for the rest of the test process, like the global pool's.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [0, 1, 2, 3, 7] {
            assert_eq!(map_in_order(items.clone(), threads, |x| x * 2), expected);
        }
    }

    #[test]
    fn single_thread_and_empty_inputs_work() {
        assert_eq!(map_in_order(vec![7usize], 1, |x| x + 1), vec![8]);
        assert_eq!(map_in_order(vec![7usize], 4, |x| x + 1), vec![8]);
        let empty: Vec<usize> = Vec::new();
        assert!(map_in_order(empty, 4, |x| x + 1).is_empty());
    }

    #[test]
    fn thread_cap_is_respected_logically() {
        let items: Vec<usize> = (0..17).collect();
        let workers = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let seen_by = Arc::clone(&workers);
        let out = map_in_order(items, 4, move |x| {
            seen_by.lock().unwrap().insert(thread::current().id());
            x * x
        });
        assert_eq!(out.len(), 17);
        assert_eq!(out[16], 256);
        assert!(workers.lock().unwrap().len() <= 4);
    }

    #[test]
    fn owned_results_stay_in_input_order_on_a_private_pool() {
        let pool = private_pool();
        let items: Vec<String> = (0..11).map(|i| "x".repeat(i)).collect();
        for threads in [0, 1, 2, 3, 7] {
            let lens = pool.map_in_order(items.clone(), threads, |s| s.len());
            assert_eq!(lens, (0..11).collect::<Vec<_>>(), "threads = {threads}");
        }
        // Seven chunks were the most in flight at once.
        assert!(pool.workers() <= 6);
    }

    #[test]
    fn a_panicking_item_reraises_on_the_caller_and_the_pool_survives() {
        let pool = private_pool();
        let caught = panic::catch_unwind(|| {
            pool.map_in_order(vec![0, 1], 2, |x: usize| {
                assert!(x == 0, "item {x} fails");
                x
            })
        });
        let payload = caught.expect_err("the worker's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("parallel map worker panicked"),
            "got {message:?}"
        );
        assert_eq!(pool.map_in_order(vec![1, 2], 2, |x| x * 10), vec![10, 20]);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn consecutive_calls_reuse_the_same_worker() {
        let pool = private_pool();
        let ids = |_: usize| thread::current().id();
        let first: Vec<ThreadId> = pool.map_in_order(vec![0, 1], 2, ids);
        let second: Vec<ThreadId> = pool.map_in_order(vec![0, 1], 2, ids);
        // The caller runs the first chunk, one worker the second.
        assert_eq!(first[0], thread::current().id());
        assert_ne!(first[1], thread::current().id());
        assert_eq!(first[1], second[1]);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn workers_never_outnumber_the_jobs_in_flight() {
        let pool = private_pool();
        // Two items are one job beside the caller's chunk, however many
        // threads are asked for.
        assert_eq!(pool.map_in_order(vec![1, 2], 10_000, |x| x + 1), vec![2, 3]);
        assert_eq!(pool.workers(), 1);
        // Five items at three threads are two jobs beside the caller's.
        let out = pool.map_in_order(vec![1, 2, 3, 4, 5], 3, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4, 5, 6]);
        assert!((1..=2).contains(&pool.workers()));
        pool.map_in_order(vec![1, 2], 10_000, |x| x + 1);
        assert!((1..=2).contains(&pool.workers()));
    }

    #[test]
    fn a_nested_call_runs_inline_on_its_worker() {
        let pool = private_pool();
        let out = pool.map_in_order(vec![0, 1], 2, |_| {
            let outer = thread::current().id();
            let inner = map_in_order(vec![0, 1, 2, 3], 4, |_| thread::current().id());
            (outer, inner)
        });
        // Item 1 ran on a pool worker, so its nested map never left it.
        let (outer, inner) = &out[1];
        assert_ne!(*outer, thread::current().id());
        assert!(inner.iter().all(|id| id == outer));
        assert_eq!(pool.workers(), 1);
    }
}
