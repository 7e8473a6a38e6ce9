//! # ic-pool — offline-safe scoped thread pool with work-stealing deques
//!
//! The workspace's offline dependency policy (README.md) rules out `rayon`;
//! this crate supplies the part of it the hot paths actually need:
//!
//! * **A global lazily-spawned worker pool.** Workers are started on first
//!   use and live for the process lifetime. Each worker owns a deque; tasks
//!   are injected round-robin and idle workers *steal* from the front of
//!   their siblings' deques while owners pop from the back.
//! * **Scoped spawning.** [`scope`] lets tasks borrow from the caller's
//!   stack: the scope blocks until every spawned task finished, so the
//!   borrows cannot dangle. Panics inside tasks are captured and re-thrown
//!   from the scope on the calling thread.
//! * **Data-parallel helpers.** [`par_map`] and [`par_chunks`] split a slice
//!   into chunks, fan the chunks out and reassemble results **in input
//!   order**, so a pure function gives bit-identical output at every thread
//!   count — the determinism contract `ic-core` relies on.
//! * **Thread-count control.** `IC_POOL_THREADS` overrides the default
//!   (`std::thread::available_parallelism`); the value `1` short-circuits
//!   every helper into plain sequential execution on the calling thread —
//!   no worker threads are involved, which keeps debug runs and
//!   `ic-testkit` shrinking deterministic. [`with_threads`] overrides the
//!   count for a closure (used by tests and the scaling benchmarks).
//!
//! Nested parallelism is safe but not amplified: a task that is already
//! running on a pool worker executes nested scopes inline, which bounds the
//! worker count and cannot deadlock.
//!
//! The pool cooperates with `ic-obs`:
//! [`Scope::spawn`] captures the caller's observation context and re-enters
//! it on the executing worker, so spans and metrics recorded inside tasks
//! land in the caller's report, and each non-sequential scope records
//! `pool.*` counter deltas (tasks, steals, idle time) at exit. Lifetime
//! worker statistics are also available directly via [`pool_stats`].
//!
//! ```
//! let squares = ic_pool::par_map(&[1i64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ic_obs as obs;

/// Environment variable overriding the worker count. `1` means fully
/// sequential; `0` or unset means "auto" (`available_parallelism`).
pub const THREADS_ENV: &str = "IC_POOL_THREADS";

/// Upper bound on pool workers, a backstop against absurd env values.
const MAX_WORKERS: usize = 64;

/// A type-erased unit of work. Lifetimes are erased by [`Scope::spawn`];
/// soundness comes from [`scope`] joining before its borrows expire.
type Job = Box<dyn FnOnce() + Send + 'static>;

// ---------------------------------------------------------------------------
// Thread-count resolution

thread_local! {
    /// Set while the thread is a pool worker executing a job: nested scopes
    /// run inline instead of re-entering the pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Per-thread override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide default thread count: `IC_POOL_THREADS` if set to a
/// positive value, otherwise `std::thread::available_parallelism()`.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        let auto = std::thread::available_parallelism().map_or(1, usize::from);
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) | Err(_) => auto,
                Ok(n) => n.min(MAX_WORKERS),
            },
            Err(_) => auto.min(MAX_WORKERS),
        }
    })
}

/// The thread count in effect on this thread: the innermost
/// [`with_threads`] override, or [`configured_threads`]. Pool workers
/// report 1 (nested parallelism runs inline).
pub fn current_threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(configured_threads)
        .max(1)
}

/// Runs `f` with the effective thread count set to `n` on this thread
/// (clamped to `1..=64`). Restores the previous override afterwards, also
/// on panic. `n = 1` forces sequential execution.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.clamp(1, MAX_WORKERS))));
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// The worker pool

/// One worker's deque. The owner pops from the back (LIFO, cache-warm);
/// thieves and the injector operate on the front (FIFO, oldest first).
struct WorkerQueue {
    jobs: Mutex<VecDeque<Job>>,
}

/// Lifetime execution counters of one worker thread.
#[derive(Default)]
struct WorkerCounters {
    /// Jobs this worker executed (own deque plus steals).
    tasks: AtomicU64,
    /// Of those, jobs stolen from a sibling's deque.
    steals: AtomicU64,
    /// Times this worker parked waiting for work.
    idle_parks: AtomicU64,
    /// Total nanoseconds spent parked.
    idle_nanos: AtomicU64,
}

struct Pool {
    queues: Vec<Arc<WorkerQueue>>,
    /// Number of worker threads actually running (`<= queues.len()`).
    live: AtomicUsize,
    /// Guards worker spawning.
    spawn_lock: Mutex<()>,
    /// Round-robin injection cursor.
    rr: AtomicUsize,
    /// Sleep/wake machinery for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    /// Per-worker lifetime stats, indexed like `queues`.
    worker_stats: Vec<WorkerCounters>,
    /// Jobs injected into worker deques (scope spawns that did not run inline).
    injected: AtomicU64,
    /// Jobs executed by scope-calling threads helping drain (`find_job(None)`).
    helper_tasks: AtomicU64,
}

/// Snapshot of one worker's lifetime counters, from [`pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (also its deque index and `ic-pool-<n>` thread name).
    pub worker: usize,
    /// Jobs this worker executed (own deque plus steals).
    pub tasks: u64,
    /// Of those, jobs stolen from a sibling's deque.
    pub steals: u64,
    /// Times this worker parked waiting for work.
    pub idle_parks: u64,
    /// Total time this worker spent parked.
    pub idle: Duration,
}

/// Snapshot of the pool's lifetime statistics, from [`pool_stats`].
///
/// All values are process-lifetime totals (workers are never torn down),
/// so meaningful measurements take a delta between two snapshots. Every
/// quantity here is execution-dependent — scheduling decides which worker
/// runs or steals what — which is exactly why the corresponding `pool.*`
/// metrics are excluded from `ic-obs` determinism comparisons.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Number of live worker threads.
    pub live_workers: usize,
    /// Jobs injected into worker deques since process start.
    pub injected: u64,
    /// Jobs executed inline by scope-calling threads helping drain.
    pub helper_tasks: u64,
    /// Per-worker counters for the live workers.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Total jobs executed (workers plus helping callers).
    pub fn total_tasks(&self) -> u64 {
        self.helper_tasks + self.workers.iter().map(|w| w.tasks).sum::<u64>()
    }

    /// Total jobs that were stolen from a sibling deque.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total time workers spent parked, summed across workers.
    pub fn total_idle(&self) -> Duration {
        self.workers.iter().map(|w| w.idle).sum()
    }
}

/// Snapshots the pool's lifetime worker statistics. Cheap (a few relaxed
/// atomic loads); safe to call at any time, including with no live workers.
pub fn pool_stats() -> PoolStats {
    let p = pool();
    let live = p.live.load(Ordering::Acquire);
    PoolStats {
        live_workers: live,
        injected: p.injected.load(Ordering::Relaxed),
        helper_tasks: p.helper_tasks.load(Ordering::Relaxed),
        workers: (0..live)
            .map(|i| {
                let w = &p.worker_stats[i];
                WorkerStats {
                    worker: i,
                    tasks: w.tasks.load(Ordering::Relaxed),
                    steals: w.steals.load(Ordering::Relaxed),
                    idle_parks: w.idle_parks.load(Ordering::Relaxed),
                    idle: Duration::from_nanos(w.idle_nanos.load(Ordering::Relaxed)),
                }
            })
            .collect(),
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queues: (0..MAX_WORKERS)
            .map(|_| {
                Arc::new(WorkerQueue {
                    jobs: Mutex::new(VecDeque::new()),
                })
            })
            .collect(),
        live: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
        rr: AtomicUsize::new(0),
        idle: Mutex::new(()),
        wake: Condvar::new(),
        worker_stats: (0..MAX_WORKERS)
            .map(|_| WorkerCounters::default())
            .collect(),
        injected: AtomicU64::new(0),
        helper_tasks: AtomicU64::new(0),
    })
}

impl Pool {
    /// Spawns workers until at least `n` are live (capped at
    /// [`MAX_WORKERS`]). Returns the number of live workers.
    fn ensure_workers(&'static self, n: usize) -> usize {
        let n = n.min(MAX_WORKERS);
        if self.live.load(Ordering::Acquire) >= n {
            return self.live.load(Ordering::Acquire);
        }
        let _guard = self.spawn_lock.lock().unwrap();
        let mut live = self.live.load(Ordering::Acquire);
        while live < n {
            let idx = live;
            let spawned = std::thread::Builder::new()
                .name(format!("ic-pool-{idx}"))
                .spawn(move || worker_loop(idx))
                .is_ok();
            if !spawned {
                break; // resource exhaustion: run with what we have
            }
            live += 1;
            self.live.store(live, Ordering::Release);
        }
        live
    }

    /// Pushes a job onto a worker deque (round-robin) and wakes sleepers.
    /// Returns `false` if no worker is live (caller must run inline).
    fn inject(&self, job: Job) -> Result<(), Job> {
        let live = self.live.load(Ordering::Acquire);
        if live == 0 {
            return Err(job);
        }
        let k = self.rr.fetch_add(1, Ordering::Relaxed) % live;
        self.queues[k].jobs.lock().unwrap().push_back(job);
        self.injected.fetch_add(1, Ordering::Relaxed);
        // The empty critical section orders the push before the notify with
        // respect to a worker's under-lock recheck, preventing lost wakeups.
        drop(self.idle.lock().unwrap());
        self.wake.notify_all();
        Ok(())
    }

    /// Takes one job: own deque from the back (if `own` is a worker index),
    /// then steals from the front of every live sibling deque.
    fn find_job(&self, own: Option<usize>) -> Option<Job> {
        if let Some(i) = own {
            if let Some(job) = self.queues[i].jobs.lock().unwrap().pop_back() {
                self.worker_stats[i].tasks.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        let live = self.live.load(Ordering::Acquire);
        let start = own.map_or(0, |i| i + 1);
        for off in 0..live {
            let j = (start + off) % live.max(1);
            if Some(j) == own {
                continue;
            }
            if let Some(job) = self.queues[j].jobs.lock().unwrap().pop_front() {
                match own {
                    Some(i) => {
                        let w = &self.worker_stats[i];
                        w.tasks.fetch_add(1, Ordering::Relaxed);
                        w.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        self.helper_tasks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(idx: usize) {
    IN_POOL.with(|f| f.set(true));
    let pool = pool();
    loop {
        if let Some(job) = pool.find_job(Some(idx)) {
            job();
            continue;
        }
        let guard = pool.idle.lock().unwrap();
        // Recheck under the idle lock: an injector that pushed before we
        // acquired it is now ordered before this check.
        if let Some(job) = pool.find_job(Some(idx)) {
            drop(guard);
            job();
            continue;
        }
        // The timeout is a backstop only; wakeups arrive via notify_all.
        let parked = Instant::now();
        let _ = pool.wake.wait_timeout(guard, Duration::from_millis(100));
        let w = &pool.worker_stats[idx];
        w.idle_parks.fetch_add(1, Ordering::Relaxed);
        w.idle_nanos
            .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Scopes

/// Shared completion state of one scope.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    /// First captured panic payload of any task in the scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// A spawn handle passed to the [`scope`] closure. Tasks may borrow
/// anything that outlives the scope (`'scope`).
pub struct Scope<'scope> {
    state: Arc<ScopeState>,
    /// `true` ⇒ every spawn runs inline on the calling thread.
    sequential: bool,
    /// Invariant over `'scope`: prevents shrinking the borrow lifetime.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` into the scope. With a sequential scope (1 thread, or
    /// nested inside a pool worker) the closure runs immediately on the
    /// calling thread, preserving program order.
    ///
    /// The caller's `ic-obs` observation context
    /// (if any) is captured here and re-entered around `f` on the worker,
    /// so spans and metrics recorded inside the task aggregate into the
    /// caller's report under the spawn site's span path.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.sequential {
            f();
            return;
        }
        let ctx = obs::task_ctx();
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| ctx.run(f)));
            if let Err(payload) = result {
                let mut slot = state.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: `scope()` joins every spawned job before returning, so the
        // `'scope` borrows captured by the job strictly outlive its
        // execution; erasing the lifetime is therefore sound. The job is
        // never leaked: it either runs on a worker or inline below.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        if let Err(job) = pool().inject(job) {
            job(); // no live worker: degrade to inline execution
        }
    }
}

/// Creates a scope in which borrowing tasks can be spawned, and blocks
/// until all of them completed. The calling thread *helps*: while waiting
/// it steals and runs pool jobs, so `scope` on an `n`-thread configuration
/// reaches `n`-way parallelism with `n - 1` workers.
///
/// If a task panicked, the panic is re-thrown here after all tasks of the
/// scope finished (the first payload wins). A panic in `f` itself is
/// re-thrown the same way, also after the tasks drained.
pub fn scope<'scope, R>(f: impl FnOnce(&Scope<'scope>) -> R) -> R {
    let threads = current_threads();
    let sequential = threads <= 1 || IN_POOL.with(Cell::get);
    if !sequential {
        pool().ensure_workers(threads.saturating_sub(1).max(1));
    }
    // Record pool.* deltas for this scope into an active observation.
    // These are execution-dependent (which worker steals what is a
    // scheduling accident) — ic-obs excludes the pool. prefix from its
    // determinism comparisons for exactly that reason.
    let stats_before = if !sequential && obs::active() {
        Some(pool_stats())
    } else {
        None
    };
    let sc = Scope {
        state: Arc::new(ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }),
        sequential,
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&sc)));

    // Drain: help with pool work while our tasks are in flight.
    if !sequential {
        let p = pool();
        loop {
            if *sc.state.pending.lock().unwrap() == 0 {
                break;
            }
            if let Some(job) = p.find_job(None) {
                job();
                continue;
            }
            let guard = sc.state.pending.lock().unwrap();
            if *guard == 0 {
                break;
            }
            let _ = sc
                .state
                .done
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
    }

    if let Some(before) = stats_before {
        let after = pool_stats();
        obs::counter("pool.scopes", 1);
        obs::counter(
            "pool.tasks",
            after.total_tasks().saturating_sub(before.total_tasks()),
        );
        obs::counter(
            "pool.steals",
            after.total_steals().saturating_sub(before.total_steals()),
        );
        obs::counter(
            "pool.injected",
            after.injected.saturating_sub(before.injected),
        );
        obs::counter(
            "pool.idle_nanos",
            after
                .total_idle()
                .saturating_sub(before.total_idle())
                .as_nanos() as u64,
        );
    }

    if let Some(payload) = sc.state.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }
    match result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------------
// Data-parallel helpers

/// Applies `f` to every element and returns the results **in input order**.
/// Equivalent to `items.iter().map(f).collect()` at every thread count —
/// bit-identical for a pure `f` — but fanned out over the pool.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_min_chunk(items, 1, f)
}

/// [`par_map`] with a minimum chunk size: inputs shorter than `min_chunk`
/// (or a 1-thread configuration) run sequentially inline, bounding the
/// parallelization overhead on small inputs.
pub fn par_map_min_chunk<T: Sync, R: Send>(
    items: &[T],
    min_chunk: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = current_threads();
    let min_chunk = min_chunk.max(1);
    if threads <= 1 || items.len() <= min_chunk {
        return items.iter().map(f).collect();
    }
    // ~4 chunks per thread for balance, but never below the minimum size.
    let chunk = items.len().div_ceil(threads * 4).max(min_chunk);
    let parts = run_chunks(items, chunk, |_, ch| ch.iter().map(&f).collect::<Vec<R>>());
    let mut out = Vec::with_capacity(items.len());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Splits `items` into chunks of (at most) `chunk_size` and applies `f` to
/// each `(chunk_index, chunk)` in parallel, returning one result per chunk
/// in chunk order.
pub fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    let chunk_size = chunk_size.max(1);
    if current_threads() <= 1 || items.len() <= chunk_size {
        return items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, ch)| f(i, ch))
            .collect();
    }
    run_chunks(items, chunk_size, f)
}

/// Parallel fan-out shared by the helpers: one task per chunk, results
/// reassembled in chunk order.
fn run_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    let n_chunks = items.len().div_ceil(chunk_size);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
    scope(|s| {
        for (ci, ch) in items.chunks(chunk_size).enumerate() {
            let f = &f;
            let results = &results;
            s.spawn(move || {
                let r = f(ci, ch);
                results.lock().unwrap().push((ci, r));
            });
        }
    });
    let mut parts = results.into_inner().unwrap();
    debug_assert_eq!(parts.len(), n_chunks);
    parts.sort_unstable_by_key(|&(i, _)| i);
    parts.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let par = with_threads(threads, || par_map(&items, |&x| x * 3 + 1));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_empty_input() {
        for threads in [1, 4] {
            let out: Vec<u32> = with_threads(threads, || par_map(&[] as &[u32], |&x| x));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn par_chunks_covers_all_elements() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 3] {
            let sums = with_threads(threads, || {
                par_chunks(&items, 10, |_, ch| ch.iter().sum::<usize>())
            });
            assert_eq!(sums.len(), 10);
            assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
        }
    }

    #[test]
    fn scope_runs_all_tasks() {
        let counter = AtomicU64::new(0);
        with_threads(4, || {
            scope(|s| {
                for i in 0..64u64 {
                    let counter = &counter;
                    s.spawn(move || {
                        counter.fetch_add(i, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    fn scope_propagates_task_panic() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                scope(|s| {
                    s.spawn(|| {});
                    s.spawn(|| panic!("boom in task"));
                    s.spawn(|| {});
                });
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg:?}");
    }

    #[test]
    fn scope_waits_for_tasks_when_closure_panics() {
        let done = Arc::new(AtomicU64::new(0));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                scope(|s| {
                    for _ in 0..8 {
                        let done = Arc::clone(&done);
                        s.spawn(move || {
                            std::thread::sleep(Duration::from_millis(2));
                            done.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    panic!("closure panic");
                })
            });
        }));
        assert!(caught.is_err());
        // All spawned tasks completed before the panic propagated.
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_scopes_run_inline_without_deadlock() {
        let total = AtomicU64::new(0);
        with_threads(4, || {
            scope(|outer| {
                for _ in 0..8 {
                    let total = &total;
                    outer.spawn(move || {
                        // Nested parallel call from a task: must not deadlock.
                        let inner: u64 = par_map(&[1u64, 2, 3], |&x| x).iter().sum();
                        total.fetch_add(inner, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 6);
    }

    #[test]
    fn obs_context_propagates_into_tasks() {
        let sink = Arc::new(ic_obs::MemorySink::new());
        let items: Vec<u64> = (0..4096).collect();
        {
            let _obs = ic_obs::observe("pool", sink.clone());
            let _root = ic_obs::span("batch");
            with_threads(4, || {
                scope(|s| {
                    for ch in items.chunks(256) {
                        s.spawn(move || {
                            ic_obs::counter("task.items", ch.len() as u64);
                            let _sp = ic_obs::span("task");
                        });
                    }
                });
            });
        }
        let r = sink.last().unwrap();
        // Every chunk's counter contribution arrived, regardless of which
        // thread ran it.
        assert_eq!(r.counter("task.items"), Some(items.len() as u64));
        // Worker-side spans nest under the spawn site's span path.
        let task = r.find_span(&["batch", "task"]).expect("task span");
        assert_eq!(task.count, 16);
        // The scope recorded its pool.* deltas (execution-dependent values,
        // but the scope count itself is exact).
        assert_eq!(r.counter("pool.scopes"), Some(1));
        // pool.* metrics are flagged as non-deterministic.
        assert!(r.deterministic_metrics().keys().all(|&n| n == "task.items"));
    }

    #[test]
    fn pool_stats_accounts_for_executed_jobs() {
        let before = pool_stats();
        let n = 512u64;
        let items: Vec<u64> = (0..n).collect();
        let sum: u64 = with_threads(4, || par_map(&items, |&x| x).iter().sum());
        assert_eq!(sum, (0..n).sum::<u64>());
        let after = pool_stats();
        // Injected jobs either ran on a worker or on the helping caller;
        // other tests may run concurrently, so compare deltas as >=.
        assert!(after.injected >= before.injected);
        assert!(after.total_tasks() >= before.total_tasks());
        assert!(after.live_workers >= 1);
    }

    #[test]
    fn with_threads_restores_previous_value() {
        let before = current_threads();
        with_threads(7, || {
            assert_eq!(current_threads(), 7);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 7);
        });
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn one_thread_is_fully_inline() {
        // Sequential mode must execute on the calling thread (observable
        // via thread-local state).
        thread_local! {
            static MARK: Cell<u32> = const { Cell::new(0) };
        }
        with_threads(1, || {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| MARK.with(|m| m.set(m.get() + 1)));
                }
            });
        });
        assert_eq!(MARK.with(Cell::get), 4);
    }
}
