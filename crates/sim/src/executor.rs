//! A persistent executor shared by every fan-out in the workspace.
//!
//! Before this module existed, every Monte-Carlo trial wave, splitting
//! stage, and experiment cell spun up its own `std::thread::scope`: a
//! 100-cell sweep paid 100 rounds of thread churn and got zero
//! cell-level parallelism. The executor replaces all of those scopes
//! with **one** long-lived pool of workers fed from one shared FIFO
//! queue (plain `std` only) that outlives any individual job. Trial
//! waves, splitting stages, exact solves, and whole experiment cells
//! are all submitted as jobs to the same pool, so independent sweep
//! cells pipeline across the same workers and grid wall-clock
//! approaches `max(cell)` instead of `sum(cell)` on a multi-core host.
//!
//! # Determinism contract
//!
//! The executor never touches a random stream and never influences
//! *what* a unit of work computes — only *where* it runs. A job is a
//! contiguous range of unit indices `0..total`; each unit's inputs
//! (its jump-seeded RNG stream, its config) are derived from the unit
//! index alone by the caller, and results are reduced **in unit-index
//! order** at the join. Scheduling therefore cannot perturb any
//! aggregate: outputs are bit-identical for every pool width, job
//! width, and interleaving, which is exactly the contract the old
//! scoped fan-outs had (see METHODOLOGY.md, "Executor determinism").
//!
//! # One scheduling rule
//!
//! A job of width `w` queues `w − 1` slot tasks and the calling thread
//! runs the `w`-th slot itself. Every slot, the caller's included, is
//! the same claim loop over one atomic counter: take the next unit
//! index, run it, repeat until the counter passes `total`. Between its
//! own units the caller hands finished results to the streaming
//! callback. A width-1 job therefore queues nothing and runs entirely
//! on the caller, without creating the global pool.
//!
//! **No join waits forever.** The caller joins only after its own
//! claim loop has used up the counter, so every unit it still waits on
//! has already been claimed by another thread and is running there; a
//! slot task still queued will find the counter used up and return at
//! once. A unit that submits no job finishes. By induction on nesting
//! depth, a unit that submits jobs finishes too: each of its joins
//! waits only on running units one level deeper. So a join never needs
//! to help run queued work, and a width-1 pool (or one whose only
//! worker is busy running the joining cell) completes every job.
//!
//! # One pool per process
//!
//! [`global()`] lazily creates the process-wide pool; its width
//! defaults to [`std::thread::available_parallelism`] and can be fixed
//! *before first use* with [`configure_global_width`] (the `--jobs`
//! CLI flag). Plan-level `threads` fields never spawn OS threads —
//! they only bound how many slots a job occupies — so concurrent
//! [`crate::spec::ExperimentPlan`]s cannot oversubscribe the host: the
//! pool owns every worker thread in the process.
//!
//! # Panics
//!
//! A unit that panics does not take its thread down: the slot loop
//! catches the unwind, stops handing out that job's remaining unit
//! indices, and the join re-raises the first payload with
//! [`std::panic::resume_unwind`]. The caller therefore sees the same
//! panic a sequential run would give it, and the pool keeps its full
//! width for the next job.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The kind of work a job's units do. Callers still label their jobs,
/// but the scheduler no longer reads the label: every job follows the
/// one rule in the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Units that never join another job (trial waves, splitting
    /// stages).
    Leaf,
    /// Units that may submit and join jobs of their own (experiment
    /// cells).
    Composite,
}

type TaskFn = Box<dyn FnOnce() + Send + 'static>;

/// A queued slot task.
struct Task {
    /// The pool worker that queued it, or `None` for any other thread.
    origin: Option<usize>,
    run: TaskFn,
}

/// Monotonic counters describing pool activity, for `--verbose`
/// diagnostics and the one-pool-per-process regression tests. None of
/// these values ever feeds a simulation result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads this pool has ever spawned (== width once the
    /// pool exists; it never grows per job).
    pub threads_spawned: u64,
    /// Jobs that queued slot tasks (excludes inline jobs).
    pub jobs_submitted: u64,
    /// Jobs that ran entirely inline on the caller thread.
    pub jobs_inline: u64,
    /// Slot tasks executed by pool workers.
    pub tasks_executed: u64,
    /// Tasks a worker ran that another thread queued.
    pub steals: u64,
}

#[derive(Default)]
struct Stats {
    threads_spawned: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_inline: AtomicU64,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
}

/// Lock `m`, recovering the data if the lock is poisoned. No unit of
/// work ever runs while one of these locks is held, and a panicking
/// unit is caught in its slot and re-raised at the join, so a poisoned
/// lock cannot hide a failure: the panic still reaches the caller.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared FIFO queue and the shutdown flag, under one lock.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    /// Pool identity for the thread-local worker tag (distinguishes
    /// pools when unit tests create local ones next to the global).
    id: u64,
    queue: Mutex<Queue>,
    wake: Condvar,
    stats: Stats,
}

thread_local! {
    /// `(pool id, worker index)` of the pool this thread works for, or
    /// `(0, usize::MAX)` for non-worker threads.
    static WORKER: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };
}

static POOL_IDS: AtomicU64 = AtomicU64::new(1);

impl Shared {
    /// The calling thread's worker index in *this* pool, if any.
    fn worker_index(&self) -> Option<usize> {
        let (pool, idx) = WORKER.get();
        (pool == self.id && idx != usize::MAX).then_some(idx)
    }

    fn submit(&self, tasks: impl Iterator<Item = TaskFn>) {
        let origin = self.worker_index();
        let mut queue = lock(&self.queue);
        queue.tasks.extend(tasks.map(|run| Task { origin, run }));
        drop(queue);
        self.wake.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    WORKER.set((shared.id, me));
    let mut queue = lock(&shared.queue);
    loop {
        if queue.shutdown {
            return;
        }
        let Some(task) = queue.tasks.pop_front() else {
            queue = shared
                .wake
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(queue);
        shared.stats.tasks_executed.fetch_add(1, Ordering::Relaxed);
        if task.origin != Some(me) {
            shared.stats.steals.fetch_add(1, Ordering::Relaxed);
        }
        (task.run)();
        queue = lock(&shared.queue);
    }
}

/// The state a job shares between its slots and its caller.
struct JobCore<T> {
    next: AtomicU64,
    total: u64,
    finished: Mutex<Finished<T>>,
    done: Condvar,
}

/// What worker slots have handed to the caller and it has not yet
/// drained.
struct Finished<T> {
    results: Vec<(u64, T)>,
    /// The first panic payload raised by a unit on a worker.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T> JobCore<T> {
    /// Claim the next unit index, or `None` once the job is used up.
    fn claim(&self) -> Option<u64> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }

    /// Run unit `i`. A panic ends the job, so no slot claims another
    /// unit, and comes back as the payload.
    fn run<F: Fn(u64) -> T>(&self, run_unit: &F, i: u64) -> std::thread::Result<T> {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_unit(i)));
        if outcome.is_err() {
            self.next.store(self.total, Ordering::Relaxed);
        }
        outcome
    }

    /// A queued slot: the claim loop, handing each result (or the
    /// first panic) to the caller.
    fn slot<F: Fn(u64) -> T>(&self, run_unit: &F) {
        while let Some(i) = self.claim() {
            let outcome = self.run(run_unit, i);
            let mut finished = lock(&self.finished);
            match outcome {
                Ok(result) => finished.results.push((i, result)),
                Err(payload) => {
                    finished.panic.get_or_insert(payload);
                }
            }
            drop(finished);
            self.done.notify_one();
        }
    }

    /// Take what worker slots have finished, waiting for at least one
    /// result first if `wait`. Re-raises a worker's panic.
    fn drain(&self, wait: bool) -> Vec<(u64, T)> {
        let mut finished = lock(&self.finished);
        while wait && finished.results.is_empty() && finished.panic.is_none() {
            finished = self
                .done
                .wait(finished)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = finished.panic.take() {
            drop(finished);
            resume_unwind(payload);
        }
        std::mem::take(&mut finished.results)
    }
}

/// A pool of worker threads. Most code wants the process-wide
/// [`global()`] pool (via the free [`run_ordered`] /
/// [`run_ordered_with`] functions); constructing a local pool is for
/// tests.
pub struct Executor {
    shared: Arc<Shared>,
    width: usize,
    /// Join handles for locally owned workers; empty for the detached
    /// global pool.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// A local pool with `width` workers (min 1), shut down on drop.
    pub fn new(width: usize) -> Executor {
        Executor::build(width, false)
    }

    fn build(width: usize, detached: bool) -> Executor {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            stats: Stats::default(),
        });
        let mut handles = Vec::new();
        for me in 0..width {
            let shared = Arc::clone(&shared);
            shared.stats.threads_spawned.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("sim-exec-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("executor: spawning a worker thread failed"); // detlint: allow(panic-expect) -- OS thread exhaustion at pool creation is unrecoverable for the process
            if !detached {
                handles.push(handle);
            }
        }
        Executor {
            shared,
            width,
            handles,
        }
    }

    /// The number of worker threads this pool owns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// A snapshot of this pool's activity counters.
    pub fn stats(&self) -> ExecutorStats {
        let s = &self.shared.stats;
        ExecutorStats {
            threads_spawned: s.threads_spawned.load(Ordering::Relaxed),
            jobs_submitted: s.jobs_submitted.load(Ordering::Relaxed),
            jobs_inline: s.jobs_inline.load(Ordering::Relaxed),
            tasks_executed: s.tasks_executed.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
        }
    }

    /// Run `total` units through the pool and return results in unit
    /// order. See [`run_ordered_with`] for the full contract.
    pub fn run_ordered<T, F>(&self, total: u64, width: usize, kind: TaskKind, run_unit: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(u64) -> T + Send + Sync + 'static,
    {
        self.run_ordered_with(total, width, kind, run_unit, |_, _| {})
    }

    /// Run units `0..total` of a job in at most `width` slots, the
    /// calling thread's own included, and return the results **in
    /// unit-index order** — bit-identical for every pool width and
    /// interleaving. `kind` is not read (see [`TaskKind`]).
    ///
    /// `on_complete(i, &result)` fires on the calling thread once per
    /// unit, in **completion order** (useful for streaming progress);
    /// the returned `Vec` is always in unit order. Jobs with an
    /// effective width of one queue nothing and run on the caller.
    ///
    /// # Panics
    ///
    /// If a unit panics, the job stops handing out units and this
    /// call re-raises the first unit's panic payload.
    pub fn run_ordered_with<T, F, C>(
        &self,
        total: u64,
        width: usize,
        _kind: TaskKind,
        run_unit: F,
        on_complete: C,
    ) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(u64) -> T + Send + Sync + 'static,
        C: FnMut(u64, &T),
    {
        run_job(Some(self), total, width, run_unit, on_complete)
    }
}

/// The one scheduling rule behind every `run_ordered*` entry point.
/// `pool` is `None` for the global pool, which is created only when the
/// job has slot tasks to queue.
fn run_job<T, F, C>(
    pool: Option<&Executor>,
    total: u64,
    width: usize,
    run_unit: F,
    mut on_complete: C,
) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
    C: FnMut(u64, &T),
{
    let units = usize::try_from(total).unwrap_or(usize::MAX);
    let queued = width.min(units).saturating_sub(1);
    let core = Arc::new(JobCore {
        next: AtomicU64::new(0),
        total,
        finished: Mutex::new(Finished {
            results: Vec::new(),
            panic: None,
        }),
        done: Condvar::new(),
    });
    let run_unit = Arc::new(run_unit);
    if queued == 0 {
        if let Some(pool) = pool {
            pool.shared
                .stats
                .jobs_inline
                .fetch_add(1, Ordering::Relaxed);
        }
    } else {
        let shared = &pool.unwrap_or_else(|| global()).shared;
        shared.stats.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        shared.submit((0..queued).map(|_| {
            let core = Arc::clone(&core);
            let run_unit = Arc::clone(&run_unit);
            Box::new(move || core.slot(&*run_unit)) as TaskFn
        }));
    }
    let mut out = Vec::with_capacity(units);
    let mut deliver = |(i, result): (u64, T), out: &mut Vec<(u64, T)>| {
        on_complete(i, &result);
        out.push((i, result));
    };
    // The caller's own slot, streaming worker results between units.
    while let Some(i) = core.claim() {
        let result = core.run(&*run_unit, i).unwrap_or_else(|p| resume_unwind(p));
        deliver((i, result), &mut out);
        for done in core.drain(false) {
            deliver(done, &mut out);
        }
    }
    // The join: every unit still missing is running on another thread.
    while out.len() < units {
        for done in core.drain(true) {
            deliver(done, &mut out);
        }
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, result)| result).collect()
}

impl Drop for Executor {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return; // detached (global) pool: workers live for the process
        }
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();
static CONFIGURED_WIDTH: AtomicU64 = AtomicU64::new(0);
static GLOBAL_POOLS_CREATED: AtomicU64 = AtomicU64::new(0);

/// The width [`configure_global_width`] fixed, or one worker per CPU.
fn configured_width() -> usize {
    match usize::try_from(CONFIGURED_WIDTH.load(Ordering::SeqCst)).unwrap_or(0) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        width => width,
    }
}

/// Fix the global pool's width (0 = auto-detect) **before first use**.
/// Returns `false` if the pool already exists, in which case the call
/// had no effect. Wired to the bench CLI `--jobs` flag.
pub fn configure_global_width(width: usize) -> bool {
    CONFIGURED_WIDTH.store(width as u64, Ordering::SeqCst);
    GLOBAL.get().is_none()
}

/// The process-wide pool, created on first call. Its worker threads
/// are detached: they live for the remainder of the process.
pub fn global() -> &'static Executor {
    GLOBAL.get_or_init(|| {
        GLOBAL_POOLS_CREATED.fetch_add(1, Ordering::SeqCst);
        Executor::build(configured_width(), true)
    })
}

/// The width the global pool has — or would have, if it has not been
/// created yet. Never creates the pool.
pub fn global_width() -> usize {
    GLOBAL.get().map_or_else(configured_width, Executor::width)
}

/// [`ExecutorStats`] for the global pool; all-zero if it has never
/// been created (every job so far ran inline).
pub fn global_stats() -> ExecutorStats {
    GLOBAL.get().map(Executor::stats).unwrap_or_default()
}

/// How many times [`global()`] has constructed a pool. At most 1 per
/// process by construction; the one-pool regression tests assert it.
pub fn global_pools_created() -> u64 {
    GLOBAL_POOLS_CREATED.load(Ordering::SeqCst)
}

/// [`Executor::run_ordered`] on the global pool. Width-1 and
/// single-unit jobs run on the caller without creating the pool.
pub fn run_ordered<T, F>(total: u64, width: usize, kind: TaskKind, run_unit: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    run_ordered_with(total, width, kind, run_unit, |_, _| {})
}

/// [`Executor::run_ordered_with`] on the global pool. Width-1 and
/// single-unit jobs run on the caller without creating the pool.
pub fn run_ordered_with<T, F, C>(
    total: u64,
    width: usize,
    _kind: TaskKind,
    run_unit: F,
    on_complete: C,
) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
    C: FnMut(u64, &T),
{
    run_job(None, total, width, run_unit, on_complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn ordered_results_match_inline_for_every_width() {
        let expected: Vec<u64> = (0..97).map(|i| i * i + 1).collect();
        for width in [1, 2, 4, 8] {
            let pool = Executor::new(2);
            let got = pool.run_ordered(97, width, TaskKind::Leaf, |i| i * i + 1);
            assert_eq!(got, expected, "width {width}");
        }
    }

    #[test]
    fn single_width_jobs_run_inline_without_touching_workers() {
        let pool = Executor::new(3);
        let got = pool.run_ordered(50, 1, TaskKind::Leaf, |i| i + 7);
        assert_eq!(got, (7..57).collect::<Vec<u64>>());
        let stats = pool.stats();
        assert_eq!(stats.jobs_inline, 1);
        assert_eq!(stats.jobs_submitted, 0);
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn pool_threads_are_spawned_once_not_per_job() {
        let pool = Executor::new(3);
        for _ in 0..5 {
            let _ = pool.run_ordered(32, 4, TaskKind::Leaf, |i| i);
        }
        let stats = pool.stats();
        assert_eq!(stats.threads_spawned, 3, "{stats:?}");
        assert_eq!(stats.jobs_submitted, 5, "{stats:?}");
    }

    #[test]
    fn streaming_callback_sees_every_unit_exactly_once() {
        let pool = Executor::new(2);
        let mut seen = vec![0u32; 40];
        let got = pool.run_ordered_with(
            40,
            4,
            TaskKind::Leaf,
            |i| i * 3,
            |i, r| {
                assert_eq!(*r, i * 3);
                seen[usize::try_from(i).unwrap()] += 1;
            },
        );
        assert_eq!(got, (0..40).map(|i| i * 3).collect::<Vec<u64>>());
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    /// The nesting deadlock regression: a width-1 pool runs composite
    /// tasks that each submit and join a nested leaf job on the same
    /// pool, whose only worker is busy running the joining cell.
    #[test]
    fn nested_leaf_jobs_inside_composites_complete_on_a_width_1_pool() {
        let pool = Arc::new(Executor::new(1));
        let inner = Arc::clone(&pool);
        let got = pool.run_ordered(4, 4, TaskKind::Composite, move |cell| {
            inner
                .run_ordered(8, 4, TaskKind::Leaf, move |i| cell * 100 + i)
                .iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..4)
            .map(|cell| (0..8).map(|i| cell * 100 + i).sum())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_jobs_return_empty() {
        let pool = Executor::new(2);
        let got: Vec<u64> = pool.run_ordered(0, 4, TaskKind::Leaf, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn work_is_pulled_not_preassigned() {
        // All units claimed through one shared counter: the number of
        // distinct executing threads never exceeds the slot count, and
        // every unit index is claimed exactly once.
        let pool = Executor::new(4);
        let claims = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&claims);
        let got = pool.run_ordered(100, 2, TaskKind::Leaf, move |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(got, (0..100).collect::<Vec<u64>>());
        assert_eq!(claims.load(Ordering::Relaxed), 100);
    }

    fn on_pool_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("sim-exec-"))
    }

    /// Run `f` on a helper thread and return its result, or `None` if
    /// it did not finish within the timeout (a hung join).
    fn on_helper<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> Option<R> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(30)).ok()
    }

    /// Join a 16-unit, width-2 job on `pool` from a helper thread and
    /// return the join's outcome and whether a pool worker ran a unit,
    /// or `None` if the join did not finish within the timeout. Units
    /// that land on the helper itself wait (bounded) until a worker
    /// has taken one, so at least one unit runs on a worker.
    fn join_from_helper(
        pool: &Arc<Executor>,
        panic_on_worker: bool,
    ) -> Option<(std::thread::Result<Vec<u64>>, bool)> {
        let pool = Arc::clone(pool);
        on_helper(move || {
            let worker_ran = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&worker_ran);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run_ordered(16, 2, TaskKind::Leaf, move |i| {
                    if on_pool_worker() {
                        flag.store(true, Ordering::SeqCst);
                        if panic_on_worker {
                            panic!("unit failed on a pool worker");
                        }
                    } else {
                        for _ in 0..5_000 {
                            if flag.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    i
                })
            }));
            (outcome, worker_ran.load(Ordering::SeqCst))
        })
    }

    /// A unit panicking on a pool worker must reach the joiner as the
    /// same panic, not hang the join, and must not cost the pool a
    /// worker.
    #[test]
    fn worker_panic_reaches_the_joiner_and_the_pool_survives() {
        let pool = Arc::new(Executor::new(2));
        let (outcome, _) = join_from_helper(&pool, true)
            .expect("the join hung instead of re-raising the worker's panic");
        let payload = outcome.expect_err("the worker's panic must re-raise at the join");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"unit failed on a pool worker")
        );
        let (outcome, worker_ran) = join_from_helper(&pool, false).expect("the follow-up job hung");
        let got = outcome.expect("the follow-up job must not panic");
        assert_eq!(got, (0..16).collect::<Vec<u64>>());
        assert!(worker_ran, "a pool worker must still be taking units");
        assert_eq!(pool.stats().threads_spawned, 2);
    }

    /// A unit panicking in the caller's own slot, while another unit
    /// runs on a worker, must reach the caller as the same panic and
    /// must not cost the pool a worker.
    #[test]
    fn caller_slot_panic_reaches_the_joiner_and_the_pool_survives() {
        let pool = Arc::new(Executor::new(1));
        // The worker's first unit and the caller's first unit meet
        // here, so each side is mid-unit when the caller's unit fails.
        let meet = Arc::new(std::sync::Barrier::new(2));
        let worker_met = Arc::new(AtomicBool::new(false));
        let job = Arc::clone(&pool);
        let outcome = on_helper(move || {
            catch_unwind(AssertUnwindSafe(|| {
                job.run_ordered(16, 2, TaskKind::Leaf, move |i| {
                    if !on_pool_worker() {
                        meet.wait();
                        panic!("unit failed in the caller's slot");
                    }
                    if !worker_met.swap(true, Ordering::SeqCst) {
                        meet.wait();
                    }
                    i
                })
            }))
        })
        .expect("the join hung instead of re-raising the caller's panic");
        let payload = outcome.expect_err("the caller's panic must re-raise at the join");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"unit failed in the caller's slot")
        );
        let (outcome, worker_ran) = join_from_helper(&pool, false).expect("the follow-up job hung");
        let got = outcome.expect("the follow-up job must not panic");
        assert_eq!(got, (0..16).collect::<Vec<u64>>());
        assert!(worker_ran, "a pool worker must still be taking units");
        assert_eq!(pool.stats().threads_spawned, 1);
    }

    #[test]
    fn global_pool_is_created_at_most_once() {
        let _ = run_ordered(16, 2, TaskKind::Leaf, |i| i);
        let _ = run_ordered(16, 4, TaskKind::Leaf, |i| i);
        assert!(global_pools_created() <= 1);
        let stats = global_stats();
        assert_eq!(stats.threads_spawned, global().width() as u64);
    }
}
