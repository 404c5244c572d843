//! The engine's long-lived worker pool and its indexed task sets.
//!
//! One [`WorkerPool`] per [`Engine`](crate::Engine) replaces the old
//! per-batch `thread::scope` spawns: intra-request parallelism (the solve
//! stage fanning per-gate SDP obligations) and inter-request parallelism
//! (`Engine::analyze_batch` fanning whole requests) share the same threads,
//! so a single request saturates the machine and a batch never
//! oversubscribes it.
//!
//! ## Execution model
//!
//! Work is expressed as an **indexed task set**: `n` independent tasks
//! `f(0), …, f(n−1)` whose results land in a slot vector. Threads *claim*
//! indices from a shared atomic cursor — the submitting thread always
//! participates (see [`PendingRun::join`]), and the pool contributes
//! however many workers are free. This claim discipline is what makes the
//! design deadlock-free under nesting: a pool worker running a whole batch
//! request can fan that request's solve obligations out over the same pool,
//! and even if every other worker is busy, the claiming thread finishes the
//! set by itself. A pool of size 1 (`GLEIPNIR_THREADS=1`) therefore
//! degenerates to exactly the sequential execution order.
//!
//! A thread need not finish one task before claiming the next: each
//! participant runs the set's driver with its own [`Claims`], and may hold
//! several claims open (the solve stage steps up to a lane batch of SDPs
//! together). A driver never blocks on another thread while it holds open
//! claims, so the claim discipline stays deadlock-free.
//!
//! Jobs submitted to the pool hold only a [`Weak`] pool reference, so the
//! strong count is owned solely by the [`Engine`](crate::Engine): dropping
//! the engine shuts the pool down from the caller's thread (never from a
//! worker, which could not join itself).

use crate::AnalysisError;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The scheduling class of a unit of pool work, in strict priority order:
/// queued interactive jobs always run before queued refinement jobs, which
/// always run before queued batch jobs. Within a class, jobs run FIFO.
///
/// The classes exist so the anytime subsystem can promise interactive
/// latency under load: a saturating batch tenant's jobs pile up in the
/// batch queue while a fresh interactive request's solve fan-out jumps
/// straight to the front. Priorities apply at *claim* time only — a
/// batch job already running is never preempted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PriorityClass {
    /// Foreground analyses a client is blocked on (`Engine::analyze`).
    Interactive,
    /// Background anytime refinements ([`crate::Engine::analyze_anytime`]).
    Refinement,
    /// Bulk work nobody is interactively waiting on (`Engine::analyze_batch`).
    Batch,
}

impl PriorityClass {
    /// Every class, in scheduling (priority) order.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Interactive,
        PriorityClass::Refinement,
        PriorityClass::Batch,
    ];

    /// A stable machine-readable class name (metrics label values).
    pub fn name(&self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Refinement => "refinement",
            PriorityClass::Batch => "batch",
        }
    }

    fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Refinement => 1,
            PriorityClass::Batch => 2,
        }
    }
}

/// A snapshot of the pool's queued (not yet claimed) jobs per class —
/// the `gleipnir_queue_depth{class=...}` gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerDepths {
    /// Queued interactive jobs.
    pub interactive: usize,
    /// Queued refinement jobs.
    pub refinement: usize,
    /// Queued batch jobs.
    pub batch: usize,
}

impl SchedulerDepths {
    /// Total queued jobs across all classes.
    pub fn total(&self) -> usize {
        self.interactive + self.refinement + self.batch
    }
}

/// Locks a mutex, recovering from poisoning (every holder is either
/// unwind-caught or only ever writes fully-formed values, so a poisoned
/// lock never guards torn state). Shared crate-wide — the engine's cache
/// shards use the same policy.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a panic payload as a message (shared with the task sets'
/// panic-to-`AnalysisError` conversion).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "analysis panicked".into())
}

struct PoolState {
    /// One FIFO queue per [`PriorityClass`], indexed by
    /// [`PriorityClass::index`]; workers drain lower indices first.
    jobs: [VecDeque<Job>; 3],
    shutdown: bool,
}

impl PoolState {
    fn pop_next(&mut self) -> Option<Job> {
        self.jobs.iter_mut().find_map(VecDeque::pop_front)
    }

    fn depths(&self) -> SchedulerDepths {
        SchedulerDepths {
            interactive: self.jobs[0].len(),
            refinement: self.jobs[1].len(),
            batch: self.jobs[2].len(),
        }
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    job_ready: Condvar,
}

/// A fixed-size pool of worker threads executing submitted jobs FIFO.
///
/// Workers are spawned **lazily on the first submitted job**: engines
/// built for pool-free work (worst-case / LQR requests, CLI commands
/// that never analyze) pay nothing for the configured cap.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    spawned: AtomicBool,
    /// Whether the dedicated background worker exists (only ever spawned
    /// for `threads == 1` pools, where the regular worker count is zero
    /// but background refinements must still make progress while the
    /// submitting thread has long since returned to its caller).
    bg_spawned: AtomicBool,
    /// The configured concurrency cap *including* the submitting thread
    /// (so `threads == 1` means zero spawned workers).
    threads: usize,
}

impl WorkerPool {
    /// A pool capped at `threads` concurrent analysis threads (including
    /// the caller); `threads − 1` workers spawn on first use.
    pub(crate) fn new(threads: usize) -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    jobs: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                    shutdown: false,
                }),
                job_ready: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            spawned: AtomicBool::new(false),
            bg_spawned: AtomicBool::new(false),
            threads: threads.max(1),
        }
    }

    /// The concurrency cap this pool was built with (callers + workers).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Queued (unclaimed) jobs per priority class.
    pub(crate) fn depths(&self) -> SchedulerDepths {
        lock(&self.shared.state).depths()
    }

    fn ensure_workers(&self) {
        if self.threads <= 1 || self.spawned.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut handles = lock(&self.handles);
        for i in 0..self.threads - 1 {
            let shared = Arc::clone(&self.shared);
            // Workers get the same 8 MiB stack a main thread has: the
            // plan walk recurses once per program statement, and a
            // program that plans fine on the main thread must not abort
            // a worker (stack overflow cannot be caught).
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gleipnir-worker-{i}"))
                    .stack_size(8 * 1024 * 1024)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker thread"),
            );
        }
    }

    fn submit(&self, class: PriorityClass, job: Job) {
        {
            let mut state = lock(&self.shared.state);
            if state.shutdown {
                return; // engine is being dropped; nobody is waiting on this job
            }
            state.jobs[class.index()].push_back(job);
        }
        self.ensure_workers();
        self.shared.job_ready.notify_one();
    }

    /// Submits a job that must make progress even when nobody ever joins a
    /// task set again — the anytime refinement path. On a `threads == 1`
    /// pool (zero regular workers) this lazily spawns one dedicated
    /// background worker; the solve stage's assist count stays
    /// `threads − 1 = 0`, so the refinement itself still runs strictly
    /// sequentially and the bit-exactness contract is untouched.
    pub(crate) fn submit_background(&self, class: PriorityClass, job: Job) {
        if self.threads <= 1 && !self.bg_spawned.swap(true, Ordering::SeqCst) {
            let shared = Arc::clone(&self.shared);
            lock(&self.handles).push(
                std::thread::Builder::new()
                    .name("gleipnir-refine-0".into())
                    .stack_size(8 * 1024 * 1024)
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn background worker thread"),
            );
        }
        self.submit(class, job);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.job_ready.notify_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.pop_next() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared
                    .job_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            // Task-set jobs convert panics to results themselves; this
            // catch only shields the worker thread from unexpected unwinds.
            Some(job) => drop(panic::catch_unwind(AssertUnwindSafe(job))),
            None => return,
        }
    }
}

/// A weak, cheaply clonable pool reference safe to capture in pool jobs
/// (holding a strong reference from inside a job would let the pool's
/// final drop run on one of its own workers).
#[derive(Clone)]
pub(crate) struct PoolHandle {
    pool: Weak<WorkerPool>,
    threads: usize,
}

impl PoolHandle {
    pub(crate) fn new(pool: &Arc<WorkerPool>) -> Self {
        PoolHandle {
            pool: Arc::downgrade(pool),
            threads: pool.threads(),
        }
    }

    /// The pool's configured concurrency cap.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, class: PriorityClass, job: Job) {
        if let Some(pool) = self.pool.upgrade() {
            pool.submit(class, job);
        }
        // A dead pool means the engine is mid-drop; the submitting task
        // set still completes on whichever thread joins it.
    }

    /// See [`WorkerPool::submit_background`]. Silently dropped when the
    /// pool is already mid-drop (nobody can poll the result either).
    pub(crate) fn submit_background(&self, class: PriorityClass, job: Job) {
        if let Some(pool) = self.pool.upgrade() {
            pool.submit_background(class, job);
        }
    }
}

/// A claimer's routine: run by every thread that participates in a task
/// set, each with its own [`Claims`].
type Driver<T> = Box<dyn Fn(&mut Claims<'_, T>) + Send + Sync>;

struct TaskSet<T> {
    driver: Driver<T>,
    n: usize,
    next: AtomicUsize,
    results: Vec<Mutex<Option<Result<T, AnalysisError>>>>,
    done: Mutex<usize>,
    all_done: Condvar,
    /// Threads that claimed at least one task (the honest `worker_threads`).
    participants: AtomicUsize,
    /// When the first task was claimed / the last task finished — the
    /// honest wall-clock span of the set's *execution* (a dispatched set
    /// may sit idle while the submitting thread does overlapped work).
    started_at: Mutex<Option<Instant>>,
    finished_at: Mutex<Option<Instant>>,
}

/// One participating thread's share of a task set. The thread claims
/// indices from the shared cursor and completes each one exactly once, in
/// any order — a claimer may hold several open at a time (the solve stage
/// advances up to a lane batch of SDPs together).
pub(crate) struct Claims<'a, T> {
    set: &'a TaskSet<T>,
    /// Claimed but not yet completed.
    open: Vec<usize>,
    claimed_any: bool,
}

impl<T> Claims<'_, T> {
    /// Claims the next unclaimed index, or `None` once the cursor is
    /// exhausted. Never blocks.
    pub(crate) fn claim(&mut self) -> Option<usize> {
        let i = self.set.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.set.n {
            return None;
        }
        if !self.claimed_any {
            self.claimed_any = true;
            // Counted *before* the task completes so the join-side read
            // (sequenced after the final `done` increment) sees every
            // claimant.
            self.set.participants.fetch_add(1, Ordering::Relaxed);
            let mut started = lock(&self.set.started_at);
            if started.is_none() {
                *started = Some(Instant::now());
            }
        }
        self.open.push(i);
        Some(i)
    }

    /// Delivers the result of claimed index `i`.
    pub(crate) fn complete(&mut self, i: usize, result: Result<T, AnalysisError>) {
        if let Some(p) = self.open.iter().position(|&j| j == i) {
            self.open.swap_remove(p);
        }
        self.set.deliver(i, result);
    }
}

impl<T> TaskSet<T> {
    fn deliver(&self, i: usize, result: Result<T, AnalysisError>) {
        *lock(&self.results[i]) = Some(result);
        let mut done = lock(&self.done);
        *done += 1;
        if *done == self.n {
            *lock(&self.finished_at) = Some(Instant::now());
            self.all_done.notify_all();
        }
    }

    /// Runs the driver on this thread until the cursor is exhausted and
    /// everything this thread claimed is complete. A panic completes the
    /// thread's open claims with [`AnalysisError::Panicked`], and the
    /// driver resumes claiming — the joining thread may be the only one
    /// left to finish the set.
    fn drive(&self) {
        let mut claims = Claims {
            set: self,
            open: Vec::new(),
            claimed_any: false,
        };
        loop {
            let run = panic::catch_unwind(AssertUnwindSafe(|| (self.driver)(&mut claims)));
            let (msg, finished) = match run {
                Ok(()) => ("claimed task abandoned".to_string(), true),
                Err(payload) => (panic_message(payload), false),
            };
            for i in std::mem::take(&mut claims.open) {
                self.deliver(i, Err(AnalysisError::Panicked(msg.clone())));
            }
            if finished {
                return;
            }
        }
    }
}

/// The outcome of an indexed run: per-index results plus the number of
/// threads that actually processed at least one task.
pub(crate) struct RunOutcome<T> {
    pub results: Vec<Result<T, AnalysisError>>,
    pub participants: usize,
    /// Wall-clock span from the first claim to the last completion (zero
    /// for an empty set).
    pub elapsed: Duration,
}

/// An indexed task set whose pool share has been dispatched but which the
/// submitting thread has not yet joined — the window in which the caller
/// can overlap other work (e.g. the adaptive sweep planning the next MPS
/// width while the current width's SDPs solve).
pub(crate) struct PendingRun<T> {
    set: Arc<TaskSet<T>>,
}

impl<T: Send + 'static> PendingRun<T> {
    /// Joins the run: the calling thread claims remaining tasks, waits for
    /// stragglers, and collects the results.
    pub(crate) fn join(self) -> RunOutcome<T> {
        self.set.drive();
        {
            let mut done = lock(&self.set.done);
            while *done < self.set.n {
                done = self
                    .set
                    .all_done
                    .wait(done)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Late assist jobs may still hold `Arc`s to the set (they wake,
        // find the cursor exhausted, and return), so results are taken out
        // through the slots rather than by unwrapping the Arc.
        let elapsed = match (*lock(&self.set.started_at), *lock(&self.set.finished_at)) {
            (Some(start), Some(end)) => end.saturating_duration_since(start),
            _ => Duration::ZERO,
        };
        RunOutcome {
            results: self
                .set
                .results
                .iter()
                .map(|slot| lock(slot).take().expect("completed task slot"))
                .collect(),
            participants: self.set.participants.load(Ordering::Relaxed),
            elapsed,
        }
    }
}

/// Dispatches an indexed task set to the pool without joining it. Call
/// [`PendingRun::join`] to participate and collect; until then the caller
/// may do unrelated work while the pool makes progress.
pub(crate) fn spawn_indexed<T, F>(
    pool: &PoolHandle,
    class: PriorityClass,
    n: usize,
    task: F,
) -> PendingRun<T>
where
    T: Send + 'static,
    F: Fn(usize) -> Result<T, AnalysisError> + Send + Sync + 'static,
{
    spawn_claiming(pool, class, n, move |claims| {
        while let Some(i) = claims.claim() {
            let result = task(i);
            claims.complete(i, result);
        }
    })
}

/// Dispatches a task set whose participating threads each run `driver`
/// with their own [`Claims`]: claim indices until [`Claims::claim`]
/// returns `None`, and complete every claimed index before returning. A
/// driver may hold several claims open at once, but must never block on
/// another thread while it does.
pub(crate) fn spawn_claiming<T, F>(
    pool: &PoolHandle,
    class: PriorityClass,
    n: usize,
    driver: F,
) -> PendingRun<T>
where
    T: Send + 'static,
    F: Fn(&mut Claims<'_, T>) + Send + Sync + 'static,
{
    let set = Arc::new(TaskSet {
        driver: Box::new(driver),
        n,
        next: AtomicUsize::new(0),
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        done: Mutex::new(0),
        all_done: Condvar::new(),
        participants: AtomicUsize::new(0),
        started_at: Mutex::new(None),
        finished_at: Mutex::new(None),
    });
    // One assist job per spare pool thread, capped by the task count; the
    // joining caller is the final claimant. Excess assist jobs that wake up
    // late find the cursor exhausted and return immediately.
    let assists = pool.threads().saturating_sub(1).min(n);
    for _ in 0..assists {
        let set = Arc::clone(&set);
        pool.submit(class, Box::new(move || set.drive()));
    }
    PendingRun { set }
}

/// Runs `n` indexed tasks across the pool and the calling thread, blocking
/// until all complete. Tasks that panic yield [`AnalysisError::Panicked`].
pub(crate) fn run_indexed<T, F>(
    pool: &PoolHandle,
    class: PriorityClass,
    n: usize,
    task: F,
) -> RunOutcome<T>
where
    T: Send + 'static,
    F: Fn(usize) -> Result<T, AnalysisError> + Send + Sync + 'static,
{
    spawn_indexed(pool, class, n, task).join()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(pool: &Arc<WorkerPool>) -> PoolHandle {
        PoolHandle::new(pool)
    }

    fn run_indexed<T, F>(pool: &PoolHandle, n: usize, task: F) -> RunOutcome<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<T, AnalysisError> + Send + Sync + 'static,
    {
        super::run_indexed(pool, PriorityClass::Interactive, n, task)
    }

    fn spawn_indexed<T, F>(pool: &PoolHandle, n: usize, task: F) -> PendingRun<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> Result<T, AnalysisError> + Send + Sync + 'static,
    {
        super::spawn_indexed(pool, PriorityClass::Interactive, n, task)
    }

    #[test]
    fn runs_all_tasks_and_collects_in_order() {
        let pool = Arc::new(WorkerPool::new(4));
        let out = run_indexed(&handle(&pool), 100, |i| Ok(i * 2));
        assert_eq!(out.results.len(), 100);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
        assert!(out.participants >= 1);
    }

    #[test]
    fn single_threaded_pool_runs_on_caller() {
        let pool = Arc::new(WorkerPool::new(1));
        let caller = std::thread::current().id();
        let out = run_indexed(&handle(&pool), 8, move |i| {
            assert_eq!(std::thread::current().id(), caller);
            Ok(i)
        });
        assert_eq!(out.participants, 1);
        assert!(out.results.iter().all(Result::is_ok));
    }

    #[test]
    fn panics_become_errors_not_aborts() {
        let pool = Arc::new(WorkerPool::new(2));
        let out = run_indexed(&handle(&pool), 4, |i| {
            if i == 2 {
                panic!("task {i} exploded");
            }
            Ok(i)
        });
        assert!(matches!(
            &out.results[2],
            Err(AnalysisError::Panicked(msg)) if msg.contains("exploded")
        ));
        assert!(out.results[0].is_ok() && out.results[3].is_ok());
        // The pool survives: a fresh set still completes.
        let again = run_indexed(&handle(&pool), 4, |i| Ok(i));
        assert!(again.results.iter().all(Result::is_ok));
    }

    #[test]
    fn nested_sets_do_not_deadlock() {
        // Outer tasks each fan an inner set over the same pool — the batch
        // + solve-stage nesting. Must complete even when every worker is
        // busy with outer tasks (claiming threads self-serve).
        let pool = Arc::new(WorkerPool::new(2));
        let h = handle(&pool);
        let inner_handle = h.clone();
        let out = run_indexed(&h, 4, move |i| {
            let inner = run_indexed(&inner_handle, 8, move |j| Ok(i * 10 + j));
            Ok(inner.results.into_iter().map(Result::unwrap).sum::<usize>())
        });
        for (i, r) in out.results.iter().enumerate() {
            let expected: usize = (0..8).map(|j| i * 10 + j).sum();
            assert_eq!(*r.as_ref().unwrap(), expected);
        }
    }

    #[test]
    fn workers_spawn_lazily_on_first_job() {
        let pool = Arc::new(WorkerPool::new(4));
        assert!(
            lock(&pool.handles).is_empty(),
            "construction must not spawn workers"
        );
        let out = run_indexed(&handle(&pool), 4, |i| Ok(i));
        assert!(out.results.iter().all(Result::is_ok));
        assert_eq!(
            lock(&pool.handles).len(),
            3,
            "first dispatch spawns the pool"
        );
    }

    #[test]
    fn empty_set_completes_immediately() {
        let pool = Arc::new(WorkerPool::new(2));
        let out = run_indexed(&handle(&pool), 0, |_| Ok(()));
        assert!(out.results.is_empty());
        assert_eq!(out.participants, 0);
    }

    #[test]
    fn classes_drain_in_priority_order() {
        // A threads == 1 pool never spawns regular workers, so submitted
        // jobs sit queued until this test pops them by hand — a fully
        // deterministic view of the scheduler's claim order.
        let pool = Arc::new(WorkerPool::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let note = |tag: &'static str| {
            let order = Arc::clone(&order);
            Box::new(move || lock(&order).push(tag)) as Job
        };
        pool.submit(PriorityClass::Batch, note("batch-1"));
        pool.submit(PriorityClass::Interactive, note("inter-1"));
        pool.submit(PriorityClass::Refinement, note("refine-1"));
        pool.submit(PriorityClass::Batch, note("batch-2"));
        pool.submit(PriorityClass::Interactive, note("inter-2"));
        assert_eq!(
            pool.depths(),
            SchedulerDepths {
                interactive: 2,
                refinement: 1,
                batch: 2,
            }
        );
        while let Some(job) = lock(&pool.shared.state).pop_next() {
            job();
        }
        assert_eq!(
            *lock(&order),
            ["inter-1", "inter-2", "refine-1", "batch-1", "batch-2"],
            "interactive before refinement before batch, FIFO within a class"
        );
        assert_eq!(pool.depths().total(), 0);
    }

    #[test]
    fn background_submit_runs_even_on_a_sequential_pool() {
        let pool = Arc::new(WorkerPool::new(1));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit_background(
            PriorityClass::Refinement,
            Box::new(move || tx.send(42usize).unwrap()),
        );
        // The dedicated background worker (not the caller) runs the job.
        assert_eq!(rx.recv().unwrap(), 42);
        assert_eq!(
            lock(&pool.handles).len(),
            1,
            "threads == 1 gets exactly one background worker"
        );
        // Foreground task sets still run on the caller alone.
        let out = run_indexed(&handle(&pool), 4, |i| Ok(i));
        assert!(out.results.iter().all(Result::is_ok));
    }

    #[test]
    fn background_submit_reuses_regular_workers_when_present() {
        let pool = Arc::new(WorkerPool::new(3));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit_background(
            PriorityClass::Refinement,
            Box::new(move || tx.send(7usize).unwrap()),
        );
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(
            lock(&pool.handles).len(),
            2,
            "threads > 1 spawns the regular workers, no extra one"
        );
    }

    #[test]
    fn claimers_hold_several_claims_and_panics_release_them() {
        // Each claimer holds up to three claims open and completes them
        // out of order; the driver panics while holding claims that
        // include index 5. Every index still gets exactly one result, the
        // panic's open claims become `Panicked`, and claiming resumes.
        for threads in [1, 3] {
            let pool = Arc::new(WorkerPool::new(threads));
            let out = spawn_claiming(
                &handle(&pool),
                PriorityClass::Interactive,
                20,
                |claims: &mut Claims<'_, usize>| {
                    let mut held = Vec::new();
                    loop {
                        while held.len() < 3 {
                            match claims.claim() {
                                Some(i) => held.push(i),
                                None => break,
                            }
                        }
                        if held.is_empty() {
                            return;
                        }
                        if held.contains(&5) {
                            panic!("lane batch exploded");
                        }
                        while let Some(i) = held.pop() {
                            claims.complete(i, Ok(i * 3));
                        }
                    }
                },
            )
            .join();
            assert_eq!(out.results.len(), 20);
            for (i, r) in out.results.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i * 3),
                    Err(AnalysisError::Panicked(msg)) => {
                        assert!(msg.contains("exploded"), "{msg}")
                    }
                    Err(e) => panic!("index {i}: {e}"),
                }
            }
            assert!(matches!(out.results[5], Err(AnalysisError::Panicked(_))));
            assert!(out.results.iter().filter(|r| r.is_ok()).count() >= 17);
        }
    }

    #[test]
    fn overlapped_spawn_then_join() {
        let pool = Arc::new(WorkerPool::new(2));
        let pending = spawn_indexed(&handle(&pool), 16, |i| Ok(i + 1));
        // Caller-side work happens here while the pool chews on the set.
        let side: usize = (0..1000).sum();
        assert_eq!(side, 499_500);
        let out = pending.join();
        assert_eq!(out.results.len(), 16);
        assert!(out.results.iter().all(Result::is_ok));
    }
}
