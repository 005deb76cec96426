//! Campaign scheduling: one claim-gated reorder core under two schedulers.
//!
//! Every job is an independent, deterministic simulation, and results
//! reach the consumer in job-index order on the consumer's own thread,
//! so output is byte-identical for any worker count and any
//! interleaving of concurrent campaigns — the property the
//! parallel-equals-serial and concurrent-identity tests pin.
//!
//! The scheduling core is private to this module and has four parts:
//!
//! - **The claim gate.** A *task* is one job stream with a claim cursor
//!   and an emission cursor. Its next job may start only while
//!   `next_claim < emitted + window`, so at most `window + workers`
//!   results ever exist outside the consumer: a streamed campaign holds
//!   O(window) records in memory, not O(jobs).
//! - **The worker loop.** Workers claim one job at a time, round-robin
//!   across registered tasks, and catch the job's unwind exactly once:
//!   the value or the panic payload travels back to the task's consumer
//!   as data, so no worker ever dies or strands a sibling in the gate.
//! - **The in-order drain.** On the consumer's thread, a `BTreeMap`
//!   reorder buffer emits the contiguous prefix, advances `emitted` and
//!   wakes the workers. A job that panicked under
//!   [`FailurePolicy::Abort`] is re-raised there, in order, with its
//!   original payload.
//! - **The task guard.** Dropping it deregisters the task and wakes its
//!   workers, on every exit of the drain: normal return, callback error
//!   or panic.
//!
//! [`WorkerPool`] runs the worker loop on long-lived threads shared by
//! every active campaign. [`Executor`] is a thin wrapper: one task on
//! `min(workers, n)` scoped threads that leave once it is gone, or, with
//! a single worker, a plain loop on the calling thread (the serial
//! reference). Both implement [`JobScheduler`], the seam the result
//! store runs on; the other entry points are [`Executor::par_map`],
//! [`Executor::run_streaming`], [`Executor::run_jobs`] and
//! [`Executor::run`].

use crate::report::{CampaignResult, Record};
use crate::sink::RecordSink;
use crate::spec::Job;
use eend_wireless::Simulator;
use std::collections::BTreeMap;
use std::io;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Deterministic exponential backoff between retry attempts:
/// `delay(attempt) = base_ms << (attempt - 1)`, capped at
/// [`Backoff::CAP_MS`]. A `base_ms` of 0 never sleeps, which is what
/// chaos tests use to keep retries wall-clock free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
}

impl Backoff {
    /// Upper bound on any single retry delay.
    pub const CAP_MS: u64 = 5_000;

    /// No delay between attempts (deterministic-test mode).
    pub const fn none() -> Backoff {
        Backoff { base_ms: 0 }
    }

    /// The delay after the `attempt`-th failure (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.base_ms == 0 {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(32);
        Duration::from_millis(self.base_ms.saturating_mul(1u64 << shift).min(Self::CAP_MS))
    }
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff { base_ms: 100 }
    }
}

/// What a campaign run does when a job panics.
///
/// [`FailurePolicy::Abort`] is today's behaviour and the default: the
/// panic propagates out of the executor exactly as before this type
/// existed. The containment policies turn a panic into a structured
/// [`JobFailure`] delivered to the caller's failure callback instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Propagate the panic; the campaign dies (the pre-PR-8 behaviour).
    #[default]
    Abort,
    /// Record the failure and keep going with the remaining jobs.
    Skip,
    /// Re-run the job up to `max_attempts` times total, sleeping
    /// `backoff.delay(k)` after the k-th failure; exhausting every
    /// attempt degrades to [`FailurePolicy::Skip`] for that job.
    Retry {
        /// Total attempts per job (clamped to at least 1).
        max_attempts: u32,
        /// Delay schedule between attempts.
        backoff: Backoff,
    },
}

impl FailurePolicy {
    /// `Retry` with the default backoff schedule.
    pub fn retry(max_attempts: u32) -> FailurePolicy {
        FailurePolicy::Retry { max_attempts, backoff: Backoff::default() }
    }

    /// Parses the CLI / manifest label grammar:
    /// `abort` | `skip` | `retry=N` | `retry=N:BASE_MS`.
    pub fn parse(s: &str) -> Option<FailurePolicy> {
        match s {
            "abort" => Some(FailurePolicy::Abort),
            "skip" => Some(FailurePolicy::Skip),
            _ => {
                let n = s.strip_prefix("retry=")?;
                let (attempts, base) = match n.split_once(':') {
                    Some((a, b)) => (a, Some(b)),
                    None => (n, None),
                };
                let max_attempts: u32 = attempts.parse().ok().filter(|&a| a >= 1)?;
                let backoff = match base {
                    Some(b) => Backoff { base_ms: b.parse().ok()? },
                    None => Backoff::default(),
                };
                Some(FailurePolicy::Retry { max_attempts, backoff })
            }
        }
    }

    /// The label [`FailurePolicy::parse`] round-trips: what manifests and
    /// submit bodies store.
    pub fn label(&self) -> String {
        match self {
            FailurePolicy::Abort => "abort".to_string(),
            FailurePolicy::Skip => "skip".to_string(),
            FailurePolicy::Retry { max_attempts, backoff } => {
                if *backoff == Backoff::default() {
                    format!("retry={max_attempts}")
                } else {
                    format!("retry={max_attempts}:{}", backoff.base_ms)
                }
            }
        }
    }

    /// Total attempts a job gets under this policy.
    pub(crate) fn attempts(&self) -> u32 {
        match self {
            FailurePolicy::Abort | FailurePolicy::Skip => 1,
            FailurePolicy::Retry { max_attempts, .. } => (*max_attempts).max(1),
        }
    }

    /// The sleep after the `attempt`-th failure (zero unless retrying).
    pub(crate) fn backoff_delay(&self, attempt: u32) -> Duration {
        match self {
            FailurePolicy::Retry { backoff, .. } => backoff.delay(attempt),
            _ => Duration::ZERO,
        }
    }
}

/// A job that panicked on every attempt its policy allowed, contained
/// into data instead of an unwinding stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job's global index within the campaign grid ([`Job::index`]).
    pub job_id: usize,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// The panic payload, stringified.
    pub cause: String,
}

/// The outcome of one contained job execution.
#[derive(Debug)]
pub enum JobOutcome {
    /// The job produced its record (possibly after retries).
    Done(Box<Record>),
    /// The job panicked on every permitted attempt.
    Failed(JobFailure),
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as a
/// human-readable cause string.
pub fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Simulates one job. Chaos hook `job.run` matches on the *global* job
/// index, so it fires on the same logical job under any worker count.
fn run_job(job: &Job) -> Record {
    if eend_fail::hit_at("job.run", job.index as u64).is_some() {
        panic!("failpoint job.run fired (job {})", job.index);
    }
    Record { point: job.point.clone(), metrics: Simulator::new(&job.scenario).run() }
}

/// Runs one job under a containment policy: `catch_unwind` around each
/// attempt, deterministic backoff between attempts, a structured
/// failure when attempts run out. Under [`FailurePolicy::Abort`] nothing
/// is caught here: the panic unwinds to the scheduler, which re-raises
/// its original payload on the consumer's thread.
fn run_job_contained(job: &Job, policy: &FailurePolicy) -> JobOutcome {
    if *policy == FailurePolicy::Abort {
        return JobOutcome::Done(Box::new(run_job(job)));
    }
    let attempts = policy.attempts();
    let mut cause = String::new();
    for attempt in 1..=attempts {
        match catch_unwind(AssertUnwindSafe(|| run_job(job))) {
            Ok(record) => return JobOutcome::Done(Box::new(record)),
            Err(payload) => {
                cause = panic_cause(payload.as_ref());
                let delay = policy.backoff_delay(attempt);
                if attempt < attempts && !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
    JobOutcome::Failed(JobFailure { job_id: job.index, attempts, cause })
}

/// Hands one job's outcome to the matching
/// [`JobScheduler::run_jobs_streaming`] callback.
fn deliver(
    i: usize,
    outcome: JobOutcome,
    on_record: &mut dyn FnMut(usize, &Record) -> io::Result<()>,
    on_failure: &mut dyn FnMut(&JobFailure) -> io::Result<()>,
) -> io::Result<()> {
    match outcome {
        JobOutcome::Done(record) => on_record(i, &record),
        JobOutcome::Failed(failure) => on_failure(&failure),
    }
}

// ---------------------------------------------------------------------
// The scheduling core.

/// The streaming reorder window for `workers` workers: deep enough that
/// a straggler never idles the pool, shallow enough that buffered
/// results stay O(workers).
fn reorder_window(workers: usize) -> usize {
    4 * workers
}

/// What a worker sends its task's consumer: the job index and the
/// job's value, or the payload of the panic that unwound it.
type Finished<T> = (usize, std::thread::Result<T>);

/// One registered job stream: `n` jobs computed by `run`, plus its
/// claim and emission cursors. Guarded by the core's single mutex —
/// claims and cursor advances are rare next to the jobs they schedule.
struct Task<'a, T> {
    id: u64,
    n: usize,
    run: Arc<dyn Fn(usize) -> T + Send + Sync + 'a>,
    window: usize,
    /// Next job index a worker may claim.
    next_claim: usize,
    /// The consumer's in-order emission cursor.
    emitted: usize,
    tx: mpsc::Sender<Finished<T>>,
}

impl<T> Task<'_, T> {
    /// The claim gate.
    fn claimable(&self) -> bool {
        self.next_claim < self.n && self.next_claim < self.emitted + self.window
    }
}

struct CoreState<'a, T> {
    tasks: Vec<Task<'a, T>>,
    /// Round-robin cursor: each claim starts scanning at the task after
    /// the previously claimed one, so runnable tasks share the workers
    /// per claim and a huge campaign cannot starve a small one.
    rr: usize,
    next_id: u64,
    shutdown: bool,
}

struct Core<'a, T> {
    state: Mutex<CoreState<'a, T>>,
    /// Workers wait here when no task is claimable; notified on task
    /// registration, emission-cursor advance, task removal, shutdown.
    work_cv: Condvar,
    /// Long-lived pool threads wait for the next task; an executor's
    /// scoped threads leave as soon as no task is registered.
    persistent: bool,
}

impl<'a, T: Send> Core<'a, T> {
    fn new(persistent: bool) -> Core<'a, T> {
        Core {
            state: Mutex::new(CoreState { tasks: Vec::new(), rr: 0, next_id: 0, shutdown: false }),
            work_cv: Condvar::new(),
            persistent,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CoreState<'a, T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a task of `n` jobs and returns its guard, from which
    /// the caller drains the results.
    fn register(
        &self,
        n: usize,
        window: usize,
        run: Arc<dyn Fn(usize) -> T + Send + Sync + 'a>,
    ) -> io::Result<TaskGuard<'_, 'a, T>> {
        let (tx, rx) = mpsc::channel();
        let mut s = self.lock();
        if s.shutdown {
            return Err(io::Error::other("worker pool is shut down"));
        }
        let id = s.next_id;
        s.next_id += 1;
        s.tasks.push(Task { id, n, run, window: window.max(1), next_claim: 0, emitted: 0, tx });
        drop(s);
        self.work_cv.notify_all();
        Ok(TaskGuard { core: self, id, n, rx })
    }

    /// The worker loop.
    fn work(&self) {
        let mut s = self.lock();
        loop {
            if s.shutdown || (!self.persistent && s.tasks.is_empty()) {
                return;
            }
            let len = s.tasks.len();
            let Some(k) = (0..len).map(|off| (s.rr + off) % len).find(|&k| s.tasks[k].claimable())
            else {
                s = self.work_cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            s.rr = (k + 1) % len;
            let task = &mut s.tasks[k];
            let i = task.next_claim;
            task.next_claim += 1;
            let (run, tx) = (Arc::clone(&task.run), task.tx.clone());
            drop(s);
            // A send failure means the consumer is gone (error or
            // unwind) and its task deregistered: drop the result.
            let _ = tx.send((i, catch_unwind(AssertUnwindSafe(|| run(i)))));
            s = self.lock();
        }
    }
}

/// A registered task, owned by its consumer. Dropping it deregisters
/// the task and wakes the workers, whichever way the consumer leaves.
struct TaskGuard<'c, 'a, T: Send> {
    core: &'c Core<'a, T>,
    id: u64,
    n: usize,
    rx: mpsc::Receiver<Finished<T>>,
}

impl<T: Send> TaskGuard<'_, '_, T> {
    /// The in-order drain: hands every result to `emit` in job-index
    /// order on the calling thread. The first `emit` error stops the
    /// stream and is returned; a job's panic is re-raised here with its
    /// original payload.
    fn drain(self, mut emit: impl FnMut(usize, T) -> io::Result<()>) -> io::Result<()> {
        let mut pending = BTreeMap::new();
        let mut emitted = 0;
        while emitted < self.n {
            let Ok((i, result)) = self.rx.recv() else {
                // Every sender is gone with jobs outstanding: the pool
                // was shut down under this task.
                return Err(io::Error::other("worker pool shut down mid-campaign"));
            };
            pending.insert(i, result);
            let before = emitted;
            while let Some(result) = pending.remove(&emitted) {
                match result {
                    Ok(v) => emit(emitted, v)?,
                    Err(payload) => resume_unwind(payload),
                }
                emitted += 1;
            }
            if emitted > before {
                if let Some(t) = self.core.lock().tasks.iter_mut().find(|t| t.id == self.id) {
                    t.emitted = emitted;
                }
                self.core.work_cv.notify_all();
            }
        }
        Ok(())
    }
}

impl<T: Send> Drop for TaskGuard<'_, '_, T> {
    fn drop(&mut self) {
        self.core.lock().tasks.retain(|t| t.id != self.id);
        self.core.work_cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// The two schedulers.

/// A bounded worker pool for campaign jobs: the core on scoped threads,
/// one task per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// A pool bounded at the machine's available parallelism (never less
    /// than one worker).
    pub fn bounded() -> Executor {
        Executor {
            workers: std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        }
    }

    /// A pool with exactly `workers` workers (clamped to at least 1).
    /// `with_workers(1)` is the serial reference execution.
    pub fn with_workers(workers: usize) -> Executor {
        Executor { workers: workers.max(1) }
    }

    /// The worker bound this executor runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0..n)` and hands each result to `emit` in index order on
    /// the calling thread, as soon as it is the next index. One task on
    /// `min(workers, n)` scoped threads; with one worker, a plain loop
    /// on the calling thread.
    fn stream<T: Send>(
        &self,
        n: usize,
        window: usize,
        f: impl Fn(usize) -> T + Sync,
        mut emit: impl FnMut(usize, T) -> io::Result<()>,
    ) -> io::Result<()> {
        let workers = self.workers.min(n);
        if workers <= 1 {
            return (0..n).try_for_each(|i| emit(i, f(i)));
        }
        // The task exists before its workers start, and `drain` consumes
        // its guard, so on every exit it deregisters inside the scope and
        // the workers leave before the scope joins them.
        let core = Core::new(false);
        let task = core.register(n, window, Arc::new(&f))?;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| core.work());
            }
            task.drain(emit)
        })
    }

    /// Runs `f(0..n)` across the pool and returns the results in index
    /// order. The pool never holds more than `min(workers, n)` OS
    /// threads, however large `n` is.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        // window = n: the claim gate never blocks.
        self.stream(n, n, f, |_, v| {
            out.push(v);
            Ok(())
        })
        .expect("collecting into a Vec cannot fail");
        out
    }

    /// Simulates every job, pushing one [`Record`] per job into `sink`
    /// **in job order** as workers complete. Peak memory is O(workers)
    /// records plus whatever the sink retains — a streaming sink
    /// (CSV/JSONL/store) keeps a grid of any size out of RAM.
    pub fn run_streaming(&self, jobs: &[Job], sink: &mut dyn RecordSink) -> io::Result<()> {
        self.stream(
            jobs.len(),
            reorder_window(self.workers),
            |i| run_job(&jobs[i]),
            |_, record| sink.accept(&record),
        )?;
        sink.finish()
    }

    /// Simulates every job and returns one [`Record`] per job, in job
    /// order.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<Record> {
        self.par_map(jobs.len(), |i| run_job(&jobs[i]))
    }

    /// Expands and runs a whole campaign: [`crate::CampaignSpec::expand`]
    /// followed by [`Executor::run_jobs`], wrapped into a
    /// [`CampaignResult`].
    pub fn run(&self, spec: &crate::CampaignSpec) -> CampaignResult {
        let jobs = spec.expand();
        CampaignResult { campaign: spec.name.clone(), records: self.run_jobs(&jobs) }
    }
}

/// Anything that can execute a job list with policy-aware, in-order
/// streaming delivery — the seam between the result store and the two
/// schedulers: a private scoped pool per call ([`Executor`]) or one
/// long-lived pool shared by every concurrent campaign ([`WorkerPool`]).
///
/// Implementations must deliver callbacks **in job-index order on the
/// calling thread**: that ordering is what makes every store's
/// `records.jsonl` byte-identical to a solo serial run no matter how
/// jobs interleave across campaigns.
pub trait JobScheduler {
    /// The worker bound jobs run under.
    fn workers(&self) -> usize;

    /// Runs every job of `jobs` under `policy`, delivering
    /// `on_record(i, record)` (where `i` indexes into `jobs`) or
    /// `on_failure(failure)` in job-index order on the calling thread.
    /// The first callback error aborts the stream (no further jobs are
    /// claimed) and is returned. Under [`FailurePolicy::Abort`] a
    /// panicking job re-raises on the calling thread with its original
    /// payload.
    fn run_jobs_streaming(
        &self,
        jobs: &[Job],
        policy: &FailurePolicy,
        on_record: &mut dyn FnMut(usize, &Record) -> io::Result<()>,
        on_failure: &mut dyn FnMut(&JobFailure) -> io::Result<()>,
    ) -> io::Result<()>;
}

impl JobScheduler for Executor {
    fn workers(&self) -> usize {
        self.workers
    }

    fn run_jobs_streaming(
        &self,
        jobs: &[Job],
        policy: &FailurePolicy,
        on_record: &mut dyn FnMut(usize, &Record) -> io::Result<()>,
        on_failure: &mut dyn FnMut(&JobFailure) -> io::Result<()>,
    ) -> io::Result<()> {
        self.stream(
            jobs.len(),
            reorder_window(self.workers),
            |i| run_job_contained(&jobs[i], policy),
            |i, outcome| deliver(i, outcome, on_record, on_failure),
        )
    }
}

/// A long-lived, bounded worker pool that multiplexes **every active
/// campaign** onto one set of OS threads — the daemon's scheduler.
///
/// Each [`JobScheduler::run_jobs_streaming`] call registers a task (one
/// campaign's pending jobs) with the shared core. Idle workers claim
/// round-robin across runnable tasks — one claim, next task — so K
/// runnable campaigns each get ~1/K of the pool (fair share) and a lone
/// campaign gets all of it (work conserving). A campaign whose policy is
/// [`FailurePolicy::Abort`] re-raises a job's panic on its *own*
/// consumer thread, and its task deregisters during that unwind, so the
/// pool stops claiming its jobs at once while other campaigns run on.
pub struct WorkerPool {
    core: Arc<Core<'static, JobOutcome>>,
    workers: usize,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// Starts a pool of exactly `workers` threads (clamped to at
    /// least 1), named `eend-pool-worker`.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let core = Arc::new(Core::new(true));
        let threads = (0..workers)
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name("eend-pool-worker".into())
                    .spawn(move || core.work())
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { core, workers, threads: Mutex::new(threads) }
    }

    /// Stops the pool: running jobs finish (their results are dropped
    /// if their consumer is gone), registered tasks are cancelled (a
    /// consumer blocked on results gets an error), and every worker
    /// thread is joined. Idempotent.
    pub fn shutdown(&self) {
        let mut s = self.core.lock();
        s.shutdown = true;
        // Dropping the registry's senders fails pending consumers'
        // `recv` over to the shutdown error path.
        s.tasks.clear();
        drop(s);
        self.core.work_cv.notify_all();
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        for t in threads {
            let _ = t.join();
        }
    }

    /// Tasks currently registered (campaigns with jobs still being
    /// claimed or emitted) — observability for status endpoints and the
    /// no-zombie-slots tests.
    pub fn active_tasks(&self) -> usize {
        self.core.lock().tasks.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl JobScheduler for WorkerPool {
    fn workers(&self) -> usize {
        self.workers
    }

    fn run_jobs_streaming(
        &self,
        jobs: &[Job],
        policy: &FailurePolicy,
        on_record: &mut dyn FnMut(usize, &Record) -> io::Result<()>,
        on_failure: &mut dyn FnMut(&JobFailure) -> io::Result<()>,
    ) -> io::Result<()> {
        if jobs.is_empty() {
            return Ok(());
        }
        let (jobs, policy) = (jobs.to_vec(), policy.clone());
        self.core
            .register(
                jobs.len(),
                reorder_window(self.workers),
                Arc::new(move |i| run_job_contained(&jobs[i], &policy)),
            )?
            .drain(|i, outcome| deliver(i, outcome, on_record, on_failure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_index_order() {
        for workers in [1, 2, 3, 8, 64] {
            let out = Executor::with_workers(workers).par_map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn par_map_empty_and_oversized_pools() {
        let ex = Executor::with_workers(16);
        assert!(ex.par_map(0, |i| i).is_empty());
        // More workers than jobs: every job still runs exactly once.
        assert_eq!(ex.par_map(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn worker_count_is_bounded() {
        // Track the peak number of concurrently-live closures: it must
        // never exceed the configured bound even with many more jobs.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let bound = 3;
        Executor::with_workers(bound).par_map(64, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(
            peak.load(Ordering::SeqCst) <= bound,
            "peak {} > bound {bound}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Executor::with_workers(0).workers(), 1);
        assert!(Executor::bounded().workers() >= 1);
    }

    #[test]
    fn stream_emits_in_order_under_stragglers() {
        // Job 0 is the slowest by far: every other job completes first
        // and must wait in the reorder buffer, yet emission order is
        // still 0, 1, 2, ...
        let mut seen = Vec::new();
        Executor::with_workers(4)
            .stream(
                32,
                8,
                |i| {
                    std::thread::sleep(std::time::Duration::from_micros(if i == 0 {
                        3000
                    } else {
                        50
                    }));
                    i * 10
                },
                |i, v| {
                    seen.push((i, v));
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(seen, (0..32).map(|i| (i, i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn claim_gate_bounds_how_far_workers_run_ahead() {
        // With job 0 stuck, no worker may *start* a job outside the
        // reorder window: every started index i must satisfy
        // i < emitted + window at its start instant.
        let window = 4;
        let workers = 4;
        let emitted = AtomicUsize::new(0);
        let max_overrun = AtomicUsize::new(0);
        Executor::with_workers(workers)
            .stream(
                64,
                window,
                |i| {
                    let e = emitted.load(Ordering::SeqCst);
                    max_overrun.fetch_max(i.saturating_sub(e), Ordering::SeqCst);
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                },
                |i, _| {
                    emitted.store(i + 1, Ordering::SeqCst);
                    Ok(())
                },
            )
            .unwrap();
        // The emitted counter in this test lags the real cursor by at
        // most the emit-callback race, so allow one extra slot.
        assert!(
            max_overrun.load(Ordering::SeqCst) <= window + 1,
            "a worker started {} jobs past the emit cursor (window {window})",
            max_overrun.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn streaming_matches_run_jobs_byte_for_byte() {
        use crate::sink::{CsvSink, JsonlSink};
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;

        let spec = CampaignSpec::new("stream", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .rates(vec![2.0, 4.0])
            .seeds(2)
            .secs(20);
        let jobs = spec.expand();
        let reference = crate::CampaignResult {
            campaign: spec.name.clone(),
            records: Executor::with_workers(1).run_jobs(&jobs),
        };
        for workers in [1, 2, 5] {
            let ex = Executor::with_workers(workers);
            let mut csv = CsvSink::new(&spec.name, Vec::new());
            // A tight window forces the reorder machinery to engage.
            ex.stream(jobs.len(), 2, |i| run_job(&jobs[i]), |_, r| csv.accept(&r)).unwrap();
            csv.finish().unwrap();
            assert_eq!(
                String::from_utf8(csv.into_inner()).unwrap(),
                reference.to_csv(),
                "streamed CSV differs at {workers} workers"
            );
            let mut jsonl = JsonlSink::new(&spec.name, Vec::new());
            ex.run_streaming(&jobs, &mut jsonl).unwrap();
            assert_eq!(String::from_utf8(jsonl.into_inner()).unwrap().lines().count(), jobs.len());
        }
    }

    #[test]
    fn sink_errors_surface_from_run_streaming() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;

        struct Failing;
        impl crate::sink::RecordSink for Failing {
            fn accept(&mut self, _: &Record) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let jobs = CampaignSpec::new("err", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .rates(vec![2.0])
            .seeds(2)
            .secs(10)
            .expand();
        let err = Executor::with_workers(2).run_streaming(&jobs, &mut Failing).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn sink_error_aborts_the_stream_early() {
        // An emit that refuses after the first result must stop the pool
        // from claiming (and running) the whole job list, even with a
        // tight window keeping the gate active.
        let started = AtomicUsize::new(0);
        let mut emitted = 0;
        let err = Executor::with_workers(3)
            .stream(
                10_000,
                2,
                |i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    i
                },
                |_, _| {
                    emitted += 1;
                    Err(io::Error::other("disk full")) // on the very first record
                },
            )
            .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(emitted, 1);
        let started = started.load(Ordering::SeqCst);
        assert!(
            started < 100,
            "abort must stop the pool promptly; {started} jobs ran out of 10000"
        );
    }

    #[test]
    fn failure_policy_labels_round_trip() {
        for policy in [
            FailurePolicy::Abort,
            FailurePolicy::Skip,
            FailurePolicy::retry(3),
            FailurePolicy::Retry { max_attempts: 5, backoff: Backoff::none() },
            FailurePolicy::Retry { max_attempts: 2, backoff: Backoff { base_ms: 250 } },
        ] {
            assert_eq!(FailurePolicy::parse(&policy.label()), Some(policy.clone()), "{policy:?}");
        }
        assert_eq!(FailurePolicy::parse("retry=3").unwrap().label(), "retry=3");
        assert_eq!(FailurePolicy::parse("retry=3:0").unwrap().label(), "retry=3:0");
        assert_eq!(FailurePolicy::parse("retry=0"), None);
        assert_eq!(FailurePolicy::parse("retry="), None);
        assert_eq!(FailurePolicy::parse("sometimes"), None);
        assert_eq!(FailurePolicy::default(), FailurePolicy::Abort);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let b = Backoff { base_ms: 100 };
        let ms: Vec<u64> = (1..=8).map(|a| b.delay(a).as_millis() as u64).collect();
        assert_eq!(ms, vec![100, 200, 400, 800, 1600, 3200, 5000, 5000]);
        // base 0 never sleeps — the wall-clock-free test mode.
        assert_eq!(Backoff::none().delay(1), Duration::ZERO);
        assert_eq!(Backoff::none().delay(40), Duration::ZERO);
        // Huge attempt counts must not overflow the shift.
        assert_eq!(b.delay(u32::MAX).as_millis() as u64, Backoff::CAP_MS);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn failure_policy_parse_never_panics_and_round_trips(
            opener in 0..POLICY_OPENERS.len(),
            picks in proptest::collection::vec(0..POLICY_PIECES.len(), 0..6),
        ) {
            let text: String = std::iter::once(POLICY_OPENERS[opener])
                .chain(picks.iter().map(|&i| POLICY_PIECES[i]))
                .collect();
            if let Some(p) = FailurePolicy::parse(&text) {
                proptest::prop_assert_eq!(FailurePolicy::parse(&p.label()), Some(p));
            }
        }
    }

    const POLICY_OPENERS: &[&str] = &["", "retry=", "retry=3", "retry=2:", "abort", "skip"];
    const POLICY_PIECES: &[&str] = &[
        "retry=",
        "0",
        "1",
        "7",
        "100",
        "4294967295",
        "4294967296",
        "18446744073709551616",
        "99999999999999999999999999",
        ":",
        "::",
        "=",
        "+",
        "-",
        " ",
        "é",
        "日本",
        "\u{0}",
    ];

    /// Runs `f` on a watchdog thread and returns the message it panicked
    /// with, failing instead of hanging when it does not finish within a
    /// minute.
    fn panic_message_within_a_minute(what: &str, f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ =
                tx.send(catch_unwind(AssertUnwindSafe(f)).err().map(|p| panic_cause(p.as_ref())));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Some(message)) => message,
            Ok(None) => panic!("{what} returned instead of panicking"),
            Err(_) => panic!("{what} hung"),
        }
    }

    #[test]
    fn consumer_panic_unwinds_instead_of_hanging() {
        // The consumer panics on the first record, with more jobs than
        // the window: workers waiting at the gate must be released, not
        // left for the thread scope to wait on forever.
        for workers in [2, 4] {
            let message = panic_message_within_a_minute(&format!("{workers} workers"), move || {
                let _ = Executor::with_workers(workers).stream(
                    64,
                    2,
                    |i| i,
                    |_, _| panic!("consumer exploded"),
                );
            });
            assert_eq!(message, "consumer exploded", "workers={workers}");
        }
        let pool = Arc::new(WorkerPool::new(2));
        let jobs = pool_jobs("consumer-panic", 12); // more than the pool's window of 8
        let (consumer_pool, consumer_jobs) = (Arc::clone(&pool), jobs.clone());
        let message = panic_message_within_a_minute("worker pool", move || {
            let _ = consumer_pool.run_jobs_streaming(
                &consumer_jobs,
                &FailurePolicy::Abort,
                &mut |_, _| panic!("consumer exploded"),
                &mut |_| Ok(()),
            );
        });
        assert_eq!(message, "consumer exploded");
        assert_eq!(pool.active_tasks(), 0, "the unwound consumer must release its task");
        assert_eq!(collect_pool_run(&pool, &jobs).len(), jobs.len());
    }

    #[test]
    fn job_panic_reraises_its_own_payload_at_any_worker_count() {
        // Job 3 panics under a tight window while its siblings wait at
        // the gate. Every worker count emits the records before it, then
        // re-raises the job's own message.
        for workers in [1, 2, 4] {
            let emitted = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&emitted);
            let message = panic_message_within_a_minute(&format!("{workers} workers"), move || {
                let _ = Executor::with_workers(workers).stream(
                    1000,
                    2,
                    |i| {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        i
                    },
                    |i, _| {
                        seen.lock().unwrap().push(i);
                        Ok(())
                    },
                );
            });
            assert_eq!(message, "job 3 exploded", "workers={workers}");
            assert_eq!(*emitted.lock().unwrap(), vec![0, 1, 2], "workers={workers}");
        }
    }

    /// A small real job list for the shared-pool tests.
    fn pool_jobs(name: &str, seeds: u64) -> Vec<Job> {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        CampaignSpec::new(name, BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![2.0])
            .seeds(seeds)
            .secs(10)
            .expand()
    }

    fn collect_pool_run(pool: &WorkerPool, jobs: &[Job]) -> Vec<(usize, Record)> {
        let mut got = Vec::new();
        pool.run_jobs_streaming(
            jobs,
            &FailurePolicy::Abort,
            &mut |i, r| {
                got.push((i, r.clone()));
                Ok(())
            },
            &mut |f| Err(std::io::Error::other(format!("unexpected failure: {}", f.cause))),
        )
        .unwrap();
        got
    }

    #[test]
    fn pool_emits_in_order_and_matches_a_private_executor() {
        let jobs = pool_jobs("pool-order", 6);
        let reference = Executor::with_workers(1).run_jobs(&jobs);
        for workers in [1, 3] {
            let pool = WorkerPool::new(workers);
            // One worker's window of 4 is shorter than the job list, so
            // the claim gate and reorder buffer engage.
            let got = collect_pool_run(&pool, &jobs);
            assert_eq!(got.len(), jobs.len(), "workers={workers}");
            for (k, (i, record)) in got.iter().enumerate() {
                assert_eq!(*i, k, "emission order broke at {k} (workers={workers})");
                assert_eq!(record, &reference[k], "record {k} differs (workers={workers})");
            }
            assert_eq!(pool.active_tasks(), 0, "task must deregister after its run");
        }
    }

    #[test]
    fn pool_shares_workers_fairly_across_campaigns() {
        // A big campaign registered first must not starve a small one:
        // with round-robin claiming the 3-job campaign finishes while
        // the 12-job one still has jobs outstanding. (Without fairness
        // a worker would drain the first-registered task completely
        // before touching the second.)
        let pool = Arc::new(WorkerPool::new(1));
        let big = pool_jobs("pool-big", 12);
        let small = pool_jobs("pool-small", 3);
        let big_done = Arc::new(AtomicUsize::new(0));
        let big_at_small_finish = Arc::new(AtomicUsize::new(usize::MAX));

        let big_total = big.len();
        let big_pool = Arc::clone(&pool);
        let big_counter = Arc::clone(&big_done);
        let big_thread = std::thread::spawn(move || {
            big_pool
                .run_jobs_streaming(
                    &big,
                    &FailurePolicy::Abort,
                    &mut |_, _| {
                        big_counter.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    },
                    &mut |_| Ok(()),
                )
                .unwrap();
        });
        // Give the big campaign a head start so its task is first in
        // the registry (the unfair-drain order) — wait for its first
        // record rather than a wall-clock guess.
        while big_done.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_micros(200));
        }
        let n = collect_pool_run(&pool, &small).len();
        big_at_small_finish.store(big_done.load(Ordering::SeqCst), Ordering::SeqCst);
        big_thread.join().unwrap();
        assert_eq!(n, small.len());
        let seen = big_at_small_finish.load(Ordering::SeqCst);
        assert!(
            seen < big_total,
            "small campaign only finished after all {big_total} big jobs — no fair share"
        );
    }

    #[test]
    fn pool_survives_consumer_error_and_is_reusable() {
        let pool = WorkerPool::new(2);
        let jobs = pool_jobs("pool-err", 4);
        let err = pool
            .run_jobs_streaming(
                &jobs,
                &FailurePolicy::Abort,
                &mut |_, _| Err(std::io::Error::other("disk full")),
                &mut |_| Ok(()),
            )
            .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(pool.active_tasks(), 0, "failed consumer must release its task");
        // The same pool keeps serving new campaigns afterwards.
        assert_eq!(collect_pool_run(&pool, &jobs).len(), jobs.len());
    }

    #[test]
    fn pool_shutdown_fails_pending_consumers_and_new_registrations() {
        let pool = Arc::new(WorkerPool::new(1));
        let jobs = pool_jobs("pool-shutdown", 8);
        let consumer_pool = Arc::clone(&pool);
        let consumer_jobs = jobs.clone();
        let consumer = std::thread::spawn(move || {
            consumer_pool.run_jobs_streaming(
                &consumer_jobs,
                &FailurePolicy::Abort,
                &mut |_, _| Ok(()),
                &mut |_| Ok(()),
            )
        });
        std::thread::sleep(Duration::from_millis(10));
        pool.shutdown();
        let result = consumer.join().unwrap();
        // Fast machines may finish all 8 jobs before the shutdown
        // lands; otherwise the consumer must get the shutdown error.
        if let Err(e) = result {
            assert!(e.to_string().contains("shut down"), "unexpected error: {e}");
        }
        let err = pool
            .run_jobs_streaming(&jobs, &FailurePolicy::Abort, &mut |_, _| Ok(()), &mut |_| Ok(()))
            .unwrap_err();
        assert!(err.to_string().contains("shut down"), "unexpected error: {err}");
    }
}
