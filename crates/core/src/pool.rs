//! An in-tree work-stealing thread pool for parallel verification jobs.
//!
//! The container this crate builds in is offline, so no external
//! executor (rayon, crossbeam) is available; this module implements the
//! small slice of one the verification pipeline needs with nothing but
//! `std::thread` and mutex-guarded deques:
//!
//! * **Batch execution** — [`Pool::run`] takes a `Vec` of boxed jobs
//!   and returns one [`JobResult`] per job, *in submission order*,
//!   whatever order the workers finished in. Jobs may borrow from the
//!   caller's stack (the batch runs under [`std::thread::scope`]).
//! * **Work stealing** — each worker owns a deque seeded round-robin;
//!   an overflow injector holds the rest. A worker drains its own deque
//!   from the front, then the injector, then steals from the *back* of
//!   a sibling's deque, so long-running jobs don't strand work behind
//!   them.
//! * **Cooperative shutdown** — the pool carries a
//!   [`ResourceGovernor`]; once its cancellation token trips, remaining
//!   queued jobs are drained as [`JobResult::Skipped`] instead of
//!   executed. Jobs already running are expected to poll their own
//!   (usually [forked](ResourceGovernor::fork)) governor and stop
//!   early.
//! * **Panic containment** — a panicking job is caught and reported as
//!   [`JobResult::Panicked`] with its message; sibling jobs and the
//!   caller are unaffected.
//! * **Deterministic single-thread fallback** — with one worker (the
//!   default, and what `EMM_WORKERS=1` selects) the batch runs inline
//!   on the caller's thread in submission order, with no threads
//!   spawned at all. Differential tests lean on this: the parallel
//!   paths must produce bit-identical results at every worker count,
//!   and worker count 1 *is* the sequential reference.
//!
//! The pool deliberately has no long-lived worker threads: each
//! [`Pool::run`] call scopes its own. Verification batches are seconds
//! to minutes of SAT work, so thread spawn cost is noise, and scoping
//! lets jobs borrow the design/model being verified without `Arc`
//! gymnastics.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use emm_aig::fraig::{ClassReport, SweepRunner, SweepTask};
use emm_sat::ResourceGovernor;

/// A unit of work for [`Pool::run`]: boxed so batches are homogeneous,
/// `Send` so workers can execute it, `'env` so it may borrow from the
/// caller's stack (the batch is scoped).
pub type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// An index-tagged job queue (a worker deque or the shared injector).
type JobQueue<'env, T> = Mutex<VecDeque<(usize, Job<'env, T>)>>;

/// Outcome of one job of a [`Pool::run`] batch.
#[derive(Debug)]
pub enum JobResult<T> {
    /// The job ran to completion.
    Done(T),
    /// The job was drained unexecuted because the pool's governor was
    /// cancelled before a worker picked it up.
    Skipped,
    /// The job panicked; the payload is the panic message. The panic
    /// was contained — sibling jobs and the caller are unaffected.
    Panicked(String),
}

impl<T> JobResult<T> {
    /// The completed value, if the job ran; `None` for skipped or
    /// panicked jobs.
    pub fn into_option(self) -> Option<T> {
        match self {
            JobResult::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the job ran to completion.
    pub fn is_done(&self) -> bool {
        matches!(self, JobResult::Done(_))
    }

    /// Whether the job was drained unexecuted by a cancellation.
    pub fn is_skipped(&self) -> bool {
        matches!(self, JobResult::Skipped)
    }
}

/// Jobs seeded directly into each worker's deque before the remainder
/// goes to the shared injector: enough to start every worker without a
/// lock convoy on the injector, small enough that most of a big batch
/// stays centrally available.
const SEED_PER_WORKER: usize = 2;

/// The work-stealing pool. See the [module docs](self) for the design.
///
/// # Examples
///
/// ```
/// use emm_core::pool::Pool;
///
/// let pool = Pool::new(4);
/// let inputs = [1u64, 2, 3, 4, 5];
/// let results = pool.run(
///     inputs
///         .iter()
///         .map(|&x| Box::new(move || x * x) as Box<dyn FnOnce() -> u64 + Send>)
///         .collect(),
/// );
/// let squares: Vec<u64> = results.into_iter().map(|r| r.into_option().unwrap()).collect();
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
    governor: ResourceGovernor,
}

impl Default for Pool {
    /// A single-worker (inline, deterministic) pool.
    fn default() -> Pool {
        Pool::new(1)
    }
}

impl Pool {
    /// A pool with `workers` worker threads (clamped to at least 1) and
    /// an unlimited governor. One worker means strictly inline,
    /// deterministic execution.
    pub fn new(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
            governor: ResourceGovernor::unlimited(),
        }
    }

    /// Returns a copy wired to `governor`: once its cancellation token
    /// trips, queued jobs are drained as [`JobResult::Skipped`].
    pub fn with_governor(mut self, governor: ResourceGovernor) -> Pool {
        self.governor = governor;
        self
    }

    /// A pool sized by the `EMM_WORKERS` environment variable (the CI
    /// parallel matrix sets it); defaults to 1 — sequential — when
    /// unset or unparsable.
    pub fn from_env() -> Pool {
        let workers = std::env::var("EMM_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1);
        Pool::new(workers)
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The pool's shutdown governor.
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// Runs a batch of jobs and returns their results in submission
    /// order. Blocks until every job is done, skipped, or panicked.
    pub fn run<'env, T: Send>(&self, jobs: Vec<Job<'env, T>>) -> Vec<JobResult<T>> {
        self.run_counted(jobs).0
    }

    /// [`Pool::run`] plus per-worker executed-job counts (index 0 is
    /// the inline path's count on the sequential fallback). The counts
    /// exist for the work-stealing unit tests; production callers use
    /// [`Pool::run`].
    fn run_counted<'env, T: Send>(
        &self,
        jobs: Vec<Job<'env, T>>,
    ) -> (Vec<JobResult<T>>, Vec<usize>) {
        let n = jobs.len();
        let workers = self.workers.min(n.max(1));
        if workers <= 1 {
            // Deterministic fallback: inline, submission order, no
            // threads. Cancellation still drains the remainder.
            let mut out = Vec::with_capacity(n);
            let mut executed = 0usize;
            for job in jobs {
                if self.governor.is_cancelled() {
                    out.push(JobResult::Skipped);
                    continue;
                }
                executed += 1;
                out.push(Self::execute(job));
            }
            return (out, vec![executed]);
        }

        let deques: Vec<JobQueue<'env, T>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let injector: JobQueue<'env, T> = Mutex::new(VecDeque::new());
        {
            let mut inj = injector.lock().unwrap();
            for (idx, job) in jobs.into_iter().enumerate() {
                if idx < workers * SEED_PER_WORKER {
                    deques[idx % workers].lock().unwrap().push_back((idx, job));
                } else {
                    inj.push_back((idx, job));
                }
            }
        }
        let results: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let remaining = AtomicUsize::new(n);
        let executed: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();

        /// Own deque front, then the injector, then steal from the back
        /// of a sibling's deque.
        fn next_job<'env, T>(
            deques: &[JobQueue<'env, T>],
            injector: &JobQueue<'env, T>,
            w: usize,
        ) -> Option<(usize, Job<'env, T>)> {
            if let Some(j) = deques[w].lock().unwrap().pop_front() {
                return Some(j);
            }
            if let Some(j) = injector.lock().unwrap().pop_front() {
                return Some(j);
            }
            for off in 1..deques.len() {
                let victim = (w + off) % deques.len();
                if let Some(j) = deques[victim].lock().unwrap().pop_back() {
                    return Some(j);
                }
            }
            None
        }

        std::thread::scope(|s| {
            for w in 0..workers {
                let deques = &deques;
                let injector = &injector;
                let results = &results;
                let remaining = &remaining;
                let executed = &executed;
                let governor = &self.governor;
                s.spawn(move || loop {
                    match next_job(deques, injector, w) {
                        Some((idx, job)) => {
                            let r = if governor.is_cancelled() {
                                JobResult::Skipped
                            } else {
                                executed[w].fetch_add(1, Ordering::Relaxed);
                                Self::execute(job)
                            };
                            *results[idx].lock().unwrap() = Some(r);
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        }
                        None => {
                            // No queued work anywhere; in-flight jobs
                            // on other workers cannot enqueue more, so
                            // an empty batch counter means done.
                            if remaining.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });

        let out = results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("worker recorded every job")
            })
            .collect();
        let counts = executed.into_iter().map(|c| c.into_inner()).collect();
        (out, counts)
    }

    /// Executes one job with panic containment.
    fn execute<'env, T>(job: Job<'env, T>) -> JobResult<T> {
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(v) => JobResult::Done(v),
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "job panicked".to_string()
                };
                JobResult::Panicked(msg)
            }
        }
    }
}

impl SweepRunner for Pool {
    fn run_sweep<'a>(&self, tasks: Vec<SweepTask<'a>>) -> Vec<Option<ClassReport>> {
        self.run(tasks)
            .into_iter()
            .map(JobResult::into_option)
            .collect()
    }

    fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    use super::*;

    fn boxed<'env, T, F: FnOnce() -> T + Send + 'env>(f: F) -> Job<'env, T> {
        Box::new(f)
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let pool = Pool::new(4);
        let jobs: Vec<Job<'_, usize>> = (0..32)
            .map(|i| {
                boxed(move || {
                    // Stagger so completion order differs from
                    // submission order.
                    if i % 3 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    i * 10
                })
            })
            .collect();
        let results = pool.run(jobs);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.into_option(), Some(i * 10));
        }
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let pool = Pool::new(2);
        let data: Vec<u64> = (0..16).collect();
        let jobs: Vec<Job<'_, u64>> = data
            .chunks(4)
            .map(|chunk| boxed(move || chunk.iter().sum()))
            .collect();
        let sums: Vec<u64> = pool
            .run(jobs)
            .into_iter()
            .map(|r| r.into_option().unwrap())
            .collect();
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn work_is_stolen_from_a_busy_worker() {
        /// Sleeps until `done` holds, giving up after 30 s so a broken
        /// stealer fails the assertion below instead of hanging.
        fn wait_for(done: impl Fn() -> bool) {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !done() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let pool = Pool::new(4);
        // 8 jobs seed 2 per worker. Every other job first waits for job 0
        // to start, which keeps each sibling inside its own first seeded
        // job, so none can steal job 0 off worker 0's deque. Job 0 then
        // holds worker 0 until the other seven have finished, so its
        // second seeded job (job 4) can only run on a sibling that
        // steals it.
        let job0_started = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let (job0_started, finished) = (&job0_started, &finished);
        let jobs: Vec<Job<'_, ()>> = (0..8)
            .map(|i| {
                boxed(move || {
                    if i == 0 {
                        job0_started.store(true, Ordering::Release);
                        wait_for(|| finished.load(Ordering::Acquire) == 7);
                    } else {
                        wait_for(|| job0_started.load(Ordering::Acquire));
                        finished.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        let (results, executed) = pool.run_counted(jobs);
        assert!(results.iter().all(JobResult::is_done));
        assert_eq!(executed.iter().sum::<usize>(), 8);
        assert!(
            executed[0] < 2,
            "worker 0 was seeded 2 jobs but slept through one; a sibling \
             should have stolen it (executed: {executed:?})"
        );
    }

    #[test]
    fn panic_in_a_job_is_contained() {
        let pool = Pool::new(2);
        let jobs: Vec<Job<'_, u32>> = vec![
            boxed(|| 1),
            boxed(|| panic!("deliberate test panic")),
            boxed(|| 3),
        ];
        let results = pool.run(jobs);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_done());
        assert!(results[2].is_done());
        match &results[1] {
            JobResult::Panicked(msg) => assert!(msg.contains("deliberate test panic")),
            other => panic!("expected a contained panic, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_drains_the_queue_sequentially() {
        let governor = ResourceGovernor::unlimited();
        let pool = Pool::new(1).with_governor(governor.clone());
        let jobs: Vec<Job<'_, u32>> = vec![
            boxed(|| 1),
            boxed(move || {
                governor.cancel();
                2
            }),
            boxed(|| 3),
            boxed(|| 4),
        ];
        let results = pool.run(jobs);
        // Inline fallback runs in submission order: jobs after the
        // cancelling one are drained, not executed.
        assert!(results[0].is_done());
        assert!(results[1].is_done());
        assert!(results[2].is_skipped());
        assert!(results[3].is_skipped());
    }

    #[test]
    fn cancellation_drains_the_queue_in_parallel() {
        let governor = ResourceGovernor::unlimited();
        let cancelled = AtomicBool::new(true);
        let pool = Pool::new(2).with_governor(governor.clone());
        // Pre-cancelled governor: every job must drain as Skipped and
        // the batch must still terminate.
        governor.cancel();
        let jobs: Vec<Job<'_, ()>> = (0..16)
            .map(|_| {
                let cancelled = &cancelled;
                boxed(move || {
                    cancelled.store(false, Ordering::Relaxed);
                })
            })
            .collect();
        let results = pool.run(jobs);
        assert!(results.iter().all(JobResult::is_skipped));
        assert!(
            cancelled.load(Ordering::Relaxed),
            "no job body may run after cancellation"
        );
    }

    #[test]
    fn worker_count_is_clamped_and_capped() {
        assert_eq!(Pool::new(0).workers(), 1);
        let pool = Pool::new(8);
        // More workers than jobs: the batch still completes.
        let results = pool.run(
            (0..3)
                .map(|i| boxed(move || i))
                .collect::<Vec<Job<'_, i32>>>(),
        );
        assert_eq!(
            results
                .into_iter()
                .map(|r| r.into_option().unwrap())
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
