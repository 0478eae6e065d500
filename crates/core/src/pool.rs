//! An in-tree thread pool for batches of independent verification jobs.
//!
//! The container this crate builds in is offline, so no external
//! executor (rayon, crossbeam) is available; this module implements the
//! small slice of one the verification pipeline needs with nothing but
//! `std::thread` and one mutex-guarded job queue:
//!
//! * **Batch execution** — [`Pool::run`] takes a `Vec` of boxed jobs
//!   and returns one [`JobResult`] per job, *in submission order*,
//!   whatever order the workers finished in. Jobs may borrow from the
//!   caller's stack (the batch runs under [`std::thread::scope`]).
//! * **One shared queue** — the batch sits in a single queue; an idle
//!   worker takes the next job in submission order and writes its
//!   result into that job's slot, so a long-running job never strands
//!   work behind it. Jobs are seconds-long SAT runs, not fine-grained
//!   task trees, so the queue lock is never contended for long and
//!   work stealing would buy nothing.
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
//!   default) the batch runs inline on the caller's thread in
//!   submission order, with no threads spawned at all. Differential
//!   tests lean on this: the parallel path must produce bit-identical
//!   results at every worker count, and worker count 1 *is* the
//!   sequential reference.
//!
//! The pool deliberately has no long-lived worker threads: each
//! [`Pool::run`] call scopes its own. Verification batches are seconds
//! to minutes of SAT work, so thread spawn cost is noise, and scoping
//! lets jobs borrow the design/model being verified without `Arc`
//! gymnastics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use emm_aig::fraig::{ClassReport, SweepRunner, SweepTask};
use emm_sat::ResourceGovernor;

/// A unit of work for [`Pool::run`]: boxed so batches are homogeneous,
/// `Send` so workers can execute it, `'env` so it may borrow from the
/// caller's stack (the batch is scoped).
pub type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

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

/// Why the pool's mutexes cannot be poisoned: jobs run outside every
/// lock, and a panicking job is caught before its result is stored.
const UNPOISONED: &str = "no pool lock is held while a job runs";

/// The shared-queue pool. See the [module docs](self) for the design.
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

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of jobs and returns their results in submission
    /// order. Blocks until every job is done, skipped, or panicked.
    pub fn run<'env, T: Send>(&self, jobs: Vec<Job<'env, T>>) -> Vec<JobResult<T>> {
        let n = jobs.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            // Deterministic fallback: inline, submission order, no
            // threads.
            return jobs.into_iter().map(|job| self.execute(job)).collect();
        }

        let queue = Mutex::new(jobs.into_iter().enumerate());
        let results: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| loop {
                        // Bind the job first so the queue guard drops
                        // here, not at the end of the job.
                        let next = queue.lock().expect(UNPOISONED).next();
                        let Some((idx, job)) = next else { break };
                        let result = self.execute(job);
                        *results[idx].lock().expect(UNPOISONED) = Some(result);
                    })
                })
                .collect();
            // Join explicitly: the scope alone returns once the closures
            // end, while the threads may still be exiting. A worker hands
            // its malloc arena back only on exit, so a batch started right
            // after this one could otherwise find no free arena, make a
            // new one and keep it for the rest of the process.
            for handle in handles {
                // Jobs run under catch_unwind, so a worker cannot panic.
                handle.join().expect("a pool worker does not panic");
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(UNPOISONED)
                    .expect("a worker ran every job")
            })
            .collect()
    }

    /// Executes one job with panic containment, or drains it as
    /// [`JobResult::Skipped`] once the governor is cancelled.
    fn execute<'env, T>(&self, job: Job<'env, T>) -> JobResult<T> {
        if self.governor.is_cancelled() {
            return JobResult::Skipped;
        }
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

    /// Sleeps until `done` holds or 30 s pass, and reports whether it
    /// held: a scheduling bug fails the caller's assertion instead of
    /// hanging the suite.
    fn wait_for(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn an_idle_worker_takes_the_next_job() {
        let pool = Pool::new(2);
        // Job 0 holds its worker until the other seven have finished, so
        // the batch completes in time only if the second worker takes
        // every later job as it falls idle: a static split of the batch
        // would leave jobs queued behind job 0, and a queue lock held
        // across a job would stop the second worker from taking any.
        let finished = AtomicUsize::new(0);
        let finished = &finished;
        let jobs: Vec<Job<'_, &str>> = (0..8)
            .map(|i| {
                boxed(move || {
                    if i > 0 {
                        finished.fetch_add(1, Ordering::AcqRel);
                    } else if !wait_for(|| finished.load(Ordering::Acquire) == 7) {
                        return "timed out";
                    }
                    "done in time"
                })
            })
            .collect();
        let results: Vec<_> = pool
            .run(jobs)
            .into_iter()
            .map(JobResult::into_option)
            .collect();
        assert_eq!(results, vec![Some("done in time"); 8]);
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
    fn cancellation_mid_batch_drains_the_queue_in_parallel() {
        let governor = ResourceGovernor::unlimited();
        let pool = Pool::new(2).with_governor(governor.clone());
        // Job 0 occupies one worker until job 1 cancels the governor on
        // the other, so no later job can be claimed before the
        // cancellation. Job 0 itself may lose the race and be skipped.
        let started: Vec<AtomicBool> = (0..16).map(|_| AtomicBool::new(false)).collect();
        let (started, governor) = (&started, &governor);
        let jobs: Vec<Job<'_, bool>> = (0..16)
            .map(|i| {
                boxed(move || {
                    started[i].store(true, Ordering::Release);
                    match i {
                        0 => wait_for(|| governor.is_cancelled()),
                        1 => {
                            governor.cancel();
                            true
                        }
                        _ => true,
                    }
                })
            })
            .collect();
        let results = pool.run(jobs);
        assert!(matches!(
            results[0],
            JobResult::Done(true) | JobResult::Skipped
        ));
        assert!(matches!(results[1], JobResult::Done(true)));
        assert!(
            results[2..].iter().all(JobResult::is_skipped),
            "every job claimed after the cancellation is skipped: {results:?}"
        );
        assert!(
            started[2..].iter().all(|s| !s.load(Ordering::Acquire)),
            "no job body may start after the cancellation"
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
