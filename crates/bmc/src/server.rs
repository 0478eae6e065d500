//! [`VerificationServer`] — a queueing front-end over the BMC engine.
//!
//! Callers [`submit`](VerificationServer::submit) independent
//! [`VerifyRequest`]s (a design, a property, a [`VerifyBudget`], and the
//! [`VerifyOptions`] to run with) and then [`run`](VerificationServer::run)
//! the whole queue: requests sharing a design and preprocessing
//! configuration are reduced **once** ([`ReducedModel`]), every job gets
//! its own engine (own solver, own contexts) over the shared model with a
//! [forked](emm_sat::ResourceGovernor::fork) governor, and the jobs are
//! scheduled on the in-tree shared-queue [`Pool`]. Responses come back
//! ordered by job id — the order of submission — so the output is
//! identical at every worker count, fault injection included.
//!
//! After a batch, [`stats`](VerificationServer::stats) reports the
//! throughput ([`ServerStats::jobs_per_sec`]); the bench harness records
//! it per worker count in the `server` section of `BENCH_simplify.json`
//! to track core-scaling.
//!
//! ```
//! use std::sync::Arc;
//! use emm_aig::{Design, LatchInit};
//! use emm_bmc::{VerificationServer, VerifyBudget, VerifyOptions, VerifyRequest};
//!
//! let mut d = Design::new();
//! let count = d.new_latch_word("count", 3, LatchInit::Zero);
//! let next = d.aig.inc(&count);
//! d.set_next_word(&count, &next);
//! let bad = d.aig.eq_const(&count, 5);
//! d.add_property("reaches5", bad);
//! d.check().expect("well-formed");
//! let design = Arc::new(d);
//!
//! let mut server = VerificationServer::new(2);
//! let id = server.submit(VerifyRequest {
//!     design: Arc::clone(&design),
//!     property: 0,
//!     budget: VerifyBudget::default(),
//!     options: VerifyOptions::default(),
//! });
//! let responses = server.run();
//! assert_eq!(responses[0].id, id);
//! assert!(responses[0].verdict.is_counterexample());
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use emm_aig::Design;
use emm_core::{Job, JobResult, Pool};
use emm_sat::{Budget, ExhaustionReason};

use crate::engine::{BmcEngine, BmcVerdict};
use crate::kinduction::KInduction;
use crate::model::ReducedModel;
use crate::options::{ProofEngine, VerifyOptions};

/// What one verification job may spend: the depth bound of the `check`
/// call, the per-SAT-call budget, and an overall wall-clock limit.
#[derive(Clone, Debug)]
pub struct VerifyBudget {
    /// Depth bound of the check (inclusive).
    pub max_depth: usize,
    /// Per-SAT-call resource budget.
    pub solve: Budget,
    /// Wall-clock limit for the whole job.
    pub wall_limit: Option<Duration>,
}

impl Default for VerifyBudget {
    fn default() -> Self {
        VerifyBudget {
            max_depth: 32,
            solve: Budget::unlimited(),
            wall_limit: None,
        }
    }
}

/// One queued verification job.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// The design to verify. Requests sharing the same `Arc` (and the
    /// same rewrite/fraig configuration) share one pre-reduction.
    pub design: Arc<Design>,
    /// Property index within the design.
    pub property: usize,
    /// What the job may spend.
    pub budget: VerifyBudget,
    /// Engine options. The job's engine runs with a
    /// [forked](emm_sat::ResourceGovernor::fork) copy of
    /// `options.pipeline.governor`, so cancelling the governor handed in
    /// here stops the job, while per-job fault injection stays
    /// deterministic.
    pub options: VerifyOptions,
}

/// The answer to one [`VerifyRequest`].
#[derive(Clone, Debug)]
pub struct VerifyResponse {
    /// The id [`VerificationServer::submit`] returned for the request.
    pub id: usize,
    /// The verdict. A job the pool drained without running (cancelled
    /// governor) or that panicked reports
    /// [`BmcVerdict::Unknown`] with [`ExhaustionReason::Cancelled`].
    pub verdict: BmcVerdict,
    /// Last depth the job fully processed.
    pub depth_reached: usize,
    /// Wall-clock seconds the job spent checking.
    pub elapsed_seconds: f64,
    /// An engine error or worker panic, when one occurred.
    pub error: Option<String>,
}

/// Throughput of the most recent [`VerificationServer::run`] batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Jobs completed in the batch.
    pub jobs: usize,
    /// Worker threads the pool ran with.
    pub workers: usize,
    /// Wall-clock seconds of the whole batch (shared pre-reductions
    /// included).
    pub elapsed_seconds: f64,
    /// `jobs / elapsed_seconds`.
    pub jobs_per_sec: f64,
}

/// What one job hands back to the response merge: verdict, depth
/// reached, elapsed seconds, and an error message when one occurred.
type JobOutput = (BmcVerdict, usize, f64, Option<String>);

/// The queueing verification server. See the module docs.
#[derive(Debug, Default)]
pub struct VerificationServer {
    pool: Pool,
    queue: Vec<VerifyRequest>,
    stats: ServerStats,
}

impl VerificationServer {
    /// A server scheduling on `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> VerificationServer {
        Self::with_pool(Pool::new(workers))
    }

    /// A server scheduling on an existing pool (to share its governor).
    pub fn with_pool(pool: Pool) -> VerificationServer {
        VerificationServer {
            pool,
            queue: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// Queues a request; returns its job id (its index in the batch).
    pub fn submit(&mut self, request: VerifyRequest) -> usize {
        self.queue.push(request);
        self.queue.len() - 1
    }

    /// Jobs queued and not yet run.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Worker threads the server schedules on.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Runs every queued job and drains the queue. Responses are ordered
    /// by job id regardless of which worker ran which job.
    pub fn run(&mut self) -> Vec<VerifyResponse> {
        let started = Instant::now();
        let requests = std::mem::take(&mut self.queue);

        // Shared pre-reduction: one ReducedModel per distinct (design,
        // rewrite config, fraig config) combination, resolved in
        // submission order so the grouping is deterministic. The worker
        // count does not change the reduction, so it is not part of the key.
        let mut groups: Vec<(*const Design, &VerifyRequest, ReducedModel<'_>)> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(requests.len());
        for req in &requests {
            let key = Arc::as_ptr(&req.design);
            let found = groups.iter().position(|(ptr, leader, _)| {
                *ptr == key
                    && leader.options.pipeline.rewrite == req.options.pipeline.rewrite
                    && leader.options.pipeline.fraig == req.options.pipeline.fraig
            });
            group_of.push(found.unwrap_or_else(|| {
                let reduced = ReducedModel::reduce(
                    &req.design,
                    &req.options.pipeline.rewrite,
                    &req.options.pipeline.fraig,
                    &req.options.pipeline.governor,
                    req.options.workers,
                );
                groups.push((key, req, reduced));
                groups.len() - 1
            }));
        }

        let jobs: Vec<Job<'_, JobOutput>> = requests
            .iter()
            .zip(&group_of)
            .map(|(req, &g)| {
                let reduced = &groups[g].2;
                Box::new(move || Self::run_one(reduced, req)) as Job<'_, _>
            })
            .collect();
        let results = self.pool.run(jobs);

        let responses: Vec<VerifyResponse> = results
            .into_iter()
            .enumerate()
            .map(|(id, result)| match result {
                JobResult::Done((verdict, depth_reached, elapsed_seconds, error)) => {
                    VerifyResponse {
                        id,
                        verdict,
                        depth_reached,
                        elapsed_seconds,
                        error,
                    }
                }
                JobResult::Skipped => VerifyResponse {
                    id,
                    verdict: cancelled_verdict(),
                    depth_reached: 0,
                    elapsed_seconds: 0.0,
                    error: None,
                },
                JobResult::Panicked(msg) => VerifyResponse {
                    id,
                    verdict: cancelled_verdict(),
                    depth_reached: 0,
                    elapsed_seconds: 0.0,
                    error: Some(msg),
                },
            })
            .collect();

        let elapsed = started.elapsed().as_secs_f64();
        self.stats = ServerStats {
            jobs: responses.len(),
            workers: self.pool.workers(),
            elapsed_seconds: elapsed,
            jobs_per_sec: if elapsed > 0.0 {
                responses.len() as f64 / elapsed
            } else {
                0.0
            },
        };
        responses
    }

    /// Throughput of the most recent batch (zeroed before the first).
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    fn run_one(reduced: &ReducedModel<'_>, req: &VerifyRequest) -> JobOutput {
        let options = req
            .options
            .clone()
            .governor(req.options.pipeline.governor.fork())
            .solve_budget(req.budget.solve.clone())
            .wall_limit(req.budget.wall_limit);
        let started = Instant::now();
        // Dispatch on the configured proving engine: the bounded BMC
        // loop, or the unbounded k-induction closure.
        let checked =
            match options.pipeline.proof_engine {
                ProofEngine::Bounded => BmcEngine::with_model(reduced, options)
                    .check(req.property, req.budget.max_depth),
                ProofEngine::KInduction => KInduction::with_model(reduced, options)
                    .check(req.property, req.budget.max_depth),
            };
        match checked {
            Ok(run) => (
                run.verdict,
                run.depth_reached,
                started.elapsed().as_secs_f64(),
                None,
            ),
            Err(e) => (
                cancelled_verdict(),
                0,
                started.elapsed().as_secs_f64(),
                Some(e.to_string()),
            ),
        }
    }
}

fn cancelled_verdict() -> BmcVerdict {
    BmcVerdict::Unknown {
        reason: ExhaustionReason::Cancelled,
        deepest_clean_bound: None,
    }
}
