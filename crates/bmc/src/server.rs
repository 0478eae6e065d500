//! [`VerificationServer`] — a queueing front-end over the BMC engine.
//!
//! Callers [`submit`](VerificationServer::submit) independent
//! [`VerifyRequest`]s (a design, a property, a [`VerifyBudget`], and the
//! [`VerifyOptions`] to run with) and then [`run`](VerificationServer::run)
//! the whole queue: requests sharing a design and preprocessing
//! configuration are reduced **once** ([`ReducedModel`], the distinct
//! reductions run as one pool batch ahead of the jobs), every job gets
//! its own engine (own solver, own contexts) over the shared model with a
//! [forked](emm_sat::ResourceGovernor::fork) governor, and the jobs are
//! scheduled on the in-tree shared-queue [`Pool`]. Responses come back
//! ordered by job id — the order of submission — so the output is
//! identical at every worker count, fault injection included.
//!
//! A property asked under both schedules shares its **base case** too. A
//! [`ProofEngine::KInduction`] request is paired with the first unpaired
//! [`ProofEngine::Bounded`] request on the same design `Arc` and property
//! when, once each budget is applied, the two agree on the solve budget
//! and every option but the schedule, the bounded side has proofs off and
//! no wall limit, and neither governor arms a fault. The pair runs as one
//! pool job: the bounded check first, then the same engine continues
//! under the k-induction schedule with a floating context attached. Its
//! anchored context is exactly the base case a k-induction engine would
//! build, so the refuted bounds are skipped and only the step queries
//! (and any deeper bounds) are solved. A bounded run that ended `Unknown`
//! hands nothing on. The verdicts and depths are those of standalone
//! engines; a k-induction response's `elapsed_seconds` counts only its
//! own part. Every other request is a job of its own.
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

use crate::engine::{BmcEngine, BmcRun, BmcVerdict};
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
    /// Wall-clock seconds the job spent checking. A k-induction request
    /// paired with a bounded one (see the module docs) counts only its
    /// own part, after the bounded check it continues from.
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
        // rewrite config, fraig config) combination, grouped in submission
        // order so the grouping is deterministic. The worker count does not
        // change the reduction, so it is not part of the key. The
        // reductions run as one pool batch, in group order, before the
        // jobs; one the pool skips (cancelled governor) leaves the design
        // unreduced, and then the pool skips every job too.
        let mut leaders: Vec<&VerifyRequest> = Vec::new();
        let mut group_of: Vec<usize> = Vec::with_capacity(requests.len());
        for req in &requests {
            let found = leaders.iter().position(|leader| {
                Arc::ptr_eq(&leader.design, &req.design)
                    && leader.options.pipeline.rewrite == req.options.pipeline.rewrite
                    && leader.options.pipeline.fraig == req.options.pipeline.fraig
            });
            group_of.push(found.unwrap_or_else(|| {
                leaders.push(req);
                leaders.len() - 1
            }));
        }
        let reductions: Vec<Job<'_, ReducedModel<'_>>> = leaders
            .iter()
            .map(|&req| {
                Box::new(move || {
                    let pipeline = &req.options.pipeline;
                    ReducedModel::reduce(
                        &req.design,
                        &pipeline.rewrite,
                        &pipeline.fraig,
                        &pipeline.governor,
                        req.options.workers,
                    )
                }) as Job<'_, _>
            })
            .collect();
        let reduced: Vec<ReducedModel<'_>> = self
            .pool
            .run(reductions)
            .into_iter()
            .zip(&leaders)
            .map(|(result, req)| match result {
                JobResult::Done(reduced) => reduced,
                JobResult::Skipped => ReducedModel::unreduced(&req.design),
                JobResult::Panicked(msg) => panic!("design reduction panicked: {msg}"),
            })
            .collect();

        let units = units(&requests);
        let jobs: Vec<Job<'_, Vec<JobOutput>>> = units
            .iter()
            .map(|unit| {
                let reduced = &reduced[group_of[unit[0]]];
                let unit = unit.iter().map(|&id| &requests[id]);
                Box::new(move || Self::run_unit(reduced, unit)) as Job<'_, _>
            })
            .collect();
        let results = self.pool.run(jobs);

        let mut responses: Vec<VerifyResponse> = Vec::with_capacity(requests.len());
        for (unit, result) in units.iter().zip(results) {
            let mut respond = |id, (verdict, depth_reached, elapsed_seconds, error)| {
                responses.push(VerifyResponse {
                    id,
                    verdict,
                    depth_reached,
                    elapsed_seconds,
                    error,
                })
            };
            match result {
                JobResult::Done(outputs) => {
                    for (&id, output) in unit.iter().zip(outputs) {
                        respond(id, output);
                    }
                }
                JobResult::Skipped => {
                    for &id in unit {
                        respond(id, (cancelled_verdict(), 0, 0.0, None));
                    }
                }
                JobResult::Panicked(msg) => {
                    for &id in unit {
                        respond(id, (cancelled_verdict(), 0, 0.0, Some(msg.clone())));
                    }
                }
            }
        }
        responses.sort_unstable_by_key(|r| r.id);

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

    /// Runs one unit's requests in order, the first on a fresh engine
    /// over the shared model. A unit is one request or a bounded request
    /// and its k-induction twin (see [`units`]); the twin continues on the
    /// bounded request's engine. Only a run that ended cleanly (bound
    /// reached or a counterexample) is handed on: a bound left `Unknown`
    /// would be re-asked from another solver state than a standalone
    /// k-induction run meets.
    fn run_unit<'a>(
        reduced: &ReducedModel<'_>,
        unit: impl Iterator<Item = &'a VerifyRequest>,
    ) -> Vec<JobOutput> {
        let mut handed: Option<BmcEngine<'_>> = None;
        unit.map(|req| {
            let options = job_options(req).governor(req.options.pipeline.governor.fork());
            let started = Instant::now();
            let mut engine = match handed.take() {
                Some(mut engine) => {
                    engine.attach_step(options.pipeline.governor);
                    engine
                }
                None => BmcEngine::with_model(reduced, options),
            };
            let checked = engine.check(req.property, req.budget.max_depth);
            if let Ok(BmcRun {
                verdict: BmcVerdict::BoundReached | BmcVerdict::Counterexample(_),
                ..
            }) = checked
            {
                handed = Some(engine);
            }
            let elapsed_seconds = started.elapsed().as_secs_f64();
            match checked {
                Ok(run) => (run.verdict, run.depth_reached, elapsed_seconds, None),
                Err(e) => (cancelled_verdict(), 0, elapsed_seconds, Some(e.to_string())),
            }
        })
        .collect()
    }
}

/// Splits a batch into pool jobs, each a list of request ids in run
/// order. A k-induction request takes the first untaken bounded request
/// whose engine is its base case (see [`shares_base`]), and the pair
/// runs as one job, bounded side first. Every other request is a unit
/// of its own. Units are ordered by their first request.
fn units(requests: &[VerifyRequest]) -> Vec<Vec<usize>> {
    let mut twin: Vec<Option<usize>> = vec![None; requests.len()];
    let mut taken: Vec<bool> = vec![false; requests.len()];
    for (k, req) in requests.iter().enumerate() {
        if let Some(b) =
            (0..requests.len()).find(|&b| twin[b].is_none() && shares_base(&requests[b], req))
        {
            twin[b] = Some(k);
            taken[k] = true;
        }
    }
    (0..requests.len())
        .filter(|&id| !taken[id])
        .map(|id| std::iter::once(id).chain(twin[id]).collect())
        .collect()
}

/// A request's options with its budget applied: the solve budget and
/// the wall limit. The job forks the governor on top.
fn job_options(req: &VerifyRequest) -> VerifyOptions {
    req.options
        .clone()
        .solve_budget(req.budget.solve.clone())
        .wall_limit(req.budget.wall_limit)
}

/// Whether the k-induction request `kinduction` may continue on the
/// engine of the bounded request `bounded`: same design and property,
/// every option but the proving engine equal once the budgets are
/// applied, proofs off, no wall limit, and no armed fault injector.
/// The bounded engine's anchored context is then exactly the base case
/// a k-induction engine would build, and its governor's fault counter
/// cannot be shifted by frames the other request unrolled.
fn shares_base(bounded: &VerifyRequest, kinduction: &VerifyRequest) -> bool {
    if !Arc::ptr_eq(&bounded.design, &kinduction.design)
        || bounded.property != kinduction.property
        || bounded.options.pipeline.proof_engine != ProofEngine::Bounded
        || kinduction.options.pipeline.proof_engine != ProofEngine::KInduction
    {
        return false;
    }
    let (b, k) = (job_options(bounded), job_options(kinduction));
    !b.proofs
        && b.pipeline.wall_limit.is_none()
        && !b.pipeline.governor.is_armed()
        && b.agrees_except_engine(&k)
}

fn cancelled_verdict() -> BmcVerdict {
    BmcVerdict::Unknown {
        reason: ExhaustionReason::Cancelled,
        deepest_clean_bound: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emm_aig::LatchInit;
    use emm_sat::{FaultSite, ResourceGovernor};

    fn counter() -> Arc<Design> {
        let mut d = Design::new();
        let count = d.new_latch_word("count", 3, LatchInit::Zero);
        let next = d.aig.inc(&count);
        d.set_next_word(&count, &next);
        let bad = d.aig.eq_const(&count, 5);
        d.add_property("reaches5", bad);
        let one = d.aig.eq_const(&count, 1);
        d.add_property("reaches1", one);
        d.check().expect("well-formed");
        Arc::new(d)
    }

    fn request(design: &Arc<Design>, property: usize, engine: ProofEngine) -> VerifyRequest {
        VerifyRequest {
            design: Arc::clone(design),
            property,
            budget: VerifyBudget::default(),
            options: VerifyOptions::default().proof_engine(engine),
        }
    }

    #[test]
    fn out_of_range_property_is_an_error_response() {
        let d = counter();
        let mut server = VerificationServer::new(2);
        for engine in [ProofEngine::Bounded, ProofEngine::KInduction] {
            server.submit(request(&d, 2, engine));
        }
        for response in server.run() {
            let error = response
                .error
                .expect("an out-of-range property is an error");
            assert!(
                error.contains("property 2 out of range") && error.contains("0..2"),
                "{error}"
            );
            assert!(response.verdict.is_unknown());
        }
    }

    #[test]
    fn each_kinduction_request_pairs_with_one_bounded_twin() {
        let d = counter();
        let mut deeper = request(&d, 0, ProofEngine::KInduction);
        deeper.budget.max_depth = 50;
        let requests = [
            deeper,
            request(&d, 0, ProofEngine::Bounded),
            request(&d, 1, ProofEngine::Bounded),
            request(&d, 1, ProofEngine::KInduction),
            request(&d, 0, ProofEngine::KInduction),
        ];
        assert_eq!(units(&requests), vec![vec![1, 0], vec![2, 3], vec![4]]);
    }

    #[test]
    fn requests_that_must_not_share_run_alone() {
        let d = counter();
        let same_content = Arc::new(d.as_ref().clone());
        let armed = ResourceGovernor::unlimited().with_fault(FaultSite::Frame, 5);
        type Vary = fn(&mut VerifyRequest, &mut VerifyRequest);
        let variants: [(&str, Vary); 8] = [
            ("bounded proofs on", |b, _| b.options.proofs = true),
            ("proofs on both sides", |b, k| {
                b.options.proofs = true;
                k.options.proofs = true;
            }),
            ("bounded wall limit", |b, _| {
                b.budget.wall_limit = Some(Duration::from_secs(60))
            }),
            ("k-induction wall limit", |_, k| {
                k.budget.wall_limit = Some(Duration::from_secs(60))
            }),
            ("differing solve budgets", |b, _| {
                b.budget.solve = Budget::conflicts(1 << 20)
            }),
            ("differing options", |_, k| {
                k.options.validate_traces = false
            }),
            ("other property", |_, k| k.property = 1),
            ("both bounded", |_, k| {
                k.options.pipeline.proof_engine = ProofEngine::Bounded
            }),
        ];
        for (what, vary) in variants {
            let (mut b, mut k) = (
                request(&d, 0, ProofEngine::Bounded),
                request(&d, 0, ProofEngine::KInduction),
            );
            vary(&mut b, &mut k);
            assert_eq!(units(&[b, k]), vec![vec![0], vec![1]], "{what}");
        }
        for armed_side in [0, 1] {
            let mut pair = [
                request(&d, 0, ProofEngine::Bounded),
                request(&d, 0, ProofEngine::KInduction),
            ];
            pair[armed_side].options.pipeline.governor = armed.clone();
            assert_eq!(units(&pair), vec![vec![0], vec![1]], "armed fault");
        }
        let apart = [
            request(&d, 0, ProofEngine::Bounded),
            request(&same_content, 0, ProofEngine::KInduction),
        ];
        assert_eq!(units(&apart), vec![vec![0], vec![1]], "another design");
    }
}
