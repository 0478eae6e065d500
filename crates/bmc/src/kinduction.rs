//! Unbounded proving by k-induction over the incremental BMC
//! infrastructure.
//!
//! [`KInduction`] interleaves two searches per depth `k`:
//!
//! * **Base case** — the bounded engine's incremental bound loop
//!   ([`BmcEngine::check`] with proofs off): no counterexample of length
//!   ≤ `k` from the initial state. Refuted bounds are skipped on the
//!   next iteration, so each base call solves exactly one new bound.
//! * **Inductive step** — an initial-state-free unrolling (the bounded
//!   engine's *floating* context: free frame-0 latches, every memory
//!   arbitrary-init) asking for a **simple path** `s_0 … s_k` with
//!   `¬bad` at `s_0 … s_{k-1}` and `bad` at `s_k`. The simple-path
//!   (loop-free-path) constraints come from the same [`crate::LfpBuilder`]
//!   the termination checks use, derived from the latch state of the
//!   EMM encoding; without them k-induction is incomplete (a lasso of
//!   good states could extend forever). As there, a pair row is added
//!   only when a step model repeats that pair's state (Eén & Sörensson's
//!   lazy simple-path refinement), so the step answers exactly as with
//!   every row present.
//!
//! If the base case finds no counterexample up to `k` and the step query
//! is unsatisfiable at `k`, the property holds in **all** reachable
//! states — [`BmcVerdict::Proved`]`{ k }` — because the shortest path to
//! any reachable bad state is loop-free, would have a `¬bad` prefix, and
//! would therefore satisfy the step query. The simple-path constraint
//! also makes the loop complete: at the recurrence diameter the step
//! formula is unsatisfiable outright.
//!
//! The step is the bounded engine's backward termination check, asked
//! by the same owner (`crate::engine::StepQuery`): one solver lives across
//! the whole `k` loop, and each depth passes `¬bad_0 … ¬bad_{k-1}, bad_k`
//! as solve assumptions, so a finished depth leaves learned clauses
//! behind but no property clauses. Unlike the bounded engine, which caps
//! each backward query, the step runs under the plain `solve_budget`: it
//! is this engine's only proof route. The [`ResourceGovernor`] is honored
//! at every query — frame extension, base bounds and step solves all poll
//! it — and a run that degrades to [`BmcVerdict::Unknown`] resumes exactly
//! like the bounded engine: install a fresh governor
//! ([`KInduction::set_governor`]) and call [`KInduction::check`] again;
//! cleanly completed base bounds *and* cleanly failed step depths are
//! skipped, not re-solved.

use std::time::Instant;

use emm_aig::Design;
use emm_sat::{ExhaustionReason, ResourceGovernor, SolveResult};

use crate::engine::{BmcEngine, BmcError, BmcRun, BmcVerdict, PhaseSeconds, StepQuery};
use crate::model::ReducedModel;
use crate::options::VerifyOptions;

/// The k-induction engine: interleaved base case and inductive step.
/// See the module docs above for the algorithm and the soundness
/// argument, and [`crate::options::ProofEngine`] for how drivers select
/// it.
///
/// The base case runs on an embedded [`BmcEngine`] (proofs off — the
/// step query below subsumes the backward termination check); the step
/// runs on a private floating context whose formula grows monotonically
/// with `k`. The step context is always incremental regardless of
/// [`crate::PipelineOptions::incremental`], which only governs the base
/// loop: restarting the step solver every depth would defeat the design.
///
/// # Examples
///
/// A saturating counter: `count` walks 0..=29 and then holds, `bad`
/// claims the unreachable value 63. The bounded engine needs the full
/// reachability diameter (`proof@30`); k-induction closes the property
/// too, from the garbage-state side — no loop-free ¬bad-path ends in 63
/// once `k` exceeds the longest unreachable chain:
///
/// ```
/// use emm_aig::{Design, LatchInit};
/// use emm_bmc::{BmcVerdict, KInduction, VerifyOptions};
///
/// let mut d = Design::new();
/// let count = d.new_latch_word("count", 6, LatchInit::Zero);
/// let top = d.aig.eq_const(&count, 29);
/// let inc = d.aig.inc(&count);
/// let hold = d.aig.mux_word(top, &count, &inc);
/// d.set_next_word(&count, &hold);
/// let bad = d.aig.eq_const(&count, 63);
/// d.add_property("ne63", bad);
/// d.check().expect("well-formed");
///
/// let mut engine = KInduction::new(&d, VerifyOptions::default());
/// let run = engine.check(0, 64).expect("no spurious traces");
/// assert!(matches!(run.verdict, BmcVerdict::Proved { .. }));
/// ```
pub struct KInduction<'d> {
    base: BmcEngine<'d>,
    step: StepQuery,
    /// The options as handed in (the base engine holds a proofs-off,
    /// wall-limit-free copy; the wall limit is applied here, once per
    /// `check`, so the whole interleaved loop shares one deadline).
    options: VerifyOptions,
    /// The governor in force: the configured one with the current call's
    /// wall-limit deadline min-combined in.
    governor: ResourceGovernor,
    /// Deepest step depth that completed SAT (induction failed there).
    /// Monotone: a failed step stays failed — the step formula at `k+1`
    /// contains a copy of every shorter simple path — so resumed checks
    /// skip these depths instead of re-solving them.
    steps_failed: Option<usize>,
    /// Step queries that ran to completion (SAT or UNSAT).
    step_queries: u64,
    encode_seconds: f64,
    solve_seconds: f64,
    /// Preprocessing times and PBA reasons of the most recent base run,
    /// passed through into this engine's [`BmcRun`]s.
    rewrite_seconds: f64,
    fraig_seconds: f64,
    latch_reasons: Vec<usize>,
    memory_reasons: Vec<usize>,
}

impl std::fmt::Debug for KInduction<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KInduction")
            .field("steps_failed", &self.steps_failed)
            .field("step_queries", &self.step_queries)
            .finish()
    }
}

impl<'d> KInduction<'d> {
    /// Creates a k-induction engine for `design`, running the same
    /// rewrite → fraig preprocessing as [`BmcEngine::new`].
    ///
    /// # Panics
    ///
    /// Panics if the design is malformed or an abstraction mask has the
    /// wrong length.
    pub fn new(design: &'d Design, options: VerifyOptions) -> KInduction<'d> {
        let base = BmcEngine::new(design, Self::base_options(&options));
        Self::with_base(base, options)
    }

    /// Creates an engine over an already-reduced model (see
    /// [`BmcEngine::with_model`]); drivers that race several engines
    /// share one [`ReducedModel::reduce`] pass this way.
    ///
    /// # Panics
    ///
    /// Panics if the design is malformed or an abstraction mask has the
    /// wrong length.
    pub fn with_model(reduced: &'d ReducedModel<'_>, options: VerifyOptions) -> KInduction<'d> {
        let base = BmcEngine::with_model(reduced, Self::base_options(&options));
        Self::with_base(base, options)
    }

    /// The embedded bounded engine's options: proofs off (the step query
    /// subsumes the backward check, and the forward check belongs to the
    /// bounded engine's bounded-diameter strategy), and no wall limit —
    /// the k-induction loop owns the deadline.
    fn base_options(options: &VerifyOptions) -> VerifyOptions {
        let mut o = options.clone();
        o.proofs = false;
        o.pipeline.wall_limit = None;
        o
    }

    /// Creates an engine whose base case continues on `base`: a bounded
    /// engine configured as [`KInduction::base_options`]`(&options)`,
    /// apart from its governor, which every `check` replaces. Bounds
    /// `base` already refuted are skipped through its resume contract,
    /// so the verification server hands a bounded request's engine on to
    /// the k-induction request for the same property (see
    /// [`crate::server`]).
    pub(crate) fn with_base(base: BmcEngine<'d>, options: VerifyOptions) -> KInduction<'d> {
        let governor = options.pipeline.governor.clone();
        let step = StepQuery::new(base.model(), &options, governor.clone());
        KInduction {
            base,
            step,
            options,
            governor,
            steps_failed: None,
            step_queries: 0,
            encode_seconds: 0.0,
            solve_seconds: 0.0,
            rewrite_seconds: 0.0,
            fraig_seconds: 0.0,
            latch_reasons: Vec::new(),
            memory_reasons: Vec::new(),
        }
    }

    /// The design under verification.
    pub fn design(&self) -> &'d Design {
        self.base.design()
    }

    /// The model actually encoded (original or rewrite/fraig-reduced).
    pub fn model(&self) -> &Design {
        self.base.model()
    }

    /// The embedded bounded engine running the base case — its stats
    /// accessors ([`BmcEngine::solver_stats`],
    /// [`BmcEngine::property_clauses_retired`], …) describe the base
    /// loop's anchored context.
    pub fn base(&self) -> &BmcEngine<'d> {
        &self.base
    }

    /// Step queries that ran to completion (SAT or UNSAT) over the
    /// engine's lifetime.
    pub fn step_queries(&self) -> u64 {
        self.step_queries
    }

    /// Deepest step depth whose query completed SAT (induction failed
    /// there); `None` before the first completed step. Resumed checks
    /// skip depths up to this point.
    pub fn steps_failed(&self) -> Option<usize> {
        self.steps_failed
    }

    /// Variable count and raw CDCL statistics of the step solver.
    pub fn step_solver_stats(&self) -> (usize, emm_sat::SolverStats) {
        self.step.stats()
    }

    /// Replaces the pipeline governor on the base engine and the step
    /// context — the resume path after [`BmcVerdict::Unknown`], exactly
    /// as on [`BmcEngine::set_governor`].
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.options.pipeline.governor = governor.clone();
        self.governor = governor;
        self.base.set_governor(self.governor.clone());
        self.step.set_governor(self.governor.clone());
    }

    /// The governor currently in force.
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// Runs interleaved base case + inductive step for property `prop`
    /// at depths `0..=max_k`.
    ///
    /// Verdicts: [`BmcVerdict::Proved`]`{ k }` when a step closes the
    /// property, [`BmcVerdict::Counterexample`] from the base case (the
    /// trace replays on the original design), [`BmcVerdict::BoundReached`]
    /// when every depth up to `max_k` ran without closing, and
    /// [`BmcVerdict::Unknown`] when the governor tripped (resume by
    /// [`KInduction::set_governor`] + a repeated call: completed base
    /// bounds and failed step depths are skipped).
    ///
    /// # Errors
    ///
    /// [`BmcError::SpuriousTrace`] if a base-case counterexample fails
    /// re-simulation (an internal bug, surfaced rather than returned).
    pub fn check(&mut self, prop: usize, max_k: usize) -> Result<BmcRun, BmcError> {
        let started = Instant::now();
        let deadline = self.options.pipeline.wall_limit.map(|d| started + d);
        self.governor = match deadline {
            Some(dl) => self.options.pipeline.governor.clone().with_deadline(dl),
            None => self.options.pipeline.governor.clone(),
        };
        self.base.set_governor(self.governor.clone());
        self.encode_seconds = 0.0;
        self.solve_seconds = 0.0;
        // A step context poisoned by an aborted EMM frame, or unrolled
        // for another property, starts over; every failed-step record
        // dies with it.
        let switched = self.step.switch_property(prop);
        if switched || self.step.poisoned() {
            self.step.rebuild(self.base.model());
            self.steps_failed = None;
        }
        self.step.set_governor(self.governor.clone());

        let bad_bit = self.base.model().properties()[prop].bad;
        let mut per_bound: Vec<f64> = Vec::new();
        // Deepest base bound known clean in *this* call, for the resume
        // contract of step-side Unknowns.
        let mut clean_base: Option<u32> = None;

        for k in 0..=max_k {
            let bound_started = Instant::now();
            if let Some(reason) = self.governor.poll() {
                let v = self.unknown(reason, clean_base);
                return self.finish(v, k, started, per_bound);
            }

            // Base case: no counterexample of length ≤ k. Incremental
            // bound clearing makes the repeated call solve only bound k.
            let base_run = self.base.check(prop, k)?;
            self.encode_seconds += base_run.phase_seconds.encode;
            self.solve_seconds += base_run.phase_seconds.solve;
            self.rewrite_seconds = base_run.phase_seconds.rewrite;
            self.fraig_seconds = base_run.phase_seconds.fraig;
            self.latch_reasons = base_run.latch_reasons.clone();
            self.memory_reasons = base_run.memory_reasons.clone();
            match base_run.verdict {
                BmcVerdict::BoundReached => clean_base = Some(k as u32),
                verdict @ (BmcVerdict::Counterexample(_) | BmcVerdict::Unknown { .. }) => {
                    per_bound.push(bound_started.elapsed().as_secs_f64());
                    return self.finish(verdict, k, started, per_bound);
                }
                // Unreachable: the base engine runs with proofs off.
                verdict => return self.finish(verdict, k, started, per_bound),
            }

            // Inductive step at k, unless an earlier call already watched
            // it fail (failure is monotone — see `steps_failed`).
            if self.steps_failed.is_some_and(|d| k <= d) {
                per_bound.push(bound_started.elapsed().as_secs_f64());
                continue;
            }
            let budget = self
                .options
                .pipeline
                .solve_budget
                .clone()
                .with_earlier_deadline(deadline);
            let step = self.step.query(self.base.model(), bad_bit, k, budget);
            self.encode_seconds += step.encode_seconds;
            self.solve_seconds += step.solve_seconds;
            per_bound.push(bound_started.elapsed().as_secs_f64());
            match (step.encode, step.result) {
                (None, Some(SolveResult::Unsat)) => {
                    self.step_queries += 1;
                    return self.finish(BmcVerdict::Proved { k }, k, started, per_bound);
                }
                (None, Some(SolveResult::Sat)) => {
                    self.step_queries += 1;
                    self.steps_failed = Some(k);
                }
                (encode, _) => {
                    let reason = encode
                        .or(step.exhaustion)
                        .or_else(|| self.governor.poll())
                        .unwrap_or(ExhaustionReason::Cancelled);
                    let v = self.unknown(reason, clean_base);
                    return self.finish(v, k, started, per_bound);
                }
            }
        }
        self.finish(BmcVerdict::BoundReached, max_k, started, per_bound)
    }

    fn unknown(&self, reason: ExhaustionReason, clean_base: Option<u32>) -> BmcVerdict {
        BmcVerdict::Unknown {
            reason,
            deepest_clean_bound: clean_base,
        }
    }

    fn finish(
        &self,
        verdict: BmcVerdict,
        depth: usize,
        started: Instant,
        per_bound_seconds: Vec<f64>,
    ) -> Result<BmcRun, BmcError> {
        Ok(BmcRun {
            verdict,
            depth_reached: depth,
            elapsed: started.elapsed(),
            per_bound_seconds,
            latch_reasons: self.latch_reasons.clone(),
            memory_reasons: self.memory_reasons.clone(),
            phase_seconds: PhaseSeconds {
                rewrite: self.rewrite_seconds,
                fraig: self.fraig_seconds,
                encode: self.encode_seconds,
                solve: self.solve_seconds,
                inprocess: 0.0,
            },
        })
    }
}
