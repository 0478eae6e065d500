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
//! Structurally, one solver lives across the whole `k` loop. Each
//! depth's step clauses (`¬bad_0 … ¬bad_{k-1}, bad_k`) go into their own
//! activation group; when the step fails (SAT) the group is physically
//! retired ([`emm_sat::Solver::retire_group`]), so failed depths leave
//! learned clauses behind but no dead property clauses. The
//! [`ResourceGovernor`] is honored at every query — frame extension,
//! base bounds and step solves all poll it — and a run that degrades to
//! [`BmcVerdict::Unknown`] resumes exactly like the bounded engine:
//! install a fresh governor ([`KInduction::set_governor`]) and call
//! [`KInduction::check`] again; cleanly completed base bounds *and*
//! cleanly failed step depths are skipped, not re-solved.

use std::time::Instant;

use emm_aig::Design;
use emm_sat::{ExhaustionReason, ResourceGovernor, SolveResult};

use crate::engine::{BmcEngine, BmcError, BmcRun, BmcVerdict, Ctx, PhaseSeconds};
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
    step: Ctx,
    /// The options as handed in (the base engine holds a proofs-off,
    /// wall-limit-free copy; the wall limit is applied here, once per
    /// `check`, so the whole interleaved loop shares one deadline).
    options: VerifyOptions,
    /// The governor in force: the configured one with the current call's
    /// wall-limit deadline min-combined in.
    governor: ResourceGovernor,
    /// The property the step context has run for. Step queries are
    /// bound-exact over the shared LFP activation, so switching
    /// properties rebuilds the context (mirroring the bounded engine's
    /// proof-mode property switch).
    step_prop: Option<usize>,
    /// Deepest step depth that completed SAT (induction failed there).
    /// Monotone: a failed step stays failed — the step formula at `k+1`
    /// contains a copy of every shorter simple path — so resumed checks
    /// skip these depths instead of re-solving them.
    steps_failed: Option<usize>,
    /// Step queries that ran to completion (SAT or UNSAT).
    step_queries: u64,
    /// Clauses physically retired from completed or abandoned step
    /// groups (depth `k` contributes `k + 1`).
    step_clauses_retired: u64,
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
        Self::assemble(base, options)
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
        Self::assemble(base, options)
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

    fn assemble(base: BmcEngine<'d>, options: VerifyOptions) -> KInduction<'d> {
        let governor = options.pipeline.governor.clone();
        let step = Self::make_step_ctx(&base, &options, &governor);
        KInduction {
            base,
            step,
            options,
            governor,
            step_prop: None,
            steps_failed: None,
            step_queries: 0,
            step_clauses_retired: 0,
            encode_seconds: 0.0,
            solve_seconds: 0.0,
            rewrite_seconds: 0.0,
            fraig_seconds: 0.0,
            latch_reasons: Vec::new(),
            memory_reasons: Vec::new(),
        }
    }

    /// Builds the floating step context: free initial state, every
    /// memory arbitrary-init, LFP rows on (`proofs: true` only toggles
    /// the LFP builder inside `make_ctx` — the embedded base engine
    /// never sees it).
    fn make_step_ctx(
        base: &BmcEngine<'_>,
        options: &VerifyOptions,
        governor: &ResourceGovernor,
    ) -> Ctx {
        let mut step_options = options.clone();
        step_options.proofs = true;
        BmcEngine::make_ctx(base.model(), &step_options, governor, false)
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

    /// Clauses physically retired from completed or abandoned step
    /// activation groups (the step group of depth `k` holds `k + 1`
    /// clauses).
    pub fn step_clauses_retired(&self) -> u64 {
        self.step_clauses_retired
    }

    /// Variable count and raw CDCL statistics of the step solver.
    pub fn step_solver_stats(&self) -> (usize, emm_sat::SolverStats) {
        (self.step.solver.num_vars(), *self.step.solver.stats())
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

    /// Drops and recreates the step context (poisoned EMM emission or a
    /// property switch); every failed-step record dies with it.
    fn rebuild_step(&mut self) {
        self.step = Self::make_step_ctx(&self.base, &self.options, &self.governor);
        self.steps_failed = None;
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
        // An EMM encoder that aborted mid-frame left the newest step
        // frame under-constrained; rebuild before trusting any answer
        // (the base engine does the same for its own contexts).
        if self.step.emm.interrupted() {
            self.rebuild_step();
        } else {
            self.step.set_governor(self.governor.clone());
        }
        // Step queries are bound-exact over the single shared LFP
        // activation (see `BmcEngine::run_bound`); a context unrolled
        // for another property cannot run this one's shallow steps.
        if self.step_prop.is_some_and(|p| p != prop) && self.step.unroller.num_frames() > 0 {
            self.rebuild_step();
        }
        self.step_prop = Some(prop);

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
            match self.step_query(k, bad_bit, deadline) {
                StepOutcome::Closed => {
                    per_bound.push(bound_started.elapsed().as_secs_f64());
                    return self.finish(BmcVerdict::Proved { k }, k, started, per_bound);
                }
                StepOutcome::Failed => {
                    self.steps_failed = Some(k);
                    per_bound.push(bound_started.elapsed().as_secs_f64());
                }
                StepOutcome::Exhausted(reason) => {
                    per_bound.push(bound_started.elapsed().as_secs_f64());
                    let v = self.unknown(reason, clean_base);
                    return self.finish(v, k, started, per_bound);
                }
            }
        }
        self.finish(BmcVerdict::BoundReached, max_k, started, per_bound)
    }

    /// One inductive-step query at depth `k`: extend the floating
    /// context to frames `0..=k`, post `¬bad_0 … ¬bad_{k-1}, bad_k` in a
    /// fresh activation group, solve under the EMM selector assumptions
    /// with `LFP` enforced, and retire the group once the query completes
    /// (or is abandoned by the governor).
    fn step_query(
        &mut self,
        k: usize,
        bad_bit: emm_aig::Bit,
        deadline: Option<Instant>,
    ) -> StepOutcome {
        let encode_started = Instant::now();
        let outcome = BmcEngine::extend_ctx_to(self.base.model(), &mut self.step, k);
        self.encode_seconds += encode_started.elapsed().as_secs_f64();
        if let Some(reason) = outcome {
            return StepOutcome::Exhausted(reason);
        }
        debug_assert_eq!(
            self.step.unroller.num_frames(),
            k + 1,
            "step queries are bound-exact"
        );
        let budget = self
            .options
            .pipeline
            .solve_budget
            .clone()
            .with_earlier_deadline(deadline);
        self.step.solver.set_budget(budget);

        let group = self.step.solver.new_activation_group();
        for j in 0..k {
            let bad_j = self.step.unroller.lit(j, bad_bit);
            let bad_j = self.step.assumption(bad_j);
            self.step.solver.add_clause_in_group(group, &[!bad_j]);
        }
        let bad_k = self.step.unroller.lit(k, bad_bit);
        let bad_k = self.step.assumption(bad_k);
        self.step.solver.add_clause_in_group(group, &[bad_k]);

        let mut assumptions = BmcEngine::base_assumptions(&self.step);
        assumptions.push(group);
        let result = self.step.solve_lfp(
            &assumptions,
            &mut self.encode_seconds,
            &mut self.solve_seconds,
        );
        // Every step group is transient: retired on completion (the
        // learned clauses stay; the property clauses leave the arena)
        // and on abandonment alike.
        self.step_clauses_retired += self.step.solver.retire_group(group) as u64;
        match result {
            SolveResult::Unsat => {
                self.step_queries += 1;
                StepOutcome::Closed
            }
            SolveResult::Sat => {
                self.step_queries += 1;
                StepOutcome::Failed
            }
            SolveResult::Unknown => StepOutcome::Exhausted(
                self.step
                    .solver
                    .exhaustion_reason()
                    .or_else(|| self.governor.poll())
                    .unwrap_or(ExhaustionReason::Cancelled),
            ),
        }
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

/// Outcome of one inductive-step query.
enum StepOutcome {
    /// UNSAT — together with the clean base case this closes the
    /// property.
    Closed,
    /// SAT — induction fails at this depth; try deeper.
    Failed,
    /// The governor or the solve budget ended the query.
    Exhausted(ExhaustionReason),
}
