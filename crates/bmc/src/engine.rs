//! The BMC engine: algorithms BMC-1, BMC-2 and BMC-3 of the paper.
//!
//! One [`BmcEngine`] instance owns two incremental SAT contexts over the
//! same design:
//!
//! * an **anchored** context whose frame 0 is the initial state — used for
//!   counterexample checks (`SAT(I ∧ ¬P_i ∧ C_i)`, Fig. 3 line 9) and the
//!   forward termination check (`SAT(I ∧ LFP_i ∧ C_i)`, line 6);
//! * a **floating** context whose frame 0 is unconstrained — used for the
//!   backward termination check (`SAT(LFP_i ∧ ¬P_i ∧ CP_i ∧ C_i)`, line 7).
//!   In this context *every* memory is treated as arbitrary-initialized
//!   (whatever its declared reset value), because an induction window may
//!   start in any reachable state; this is where the paper's precise
//!   arbitrary-initial-state modeling (Section 4.2) is load-bearing.
//!   The backward check is the simple-path induction step, so this
//!   context and its query belong to `StepQuery`.
//!
//! Both contexts follow the **incremental solver lifecycle** (see the
//! "Solver lifecycle" section of `docs/ARCHITECTURE.md`): one long-lived
//! solver per context across the whole bound loop, the anchored
//! context's per-bound property clauses under activation groups retired
//! on refutation, the floating context's as plain assumptions, and
//! cleared counterexample bounds skipped on repeated [`BmcEngine::check`]
//! calls.
//! The restart-from-scratch baseline is kept behind
//! [`PipelineOptions::incremental`](crate::PipelineOptions::incremental)` = false`.
//!
//! ## Queries scoped by bound
//!
//! A query at bound `i` asks exactly the bound-`i` formula, however deep
//! its context is unrolled. It assumes the guards of the environment
//! constraints of frames `0..=i` only ([`Unroller::constraint_guards`]),
//! and a termination check enforces `LFP_i` over frames `0..=i` only
//! ([`LfpBuilder::solve`]). Nothing else in a later frame can rule out an
//! earlier frame's behaviour: latch transitions are functions, and the EMM
//! constraints of a frame only define that frame's read data. So frames,
//! EMM constraints, LFP rows and learnt clauses do not depend on the
//! property: the property enters as assumptions and retired groups only,
//! and both contexts carry over between `check` calls for any property
//! and any depth. A context is rebuilt only when its EMM encoder stopped
//! mid-frame (the frame is then under-constrained) and, at every bound,
//! in restart mode.
//!
//! ## Phase policy
//!
//! One long-lived solver answers several kinds of query, and the solver's
//! phase saving would hand each query the phases the previous one left,
//! whatever its kind. The anchored context's counterexample query
//! (`bad_i`, UNSAT until a bug shows up) runs through
//! [`Solver::solve_with_default_phases`] instead: it searches from the
//! default phase and drops the phases it saves. So the forward check at
//! bound `i+1` starts from the bound-`i` forward model, as if the
//! counterexample query had not run. Every other query (forward,
//! backward / step, LFP refinement rounds) keeps plain phase saving. This
//! is the one policy under both schedules and in restart mode.
//!
//! ## Simulated forward answers
//!
//! The forward check `SAT(I ∧ LFP_i ∧ C_i)` is SAT at every bound before
//! the one that proves, and a SAT answer only says "no proof yet". So the
//! engine answers it without the solver whenever it can show a run: it
//! keeps the **last forward witness**, a concrete run of the design as
//! handed in (the reduced copy has the same interface and the same
//! functions) over frames `0..=i`, with a [`Simulator`] in its state after
//! frame `i`, and per frame the kept latches' values and whether a kept
//! memory's write fired. At bound `i+1` it steps that simulator once more
//! with frame `i`'s free inputs and disabled-read values, and answers SAT
//! only if the new frame
//!
//! * meets every environment constraint,
//! * has no write race, and
//! * repeats no earlier frame under [`LfpBuilder`]'s rule (kept latches
//!   equal and no kept write enabled in between, the one definition both
//!   use).
//!
//! Otherwise the run stays as it was and the solver answers as before. A
//! solver SAT answer refreshes the run: the engine extracts it from the
//! model as it extracts a counterexample trace and re-simulates it from
//! frame 0 under the same three rules (a run that breaks one is dropped).
//! The run depends on the design and the abstraction only, so it outlives
//! restart-mode rebuilds and `check` calls. [`BmcEngine::forward_simulated`]
//! counts the simulated answers and [`BmcEngine::forward_witness`] shows
//! the run.
//!
//! This is sound. A concrete race-free run from the initial state
//! satisfies the transition relation and `I`, and EMM's constraints, which
//! encode exactly the memory semantics of race-free runs (an
//! arbitrary-init word the run never seeded reads 0, one valid initial
//! content). It satisfies `C_i` because every frame's constraints were
//! checked. It satisfies
//! every LFP row, because a row only demands that two frames differ in a
//! kept latch or have a kept write between them, which is what "no
//! repeated pair" checks. Freed latches and dropped memories are free in
//! the encoding, so the run's values for them do too. The run is thus a
//! model of the bound's formula, and SAT is the right answer. UNSAT always
//! comes from the solver, so every proof, its depth and every
//! counterexample are exactly what the solver alone gives.
//!
//! A solved SAT query assigns every variable and re-queues them all when
//! it backtracks, so the queries after it (the counterexample query above
//! all) find the variables queued in roughly time-frame order. A simulated
//! answer leaves the solver untouched, and the order would stay as the
//! last partial search left it, so it calls
//! [`Solver::requeue_by_index`]: every unassigned variable is re-queued in
//! descending index order, and equal-activity ties break by creation
//! (frame) order, the time-frame order Strichman found to suit BMC
//! ("Tuning SAT checkers for Bounded Model Checking", CAV 2000). Without
//! it quicksort N=4's inverted-comparison P1 needs about 2.5 times the
//! anchored conflicts.
//!
//! ## Simulated step answers
//!
//! The backward check and the k-induction step ask one query,
//! `SAT(LFP_k ∧ ¬bad_0 ∧ … ∧ ¬bad_{k-1} ∧ bad_k ∧ C_k)` on the floating
//! context, and it is SAT at every bound before the one that proves.
//! `StepQuery` answers it SAT without the solver, and without extending
//! the floating context, from a **floating bank** kept per property: the
//! deepest frame `m` at which a random floating run first showed `bad`.
//!
//! * **Suffixes.** Take a run over frames `0..=m` with `¬bad` at frames
//!   `0..m` and `bad` at `m` that is race-free, meets every environment
//!   constraint and repeats no frame under LFP's rule. For every `k ≤ m`
//!   its frames `m-k..=m` start in some state, keep every rule (they are
//!   a subset of the frames), and end in the first `bad`. That suffix is
//!   a model of the step query at `k`, the simple-path witness
//!   k-induction asks for (Eén & Sörensson, BMC 2003). So one run answers
//!   every bound up to `m`.
//! * **Every memory arbitrary.** The floating context leaves frame 0
//!   free: every latch and every memory's contents, whatever its declared
//!   init (the paper's Section 4.2), since a window may start in any
//!   state. A suffix starts wherever its run had got to, so the runs
//!   start anywhere too: random latches, and memory words drawn on their
//!   first read, whatever the declared init. Every frame draws random
//!   free inputs and random values on disabled read ports, which the
//!   encoding leaves free as well.
//! * **The reduced model.** The floating context encodes the reduced
//!   model, and the bank simulates that model. Rewriting and fraiging
//!   keep the interface (latches, inputs, memories and their ports) and
//!   every function a latch, port, property or constraint reads from it,
//!   so the reduced model has exactly the design's runs and gives the
//!   same answers, at a lower cost per step.
//! * **Rules and runs.** A run keeps the forward witness's rules, written
//!   once in `SimplePath::push`: it stops at a violated constraint, at
//!   a write race, or at a frame that repeats an earlier one over the
//!   kept latches and kept writes. Runs go in batches of [`LANES`]
//!   through the [`LaneSimulator`], which steps all of them with one
//!   word per AIG node. Before the bank accepts a batch's deepest run it
//!   replays that run once on the scalar [`Simulator`].
//! * **Budget.** Batches are drawn on demand, each with a seed of its
//!   own. A query the bank does not cover draws batches until the bank
//!   covers its bound or the property's allowance is spent, polling the
//!   governor before each. The allowance is one batch at first; it
//!   doubles after every solver SAT answer, up to 16 batches (1,024
//!   runs), and falls back to one after UNSAT. A run takes at most twice
//!   the frames of the `check` call's deepest bound, and at most 1,024.
//!
//! The bank only ever answers SAT, and UNSAT always comes from the
//! solver, so every proof, `Proved { k }` and their depths rest on the
//! solver alone. A SAT answer only says "no proof at this bound", so even
//! a wrong bank answer could only delay a proof, never produce one. A
//! bank answer raises the `failed` bound as a solver SAT answer does. It
//! leaves the floating solver untouched, so the solver's later queries
//! start from a different state. On the quicksort
//! Table 1/2 proofs (N=3, AW=6, DW=4) the bank answers 28 of P1's 31
//! backward checks and all 31 of P2's. [`BmcEngine::backward_simulated`]
//! counts the bank answers.
//!
//! The engine configurations map to the paper's algorithms:
//!
//! | Paper | Configuration |
//! |---|---|
//! | BMC-1 (Fig. 1) | a design without memories (e.g. after [`emm_core::explicit_model`]), `proofs: true` |
//! | BMC-2 (Fig. 2) | memories + EMM, `proofs: false` |
//! | BMC-3 (Fig. 3) | memories + EMM, `proofs: true`, optionally PBA |
//!
//! ## Two schedules
//!
//! [`PipelineOptions::proof_engine`](crate::PipelineOptions::proof_engine)
//! selects what the bound loop asks at each bound `k`:
//!
//! * [`ProofEngine::Bounded`] (the default) is the table above: the
//!   counterexample check, and with proofs on the forward check plus the
//!   backward check. A proof is [`BmcVerdict::Proof`] (`proof@k`).
//! * [`ProofEngine::KInduction`] is k-induction (Sheeran, Singh &
//!   Stålmarck, FMCAD 2000; Eén & Sörensson, BMC 2003), and ignores
//!   [`VerifyOptions::proofs`]. The anchored context asks only the
//!   counterexample check (the **base case**) and carries no LFP builder;
//!   the floating context always exists and asks the backward check (the
//!   **inductive step**). A step UNSAT at `k` over a clean base case
//!   returns [`BmcVerdict::Proved`]`{ k }`. [`crate::KInduction`] is a
//!   thin handle on an engine with this schedule.
//!
//! Both schedules ask the backward check as the same step query, under
//! the call's `solve_budget` (the paper's BMC-3 asks it as a plain
//! query, and so does k-induction). They differ only in the order of
//! their queries and in the kind of verdict a step UNSAT gives. The
//! floating context sees the same step queries in the same order, so a
//! bounded backward proof lands at the depth where k-induction proves.
//!
//! `Proved { k }` is unbounded: the property holds in **all** reachable
//! states. The step query at `k` asks for a simple path `s_0 … s_k` with
//! `¬bad` at `s_0 … s_{k-1}` and `bad` at `s_k`, from any state. The
//! shortest path from the initial state to a reachable bad state is
//! loop-free and has a `¬bad` prefix; the base case rules out those of
//! length ≤ `k`, and any longer one has a suffix of length `k` that
//! would satisfy the step query. The simple-path (LFP) rows come from
//! the same [`LfpBuilder`] the termination checks use, derived from the
//! latch state of the EMM encoding and added on demand when a model
//! repeats a pair's state (Eén & Sörensson's lazy simple-path
//! refinement), so the step answers exactly as with every row present.
//! Without them k-induction is incomplete, since a lasso of good states
//! could extend forever; with them the step formula is unsatisfiable
//! outright at the recurrence diameter. A satisfying path of the step at
//! `k` has a suffix of every shorter length, so a failed (SAT) step fails
//! at every shallower depth too, and a later call for the same property
//! skips the depths already asked (see `StepQuery::open_at`). Likewise a
//! step UNSAT at `k` is UNSAT at every deeper bound, so the floating
//! context remembers the lowest such bound per property and answers the
//! queries from it on without the solver; the bounds below it were asked
//! before it without a proof, and a later call does not ask them again.
//!
//! ## One bound loop
//!
//! A [`BmcEngine::check`] call is one loop over the bounds on the
//! caller's thread, under both schedules, as in Eén & Sörensson's
//! sequential loop (BMC 2003). At bound `i` it polls the governor, in
//! restart mode rebuilds both contexts, and extends the anchored context
//! to frame `i`. Then the bounded schedule asks
//!
//! 1. with proofs on, the forward check: UNSAT proves, `Unknown` ends the
//!    run;
//! 2. with proofs on, the backward check: UNSAT proves, `Unknown` ends
//!    the run;
//! 3. the counterexample check of a bound not yet cleared: SAT ends the
//!    run with a validated trace, `Unknown` ends it, UNSAT clears the
//!    bound.
//!
//! K-induction asks the counterexample check (the base case) and then,
//! over a clean base case, the step: UNSAT proves, `Unknown` ends the
//! run.
//!
//! The loop stops at the first answer that ends the run, so no query runs
//! past the verdict. Each answer is committed as it arrives: a refuted or
//! abandoned bound's property group is retired at once, its PBA reasons
//! are collected, and the bound is recorded as cleared. Both contexts
//! hold clones of the engine's governor, so they share its deadline, its
//! cancellation and one fault counter.
//!
//! ## The preprocessing and simplifying pipeline
//!
//! By default the engine reduces the design on a private copy — first
//! cut-based rewriting ([`emm_aig::rewrite`], restructuring inequivalent
//! logic into cheaper shapes), then fraiging ([`emm_aig::fraig`], merging
//! functionally equivalent cones) — and then routes every context's
//! clause traffic through the simplifying layer of [`emm_sat::simplify`]:
//!
//! ```text
//! Design ──rewrite──strash──fraig──> reduced model ──> Unroller ─┐
//!                                                      LfpBuilder ├──> SimplifySink ──> Solver
//!                                                      EmmEncoder ┘
//! ```
//!
//! The three layers are complementary: rewriting shrinks cones no
//! equivalence-based pass can touch (and its rebuild re-strashes the
//! graph, handing fraig better merge candidates); fraig merges
//! functionally equivalent cones once, before Tseitin encoding, so the
//! saving repeats at every unrolling depth; the sink then interns
//! whatever per-frame structure remains.
//!
//! The layer interns structurally identical gates across frames, folds
//! constants, and defers a gate's Tseitin clauses until something actually
//! references it (a dynamic cone-of-influence reduction at the literal
//! level). Literals handed to the solver as *assumptions* bypass
//! `add_clause`, so the engine materializes them first (see
//! `Ctx::assumption`). Disable the layer through
//! [`PipelineOptions::simplify`](crate::PipelineOptions::simplify); its
//! effect is observable via [`BmcEngine::simplify_stats`] and
//! [`BmcEngine::solver_stats`].

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use emm_aig::sim::{draw, LANES};
use emm_aig::{Design, FraigStats, LaneSimulator, RewriteStats, Simulator, StepReport, Trace};
use emm_core::{EmmEncoder, MemoryShape, SelectorGranularity};
use emm_sat::{
    Budget, CnfSink, ExhaustionReason, FaultSite, Lit, ResourceGovernor, Simplifier, SimplifyStats,
    SolveResult, Solver, SolverStats,
};

use crate::lfp::{LfpBuilder, SimplePath};
use crate::model::ReducedModel;
use crate::options::{ProofEngine, VerifyOptions};
use crate::unroll::{UnrollConfig, Unroller};

/// A frozen abstraction (from PBA discovery or elsewhere).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractionSpec {
    /// Latches to keep (`len == design.num_latches()`).
    pub kept_latches: Vec<bool>,
    /// Memory modules to keep (`len == design.memories().len()`).
    pub kept_memories: Vec<bool>,
}

impl AbstractionSpec {
    /// An abstraction keeping everything (identity).
    pub fn keep_all(design: &Design) -> AbstractionSpec {
        AbstractionSpec {
            kept_latches: vec![true; design.num_latches()],
            kept_memories: vec![true; design.memories().len()],
        }
    }

    /// An abstraction keeping exactly a cone of influence (see
    /// [`emm_aig::coi::cone_of_influence`]). COI is a *sound* static
    /// abstraction — everything outside the cone provably cannot affect
    /// the property — so, unlike PBA output, it requires no refinement.
    pub fn from_cone(cone: &emm_aig::coi::Cone) -> AbstractionSpec {
        AbstractionSpec {
            kept_latches: cone.latches.clone(),
            kept_memories: cone.memories.clone(),
        }
    }

    /// Intersection with another abstraction (keep only what both keep).
    pub fn intersect(&self, other: &AbstractionSpec) -> AbstractionSpec {
        AbstractionSpec {
            kept_latches: self
                .kept_latches
                .iter()
                .zip(&other.kept_latches)
                .map(|(&a, &b)| a && b)
                .collect(),
            kept_memories: self
                .kept_memories
                .iter()
                .zip(&other.kept_memories)
                .map(|(&a, &b)| a && b)
                .collect(),
        }
    }

    /// Number of kept latches (the paper's reduced-model "FF" count).
    pub fn num_kept_latches(&self) -> usize {
        self.kept_latches.iter().filter(|&&k| k).count()
    }

    /// Number of kept memories.
    pub fn num_kept_memories(&self) -> usize {
        self.kept_memories.iter().filter(|&&k| k).count()
    }
}

/// How a proof was obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProofKind {
    /// Forward termination: `I ∧ LFP_i` unsatisfiable (reachability
    /// diameter reached) — "forward induction proof" in the paper's tables.
    ForwardDiameter,
    /// Backward termination: `LFP_i ∧ ¬P_i ∧ CP_i` unsatisfiable
    /// (k-induction step) — "backward induction".
    BackwardInduction,
}

/// Outcome of a bounded check.
#[derive(Clone, Debug)]
pub enum BmcVerdict {
    /// The property holds in all reachable states.
    Proof {
        /// Which termination criterion concluded.
        kind: ProofKind,
        /// Depth at which the criterion held (the proof diameter `D`).
        depth: usize,
    },
    /// A real counterexample (witness) of the given trace.
    Counterexample(Trace),
    /// The property holds in all reachable states, closed *unboundedly*
    /// by the k-induction schedule ([`ProofEngine::KInduction`]): the base
    /// case is counterexample-free up to `k` and the simple-path inductive
    /// step at depth `k` is unsatisfiable. Distinct from
    /// [`BmcVerdict::Proof`] (`proof@k`), which records a bounded
    /// termination criterion inside the bounded schedule's depth budget.
    Proved {
        /// The induction depth that closed the property.
        k: usize,
    },
    /// No counterexample up to the bound; nothing proved.
    BoundReached,
    /// A resource limit ended the run without an answer. Never a wrong
    /// answer: every completed bound's refutation still stands, and a
    /// repeated [`BmcEngine::check`] with a raised budget (see
    /// [`BmcEngine::set_governor`]) resumes past the clean bounds.
    Unknown {
        /// Which resource ran out (deadline, work cap, memory ceiling,
        /// or an external cancellation).
        reason: ExhaustionReason,
        /// Deepest bound whose counterexample check completed UNSAT
        /// before exhaustion — the resume point. `None` when no bound
        /// was cleanly refuted (or the refutations were discarded by a
        /// context rebuild).
        deepest_clean_bound: Option<u32>,
    },
}

impl BmcVerdict {
    /// `true` for the positive verdicts: [`BmcVerdict::Proof`] (bounded
    /// termination) and [`BmcVerdict::Proved`] (k-induction closure).
    pub fn is_proof(&self) -> bool {
        matches!(self, BmcVerdict::Proof { .. } | BmcVerdict::Proved { .. })
    }

    /// `true` for [`BmcVerdict::Counterexample`].
    pub fn is_counterexample(&self) -> bool {
        matches!(self, BmcVerdict::Counterexample(_))
    }

    /// `true` for [`BmcVerdict::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, BmcVerdict::Unknown { .. })
    }
}

/// Wall-clock seconds per pipeline phase, reported in [`BmcRun`]. The
/// rewrite and fraig entries cover the preprocessing that ran in
/// [`BmcEngine::new`] (once per engine); encode and solve accumulate
/// over the reported `check` call, summed over both contexts. The bound
/// loop runs on the caller's thread, so encode plus solve is at most
/// [`BmcRun::elapsed`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Cut-based AIG rewriting ([`PipelineOptions::rewrite`](crate::PipelineOptions::rewrite)).
    pub rewrite: f64,
    /// Fraig reduction ([`PipelineOptions::fraig`](crate::PipelineOptions::fraig)).
    pub fraig: f64,
    /// Frame unrolling, EMM constraint emission, the model checks and
    /// pair rows of on-demand LFP refinement, and the refresh of the
    /// forward witness after a solver SAT answer.
    pub encode: f64,
    /// SAT solving (all termination and counterexample queries), forward
    /// checks answered by simulation and step queries answered by the
    /// floating bank (its batches included) too.
    pub solve: f64,
    /// Always 0: the solver has no inprocessing pass. Kept only because
    /// the repository benchmark (`benchmark/`) reads it; dropped with the
    /// next change to the benchmark.
    pub inprocess: f64,
}

/// Result of [`BmcEngine::check`].
#[derive(Clone, Debug)]
pub struct BmcRun {
    /// The verdict.
    pub verdict: BmcVerdict,
    /// Last depth fully processed.
    pub depth_reached: usize,
    /// Wall-clock time spent in this call.
    pub elapsed: Duration,
    /// Wall-clock seconds per bound, `per_bound_seconds[k]` for bound
    /// `k`: both contexts' encoding and solver calls at that bound. One
    /// entry per bound the loop entered, so `depth_reached + 1` of them.
    /// The bench harness's `incremental` mode plots these against the
    /// restart-from-scratch baseline.
    pub per_bound_seconds: Vec<f64>,
    /// Latch reasons accumulated by PBA discovery (latch indices),
    /// cumulative across all `check` calls on this engine.
    pub latch_reasons: Vec<usize>,
    /// Memory reasons accumulated by PBA discovery (memory indices),
    /// cumulative across all `check` calls on this engine.
    pub memory_reasons: Vec<usize>,
    /// Wall-clock seconds per pipeline phase (preprocessing once per
    /// engine; encode/solve for this call).
    pub phase_seconds: PhaseSeconds,
}

/// Engine errors.
#[derive(Debug)]
pub enum BmcError {
    /// A counterexample failed re-simulation — an internal soundness bug.
    SpuriousTrace(String),
    /// The checked property index is not one of the design's.
    PropertyOutOfRange {
        /// The requested property index.
        property: usize,
        /// How many properties the design has.
        available: usize,
    },
}

impl std::fmt::Display for BmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BmcError::SpuriousTrace(msg) => write!(f, "spurious counterexample trace: {msg}"),
            BmcError::PropertyOutOfRange {
                property,
                available,
            } => write!(
                f,
                "property {property} out of range: the design has {available} (0..{available})"
            ),
        }
    }
}

impl std::error::Error for BmcError {}

/// One SAT context (solver + unroller + EMM + LFP + simplifier). The
/// floating one lives inside [`StepQuery`].
struct Ctx {
    solver: Solver,
    unroller: Unroller,
    emm: EmmEncoder,
    /// Maps design memory index -> EMM encoder index (kept memories only).
    emm_index: Vec<Option<usize>>,
    lfp: Option<LfpBuilder>,
    /// Cross-frame simplification state, when enabled. All clause traffic
    /// from the unroller / EMM / LFP flows through `simplify.attach(solver)`
    /// so gates are interned and lazily emitted.
    simplify: Option<Simplifier>,
    /// Per-EMM-slot count of init reads whose address cones have already
    /// been materialized (so `extend_ctx_to` only touches new ones).
    init_reads_materialized: Vec<usize>,
    /// The governor installed on this context's solver and EMM encoder,
    /// and polled between its frames.
    governor: ResourceGovernor,
}

impl Ctx {
    /// Installs `governor` on the solver and EMM encoder.
    fn set_governor(&mut self, governor: ResourceGovernor) {
        self.solver.set_governor(governor.clone());
        self.emm.set_governor(governor.clone());
        self.governor = governor;
    }

    /// Prepares `lit` for use as a solve assumption: emits any still-lazy
    /// defining clauses.
    fn assumption(&mut self, lit: Lit) -> Lit {
        if let Some(simp) = &mut self.simplify {
            simp.attach(&mut self.solver).materialize(lit);
        }
        lit
    }

    /// Solves under `assumptions` with `LFP_bound` enforced, adding pair
    /// rows on demand (see [`LfpBuilder::solve`]).
    fn solve_lfp(
        &mut self,
        bound: usize,
        assumptions: &[Lit],
        encode_seconds: &mut f64,
        solve_seconds: &mut f64,
    ) -> SolveResult {
        self.lfp.as_mut().expect("proofs on").solve(
            &mut self.solver,
            self.simplify.as_mut(),
            bound,
            assumptions,
            encode_seconds,
            solve_seconds,
        )
    }
}

/// What a simulated run compares and checks, fixed by the abstraction:
/// the latches LFP compares ([`LfpBuilder`]'s kept positions) and the
/// memories whose writes separate frames.
#[derive(Debug)]
struct Kept {
    latches: Vec<usize>,
    memories: Vec<usize>,
}

impl Kept {
    fn new(design: &Design, abstraction: Option<&AbstractionSpec>) -> Self {
        let kept = |mask: Option<&Vec<bool>>, len: usize| -> Vec<usize> {
            (0..len).filter(|&i| mask.is_none_or(|m| m[i])).collect()
        };
        Kept {
            latches: kept(abstraction.map(|a| &a.kept_latches), design.num_latches()),
            memories: kept(
                abstraction.map(|a| &a.kept_memories),
                design.memories().len(),
            ),
        }
    }

    /// Steps `sim` through one frame of `design` with `inputs` and the
    /// `disabled` read values, and extends `path` with the frame under
    /// [`SimplePath::push`]'s rules. The frame's report when it joined.
    fn step(
        &self,
        design: &Design,
        sim: &mut Simulator<'_>,
        path: &mut SimplePath<Vec<bool>>,
        inputs: &[bool],
        disabled: &[Vec<u64>],
    ) -> Option<StepReport> {
        let state = self.latches.iter().map(|&l| sim.latch(l)).collect();
        let report = sim.step_with_disabled_reads(inputs, disabled);
        let memories = design.memories();
        let wrote = (self.memories.iter())
            .flat_map(|&m| &memories[m].write_ports)
            .any(|wp| sim.value(wp.en));
        let clean = report.violated_constraints.is_empty() && report.write_races.is_empty();
        path.push(clean, state, wrote).then_some(report)
    }

    /// Runs one batch of [`LANES`] random floating runs of `model` drawn
    /// from `seed`, each for at most `frames` frames and ended by the
    /// first frame that shows `prop`'s `bad` or fails to join its
    /// [`SimplePath`]. Returns the deepest frame at which a run showed
    /// `bad`, once that run has replayed on the scalar [`Simulator`].
    fn deepest_run(&self, model: &Design, prop: usize, seed: u64, frames: usize) -> Option<usize> {
        let mut sim = LaneSimulator::new(model, seed);
        let mut paths: Vec<SimplePath<Vec<u64>>> = (0..LANES).map(|_| SimplePath::new()).collect();
        let words = self.latches.len().div_ceil(64);
        let mut deepest: Option<(usize, usize)> = None;
        for frame in 0..frames {
            let live = sim.live();
            if live == 0 {
                break;
            }
            let mut states = vec![vec![0u64; words]; LANES];
            for (j, &l) in self.latches.iter().enumerate() {
                let word = sim.latch(l);
                for (lane, state) in states.iter_mut().enumerate() {
                    state[j / 64] |= (word >> lane & 1) << (j % 64);
                }
            }
            let report = sim.step();
            let wrote = (self.memories.iter()).fold(0, |w, &m| w | report.wrote[m]);
            let mut stop = if frame + 1 == frames { u64::MAX } else { 0 };
            for (lane, state) in states.into_iter().enumerate() {
                let bit = 1u64 << lane;
                if live & bit == 0 {
                    continue;
                }
                let clean = (report.violated | report.raced) & bit == 0;
                if !paths[lane].push(clean, state, wrote & bit != 0) {
                    stop |= bit;
                } else if report.bad[prop] & bit != 0 {
                    if deepest.is_none_or(|(d, _)| d < frame) {
                        deepest = Some((frame, lane));
                    }
                    stop |= bit;
                }
            }
            sim.kill(stop);
        }
        let (depth, lane) = deepest?;
        self.replays(model, &sim.trace(lane, depth + 1, prop))
            .then_some(depth)
    }

    /// Whether `trace` replays on the scalar [`Simulator`] as a run the
    /// bank may answer from: every frame joins its [`SimplePath`], and
    /// `bad` shows at the last frame only.
    fn replays(&self, model: &Design, trace: &Trace) -> bool {
        let mut sim = trace.start(model);
        let mut path = SimplePath::new();
        let last = trace.frames.len() - 1;
        (trace.frames.iter().zip(&trace.disabled_reads))
            .enumerate()
            .all(|(k, (inputs, disabled))| {
                self.step(model, &mut sim, &mut path, inputs, disabled)
                    .is_some_and(|report| report.property_bad[trace.property] == (k == last))
            })
    }
}

/// A concrete run of the design as handed in that answers the forward
/// check `SAT(I ∧ LFP_i ∧ C_i)` at every bound `i` it covers (see the
/// module docs' "Simulated forward answers"): from the initial state
/// through frame `i`, race-free, every environment constraint met, and no
/// frame pair repeated under LFP's rule.
#[derive(Debug)]
struct ForwardRun<'d> {
    /// The simulator after the run's last frame.
    sim: Simulator<'d>,
    /// The run's initial state and the inputs and disabled-read values of
    /// every frame; `trace.frames.len()` frames.
    trace: Trace,
    /// The run's frames as LFP sees them.
    path: SimplePath<Vec<bool>>,
}

/// The anchored context's last forward witness, the model-level state of
/// the simulated forward answer. It depends on the design and the
/// abstraction only, so it outlives context rebuilds and `check` calls.
#[derive(Debug)]
struct ForwardWitness<'d> {
    design: &'d Design,
    kept: Kept,
    run: Option<ForwardRun<'d>>,
    /// Forward checks answered by the run, over the engine's life.
    simulated: u64,
}

impl<'d> ForwardWitness<'d> {
    fn new(design: &'d Design, abstraction: Option<&AbstractionSpec>) -> Self {
        ForwardWitness {
            design,
            kept: Kept::new(design, abstraction),
            run: None,
            simulated: 0,
        }
    }

    /// Whether the run answers the forward check at `bound` SAT. A run of
    /// frames `0..bound` first tries one more frame with its last frame's
    /// inputs and disabled-read values.
    fn answers(&mut self, bound: usize) -> bool {
        let covers = match &mut self.run {
            Some(run) if run.trace.frames.len() == bound && bound > 0 => {
                let inputs = run.trace.frames[bound - 1].clone();
                let disabled = run.trace.disabled_reads[bound - 1].clone();
                self.push(inputs, disabled)
            }
            Some(run) => run.trace.frames.len() > bound,
            None => false,
        };
        self.simulated += u64::from(covers);
        covers
    }

    /// Replaces the run with `trace`, a solver model's run, re-simulated
    /// from its initial state; drops it when a frame of the re-simulation
    /// breaks a rule of [`ForwardRun`].
    fn refresh(&mut self, mut trace: Trace) {
        let frames = std::mem::take(&mut trace.frames);
        let disabled_reads = std::mem::take(&mut trace.disabled_reads);
        self.run = Some(ForwardRun {
            sim: trace.start(self.design),
            trace,
            path: SimplePath::new(),
        });
        for (inputs, disabled) in frames.into_iter().zip(disabled_reads) {
            if !self.push(inputs, disabled) {
                self.run = None;
                return;
            }
        }
    }

    /// Simulates the run's next frame and appends it when it joins the
    /// run's [`SimplePath`]; otherwise leaves the run as it was. One
    /// simulator step plus a scan of the earlier frames' kept latches.
    fn push(&mut self, inputs: Vec<bool>, disabled: Vec<Vec<u64>>) -> bool {
        let Some(run) = &mut self.run else {
            return false;
        };
        let mut sim = run.sim.clone();
        let report = self
            .kept
            .step(self.design, &mut sim, &mut run.path, &inputs, &disabled);
        let kept = report.is_some();
        if kept {
            run.sim = sim;
            run.trace.frames.push(inputs);
            run.trace.disabled_reads.push(disabled);
        }
        kept
    }
}

/// Seed of the floating bank's first batch for every property; batch `b`
/// of property `p` draws from `draw(BANK_SEED, [p, b])`.
const BANK_SEED: u64 = 0x5eed_f10a_7b4e_0001;

/// Most batches of [`LANES`] runs one uncovered step query may draw (see
/// the module docs' "Simulated step answers").
const BANK_ALLOWANCE: u64 = 16;

/// How many times the frames of a `check` call's deepest bound a floating
/// run may take. A run whose first `bad` lies past the call's depth still
/// answers every bound of it through its suffixes, and on quicksort N=3
/// P1 twice the cycle bound triples the runs that reach frame 30.
const BANK_FRAMES: usize = 2;

/// The most frames a floating run takes, whatever the call's depth, so a
/// batch's time and its runs' recorded states stay bounded.
const BANK_MAX_FRAMES: usize = 1024;

/// The floating bank's record of one property.
#[derive(Clone, Copy, Debug)]
struct Banked {
    /// The deepest frame at which an accepted run first showed `bad`: the
    /// bank answers the step query SAT at every bound up to it.
    depth: Option<usize>,
    /// Batches drawn so far, the next batch's index.
    drawn: u64,
    /// Batches the next uncovered query may draw.
    allowance: u64,
}

/// The floating context's bank of random floating runs (see the module
/// docs' "Simulated step answers"), per property. It depends on the model
/// and the abstraction only, so it outlives context rebuilds and `check`
/// calls.
#[derive(Debug)]
struct FloatingBank {
    kept: Kept,
    seed: u64,
    props: HashMap<usize, Banked>,
    /// Step queries the bank answered, over the engine's life.
    simulated: u64,
}

impl FloatingBank {
    fn new(model: &Design, abstraction: Option<&AbstractionSpec>) -> Self {
        FloatingBank {
            kept: Kept::new(model, abstraction),
            seed: BANK_SEED,
            props: HashMap::new(),
            simulated: 0,
        }
    }

    /// Whether the bank answers the step query for `prop` at `k` SAT.
    /// While it does not cover `k`, it draws batches of runs of up to
    /// [`BANK_FRAMES`] times `max_depth + 1` frames (at most
    /// [`BANK_MAX_FRAMES`]), as many as the property's allowance, and
    /// polls `governor` before each.
    fn covers(
        &mut self,
        model: &Design,
        prop: usize,
        k: usize,
        max_depth: usize,
        governor: &ResourceGovernor,
    ) -> bool {
        let banked = self.props.entry(prop).or_insert(Banked {
            depth: None,
            drawn: 0,
            allowance: 1,
        });
        let frames = (max_depth.saturating_add(1))
            .saturating_mul(BANK_FRAMES)
            .min(BANK_MAX_FRAMES);
        let mut batches = 0;
        while banked.depth.is_none_or(|d| d < k)
            && batches < banked.allowance
            && governor.poll().is_none()
        {
            let seed = draw(self.seed, &[prop as u64, banked.drawn]);
            banked.drawn += 1;
            batches += 1;
            let depth = self.kept.deepest_run(model, prop, seed, frames);
            banked.depth = banked.depth.max(depth);
        }
        let covers = banked.depth.is_some_and(|d| d >= k);
        self.simulated += u64::from(covers);
        covers
    }

    /// Moves `prop`'s allowance on from a solver answer to a query the
    /// bank did not cover: it doubles after SAT, up to
    /// [`BANK_ALLOWANCE`], and falls back to one batch after UNSAT.
    fn solved(&mut self, prop: usize, result: SolveResult) {
        if let Some(banked) = self.props.get_mut(&prop) {
            match result {
                SolveResult::Sat => banked.allowance = (2 * banked.allowance).min(BANK_ALLOWANCE),
                SolveResult::Unsat => banked.allowance = 1,
                SolveResult::Unknown => {}
            }
        }
    }
}

/// The inductive-step query, the backward termination check of both
/// schedules: `SAT(LFP_k ∧ ¬bad_0 ∧ … ∧ ¬bad_{k-1} ∧
/// bad_k)` on a floating context (frame 0 free, every memory
/// arbitrary-init, LFP rows added on demand), owned here for its whole
/// life. The property literals are solve assumptions, so a query leaves
/// no clause behind, and the query at `k` asks frames `0..=k` only:
/// frames, EMM constraints, LFP rows and learned clauses carry over
/// between bounds and properties alike.
#[derive(Debug)]
pub(crate) struct StepQuery {
    ctx: Ctx,
    /// The options the context is built from, kept for rebuilds.
    options: VerifyOptions,
    /// Per property: the deepest bound whose query answered SAT. A
    /// satisfying path at `k` has a suffix of every shorter length, so the
    /// queries at and below it stay SAT and a resumed call does not ask
    /// them again.
    failed: HashMap<usize, usize>,
    /// Per property: the lowest bound whose query answered UNSAT. The
    /// window at `k+1` contains a floating window of length `k`, so the
    /// queries above it are UNSAT too and are answered without the solver.
    proved: HashMap<usize, usize>,
    /// Solver queries answered SAT or UNSAT, over rebuilds too.
    answered: u64,
    /// Random floating runs that answer SAT queries without the solver.
    bank: FloatingBank,
}

/// What a [`StepQuery`] call answered.
#[derive(Default)]
pub(crate) struct StepAnswer {
    /// The governor tripped before the context reached the depth.
    pub(crate) encode: Option<ExhaustionReason>,
    /// The step query's answer, when it ran.
    pub(crate) result: Option<SolveResult>,
    /// Why an `Unknown` answer stopped, as the solver reports it.
    pub(crate) exhaustion: Option<ExhaustionReason>,
    pub(crate) encode_seconds: f64,
    pub(crate) solve_seconds: f64,
}

impl StepQuery {
    /// Builds an empty step context for `model` under `governor`.
    pub(crate) fn new(model: &Design, options: &VerifyOptions, governor: ResourceGovernor) -> Self {
        StepQuery {
            ctx: BmcEngine::make_ctx(model, options, &governor, false),
            options: options.clone(),
            failed: HashMap::new(),
            proved: HashMap::new(),
            answered: 0,
            bank: FloatingBank::new(model, options.abstraction.as_ref()),
        }
    }

    /// Whether the query for `prop` at bound `k` is still to be asked: no
    /// query for `prop` at `k` or deeper has answered SAT, and none has
    /// answered UNSAT. From the lowest UNSAT bound on the answer is UNSAT,
    /// and every bound below it was asked before it without a proof, so
    /// asking one again could only move the proof away from where a fresh
    /// engine finds it.
    fn open_at(&self, prop: usize, k: usize) -> bool {
        self.failed.get(&prop).is_none_or(|&d| d < k) && !self.proved.contains_key(&prop)
    }

    /// The step query for `prop` at depth `k` under `budget`: extends the
    /// context to frames `0..=k` (see [`BmcEngine::extend_ctx_to`]),
    /// assumes `¬bad_0 … ¬bad_{k-1}, bad_k` next to the bound's base
    /// assumptions, and solves with `LFP_k` enforced. UNSAT means no simple
    /// path of `k` good states is followed by a bad one.
    fn query(&mut self, model: &Design, prop: usize, k: usize, budget: Budget) -> StepAnswer {
        let started = Instant::now();
        let mut answer = StepAnswer {
            encode: BmcEngine::extend_ctx_to(model, &mut self.ctx, k),
            encode_seconds: started.elapsed().as_secs_f64(),
            ..StepAnswer::default()
        };
        if answer.encode.is_some() {
            return answer;
        }
        let bad = model.properties()[prop].bad;
        let ctx = &mut self.ctx;
        ctx.solver.set_budget(budget);
        let mut assumptions = BmcEngine::base_assumptions(ctx, k);
        for j in 0..k {
            let bad_j = ctx.unroller.lit(j, bad);
            assumptions.push(ctx.assumption(!bad_j));
        }
        let bad_k = ctx.unroller.lit(k, bad);
        assumptions.push(ctx.assumption(bad_k));
        let result = ctx.solve_lfp(
            k,
            &assumptions,
            &mut answer.encode_seconds,
            &mut answer.solve_seconds,
        );
        answer.result = Some(result);
        self.answered += u64::from(result != SolveResult::Unknown);
        match result {
            SolveResult::Sat => {
                self.failed.insert(prop, k);
            }
            SolveResult::Unsat => {
                self.proved.insert(prop, k);
            }
            SolveResult::Unknown => {}
        }
        answer.exhaustion = ctx.solver.exhaustion_reason();
        answer
    }

    /// Whether the EMM encoder aborted emission mid-frame: the newest frame
    /// is under-constrained, so no answer may be trusted until a rebuild.
    pub(crate) fn poisoned(&self) -> bool {
        self.ctx.emm.interrupted()
    }

    /// The step query at `k` while it is still open (see
    /// [`StepQuery::open_at`]), answered SAT by the bank when it covers
    /// `k` (see [`FloatingBank::covers`]) and by the solver otherwise;
    /// nothing at a bound no longer open; UNSAT without a query at or
    /// above a bound already proved.
    fn step(
        &mut self,
        model: &Design,
        prop: usize,
        k: usize,
        max_depth: usize,
        budget: Budget,
    ) -> StepAnswer {
        if self.proved.get(&prop).is_some_and(|&d| d <= k) {
            return StepAnswer {
                result: Some(SolveResult::Unsat),
                ..StepAnswer::default()
            };
        }
        if !self.open_at(prop, k) {
            return StepAnswer::default();
        }
        let started = Instant::now();
        if self
            .bank
            .covers(model, prop, k, max_depth, &self.ctx.governor)
        {
            self.failed.insert(prop, k);
            return StepAnswer {
                result: Some(SolveResult::Sat),
                solve_seconds: started.elapsed().as_secs_f64(),
                ..StepAnswer::default()
            };
        }
        let drawn = started.elapsed().as_secs_f64();
        let mut answer = self.query(model, prop, k, budget);
        answer.solve_seconds += drawn;
        if let Some(result) = answer.result {
            self.bank.solved(prop, result);
        }
        answer
    }

    /// Drops and recreates the context, keeping its governor (fault count
    /// included).
    pub(crate) fn rebuild(&mut self, model: &Design) {
        BmcEngine::remake(model, &self.options, &mut self.ctx, false);
        self.failed.clear();
        self.proved.clear();
    }

    /// Installs `governor` on the solver and the EMM encoder.
    pub(crate) fn set_governor(&mut self, governor: ResourceGovernor) {
        self.ctx.set_governor(governor);
    }

    /// Variable count and raw CDCL statistics of the step solver.
    pub(crate) fn stats(&self) -> (usize, SolverStats) {
        (self.ctx.solver.num_vars(), *self.ctx.solver.stats())
    }
}

/// The fixed inputs of one `check` call.
struct CheckCall {
    prop: usize,
    bad_bit: emm_aig::Bit,
    max_depth: usize,
    /// `solve_budget` with the call's deadline.
    budget: Budget,
    /// The deepest bound already refuted for `prop` whose counterexample
    /// query is skipped (incremental mode only).
    cleared: Option<usize>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("frames", &self.unroller.num_frames())
            .finish()
    }
}

/// The incremental BMC engine. See the crate docs for the mapping to the
/// paper's algorithms.
#[derive(Debug)]
pub struct BmcEngine<'d> {
    /// The design as handed in — the reference semantics traces are
    /// validated against.
    design: &'d Design,
    /// The model actually encoded: the original, or an owned
    /// rewrite/fraig-reduced copy of it (identical interface, fewer gates).
    model: Cow<'d, Design>,
    rewrite_stats: Option<RewriteStats>,
    fraig_stats: Option<FraigStats>,
    options: VerifyOptions,
    anchored: Ctx,
    /// The backward check's context; `None` with proofs off under the
    /// bounded schedule.
    floating: Option<StepQuery>,
    /// Per property: deepest bound whose counterexample check is already
    /// UNSAT in the anchored solver. The formula only grows (retired
    /// clauses are redundant), so those answers are monotone and repeated
    /// `check` calls skip them (incremental mode only).
    cleared_depth: HashMap<usize, usize>,
    /// PBA reasons accumulated across every check (they survive the
    /// cleared-bound skipping, which no longer re-solves old bounds).
    latch_reasons: HashSet<usize>,
    memory_reasons: HashSet<usize>,
    /// Per-bound property clauses physically retired after their bound
    /// was refuted (see
    /// [`PipelineOptions::incremental`](crate::PipelineOptions::incremental)).
    prop_clauses_retired: u64,
    /// The governor in force:
    /// [`PipelineOptions::governor`](crate::PipelineOptions::governor)
    /// with the current `check` call's wall-limit deadline min-combined
    /// in. Installed on every context's solver and EMM encoder.
    governor: ResourceGovernor,
    /// Wall time of the preprocessing phases (run once, in `new`).
    rewrite_seconds: f64,
    fraig_seconds: f64,
    /// The last forward witness (see the module docs' "Simulated forward
    /// answers").
    forward: ForwardWitness<'d>,
}

impl<'d> BmcEngine<'d> {
    /// Creates an engine for `design`.
    ///
    /// # Panics
    ///
    /// Panics if the design is malformed or an abstraction mask has the
    /// wrong length.
    ///
    /// # Examples
    ///
    /// Falsifying a counter property (the engine defaults run the full
    /// rewrite → fraig → simplify pipeline):
    ///
    /// ```
    /// use emm_aig::{Design, LatchInit};
    /// use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
    ///
    /// let mut d = Design::new();
    /// let count = d.new_latch_word("count", 4, LatchInit::Zero);
    /// let next = d.aig.inc(&count);
    /// d.set_next_word(&count, &next);
    /// let bad = d.aig.eq_const(&count, 9);
    /// d.add_property("reaches9", bad);
    /// d.check().expect("well-formed");
    ///
    /// let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    /// let run = engine.check(0, 20).expect("no spurious traces");
    /// match run.verdict {
    ///     BmcVerdict::Counterexample(trace) => assert_eq!(trace.depth(), 10),
    ///     other => panic!("expected a counterexample, got {other:?}"),
    /// }
    /// ```
    pub fn new(design: &'d Design, options: VerifyOptions) -> BmcEngine<'d> {
        // Preprocessing pipeline on a private copy: rewrite → fraig (see
        // [`ReducedModel::reduce`] for the ordering and the parallel
        // sweep selection).
        let reduced = ReducedModel::reduce(
            design,
            &options.pipeline.rewrite,
            &options.pipeline.fraig,
            &options.pipeline.governor,
            options.workers,
        );
        Self::from_reduced(reduced, options)
    }

    /// Creates an engine over an already-reduced model, skipping the
    /// in-constructor preprocessing entirely — multi-engine drivers
    /// ([`crate::pba`], the verification server) reduce once with
    /// [`ReducedModel::reduce`] and share the handle across engines.
    /// Traces are still validated against [`ReducedModel::original`].
    ///
    /// # Panics
    ///
    /// Panics if the design is malformed or an abstraction mask has the
    /// wrong length.
    pub fn with_model(reduced: &'d ReducedModel<'_>, options: VerifyOptions) -> BmcEngine<'d> {
        let shallow = ReducedModel {
            original: reduced.original,
            model: Cow::Borrowed(reduced.model()),
            rewrite_stats: reduced.rewrite_stats,
            fraig_stats: reduced.fraig_stats,
            rewrite_seconds: reduced.rewrite_seconds,
            fraig_seconds: reduced.fraig_seconds,
        };
        Self::from_reduced(shallow, options)
    }

    fn from_reduced(reduced: ReducedModel<'d>, mut options: VerifyOptions) -> BmcEngine<'d> {
        if options.pba_discovery
            && matches!(options.pipeline.emm.selectors, SelectorGranularity::None)
        {
            options.pipeline.emm.selectors = SelectorGranularity::PerMemory;
        }
        let design = reduced.original;
        if let Some(a) = &options.abstraction {
            assert_eq!(a.kept_latches.len(), design.num_latches());
            assert_eq!(a.kept_memories.len(), design.memories().len());
        }
        let ReducedModel {
            original: design,
            model,
            rewrite_stats,
            fraig_stats,
            rewrite_seconds,
            fraig_seconds,
        } = reduced;
        let governor = options.pipeline.governor.clone();
        let anchored = Self::make_ctx(&model, &options, &governor, true);
        let floating = (options.proofs || Self::induction(&options))
            .then(|| StepQuery::new(&model, &options, governor.clone()));
        let forward = ForwardWitness::new(design, options.abstraction.as_ref());
        BmcEngine {
            design,
            model,
            rewrite_stats,
            fraig_stats,
            options,
            anchored,
            floating,
            cleared_depth: HashMap::new(),
            latch_reasons: HashSet::new(),
            memory_reasons: HashSet::new(),
            prop_clauses_retired: 0,
            governor,
            rewrite_seconds,
            fraig_seconds,
            forward,
        }
    }

    /// Whether `options` select the k-induction schedule (see the module
    /// docs' "Two schedules").
    fn induction(options: &VerifyOptions) -> bool {
        options.pipeline.proof_engine == ProofEngine::KInduction
    }

    /// Whether the anchored context runs forward termination checks: proofs
    /// on under the bounded schedule.
    fn forward_checks(options: &VerifyOptions) -> bool {
        options.proofs && !Self::induction(options)
    }

    fn make_ctx(
        design: &Design,
        options: &VerifyOptions,
        governor: &ResourceGovernor,
        anchored: bool,
    ) -> Ctx {
        let mut solver = Solver::new();
        solver.set_governor(governor.clone());
        let mut simplify = options.pipeline.simplify.enabled.then(Simplifier::new);
        let unroll_config = UnrollConfig {
            initial_state: anchored,
            latch_selectors: options.pba_discovery && anchored,
            kept_latches: options.abstraction.as_ref().map(|a| a.kept_latches.clone()),
        };
        let kept_latches = unroll_config.kept_latches.clone();
        let unroller = match &mut simplify {
            Some(simp) => {
                let mut sink = simp.attach(&mut solver);
                Unroller::new(design, &mut sink, unroll_config)
            }
            None => Unroller::new(design, &mut solver, unroll_config),
        };
        // EMM shapes for kept memories. The floating context treats every
        // memory as arbitrary-init: an induction window may start anywhere.
        let mut shapes = Vec::new();
        let mut emm_index = Vec::new();
        for (mi, m) in design.memories().iter().enumerate() {
            let kept = options
                .abstraction
                .as_ref()
                .map(|a| a.kept_memories[mi])
                .unwrap_or(true);
            if kept {
                emm_index.push(Some(shapes.len()));
                shapes.push(MemoryShape {
                    addr_width: m.addr_width,
                    data_width: m.data_width,
                    read_ports: m.read_ports.len(),
                    write_ports: m.write_ports.len(),
                    arbitrary_init: !anchored || matches!(m.init, emm_aig::MemInit::Arbitrary),
                });
            } else {
                emm_index.push(None);
            }
        }
        let mut emm = EmmEncoder::new(&shapes, options.pipeline.emm);
        emm.set_governor(governor.clone());
        // The floating context always needs LFP; the anchored one only for
        // the bounded schedule's forward check.
        let lfp = (!anchored || Self::forward_checks(options))
            .then(|| LfpBuilder::new(&mut solver, design.num_latches(), kept_latches.as_deref()));
        let init_reads_materialized = vec![0; shapes.len()];
        Ctx {
            solver,
            unroller,
            emm,
            emm_index,
            lfp,
            simplify,
            init_reads_materialized,
            governor: governor.clone(),
        }
    }

    /// The design under verification (as handed to [`BmcEngine::new`]).
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// The model the engine actually encodes: the original design, or the
    /// reduced copy when [`PipelineOptions::rewrite`](crate::PipelineOptions::rewrite) and/or
    /// [`PipelineOptions::fraig`](crate::PipelineOptions::fraig) are enabled.
    pub fn model(&self) -> &Design {
        &self.model
    }

    /// Counters of the fraig preprocessing pass, when it ran.
    pub fn fraig_stats(&self) -> Option<&FraigStats> {
        self.fraig_stats.as_ref()
    }

    /// Counters of the cut-based rewriting pass, when it ran.
    pub fn rewrite_stats(&self) -> Option<&RewriteStats> {
        self.rewrite_stats.as_ref()
    }

    /// Cumulative EMM constraint statistics of the anchored context.
    pub fn emm_stats(&self) -> emm_core::EmmStats {
        self.anchored.emm.stats()
    }

    /// Counters of the anchored context's simplifying layer, when enabled.
    pub fn simplify_stats(&self) -> Option<SimplifyStats> {
        self.anchored.simplify.as_ref().map(|s| *s.stats())
    }

    /// Raw CDCL statistics of the anchored context's solver (variable and
    /// clause counts reflect what the encoders actually emitted).
    pub fn solver_stats(&self) -> (usize, emm_sat::SolverStats) {
        (
            self.anchored.solver.num_vars(),
            *self.anchored.solver.stats(),
        )
    }

    /// Raw CDCL statistics of the floating context's solver, which answers
    /// the backward termination queries (the k-induction step); `None`
    /// with proofs off under the bounded schedule.
    pub fn floating_solver_stats(&self) -> Option<(usize, SolverStats)> {
        self.floating.as_ref().map(StepQuery::stats)
    }

    /// Backward termination queries (k-induction steps) answered SAT or
    /// UNSAT over the engine's life.
    pub fn step_queries(&self) -> u64 {
        self.floating.as_ref().map_or(0, |f| f.answered)
    }

    /// Backward termination queries (k-induction steps) answered SAT from
    /// the floating bank of random runs instead of by the solver (see the
    /// module docs' "Simulated step answers"), under both schedules, over
    /// the engine's life.
    pub fn backward_simulated(&self) -> u64 {
        self.floating.as_ref().map_or(0, |f| f.bank.simulated)
    }

    /// Forward termination checks answered SAT by simulating the last
    /// forward witness instead of by the solver (see the module docs'
    /// "Simulated forward answers"), over the engine's life.
    pub fn forward_simulated(&self) -> u64 {
        self.forward.simulated
    }

    /// The last forward witness, when there is one: a run of the design as
    /// handed in from its initial state, one frame per entry of
    /// [`Trace::frames`], that is race-free, meets every environment
    /// constraint in every frame and repeats no state under the
    /// loop-free-path rule, so it answers the forward termination check SAT
    /// at every bound below its length. Replay it with [`Trace::start`] and
    /// [`Simulator::step_with_disabled_reads`]; it need not violate its
    /// [`Trace::property`], so [`Trace::validate`] does not apply.
    pub fn forward_witness(&self) -> Option<&Trace> {
        self.forward.run.as_ref().map(|run| &run.trace)
    }

    /// Frames currently unrolled in the anchored context.
    pub fn depth(&self) -> usize {
        self.anchored.unroller.num_frames()
    }

    /// Per-bound property clauses physically retired after their bound was
    /// refuted. These are the only clauses the anchored solver retires, so
    /// in incremental mode this equals its
    /// [`emm_sat::SolverStats::retired_clauses`]. Restart mode rebuilds the
    /// solver at every bound, so there the solver counts only the last
    /// bound's retirements while this total spans every bound.
    pub fn property_clauses_retired(&self) -> u64 {
        self.prop_clauses_retired
    }

    /// Replaces the pipeline governor on the engine and on every live
    /// context (solvers, EMM encoders). This is how a run that
    /// ended in [`BmcVerdict::Unknown`] is resumed: install a governor
    /// with raised (or no) limits and call [`BmcEngine::check`] again —
    /// in incremental mode the cleanly refuted bounds are skipped, not
    /// re-solved. A cancelled or fault-armed governor stays tripped until
    /// replaced (or [`ResourceGovernor::reset_cancellation`] is called).
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.options.pipeline.governor = governor.clone();
        self.governor = governor;
        self.install_governor();
    }

    /// The governor currently in force.
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// Installs the engine's governor on both contexts.
    fn install_governor(&mut self) {
        self.anchored.set_governor(self.governor.clone());
        if let Some(floating) = &mut self.floating {
            floating.set_governor(self.governor.clone());
        }
    }

    /// Continues this engine, built with proofs off under the bounded
    /// schedule, under the k-induction schedule with `governor`: attaches
    /// a floating context. The other options must be the ones a
    /// k-induction engine would be built with, so bounds this engine
    /// already refuted are skipped through the resume contract. The
    /// verification server hands a bounded request's engine on this way
    /// to the k-induction request for the same property.
    pub(crate) fn attach_step(&mut self, governor: ResourceGovernor) {
        debug_assert!(self.floating.is_none(), "the engine has a floating context");
        self.options.pipeline.proof_engine = ProofEngine::KInduction;
        self.floating = Some(StepQuery::new(&self.model, &self.options, governor.clone()));
        self.set_governor(governor);
    }

    /// The [`BmcVerdict::Unknown`] for the current resume state, with the
    /// reason falling back to the governor's own trip cause.
    fn unknown_verdict(&self, prop: usize, reason: Option<ExhaustionReason>) -> BmcVerdict {
        BmcVerdict::Unknown {
            reason: reason
                .or_else(|| self.governor.poll())
                .unwrap_or(ExhaustionReason::Deadline),
            deepest_clean_bound: self.cleared_depth.get(&prop).map(|&d| d as u32),
        }
    }

    /// Extends one context to include frame `k` (shared with
    /// [`StepQuery`]). Polls the context's governor
    /// between frames (each completed unrolling is one
    /// [`FaultSite::Frame`] event) and stops early when it trips;
    /// `Some(reason)` means the depth was **not** reached. A trip between
    /// frames leaves the context clean (no partial frame); a trip inside
    /// the EMM encoder poisons it (see `BmcEngine::check`).
    fn extend_ctx_to(model: &Design, ctx: &mut Ctx, k: usize) -> Option<ExhaustionReason> {
        let Ctx {
            solver,
            unroller,
            emm,
            emm_index,
            lfp,
            simplify,
            init_reads_materialized,
            governor,
        } = ctx;
        while unroller.num_frames() <= k {
            if let Some(reason) = governor.poll() {
                return Some(reason);
            }
            match simplify {
                Some(simp) => {
                    let mut sink = simp.attach(solver);
                    Self::extend_one(model, unroller, emm, emm_index, lfp, &mut sink);
                    // Trace extraction reads literals that may sit
                    // outside every emitted clause under lazy emission;
                    // materialize them so the model constrains them:
                    // initial-state read addresses (they feed the
                    // counterexample memory seeds) and every read
                    // port's enable — including those of memories an
                    // abstraction dropped, whose EMM constraints were
                    // never emitted.
                    for slot in emm_index.iter().flatten() {
                        let done = &mut init_reads_materialized[*slot];
                        let reads = emm.init_reads(*slot);
                        for ir in &reads[*done..] {
                            for &l in &ir.addr {
                                sink.materialize(l);
                            }
                        }
                        *done = reads.len();
                    }
                    let frame = unroller.num_frames() - 1;
                    for m in model.memories() {
                        for rp in &m.read_ports {
                            let en = unroller.lit(frame, rp.en);
                            sink.materialize(en);
                        }
                    }
                    // The LFP model check reads every frame's kept
                    // latches and write enables, and its rows are added
                    // on demand, so nothing else may reference them.
                    if let Some(lfp) = lfp {
                        for l in lfp.frame_lits(frame) {
                            sink.materialize(l);
                        }
                    }
                }
                None => Self::extend_one(model, unroller, emm, emm_index, lfp, solver),
            }
            if emm.interrupted() {
                return Some(governor.poll().unwrap_or(ExhaustionReason::Cancelled));
            }
            governor.note(FaultSite::Frame);
        }
        None
    }

    /// Unrolls one frame, emits its EMM constraints into `sink` and
    /// records its LFP literals.
    fn extend_one(
        model: &Design,
        unroller: &mut Unroller,
        emm: &mut EmmEncoder,
        emm_index: &[Option<usize>],
        lfp: &mut Option<LfpBuilder>,
        sink: &mut dyn CnfSink,
    ) {
        let frame = unroller.extend(model, sink);
        // EMM constraints for kept memories.
        let mut frames = Vec::new();
        for (mi, slot) in emm_index.iter().enumerate() {
            if slot.is_some() {
                frames.push(unroller.memory_frame_lits(model, frame, mi));
            }
        }
        emm.add_frame(sink, &frames);
        if let Some(lfp) = lfp {
            let lits = unroller.latch_lits(model, frame);
            // Write activity of kept memories only: a dropped memory's
            // reads are unconstrained, so it is not state in the abstract
            // model and its writes cannot distinguish frames.
            let mut writes = Vec::new();
            for (mi, slot) in emm_index.iter().enumerate() {
                if slot.is_some() {
                    for wp in &model.memories()[mi].write_ports {
                        writes.push(unroller.lit(frame, wp.en));
                    }
                }
            }
            lfp.add_frame(&lits, &writes);
        }
    }

    /// Base assumptions of a query at `bound` in a context: the selectors
    /// (EMM memory/port selectors and PBA latch selectors) and the guards
    /// of the environment constraints of frames `0..=bound`.
    fn base_assumptions(ctx: &Ctx, bound: usize) -> Vec<Lit> {
        let mut a = ctx.emm.all_active_assumptions();
        a.extend_from_slice(ctx.unroller.latch_selectors());
        a.extend_from_slice(ctx.unroller.constraint_guards(bound));
        a
    }

    /// Checks property `prop` up to `max_depth` (inclusive), following the
    /// loop structure of Fig. 1/Fig. 3, or of k-induction (see the module
    /// docs' "Two schedules"). Calls may name any property and depth in any
    /// order: each query asks exactly the formula of its bound (see
    /// "Queries scoped by bound").
    ///
    /// # Errors
    ///
    /// [`BmcError::PropertyOutOfRange`] if `prop` is not one of the
    /// design's properties; [`BmcError::SpuriousTrace`] if a
    /// counterexample fails re-simulation (an internal bug, surfaced
    /// rather than silently returned).
    pub fn check(&mut self, prop: usize, max_depth: usize) -> Result<BmcRun, BmcError> {
        let available = self.model.properties().len();
        if prop >= available {
            return Err(BmcError::PropertyOutOfRange {
                property: prop,
                available,
            });
        }
        let started = Instant::now();
        let deadline = self.options.pipeline.wall_limit.map(|d| started + d);
        // The governor in force for this call: the configured one with
        // the wall limit min-combined in (the earlier deadline wins).
        self.governor = match deadline {
            Some(dl) => self.options.pipeline.governor.clone().with_deadline(dl),
            None => self.options.pipeline.governor.clone(),
        };
        // A context whose EMM encoder aborted mid-frame is under-
        // constrained (its SAT answers could be spurious), so it is rebuilt
        // before anything is trusted. Every other context carries over: a
        // query at bound `i` asks the bound-`i` formula whatever property
        // or depth the context was unrolled for.
        if self.anchored.emm.interrupted() {
            self.rebuild_anchored();
        }
        if let Some(floating) = self.floating.as_mut().filter(|f| f.poisoned()) {
            floating.rebuild(&self.model);
        }
        // Both contexts take the governor with the per-call deadline to
        // every stage.
        self.install_governor();
        // Encode against the model in force (possibly fraig-reduced);
        // interface structure (properties, latches, inputs, memories) is
        // identical to the original design.
        let call = CheckCall {
            prop,
            bad_bit: self.model.properties()[prop].bad,
            max_depth,
            budget: self
                .options
                .pipeline
                .solve_budget
                .clone()
                .with_earlier_deadline(deadline),
            // A bound refuted in an earlier `check` call stays refuted —
            // the anchored formula only grows (retired clauses are
            // redundant) — so its counterexample query is skipped.
            cleared: self
                .options
                .pipeline
                .incremental
                .then(|| self.cleared_depth.get(&prop).copied())
                .flatten(),
        };
        let mut phase_seconds = PhaseSeconds {
            rewrite: self.rewrite_seconds,
            fraig: self.fraig_seconds,
            ..PhaseSeconds::default()
        };
        let mut per_bound_seconds = Vec::new();
        let mut ended = None;
        for i in 0..=max_depth {
            let bound_started = Instant::now();
            let verdict = self.bound(&call, i, &mut phase_seconds)?;
            per_bound_seconds.push(bound_started.elapsed().as_secs_f64());
            if let Some(verdict) = verdict {
                ended = Some((verdict, i));
                break;
            }
        }
        let (verdict, depth) = ended.unwrap_or((BmcVerdict::BoundReached, max_depth));
        let mut latch_reasons: Vec<usize> = self.latch_reasons.iter().copied().collect();
        latch_reasons.sort_unstable();
        let mut memory_reasons: Vec<usize> = self.memory_reasons.iter().copied().collect();
        memory_reasons.sort_unstable();
        Ok(BmcRun {
            verdict,
            depth_reached: depth,
            elapsed: started.elapsed(),
            per_bound_seconds,
            latch_reasons,
            memory_reasons,
            phase_seconds,
        })
    }

    /// Bound `i` of a `check` call (see the module docs' "One bound
    /// loop"). Commits each answer as it arrives and returns
    /// `Some(verdict)` when one ends the run.
    fn bound(
        &mut self,
        call: &CheckCall,
        i: usize,
        phases: &mut PhaseSeconds,
    ) -> Result<Option<BmcVerdict>, BmcError> {
        let prop = call.prop;
        if let Some(reason) = self.governor.poll() {
            return Ok(Some(self.unknown_verdict(prop, Some(reason))));
        }
        if !self.options.pipeline.incremental && self.anchored.unroller.num_frames() > 0 {
            self.rebuild_anchored();
            if let Some(floating) = &mut self.floating {
                floating.rebuild(&self.model);
            }
        }
        // The forward query is property-independent. A context unrolled
        // past `i` asked it at `i` in an earlier call and got SAT, since
        // UNSAT or `Unknown` ends the run at its bound. That answer
        // stands, so the query is skipped as a cached one.
        let forward =
            Self::forward_checks(&self.options) && self.anchored.unroller.num_frames() <= i + 1;
        let started = Instant::now();
        let encode = Self::extend_ctx_to(&self.model, &mut self.anchored, i);
        phases.encode += started.elapsed().as_secs_f64();
        if let Some(reason) = encode {
            return Ok(Some(self.unknown_verdict(prop, Some(reason))));
        }
        self.anchored.solver.set_budget(call.budget.clone());
        if forward {
            match self.forward_check(prop, i, phases) {
                SolveResult::Sat => {}
                SolveResult::Unsat => {
                    return Ok(Some(BmcVerdict::Proof {
                        kind: ProofKind::ForwardDiameter,
                        depth: i,
                    }))
                }
                SolveResult::Unknown => {
                    let reason = self.anchored.solver.exhaustion_reason();
                    return Ok(Some(self.unknown_verdict(prop, reason)));
                }
            }
        }
        let induction = Self::induction(&self.options);
        if !induction {
            if let Some(verdict) = self.step_check(call, i, phases) {
                return Ok(Some(verdict));
            }
        }
        if call.cleared.is_none_or(|d| i > d) {
            if let Some(verdict) = self.counterexample(call, i, phases)? {
                return Ok(Some(verdict));
            }
        }
        if induction {
            return Ok(self.step_check(call, i, phases));
        }
        Ok(None)
    }

    /// The forward termination check at bound `i`: answered SAT by the
    /// forward witness when its run covers the bound, by the solver
    /// otherwise, and a solver SAT answer refreshes that run.
    fn forward_check(&mut self, prop: usize, i: usize, phases: &mut PhaseSeconds) -> SolveResult {
        let ctx = &mut self.anchored;
        let started = Instant::now();
        let simulated = self.forward.answers(i);
        if simulated {
            // Leave the variable order as a solved query would (see the
            // module docs' "Simulated forward answers").
            ctx.solver.requeue_by_index();
        }
        phases.solve += started.elapsed().as_secs_f64();
        if simulated {
            return SolveResult::Sat;
        }
        let assumptions = Self::base_assumptions(ctx, i);
        let result = ctx.solve_lfp(i, &assumptions, &mut phases.encode, &mut phases.solve);
        if result == SolveResult::Sat {
            let refresh = Instant::now();
            self.forward
                .refresh(Self::extract_trace(&self.model, ctx, prop, i));
            phases.encode += refresh.elapsed().as_secs_f64();
        }
        result
    }

    /// The backward check (the k-induction step) at bound `i` under the
    /// call's budget, when the engine has a floating context, and the
    /// verdict its answer gives if it ends the run: a trip, a proof, or an
    /// `Unknown`.
    fn step_check(
        &mut self,
        call: &CheckCall,
        i: usize,
        phases: &mut PhaseSeconds,
    ) -> Option<BmcVerdict> {
        let prop = call.prop;
        let answer =
            self.floating
                .as_mut()?
                .step(&self.model, prop, i, call.max_depth, call.budget.clone());
        phases.encode += answer.encode_seconds;
        phases.solve += answer.solve_seconds;
        if let Some(reason) = answer.encode {
            return Some(self.unknown_verdict(prop, Some(reason)));
        }
        match answer.result? {
            SolveResult::Unsat if Self::induction(&self.options) => {
                Some(BmcVerdict::Proved { k: i })
            }
            SolveResult::Unsat => Some(BmcVerdict::Proof {
                kind: ProofKind::BackwardInduction,
                depth: i,
            }),
            SolveResult::Unknown => Some(self.unknown_verdict(prop, answer.exhaustion)),
            SolveResult::Sat => None,
        }
    }

    /// The counterexample check at bound `i`: a validated trace, or
    /// `Unknown`, or (UNSAT) the bound cleared with its PBA reasons. A
    /// group that did not answer SAT is retired at once.
    fn counterexample(
        &mut self,
        call: &CheckCall,
        i: usize,
        phases: &mut PhaseSeconds,
    ) -> Result<Option<BmcVerdict>, BmcError> {
        let ctx = &mut self.anchored;
        let bad_i = ctx.unroller.lit(i, call.bad_bit);
        let bad_i = ctx.assumption(bad_i);
        // The bound's property clause lives in an activation group of its
        // own: enforced through the group assumption while this bound is
        // under test, physically retired the moment the bound is refuted
        // — the solver's clause arena does not accumulate one dead
        // property clause per bound the way satisfied-but-resident
        // clauses would.
        let group = ctx.solver.new_activation_group();
        ctx.solver.add_clause_in_group(group, &[bad_i]);
        let mut assumptions = Self::base_assumptions(ctx, i);
        assumptions.push(group);
        // Searched from the default phase, leaving the forward check's
        // saved phases for the next bound (see the module docs' "Phase
        // policy").
        let started = Instant::now();
        let result = ctx.solver.solve_with_default_phases(&assumptions);
        phases.solve += started.elapsed().as_secs_f64();
        if result == SolveResult::Sat {
            let trace = Self::extract_trace(&self.model, ctx, call.prop, i);
            if self.options.validate_traces && self.options.abstraction.is_none() {
                trace
                    .validate(self.design)
                    .map_err(BmcError::SpuriousTrace)?;
            }
            return Ok(Some(BmcVerdict::Counterexample(trace)));
        }
        let exhaustion = ctx.solver.exhaustion_reason();
        if result == SolveResult::Unsat && self.options.pba_discovery {
            let (latches, memories) = Self::reasons(ctx);
            self.latch_reasons.extend(latches);
            self.memory_reasons.extend(memories);
        }
        self.prop_clauses_retired += ctx.solver.retire_group(group) as u64;
        if result == SolveResult::Unknown {
            // The bound was *not* refuted: `cleared_depth` stays, so a
            // resumed check re-runs this bound.
            return Ok(Some(self.unknown_verdict(call.prop, exhaustion)));
        }
        let d = self.cleared_depth.entry(call.prop).or_insert(i);
        *d = (*d).max(i);
        Ok(None)
    }

    /// Replaces `ctx` with an empty context of the same kind, keeping its
    /// governor (fault count included).
    fn remake(model: &Design, options: &VerifyOptions, ctx: &mut Ctx, anchored: bool) {
        *ctx = Self::make_ctx(model, options, &ctx.governor, anchored);
    }

    /// Drops and recreates the anchored context and forgets its cleared
    /// bounds, keeping its governor.
    fn rebuild_anchored(&mut self) {
        Self::remake(&self.model, &self.options, &mut self.anchored, true);
        self.cleared_depth.clear();
    }

    /// Latch/memory reasons from the failed assumptions of the most recent
    /// UNSAT answer of the anchored solver (`Get_Latch_Reasons(U_Core)`):
    /// latch indices and design memory indices.
    fn reasons(ctx: &Ctx) -> (Vec<usize>, Vec<usize>) {
        let failed: HashSet<Lit> = ctx.solver.failed_assumptions().iter().copied().collect();
        let latches = (ctx.unroller.latch_selectors().iter().enumerate())
            .filter(|(_, sel)| failed.contains(sel))
            .map(|(li, _)| li)
            .collect();
        let memories = (ctx.emm.selectors().into_iter())
            .filter(|(_, _, sel)| failed.contains(sel))
            // Map encoder index back to design memory index.
            .filter_map(|(enc_idx, _, _)| ctx.emm_index.iter().position(|s| *s == Some(enc_idx)))
            .collect();
        (latches, memories)
    }

    /// Builds a [`Trace`] of frames `0..=depth` from the model of `ctx`'s
    /// last SAT answer: a counterexample to `prop`, or the run behind a
    /// forward check.
    ///
    /// The trace is expressed over the *interface* (free inputs, latches,
    /// memories), which the fraig rewrite keeps exactly, so it replays
    /// on the original design as-is.
    fn extract_trace(design: &Design, ctx: &Ctx, prop: usize, depth: usize) -> Trace {
        let solver = &ctx.solver;
        let model = |l: Lit| solver.model_value(l).unwrap_or(false);

        let initial_latches: Vec<bool> = ctx
            .unroller
            .latch_lits(design, 0)
            .iter()
            .map(|&l| model(l))
            .collect();

        let mut frames = Vec::with_capacity(depth + 1);
        let mut disabled_reads = Vec::with_capacity(depth + 1);
        for k in 0..=depth {
            let inputs: Vec<bool> = design
                .free_inputs()
                .iter()
                .map(|&idx| {
                    let bit = design.input_bit(idx as usize);
                    model(ctx.unroller.lit(k, bit))
                })
                .collect();
            frames.push(inputs);
            // Disabled-read values per memory/port.
            let mut per_mem = Vec::with_capacity(design.memories().len());
            for m in design.memories() {
                let mut per_port = Vec::with_capacity(m.read_ports.len());
                for rp in &m.read_ports {
                    let en = model(ctx.unroller.lit(k, rp.en));
                    let value = if en {
                        0
                    } else {
                        rp.data
                            .bits()
                            .iter()
                            .enumerate()
                            .map(|(b, &bit)| (model(ctx.unroller.lit(k, bit)) as u64) << b)
                            .sum()
                    };
                    per_port.push(value);
                }
                per_mem.push(per_port);
            }
            disabled_reads.push(per_mem);
        }

        // Memory seeds from the EMM initial reads: any access whose N
        // condition held read the initial contents at its address.
        let mut memory_seeds: Vec<Vec<(u64, u64)>> = vec![Vec::new(); design.memories().len()];
        for (mi, slot) in ctx.emm_index.iter().enumerate() {
            let Some(enc_idx) = slot else { continue };
            for ir in ctx.emm.init_reads(*enc_idx) {
                if model(ir.n) {
                    let addr: u64 = ir
                        .addr
                        .iter()
                        .enumerate()
                        .map(|(b, &l)| (model(l) as u64) << b)
                        .sum();
                    let value: u64 =
                        ir.v.iter()
                            .enumerate()
                            .map(|(b, &l)| (model(l) as u64) << b)
                            .sum();
                    memory_seeds[mi].push((addr, value));
                }
            }
        }
        for seeds in &mut memory_seeds {
            seeds.sort_unstable();
            seeds.dedup();
        }

        Trace {
            initial_latches,
            frames,
            memory_seeds,
            disabled_reads,
            property: prop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emm_aig::LatchInit;
    use emm_designs::gen::{random_design, GenConfig};
    use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};

    /// A 6-bit `count` that climbs to 29 and then advances only on input
    /// `go`, `bad` at `count == bad_at`, beside a mod-5 counter on input
    /// `en` that only the simple-path constraints see (the engine
    /// integration tests' backward-proved family).
    fn parked_counter_with_idle_state(bad_at: u64) -> Design {
        let mut d = Design::new();
        let count = d.new_latch_word("count", 6, LatchInit::Zero);
        let inc = d.aig.inc(&count);
        let parked = d.aig.eq_const(&count, 29);
        let thirty = d.aig.const_word(30, 6);
        let reachable = d.aig.ult(&count, &thirty);
        let go = d.new_input("go");
        let climb = d.aig.mux_word(parked, &count, &inc);
        let stall = d.aig.mux_word(go, &inc, &count);
        let next = d.aig.mux_word(reachable, &climb, &stall);
        d.set_next_word(&count, &next);
        let c = d.new_latch_word("c", 3, LatchInit::Zero);
        let c_inc = d.aig.inc(&c);
        let wrap = d.aig.eq_const(&c, 4);
        let zero = d.aig.const_word(0, 3);
        let c_step = d.aig.mux_word(wrap, &zero, &c_inc);
        let en = d.new_input("en");
        let c_next = d.aig.mux_word(en, &c_step, &c);
        d.set_next_word(&c, &c_next);
        let bad = d.aig.eq_const(&count, bad_at);
        d.add_property("p", bad);
        d.check().expect("valid");
        d
    }

    fn quicksort(n: usize, bug: Bug) -> QuickSort {
        QuickSort::new(QuickSortConfig {
            n,
            addr_width: 6,
            data_width: 4,
            bug,
        })
    }

    /// Checks `prop` of `d` to `max_depth` under each schedule, then asks
    /// a fresh step context the solver's answer at every bound the bank
    /// answered: each must be SAT. Returns the bank answers per schedule.
    fn bank_answers_are_sat(d: &Design, prop: usize, max_depth: usize, label: &str) -> [u64; 2] {
        [ProofEngine::Bounded, ProofEngine::KInduction].map(|schedule| {
            let options = VerifyOptions::default().proofs(true).proof_engine(schedule);
            let mut engine = BmcEngine::new(d, options.clone());
            let run = engine.check(prop, max_depth).expect("run");
            let floating = engine.floating.as_ref().expect("a floating context");
            let banked = floating.bank.props.get(&prop).and_then(|b| b.depth);
            let asked = run.depth_reached.min(max_depth);
            let covered = banked.map_or(0, |depth| depth.min(asked) + 1);
            let mut fresh = StepQuery::new(engine.model(), &options, ResourceGovernor::unlimited());
            for k in 0..covered {
                let answer = fresh.query(engine.model(), prop, k, Budget::default());
                assert_eq!(
                    answer.result,
                    Some(SolveResult::Sat),
                    "{label}, {schedule:?}: the bank answered bound {k}"
                );
            }
            let simulated = engine.backward_simulated();
            assert!(
                simulated <= covered as u64,
                "{label}, {schedule:?}: {simulated} bank answers, {covered} bounds covered"
            );
            simulated
        })
    }

    /// Every step query the floating bank answers is one the solver
    /// answers SAT, under both schedules.
    #[test]
    fn bank_answers_only_satisfiable_step_queries() {
        for p2 in [false, true] {
            let qs = quicksort(3, Bug::None);
            let prop = if p2 { qs.p2.0 } else { qs.p1.0 } as usize;
            let simulated =
                bank_answers_are_sat(&qs.design, prop, 30, &format!("quicksort p2={p2}"));
            assert!(simulated.iter().all(|&s| s >= 25), "p2={p2}: {simulated:?}");
        }
        for seed in 0..3 {
            let d = random_design(&GenConfig::deep(), seed);
            for prop in 0..d.properties().len() {
                bank_answers_are_sat(&d, prop, 10, &format!("deep seed {seed} p{prop}"));
            }
        }
        for bad_at in [32, 34] {
            let d = parked_counter_with_idle_state(bad_at);
            let simulated = bank_answers_are_sat(&d, 0, 60, &format!("parked {bad_at}"));
            assert!(
                simulated.iter().all(|&s| s > 0),
                "parked {bad_at}: {simulated:?}"
            );
        }
    }

    /// The committed bank seed is not a lucky one: from each of 8 other
    /// seeds a full allowance of batches reaches frame 30 on the Table 1/2
    /// quicksort properties and on both bug-hunt designs.
    #[test]
    fn bank_reaches_frame_30_from_other_seeds() {
        let designs = [
            (quicksort(3, Bug::None), false),
            (quicksort(3, Bug::None), true),
            (quicksort(4, Bug::InvertedComparison), false),
            (quicksort(4, Bug::MissingEmptyCheck), true),
        ];
        for (qs, p2) in &designs {
            let prop = if *p2 { qs.p2.0 } else { qs.p1.0 } as usize;
            for seed in 1..=8 {
                let mut bank = FloatingBank::new(&qs.design, None);
                bank.seed = draw(BANK_SEED, &[seed]);
                bank.props.insert(
                    prop,
                    Banked {
                        depth: None,
                        drawn: 0,
                        allowance: BANK_ALLOWANCE,
                    },
                );
                let governor = ResourceGovernor::unlimited();
                assert!(
                    bank.covers(&qs.design, prop, 30, qs.cycle_bound(), &governor),
                    "n={} p2={p2} seed {seed}: depth {:?} after {} batches",
                    qs.config.n,
                    bank.props[&prop].depth,
                    bank.props[&prop].drawn,
                );
            }
        }
    }
}
