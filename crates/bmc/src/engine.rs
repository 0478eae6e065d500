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
//!
//! Both contexts follow the **incremental solver lifecycle** (see the
//! "Solver lifecycle" section of `docs/ARCHITECTURE.md`): one long-lived
//! solver per context across the whole bound loop, per-bound property
//! clauses under activation groups retired on refutation, and cleared
//! counterexample bounds skipped on repeated [`BmcEngine::check`] calls.
//! The restart-from-scratch baseline is kept behind
//! [`PipelineOptions::incremental`](crate::PipelineOptions::incremental)` = false`.
//!
//! The engine configurations map to the paper's algorithms:
//!
//! | Paper | Configuration |
//! |---|---|
//! | BMC-1 (Fig. 1) | a design without memories (e.g. after [`emm_core::explicit_model`]), `proofs: true` |
//! | BMC-2 (Fig. 2) | memories + EMM, `proofs: false` |
//! | BMC-3 (Fig. 3) | memories + EMM, `proofs: true`, optionally PBA |
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
//! level); SAT sweeping of simulation-signature-equal cones is available
//! as an opt-in pass (`SimplifyConfig::sweeping`). Literals
//! handed to the solver as *assumptions* bypass `add_clause`, so the
//! engine materializes them first (see `Ctx::assumption`). Disable or
//! tune the layer through
//! [`PipelineOptions::simplify`](crate::PipelineOptions::simplify); its
//! effect is observable via [`BmcEngine::simplify_stats`] and
//! [`BmcEngine::solver_stats`].

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use emm_aig::{Design, FraigStats, RewriteStats, Trace};
use emm_core::{EmmEncoder, MemoryShape, SelectorGranularity};
use emm_sat::{
    CnfSink, ExhaustionReason, FaultSite, Lit, ResourceGovernor, Simplifier, SimplifyStats,
    SolveResult, Solver,
};

use crate::lfp::LfpBuilder;
use crate::model::ReducedModel;
use crate::options::VerifyOptions;
use crate::unroll::{UnrollConfig, Unroller};

/// A frozen abstraction (from PBA discovery or elsewhere).
#[derive(Clone, Debug)]
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
    /// by the [`KInduction`](crate::KInduction) engine: the base case is
    /// counterexample-free up to `k` and the simple-path inductive step
    /// at depth `k` is unsatisfiable. Distinct from [`BmcVerdict::Proof`]
    /// (`proof@k`), which records a bounded termination criterion inside
    /// the bounded engine's depth budget.
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
/// over the reported `check` call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Cut-based AIG rewriting ([`PipelineOptions::rewrite`](crate::PipelineOptions::rewrite)).
    pub rewrite: f64,
    /// Fraig reduction ([`PipelineOptions::fraig`](crate::PipelineOptions::fraig)).
    pub fraig: f64,
    /// Frame unrolling, EMM constraint emission, and the model checks
    /// and pair rows of on-demand LFP refinement.
    pub encode: f64,
    /// SAT solving (all termination and counterexample queries).
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
    /// Wall-clock seconds per processed bound (encoding plus every solver
    /// call at that bound), `per_bound_seconds[k]` for bound `k`. The
    /// bench harness's `incremental` mode plots these against the
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
}

impl std::fmt::Display for BmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BmcError::SpuriousTrace(msg) => write!(f, "spurious counterexample trace: {msg}"),
        }
    }
}

impl std::error::Error for BmcError {}

/// One SAT context (solver + unroller + EMM + LFP + simplifier). Shared
/// crate-internally with the [`crate::KInduction`] engine, whose step
/// context is exactly the bounded engine's floating context.
pub(crate) struct Ctx {
    pub(crate) solver: Solver,
    pub(crate) unroller: Unroller,
    pub(crate) emm: EmmEncoder,
    /// Maps design memory index -> EMM encoder index (kept memories only).
    pub(crate) emm_index: Vec<Option<usize>>,
    pub(crate) lfp: Option<LfpBuilder>,
    /// Cross-frame simplification state, when enabled. All clause traffic
    /// from the unroller / EMM / LFP flows through `simplify.attach(solver)`
    /// so gates are interned, swept, and lazily emitted.
    pub(crate) simplify: Option<Simplifier>,
    /// Per-EMM-slot count of init reads whose address cones have already
    /// been materialized (so `ensure_depth` only touches new ones).
    init_reads_materialized: Vec<usize>,
}

impl Ctx {
    /// Prepares `lit` for use as a solve assumption: resolves sweep
    /// substitutions and emits any still-lazy defining clauses.
    pub(crate) fn assumption(&mut self, lit: Lit) -> Lit {
        match &mut self.simplify {
            Some(simp) => simp.attach(&mut self.solver).materialize(lit),
            None => lit,
        }
    }

    /// Solves under `assumptions` with `LFP` enforced, adding pair rows
    /// on demand (see [`LfpBuilder::solve`]).
    pub(crate) fn solve_lfp(
        &mut self,
        assumptions: &[Lit],
        encode_seconds: &mut f64,
        solve_seconds: &mut f64,
    ) -> SolveResult {
        self.lfp.as_mut().expect("proofs on").solve(
            &mut self.solver,
            self.simplify.as_mut(),
            assumptions,
            encode_seconds,
            solve_seconds,
        )
    }
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
    floating: Option<Ctx>,
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
    /// The property the termination (proof) queries have run for. Those
    /// queries are bound-exact (see `process_bound`), so switching a
    /// proof-mode engine to a different property rebuilds the contexts —
    /// otherwise the new property's backward-induction checks could never
    /// run at the already-unrolled bounds and proofs would be missed.
    proofs_prop: Option<usize>,
    /// The governor in force:
    /// [`PipelineOptions::governor`](crate::PipelineOptions::governor)
    /// with the current `check` call's wall-limit deadline min-combined
    /// in. Installed on every context's solver, sweeper and EMM encoder.
    governor: ResourceGovernor,
    /// Wall time of the preprocessing phases (run once, in `new`).
    rewrite_seconds: f64,
    fraig_seconds: f64,
    /// Encode/solve wall time accumulated over the current `check` call.
    encode_seconds: f64,
    solve_seconds: f64,
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
        let floating = options
            .proofs
            .then(|| Self::make_ctx(&model, &options, &governor, false));
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
            proofs_prop: None,
            governor,
            rewrite_seconds,
            fraig_seconds,
            encode_seconds: 0.0,
            solve_seconds: 0.0,
        }
    }

    pub(crate) fn make_ctx(
        design: &Design,
        options: &VerifyOptions,
        governor: &ResourceGovernor,
        anchored: bool,
    ) -> Ctx {
        let mut solver = Solver::new();
        solver.set_governor(governor.clone());
        let mut simplify = options.pipeline.simplify.enabled.then(|| {
            let mut s = Simplifier::new(options.pipeline.simplify);
            s.set_governor(governor.clone());
            s
        });
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
        let lfp = options
            .proofs
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

    /// Frames currently unrolled in the anchored context.
    pub fn depth(&self) -> usize {
        self.anchored.unroller.num_frames()
    }

    /// Per-bound property clauses physically retired after their bound was
    /// refuted. Together with the sweep-retired Tseitin clauses counted in
    /// [`SimplifyStats::clauses_retired`](emm_sat::SimplifyStats) this
    /// accounts for every retirement the anchored solver reports in
    /// [`emm_sat::SolverStats::retired_clauses`].
    pub fn property_clauses_retired(&self) -> u64 {
        self.prop_clauses_retired
    }

    /// Replaces the pipeline governor on the engine and on every live
    /// context (solvers, sweepers, EMM encoders). This is how a run that
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

    /// Installs `self.governor` on both contexts' solver, sweeper and
    /// EMM encoder.
    fn install_governor(&mut self) {
        for ctx in std::iter::once(&mut self.anchored).chain(self.floating.as_mut()) {
            ctx.solver.set_governor(self.governor.clone());
            if let Some(simp) = &mut ctx.simplify {
                simp.set_governor(self.governor.clone());
            }
            ctx.emm.set_governor(self.governor.clone());
        }
    }

    /// Whether a context's EMM encoder aborted emission mid-frame: its
    /// most recent frame is under-constrained, so its satisfiable answers
    /// can no longer be trusted and the contexts must be rebuilt before
    /// the next query.
    fn poisoned(&self) -> bool {
        self.anchored.emm.interrupted()
            || self.floating.as_ref().is_some_and(|f| f.emm.interrupted())
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

    /// Extends every context to include frame `k`. Polls the governor
    /// between frames (each completed unrolling is one
    /// [`FaultSite::Frame`] event) and stops early when it trips;
    /// `Some(reason)` means the depth was **not** reached. A trip between
    /// frames leaves the contexts clean (no partial frame); a trip inside
    /// the EMM encoder poisons them (see [`BmcEngine::poisoned`]).
    fn ensure_depth(&mut self, k: usize) -> Option<ExhaustionReason> {
        let model: &Design = &self.model;
        let governor = self.governor.clone();
        for ctx in std::iter::once(&mut self.anchored).chain(self.floating.as_mut()) {
            if let Some(reason) = Self::extend_ctx_to(model, ctx, k, &governor) {
                return Some(reason);
            }
        }
        None
    }

    /// Extends one context to include frame `k` (shared with the
    /// k-induction engine's step context — see [`BmcEngine::ensure_depth`]
    /// for the governor and poisoning semantics).
    pub(crate) fn extend_ctx_to(
        model: &Design,
        ctx: &mut Ctx,
        k: usize,
        governor: &ResourceGovernor,
    ) -> Option<ExhaustionReason> {
        let Ctx {
            solver,
            unroller,
            emm,
            emm_index,
            lfp,
            simplify,
            init_reads_materialized,
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

    /// Base assumptions activating selectors (EMM memory/port selectors and
    /// PBA latch selectors) in a context.
    pub(crate) fn base_assumptions(ctx: &Ctx) -> Vec<Lit> {
        let mut a = ctx.emm.all_active_assumptions();
        a.extend_from_slice(ctx.unroller.latch_selectors());
        a
    }

    /// Checks property `prop` up to `max_depth` (inclusive), following the
    /// loop structure of Fig. 1/Fig. 3.
    ///
    /// # Errors
    ///
    /// [`BmcError::SpuriousTrace`] if a counterexample fails re-simulation
    /// (an internal bug, surfaced rather than silently returned).
    pub fn check(&mut self, prop: usize, max_depth: usize) -> Result<BmcRun, BmcError> {
        let started = Instant::now();
        let deadline = self.options.pipeline.wall_limit.map(|d| started + d);
        // The governor in force for this call: the configured one with
        // the wall limit min-combined in (the earlier deadline wins).
        self.governor = match deadline {
            Some(dl) => self.options.pipeline.governor.clone().with_deadline(dl),
            None => self.options.pipeline.governor.clone(),
        };
        self.encode_seconds = 0.0;
        self.solve_seconds = 0.0;
        // A context whose EMM encoder aborted mid-frame is under-
        // constrained (its SAT answers could be spurious); rebuild it
        // before trusting anything. Otherwise just re-install the
        // governor so the per-call deadline reaches every stage.
        if self.poisoned() {
            self.rebuild_contexts();
        } else {
            self.install_governor();
        }
        // Encode against the model in force (possibly fraig-reduced);
        // interface structure (properties, latches, inputs, memories) is
        // identical to the original design.
        let bad_bit = self.model.properties()[prop].bad;
        let mut per_bound: Vec<f64> = Vec::new();

        if self.options.proofs {
            // Termination queries are bound-exact, so a proof-mode engine
            // reused for a *different* property starts its bound loop over
            // on fresh contexts (the forward queries it ran for the old
            // property say nothing about this one's backward inductions).
            if self.proofs_prop.is_some_and(|p| p != prop)
                && self.anchored.unroller.num_frames() > 0
            {
                self.rebuild_contexts();
            }
            self.proofs_prop = Some(prop);
        }

        for i in 0..=max_depth {
            let bound_started = Instant::now();
            if let Some(reason) = self.governor.poll() {
                let v = self.unknown_verdict(prop, Some(reason));
                return self.finish(v, i, started, per_bound);
            }
            if !self.options.pipeline.incremental && self.anchored.unroller.num_frames() > 0 {
                self.rebuild_contexts();
            }
            let encode_started = Instant::now();
            let encode_outcome = self.ensure_depth(i);
            self.encode_seconds += encode_started.elapsed().as_secs_f64();
            if let Some(reason) = encode_outcome {
                let v = self.unknown_verdict(prop, Some(reason));
                return self.finish(v, i, started, per_bound);
            }
            self.apply_budget(deadline);
            let outcome = self.process_bound(prop, bad_bit, i)?;
            per_bound.push(bound_started.elapsed().as_secs_f64());
            if let Some(verdict) = outcome {
                return self.finish(verdict, i, started, per_bound);
            }
        }
        self.finish(BmcVerdict::BoundReached, max_depth, started, per_bound)
    }

    /// Runs every solver query of bound `i`; `Some(verdict)` ends the run.
    fn process_bound(
        &mut self,
        prop: usize,
        bad_bit: emm_aig::Bit,
        i: usize,
    ) -> Result<Option<BmcVerdict>, BmcError> {
        // The termination queries are *bound-exact*: `LFP_i` is "frames
        // 0..=i are pairwise distinct", and the LFP query enforces
        // distinctness over every frame unrolled so far. On a
        // repeated `check` call the contexts may already be unrolled past
        // `i`; re-running the bound-`i` query then would assume LFP over
        // the *deeper* unrolling and could report a spurious proof (e.g.
        // an absorbing bad state cannot extend to more distinct frames).
        // Those bounds already ran their termination checks at the exact
        // depth in the earlier call (and found nothing, or we would not be
        // here), so they are skipped, not re-approximated.
        let bound_exact = self.anchored.unroller.num_frames() == i + 1;
        if self.options.proofs && bound_exact {
            // Forward termination: SAT(I ∧ LFP_i ∧ C_i).
            let assumptions = Self::base_assumptions(&self.anchored);
            let forward = self.anchored.solve_lfp(
                &assumptions,
                &mut self.encode_seconds,
                &mut self.solve_seconds,
            );
            match forward {
                SolveResult::Unsat => {
                    return Ok(Some(BmcVerdict::Proof {
                        kind: ProofKind::ForwardDiameter,
                        depth: i,
                    }));
                }
                SolveResult::Unknown => {
                    let reason = self.anchored.solver.exhaustion_reason();
                    return Ok(Some(self.unknown_verdict(prop, reason)));
                }
                SolveResult::Sat => {}
            }
            // Backward termination: SAT(LFP_i ∧ ¬P_i ∧ CP_i ∧ C_i).
            let floating = self.floating.as_mut().expect("proofs on");
            let mut assumptions = Self::base_assumptions(floating);
            for j in 0..i {
                let bad_j = floating.unroller.lit(j, bad_bit);
                assumptions.push(floating.assumption(!bad_j));
            }
            let bad_i = floating.unroller.lit(i, bad_bit);
            let bad_i = floating.assumption(bad_i);
            assumptions.push(bad_i);
            let backward = floating.solve_lfp(
                &assumptions,
                &mut self.encode_seconds,
                &mut self.solve_seconds,
            );
            match backward {
                SolveResult::Unsat => {
                    return Ok(Some(BmcVerdict::Proof {
                        kind: ProofKind::BackwardInduction,
                        depth: i,
                    }));
                }
                SolveResult::Unknown => {
                    let reason = self
                        .floating
                        .as_ref()
                        .expect("proofs on")
                        .solver
                        .exhaustion_reason();
                    return Ok(Some(self.unknown_verdict(prop, reason)));
                }
                SolveResult::Sat => {}
            }
        }

        // Counterexample check: SAT(I ∧ ¬P_i ∧ C_i). A bound refuted in an
        // earlier `check` call stays refuted — the anchored formula only
        // grows (retired clauses are redundant) — so it is skipped.
        if self.options.pipeline.incremental
            && self.cleared_depth.get(&prop).is_some_and(|&d| i <= d)
        {
            return Ok(None);
        }
        let bad_i = self.anchored.unroller.lit(i, bad_bit);
        let bad_i = self.anchored.assumption(bad_i);
        // The bound's property clause lives in an activation group of its
        // own: enforced through the group assumption while this bound is
        // under test, physically retired the moment the bound is refuted —
        // the solver's clause arena does not accumulate one dead property
        // clause per bound the way satisfied-but-resident clauses would.
        let group = self.anchored.solver.new_activation_group();
        self.anchored.solver.add_clause_in_group(group, &[bad_i]);
        let mut assumptions = Self::base_assumptions(&self.anchored);
        assumptions.push(group);
        let solve_started = Instant::now();
        let result = self.anchored.solver.solve_with(&assumptions);
        self.solve_seconds += solve_started.elapsed().as_secs_f64();
        match result {
            SolveResult::Sat => {
                let trace = self.extract_trace(prop, i);
                if self.options.validate_traces && self.options.abstraction.is_none() {
                    trace
                        .validate(self.design)
                        .map_err(BmcError::SpuriousTrace)?;
                }
                Ok(Some(BmcVerdict::Counterexample(trace)))
            }
            SolveResult::Unknown => {
                // The bound was *not* refuted: leave `cleared_depth`
                // alone (a resumed check re-runs this bound) but retire
                // the bound's property clause so the abandoned group
                // does not linger in the clause arena.
                self.prop_clauses_retired += self.anchored.solver.retire_group(group) as u64;
                let reason = self.anchored.solver.exhaustion_reason();
                Ok(Some(self.unknown_verdict(prop, reason)))
            }
            SolveResult::Unsat => {
                if self.options.pba_discovery {
                    self.collect_reasons();
                }
                self.prop_clauses_retired += self.anchored.solver.retire_group(group) as u64;
                let d = self.cleared_depth.entry(prop).or_insert(i);
                *d = (*d).max(i);
                Ok(None)
            }
        }
    }

    /// Drops and recreates every context: fresh solvers, unrollers, EMM
    /// and LFP state (the restart-from-scratch baseline of
    /// [`PipelineOptions::incremental`](crate::PipelineOptions::incremental)` = false`).
    fn rebuild_contexts(&mut self) {
        self.anchored = Self::make_ctx(&self.model, &self.options, &self.governor, true);
        self.floating = self
            .options
            .proofs
            .then(|| Self::make_ctx(&self.model, &self.options, &self.governor, false));
        self.cleared_depth.clear();
    }

    /// Assembles a [`BmcRun`] from the engine's accumulated state.
    fn finish(
        &self,
        verdict: BmcVerdict,
        depth: usize,
        started: Instant,
        per_bound_seconds: Vec<f64>,
    ) -> Result<BmcRun, BmcError> {
        let mut lrv: Vec<usize> = self.latch_reasons.iter().copied().collect();
        lrv.sort_unstable();
        let mut mrv: Vec<usize> = self.memory_reasons.iter().copied().collect();
        mrv.sort_unstable();
        Ok(BmcRun {
            verdict,
            depth_reached: depth,
            elapsed: started.elapsed(),
            per_bound_seconds,
            latch_reasons: lrv,
            memory_reasons: mrv,
            phase_seconds: PhaseSeconds {
                rewrite: self.rewrite_seconds,
                fraig: self.fraig_seconds,
                encode: self.encode_seconds,
                solve: self.solve_seconds,
                inprocess: 0.0,
            },
        })
    }

    /// Latch/memory reasons from the failed assumptions of the most recent
    /// UNSAT answer of the anchored solver (`Get_Latch_Reasons(U_Core)`),
    /// accumulated into the engine-lifetime reason sets.
    fn collect_reasons(&mut self) {
        let failed: HashSet<Lit> = self
            .anchored
            .solver
            .failed_assumptions()
            .iter()
            .copied()
            .collect();
        for (li, &sel) in self.anchored.unroller.latch_selectors().iter().enumerate() {
            if failed.contains(&sel) {
                self.latch_reasons.insert(li);
            }
        }
        for (enc_idx, _port, sel) in self.anchored.emm.selectors() {
            if failed.contains(&sel) {
                // Map encoder index back to design memory index.
                if let Some(mi) = self
                    .anchored
                    .emm_index
                    .iter()
                    .position(|s| *s == Some(enc_idx))
                {
                    self.memory_reasons.insert(mi);
                }
            }
        }
    }

    fn apply_budget(&mut self, deadline: Option<Instant>) {
        let budget = self
            .options
            .pipeline
            .solve_budget
            .clone()
            .with_earlier_deadline(deadline);
        self.anchored.solver.set_budget(budget.clone());
        if let Some(f) = &mut self.floating {
            f.solver.set_budget(budget);
        }
    }

    /// Builds a [`Trace`] from the anchored solver's model at depth `i`.
    ///
    /// The trace is expressed over the *interface* (free inputs, latches,
    /// memories), which the fraig rewrite preserves exactly, so it replays
    /// on the original design as-is.
    fn extract_trace(&self, prop: usize, depth: usize) -> Trace {
        let ctx = &self.anchored;
        let solver = &ctx.solver;
        let design: &Design = &self.model;
        // Read literals through the sweep substitutions: a merged gate's
        // own variable is unconstrained once its retired definition left
        // the solver, so only the representative carries the model value.
        let model = |l: Lit| {
            let l = match &ctx.simplify {
                Some(simp) => simp.resolve(l),
                None => l,
            };
            solver.model_value(l).unwrap_or(false)
        };

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
