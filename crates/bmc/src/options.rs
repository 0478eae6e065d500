//! Verification options: the [`PipelineOptions`] shared by every driver
//! and the builder-style [`VerifyOptions`] consumed by [`BmcEngine`],
//! the PBA drivers ([`crate::pba`]) and the
//! [`VerificationServer`](crate::server::VerificationServer).
//!
//! [`PipelineOptions`] is a plain data block collecting the knobs every
//! verification entry point shares — the EMM encoder, the simplifying
//! sink, the rewrite and fraig preprocessing, incremental solving,
//! per-call budgets and the pipeline governor. [`VerifyOptions`] embeds
//! one and adds the engine-level switches (proofs, trace validation,
//! abstraction, PBA discovery, the worker count); it is the one builder:
//! every knob is set either through its setter or by writing the
//! [`PipelineOptions`] field directly.
//!
//! ```
//! use emm_bmc::VerifyOptions;
//! use emm_aig::{FraigConfig, RewriteConfig};
//!
//! let options = VerifyOptions::default()
//!     .rewrite(RewriteConfig::disabled())
//!     .fraig(FraigConfig::default())
//!     .incremental(true)
//!     .proofs(true);
//! assert!(options.proofs);
//! assert!(!options.pipeline.rewrite.enabled);
//! ```
//!
//! [`BmcEngine`]: crate::BmcEngine

use std::time::Duration;

use emm_aig::{FraigConfig, RewriteConfig};
use emm_core::EmmOptions;
use emm_sat::{Budget, ResourceGovernor, SimplifyConfig};

use crate::engine::AbstractionSpec;

/// Which schedule [`crate::BmcEngine`]'s bound loop runs.
///
/// The default, [`ProofEngine::Bounded`], is the paper's BMC loop:
/// counterexample checks and, with [`VerifyOptions::proofs`] on,
/// termination checks that report `proof@k`
/// ([`crate::BmcVerdict::Proof`]) — a proof *up to the completeness
/// threshold reached within the depth budget*.
/// [`ProofEngine::KInduction`] asks the same counterexample checks as
/// its base case and, at every bound, the initial-state-free inductive
/// step the bounded schedule asks as its backward check, and can close a
/// property outright as [`crate::BmcVerdict::Proved`], independent of any
/// depth budget. It ignores [`VerifyOptions::proofs`]: the step is always
/// asked and the forward check never. [`crate::KInduction`] builds an engine with this
/// schedule. Under either schedule every query asks exactly the formula
/// of its bound, so one engine checks any property to any depth in any
/// order. See the `BmcEngine` module docs' "Two schedules" and "Queries
/// scoped by bound".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProofEngine {
    /// The bounded engine's BMC-1/BMC-3 termination checks (`proof@k`).
    #[default]
    Bounded,
    /// Base case + inductive step at every bound (`Proved { k }`).
    KInduction,
}

/// Knobs shared by every stage of the verification pipeline, embedded in
/// [`VerifyOptions`] and [`crate::pba::PbaConfig`]. A plain data block:
/// start from [`PipelineOptions::default`] and override fields with
/// struct-update syntax, or set them one by one through the
/// [`VerifyOptions`] builder.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// EMM encoder options (selector granularity, encoding, eq. (6)).
    pub emm: EmmOptions,
    /// Circuit simplification on the unrolled formula (structural hashing,
    /// clause folding, lazy emission); see [`emm_sat::simplify`]. Enabled
    /// by default; use [`SimplifyConfig::disabled`] for the naive encoding.
    pub simplify: SimplifyConfig,
    /// Cut-based AIG rewriting of the design before any unrolling (see
    /// [`emm_aig::rewrite`]): 4-input cut cones are re-synthesized from
    /// exact NPN-canonical implementations wherever that strictly reduces
    /// the AND count, with accepted rewrites chosen by a global
    /// non-overlapping selection over their fanout-free cones. Runs
    /// **before** the fraig pass — rewriting restructures inequivalent
    /// logic, and its rebuild hands fraig a freshly strashed graph.
    /// Enabled by default; the pass has no other knob, and
    /// [`RewriteConfig::disabled`] keeps the unrewritten netlist. Like
    /// fraiging, the pass is
    /// deterministic, runs inside [`BmcEngine::new`], and multi-engine
    /// drivers should pre-reduce once instead (see [`crate::pba`]).
    ///
    /// [`BmcEngine::new`]: crate::BmcEngine::new
    pub rewrite: RewriteConfig,
    /// AIG-level fraiging of the design before any unrolling (see
    /// [`emm_aig::fraig`]): functionally equivalent cones are merged once,
    /// at the netlist level, so the saving multiplies across every frame
    /// of every context. Enabled by default; use
    /// [`FraigConfig::disabled`] for the unreduced netlist. The engine
    /// works on the reduced model internally but still validates
    /// counterexample traces against the original design.
    ///
    /// The pass runs inside [`BmcEngine::new`], *before* any
    /// [`PipelineOptions::wall_limit`] deadline exists; its cost is
    /// bounded by the pass's fixed deterministic caps instead
    /// ([`emm_aig::fraig::MAX_CHECKS`] equivalence checks of 48 conflicts
    /// per direction). Callers constructing many engines over
    /// the same design (abstraction loops) should fraig once and disable
    /// it per engine, as [`crate::pba`] does.
    ///
    /// [`BmcEngine::new`]: crate::BmcEngine::new
    pub fraig: FraigConfig,
    /// Solve **incrementally across bounds** (the default): every context
    /// keeps one long-lived solver for the whole bound loop, each bound
    /// only emits the new frame's clauses, the per-bound property clause
    /// is added under an activation group and physically retired
    /// ([`emm_sat::Solver::retire_group`]) once its bound is refuted, and
    /// counterexample checks already proven UNSAT are skipped on repeated
    /// [`BmcEngine::check`] calls (what makes [`crate::pba`]'s
    /// depth-by-depth discovery loop linear instead of quadratic in
    /// solver calls).
    ///
    /// When `false` the engine rebuilds every context — solver, unroller,
    /// EMM, LFP, simplifier — from scratch at each bound, re-encoding
    /// frames `0..=k` and solving cold: the paper-era baseline, kept for
    /// differential testing and for the bench harness's `incremental`
    /// mode (which measures one against the other). Under
    /// [`ProofEngine::KInduction`] that includes the step context.
    ///
    /// # Examples
    ///
    /// Both modes must agree on verdicts; the incremental engine just
    /// gets there without re-encoding:
    ///
    /// ```
    /// use emm_aig::{Design, LatchInit};
    /// use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
    ///
    /// let mut d = Design::new();
    /// let count = d.new_latch_word("count", 3, LatchInit::Zero);
    /// let next = d.aig.inc(&count);
    /// d.set_next_word(&count, &next);
    /// let bad = d.aig.eq_const(&count, 5);
    /// d.add_property("reaches5", bad);
    /// d.check().expect("well-formed");
    ///
    /// let mut incremental = BmcEngine::new(&d, VerifyOptions::default());
    /// let mut restart = BmcEngine::new(&d, VerifyOptions::default().incremental(false));
    /// let a = incremental.check(0, 8).unwrap();
    /// let b = restart.check(0, 8).unwrap();
    /// assert!(matches!(a.verdict, BmcVerdict::Counterexample(ref t) if t.depth() == 6));
    /// assert!(matches!(b.verdict, BmcVerdict::Counterexample(ref t) if t.depth() == 6));
    /// // Each bound's wall time is recorded either way (bounds 0..=5).
    /// assert_eq!(a.per_bound_seconds.len(), 6);
    /// assert_eq!(b.per_bound_seconds.len(), 6);
    /// ```
    ///
    /// [`BmcEngine::check`]: crate::BmcEngine::check
    pub incremental: bool,
    /// Per-SAT-call resource budget.
    pub solve_budget: Budget,
    /// Overall wall-clock limit per `check` call.
    pub wall_limit: Option<Duration>,
    /// Pipeline-wide resource governor: a deadline, lifetime conflict /
    /// propagation caps, a solver memory ceiling, and a shared
    /// cooperative cancellation token, threaded through every stage —
    /// the rewrite and fraig preprocessing in [`BmcEngine::new`], the EMM
    /// constraint encoder, the frame unrolling loop, and both incremental
    /// solvers. A trip
    /// anywhere degrades gracefully: preprocessing returns its
    /// best-so-far reduction (with `interrupted` stats), and `check`
    /// returns [`BmcVerdict::Unknown`] naming the reason and the
    /// deepest cleanly refuted bound. Keep a clone and call
    /// [`ResourceGovernor::cancel`] to stop a run from another thread;
    /// resume by raising the limits via [`BmcEngine::set_governor`] and
    /// calling [`BmcEngine::check`] again.
    ///
    /// [`BmcEngine::new`]: crate::BmcEngine::new
    /// [`BmcEngine::check`]: crate::BmcEngine::check
    /// [`BmcEngine::set_governor`]: crate::BmcEngine::set_governor
    /// [`BmcVerdict::Unknown`]: crate::BmcVerdict::Unknown
    pub governor: ResourceGovernor,
    /// Which schedule the engine's bound loop runs (see [`ProofEngine`]).
    pub proof_engine: ProofEngine,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            emm: EmmOptions::default(),
            simplify: SimplifyConfig::default(),
            rewrite: RewriteConfig::default(),
            fraig: FraigConfig::default(),
            incremental: true,
            solve_budget: Budget::unlimited(),
            wall_limit: None,
            governor: ResourceGovernor::unlimited(),
            proof_engine: ProofEngine::default(),
        }
    }
}

/// Options of one verification run, consumed by [`BmcEngine::new`],
/// [`crate::pba::PbaConfig`] and the
/// [`VerificationServer`](crate::server::VerificationServer).
///
/// Construction is builder-style from [`VerifyOptions::default`]; every
/// method moves `self`, so chains read top-to-bottom:
///
/// ```
/// use emm_bmc::VerifyOptions;
/// use emm_aig::{FraigConfig, RewriteConfig};
/// use emm_sat::ResourceGovernor;
///
/// let options = VerifyOptions::default()
///     .rewrite(RewriteConfig::default())
///     .fraig(FraigConfig::disabled())
///     .incremental(false)
///     .governor(ResourceGovernor::unlimited())
///     .workers(4);
/// assert_eq!(options.workers, 4);
/// ```
///
/// [`BmcEngine::new`]: crate::BmcEngine::new
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// The shared pipeline knobs (preprocessing, budgets, governor).
    pub pipeline: PipelineOptions,
    /// Run the induction-style termination checks (BMC-1/BMC-3). When
    /// `false` the engine is the falsification-only BMC-2 of Fig. 2.
    /// Ignored under [`ProofEngine::KInduction`].
    pub proofs: bool,
    /// Validate counterexample traces by re-simulation before returning
    /// them (on by default; a failure indicates an engine bug).
    pub validate_traces: bool,
    /// Freeze an abstraction: latches/memories outside the kept sets are
    /// removed from the model (the paper's *reduced model*).
    pub abstraction: Option<AbstractionSpec>,
    /// Enable proof-based-abstraction reason discovery: per-latch and
    /// per-memory selectors are created and every UNSAT counterexample
    /// check reports which of them the refutation used.
    pub pba_discovery: bool,
    /// Worker threads for the parallel paths (the fraig sweep in
    /// preprocessing, and whatever driver consumes these options). `0`
    /// (the default) and `1` both run inline on the caller's thread; the
    /// result is identical at every worker count. The count does not
    /// size the bound loop, which always runs on the caller's thread
    /// (see the `BmcEngine` module docs).
    pub workers: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            pipeline: PipelineOptions::default(),
            proofs: false,
            validate_traces: true,
            abstraction: None,
            pba_discovery: false,
            workers: 0,
        }
    }
}

impl VerifyOptions {
    /// Replaces the whole pipeline-options block.
    pub fn pipeline(mut self, pipeline: PipelineOptions) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the EMM encoder options.
    pub fn emm(mut self, emm: EmmOptions) -> Self {
        self.pipeline.emm = emm;
        self
    }

    /// Sets the simplifying-sink configuration.
    pub fn simplify(mut self, simplify: SimplifyConfig) -> Self {
        self.pipeline.simplify = simplify;
        self
    }

    /// Sets the rewrite preprocessing configuration.
    pub fn rewrite(mut self, rewrite: RewriteConfig) -> Self {
        self.pipeline.rewrite = rewrite;
        self
    }

    /// Sets the fraig preprocessing configuration.
    pub fn fraig(mut self, fraig: FraigConfig) -> Self {
        self.pipeline.fraig = fraig;
        self
    }

    /// Enables or disables bound-to-bound incremental solving.
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.pipeline.incremental = incremental;
        self
    }

    /// Sets the per-SAT-call budget.
    pub fn solve_budget(mut self, budget: Budget) -> Self {
        self.pipeline.solve_budget = budget;
        self
    }

    /// Sets the wall-clock limit per `check` call.
    pub fn wall_limit(mut self, limit: Option<Duration>) -> Self {
        self.pipeline.wall_limit = limit;
        self
    }

    /// Installs the pipeline governor.
    pub fn governor(mut self, governor: ResourceGovernor) -> Self {
        self.pipeline.governor = governor;
        self
    }

    /// Selects the bound-loop schedule (see [`ProofEngine`]).
    pub fn proof_engine(mut self, engine: ProofEngine) -> Self {
        self.pipeline.proof_engine = engine;
        self
    }

    /// Enables or disables the termination (proof) checks.
    pub fn proofs(mut self, proofs: bool) -> Self {
        self.proofs = proofs;
        self
    }

    /// Enables or disables counterexample re-simulation.
    pub fn validate_traces(mut self, validate: bool) -> Self {
        self.validate_traces = validate;
        self
    }

    /// Freezes an abstraction.
    pub fn abstraction(mut self, abstraction: Option<AbstractionSpec>) -> Self {
        self.abstraction = abstraction;
        self
    }

    /// Enables or disables PBA reason discovery.
    pub fn pba_discovery(mut self, pba: bool) -> Self {
        self.pba_discovery = pba;
        self
    }

    /// Sets the worker-thread count for the parallel paths (see the
    /// field docs).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Whether `self` and `other` agree on every option except
    /// [`PipelineOptions::proof_engine`]. Their governors must set the
    /// same limits; each may keep its own cancellation token.
    pub(crate) fn agrees_except_engine(&self, other: &VerifyOptions) -> bool {
        let VerifyOptions {
            pipeline:
                PipelineOptions {
                    emm,
                    simplify,
                    rewrite,
                    fraig,
                    incremental,
                    solve_budget,
                    wall_limit,
                    governor,
                    proof_engine: _,
                },
            proofs,
            validate_traces,
            abstraction,
            pba_discovery,
            workers,
        } = self;
        let p = &other.pipeline;
        *emm == p.emm
            && *simplify == p.simplify
            && *rewrite == p.rewrite
            && *fraig == p.fraig
            && *incremental == p.incremental
            && *solve_budget == p.solve_budget
            && *wall_limit == p.wall_limit
            && governor.same_limits(&p.governor)
            && *proofs == other.proofs
            && *validate_traces == other.validate_traces
            && *abstraction == other.abstraction
            && *pba_discovery == other.pba_discovery
            && *workers == other.workers
    }
}
