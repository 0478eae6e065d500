//! Verification options: the [`PipelineOptions`] shared by every driver
//! and the builder-style [`VerifyOptions`] consumed by [`BmcEngine`],
//! the PBA drivers ([`crate::pba`]) and the
//! [`VerificationServer`](crate::server::VerificationServer).
//!
//! [`PipelineOptions`] collects the knobs every verification entry point
//! shares — the EMM encoder, the simplifying sink, the rewrite and fraig
//! preprocessing, incremental solving, per-call budgets and the pipeline
//! governor. [`VerifyOptions`] embeds one and adds the engine-level
//! switches (proofs, trace validation, abstraction, PBA discovery, the
//! worker count). The historical flat [`BmcOptions`] struct remains as a
//! thin shim: `From<BmcOptions> for VerifyOptions` lets every existing
//! call site keep compiling, and [`BmcEngine::new`] accepts either.
//!
//! ```
//! use emm_bmc::VerifyOptions;
//! use emm_aig::{FraigConfig, RewriteConfig};
//!
//! let options = VerifyOptions::default()
//!     .rewrite(RewriteConfig::wide())
//!     .fraig(FraigConfig::default())
//!     .incremental(true)
//!     .proofs(true);
//! assert!(options.proofs);
//! ```
//!
//! [`BmcEngine`]: crate::BmcEngine
//! [`BmcEngine::new`]: crate::BmcEngine::new
//! [`BmcOptions`]: crate::BmcOptions

use std::time::Duration;

use emm_aig::{FraigConfig, RewriteConfig};
use emm_core::EmmOptions;
use emm_sat::{Budget, ResourceGovernor, SimplifyConfig, SolverConfig};

use crate::engine::{AbstractionSpec, BmcOptions};

/// Which proving engine a driver dispatches to when proofs are requested.
///
/// The default, [`ProofEngine::Bounded`], is the paper's BMC loop in
/// [`crate::BmcEngine`]: bound-exact termination checks that report
/// `proof@k` ([`crate::BmcVerdict::Proof`]) — a proof *up to the
/// completeness threshold reached within the depth budget*.
/// [`ProofEngine::KInduction`] selects [`crate::KInduction`], which
/// interleaves the same base-case loop with an initial-state-free
/// inductive step and can close a property outright as
/// [`crate::BmcVerdict::Proved`], independent of any depth budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProofEngine {
    /// The bounded engine's BMC-1/BMC-3 termination checks (`proof@k`).
    #[default]
    Bounded,
    /// Interleaved base case + inductive step (`Proved { k }`).
    KInduction,
}

/// Knobs shared by every stage of the verification pipeline, embedded in
/// [`VerifyOptions`] and [`crate::pba::PbaConfig`]. Field semantics are
/// documented on [`BmcOptions`], whose flat layout this struct replaces.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// EMM encoder options (selector granularity, encoding, eq. (6)).
    pub emm: EmmOptions,
    /// Circuit simplification on the unrolled formula
    /// ([`BmcOptions::simplify`]).
    pub simplify: SimplifyConfig,
    /// Cut-based AIG rewriting before unrolling ([`BmcOptions::rewrite`]).
    pub rewrite: RewriteConfig,
    /// AIG-level fraiging before unrolling ([`BmcOptions::fraig`]).
    pub fraig: FraigConfig,
    /// Bound-to-bound incremental solving ([`BmcOptions::incremental`]).
    pub incremental: bool,
    /// Per-SAT-call resource budget.
    pub solve_budget: Budget,
    /// Overall wall-clock limit per `check` call.
    pub wall_limit: Option<Duration>,
    /// Pipeline-wide resource governor ([`BmcOptions::governor`]).
    pub governor: ResourceGovernor,
    /// Which proving engine drivers dispatch to when proofs are
    /// requested (see [`ProofEngine`]).
    pub proof_engine: ProofEngine,
    /// CDCL solver heuristics (restart policy, decay rates, clause-DB
    /// reduction, the inprocessing loop) used by every solver the
    /// pipeline creates — [`BmcEngine`](crate::BmcEngine)'s anchored and
    /// floating contexts, [`crate::KInduction`]'s step context, and the
    /// PBA/server drivers on top of them.
    pub solver: SolverConfig,
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
            solver: SolverConfig::default(),
        }
    }
}

impl PipelineOptions {
    /// Sets the EMM encoder options.
    pub fn emm(mut self, emm: EmmOptions) -> Self {
        self.emm = emm;
        self
    }

    /// Sets the simplifying-sink configuration.
    pub fn simplify(mut self, simplify: SimplifyConfig) -> Self {
        self.simplify = simplify;
        self
    }

    /// Sets the rewrite preprocessing configuration.
    pub fn rewrite(mut self, rewrite: RewriteConfig) -> Self {
        self.rewrite = rewrite;
        self
    }

    /// Sets the fraig preprocessing configuration.
    pub fn fraig(mut self, fraig: FraigConfig) -> Self {
        self.fraig = fraig;
        self
    }

    /// Enables or disables bound-to-bound incremental solving.
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Sets the per-SAT-call budget.
    pub fn solve_budget(mut self, budget: Budget) -> Self {
        self.solve_budget = budget;
        self
    }

    /// Sets the wall-clock limit per `check` call.
    pub fn wall_limit(mut self, limit: Option<Duration>) -> Self {
        self.wall_limit = limit;
        self
    }

    /// Installs the pipeline governor.
    pub fn governor(mut self, governor: ResourceGovernor) -> Self {
        self.governor = governor;
        self
    }

    /// Selects the proving engine drivers dispatch to.
    pub fn proof_engine(mut self, engine: ProofEngine) -> Self {
        self.proof_engine = engine;
        self
    }

    /// Sets the CDCL solver configuration used by every pipeline solver.
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
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
    /// Run the induction-style termination checks (BMC-1/BMC-3).
    pub proofs: bool,
    /// Validate counterexample traces by re-simulation before returning.
    pub validate_traces: bool,
    /// Freeze an abstraction (the paper's *reduced model*).
    pub abstraction: Option<AbstractionSpec>,
    /// Enable proof-based-abstraction reason discovery.
    pub pba_discovery: bool,
    /// Worker threads for the parallel paths (the fraig sweep in
    /// preprocessing, and whatever driver consumes these options). `0`
    /// (the default) and `1` both run inline on the caller's thread; the
    /// result is identical at every worker count.
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

    /// Selects the proving engine drivers dispatch to.
    pub fn proof_engine(mut self, engine: ProofEngine) -> Self {
        self.pipeline.proof_engine = engine;
        self
    }

    /// Sets the CDCL solver configuration used by every pipeline solver.
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.pipeline.solver = solver;
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
}

impl From<PipelineOptions> for VerifyOptions {
    fn from(pipeline: PipelineOptions) -> VerifyOptions {
        VerifyOptions {
            pipeline,
            ..VerifyOptions::default()
        }
    }
}

impl From<BmcOptions> for VerifyOptions {
    fn from(o: BmcOptions) -> VerifyOptions {
        VerifyOptions {
            pipeline: PipelineOptions {
                emm: o.emm,
                simplify: o.simplify,
                rewrite: o.rewrite,
                fraig: o.fraig,
                incremental: o.incremental,
                solve_budget: o.solve_budget,
                wall_limit: o.wall_limit,
                governor: o.governor,
                proof_engine: ProofEngine::Bounded,
                solver: SolverConfig::default(),
            },
            proofs: o.proofs,
            validate_traces: o.validate_traces,
            abstraction: o.abstraction,
            pba_discovery: o.pba_discovery,
            workers: 0,
        }
    }
}
