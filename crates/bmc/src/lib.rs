//! # emm-bmc — SAT-based Bounded Model Checking with EMM
//!
//! The verification algorithms of *"Verification of Embedded Memory Systems
//! using Efficient Memory Modeling"* (Ganai, Gupta, Ashar — DATE 2005):
//!
//! * [`Unroller`] — transition-relation unrolling of an
//!   [`emm_aig::Design`] into an incremental SAT solver, with support for
//!   latch selectors (PBA reason discovery) and frozen abstractions
//!   (reduced models);
//! * [`LfpBuilder`] — loop-free-path constraints for the induction-style
//!   termination checks of ref. \[19\], derived from the EMM state
//!   encoding: a pair of frames is pruned as "same state" only when the
//!   kept latches match *and* no enabled memory write separates them;
//! * [`BmcEngine`] — the paper's BMC-1 / BMC-2 / BMC-3 loops: witness
//!   search, forward-diameter and backward-induction proofs, counterexample
//!   extraction with re-simulation, and proof-based-abstraction reason
//!   collection; and, as a second schedule of the same bound loop
//!   ([`options::ProofEngine`]), unbounded proving by k-induction;
//! * [`KInduction`] — a handle that builds an engine with the
//!   k-induction schedule;
//! * [`pba`] — stability-based abstraction discovery and iterative
//!   abstraction (ref. \[10\]), with a parallel per-property dispatch
//!   ([`pba::discover_all`]) on the shared-queue pool;
//! * [`options`] — the configuration surface: the [`VerifyOptions`]
//!   builder and the shared [`PipelineOptions`] data block it embeds;
//! * [`model`] — [`ReducedModel`], the pre-reduced design handle that
//!   lets many engines share one rewrite + fraig pass;
//! * [`server`] — [`VerificationServer`], a queueing front-end that runs
//!   batches of independent verification jobs on the pool with
//!   bit-identical results at every worker count.
//!
//! All encoders emit through [`emm_sat::CnfSink`], and the engine threads
//! a simplifying sink ([`emm_sat::simplify`]) between them and the solver
//! by default: cross-frame structural hashing, constant folding, and lazy
//! gate emission. See [`PipelineOptions::simplify`].
//!
//! Before any unrolling, the engine also reduces a private copy of the
//! design: cut-based rewriting ([`emm_aig::rewrite`]) restructures
//! inequivalent logic into cheaper shapes, then the AIG-level fraig pass
//! ([`emm_aig::fraig`]) merges functionally equivalent cones — both
//! savings multiply across every frame of every context. Counterexample
//! traces are still validated against the original design. See
//! [`PipelineOptions::rewrite`], [`PipelineOptions::fraig`], and
//! [`BmcEngine::fraig_stats`]. The full pipeline, encoder by encoder, is
//! documented in `docs/ARCHITECTURE.md` at the repository root.
//!
//! ## Example: proving a counter property
//!
//! ```
//! use emm_aig::{Design, LatchInit};
//! use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
//!
//! let mut d = Design::new();
//! let count = d.new_latch_word("count", 3, LatchInit::Zero);
//! let wrap = d.aig.eq_const(&count, 4);
//! let inc = d.aig.inc(&count);
//! let zero = d.aig.const_word(0, 3);
//! let next = d.aig.mux_word(wrap, &zero, &inc);
//! d.set_next_word(&count, &next);
//! let bad = d.aig.eq_const(&count, 7); // never reached: wraps at 4
//! d.add_property("lt7", bad);
//! d.check().expect("well-formed");
//!
//! let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
//! let run = engine.check(0, 32).expect("no spurious traces");
//! assert!(run.verdict.is_proof());
//! ```

#![warn(missing_docs)]

pub mod dimacs;
mod engine;
pub mod frontend;
mod kinduction;
mod lfp;
pub mod model;
pub mod options;
pub mod pba;
pub mod server;
mod unroll;

pub use dimacs::{dump_bmc_cnf, BmcCnf, DumpDimacsError};
pub use engine::{
    AbstractionSpec, BmcEngine, BmcError, BmcRun, BmcVerdict, PhaseSeconds, ProofKind,
};
pub use frontend::{FrontendError, ModelFormat, ModelSource};
pub use kinduction::KInduction;
pub use lfp::LfpBuilder;
pub use model::ReducedModel;
pub use options::{PipelineOptions, ProofEngine, VerifyOptions};
pub use server::{ServerStats, VerificationServer, VerifyBudget, VerifyRequest, VerifyResponse};
pub use unroll::{UnrollConfig, Unroller};
