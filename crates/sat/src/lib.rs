//! # emm-sat — the SAT backend of the EMM verification stack
//!
//! A conflict-driven clause-learning (CDCL) SAT solver built as the backend
//! for SAT-based Bounded Model Checking with Efficient Memory Modeling
//! (Ganai, Gupta, Ashar — DATE 2005). It stands in for the paper's hybrid
//! circuit/CNF solver (their ref. \[21\]); unsat cores come from
//! failed assumptions over activation-group selectors rather than from a
//! resolution-based refutation extractor (their ref. \[20\]).
//!
//! ## Features
//!
//! * Incremental solving: add clauses between [`Solver::solve`] calls — the
//!   pattern BMC uses when unrolling one frame at a time.
//! * Solving under **assumptions** ([`Solver::solve_with`])
//!   with [`Solver::failed_assumptions`], enabling selector-based *group
//!   unsat cores* (how proof-based abstraction computes latch reasons).
//! * **Clause retirement**: [`Solver::retire_clause`] physically deletes a
//!   redundant original clause (watchers detached, arena compacted by GC),
//!   and **activation groups** ([`Solver::new_activation_group`],
//!   [`Solver::add_clause_in_group`], [`Solver::retire_group`]) scope
//!   clauses to a guard literal so whole groups — e.g. a BMC bound's
//!   property clause — can be enforced per solve and later removed for
//!   good.
//! * Deterministic **budgets** ([`Budget`]) for the paper's timeout-based
//!   experimental methodology, and a pipeline-wide **resource governor**
//!   ([`ResourceGovernor`], module [`govern`]): shared deadline,
//!   conflict/propagation caps, a memory ceiling over arena + watcher
//!   bytes, and a cooperative cancellation token polled by every
//!   long-running loop in the stack.
//! * A **simplifying CNF sink** ([`SimplifySink`], module [`simplify`]):
//!   cross-frame structural hashing, clause folding, and lazy gate
//!   emission between the BMC encoders and the solver.
//! * An incremental **cone-to-CNF equivalence oracle** ([`EquivOracle`]):
//!   the solver-side half of AIG-level fraiging (`emm-aig`'s `fraig`
//!   module) — callers encode just the cones a candidate equivalence
//!   mentions and get proved/refuted/unknown answers with distinguishing
//!   models.
//!
//! Where this crate sits in the encoding pipeline (design → reduction
//! passes → unrolling → sink → solver) is described in
//! `docs/ARCHITECTURE.md` at the repository root.
//!
//! ## Example
//!
//! ```
//! use emm_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause(&[a, b]);
//! solver.add_clause(&[!a, b]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(b), Some(true));
//! ```

#![warn(missing_docs)]

mod clause;
pub mod dimacs;
mod equiv;
pub mod govern;
mod heap;
mod lit;
pub mod naive;
pub mod simplify;
mod sink;
mod solver;

pub use clause::ClauseId;
pub use equiv::EquivOracle;
pub use govern::{ExhaustionReason, FaultSite, ResourceGovernor};
pub use lit::{LBool, Lit, Var};
pub use simplify::{Simplifier, SimplifyConfig, SimplifySink, SimplifyStats};
pub use sink::{CnfSink, CountingSink};
pub use solver::{Budget, SolveResult, Solver, SolverStats};
