//! Unbounded proving by k-induction: a handle on a [`BmcEngine`] running
//! the k-induction schedule (see the engine module docs' "Two
//! schedules" for the algorithm and its soundness argument).

use emm_aig::Design;
use emm_sat::{ResourceGovernor, SolverStats};

use crate::engine::{BmcEngine, BmcError, BmcRun};
use crate::model::ReducedModel;
use crate::options::{ProofEngine, VerifyOptions};

/// A [`BmcEngine`] built with [`ProofEngine::KInduction`], whatever the
/// options handed in select: the base case on the anchored context, the
/// simple-path inductive step on the floating one, and
/// [`crate::BmcVerdict::Proved`] when a step closes the property.
///
/// # Examples
///
/// A saturating counter: `count` walks 0..=29 and then holds, `bad`
/// claims the unreachable value 63. The bounded schedule needs the full
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
#[derive(Debug)]
pub struct KInduction<'d> {
    engine: BmcEngine<'d>,
}

impl<'d> KInduction<'d> {
    /// Creates a k-induction engine for `design` (see [`BmcEngine::new`]).
    ///
    /// # Panics
    ///
    /// Panics if the design is malformed or an abstraction mask has the
    /// wrong length.
    pub fn new(design: &'d Design, options: VerifyOptions) -> KInduction<'d> {
        KInduction {
            engine: BmcEngine::new(design, options.proof_engine(ProofEngine::KInduction)),
        }
    }

    /// Creates an engine over an already-reduced model (see
    /// [`BmcEngine::with_model`]).
    ///
    /// # Panics
    ///
    /// Panics if the design is malformed or an abstraction mask has the
    /// wrong length.
    pub fn with_model(reduced: &'d ReducedModel<'_>, options: VerifyOptions) -> KInduction<'d> {
        KInduction {
            engine: BmcEngine::with_model(reduced, options.proof_engine(ProofEngine::KInduction)),
        }
    }

    /// Runs base case and inductive step for property `prop` at depths
    /// `0..=max_k` (see [`BmcEngine::check`], whose resume contract it
    /// shares).
    ///
    /// # Errors
    ///
    /// As [`BmcEngine::check`].
    pub fn check(&mut self, prop: usize, max_k: usize) -> Result<BmcRun, BmcError> {
        self.engine.check(prop, max_k)
    }

    /// Replaces the pipeline governor (see [`BmcEngine::set_governor`]).
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.engine.set_governor(governor);
    }

    /// Step queries answered SAT or UNSAT (see [`BmcEngine::step_queries`]).
    pub fn step_queries(&self) -> u64 {
        self.engine.step_queries()
    }

    /// Variable count and raw CDCL statistics of the step solver.
    pub fn step_solver_stats(&self) -> (usize, SolverStats) {
        self.engine
            .floating_solver_stats()
            .expect("the k-induction schedule has a floating context")
    }
}
