//! Incremental cone-to-CNF equivalence oracle.
//!
//! SAT sweeping — the fraig pass in `emm-aig`, over a design's AIG before
//! encoding — keeps asking one question:
//! *are these two gate outputs the same function of the shared inputs?*
//! Answering it needs a solver that holds the Tseitin encoding of exactly
//! the cones mentioned so far, grown incrementally so shared substructure
//! is encoded once.
//!
//! [`EquivOracle`] packages that pattern: the caller walks its own graph
//! (the oracle is representation-agnostic; nodes are dense `usize`
//! indices), defines each cone node once via [`EquivOracle::define_input`]
//! / [`EquivOracle::define_and`], and asks [`EquivOracle::prove_equiv`].
//! On a refutation, [`EquivOracle::model_lit`] exposes the distinguishing
//! model so simulation signatures can be refined with a real pattern.
//!
//! ```
//! use emm_sat::EquivOracle;
//!
//! let mut o = EquivOracle::new();
//! let a = o.define_input(0);
//! let b = o.define_input(1);
//! let x = o.define_and(2, a, b);
//! let y = o.define_and(3, a, x); // a ∧ (a ∧ b) — absorbed, equals x
//! assert_eq!(o.prove_equiv(x, y, 64), Some(true));
//! assert_eq!(o.prove_equiv(x, a, 64), Some(false), "a=1,b=0 separates");
//! assert_eq!(o.model_lit(a), Some(true));
//! ```

use crate::govern::ResourceGovernor;
use crate::lit::Lit;
use crate::sink::CnfSink;
use crate::solver::Solver;

/// An incremental SAT context holding the CNF of the cones defined so far.
///
/// See the module docs above. Node indices are caller-chosen dense ids;
/// each node is encoded at most once, so repeated definitions (shared
/// cones, re-walks) are free.
#[derive(Debug, Default)]
pub struct EquivOracle {
    solver: Solver,
    /// Node index -> encoded solver literal.
    lits: Vec<Option<Lit>>,
    /// Lazily created constant-false literal.
    false_lit: Option<Lit>,
    /// Equivalence checks issued.
    checks: u64,
}

impl EquivOracle {
    /// Creates an oracle with an empty CNF.
    pub fn new() -> EquivOracle {
        EquivOracle::default()
    }

    /// Installs a [`ResourceGovernor`] on the oracle's solver: its
    /// deadline, caps, and cancellation token then bound every
    /// [`EquivOracle::prove_equiv`] call (exhaustion answers `None`).
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.solver.set_governor(governor);
    }

    /// The literal `node` was encoded as, if it has been defined.
    pub fn lit(&self, node: usize) -> Option<Lit> {
        self.lits.get(node).copied().flatten()
    }

    /// Defines `node` as a free input (a fresh variable). Memoized.
    pub fn define_input(&mut self, node: usize) -> Lit {
        if let Some(l) = self.lit(node) {
            return l;
        }
        let l = self.solver.new_var().positive();
        self.remember(node, l);
        l
    }

    /// Defines `node` as `a ∧ b` over already-encoded literals (three
    /// Tseitin clauses). Memoized: a second definition returns the first
    /// literal without re-encoding.
    pub fn define_and(&mut self, node: usize, a: Lit, b: Lit) -> Lit {
        if let Some(l) = self.lit(node) {
            return l;
        }
        let l = self.solver.add_and_gate(a, b);
        self.remember(node, l);
        l
    }

    /// Defines `node` as the constant-false literal. Memoized like the
    /// other definitions; all constant nodes share one solver variable.
    pub fn define_const(&mut self, node: usize) -> Lit {
        if let Some(l) = self.lit(node) {
            return l;
        }
        let f = self.false_lit();
        self.remember(node, f);
        f
    }

    /// A literal constrained false (for cones mentioning the constant).
    pub fn false_lit(&mut self) -> Lit {
        if let Some(f) = self.false_lit {
            return f;
        }
        let v = self.solver.new_var();
        self.solver.add_clause(&[v.negative()]);
        self.false_lit = Some(v.positive());
        v.positive()
    }

    /// Attempts to decide `a ≡ b` over the cones encoded so far, spending
    /// at most `max_conflicts` conflicts per implication direction.
    ///
    /// `Some(true)`: equivalent for every input assignment. `Some(false)`:
    /// a distinguishing model exists (readable via
    /// [`EquivOracle::model_lit`]). `None`: budget exhausted.
    pub fn prove_equiv(&mut self, a: Lit, b: Lit, max_conflicts: u64) -> Option<bool> {
        self.checks += 1;
        self.solver.prove_equiv(a, b, max_conflicts)
    }

    /// Value of `lit` in the distinguishing model of the most recent
    /// `Some(false)` answer. `None` for variables the model left
    /// unassigned or after a proved/unknown answer.
    pub fn model_lit(&self, lit: Lit) -> Option<bool> {
        self.solver.model_value(lit)
    }

    /// Equivalence checks issued so far.
    pub fn num_checks(&self) -> u64 {
        self.checks
    }

    /// Variables in the oracle's CNF (encoded cone size indicator).
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    fn remember(&mut self, node: usize, l: Lit) {
        if self.lits.len() <= node {
            self.lits.resize(node + 1, None);
        }
        self.lits[node] = Some(l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_are_memoized() {
        let mut o = EquivOracle::new();
        let a = o.define_input(0);
        assert_eq!(o.define_input(0), a);
        let b = o.define_input(1);
        let g = o.define_and(2, a, b);
        let vars_after = o.num_vars();
        assert_eq!(o.define_and(2, a, b), g);
        assert_eq!(o.num_vars(), vars_after, "no re-encoding");
        assert_eq!(o.lit(2), Some(g));
        assert_eq!(o.lit(7), None);
    }

    #[test]
    fn proves_structural_and_absorbed_equivalences() {
        let mut o = EquivOracle::new();
        let a = o.define_input(0);
        let b = o.define_input(1);
        let x = o.define_and(2, a, b);
        let y = o.define_and(3, b, a);
        let z = o.define_and(4, a, x);
        assert_eq!(o.prove_equiv(x, y, 64), Some(true));
        assert_eq!(o.prove_equiv(x, z, 64), Some(true));
        assert_eq!(o.prove_equiv(x, !y, 64), Some(false));
        assert_eq!(o.num_checks(), 3);
    }

    #[test]
    fn refutation_exposes_distinguishing_model() {
        let mut o = EquivOracle::new();
        let a = o.define_input(0);
        let b = o.define_input(1);
        let x = o.define_and(2, a, b);
        assert_eq!(o.prove_equiv(x, a, 64), Some(false));
        // The model must set a=1, b=0 (the only separating assignment).
        assert_eq!(o.model_lit(a), Some(true));
        assert_eq!(o.model_lit(b), Some(false));
        assert_eq!(o.model_lit(x), Some(false));
    }

    #[test]
    fn false_lit_is_constant_and_shared() {
        let mut o = EquivOracle::new();
        let f = o.false_lit();
        assert_eq!(o.false_lit(), f);
        let a = o.define_input(0);
        let g = o.define_and(1, a, f);
        assert_eq!(o.prove_equiv(g, f, 64), Some(true), "a ∧ false ≡ false");
        assert_eq!(o.prove_equiv(a, f, 64), Some(false));
    }
}
