//! The [`CnfSink`] abstraction: anything clauses can be emitted into.
//!
//! The EMM constraint generator (crate `emm-core`) is written against this
//! trait so the same code can target a live [`Solver`](crate::Solver), a
//! counting sink (for the paper's constraint-size formulas), or a CNF dump
//! ([`Cnf`](crate::dimacs::Cnf)).
//!
//! The paper's "hybrid representation" distinguishes constraints added as
//! *CNF clauses* from those added as *2-input gates* (Section 3). A CNF-based
//! backend encodes gates with Tseitin clauses, but the distinction is kept in
//! the interface ([`CnfSink::add_and_gate`]) so sizes can be accounted the
//! way the paper reports them.

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A sink for fresh variables, CNF clauses, and 2-input AND gates.
pub trait CnfSink {
    /// Creates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause.
    fn add_clause(&mut self, lits: &[Lit]);

    /// Adds a 2-input AND gate `out = a & b` and returns `out`.
    ///
    /// The default implementation Tseitin-encodes the gate with three
    /// clauses over a fresh variable; sinks that track the clause/gate split
    /// (or solvers with native gate support) may override it.
    fn add_and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let out = self.new_var().positive();
        self.add_clause(&[!out, a]);
        self.add_clause(&[!out, b]);
        self.add_clause(&[out, !a, !b]);
        out
    }

    /// Adds an OR gate `out = a | b` (derived from the AND gate by De Morgan).
    fn add_or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        !self.add_and_gate(!a, !b)
    }

    /// Constrains `lit` to be true.
    fn assert_true(&mut self, lit: Lit) {
        self.add_clause(&[lit]);
    }
}

impl CnfSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits);
    }
}

/// A sink that only counts, used to verify the paper's closed-form constraint
/// sizes without building a solver instance.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    vars: usize,
    clauses: usize,
    gates: usize,
    literals: usize,
}

impl CountingSink {
    /// Creates a counting sink with no variables.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Number of variables created.
    pub fn num_vars(&self) -> usize {
        self.vars
    }

    /// Number of clauses added (excluding gate-encoding clauses).
    pub fn num_clauses(&self) -> usize {
        self.clauses
    }

    /// Number of 2-input gates added.
    pub fn num_gates(&self) -> usize {
        self.gates
    }

    /// Total literal occurrences across counted clauses.
    pub fn num_literals(&self) -> usize {
        self.literals
    }
}

impl CnfSink for CountingSink {
    fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.vars);
        self.vars += 1;
        v
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses += 1;
        self.literals += lits.len();
    }

    fn add_and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let _ = (a, b);
        self.gates += 1;
        self.new_var().positive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn and_gate_truth_table() {
        for (av, bv) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut s = Solver::new();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            let out = s.add_and_gate(a, b);
            s.add_clause(&[if av { a } else { !a }]);
            s.add_clause(&[if bv { b } else { !b }]);
            assert_eq!(s.solve(), SolveResult::Sat);
            assert_eq!(s.model_value(out), Some(av && bv), "{av} & {bv}");
        }
    }

    #[test]
    fn or_gate_truth_table() {
        for (av, bv) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut s = Solver::new();
            let a = s.new_var().positive();
            let b = s.new_var().positive();
            let out = s.add_or_gate(a, b);
            s.add_clause(&[if av { a } else { !a }]);
            s.add_clause(&[if bv { b } else { !b }]);
            assert_eq!(s.solve(), SolveResult::Sat);
            assert_eq!(s.model_value(out), Some(av || bv), "{av} | {bv}");
        }
    }

    #[test]
    fn counting_sink_counts() {
        let mut c = CountingSink::new();
        let a = c.new_var().positive();
        let b = c.new_var().positive();
        c.add_clause(&[a, b]);
        let g = c.add_and_gate(a, b);
        c.add_clause(&[g]);
        assert_eq!(c.num_vars(), 3);
        assert_eq!(c.num_clauses(), 2);
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.num_literals(), 3);
    }
}
