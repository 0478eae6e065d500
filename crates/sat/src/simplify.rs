//! The simplifying CNF sink: circuit simplification on the unrolled formula.
//!
//! BMC with Efficient Memory Modeling keeps the *per-frame* constraint size
//! small, but the seed encoder still re-Tseitin-encodes structurally
//! identical logic at every unrolling depth and emits every gate of the
//! design's combinational core whether or not anything downstream reads it.
//! This module removes that redundancy with a sink layer between the
//! encoders and the solver:
//!
//! ```text
//! Unroller ─┐
//! LfpBuilder ├──> SimplifySink ──> Solver (or any other CnfSink)
//! EmmEncoder ┘
//! ```
//!
//! [`SimplifySink`] implements [`CnfSink`] and applies two cooperating
//! optimizations to every [`CnfSink::add_and_gate`] request:
//!
//! 1. **Cross-frame structural hashing** — gates are interned in a hash
//!    table keyed by their (canonically ordered) operand literals, after
//!    constant and identity folding at the literal level. Because latch
//!    outputs at frame `k+1` reuse frame `k`'s next-state literals, a cone
//!    whose inputs stabilize across frames collapses to a single copy, no
//!    matter how deep the unrolling goes.
//! 2. **Lazy emission** — a gate's Tseitin clauses are withheld until the
//!    gate's output is referenced by an emitted clause (or explicitly
//!    [`SimplifySink::materialize`]d for use as an assumption). Logic
//!    outside every property/constraint/memory cone costs zero clauses,
//!    giving a dynamic, literal-level cone-of-influence reduction.
//!
//! Clause traffic is also filtered through the unit-literal store: clauses
//! satisfied by a level-0 unit are dropped and false literals are stripped.
//! Merging functionally equivalent (not just structurally identical) logic
//! is the fraig pass's job, once on the design AIG before unrolling.
//!
//! All state lives in a [`Simplifier`], which persists across frames (that
//! is what makes the hashing *cross-frame*); [`SimplifySink`] is a
//! short-lived view pairing the state with the underlying sink:
//!
//! ```
//! use emm_sat::{CnfSink, Simplifier, Solver};
//!
//! let mut solver = Solver::new();
//! let mut simp = Simplifier::new();
//! let mut sink = simp.attach(&mut solver);
//! let a = sink.new_var().positive();
//! let b = sink.new_var().positive();
//! let g1 = sink.add_and_gate(a, b);
//! let g2 = sink.add_and_gate(b, a); // commuted: structurally hashed
//! assert_eq!(g1, g2);
//! assert_eq!(simp.stats().cache_hits, 1);
//! ```
//!
//! Soundness: folding and hashing are purely structural rewrites; lazy
//! emission withholds only definitions of literals no emitted clause
//! mentions, and a solver never sees a reference to a withheld definition.
//! The result is equivalent to the naive encoding over the shared
//! variables — the differential tests in `emm-bmc` check exactly that.

use std::collections::HashMap;

use crate::lit::{Lit, Var};
use crate::sink::CnfSink;

/// Configuration of the simplifying sink: whether the pipeline installs
/// one at all. Callers that honour it build a [`Simplifier`] only when
/// [`SimplifyConfig::enabled`] is set and otherwise emit straight into the
/// solver (the naive seed encoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimplifyConfig {
    /// Route clause and gate traffic through a [`Simplifier`].
    pub enabled: bool,
}

impl Default for SimplifyConfig {
    fn default() -> SimplifyConfig {
        SimplifyConfig { enabled: true }
    }
}

impl SimplifyConfig {
    /// The naive encoding: no simplifying sink.
    pub fn disabled() -> SimplifyConfig {
        SimplifyConfig { enabled: false }
    }
}

/// Counters describing what the sink saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// `add_and_gate` requests received.
    pub gate_queries: u64,
    /// Requests answered by constant/identity folding (no gate at all).
    pub folded: u64,
    /// Requests answered from the structural-hash table.
    pub cache_hits: u64,
    /// Fresh gate variables created.
    pub gates_created: u64,
    /// Gates whose Tseitin clauses were actually emitted.
    pub gates_emitted: u64,
    /// Clauses received via `add_clause`.
    pub clauses_in: u64,
    /// Clauses forwarded to the inner sink (gate encodings excluded).
    pub clauses_emitted: u64,
    /// Clauses dropped because a known unit already satisfies them.
    pub clauses_dropped: u64,
    /// False literals stripped from forwarded clauses.
    pub literals_stripped: u64,
}

impl SimplifyStats {
    /// Gates created but never emitted: dead logic the lazy pass elided.
    pub fn gates_elided(&self) -> u64 {
        self.gates_created - self.gates_emitted
    }
}

/// Persistent state of the simplifying layer (see the [module docs](self)).
///
/// One `Simplifier` accompanies one solver for the whole BMC run; attach it
/// to the solver with [`Simplifier::attach`] whenever clauses are emitted.
///
/// The per-variable tables are dense vectors indexed by [`Var::index`] of
/// the inner sink's variables, grown on first write; a variable past a
/// table's end has no entry. Only the structural-hash key is hashed.
#[derive(Debug, Default)]
pub struct Simplifier {
    /// Structural-hash table: canonical `(a, b)` operand pair -> output.
    cache: HashMap<(Lit, Lit), Lit>,
    /// Gates created but not yet emitted: output var -> operands.
    pending: Vec<Option<(Lit, Lit)>>,
    /// Literals fixed by unit clauses: var -> forced value.
    units: Vec<Option<bool>>,
    /// A literal known false, once one exists (for folding results).
    known_false: Option<Lit>,
    /// Scratch: the surviving literals of the clause being added.
    kept: Vec<Lit>,
    /// Scratch: the depth-first stack of [`SimplifySink::materialize`].
    stack: Vec<Var>,
    stats: SimplifyStats,
}

impl Simplifier {
    /// Creates an empty simplifier.
    pub fn new() -> Simplifier {
        Simplifier::default()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &SimplifyStats {
        &self.stats
    }

    /// Pairs this state with the sink that receives the simplified output.
    pub fn attach<'a, S: CnfSink + ?Sized>(&'a mut self, inner: &'a mut S) -> SimplifySink<'a, S> {
        SimplifySink { simp: self, inner }
    }

    /// The forced value of `lit` under recorded unit clauses, if any.
    fn lit_value(&self, lit: Lit) -> Option<bool> {
        let value = self.units.get(lit.var().index()).copied().flatten();
        value.map(|v| v ^ lit.is_negative())
    }

    /// Records a level-0 unit.
    fn learn_unit(&mut self, lit: Lit) {
        *slot(&mut self.units, lit.var()) = Some(lit.is_positive());
        if self.known_false.is_none() {
            self.known_false = Some(!lit);
        }
    }

    /// The operands of `v`'s gate while it is still withheld.
    fn pending(&self, v: Var) -> Option<(Lit, Lit)> {
        self.pending.get(v.index()).copied().flatten()
    }
}

/// The entry of `v` in a dense per-variable table, growing it to reach `v`.
fn slot<T: Default>(table: &mut Vec<T>, v: Var) -> &mut T {
    if v.index() >= table.len() {
        table.resize_with(v.index() + 1, T::default);
    }
    &mut table[v.index()]
}

/// A [`CnfSink`] that simplifies gate and clause traffic on its way into
/// `inner`. Created by [`Simplifier::attach`]; see the [module docs](self).
///
/// # Examples
///
/// Structural hashing interns commuted gates, and lazy emission withholds
/// a gate's clauses until something references its output:
///
/// ```
/// use emm_sat::{CnfSink, Simplifier, Solver};
///
/// let mut solver = Solver::new();
/// let mut simp = Simplifier::new();
/// let mut sink = simp.attach(&mut solver);
/// let a = sink.new_var().positive();
/// let b = sink.new_var().positive();
/// let g1 = sink.add_and_gate(a, b);
/// let g2 = sink.add_and_gate(b, a); // same gate, commuted
/// assert_eq!(g1, g2);
/// let folded = sink.add_and_gate(a, a); // x & x folds to x, no gate
/// assert_eq!(folded, a);
/// drop(sink);
/// assert_eq!(simp.stats().cache_hits, 1);
/// assert_eq!(simp.stats().gates_created, 1);
/// ```
#[derive(Debug)]
pub struct SimplifySink<'a, S: CnfSink + ?Sized> {
    simp: &'a mut Simplifier,
    inner: &'a mut S,
}

impl<S: CnfSink + ?Sized> SimplifySink<'_, S> {
    /// A literal constrained false in the inner sink (creating one on first
    /// use), for folding results like `a ∧ ¬a`.
    fn false_lit(&mut self) -> Lit {
        if let Some(f) = self.simp.known_false {
            return f;
        }
        let v = self.inner.new_var();
        self.inner.add_clause(&[v.negative()]);
        self.simp.learn_unit(v.negative());
        v.positive()
    }

    /// Emits the Tseitin cones of every still-pending gate `lit`
    /// (transitively) depends on. Call this before passing an encoder
    /// literal to the solver as an **assumption** — assumptions bypass
    /// `add_clause`, so this is the only way their defining clauses are
    /// guaranteed to exist.
    pub fn materialize(&mut self, lit: Lit) {
        if self.simp.pending(lit.var()).is_none() {
            return;
        }
        let mut stack = std::mem::take(&mut self.simp.stack);
        stack.push(lit.var());
        while let Some(&v) = stack.last() {
            let Some((a, b)) = self.simp.pending(v) else {
                stack.pop();
                continue;
            };
            let pa = self.simp.pending(a.var()).is_some();
            let pb = self.simp.pending(b.var()).is_some();
            if pa || pb {
                if pa {
                    stack.push(a.var());
                }
                if pb {
                    stack.push(b.var());
                }
                continue;
            }
            self.simp.pending[v.index()] = None;
            self.emit_gate(v.positive(), a, b);
            stack.pop();
        }
        self.simp.stack = stack;
    }

    /// Emits `out = a ∧ b` into the inner sink.
    fn emit_gate(&mut self, out: Lit, a: Lit, b: Lit) {
        self.inner.add_clause(&[!out, a]);
        self.inner.add_clause(&[!out, b]);
        self.inner.add_clause(&[out, !a, !b]);
        self.simp.stats.gates_emitted += 1;
    }
}

impl<S: CnfSink + ?Sized> CnfSink for SimplifySink<'_, S> {
    fn new_var(&mut self) -> Var {
        self.inner.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        self.simp.stats.clauses_in += 1;
        // Fold first, materializing only the cones of clauses that
        // actually survive — a cone referenced solely by dropped clauses
        // stays pending (the point of lazy emission).
        let mut kept = std::mem::take(&mut self.simp.kept);
        kept.clear();
        for &l in lits {
            match self.simp.lit_value(l) {
                Some(true) => {
                    self.simp.stats.clauses_dropped += 1;
                    self.simp.kept = kept;
                    return;
                }
                Some(false) => {
                    self.simp.stats.literals_stripped += 1;
                    continue;
                }
                None => {}
            }
            kept.push(l);
        }
        for &l in &kept {
            self.materialize(l);
        }
        if kept.len() == 1 {
            self.simp.learn_unit(kept[0]);
        }
        self.simp.stats.clauses_emitted += 1;
        self.inner.add_clause(&kept);
        self.simp.kept = kept;
    }

    fn add_and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.simp.stats.gate_queries += 1;
        // Constant and identity folding at the literal level.
        let va = self.simp.lit_value(a);
        let vb = self.simp.lit_value(b);
        if va == Some(false) {
            self.simp.stats.folded += 1;
            return a;
        }
        if vb == Some(false) {
            self.simp.stats.folded += 1;
            return b;
        }
        if va == Some(true) || a == b {
            self.simp.stats.folded += 1;
            return b;
        }
        if vb == Some(true) {
            self.simp.stats.folded += 1;
            return a;
        }
        if a == !b {
            self.simp.stats.folded += 1;
            return self.false_lit();
        }
        // Canonical operand order makes the table commutative.
        let key = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if let Some(&out) = self.simp.cache.get(&key) {
            self.simp.stats.cache_hits += 1;
            return out;
        }
        let out = self.inner.new_var().positive();
        self.simp.stats.gates_created += 1;
        *slot(&mut self.simp.pending, out.var()) = Some((a, b));
        self.simp.cache.insert(key, out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimacs::Cnf;
    use crate::solver::{SolveResult, Solver};

    fn setup() -> (Solver, Simplifier) {
        (Solver::new(), Simplifier::new())
    }

    #[test]
    fn structural_hashing_is_commutative_and_cross_call() {
        let (mut s, mut simp) = setup();
        let mut sink = simp.attach(&mut s);
        let a = sink.new_var().positive();
        let b = sink.new_var().positive();
        let g1 = sink.add_and_gate(a, b);
        let g2 = sink.add_and_gate(b, a);
        let g3 = sink.add_and_gate(a, b);
        assert_eq!(g1, g2);
        assert_eq!(g1, g3);
        assert_eq!(simp.stats().cache_hits, 2);
        assert_eq!(simp.stats().gates_created, 1);
    }

    #[test]
    fn folding_rules() {
        let (mut s, mut simp) = setup();
        let mut sink = simp.attach(&mut s);
        let a = sink.new_var().positive();
        let b = sink.new_var().positive();
        // Identity and contradiction.
        assert_eq!(sink.add_and_gate(a, a), a);
        let f = sink.add_and_gate(a, !a);
        assert_eq!(sink.add_and_gate(b, !b), f);
        // Constants learned from unit clauses.
        sink.add_clause(&[a]); // a is true
        assert_eq!(sink.add_and_gate(a, b), b);
        assert_eq!(sink.add_and_gate(b, f), f, "false annihilates");
        assert_eq!(simp.stats().folded, 5);
        assert_eq!(simp.stats().gates_created, 0);
    }

    #[test]
    fn lazy_emission_defers_until_referenced() {
        let (mut s, mut simp) = setup();
        let mut sink = simp.attach(&mut s);
        let a = sink.new_var().positive();
        let b = sink.new_var().positive();
        let c = sink.new_var().positive();
        let dead = sink.add_and_gate(a, b);
        let live = sink.add_and_gate(b, c);
        let before = s.stats().original_clauses;
        assert_eq!(before, 0, "no gate clauses before a reference");
        let mut sink = simp.attach(&mut s);
        sink.add_clause(&[live]);
        assert_eq!(s.stats().original_clauses, 4, "3 Tseitin + 1 unit");
        assert_eq!(simp.stats().gates_emitted, 1);
        assert_eq!(simp.stats().gates_elided(), 1);
        let _ = dead;
    }

    #[test]
    fn materialize_chain_emits_whole_cone() {
        let (mut s, mut simp) = setup();
        let mut sink = simp.attach(&mut s);
        let vars: Vec<Lit> = (0..4).map(|_| sink.new_var().positive()).collect();
        let g1 = sink.add_and_gate(vars[0], vars[1]);
        let g2 = sink.add_and_gate(g1, vars[2]);
        let g3 = sink.add_and_gate(g2, vars[3]);
        sink.materialize(g3);
        assert_eq!(simp.stats().gates_emitted, 3);
        // The materialized literal behaves like the conjunction.
        for v in &vars {
            s.add_clause(&[*v]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(g3), Some(true));
    }

    #[test]
    fn clause_folding_drops_satisfied_and_strips_false() {
        let (mut s, mut simp) = setup();
        let mut sink = simp.attach(&mut s);
        let a = sink.new_var().positive();
        let b = sink.new_var().positive();
        let c = sink.new_var().positive();
        sink.add_clause(&[a]);
        sink.add_clause(&[!b]);
        let emitted_before = simp.stats().clauses_emitted;
        let mut sink = simp.attach(&mut s);
        sink.add_clause(&[a, c]); // satisfied by a: dropped
        sink.add_clause(&[b, c]); // b stripped -> unit c
        assert_eq!(simp.stats().clauses_dropped, 1);
        assert_eq!(simp.stats().literals_stripped, 1);
        assert_eq!(simp.stats().clauses_emitted, emitted_before + 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(c), Some(true));
    }

    /// Equisatisfiability spot check: a small gate pyramid behaves the same
    /// with and without the simplifying layer under every input assignment.
    #[test]
    fn simplified_pyramid_matches_naive() {
        for assignment in 0u32..16 {
            let mut naive = Solver::new();
            let mut plain = Solver::new();
            let mut simp = Simplifier::new();

            let build = |sink: &mut dyn CnfSink| -> (Vec<Lit>, Lit) {
                let vars: Vec<Lit> = (0..4).map(|_| sink.new_var().positive()).collect();
                let l = sink.add_and_gate(vars[0], vars[1]);
                let r = sink.add_or_gate(vars[2], vars[3]);
                let top = sink.add_and_gate(l, r);
                (vars, top)
            };
            let (nv, nt) = build(&mut naive);
            let mut sink = simp.attach(&mut plain);
            let (sv, st) = build(&mut sink);
            sink.materialize(st);

            for (i, (&n, &s)) in nv.iter().zip(&sv).enumerate() {
                let value = (assignment >> i) & 1 == 1;
                naive.add_clause(&[if value { n } else { !n }]);
                plain.add_clause(&[if value { s } else { !s }]);
            }
            assert_eq!(naive.solve(), SolveResult::Sat);
            assert_eq!(plain.solve(), SolveResult::Sat);
            assert_eq!(
                naive.model_value(nt),
                plain.model_value(st),
                "assignment {assignment:04b}"
            );
        }
    }

    #[test]
    fn materialize_outside_the_tables_is_a_no_op() {
        let mut cnf = Cnf::new();
        let mut simp = Simplifier::new();
        let mut sink = simp.attach(&mut cnf);
        let a = sink.new_var().positive();
        let b = sink.new_var().positive();
        let g = sink.add_and_gate(a, b);
        // One past the pending table's end, and far beyond it.
        let next = sink.new_var();
        assert_eq!(next.index(), g.var().index() + 1);
        sink.materialize(next.positive());
        sink.materialize(Var::from_index(1 << 20).negative());
        // A variable the simplifier never saw, below the table's end.
        sink.materialize(a);
        assert_eq!(cnf.num_clauses(), 0);
        assert_eq!(simp.stats().gates_emitted, 0);
        simp.attach(&mut cnf).materialize(!g);
        assert_eq!(cnf.num_clauses(), 3);
    }

    #[test]
    fn units_on_high_variables_grow_the_table() {
        let mut cnf = Cnf::new();
        let mut simp = Simplifier::new();
        let mut sink = simp.attach(&mut cnf);
        let a = sink.new_var().positive();
        let high = Var::from_index(100_000).positive();
        sink.add_clause(&[high]);
        assert_eq!(sink.add_and_gate(high, a), a, "true operand folds away");
        assert_eq!(sink.add_and_gate(a, !high), !high, "false annihilates");
        sink.add_clause(&[!high, a]); // !high stripped: unit a
        assert_eq!(simp.stats().folded, 2);
        assert_eq!(simp.stats().literals_stripped, 1);
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(clauses, [&[high][..], &[a][..]]);
    }

    #[test]
    fn commuted_gate_hits_after_emission() {
        let mut cnf = Cnf::new();
        let mut simp = Simplifier::new();
        let mut sink = simp.attach(&mut cnf);
        let a = sink.new_var().positive();
        let b = sink.new_var().negative();
        let g = sink.add_and_gate(a, b);
        sink.add_clause(&[g]);
        let emitted = cnf.num_clauses();
        assert_eq!(emitted, 4, "3 Tseitin + 1 unit");
        let mut sink = simp.attach(&mut cnf);
        assert_eq!(sink.add_and_gate(b, a), g);
        sink.add_clause(&[g, a]); // satisfied by the unit g: dropped
        assert_eq!(cnf.num_clauses(), emitted, "no second emission");
        assert_eq!(simp.stats().cache_hits, 1);
        assert_eq!(simp.stats().gates_emitted, 1);
    }
}
