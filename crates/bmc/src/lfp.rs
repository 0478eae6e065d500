//! Loop-free-path (`LFP`) constraints for the induction-style termination
//! checks of SAT-based BMC ([19] in the paper; lines 5–7 of Fig. 1 and 6–8
//! of Fig. 3).
//!
//! `LFP_i` states that the system states at frames `0..=i` are pairwise
//! distinct. Its pair rows are added permanently to the solver but
//! *activated* by an assumption literal, so counterexample checks on the
//! same solver simply do not assume it.
//!
//! ## Scoped by bound
//!
//! A query at bound `i` enforces exactly `LFP_i`, however many frames its
//! context has unrolled: [`LfpBuilder::solve`] reads repeated pairs from
//! frames `0..=i` only, and a row whose later frame lies past `i` would
//! constrain the bound's frames through the transition relation. When
//! such rows exist, `solve` retires the activation literal (asserts its
//! negation, which satisfies every row it guards) and draws a fresh one.
//! The rows a query needs come back on demand. A run whose bound only
//! grows never holds a row past its bound, so it never retires.
//!
//! ## Rows on demand
//!
//! `LFP_i` has `O(i²)` pair rows, and almost none of them ever decide a
//! query. [`LfpBuilder::add_frame`] therefore only records a frame's
//! literals; [`LfpBuilder::solve`] adds rows lazily, as Eén & Sörensson
//! do for simple-path constraints ("Temporal Induction by Incremental
//! SAT Solving", BMC 2003). It solves with the rows emitted so far; on
//! SAT it reads every frame's state from the model, emits the row of
//! each frame pair the model repeats, and solves again. The answer is
//! exactly that of the full encoding: UNSAT under a subset of the rows
//! implies UNSAT under all of them, and SAT is accepted only from a
//! model that repeats no pair, which the rows still missing cannot rule
//! out (their difference variables are fresh, so the model extends to
//! satisfy them). A row, once emitted, holds in every later model, so
//! each round adds only new rows and the loop ends.
//!
//! ## State under EMM
//!
//! With EMM the system state is the latches *plus the memory contents*,
//! but the whole point of the encoding is never to bit-blast the latter —
//! so frame-equality over memories cannot be compared directly. The sound
//! under-approximation used here prunes a pair of frames only when the
//! states are *provably* equal: all kept latches match **and no enabled
//! write separates the two frames** (memory contents at frame `j` equal
//! those at frame `i < j` whenever no write fired in frames `i..j-1`).
//! Each pair clause therefore carries the intervening write-enable
//! literals as additional "the states may differ" disjuncts. A write that
//! happens to store the value already present keeps the pair alive — a
//! completeness loss only, never a soundness one. Without this, a design
//! whose memory acts as state (say, a cell used as an extra counter) has
//! counterexamples deeper than its latch diameter, and a latch-only LFP
//! would prune every long window and "prove" the property.
//!
//! With an abstraction in force, only the *kept* latches constitute state;
//! freed latches are pseudo-primary inputs and must not count toward state
//! distinctness (otherwise no two frames would ever be provably equal).
//! Likewise only *kept* memories contribute write activity: a dropped
//! memory's reads are unconstrained pseudo-inputs, so it is not state in
//! the abstract model and its writes cannot distinguish frames.

use std::time::Instant;

use emm_sat::{CnfSink, Lit, Simplifier, SolveResult, Solver};

/// The frames `j < k` whose state frame `k` repeats: `states[j] ==
/// states[k]` (the kept latches) and no write enabled in frames `j..k`
/// (`wrote[j..k]`). This is the one definition of a repeated pair, read
/// from a solver model by [`LfpBuilder::solve`] and from a concrete run
/// by [`SimplePath::push`]. Reads `states[..=k]` and `wrote[..k]`.
fn repeats<'a, S: PartialEq>(
    states: &'a [S],
    wrote: &[bool],
    k: usize,
) -> impl Iterator<Item = usize> + 'a {
    // A write at frame w < k separates every frame j <= w from k.
    let first = wrote[..k].iter().rposition(|&w| w).map_or(0, |w| w + 1);
    (first..k).filter(move |&j| states[j] == states[k])
}

/// A concrete run's frames as LFP sees them: per frame the kept latches'
/// values (`S`, in any representation with equality) and whether a kept
/// memory's write fired. [`SimplePath::push`] holds the rules a simulated
/// run must keep to be a model of a termination or step query, written
/// once for the engine's forward witness and its floating bank.
#[derive(Clone, Debug)]
pub(crate) struct SimplePath<S> {
    states: Vec<S>,
    wrote: Vec<bool>,
}

impl<S: PartialEq> SimplePath<S> {
    /// A path of no frames.
    pub(crate) fn new() -> Self {
        SimplePath {
            states: Vec::new(),
            wrote: Vec::new(),
        }
    }

    /// Appends the next frame, its kept-latch `state` and whether a kept
    /// write fired in it, when the frame is `clean` (it met every
    /// environment constraint and raced no write) and repeats no earlier
    /// frame under [`repeats`]. Otherwise leaves the path as it was.
    /// Returns whether the frame joined.
    pub(crate) fn push(&mut self, clean: bool, state: S, wrote: bool) -> bool {
        if !clean {
            return false;
        }
        let k = self.states.len();
        self.states.push(state);
        self.wrote.push(wrote);
        let joined = repeats(&self.states, &self.wrote, k).next().is_none();
        if !joined {
            self.states.pop();
            self.wrote.pop();
        }
        joined
    }
}

/// Incremental builder of pairwise-distinct-state constraints.
#[derive(Debug)]
pub struct LfpBuilder {
    /// Activation literal of the live rows, assumed by
    /// [`LfpBuilder::solve`].
    activation: Lit,
    /// The latest frame any live row mentions.
    deepest_row: Option<usize>,
    /// Latch literals per recorded frame (already filtered to kept latches).
    frames: Vec<Vec<Lit>>,
    /// Write-activity literals per recorded frame: an enabled write at
    /// frame `t` means the memory contents at `t+1` may differ from `t`.
    write_frames: Vec<Vec<Lit>>,
    /// Positions (into the unfiltered latch vector) that participate.
    kept_positions: Vec<usize>,
}

impl LfpBuilder {
    /// Creates a builder over `num_latches` latches, restricted to
    /// `kept_latches` when given.
    pub fn new<S: CnfSink + ?Sized>(
        sink: &mut S,
        num_latches: usize,
        kept_latches: Option<&[bool]>,
    ) -> Self {
        let kept_positions = match kept_latches {
            None => (0..num_latches).collect(),
            Some(mask) => {
                assert_eq!(mask.len(), num_latches);
                mask.iter()
                    .enumerate()
                    .filter(|(_, &k)| k)
                    .map(|(i, _)| i)
                    .collect()
            }
        };
        LfpBuilder {
            activation: sink.new_var().positive(),
            deepest_row: None,
            frames: Vec::new(),
            write_frames: Vec::new(),
            kept_positions,
        }
    }

    /// Records the next frame's latch literals (the full, unfiltered
    /// vector) and its write-activity literals (the enable of every
    /// kept-memory write port at that frame). Emits nothing: rows are
    /// added on demand by [`LfpBuilder::solve`].
    pub fn add_frame(&mut self, latch_lits: &[Lit], write_lits: &[Lit]) {
        self.frames
            .push(self.kept_positions.iter().map(|&i| latch_lits[i]).collect());
        self.write_frames.push(write_lits.to_vec());
    }

    /// The literals [`LfpBuilder::solve`] reads from the model at frame
    /// `k`: its kept latches and write enables. Under lazy gate emission
    /// a caller must materialize them, or the model leaves them
    /// unconstrained.
    pub fn frame_lits(&self, k: usize) -> impl Iterator<Item = Lit> + '_ {
        self.frames[k].iter().chain(&self.write_frames[k]).copied()
    }

    /// Solves `solver` under `assumptions` with `LFP_bound` (frames
    /// `0..=bound` pairwise distinct) enforced, emitting pair rows on
    /// demand and retiring rows past `bound` (see the module docs). Rows
    /// go through `simplify` when the context has one. The solver's
    /// [`Budget`](emm_sat::Budget) applies to each `solve_with` round, not
    /// to the query as a whole. Time spent solving is added to
    /// `solve_seconds`, time spent checking models and emitting rows to
    /// `encode_seconds`.
    pub fn solve(
        &mut self,
        solver: &mut Solver,
        mut simplify: Option<&mut Simplifier>,
        bound: usize,
        assumptions: &[Lit],
        encode_seconds: &mut f64,
        solve_seconds: &mut f64,
    ) -> SolveResult {
        if self.deepest_row.is_some_and(|k| k > bound) {
            solver.add_clause(&[!self.activation]);
            self.activation = solver.new_var().positive();
            self.deepest_row = None;
        }
        let mut assumptions = assumptions.to_vec();
        assumptions.push(self.activation);
        loop {
            let started = Instant::now();
            let result = solver.solve_with(&assumptions);
            *solve_seconds += started.elapsed().as_secs_f64();
            if result != SolveResult::Sat {
                return result;
            }
            let started = Instant::now();
            let repeated = self.repeated_pairs(solver, bound);
            let mut attached;
            let sink: &mut dyn CnfSink = match simplify.as_deref_mut() {
                Some(simp) => {
                    attached = simp.attach(&mut *solver);
                    &mut attached
                }
                None => &mut *solver,
            };
            for &(j, k) in &repeated {
                self.add_pair(sink, j, k);
                self.deepest_row = self.deepest_row.max(Some(k));
            }
            *encode_seconds += started.elapsed().as_secs_f64();
            if repeated.is_empty() {
                return SolveResult::Sat;
            }
        }
    }

    /// Every frame pair `(j, k)`, `j < k <= bound`, that the solver's
    /// model shows as the same state: equal kept latches and no write
    /// enabled in frames `j..k`. Sorted by `k`, then `j`, so emission
    /// order (and with it every later solve) is deterministic.
    fn repeated_pairs(&self, solver: &Solver, bound: usize) -> Vec<(usize, usize)> {
        let value = |l: Lit| solver.model_value(l).unwrap_or(false);
        let states: Vec<Vec<bool>> = self.frames[..=bound]
            .iter()
            .map(|f| f.iter().map(|&l| value(l)).collect())
            .collect();
        let wrote: Vec<bool> = self.write_frames[..bound]
            .iter()
            .map(|ws| ws.iter().any(|&l| value(l)))
            .collect();
        (1..states.len())
            .flat_map(|k| repeats(&states, &wrote, k).map(move |j| (j, k)))
            .collect()
    }

    /// The states at frames `j < k` must differ in some kept latch, or an
    /// enabled write in frames `j..k` may have changed the memory
    /// contents.
    fn add_pair<S: CnfSink + ?Sized>(&self, sink: &mut S, j: usize, k: usize) {
        let mut any_diff: Vec<Lit> = Vec::with_capacity(self.frames[k].len() + 1);
        any_diff.push(!self.activation);
        for (&a, &b) in self.frames[j].iter().zip(&self.frames[k]) {
            if a == b {
                // Identical literals can never differ; contribute nothing.
                continue;
            }
            if a == !b {
                // Provably different: the pair constraint is trivially met.
                return;
            }
            let x = sink.new_var().positive();
            // x -> (a != b)
            sink.add_clause(&[!x, a, b]);
            sink.add_clause(&[!x, !a, !b]);
            any_diff.push(x);
        }
        for ws in &self.write_frames[j..k] {
            any_diff.extend_from_slice(ws);
        }
        // If nothing can differ, the clause degenerates to !activation:
        // assuming activation then gives immediate UNSAT, which is exactly
        // the right semantics (two frames are provably equal).
        sink.add_clause(&any_diff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unroll::{UnrollConfig, Unroller};
    use emm_aig::{Design, LatchInit};

    /// Solves with `LFP_bound` enforced on a bare solver, timings
    /// discarded.
    fn solve_lfp(lfp: &mut LfpBuilder, s: &mut Solver, bound: usize) -> SolveResult {
        lfp.solve(s, None, bound, &[], &mut 0.0, &mut 0.0)
    }

    /// A modulo-`m` counter design over `width` bits.
    fn mod_counter(width: usize, modulo: u64) -> Design {
        let mut d = Design::new();
        let count = d.new_latch_word("count", width, LatchInit::Zero);
        let inc = d.aig.inc(&count);
        let wrap = d.aig.eq_const(&count, modulo - 1);
        let zero = d.aig.const_word(0, width);
        let next = d.aig.mux_word(wrap, &zero, &inc);
        d.set_next_word(&count, &next);
        d.add_property("dummy", emm_aig::Aig::FALSE);
        d.check().expect("valid");
        d
    }

    /// The forward termination check I ∧ LFP_i becomes UNSAT exactly when
    /// the path length exceeds the number of distinct reachable states.
    #[test]
    fn forward_diameter_of_mod_counter() {
        let modulo = 5u64;
        let d = mod_counter(3, modulo);
        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: true,
                ..UnrollConfig::default()
            },
        );
        let mut lfp = LfpBuilder::new(&mut s, d.num_latches(), None);
        // A mod-5 counter has 5 distinct states: paths with 5 transitions
        // (6 states) must revisit.
        for k in 0..8usize {
            u.extend(&d, &mut s);
            lfp.add_frame(&u.latch_lits(&d, k), &[]);
            let result = solve_lfp(&mut lfp, &mut s, k);
            let expect = if (k as u64) < modulo {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(result, expect, "depth {k}");
        }
    }

    /// Rows emitted on demand are inert without the activation assumption.
    #[test]
    fn inactive_lfp_does_not_constrain() {
        let d = mod_counter(3, 2);
        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: true,
                ..UnrollConfig::default()
            },
        );
        let mut lfp = LfpBuilder::new(&mut s, d.num_latches(), None);
        for k in 0..6 {
            u.extend(&d, &mut s);
            lfp.add_frame(&u.latch_lits(&d, k), &[]);
        }
        assert_eq!(solve_lfp(&mut lfp, &mut s, 5), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat, "plain model stays satisfiable");
    }

    /// Restricting state to a kept subset changes the effective diameter.
    #[test]
    fn kept_mask_shrinks_state() {
        // Two independent counters; keep only the 1-bit one.
        let mut d = Design::new();
        let small = d.new_latch_word("small", 1, LatchInit::Zero);
        let ns = d.aig.word_not(&small);
        d.set_next_word(&small, &ns);
        let big = d.new_latch_word("big", 3, LatchInit::Zero);
        let nb = d.aig.inc(&big);
        d.set_next_word(&big, &nb);
        d.add_property("dummy", emm_aig::Aig::FALSE);
        d.check().expect("valid");

        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: true,
                ..UnrollConfig::default()
            },
        );
        let kept = vec![true, false, false, false]; // only the toggle bit
        let mut lfp = LfpBuilder::new(&mut s, d.num_latches(), Some(&kept));
        for k in 0..4 {
            u.extend(&d, &mut s);
            lfp.add_frame(&u.latch_lits(&d, k), &[]);
        }
        // The toggle alone has 2 states; 3 frames must repeat.
        assert_eq!(solve_lfp(&mut lfp, &mut s, 3), SolveResult::Unsat);
    }
}
