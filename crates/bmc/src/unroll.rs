//! Transition-relation unrolling: AIG frames to CNF.
//!
//! The unroller instantiates the design's combinational core once per time
//! frame, Tseitin-encoding AND gates and wiring latch outputs at frame `k+1`
//! to their next-state literals at frame `k`. Constants are folded at the
//! literal level, so zero-initialized state collapses large cones in early
//! frames.
//!
//! Unrolling is **bound-to-bound incremental**: the per-frame literal
//! maps persist in the `Unroller`, and [`Unroller::extend`] emits only
//! the *new* frame's clauses into the sink — nothing already encoded is
//! revisited. That is what lets `BmcEngine` keep one long-lived solver
//! across its whole bound loop (see [`crate::PipelineOptions::incremental`]).
//!
//! Three latch-handling modes support the different BMC configurations:
//!
//! * plain (anchored or floating initial state) — latch outputs reuse the
//!   previous frame's next-state literal structurally, adding no clauses;
//! * **selector mode** (`latch_selectors`) — each latch's transition link and
//!   initial-value constraint are guarded by a per-latch selector literal.
//!   Solving under the selectors and reading the failed assumptions yields
//!   the *latch reasons* of proof-based abstraction (`Get_Latch_Reasons` in
//!   the paper's Fig. 1/3);
//! * **frozen abstraction** (`kept_latches`) — latches outside the kept set
//!   become pseudo-primary inputs outright (fresh unconstrained variables
//!   per frame), the paper's reduced model.
//!
//! Environment constraints are the one part of a frame that can rule out
//! behaviour of earlier frames (a constraint over a latch constrains the
//! previous frame's next-state logic). Each frame's constraints are
//! therefore guarded by a literal of that frame, and a query at bound `i`
//! assumes the guards of frames `0..=i` ([`Unroller::constraint_guards`]),
//! so frames unrolled past the bound leave its answer alone.

use emm_aig::{Bit, Design, InputKind, LatchInit, Node, Word};
use emm_core::{MemoryFrameLits, PortLits};
use emm_sat::{CnfSink, Lit};

/// Unroller configuration.
#[derive(Clone, Debug, Default)]
pub struct UnrollConfig {
    /// Anchor frame 0 at the design's initial state. `false` gives the
    /// floating window used by backward-induction checks.
    pub initial_state: bool,
    /// Create a selector literal per latch guarding its transition/init
    /// constraints (for PBA reason discovery).
    pub latch_selectors: bool,
    /// When set, latches whose entry is `false` are freed (abstracted to
    /// pseudo-primary inputs). Length must equal the design's latch count.
    pub kept_latches: Option<Vec<bool>>,
}

/// Per-frame literal maps over a design.
///
/// The unroller does not borrow the design: every method that needs the
/// graph takes it as a parameter, so an engine can own both the (possibly
/// preprocessed) design and its unrollers in one struct. Callers must pass
/// the *same* design to every call — frame literal maps are indexed by its
/// node ids.
#[derive(Debug)]
pub struct Unroller {
    config: UnrollConfig,
    /// A literal fixed to false (for mapping AIG constants).
    const_false: Lit,
    /// `frames[k][node]` = literal of that node at frame `k`.
    frames: Vec<Vec<Lit>>,
    /// Selector literal per latch (selector mode only).
    latch_sel: Vec<Lit>,
    /// `guards[k]` guards the environment constraints of frame `k`; empty
    /// for a design without constraints.
    guards: Vec<Lit>,
}

impl Unroller {
    /// Creates an unroller; no frames exist yet.
    ///
    /// `sink` is any [`CnfSink`]: a live [`Solver`](emm_sat::Solver), a
    /// [`SimplifySink`](emm_sat::SimplifySink) wrapping one, or a counting
    /// sink for size experiments. The same sink (or at least the same
    /// underlying variable space) and the same design must be used for
    /// every later [`Unroller::extend`].
    ///
    /// # Panics
    ///
    /// Panics if the design fails [`Design::check`] or `kept_latches` has
    /// the wrong length.
    pub fn new<S: CnfSink + ?Sized>(
        design: &Design,
        sink: &mut S,
        config: UnrollConfig,
    ) -> Unroller {
        design.check().expect("design must be well-formed");
        if let Some(kept) = &config.kept_latches {
            assert_eq!(kept.len(), design.num_latches(), "kept mask length");
        }
        let cf = sink.new_var().positive();
        sink.add_clause(&[!cf]);
        let latch_sel = if config.latch_selectors {
            (0..design.num_latches())
                .map(|_| sink.new_var().positive())
                .collect()
        } else {
            Vec::new()
        };
        Unroller {
            config,
            const_false: cf,
            frames: Vec::new(),
            latch_sel,
            guards: Vec::new(),
        }
    }

    /// Number of frames unrolled so far.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Per-latch selector literals (selector mode only, else empty).
    pub fn latch_selectors(&self) -> &[Lit] {
        &self.latch_sel
    }

    /// The literals guarding the environment constraints of frames
    /// `0..=bound` (those unrolled so far): a query at `bound` assumes
    /// them. Empty for a design without constraints.
    pub fn constraint_guards(&self, bound: usize) -> &[Lit] {
        &self.guards[..self.guards.len().min(bound + 1)]
    }

    /// Literal of `bit` at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` has not been unrolled.
    pub fn lit(&self, frame: usize, bit: Bit) -> Lit {
        let base = self.frames[frame][bit.node().index()];
        if bit.is_inverted() {
            !base
        } else {
            base
        }
    }

    /// Literals of a word at `frame`.
    pub fn word_lits(&self, frame: usize, word: &Word) -> Vec<Lit> {
        word.bits().iter().map(|&b| self.lit(frame, b)).collect()
    }

    /// Literals of every latch output at `frame` (for loop-free-path
    /// constraints and trace extraction).
    pub fn latch_lits(&self, design: &Design, frame: usize) -> Vec<Lit> {
        design
            .latches()
            .iter()
            .map(|l| self.lit(frame, l.output))
            .collect()
    }

    /// Unrolls the next frame, returning its index.
    pub fn extend<S: CnfSink + ?Sized>(&mut self, design: &Design, sink: &mut S) -> usize {
        let k = self.frames.len();
        let mut map: Vec<Lit> = Vec::with_capacity(design.aig.num_nodes());
        let tru = !self.const_false;
        let fal = self.const_false;
        for (id, node) in design.aig.iter() {
            let lit = match node {
                Node::Const => fal,
                Node::Input(i) => match design.input_kind(i as usize) {
                    InputKind::Free | InputKind::ReadData(..) => sink.new_var().positive(),
                    InputKind::Latch(l) => {
                        let li = l.0 as usize;
                        let latch = &design.latches()[li];
                        let kept = self
                            .config
                            .kept_latches
                            .as_ref()
                            .map(|m| m[li])
                            .unwrap_or(true);
                        if !kept {
                            // Abstracted: a fresh pseudo-primary input.
                            sink.new_var().positive()
                        } else if self.config.latch_selectors {
                            // Guarded link to init / previous next-state.
                            let v = sink.new_var().positive();
                            let sel = self.latch_sel[li];
                            if k == 0 {
                                if self.config.initial_state {
                                    match latch.init {
                                        LatchInit::Zero => {
                                            sink.add_clause(&[!sel, !v]);
                                        }
                                        LatchInit::One => {
                                            sink.add_clause(&[!sel, v]);
                                        }
                                        LatchInit::Free => {}
                                    }
                                }
                            } else {
                                let n = self.lit(k - 1, latch.next.expect("checked"));
                                sink.add_clause(&[!sel, !v, n]);
                                sink.add_clause(&[!sel, v, !n]);
                            }
                            v
                        } else if k == 0 {
                            if self.config.initial_state {
                                match latch.init {
                                    LatchInit::Zero => fal,
                                    LatchInit::One => tru,
                                    LatchInit::Free => sink.new_var().positive(),
                                }
                            } else {
                                sink.new_var().positive()
                            }
                        } else {
                            // Structural reuse: no new variable or clause.
                            self.lit(k - 1, latch.next.expect("checked"))
                        }
                    }
                },
                Node::And(a, b) => {
                    let x = apply(&map, a);
                    let y = apply(&map, b);
                    self.encode_and(sink, x, y)
                }
            };
            debug_assert_eq!(id.index(), map.len());
            map.push(lit);
        }
        self.frames.push(map);
        // Environment constraints hold at every frame, under the frame's
        // guard.
        if !design.constraints().is_empty() {
            let guard = sink.new_var().positive();
            for &c in design.constraints() {
                let l = self.lit(k, c);
                sink.add_clause(&[!guard, l]);
            }
            self.guards.push(guard);
        }
        k
    }

    /// AND gate with literal-level constant folding; the gate itself goes
    /// through the sink, so a [`SimplifySink`](emm_sat::SimplifySink) can
    /// additionally intern or defer it.
    fn encode_and<S: CnfSink + ?Sized>(&self, sink: &mut S, a: Lit, b: Lit) -> Lit {
        let tru = !self.const_false;
        let fal = self.const_false;
        if a == fal || b == fal || a == !b {
            return fal;
        }
        if a == tru || a == b {
            return b;
        }
        if b == tru {
            return a;
        }
        sink.add_and_gate(a, b)
    }

    /// A literal that is always false in this solver (handy for callers).
    pub fn const_false(&self) -> Lit {
        self.const_false
    }

    /// Interface literals of memory `mem` at `frame`, for the EMM encoder.
    pub fn memory_frame_lits(&self, design: &Design, frame: usize, mem: usize) -> MemoryFrameLits {
        let m = &design.memories()[mem];
        MemoryFrameLits {
            reads: m
                .read_ports
                .iter()
                .map(|p| PortLits {
                    addr: self.word_lits(frame, &p.addr),
                    en: self.lit(frame, p.en),
                    data: self.word_lits(frame, &p.data),
                })
                .collect(),
            writes: m
                .write_ports
                .iter()
                .map(|p| PortLits {
                    addr: self.word_lits(frame, &p.addr),
                    en: self.lit(frame, p.en),
                    data: self.word_lits(frame, &p.data),
                })
                .collect(),
        }
    }
}

fn apply(map: &[Lit], bit: Bit) -> Lit {
    let base = map[bit.node().index()];
    if bit.is_inverted() {
        !base
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emm_aig::{Design, LatchInit};
    use emm_sat::{SolveResult, Solver};

    fn counter(width: usize, bad_at: u64) -> Design {
        let mut d = Design::new();
        let count = d.new_latch_word("count", width, LatchInit::Zero);
        let next = d.aig.inc(&count);
        d.set_next_word(&count, &next);
        let bad = d.aig.eq_const(&count, bad_at);
        d.add_property("p", bad);
        d.check().expect("valid");
        d
    }

    #[test]
    fn unrolled_counter_values_are_forced() {
        let d = counter(4, 9);
        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: true,
                ..UnrollConfig::default()
            },
        );
        for _ in 0..6 {
            u.extend(&d, &mut s);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let count_word = Word::from(d.latches().iter().map(|l| l.output).collect::<Vec<_>>());
        for k in 0..6u64 {
            let lits = u.word_lits(k as usize, &count_word);
            let v: u64 = lits
                .iter()
                .enumerate()
                .map(|(i, &l)| (s.model_value(l).expect("model") as u64) << i)
                .sum();
            assert_eq!(v, k, "frame {k}");
        }
    }

    #[test]
    fn bad_literal_reachable_exactly_at_depth() {
        let d = counter(4, 5);
        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: true,
                ..UnrollConfig::default()
            },
        );
        for k in 0..8 {
            u.extend(&d, &mut s);
            let bad = u.lit(k, d.properties()[0].bad);
            let expect = if k == 5 {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(s.solve_with(&[bad]), expect, "depth {k}");
        }
    }

    #[test]
    fn floating_window_starts_anywhere() {
        let d = counter(4, 5);
        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: false,
                ..UnrollConfig::default()
            },
        );
        u.extend(&d, &mut s);
        let bad = u.lit(0, d.properties()[0].bad);
        // Unanchored: the bad state is immediately "reachable".
        assert_eq!(s.solve_with(&[bad]), SolveResult::Sat);
    }

    #[test]
    fn frozen_abstraction_frees_latches() {
        let d = counter(4, 5);
        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: true,
                kept_latches: Some(vec![false; 4]),
                ..UnrollConfig::default()
            },
        );
        u.extend(&d, &mut s);
        let bad = u.lit(0, d.properties()[0].bad);
        // All latches freed: counter value is unconstrained even at frame 0.
        assert_eq!(s.solve_with(&[bad]), SolveResult::Sat);
    }

    #[test]
    fn latch_selectors_gate_the_transition() {
        let d = counter(4, 5);
        let mut s = Solver::new();
        let mut u = Unroller::new(
            &d,
            &mut s,
            UnrollConfig {
                initial_state: true,
                latch_selectors: true,
                ..UnrollConfig::default()
            },
        );
        u.extend(&d, &mut s);
        let bad = u.lit(0, d.properties()[0].bad);
        let sels: Vec<Lit> = u.latch_selectors().to_vec();
        assert_eq!(sels.len(), 4);
        // Without selectors assumed the initial state is unconstrained.
        assert_eq!(s.solve_with(&[bad]), SolveResult::Sat);
        // With selectors the initial state pins count to 0, so bad@0 fails.
        let mut assumptions = sels.clone();
        assumptions.push(bad);
        assert_eq!(s.solve_with(&assumptions), SolveResult::Unsat);
        // The failed assumptions identify (a subset of) the latch reasons.
        let failed = s.failed_assumptions().to_vec();
        assert!(failed.iter().any(|l| sels.contains(l) || *l == bad));
    }

    #[test]
    fn constraints_hold_under_their_frame_guards() {
        // Constraint: input stays 0. Property: input is 1.
        let mut d = Design::new();
        let i = d.new_input("i");
        d.add_constraint(!i);
        d.add_property("p", i);
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
        for k in 0..3 {
            u.extend(&d, &mut s);
            let bad = u.lit(k, d.properties()[0].bad);
            let mut assumptions = u.constraint_guards(k).to_vec();
            assert_eq!(assumptions.len(), k + 1);
            assumptions.push(bad);
            assert_eq!(s.solve_with(&assumptions), SolveResult::Unsat, "depth {k}");
            // Only the guarded frames are constrained.
            assert_eq!(s.solve_with(&[bad]), SolveResult::Sat, "depth {k}");
        }
        assert_eq!(u.constraint_guards(0).len(), 1);
    }
}
