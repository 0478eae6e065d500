//! Post-simplification DIMACS dumps of BMC instances, for external-solver
//! cross-checks.
//!
//! [`dump_bmc_cnf`] runs the exact clause pipeline of [`crate::BmcEngine`]
//! — [`Unroller`] unrolling, [`EmmEncoder`] memory constraints, and (when
//! enabled) the cross-frame [`Simplifier`] — but writes straight into a
//! [`Cnf`], the flat clause store that is itself a [`CnfSink`], instead of
//! the in-tree CDCL solver. The result is **satisfiable iff the selected
//! property is falsifiable within the requested depth**, ready to be
//! handed to any external DIMACS solver:
//!
//! * the query assumptions become unit clauses — a standalone instance
//!   has no assumption interface: the EMM encoder's active assumptions
//!   (exclusivity selectors) and the guards of every frame's environment
//!   constraints, so every constraint holds at every frame;
//! * the per-frame bad literals are materialized through the simplifier
//!   (emitting any lazily held gate clauses) and disjoined into one
//!   final clause.
//!
//! Because the dump shares the encoders with the live engine, its clause
//! and variable counts are the honest "what the solver saw" numbers for
//! the simplification settings in force — the corpus bench runner records
//! them per frontend file.

use emm_aig::Design;
use emm_core::{EmmEncoder, MemoryShape};
use emm_sat::dimacs::Cnf;
use emm_sat::simplify::Simplifier;
use emm_sat::{CnfSink, Lit};

use crate::options::VerifyOptions;
use crate::unroll::{UnrollConfig, Unroller};

/// Error from [`dump_bmc_cnf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpDimacsError {
    /// The property index does not exist in the design.
    PropertyOutOfRange {
        /// The requested index.
        property: usize,
        /// Number of properties the design has.
        available: usize,
    },
    /// The design failed [`Design::check`].
    Malformed(String),
}

impl std::fmt::Display for DumpDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpDimacsError::PropertyOutOfRange {
                property,
                available,
            } => write!(
                f,
                "property index {property} out of range (design has {available})"
            ),
            DumpDimacsError::Malformed(msg) => write!(f, "malformed design: {msg}"),
        }
    }
}

impl std::error::Error for DumpDimacsError {}

/// A dumped BMC instance: the CNF plus the literals that give it meaning.
#[derive(Debug, Clone)]
pub struct BmcCnf {
    /// The clauses, bad-disjunction and assumption units included.
    pub cnf: Cnf,
    /// The property index the dump encodes.
    pub property: usize,
    /// The inclusive depth bound.
    pub depth: usize,
    /// The materialized bad literal per frame `0..=depth`; their
    /// disjunction is the last clause of [`BmcCnf::cnf`].
    pub bad_lits: Vec<Lit>,
    /// The query assumptions asserted as unit clauses: the EMM selectors,
    /// then the constraint guards of frames `0..=depth`.
    pub assumptions: Vec<Lit>,
}

impl BmcCnf {
    /// Variables in the instance.
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars()
    }

    /// Clauses in the instance.
    pub fn num_clauses(&self) -> usize {
        self.cnf.num_clauses()
    }

    /// Renders the instance as DIMACS text with a comment header that
    /// records what the instance means.
    pub fn to_dimacs(&self) -> String {
        let what = format!(
            "emm-bmc dump: property {} through depth {}",
            self.property, self.depth
        );
        self.cnf.to_dimacs_with_comments(&[
            &what,
            "satisfiable iff the property is falsifiable within the depth",
        ])
    }
}

/// Dumps the BMC instance for `property` of `design` through `depth`
/// frames (inclusive) as post-simplification CNF.
///
/// The pipeline options honoured are `options.pipeline.simplify` and
/// `options.pipeline.emm`; the design is encoded as handed in (callers
/// wanting the rewrite/fraig reduction should pre-reduce with
/// [`crate::ReducedModel`] and dump the reduced copy).
///
/// # Errors
///
/// Returns [`DumpDimacsError`] when the property index is out of range or
/// the design is malformed.
pub fn dump_bmc_cnf(
    design: &Design,
    property: usize,
    depth: usize,
    options: VerifyOptions,
) -> Result<BmcCnf, DumpDimacsError> {
    design
        .check()
        .map_err(|e| DumpDimacsError::Malformed(e.to_string()))?;
    if property >= design.properties().len() {
        return Err(DumpDimacsError::PropertyOutOfRange {
            property,
            available: design.properties().len(),
        });
    }

    let mut cnf = Cnf::new();
    let mut simplify = options.pipeline.simplify.enabled.then(Simplifier::new);
    let unroll_config = UnrollConfig {
        initial_state: true,
        latch_selectors: false,
        kept_latches: None,
    };
    let mut unroller = match &mut simplify {
        Some(simp) => Unroller::new(design, &mut simp.attach(&mut cnf), unroll_config),
        None => Unroller::new(design, &mut cnf, unroll_config),
    };
    let shapes: Vec<MemoryShape> = design
        .memories()
        .iter()
        .map(|m| MemoryShape {
            addr_width: m.addr_width,
            data_width: m.data_width,
            read_ports: m.read_ports.len(),
            write_ports: m.write_ports.len(),
            arbitrary_init: matches!(m.init, emm_aig::MemInit::Arbitrary),
        })
        .collect();
    let mut emm = EmmEncoder::new(&shapes, options.pipeline.emm);

    // Mirror of the engine's `extend_one`: one transition frame, then the
    // EMM constraints of every memory at that frame.
    let extend = |unroller: &mut Unroller, emm: &mut EmmEncoder, sink: &mut dyn CnfSink| {
        let frame = unroller.extend(design, sink);
        let frames: Vec<_> = (0..design.memories().len())
            .map(|mi| unroller.memory_frame_lits(design, frame, mi))
            .collect();
        emm.add_frame(sink, &frames);
    };
    for _ in 0..=depth {
        match &mut simplify {
            Some(simp) => extend(&mut unroller, &mut emm, &mut simp.attach(&mut cnf)),
            None => extend(&mut unroller, &mut emm, &mut cnf),
        }
    }

    // Bad literal per frame, materialized so the lazily emitted cones
    // constrain them, then disjoined: SAT iff some frame reaches bad.
    let bad = design.properties()[property].bad;
    let materialize = |lit: Lit, cnf: &mut Cnf, simp: &mut Option<Simplifier>| {
        if let Some(simp) = simp {
            simp.attach(cnf).materialize(lit);
        }
        lit
    };
    let bad_lits: Vec<Lit> = (0..=depth)
        .map(|f| materialize(unroller.lit(f, bad), &mut cnf, &mut simplify))
        .collect();
    cnf.add_clause(&bad_lits);

    // The query assumptions hold unconditionally in a dump.
    let assumptions: Vec<Lit> = emm
        .all_active_assumptions()
        .into_iter()
        .chain(unroller.constraint_guards(depth).iter().copied())
        .map(|l| materialize(l, &mut cnf, &mut simplify))
        .collect();
    for &a in &assumptions {
        cnf.add_clause(&[a]);
    }

    Ok(BmcCnf {
        cnf,
        property,
        depth,
        bad_lits,
        assumptions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emm_aig::{Aig, Design, LatchInit, MemInit};
    use emm_sat::SolveResult;

    use crate::{BmcEngine, BmcVerdict};

    /// 3-bit counter reaching 5 at depth 5.
    fn counter() -> Design {
        let mut d = Design::new();
        let count = d.new_latch_word("count", 3, LatchInit::Zero);
        let next = d.aig.inc(&count);
        d.set_next_word(&count, &next);
        let bad = d.aig.eq_const(&count, 5);
        d.add_property("reaches5", bad);
        d.check().expect("well-formed");
        d
    }

    /// Write-then-read memory whose readback mismatch is unreachable.
    fn memory_echo() -> Design {
        let mut d = Design::new();
        let mem = d.add_memory("m", 2, 2, MemInit::Zero);
        let addr = d.new_input_word("addr", 2);
        let data = d.new_input_word("data", 2);
        let (_seen, seen_q) = d.new_latch("seen", LatchInit::Zero);
        d.set_next(seen_q, Aig::TRUE);
        let addr_r = d.new_latch_word("addr_r", 2, LatchInit::Zero);
        let data_r = d.new_latch_word("data_r", 2, LatchInit::Zero);
        d.set_next_word(&addr_r, &addr);
        d.set_next_word(&data_r, &data);
        d.add_write_port(mem, addr.clone(), Aig::TRUE, data);
        let read = d.add_read_port(mem, addr_r.clone(), Aig::TRUE);
        let eq = d.aig.eq_word(&read, &data_r);
        let bad = d.aig.and(seen_q, !eq);
        d.add_property("mismatch", bad);
        d.check().expect("well-formed");
        d
    }

    fn solve_dump(d: &Design, depth: usize) -> SolveResult {
        let dump = dump_bmc_cnf(d, 0, depth, VerifyOptions::default()).expect("dump");
        // Round-trip through the text form to prove the dump is
        // self-contained external-solver input.
        let reparsed = Cnf::parse(&dump.to_dimacs()).expect("reparse");
        assert_eq!(reparsed, dump.cnf);
        reparsed.to_solver().solve()
    }

    #[test]
    fn counter_dump_matches_engine_verdicts() {
        let d = counter();
        assert_eq!(solve_dump(&d, 4), SolveResult::Unsat);
        assert_eq!(solve_dump(&d, 5), SolveResult::Sat);
        let run = BmcEngine::new(&d, VerifyOptions::default())
            .check(0, 5)
            .expect("check");
        assert!(matches!(run.verdict, BmcVerdict::Counterexample(_)));
    }

    #[test]
    fn memory_dump_matches_engine_verdicts() {
        let d = memory_echo();
        assert_eq!(solve_dump(&d, 6), SolveResult::Unsat);
        let run = BmcEngine::new(&d, VerifyOptions::default())
            .check(0, 6)
            .expect("check");
        assert!(matches!(
            run.verdict,
            BmcVerdict::BoundReached | BmcVerdict::Proof { .. }
        ));
    }

    /// The constraint holds at every frame of a dump: `held` copies the
    /// constrained-low input, so it never rises.
    #[test]
    fn constrained_dump_matches_engine_verdicts() {
        let mut d = Design::new();
        let input = d.new_input("in");
        let (_, held) = d.new_latch("held", LatchInit::Zero);
        d.set_next(held, input);
        d.add_constraint(!input);
        d.add_property("held", held);
        d.check().expect("well-formed");
        assert_eq!(solve_dump(&d, 4), SolveResult::Unsat);
        let dump = dump_bmc_cnf(&d, 0, 4, VerifyOptions::default()).expect("dump");
        assert_eq!(dump.assumptions.len(), 5, "one guard per frame");
        let run = BmcEngine::new(&d, VerifyOptions::default())
            .check(0, 4)
            .expect("check");
        assert!(matches!(run.verdict, BmcVerdict::BoundReached));
    }

    #[test]
    fn dump_without_simplify_agrees() {
        let d = counter();
        let mut options = VerifyOptions::default();
        options.pipeline.simplify.enabled = false;
        for depth in [4usize, 5] {
            let dump = dump_bmc_cnf(&d, 0, depth, options.clone()).expect("dump");
            let expected = if depth == 5 {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(dump.cnf.to_solver().solve(), expected, "depth {depth}");
        }
    }

    #[test]
    fn bad_property_index_errs() {
        let d = counter();
        let err = dump_bmc_cnf(&d, 3, 1, VerifyOptions::default()).unwrap_err();
        assert!(matches!(err, DumpDimacsError::PropertyOutOfRange { .. }));
    }

    /// Reference rendering of a dump: one `write!` per literal.
    fn per_literal_dimacs(dump: &BmcCnf) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "c emm-bmc dump: property {} through depth {}",
            dump.property, dump.depth
        );
        out.push_str("c satisfiable iff the property is falsifiable within the depth\n");
        let _ = writeln!(out, "p cnf {} {}", dump.num_vars(), dump.num_clauses());
        for clause in dump.cnf.clauses() {
            for &l in clause {
                let v = l.var().index() as i64 + 1;
                let _ = write!(out, "{} ", if l.is_negative() { -v } else { v });
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    #[test]
    fn dimacs_text_matches_per_literal_rule() {
        for simplify in [true, false] {
            let mut options = VerifyOptions::default();
            options.pipeline.simplify.enabled = simplify;
            for (d, depth) in [(counter(), 5), (memory_echo(), 6)] {
                let dump = dump_bmc_cnf(&d, 0, depth, options.clone()).expect("dump");
                assert!(dump.cnf.clauses().flatten().any(|l| l.is_negative()));
                assert_eq!(dump.to_dimacs(), per_literal_dimacs(&dump));
            }
        }
    }

    /// 64-bit FNV-1a of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The text of the paper's quicksort dump (N=3, AW=6, DW=4, P1 to the
    /// cycle bound) is pinned by its hash: any drift in the encoders, the
    /// simplifier or the DIMACS writer changes it.
    #[test]
    fn quicksort_dimacs_text_is_pinned() {
        use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
        let qs = QuickSort::new(QuickSortConfig {
            n: 3,
            addr_width: 6,
            data_width: 4,
            bug: Bug::None,
        });
        let dump =
            dump_bmc_cnf(&qs.design, qs.p1.0 as usize, 30, VerifyOptions::default()).expect("dump");
        let text = dump.to_dimacs();
        assert_eq!(
            (dump.num_vars(), dump.num_clauses(), text.len()),
            (35_611, 124_489, 2_486_160)
        );
        assert_eq!(fnv1a(text.as_bytes()), 0xc8dd_580e_662c_5199);
    }
}
