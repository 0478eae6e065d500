//! Post-simplification DIMACS dumps of BMC instances, for external-solver
//! cross-checks.
//!
//! [`dump_bmc_cnf`] runs the exact clause pipeline of [`crate::BmcEngine`]
//! — [`Unroller`] unrolling, [`EmmEncoder`] memory constraints, and (when
//! enabled) the cross-frame [`Simplifier`] — but
//! targets a collecting [`VecSink`] instead of the in-tree CDCL solver.
//! The result is a plain [`Cnf`] that is **satisfiable iff the selected
//! property is falsifiable within the requested depth**, ready to be
//! handed to any external DIMACS solver:
//!
//! * every environment constraint is asserted at every frame (the
//!   unroller does this itself);
//! * the EMM encoder's active assumptions (exclusivity selectors) become
//!   unit clauses — a standalone instance has no assumption interface;
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
use emm_sat::{CnfSink, Lit, VecSink};

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
    /// The EMM assumptions asserted as unit clauses.
    pub assumptions: Vec<Lit>,
}

impl BmcCnf {
    /// Variables in the instance.
    pub fn num_vars(&self) -> usize {
        self.cnf.num_vars
    }

    /// Clauses in the instance.
    pub fn num_clauses(&self) -> usize {
        self.cnf.clauses.len()
    }

    /// Renders the instance as DIMACS text with a comment header that
    /// records what the instance means.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "c emm-bmc dump: property {} through depth {}\n",
            self.property, self.depth
        ));
        out.push_str("c satisfiable iff the property is falsifiable within the depth\n");
        out.push_str(&self.cnf.to_dimacs());
        out
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

    let mut sink = VecSink::new();
    let mut simplify = options
        .pipeline
        .simplify
        .enabled
        .then(|| Simplifier::new(options.pipeline.simplify));
    let unroll_config = UnrollConfig {
        initial_state: true,
        latch_selectors: false,
        kept_latches: None,
    };
    let mut unroller = match &mut simplify {
        Some(simp) => Unroller::new(design, &mut simp.attach(&mut sink), unroll_config),
        None => Unroller::new(design, &mut sink, unroll_config),
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
            Some(simp) => extend(&mut unroller, &mut emm, &mut simp.attach(&mut sink)),
            None => extend(&mut unroller, &mut emm, &mut sink),
        }
    }

    // Bad literal per frame, materialized so the lazily emitted cones
    // constrain them, then disjoined: SAT iff some frame reaches bad.
    let bad = design.properties()[property].bad;
    let materialize = |lit: Lit, sink: &mut VecSink, simp: &mut Option<Simplifier>| match simp {
        Some(simp) => simp.attach(sink).materialize(lit),
        None => lit,
    };
    let bad_lits: Vec<Lit> = (0..=depth)
        .map(|f| materialize(unroller.lit(f, bad), &mut sink, &mut simplify))
        .collect();
    sink.add_clause(&bad_lits);

    // The EMM selector assumptions hold unconditionally in a dump.
    let assumptions: Vec<Lit> = emm
        .all_active_assumptions()
        .into_iter()
        .map(|l| materialize(l, &mut sink, &mut simplify))
        .collect();
    for &a in &assumptions {
        sink.add_clause(&[a]);
    }

    let cnf = Cnf {
        num_vars: sink.num_vars(),
        clauses: sink.clauses,
    };
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
}
