//! Quickstart: verify a design with an embedded memory using EMM-based BMC.
//!
//! Builds a small memory-backed design, finds a witness with EMM (no
//! memory bits modeled), validates the trace by re-simulation, then proves
//! a second property by induction.
//!
//! Run with: `cargo run --release --example quickstart`

use emm_verif::aig::{Design, LatchInit, MemInit};
use emm_verif::bmc::{BmcEngine, BmcVerdict, VerifyOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny transaction log: every cycle an external value may be
    // committed to the log memory at a rolling pointer; a reader scans the
    // log one entry behind the writer.
    let mut d = Design::new();
    let log = d.add_memory("log", 4, 8, MemInit::Zero);

    let wptr = d.new_latch_word("wptr", 4, LatchInit::Zero);
    let next_wptr = d.aig.inc(&wptr);
    let commit = d.new_input("commit");
    let data = d.new_input_word("data", 8);
    let wptr_adv = d.aig.mux_word(commit, &next_wptr, &wptr);
    d.set_next_word(&wptr, &wptr_adv);
    d.add_write_port(log, wptr.clone(), commit, data);

    // Reader: scans the previous entry whenever the writer committed.
    let last_commit = {
        let (_, l) = d.new_latch("last_commit", LatchInit::Zero);
        d.set_next(l, commit);
        l
    };
    let rptr = d.aig.dec(&wptr);
    let entry = d.add_read_port(log, rptr, last_commit);

    // Property 1 (has witnesses): the reader can observe the value 0x7F.
    let seen_7f = d.aig.eq_const(&entry, 0x7F);
    let bad1 = d.aig.and(seen_7f, last_commit);
    d.add_property("reader_sees_0x7F", bad1);

    // Property 2 (provable): reading without a preceding commit yields 0
    // (the log is zero-initialized and the reader tracks the writer).
    // Stated as: the reader never observes a nonzero entry at cycle 0.
    let t = d.new_latch_word("t", 2, LatchInit::Zero);
    let sat2 = d.aig.eq_const(&t, 2);
    let t_inc = d.aig.inc(&t);
    let t_next = d.aig.mux_word(sat2, &t, &t_inc);
    d.set_next_word(&t, &t_next);
    let at0 = d.aig.eq_const(&t, 0);
    let nonzero = d.aig.redor(&entry);
    let observed = d.aig.and(nonzero, last_commit);
    let bad2 = d.aig.and(at0, observed);
    d.add_property("first_cycle_reads_zero", bad2);

    d.check().map_err(std::io::Error::other)?;
    println!("design: {}", d.stats());

    // --- Witness search with EMM (the paper's BMC-2, Fig. 2) -----------
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(0, 16)?;
    match &run.verdict {
        BmcVerdict::Counterexample(trace) => {
            println!(
                "witness for `reader_sees_0x7F` at depth {} ({} frames), found in {:?}",
                run.depth_reached,
                trace.depth(),
                run.elapsed
            );
            trace.validate(&d).map_err(std::io::Error::other)?;
            println!("trace re-simulates correctly (memory never expanded)");
            println!("{}", emm_verif::aig::report::format_trace(&d, trace));
        }
        other => panic!("unexpected verdict: {other:?}"),
    }

    // --- Proof by induction (the paper's BMC-3, Fig. 3) ----------------
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(1, 16)?;
    match &run.verdict {
        BmcVerdict::Proof { kind, depth } => {
            println!("`first_cycle_reads_zero` proved by {kind:?} at depth {depth}");
        }
        other => panic!("unexpected verdict: {other:?}"),
    }
    Ok(())
}
