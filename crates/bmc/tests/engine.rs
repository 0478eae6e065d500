//! End-to-end tests of the BMC engine: proofs, counterexamples, EMM vs
//! explicit-model agreement, arbitrary initial memory state, and PBA.

use emm_aig::{Design, LatchInit, MemInit, Trace, Word};
use emm_bmc::{pba, BmcEngine, BmcError, BmcVerdict, KInduction, ProofKind, VerifyOptions};
use emm_core::{explicit_model, EmmOptions};
use emm_designs::gen::{random_design, GenConfig};
use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
use emm_sat::{Budget, ExhaustionReason, ResourceGovernor, SolverStats};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A counter that wraps at `modulo`; property: `count != bad_at`.
fn mod_counter(width: usize, modulo: u64, bad_at: u64) -> Design {
    let mut d = Design::new();
    let count = d.new_latch_word("count", width, LatchInit::Zero);
    let wrap = d.aig.eq_const(&count, modulo - 1);
    let inc = d.aig.inc(&count);
    let zero = d.aig.const_word(0, width);
    let next = d.aig.mux_word(wrap, &zero, &inc);
    d.set_next_word(&count, &next);
    let bad = d.aig.eq_const(&count, bad_at);
    d.add_property("p", bad);
    d.check().expect("valid");
    d
}

#[test]
fn counterexample_found_at_exact_depth() {
    let d = mod_counter(4, 12, 7);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(0, 20).expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            assert_eq!(
                trace.depth(),
                8,
                "count reaches 7 after 7 steps (frames 0..=7)"
            );
            trace.validate(&d).expect("trace must replay");
        }
        other => panic!("expected CE, got {other:?}"),
    }
}

#[test]
fn unreachable_state_proved_by_forward_diameter() {
    // Counter wraps at 5; 9 is unreachable. Diameter is 5.
    let d = mod_counter(4, 5, 9);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(0, 30).expect("run");
    match run.verdict {
        BmcVerdict::Proof { kind: _, depth } => {
            assert!(
                depth <= 5,
                "proof depth {depth} should be at most the diameter"
            );
        }
        other => panic!("expected proof, got {other:?}"),
    }
}

/// Two toggles in lockstep: a == b is inductive; forward diameter is 2.
fn lockstep_toggles() -> Design {
    let mut d = Design::new();
    let (_, a) = d.new_latch("a", LatchInit::Zero);
    let (_, b) = d.new_latch("b", LatchInit::Zero);
    d.set_next(a, !a);
    d.set_next(b, !b);
    let bad = d.aig.xor(a, b);
    d.add_property("lockstep", bad);
    d.check().expect("valid");
    d
}

#[test]
fn inductive_invariant_proved_backward() {
    let d = lockstep_toggles();
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(0, 10).expect("run");
    match run.verdict {
        BmcVerdict::Proof { kind, depth } => {
            assert_eq!(kind, ProofKind::BackwardInduction, "induction closes first");
            assert!(depth <= 1);
        }
        other => panic!("expected proof, got {other:?}"),
    }
}

/// No counterexample query runs at a bound the backward check proves:
/// the first call retires bound 0's refuted group only, and the second
/// call, with bound 0 cleared and bound 1 proved, retires none.
#[test]
fn no_counterexample_query_runs_at_a_backward_proved_bound() {
    let d = lockstep_toggles();
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    for (call, retired) in [(1, 1), (2, 1)] {
        let run = engine.check(0, 10).expect("run");
        assert!(
            matches!(
                run.verdict,
                BmcVerdict::Proof {
                    kind: ProofKind::BackwardInduction,
                    depth: 1,
                }
            ),
            "call {call}: {:?}",
            run.verdict
        );
        assert_eq!(engine.property_clauses_retired(), retired, "call {call}");
        let (_, solver) = engine.solver_stats();
        assert_eq!(
            solver.retired_clauses,
            engine.property_clauses_retired(),
            "call {call}: every retired group is counted"
        );
    }
}

#[test]
fn bound_reached_when_nothing_concludes() {
    // An 8-bit free-running counter: diameter 256, bad at 200.
    let d = mod_counter(8, 256, 200);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(0, 10).expect("run");
    assert!(matches!(run.verdict, BmcVerdict::BoundReached));
    assert_eq!(run.depth_reached, 10);
}

/// A pipeline that writes a constant to memory and reads it back later;
/// the "bad" event is observing the value at the read port.
fn write_then_read_design(init: MemInit) -> Design {
    let mut d = Design::new();
    let mem = d.add_memory("m", 3, 4, init);
    let t = d.new_latch_word("t", 3, LatchInit::Zero);
    let next_t = d.aig.inc(&t);
    d.set_next_word(&t, &next_t);
    // Write 0xA to address 5 at cycle 1.
    let at1 = d.aig.eq_const(&t, 1);
    let waddr = d.aig.const_word(5, 3);
    let wdata = d.aig.const_word(0xA, 4);
    d.add_write_port(mem, waddr, at1, wdata);
    // Read address 5 from cycle 3 on.
    let c3 = d.aig.const_word(3, 3);
    let re = d.aig.ule(&c3, &t);
    let raddr = d.aig.const_word(5, 3);
    let rd = d.add_read_port(mem, raddr, re);
    let hit = d.aig.eq_const(&rd, 0xA);
    let bad = d.aig.and(hit, re);
    d.add_property("sees_0xA", bad);
    d.check().expect("valid");
    d
}

#[test]
fn emm_finds_memory_witness_and_validates() {
    let d = write_then_read_design(MemInit::Zero);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(0, 10).expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            assert_eq!(trace.depth(), 4, "witness at cycle 3 (frames 0..=3)");
            trace.validate(&d).expect("replay");
        }
        other => panic!("expected CE, got {other:?}"),
    }
}

#[test]
fn arbitrary_init_witness_carries_memory_seeds() {
    // Reading an arbitrary-init memory without writing: the witness for
    // "read 0xC at address 2" must seed the memory accordingly.
    let mut d = Design::new();
    let mem = d.add_memory("m", 3, 4, MemInit::Arbitrary);
    let raddr = d.aig.const_word(2, 3);
    let rd = d.add_read_port(mem, raddr, emm_aig::Aig::TRUE);
    let bad = d.aig.eq_const(&rd, 0xC);
    d.add_property("p", bad);
    d.check().expect("valid");
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(0, 4).expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            assert_eq!(trace.memory_seeds[0], vec![(2, 0xC)]);
            trace.validate(&d).expect("replay");
        }
        other => panic!("expected CE, got {other:?}"),
    }
}

/// The paper's Section 4.2 point: without the eq. (6) consistency
/// constraints, two reads of the same unwritten location may disagree and a
/// proof that depends on their equality fails.
#[test]
fn init_consistency_is_required_for_proofs() {
    // Design: read address 0 through two ports every cycle; bad = values
    // differ. With eq. (6) this is unreachable and provable; without it the
    // model has the extra behavior and a (spurious) witness appears.
    let mut d = Design::new();
    let mem = d.add_memory("m", 2, 3, MemInit::Arbitrary);
    let addr = d.aig.const_word(0, 2);
    let r0 = d.add_read_port(mem, addr.clone(), emm_aig::Aig::TRUE);
    let r1 = d.add_read_port(mem, addr, emm_aig::Aig::TRUE);
    let eq = d.aig.eq_word(&r0, &r1);
    d.add_property("reads_disagree", !eq);
    d.check().expect("valid");

    // With eq. (6): proof.
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(0, 6).expect("run");
    assert!(
        run.verdict.is_proof(),
        "eq. (6) makes the equality provable: {:?}",
        run.verdict
    );

    // Without eq. (6): the spurious behavior is reachable.
    let mut engine = BmcEngine::new(
        &d,
        VerifyOptions::default()
            .proofs(false)
            // the trace is spurious by construction
            .validate_traces(false)
            .emm(EmmOptions {
                skip_init_consistency: true,
                ..EmmOptions::default()
            }),
    );
    let run = engine.check(0, 6).expect("run");
    assert!(
        run.verdict.is_counterexample(),
        "without eq. (6) the proof must fail: {:?}",
        run.verdict
    );
}

// ---------------------------------------------------------------------
// Randomized EMM vs Explicit agreement
// ---------------------------------------------------------------------

/// A random memory design driven by a free-running counter and inputs.
fn random_mem_design(rng: &mut StdRng) -> Design {
    let aw = rng.random_range(2..=3usize);
    let dw = rng.random_range(1..=3usize);
    let n_read = rng.random_range(1..=2usize);
    let n_write = rng.random_range(1..=2usize);
    let init = if rng.random_bool(0.5) {
        MemInit::Zero
    } else {
        MemInit::Arbitrary
    };
    let mut d = Design::new();
    let mem = d.add_memory("m", aw, dw, init);
    let t = d.new_latch_word("t", 3, LatchInit::Zero);
    let next_t = d.aig.inc(&t);
    d.set_next_word(&t, &next_t);
    for w in 0..n_write {
        let addr = if rng.random_bool(0.5) {
            d.new_input_word(&format!("wa{w}"), aw)
        } else {
            let r = d.aig.resize(&t, aw);
            let c = d.aig.const_word(rng.random_range(0..(1 << aw) as u64), aw);
            d.aig.word_xor(&r, &c)
        };
        let en = d.new_input(&format!("we{w}"));
        let data = d.new_input_word(&format!("wd{w}"), dw);
        d.add_write_port(mem, addr, en, data);
    }
    let mut read_words = Vec::new();
    for r in 0..n_read {
        let addr = if rng.random_bool(0.5) {
            d.new_input_word(&format!("ra{r}"), aw)
        } else {
            d.aig.resize(&t, aw)
        };
        let en = if rng.random_bool(0.7) {
            emm_aig::Aig::TRUE
        } else {
            d.new_input(&format!("re{r}"))
        };
        let rd = d.add_read_port(mem, addr, en);
        read_words.push(rd);
    }
    // Property: first read equals a random constant (optionally tied to a
    // second read being nonzero).
    let c = rng.random_range(0..(1u64 << dw));
    let mut bad = d.aig.eq_const(&read_words[0], c);
    if read_words.len() > 1 && rng.random_bool(0.5) {
        let nz = d.aig.redor(&read_words[1].clone());
        bad = d.aig.and(bad, nz);
    }
    d.add_property("p", bad);
    d.check().expect("valid");
    d
}

/// A memory of address width `aw` and data width `dw`, written at a free
/// address with free data every cycle. With `delayed`, the next cycle reads
/// the address just written and compares with the data just written, which
/// always match; otherwise it reads a fresh address and compares with fresh
/// data, which can differ whenever the word is not empty.
fn echo_memory(aw: usize, dw: usize, delayed: bool) -> Design {
    let mut d = Design::new();
    let mem = d.add_memory("m", aw, dw, MemInit::Zero);
    let addr = d.new_input_word("addr", aw);
    let data = d.new_input_word("data", dw);
    let (_, seen) = d.new_latch("seen", LatchInit::Zero);
    d.set_next(seen, emm_aig::Aig::TRUE);
    let addr_r = d.new_latch_word("addr_r", aw, LatchInit::Zero);
    let data_r = d.new_latch_word("data_r", dw, LatchInit::Zero);
    d.set_next_word(&addr_r, &addr);
    d.set_next_word(&data_r, &data);
    d.add_write_port(mem, addr.clone(), emm_aig::Aig::TRUE, data.clone());
    let (read_addr, expected) = if delayed {
        (addr_r, data_r)
    } else {
        (addr, data)
    };
    let read = d.add_read_port(mem, read_addr, emm_aig::Aig::TRUE);
    let eq = d.aig.eq_word(&read, &expected);
    let bad = d.aig.and(seen, !eq);
    d.add_property("mismatch", bad);
    d.check().expect("valid");
    d
}

/// Zero-width memories encode: the EMM engine, the DIMACS dump and the
/// explicit model agree on every echo design, the delayed echo never
/// mismatches, and a reachable mismatch gives a counterexample that
/// replays on the design.
#[test]
fn zero_width_memories_agree_with_dump_and_explicit_model() {
    let depth = 4;
    for (aw, dw) in [(0, 2), (2, 0), (0, 0)] {
        for delayed in [true, false] {
            let d = echo_memory(aw, dw, delayed);
            let case = format!("aw={aw} dw={dw} delayed={delayed}");
            let run = BmcEngine::new(&d, VerifyOptions::default())
                .check(0, depth)
                .expect("emm run");
            let (expl, _) = explicit_model(&d);
            let expl_run = BmcEngine::new(&expl, VerifyOptions::default())
                .check(0, depth)
                .expect("explicit run");
            let dump = emm_bmc::dump_bmc_cnf(&d, 0, depth, VerifyOptions::default()).expect("dump");
            let dump_sat = dump.cnf.to_solver().solve() == emm_sat::SolveResult::Sat;
            let reachable = !delayed && dw > 0;
            match (&run.verdict, &expl_run.verdict) {
                (BmcVerdict::Counterexample(a), BmcVerdict::Counterexample(b)) => {
                    assert!(reachable, "{case}: unexpected counterexample");
                    assert_eq!(a.depth(), b.depth(), "{case}");
                    a.validate(&d).expect("EMM trace replays on the design");
                    b.validate(&expl).expect("explicit trace replays");
                }
                (BmcVerdict::Counterexample(_), _) | (_, BmcVerdict::Counterexample(_)) => {
                    panic!(
                        "{case}: EMM {:?} vs explicit {:?}",
                        run.verdict, expl_run.verdict
                    )
                }
                _ => assert!(!reachable, "{case}: mismatch not found"),
            }
            assert_eq!(dump_sat, reachable, "{case}: dump disagrees");
        }
    }
}

#[test]
fn emm_agrees_with_explicit_model_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0xD47E2005);
    let max_depth = 5;
    let mut ce_count = 0;
    let mut agree_bound = 0;
    for round in 0..40 {
        let d = random_mem_design(&mut rng);
        let (expl, _) = explicit_model(&d);

        let mut emm_engine = BmcEngine::new(&d, VerifyOptions::default());
        let emm_run = emm_engine.check(0, max_depth).expect("emm run");

        let mut expl_engine = BmcEngine::new(&expl, VerifyOptions::default());
        let expl_run = expl_engine.check(0, max_depth).expect("explicit run");

        match (&emm_run.verdict, &expl_run.verdict) {
            (BmcVerdict::Counterexample(a), BmcVerdict::Counterexample(b)) => {
                assert_eq!(a.depth(), b.depth(), "round {round}: CE depth mismatch");
                a.validate(&d)
                    .expect("EMM trace replays on the original design");
                b.validate(&expl)
                    .expect("explicit trace replays on the explicit design");
                ce_count += 1;
            }
            (BmcVerdict::BoundReached, BmcVerdict::BoundReached) => agree_bound += 1,
            (x, y) => panic!("round {round}: verdict mismatch: EMM={x:?} explicit={y:?}"),
        }
    }
    assert!(
        ce_count >= 10,
        "want a healthy mix of outcomes, got {ce_count} CEs"
    );
    assert!(
        agree_bound >= 1,
        "want some unreachable rounds, got {agree_bound}"
    );
}

// ---------------------------------------------------------------------
// Proof-based abstraction
// ---------------------------------------------------------------------

/// Two independent subsystems: a relevant mod-4 counter and an irrelevant
/// 6-bit counter plus an irrelevant memory. The property only concerns the
/// small counter.
fn two_subsystem_design() -> Design {
    let mut d = Design::new();
    // Relevant: mod-4 counter, property says it never shows 7 (true: 3 bits
    // wide but wraps at 4).
    let small = d.new_latch_word("small", 3, LatchInit::Zero);
    let wrap = d.aig.eq_const(&small, 3);
    let inc = d.aig.inc(&small);
    let zero = d.aig.const_word(0, 3);
    let next = d.aig.mux_word(wrap, &zero, &inc);
    d.set_next_word(&small, &next);
    // Irrelevant: 6-bit counter.
    let big = d.new_latch_word("big", 6, LatchInit::Zero);
    let nb = d.aig.inc(&big);
    d.set_next_word(&big, &nb);
    // Irrelevant memory written/read by the big counter.
    let mem = d.add_memory("junk", 3, 4, MemInit::Zero);
    let waddr = d.aig.resize(&big, 3);
    let wdata = d.aig.resize(&big, 4);
    d.add_write_port(mem, waddr.clone(), emm_aig::Aig::TRUE, wdata);
    let _rd = d.add_read_port(mem, waddr, emm_aig::Aig::TRUE);
    let bad = d.aig.eq_const(&small, 7);
    d.add_property("small_ne_7", bad);
    d.check().expect("valid");
    d
}

#[test]
fn pba_discovery_drops_irrelevant_state() {
    let d = two_subsystem_design();
    let config = pba::PbaConfig {
        stability_depth: 4,
        max_depth: 30,
        ..pba::PbaConfig::default()
    };
    let disc = pba::discover(&d, 0, &config).expect("discovery");
    assert!(!disc.found_counterexample);
    assert!(disc.stable_at.is_some(), "reasons should stabilize");
    let kept = &disc.abstraction;
    // The three bits of the small counter must be kept...
    for i in 0..3 {
        assert!(kept.kept_latches[i], "small counter bit {i} is a reason");
    }
    // ...and the big counter must not be.
    for i in 3..9 {
        assert!(
            !kept.kept_latches[i],
            "big counter bit {} wrongly kept",
            i - 3
        );
    }
    // The junk memory is not needed for the refutations.
    assert_eq!(
        kept.num_kept_memories(),
        0,
        "memory should be abstracted away"
    );

    // The property is still provable on the reduced model.
    let mut engine = BmcEngine::new(
        &d,
        VerifyOptions::default()
            .proofs(true)
            .abstraction(Some(kept.clone()))
            .validate_traces(false),
    );
    let run = engine.check(0, 20).expect("run");
    assert!(
        run.verdict.is_proof(),
        "reduced-model proof: {:?}",
        run.verdict
    );
}

#[test]
fn abstraction_of_relevant_state_breaks_the_proof() {
    // Sanity check in the other direction: freeing the *relevant* latches
    // must make the property falsifiable on the abstract model.
    let d = two_subsystem_design();
    let mut kept_latches = vec![true; d.num_latches()];
    for bit in kept_latches.iter_mut().take(3) {
        *bit = false; // free the small counter
    }
    let mut engine = BmcEngine::new(
        &d,
        VerifyOptions::default()
            .abstraction(Some(emm_bmc::AbstractionSpec {
                kept_latches,
                kept_memories: vec![true],
            }))
            .validate_traces(false),
    );
    let run = engine.check(0, 5).expect("run");
    assert!(run.verdict.is_counterexample(), "{:?}", run.verdict);
}

#[test]
fn iterative_abstraction_reaches_fixpoint() {
    let d = two_subsystem_design();
    let config = pba::PbaConfig {
        stability_depth: 3,
        max_depth: 25,
        ..pba::PbaConfig::default()
    };
    let disc = pba::iterative_abstraction(&d, 0, &config, 3).expect("iterate");
    assert!(disc.abstraction.num_kept_latches() <= 3);
    assert_eq!(disc.abstraction.num_kept_memories(), 0);
}

#[test]
fn multiport_memory_verified_end_to_end() {
    // 1 write port, 3 read ports (the Industry II shape, tiny widths): all
    // reads of the same written address agree.
    let mut d = Design::new();
    let mem = d.add_memory("m", 3, 4, MemInit::Zero);
    let t = d.new_latch_word("t", 2, LatchInit::Zero);
    let nt = d.aig.inc(&t);
    d.set_next_word(&t, &nt);
    let at0 = d.aig.eq_const(&t, 0);
    let waddr = d.aig.const_word(6, 3);
    let wdata = d.aig.const_word(0x9, 4);
    d.add_write_port(mem, waddr.clone(), at0, wdata);
    let re = d.aig.eq_const(&t, 2);
    let mut reads: Vec<Word> = Vec::new();
    for _ in 0..3 {
        reads.push(d.add_read_port(mem, waddr.clone(), re));
    }
    // Bad: at read time, some port disagrees with 0x9.
    let mut any_bad = emm_aig::Aig::FALSE;
    for r in &reads {
        let ok = d.aig.eq_const(r, 0x9);
        any_bad = d.aig.or(any_bad, !ok);
    }
    let bad = d.aig.and(any_bad, re);
    d.add_property("ports_agree", bad);
    d.check().expect("valid");
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(0, 12).expect("run");
    assert!(run.verdict.is_proof(), "{:?}", run.verdict);
}

#[test]
fn wall_limit_yields_unknown_deadline() {
    let d = mod_counter(8, 256, 200);
    let mut engine = BmcEngine::new(
        &d,
        VerifyOptions::default()
            .proofs(true)
            .wall_limit(Some(std::time::Duration::from_millis(0))),
    );
    let run = engine.check(0, 300).expect("run");
    assert!(
        matches!(
            run.verdict,
            BmcVerdict::Unknown {
                reason: emm_sat::ExhaustionReason::Deadline,
                deepest_clean_bound: None,
            }
        ),
        "{:?}",
        run.verdict
    );
}

/// A 6-bit `count` climbs 0..=29 and parks there, so values from 30 up
/// are unreachable; from 30 on it advances only while input `go` is
/// high. `bad` is `count == bad_at`. Beside it runs a 3-bit mod-5
/// counter `c` that advances while input `en` is high. `c` feeds neither
/// the property nor a memory, so it is state only to the simple-path
/// constraints: a floating window may hold `count` for as many frames as
/// `c` takes distinct values.
fn parked_counter_with_idle_state(bad_at: u64) -> Design {
    let mut d = Design::new();
    let count = d.new_latch_word("count", 6, LatchInit::Zero);
    let inc = d.aig.inc(&count);
    let parked = d.aig.eq_const(&count, 29);
    let thirty = d.aig.const_word(30, 6);
    let reachable = d.aig.ult(&count, &thirty);
    let go = d.new_input("go");
    let climb = d.aig.mux_word(parked, &count, &inc);
    let stall = d.aig.mux_word(go, &inc, &count);
    let next = d.aig.mux_word(reachable, &climb, &stall);
    d.set_next_word(&count, &next);
    let c = d.new_latch_word("c", 3, LatchInit::Zero);
    let c_inc = d.aig.inc(&c);
    let wrap = d.aig.eq_const(&c, 4);
    let zero = d.aig.const_word(0, 3);
    let c_step = d.aig.mux_word(wrap, &zero, &c_inc);
    let en = d.new_input("en");
    let c_next = d.aig.mux_word(en, &c_step, &c);
    d.set_next_word(&c, &c_next);
    let bad = d.aig.eq_const(&count, bad_at);
    d.add_property("p", bad);
    d.check().expect("valid");
    d
}

/// State outside every property and memory cone still counts for the
/// simple-path constraints. Its latch literals reach the solver only
/// through LFP rows, which are added on demand after a model check, so
/// the engine must constrain them every frame or that check reads
/// unconstrained values. `KInduction`'s uncapped step query closes at
/// the first inductive depth. The bounded engine's capped backward check
/// lands later: its cap falls back to the floor after every SAT answer,
/// the floating bank's included, so the hard queries near the first
/// inductive depth start from a small cap.
#[test]
fn lfp_counts_state_outside_every_cone() {
    for (bad_at, ki_depth, bounded_depth) in [(32, 14, 18), (34, 24, 27)] {
        let d = parked_counter_with_idle_state(bad_at);
        let run = BmcEngine::new(&d, VerifyOptions::default().proofs(true))
            .check(0, 60)
            .expect("run");
        assert!(
            matches!(
                run.verdict,
                BmcVerdict::Proof {
                    kind: ProofKind::BackwardInduction,
                    depth: d,
                } if d == bounded_depth
            ),
            "bad_at {bad_at}: {:?}",
            run.verdict
        );
        let run = KInduction::new(&d, VerifyOptions::default())
            .check(0, 60)
            .expect("run");
        assert!(
            matches!(run.verdict, BmcVerdict::Proved { k } if k == ki_depth),
            "bad_at {bad_at}: {:?}",
            run.verdict
        );
        assert!(
            bounded_depth >= ki_depth,
            "a capped backward check can delay a proof, never advance it"
        );
    }
}

/// A `solve_budget` conflict limit at or below the backward schedule's
/// floor binds before the cap does, so it still ends the run `Unknown`.
#[test]
fn solve_budget_below_the_backward_floor_ends_the_run() {
    let d = parked_counter_with_idle_state(32);
    for n in [1, 8, 16] {
        let mut engine = BmcEngine::new(
            &d,
            VerifyOptions::default()
                .proofs(true)
                .solve_budget(Budget::conflicts(n)),
        );
        let run = engine.check(0, 60).expect("run");
        assert!(
            matches!(
                run.verdict,
                BmcVerdict::Unknown {
                    reason: ExhaustionReason::ConflictLimit,
                    ..
                }
            ),
            "budget {n}: {:?}",
            run.verdict
        );
        assert_eq!(engine.backward_capped(), 0, "budget {n}");
    }
}

/// A governor lifetime conflict cap that trips inside a backward query
/// reports the same `ConflictLimit` as the schedule's cap, but it ends
/// the run. The bounds whose capped backward query fell through still
/// ran their counterexample check, so `deepest_clean_bound` is the bound
/// before the trip, and raising the governor resumes to the proof. The
/// trip bound's counterexample query never runs, so it is not cleared.
#[test]
fn governor_trip_in_a_backward_query_ends_the_run_and_resumes() {
    let d = parked_counter_with_idle_state(32);
    let cap = 200;
    let mut engine = BmcEngine::new(
        &d,
        VerifyOptions::default()
            .proofs(true)
            .governor(ResourceGovernor::unlimited().with_max_conflicts(cap)),
    );
    let run = engine.check(0, 60).expect("run");
    let (_, floating) = engine.floating_solver_stats().expect("proofs on");
    let (_, anchored) = engine.solver_stats();
    assert!(
        floating.conflicts >= cap && anchored.conflicts < cap,
        "the trip must come from the floating solver"
    );
    assert!(engine.backward_capped() > 0, "earlier bounds fell through");
    match run.verdict {
        BmcVerdict::Unknown {
            reason: ExhaustionReason::ConflictLimit,
            deepest_clean_bound,
        } => {
            assert_eq!(run.depth_reached, 11);
            assert_eq!(deepest_clean_bound, Some(10));
        }
        other => panic!("expected Unknown{{ConflictLimit}}, got {other:?}"),
    }
    engine.set_governor(ResourceGovernor::unlimited());
    let run = engine.check(0, 60).expect("resume");
    assert!(
        matches!(
            run.verdict,
            BmcVerdict::Proof {
                kind: ProofKind::BackwardInduction,
                depth,
            } if depth >= 14
        ),
        "{:?}",
        run.verdict
    );
}

/// The Table 1 P1 proof closes at the cycle bound by the forward check
/// while every backward query before it is capped or SAT, and the
/// schedule is deterministic: two fresh runs spend the same search in
/// both contexts. At AW=6 DW=4 the floating bank answers most backward
/// queries; at AW=3 DW=3 its runs leave some P2 bounds to the solver,
/// whose capped queries fall through to the forward proof.
#[test]
fn backward_schedule_keeps_the_forward_proof_and_is_deterministic() {
    for (addr_width, data_width, p2) in [(6, 4, false), (3, 3, true)] {
        let qs = QuickSort::new(QuickSortConfig {
            n: 3,
            addr_width,
            data_width,
            bug: Bug::None,
        });
        let prop = if p2 { qs.p2.0 } else { qs.p1.0 } as usize;
        let run_once = || {
            let mut engine = BmcEngine::new(&qs.design, VerifyOptions::default().proofs(true));
            let run = engine.check(prop, qs.cycle_bound()).expect("run");
            assert!(
                matches!(
                    run.verdict,
                    BmcVerdict::Proof {
                        kind: ProofKind::ForwardDiameter,
                        depth: 30,
                    }
                ),
                "AW={addr_width}: {:?}",
                run.verdict
            );
            let search = |(vars, stats): (usize, SolverStats)| {
                (
                    vars,
                    stats.conflicts,
                    stats.decisions,
                    stats.propagations,
                    stats.original_clauses,
                    stats.retired_clauses,
                )
            };
            (
                engine.backward_capped(),
                engine.backward_simulated(),
                search(engine.floating_solver_stats().expect("proofs on")),
                search(engine.solver_stats()),
            )
        };
        let first = run_once();
        assert!(first.1 > 0, "AW={addr_width}: the bank answers");
        if p2 {
            assert!(first.0 > 0, "AW={addr_width}: capped queries fall through");
        }
        assert_eq!(run_once(), first, "AW={addr_width}");
    }
}

/// A property index past the design's last one is an error under both
/// schedules, named with the range, and leaves the engine usable.
#[test]
fn out_of_range_property_is_an_error() {
    let d = random_design(&GenConfig::aiger(), 7);
    assert_eq!(d.properties().len(), 3);
    let mut bounded = BmcEngine::new(&d, VerifyOptions::default());
    let mut induction = KInduction::new(&d, VerifyOptions::default());
    for err in [bounded.check(3, 3), induction.check(3, 3)] {
        match err {
            Err(
                e @ BmcError::PropertyOutOfRange {
                    property: 3,
                    available: 3,
                },
            ) => assert!(e.to_string().contains("0..3"), "{e}"),
            other => panic!("expected PropertyOutOfRange, got {other:?}"),
        }
    }
    assert!(bounded.check(0, 3).is_ok());
    assert!(induction.check(0, 3).is_ok());
}

/// A verdict by kind and bound.
fn verdict_name(verdict: &BmcVerdict) -> String {
    match verdict {
        BmcVerdict::Counterexample(trace) => format!("cex@{}", trace.depth() - 1),
        BmcVerdict::Proof { kind, depth } => format!("{kind:?}@{depth}"),
        other => format!("{other:?}"),
    }
}

/// What one proofs-on bounded `check` on a fresh engine answered, and
/// every counter a nondeterministic loop could move: the verdict,
/// `depth_reached`, `deepest_clean_bound`, each context's (vars,
/// conflicts, decisions, propagations), the retired property groups,
/// the capped and the simulated backward queries and the anchored
/// frames.
type FreshRun = (
    String,
    usize,
    Option<u32>,
    [u64; 4],
    [u64; 4],
    u64,
    [u64; 2],
    usize,
);

fn fresh_check(d: &Design, prop: usize, max_depth: usize) -> FreshRun {
    let mut engine = BmcEngine::new(d, VerifyOptions::default().proofs(true));
    let run = engine.check(prop, max_depth).expect("run");
    let clean = match run.verdict {
        BmcVerdict::Unknown {
            deepest_clean_bound,
            ..
        } => deepest_clean_bound,
        _ => None,
    };
    let search = |(vars, stats): (usize, SolverStats)| {
        [
            vars as u64,
            stats.conflicts,
            stats.decisions,
            stats.propagations,
        ]
    };
    (
        verdict_name(&run.verdict),
        run.depth_reached,
        clean,
        search(engine.solver_stats()),
        search(engine.floating_solver_stats().expect("proofs on")),
        engine.property_clauses_retired(),
        [engine.backward_capped(), engine.backward_simulated()],
        engine.depth(),
    )
}

/// A run stops at the bound of its verdict, so the anchored context is
/// unrolled through that bound whichever check ends the run, and two
/// fresh engines agree on the verdict and on every counter of both
/// contexts.
#[test]
fn fresh_engines_agree_on_every_counter() {
    let deep = random_design(&GenConfig::deep(), 0);
    let cases = [
        (
            parked_counter_with_idle_state(32),
            0,
            "BackwardInduction@18",
            19,
        ),
        (mod_counter(4, 5, 9), 0, "ForwardDiameter@5", 6),
        (mod_counter(4, 12, 7), 0, "cex@7", 8),
        (deep, 1, "cex@7", 8),
    ];
    for (d, prop, verdict, depth) in cases {
        let first = fresh_check(&d, prop, 60);
        assert_eq!((first.0.as_str(), first.7), (verdict, depth), "{verdict}");
        assert_eq!(fresh_check(&d, prop, 60), first, "{verdict}");
    }
}

/// A backward proof at bound 18 stops the anchored context there: it is
/// unrolled through frame 18, the resume point is the bound before the
/// proof, and no counterexample query runs at the proved bound, neither
/// in the first check nor in a deeper second one, which proves the
/// property at the bound a fresh engine does.
#[test]
fn a_backward_proof_stops_the_anchored_context_at_its_bound() {
    let d = parked_counter_with_idle_state(32);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(0, 40).expect("run");
    assert_eq!(verdict_name(&run.verdict), "BackwardInduction@18");
    assert_eq!(
        engine.depth(),
        19,
        "the anchored context stops at the proof"
    );
    let cancelled = ResourceGovernor::unlimited();
    cancelled.cancel();
    engine.set_governor(cancelled);
    let run = engine.check(0, 40).expect("cancelled");
    assert!(
        matches!(
            run.verdict,
            BmcVerdict::Unknown {
                reason: ExhaustionReason::Cancelled,
                deepest_clean_bound: Some(17),
            }
        ),
        "{:?}",
        run.verdict
    );
    engine.set_governor(ResourceGovernor::unlimited());
    let retired = engine.property_clauses_retired();
    let second = engine.check(0, 60).expect("deeper check").verdict;
    let fresh = BmcEngine::new(&d, VerifyOptions::default().proofs(true))
        .check(0, 60)
        .expect("fresh check")
        .verdict;
    for verdict in [&second, &fresh] {
        assert!(
            matches!(
                verdict,
                BmcVerdict::Proof {
                    kind: ProofKind::BackwardInduction,
                    depth: 18,
                }
            ),
            "{verdict:?}"
        );
    }
    assert_eq!(retired, 18, "one refuted group per bound below the proof");
    assert_eq!(
        engine.property_clauses_retired() - retired,
        engine.depth() as u64 - 19,
        "no counterexample query runs from bound 18 on"
    );
}

/// The bound loop runs on the caller's thread and stops at its verdict:
/// a proofs-on check has one `per_bound_seconds` entry and one anchored
/// frame per bound through `depth_reached`, and its encode and solve
/// seconds add up to no more than its wall clock.
#[test]
fn one_thread_accounting_stops_at_the_verdict() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 6,
        data_width: 4,
        bug: Bug::None,
    });
    let cases = [
        (parked_counter_with_idle_state(32), 0, 60),
        (qs.design.clone(), qs.p1.0 as usize, qs.cycle_bound()),
    ];
    for (d, prop, max_depth) in cases {
        let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
        let run = engine.check(prop, max_depth).expect("run");
        let name = verdict_name(&run.verdict);
        assert!(run.verdict.is_proof(), "{name}");
        assert_eq!(run.per_bound_seconds.len(), run.depth_reached + 1, "{name}");
        assert_eq!(engine.depth(), run.depth_reached + 1, "{name}");
        let phases = run.phase_seconds;
        assert!(
            phases.encode + phases.solve <= run.elapsed.as_secs_f64(),
            "{name}: encode {} + solve {} > elapsed {:?}",
            phases.encode,
            phases.solve,
            run.elapsed
        );
    }
}

/// A second `check` of a property the backward check proved answers at
/// the proof's bound, as a fresh engine does: the floating context
/// remembers the lowest bound whose step query answered UNSAT, every
/// query above it is UNSAT too, and the bounds below it, asked before
/// without a proof, are not asked again.
#[test]
fn repeated_check_proves_where_a_fresh_engine_does() {
    for (bad_at, proof) in [(32, "BackwardInduction@18"), (34, "BackwardInduction@27")] {
        let d = parked_counter_with_idle_state(bad_at);
        let fresh = BmcEngine::new(&d, VerifyOptions::default().proofs(true))
            .check(0, 60)
            .expect("fresh");
        assert_eq!(verdict_name(&fresh.verdict), proof, "bad_at {bad_at}");
        let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
        for call in 0..2 {
            let run = engine.check(0, 60).expect("run");
            assert_eq!(
                verdict_name(&run.verdict),
                proof,
                "bad_at {bad_at}, call {call}"
            );
        }
    }
}

/// Replays `witness` on `d` from its initial state and checks that it is
/// a run the forward check may be answered SAT from: no environment
/// constraint violated, no write race, and no frame repeating an earlier
/// one (every latch equal, no write enabled in between). Returns its
/// frame count.
fn assert_loop_free_run(d: &Design, witness: &Trace, label: &str) -> usize {
    let mut sim = witness.start(d);
    let mut states: Vec<Vec<bool>> = Vec::new();
    let mut first = 0;
    for (k, inputs) in witness.frames.iter().enumerate() {
        let state: Vec<bool> = (0..d.num_latches()).map(|l| sim.latch(l)).collect();
        assert!(
            !states[first..].contains(&state),
            "{label}: frame {k} repeats an earlier state"
        );
        states.push(state);
        let report = sim.step_with_disabled_reads(inputs, &witness.disabled_reads[k]);
        assert!(
            report.violated_constraints.is_empty(),
            "{label}: frame {k} violates {:?}",
            report.violated_constraints
        );
        assert!(report.write_races.is_empty(), "{label}: race at frame {k}");
        let wrote = (d.memories().iter())
            .flat_map(|m| &m.write_ports)
            .any(|wp| sim.value(wp.en));
        if wrote {
            first = k + 1;
        }
    }
    witness.frames.len()
}

/// Checks `prop` one bound per call up to `max_depth` on one proofs-on
/// engine, and after every call that simulated a forward answer replays
/// the kept witness on the design as handed in. A call to depth `d` asks
/// the forward checks of bounds `d - 1` (its context already holds that
/// frame) and `d`, so the witness covers bound `d - 1`, and bound `d` too
/// unless the call ended there. Returns the first verdict that ends the
/// run and the count of simulated answers.
fn replay_every_simulated_answer(
    d: &Design,
    prop: usize,
    max_depth: usize,
    label: &str,
) -> (String, u64) {
    let mut engine = BmcEngine::new(d, VerifyOptions::default().proofs(true));
    for depth in 0..=max_depth {
        let simulated = engine.forward_simulated();
        let run = engine.check(prop, depth).expect("run");
        let open = matches!(run.verdict, BmcVerdict::BoundReached);
        if engine.forward_simulated() > simulated {
            let witness = engine
                .forward_witness()
                .expect("a simulated answer keeps its run");
            let frames = assert_loop_free_run(d, witness, &format!("{label} bound {depth}"));
            let covered = if open { depth + 1 } else { depth };
            assert!(
                frames >= covered,
                "{label}: {frames} frames at bound {depth}"
            );
        }
        if !open {
            return (verdict_name(&run.verdict), engine.forward_simulated());
        }
    }
    ("BoundReached".to_string(), engine.forward_simulated())
}

/// Most forward checks of the paper's quicksort proofs are answered by
/// simulating the last witness one frame further, every such answer keeps
/// a witness that replays loop-free on the design as handed in (not the
/// reduced copy the solver encodes), and the proofs stay at the cycle
/// bound. The same holds on `GenConfig::deep` designs.
#[test]
fn simulated_forward_answers_keep_a_replayable_witness() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 6,
        data_width: 4,
        bug: Bug::None,
    });
    for (name, prop) in [("p1", qs.p1.0), ("p2", qs.p2.0)] {
        let prop = prop as usize;
        let mut engine = BmcEngine::new(&qs.design, VerifyOptions::default().proofs(true));
        let run = engine.check(prop, qs.cycle_bound()).expect("run");
        assert_eq!(verdict_name(&run.verdict), "ForwardDiameter@30", "{name}");
        // Bounds 0..=30 ask 31 forward checks.
        assert!(
            engine.forward_simulated() >= 25,
            "{name}: {} of 31 forward checks simulated",
            engine.forward_simulated()
        );
        let witness = engine.forward_witness().expect("the last witness");
        assert_eq!(
            assert_loop_free_run(&qs.design, witness, name),
            30,
            "{name}"
        );
        let (verdict, _) = replay_every_simulated_answer(&qs.design, prop, qs.cycle_bound(), name);
        assert_eq!(verdict, "ForwardDiameter@30", "{name}, one bound per call");
    }
    let mut simulated = 0;
    for seed in 0..3 {
        let d = random_design(&GenConfig::deep(), seed);
        for prop in 0..d.properties().len() {
            let label = format!("deep seed {seed} prop {prop}");
            let fresh = BmcEngine::new(&d, VerifyOptions::default().proofs(true))
                .check(prop, 12)
                .expect("fresh");
            let (verdict, answers) = replay_every_simulated_answer(&d, prop, 12, &label);
            if fresh.verdict.is_counterexample() {
                assert_eq!(verdict, verdict_name(&fresh.verdict), "{label}");
            }
            simulated += answers;
        }
    }
    assert!(simulated > 0, "the deep designs simulate forward answers");
}

/// A free-running mod-5 counter has no inputs, so the witness extends by
/// simulation at bounds 1 to 4 and stops at the repeat: the solver answers
/// bound 0 and the proof at the diameter, where it always did.
#[test]
fn witness_stops_extending_at_the_repeat() {
    let d = mod_counter(4, 5, 9);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(0, 30).expect("run");
    assert_eq!(verdict_name(&run.verdict), "ForwardDiameter@5");
    assert_eq!(engine.forward_simulated(), 4);
    let witness = engine.forward_witness().expect("the last witness");
    assert_eq!(
        assert_loop_free_run(&d, witness, "mod 5"),
        5,
        "bounds 0..=4"
    );
}

/// Input `x` must differ from its previous value (latch `p`), so a frame
/// that repeats the previous frame's inputs always breaks the constraint.
/// A 3-bit counter `c` advances every cycle and `p` toggles with it, so
/// `p == c[0]` in all 8 reachable states, and `bad` is the unreachable
/// `c == 7 ∧ ¬p`.
fn alternating_input_counter() -> Design {
    let mut d = Design::new();
    let (_, p) = d.new_latch("p", LatchInit::Zero);
    let x = d.new_input("x");
    d.set_next(p, x);
    let alternates = d.aig.xor(x, p);
    d.add_constraint(alternates);
    let c = d.new_latch_word("c", 3, LatchInit::Zero);
    let next = d.aig.inc(&c);
    d.set_next_word(&c, &next);
    let seven = d.aig.eq_const(&c, 7);
    let bad = d.aig.and(seven, !p);
    d.add_property("p_tracks_c", bad);
    d.check().expect("valid");
    d
}

/// Where the repeated inputs break an environment constraint, no forward
/// check is simulated: the solver answers every one, and the proof lands
/// at the reachable diameter.
#[test]
fn broken_constraint_falls_back_to_the_solver() {
    let d = alternating_input_counter();
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(0, 30).expect("run");
    assert_eq!(verdict_name(&run.verdict), "ForwardDiameter@8");
    assert_eq!(engine.forward_simulated(), 0);
}
