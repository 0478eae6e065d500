//! End-to-end tests of the BMC engine: proofs, counterexamples, EMM vs
//! explicit-model agreement, arbitrary initial memory state, and PBA.

use emm_aig::{Design, LatchInit, MemInit, Word};
use emm_bmc::{pba, BmcEngine, BmcVerdict, KInduction, ProofKind, VerifyOptions};
use emm_core::{explicit_model, EmmOptions};
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

#[test]
fn inductive_invariant_proved_backward() {
    // Two toggles in lockstep: a == b is inductive; forward diameter is 2.
    let mut d = Design::new();
    let (_, a) = d.new_latch("a", LatchInit::Zero);
    let (_, b) = d.new_latch("b", LatchInit::Zero);
    d.set_next(a, !a);
    d.set_next(b, !b);
    let bad = d.aig.xor(a, b);
    d.add_property("lockstep", bad);
    d.check().expect("valid");
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
/// unconstrained values. The depths are those of the eager encoding.
#[test]
fn lfp_counts_state_outside_every_cone() {
    for (bad_at, depth) in [(32, 14), (34, 24)] {
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
                } if d == depth
            ),
            "bad_at {bad_at}: {:?}",
            run.verdict
        );
        let run = KInduction::new(&d, VerifyOptions::default())
            .check(0, 60)
            .expect("run");
        assert!(
            matches!(run.verdict, BmcVerdict::Proved { k } if k == depth),
            "bad_at {bad_at}: {:?}",
            run.verdict
        );
    }
}
