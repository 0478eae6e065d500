//! Differential tests for the k-induction engine.
//!
//! Three oracles keep [`KInduction`] honest:
//!
//! * **BDD exhaustive reachability** (`emm_bdd::check_invariant`) on
//!   small designs (aw ≤ 3): `Proved` must imply the invariant holds in
//!   every reachable state, counterexamples must agree with the exact
//!   violation depth and replay on the original design, and a
//!   `BoundReached` run must not have missed a violation inside its
//!   explored prefix.
//! * **The bounded engine** on the same designs and on the Table 1/2
//!   workloads: the two SAT engines may differ in *power* (diameter
//!   arguments vs induction) but must never contradict each other.
//! * **The design suite's own ground truth**: workloads whose properties
//!   are known-inductive must close as `Proved { k }` at the expected
//!   depth.

use emm_aig::{Aig, Design, LatchInit, MemInit};
use emm_bdd::{check_invariant, OracleVerdict, SymbolicOptions};
use emm_bmc::{BmcEngine, BmcVerdict, KInduction, VerifyOptions};
use emm_designs::fifo::{Fifo, FifoConfig};
use emm_designs::image_filter::{ImageFilter, ImageFilterConfig};
use emm_designs::industry2::{Industry2, Industry2Config};
use emm_designs::lifo::{Lifo, LifoConfig};
use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The random memory design family of the differential suites, extended
/// with read-modify-write feedback so the memory itself can act as state
/// (the case the write-aware LFP constraints exist for).
fn random_mem_design(rng: &mut StdRng) -> Design {
    let aw = rng.random_range(2..=3usize);
    let dw = rng.random_range(1..=2usize);
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
    let ra = if rng.random_bool(0.5) {
        d.new_input_word("ra", aw)
    } else {
        d.aig.resize(&t, aw)
    };
    let rd = d.add_read_port(mem, ra.clone(), Aig::TRUE);
    let wa = match rng.random_range(0..3u32) {
        0 => d.new_input_word("wa", aw),
        1 => d.aig.resize(&t, aw),
        _ => ra,
    };
    let we = if rng.random_bool(0.5) {
        d.new_input("we")
    } else {
        // Gated by the counter: writes stop being enabled in some frames,
        // letting pairs of frames become provably memory-equal.
        t.bit(0)
    };
    let wd = if rng.random_bool(0.5) {
        d.new_input_word("wd", dw)
    } else {
        // Read-modify-write: the memory is a counter, i.e. state beyond
        // the latches.
        d.aig.inc(&rd)
    };
    d.add_write_port(mem, wa, we, wd);
    let c = rng.random_range(0..(1u64 << dw));
    let bad = d.aig.eq_const(&rd, c);
    d.add_property("p", bad);
    d.check().expect("valid");
    d
}

/// Checks one design against the BDD oracle and the bounded engine.
fn cross_check(d: &Design, max_k: usize, label: &str) {
    let oracle = check_invariant(d, 0, SymbolicOptions::default()).expect("oracle runs");
    let mut ki = KInduction::new(d, VerifyOptions::default());
    let ki_verdict = ki.check(0, max_k).expect("kinduction runs").verdict;
    let mut bounded = BmcEngine::new(d, VerifyOptions::default().proofs(true));
    let bounded_verdict = bounded.check(0, max_k).expect("bounded runs").verdict;

    match &ki_verdict {
        BmcVerdict::Proved { .. } => {
            assert!(
                matches!(
                    oracle,
                    OracleVerdict::Holds { .. } | OracleVerdict::Inconclusive
                ),
                "{label}: k-induction proved but oracle says {oracle:?}"
            );
            assert!(
                !matches!(bounded_verdict, BmcVerdict::Counterexample(_)),
                "{label}: k-induction proved but bounded found {bounded_verdict:?}"
            );
        }
        BmcVerdict::Counterexample(trace) => {
            let depth = trace.frames.len() - 1;
            trace
                .validate(d)
                .expect("trace replays on the original design");
            if let OracleVerdict::Violated { depth: od } = oracle {
                assert_eq!(od, depth, "{label}: violation depth disagrees with oracle");
            } else {
                assert!(
                    matches!(oracle, OracleVerdict::Inconclusive),
                    "{label}: k-induction cex at {depth} but oracle says {oracle:?}"
                );
            }
            // The bounded engine searches the same bounds in the same
            // order, so it must find a same-depth counterexample.
            match &bounded_verdict {
                BmcVerdict::Counterexample(bt) => {
                    assert_eq!(
                        bt.frames.len(),
                        trace.frames.len(),
                        "{label}: cex depths differ"
                    );
                }
                other => panic!("{label}: bounded engine returned {other:?} instead of a cex"),
            }
        }
        BmcVerdict::BoundReached => {
            // No claim — but the explored prefix must really be clean.
            if let OracleVerdict::Violated { depth } = oracle {
                assert!(
                    depth > max_k,
                    "{label}: bound reached at {max_k} but oracle violates at {depth}"
                );
            }
        }
        other => panic!("{label}: unexpected k-induction verdict {other:?}"),
    }

    // And the reverse direction: a definite bounded verdict may not be
    // contradicted by k-induction.
    if bounded_verdict.is_proof() {
        assert!(
            !matches!(ki_verdict, BmcVerdict::Counterexample(_)),
            "{label}: bounded proved but k-induction found a cex"
        );
        assert!(
            matches!(
                oracle,
                OracleVerdict::Holds { .. } | OracleVerdict::Inconclusive
            ),
            "{label}: bounded proved but oracle says {oracle:?}"
        );
    }
}

#[test]
fn kinduction_agrees_with_bdd_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0x41BD);
    for i in 0..12 {
        let d = random_mem_design(&mut rng);
        cross_check(&d, 14, &format!("random design {i}"));
    }
}

/// The regression the write-aware LFP constraints exist for: a memory
/// cell used as a counter makes the counterexample deeper than the latch
/// diameter. A latch-only simple-path constraint proves this property
/// "unreachable" at depth 2; all three engines must report the violation.
#[test]
fn memory_as_state_is_not_spuriously_proved() {
    let mut d = Design::new();
    let mem = d.add_memory("m", 1, 2, MemInit::Zero);
    let (_, x) = d.new_latch("x", LatchInit::Zero);
    d.set_next(x, !x);
    let zero_addr = d.aig.const_word(0, 1);
    let rd = d.add_read_port(mem, zero_addr.clone(), Aig::TRUE);
    let inc = d.aig.inc(&rd);
    d.add_write_port(mem, zero_addr, x, inc);
    let is3 = d.aig.eq_const(&rd, 3);
    let bad = d.aig.and(is3, !x);
    d.add_property("p", bad);
    d.check().expect("valid");

    let oracle = check_invariant(&d, 0, SymbolicOptions::default()).expect("oracle");
    assert_eq!(oracle, OracleVerdict::Violated { depth: 6 });

    let run = BmcEngine::new(&d, VerifyOptions::default().proofs(true))
        .check(0, 20)
        .expect("bounded");
    match run.verdict {
        BmcVerdict::Counterexample(t) => assert_eq!(t.frames.len() - 1, 6),
        other => panic!("bounded engine returned {other:?} on the memory counter"),
    }

    let run = KInduction::new(&d, VerifyOptions::default())
        .check(0, 20)
        .expect("kinduction");
    match run.verdict {
        BmcVerdict::Counterexample(t) => {
            assert_eq!(t.frames.len() - 1, 6);
            t.validate(&d).expect("trace replays");
        }
        other => panic!("k-induction returned {other:?} on the memory counter"),
    }
}

/// Known-inductive workload properties close as `Proved { k }` at their
/// expected induction depths, and the BDD oracle confirms the small ones.
#[test]
fn workload_properties_close_by_induction() {
    let fifo = Fifo::new(FifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    let mut ki = KInduction::new(&fifo.design, VerifyOptions::default());
    let run = ki.check(fifo.no_overflow.0 as usize, 10).expect("fifo");
    assert!(
        matches!(run.verdict, BmcVerdict::Proved { k: 1 }),
        "fifo no_overflow: {:?}",
        run.verdict
    );
    let oracle = check_invariant(
        &fifo.design,
        fifo.no_overflow.0 as usize,
        SymbolicOptions::default(),
    )
    .expect("oracle");
    assert!(oracle.holds(), "fifo no_overflow oracle: {oracle:?}");

    let lifo = Lifo::new(LifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    for (name, prop) in [
        ("push_pop_identity", lifo.push_pop_identity.0 as usize),
        ("no_overflow", lifo.no_overflow.0 as usize),
    ] {
        let mut ki = KInduction::new(&lifo.design, VerifyOptions::default());
        let run = ki.check(prop, 10).expect("lifo");
        assert!(
            matches!(run.verdict, BmcVerdict::Proved { k: 1 }),
            "lifo {name}: {:?}",
            run.verdict
        );
        let oracle =
            check_invariant(&lifo.design, prop, SymbolicOptions::default()).expect("oracle");
        assert!(oracle.holds(), "lifo {name} oracle: {oracle:?}");
    }
}

/// The paper's industry-design proof properties close by induction: the
/// `G(WE=0 ∨ WD=0)` invariant of Industry Design II and the unreachable
/// bank of Industry Design I. These are too large for the BDD oracle, so
/// the bounded engine arbitrates instead.
#[test]
fn industry_proof_properties_close_by_induction() {
    let ind2 = Industry2::new(Industry2Config::small());
    let mut ki = KInduction::new(&ind2.design, VerifyOptions::default());
    let run = ki.check(ind2.invariant, 10).expect("industry2");
    assert!(
        matches!(run.verdict, BmcVerdict::Proved { k: 2 }),
        "industry2 invariant: {:?}",
        run.verdict
    );

    let imf = ImageFilter::new(ImageFilterConfig::small());
    let prop = imf.unreachable[0];
    let mut ki = KInduction::new(&imf.design, VerifyOptions::default());
    let run = ki.check(prop, 10).expect("image_filter");
    assert!(
        matches!(run.verdict, BmcVerdict::Proved { k: 1 }),
        "image_filter unreachable: {:?}",
        run.verdict
    );

    // The bounded engine must agree these hold within the same window
    // (whether it closes them or merely finds no counterexample).
    for (d, p, label) in [
        (&ind2.design, ind2.invariant, "industry2"),
        (&imf.design, prop, "image_filter"),
    ] {
        let run = BmcEngine::new(d, VerifyOptions::default().proofs(true))
            .check(p, 10)
            .expect("bounded");
        assert!(
            !matches!(run.verdict, BmcVerdict::Counterexample(_)),
            "{label}: bounded engine contradicts the induction proof: {:?}",
            run.verdict
        );
    }
}

/// Table 1/2 agreement: on the quicksort workloads the two SAT engines
/// must coincide on counterexamples (same depth) and never contradict
/// each other on clean variants. Quicksort's recurrence diameter is far
/// beyond any feasible k, so k-induction is expected to leave the clean
/// variants open where the bounded engine's anchored diameter argument
/// closes them — that asymmetry is legitimate; opposite verdicts are not.
#[test]
fn quicksort_agreement_with_bounded_engine() {
    // Buggy variant: both engines find the same-depth counterexample.
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::InvertedComparison,
    });
    {
        let (name, prop) = ("p1", qs.p1.0 as usize);
        let bound = qs.cycle_bound();
        let bounded = BmcEngine::new(&qs.design, VerifyOptions::default())
            .check(prop, bound)
            .expect("bounded")
            .verdict;
        let ki = KInduction::new(&qs.design, VerifyOptions::default())
            .check(prop, bound)
            .expect("kinduction")
            .verdict;
        match (&bounded, &ki) {
            (BmcVerdict::Counterexample(a), BmcVerdict::Counterexample(b)) => {
                assert_eq!(a.frames.len(), b.frames.len(), "buggy quicksort {name}");
                b.validate(&qs.design).expect("trace replays");
            }
            other => panic!("buggy quicksort {name}: unexpected verdict pair {other:?}"),
        }
    }

    // Clean variant: k-induction must not contradict the bounded engine
    // within a shared modest window (neither engine is expected to close
    // the property this shallow; both must simply report clean bounds).
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 3,
        data_width: 2,
        bug: Bug::None,
    });
    let ki = KInduction::new(&qs.design, VerifyOptions::default())
        .check(qs.p1.0 as usize, 10)
        .expect("kinduction")
        .verdict;
    assert!(
        !matches!(ki, BmcVerdict::Counterexample(_)),
        "clean quicksort refuted by k-induction: {ki:?}"
    );
}
