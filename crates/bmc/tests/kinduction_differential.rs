//! Differential tests for the k-induction engine.
//!
//! Three oracles keep the k-induction schedule
//! (`ProofEngine::KInduction`) honest:
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

use std::path::Path;

use emm_aig::{Aig, Design, LatchInit, MemInit};
use emm_bdd::{check_invariant, OracleVerdict, SymbolicOptions};
use emm_bmc::{BmcEngine, BmcVerdict, ModelSource, ProofEngine, ProofKind, VerifyOptions};
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

/// A fresh engine for `d` under the k-induction schedule.
fn ki_engine(d: &Design) -> BmcEngine<'_> {
    BmcEngine::new(
        d,
        VerifyOptions::default().proof_engine(ProofEngine::KInduction),
    )
}

/// The bounded engine's backward check is k-induction's step query under
/// the same budget, asked in the same order on the floating context, so
/// a backward proof lands at k-induction's depth.
fn assert_backward_proof_at(label: &str, k: usize, bounded: &BmcVerdict) {
    if let BmcVerdict::Proof {
        kind: ProofKind::BackwardInduction,
        depth,
    } = bounded
    {
        assert_eq!(
            *depth, k,
            "{label}: backward proof at {depth}, k-induction's at {k}"
        );
    }
}

/// Runs the bounded engine with proofs on `prop` up to `max_depth` and
/// checks it against k-induction's `Proved { k }`.
fn bounded_agrees_with_induction(d: &Design, prop: usize, k: usize, max_depth: usize, label: &str) {
    let verdict = BmcEngine::new(d, VerifyOptions::default().proofs(true))
        .check(prop, max_depth)
        .expect("bounded")
        .verdict;
    assert!(
        !matches!(verdict, BmcVerdict::Counterexample(_)),
        "{label}: bounded engine contradicts the induction proof: {verdict:?}"
    );
    assert_backward_proof_at(label, k, &verdict);
}

/// Checks one design against the BDD oracle and the bounded engine.
fn cross_check(d: &Design, max_k: usize, label: &str) {
    let oracle = check_invariant(d, 0, SymbolicOptions::default()).expect("oracle runs");
    let mut ki = ki_engine(d);
    let ki_verdict = ki.check(0, max_k).expect("kinduction runs").verdict;
    let mut bounded = BmcEngine::new(d, VerifyOptions::default().proofs(true));
    let bounded_verdict = bounded.check(0, max_k).expect("bounded runs").verdict;

    match &ki_verdict {
        BmcVerdict::Proved { k } => {
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
            assert_backward_proof_at(label, *k, &bounded_verdict);
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

    let run = ki_engine(&d).check(0, 20).expect("kinduction");
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
    let mut ki = ki_engine(&fifo.design);
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
    bounded_agrees_with_induction(
        &fifo.design,
        fifo.no_overflow.0 as usize,
        1,
        10,
        "fifo no_overflow",
    );

    let lifo = Lifo::new(LifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    for (name, prop) in [
        ("push_pop_identity", lifo.push_pop_identity.0 as usize),
        ("no_overflow", lifo.no_overflow.0 as usize),
    ] {
        let mut ki = ki_engine(&lifo.design);
        let run = ki.check(prop, 10).expect("lifo");
        assert!(
            matches!(run.verdict, BmcVerdict::Proved { k: 1 }),
            "lifo {name}: {:?}",
            run.verdict
        );
        let oracle =
            check_invariant(&lifo.design, prop, SymbolicOptions::default()).expect("oracle");
        assert!(oracle.holds(), "lifo {name} oracle: {oracle:?}");
        bounded_agrees_with_induction(&lifo.design, prop, 1, 10, name);
    }
}

/// The paper's industry-design proof properties close by induction: the
/// `G(WE=0 ∨ WD=0)` invariant of Industry Design II and the unreachable
/// bank of Industry Design I. These are too large for the BDD oracle, so
/// the bounded engine arbitrates instead.
#[test]
fn industry_proof_properties_close_by_induction() {
    let ind2 = Industry2::new(Industry2Config::small());
    let mut ki = ki_engine(&ind2.design);
    let run = ki.check(ind2.invariant, 10).expect("industry2");
    assert!(
        matches!(run.verdict, BmcVerdict::Proved { k: 2 }),
        "industry2 invariant: {:?}",
        run.verdict
    );

    let imf = ImageFilter::new(ImageFilterConfig::small());
    let prop = imf.unreachable[0];
    let mut ki = ki_engine(&imf.design);
    let run = ki.check(prop, 10).expect("image_filter");
    assert!(
        matches!(run.verdict, BmcVerdict::Proved { k: 1 }),
        "image_filter unreachable: {:?}",
        run.verdict
    );

    // The bounded engine must agree these hold within the same window
    // (whether it closes them or merely finds no counterexample).
    bounded_agrees_with_induction(&ind2.design, ind2.invariant, 2, 10, "industry2");
    bounded_agrees_with_induction(&imf.design, prop, 1, 10, "image_filter");
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
        let ki = ki_engine(&qs.design)
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
    let ki = ki_engine(&qs.design)
        .check(qs.p1.0 as usize, 10)
        .expect("kinduction")
        .verdict;
    assert!(
        !matches!(ki, BmcVerdict::Counterexample(_)),
        "clean quicksort refuted by k-induction: {ki:?}"
    );
}

/// One k-induction job's per-context counters on the default options:
/// the base case's conflicts, then the step solver's conflicts,
/// variables and original clauses, the completed step queries and the
/// steps the floating bank answered, all read from the engine that ran
/// the job.
fn job_counters(d: &Design, prop: usize, max_k: usize) -> (BmcVerdict, [u64; 6]) {
    let mut engine = BmcEngine::new(
        d,
        VerifyOptions::default().proof_engine(ProofEngine::KInduction),
    );
    let run = engine.check(prop, max_k).expect("kinduction");
    let (step_vars, step) = engine.floating_solver_stats().expect("a step context");
    let counters = [
        engine.solver_stats().1.conflicts,
        step.conflicts,
        step_vars as u64,
        step.original_clauses,
        engine.step_queries(),
        engine.backward_simulated(),
    ];
    (run.verdict, counters)
}

/// Pins the per-context counters of k-induction jobs that end
/// `BoundReached` (quicksort, AW=6 DW=4, `max_k` 20) and `Proved` (fifo
/// `no_overflow` at `k = 1`). Each job runs twice and must read the same
/// counters both times.
#[test]
fn kinduction_counters_are_pinned() {
    // (n, property, [base conflicts, step conflicts, step vars, step
    // clauses, step queries, simulated steps])
    let pinned = [
        (3, "p1", [94, 31, 5541, 15929, 4, 17]),
        (3, "p2", [86, 0, 2, 1, 0, 21]),
        (4, "p1", [596, 32, 5555, 15947, 4, 17]),
        (4, "p2", [1055, 0, 2, 1, 0, 21]),
    ];
    for (n, name, expected) in pinned {
        let qs = QuickSort::new(QuickSortConfig {
            n,
            addr_width: 6,
            data_width: 4,
            bug: Bug::None,
        });
        let prop = if name == "p1" { qs.p1.0 } else { qs.p2.0 } as usize;
        for _ in 0..2 {
            let (verdict, counters) = job_counters(&qs.design, prop, 20);
            assert!(
                matches!(verdict, BmcVerdict::BoundReached),
                "quicksort n={n} {name}: {verdict:?}"
            );
            assert_eq!(counters, expected, "quicksort n={n} {name}");
        }
    }

    let fifo = Fifo::new(FifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    for _ in 0..2 {
        let (verdict, counters) = job_counters(&fifo.design, fifo.no_overflow.0 as usize, 10);
        assert!(
            matches!(verdict, BmcVerdict::Proved { k: 1 }),
            "fifo no_overflow: {verdict:?}"
        );
        assert_eq!(counters, [0, 5, 151, 210, 1, 1], "fifo no_overflow");
    }
}

/// One bounded-schedule job's conflicts on the default options with
/// `proofs` as given: the anchored context's, then the floating
/// context's (0 with proofs off), both read from the engine that ran it.
fn bounded_job_conflicts(
    d: &Design,
    prop: usize,
    max_depth: usize,
    proofs: bool,
) -> (BmcVerdict, [u64; 2]) {
    let mut engine = BmcEngine::new(d, VerifyOptions::default().proofs(proofs));
    let run = engine.check(prop, max_depth).expect("bounded");
    let floating = engine
        .floating_solver_stats()
        .map_or(0, |(_, stats)| stats.conflicts);
    (run.verdict, [engine.solver_stats().1.conflicts, floating])
}

/// Pins the per-context conflicts of bounded jobs: the paper's Table 1/2
/// quicksort proofs (AW=6 DW=4 N=3, proofs on, to the cycle bound), whose
/// anchored context alternates forward and counterexample queries (most
/// forward checks answered by simulating the last forward witness) and
/// whose floating context solves only the few backward queries the
/// floating bank does not cover, and
/// the corpus fifo `p1` (bounded, proofs off, depth 10), whose anchored
/// context asks only UNSAT counterexample queries. Each job runs twice
/// and must read the same counters both times.
#[test]
fn bounded_counters_are_pinned() {
    // (property, [anchored conflicts, floating conflicts])
    let pinned = [("p1", [363, 23]), ("p2", [326, 0])];
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 6,
        data_width: 4,
        bug: Bug::None,
    });
    for (name, expected) in pinned {
        let prop = if name == "p1" { qs.p1.0 } else { qs.p2.0 } as usize;
        for _ in 0..2 {
            let (verdict, conflicts) =
                bounded_job_conflicts(&qs.design, prop, qs.cycle_bound(), true);
            assert!(verdict.is_proof(), "quicksort n=3 {name}: {verdict:?}");
            assert_eq!(conflicts, expected, "quicksort n=3 {name}");
        }
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/fifo_a2d2.btor2");
    let fifo = ModelSource::from_path(&path).load().expect("corpus fifo");
    for _ in 0..2 {
        let (verdict, conflicts) = bounded_job_conflicts(&fifo, 1, 10, false);
        assert!(
            matches!(verdict, BmcVerdict::BoundReached),
            "fifo_a2d2 p1: {verdict:?}"
        );
        assert_eq!(conflicts, [5189, 0], "fifo_a2d2 p1");
    }
}
