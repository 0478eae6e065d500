//! Differential testing of bound-to-bound incremental solving: one
//! long-lived solver per context, per-bound property clauses in
//! activation groups retired on refutation, sweep-merged Tseitin
//! definitions physically deleted — against the restart-from-scratch
//! baseline (`VerifyOptions::default().incremental(false)`), which rebuilds
//! every context at every bound.
//!
//! Verdicts *and* counterexample traces must agree exactly: the
//! incremental solver carries learned clauses, retired-clause holes, and
//! activation-group state across bounds, and none of it may change what
//! is reachable. The white-box accounting tests additionally pin the
//! retirement bookkeeping: every clause the solver reports retired is
//! either a swept gate's Tseitin clause (3 per merge, counted by the
//! simplifier) or a refuted bound's property clause (counted by the
//! engine).

use emm_aig::{Design, LatchInit, MemInit};
use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
use emm_sat::SimplifyConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Scaled-down Table 1 / Table 2 quicksort workloads (same machine, same
/// properties, smaller widths — and `n = 3` only — so the quadratic
/// restart-from-scratch legs stay affordable in a test).
fn quicksort_workloads(bug: Bug) -> Vec<(String, QuickSort, usize)> {
    let make = || {
        QuickSort::new(QuickSortConfig {
            n: 3,
            addr_width: 3,
            data_width: 1,
            bug,
        })
    };
    let qs = make();
    let p1 = qs.p1.0 as usize;
    let p2 = qs.p2.0 as usize;
    vec![
        ("table1_p1_n3".to_string(), qs, p1),
        ("table2_p2_n3".to_string(), make(), p2),
    ]
}

fn verdict_shape(v: &BmcVerdict) -> (u8, usize) {
    match v {
        BmcVerdict::Proof { depth, .. } => (0, *depth),
        BmcVerdict::Counterexample(t) => (1, t.depth()),
        BmcVerdict::Proved { k } => (4, *k),
        BmcVerdict::BoundReached => (2, usize::MAX),
        BmcVerdict::Unknown { .. } => (3, usize::MAX),
    }
}

fn run(design: &Design, prop: usize, bound: usize, incremental: bool, proofs: bool) -> BmcVerdict {
    let mut engine = BmcEngine::new(
        design,
        VerifyOptions::default()
            .proofs(proofs)
            .incremental(incremental)
            .simplify(SimplifyConfig::sweeping()),
    );
    engine
        .check(prop, bound)
        .expect("no spurious traces")
        .verdict
}

/// Verdict agreement on the (scaled) Table 1/2 workloads, proofs on:
/// the correct machine proves both properties, both solving modes must
/// find the same proof kind at the same depth. The quadratic
/// restart-from-scratch leg is only affordable on one workload in a
/// debug-build test, so P1 carries the full differential; P2's
/// incremental proof is still pinned (its restart agreement runs in the
/// release-mode bench gate, which measures exactly this pair).
#[test]
fn incremental_agrees_on_quicksort_proofs() {
    let mut workloads = quicksort_workloads(Bug::None).into_iter();
    let (name, qs, prop) = workloads.next().expect("p1 workload");
    let bound = qs.cycle_bound();
    let inc = run(&qs.design, prop, bound, true, true);
    let rst = run(&qs.design, prop, bound, false, true);
    assert!(
        inc.is_proof(),
        "{name}: expected a proof, got {inc:?} (incremental)"
    );
    assert_eq!(
        verdict_shape(&inc),
        verdict_shape(&rst),
        "{name}: incremental {inc:?} vs restart {rst:?}"
    );
    let (name, qs, prop) = workloads.next().expect("p2 workload");
    let p2 = run(&qs.design, prop, qs.cycle_bound(), true, true);
    assert!(p2.is_proof(), "{name}: expected a proof, got {p2:?}");
    assert_eq!(
        verdict_shape(&p2),
        verdict_shape(&inc),
        "{name}: P1 and P2 prove at the machine's diameter"
    );
}

/// Trace agreement on the buggy quicksort variants: both modes must
/// falsify at the same depth, and the traces must replay identically on
/// the original design (validated inside the engine) with the same
/// per-frame inputs.
#[test]
fn incremental_agrees_on_quicksort_counterexamples() {
    // P1 witnesses the inverted comparison, P2 the stack underflow.
    for (bug, use_p2) in [
        (Bug::InvertedComparison, false),
        (Bug::MissingEmptyCheck, true),
    ] {
        let qs = QuickSort::new(QuickSortConfig {
            n: 3,
            addr_width: 4,
            data_width: 3,
            bug,
        });
        let prop = if use_p2 { qs.p2.0 } else { qs.p1.0 } as usize;
        let bound = qs.cycle_bound();
        let inc = run(&qs.design, prop, bound, true, false);
        let rst = run(&qs.design, prop, bound, false, false);
        let (BmcVerdict::Counterexample(ti), BmcVerdict::Counterexample(tr)) = (&inc, &rst) else {
            panic!("{bug:?}: expected counterexamples, got {inc:?} vs {rst:?}");
        };
        assert_eq!(ti.depth(), tr.depth(), "{bug:?}: depths diverge");
        assert_eq!(ti.frames, tr.frames, "{bug:?}: input frames diverge");
    }
}

/// A random memory design driven by a free-running counter and inputs
/// (the generator family of `simplify_differential.rs`).
fn random_mem_design(rng: &mut StdRng) -> Design {
    let aw = rng.random_range(2..=3usize);
    let dw = rng.random_range(1..=3usize);
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
    let wa = if rng.random_bool(0.5) {
        d.new_input_word("wa", aw)
    } else {
        d.aig.resize(&t, aw)
    };
    let we = d.new_input("we");
    let wd = d.new_input_word("wd", dw);
    d.add_write_port(mem, wa, we, wd);
    let ra = if rng.random_bool(0.5) {
        d.new_input_word("ra", aw)
    } else {
        d.aig.resize(&t, aw)
    };
    let rd = d.add_read_port(mem, ra, emm_aig::Aig::TRUE);
    let c = rng.random_range(0..(1u64 << dw));
    let bad = d.aig.eq_const(&rd, c);
    d.add_property("p", bad);
    d.check().expect("valid");
    d
}

/// Randomized agreement sweep, proofs on and off, with the most
/// aggressive simplifier configuration (sweeping + retirement) so the
/// clause-deletion path is the one under differential test.
#[test]
fn incremental_agrees_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0x1BC5);
    for round in 0..12 {
        let d = random_mem_design(&mut rng);
        let proofs = round % 2 == 0;
        let inc = run(&d, 0, 6, true, proofs);
        let rst = run(&d, 0, 6, false, proofs);
        assert_eq!(
            verdict_shape(&inc),
            verdict_shape(&rst),
            "round {round}: incremental {inc:?} vs restart {rst:?}"
        );
    }
}

/// Repeated `check` calls on one incremental engine (the PBA discovery
/// access pattern) must agree with one deep check: cleared bounds are
/// skipped, not forgotten.
#[test]
fn repeated_shallow_checks_match_one_deep_check() {
    let mut rng = StdRng::seed_from_u64(0x1BC6);
    for round in 0..6 {
        let d = random_mem_design(&mut rng);
        let mut stepped = BmcEngine::new(
            &d,
            VerifyOptions::default().simplify(SimplifyConfig::sweeping()),
        );
        let mut verdict = None;
        for depth in 0..=6 {
            let run = stepped.check(0, depth).expect("stepped");
            if !matches!(run.verdict, BmcVerdict::BoundReached) {
                verdict = Some(run.verdict);
                break;
            }
        }
        let deep = run(&d, 0, 6, true, false);
        let expect = match &verdict {
            Some(v) => verdict_shape(v),
            None => verdict_shape(&BmcVerdict::BoundReached),
        };
        assert_eq!(
            expect,
            verdict_shape(&deep),
            "round {round}: stepped {verdict:?} vs deep {deep:?}"
        );
    }
}

/// Regression: with proofs on, a repeated `check` call must not re-run
/// a bound's termination queries against a *deeper* unrolling — the
/// shared LFP activation literal would then enforce distinctness over
/// frames beyond the bound, and an absorbing bad state (which cannot
/// extend to more distinct frames) would yield a spurious UNSAT, i.e. a
/// proof masking a real counterexample.
#[test]
fn repeated_checks_with_proofs_stay_sound() {
    // 4-bit counter, bad at 10, absorbing: next = bad ? count : count+1.
    let mut d = Design::new();
    let count = d.new_latch_word("count", 4, LatchInit::Zero);
    let inc = d.aig.inc(&count);
    let bad = d.aig.eq_const(&count, 10);
    let next = d.aig.mux_word(bad, &count, &inc);
    d.set_next_word(&count, &next);
    d.add_property("reaches10", bad);
    d.check().expect("well-formed");

    let mut fresh = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let reference = fresh.check(0, 20).expect("fresh").verdict;
    let BmcVerdict::Counterexample(ref t) = reference else {
        panic!("expected a counterexample, got {reference:?}");
    };
    let expect_depth = t.depth();

    let mut reused = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let shallow = reused.check(0, 3).expect("shallow").verdict;
    assert!(
        matches!(shallow, BmcVerdict::BoundReached),
        "nothing decidable by bound 3: {shallow:?}"
    );
    let deep = reused.check(0, 20).expect("deep").verdict;
    match deep {
        BmcVerdict::Counterexample(t) => assert_eq!(t.depth(), expect_depth),
        other => panic!("unsound verdict after a shallow check: {other:?}"),
    }
}

/// Regression: a proof-mode engine reused for a *different* property
/// must match fresh-engine verdicts. The termination queries are
/// bound-exact, so the engine rebuilds its contexts on a property
/// switch — without that, the second property's backward-induction
/// checks could never run at the already-unrolled bounds and the proof
/// would be silently missed (BoundReached instead of Proof).
#[test]
fn property_switch_keeps_proofs_complete() {
    // Mod-5 counter: count==2 is reachable (cex), count==7 is not
    // (proved at the diameter).
    let mut d = Design::new();
    let count = d.new_latch_word("count", 3, LatchInit::Zero);
    let inc = d.aig.inc(&count);
    let wrap = d.aig.eq_const(&count, 4);
    let zero = d.aig.const_word(0, 3);
    let next = d.aig.mux_word(wrap, &zero, &inc);
    d.set_next_word(&count, &next);
    let reachable = d.aig.eq_const(&count, 2);
    d.add_property("reaches2", reachable);
    let unreachable = d.aig.eq_const(&count, 7);
    d.add_property("reaches7", unreachable);
    d.check().expect("well-formed");

    let opts = || VerifyOptions::default().proofs(true);
    let mut fresh = BmcEngine::new(&d, opts());
    let reference = fresh.check(1, 20).expect("fresh").verdict;
    assert!(reference.is_proof(), "expected a proof, got {reference:?}");

    let mut reused = BmcEngine::new(&d, opts());
    let first = reused.check(0, 20).expect("prop 0").verdict;
    assert!(
        first.is_counterexample(),
        "count==2 is reachable: {first:?}"
    );
    let second = reused.check(1, 20).expect("prop 1").verdict;
    assert_eq!(
        verdict_shape(&second),
        verdict_shape(&reference),
        "reused engine must not miss the proof: {second:?} vs {reference:?}"
    );
}

/// White-box retirement accounting at the engine level: the solver's
/// retired-clause total decomposes exactly into sweep-retired Tseitin
/// clauses (counted by the simplifier) plus refuted-bound property
/// clauses (counted by the engine), and a merge-rich workload retires
/// the full three clauses per merge.
#[test]
fn retired_clause_accounting_matches_sweep_merges() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::None,
    });
    let mut engine = BmcEngine::new(
        &qs.design,
        VerifyOptions::default().simplify(SimplifyConfig::sweeping()),
    );
    let bound = 12;
    let run = engine.check(qs.p1.0 as usize, bound).expect("run");
    assert!(
        matches!(run.verdict, BmcVerdict::BoundReached),
        "P1 must hold this deep: {:?}",
        run.verdict
    );
    let simplify = engine.simplify_stats().expect("simplify on");
    let (_, solver) = engine.solver_stats();
    assert!(simplify.sweep_merges > 0, "workload must exercise sweeping");
    assert_eq!(
        simplify.clauses_retired,
        3 * simplify.sweep_merges,
        "every merge retires its full Tseitin triple"
    );
    // Every refuted bound retired its property clause.
    assert_eq!(engine.property_clauses_retired(), (bound + 1) as u64);
    assert_eq!(
        solver.retired_clauses,
        simplify.clauses_retired + engine.property_clauses_retired(),
        "solver-side retirements must be fully accounted for"
    );
}

/// The restart baseline never retires anything across bounds it doesn't
/// also re-create: its final-bound context still accounts cleanly.
#[test]
fn restart_mode_accounting_is_self_contained() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::None,
    });
    let mut engine = BmcEngine::new(
        &qs.design,
        VerifyOptions::default()
            .incremental(false)
            .simplify(SimplifyConfig::sweeping()),
    );
    let run = engine.check(qs.p1.0 as usize, 6).expect("run");
    assert!(matches!(run.verdict, BmcVerdict::BoundReached));
    // The last rebuilt context holds frames 0..=6 and exactly one
    // refuted bound's worth of property-clause retirement.
    let simplify = engine.simplify_stats().expect("simplify on");
    let (_, solver) = engine.solver_stats();
    assert_eq!(
        solver.retired_clauses,
        simplify.clauses_retired + 1,
        "one property clause retired in the final context"
    );
}
