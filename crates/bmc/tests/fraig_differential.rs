//! Differential testing of the AIG-level fraig pass: BMC over random
//! designs must produce identical verdicts with fraiging enabled (the
//! default — the engine encodes a functionally reduced rewrite of the
//! design) and disabled (the unreduced netlist).
//!
//! This is the system-level soundness harness for `emm_aig::fraig`, in the
//! style of `simplify_differential.rs`: randomized memory and latch
//! designs, exact verdict agreement required, and — because
//! `validate_traces` stays on — every counterexample found on the reduced
//! model is re-simulated against the *original* design, so an unsound
//! merge surfaces as a hard `SpuriousTrace` error, not just a flaky
//! disagreement.

use emm_aig::{fraig_design, Design, FraigConfig, LatchInit, MemInit, RewriteConfig};
use emm_bmc::{BmcEngine, BmcVerdict, ReducedModel, VerifyOptions};
use emm_designs::quicksort::{QuickSort, QuickSortConfig};
use emm_sat::ResourceGovernor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random memory design driven by a free-running counter and inputs
/// (mirrors the generator of `simplify_differential.rs`).
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

/// A random memory-free sequential design with deliberately redundant
/// cones (the same mix built twice through different structure), so the
/// fraig pass has real merges to find.
fn random_latch_design(rng: &mut StdRng) -> Design {
    let w = rng.random_range(2..=4usize);
    let mut d = Design::new();
    let s = d.new_latch_word("s", w, LatchInit::Zero);
    let i = d.new_input_word("i", w);
    let mixed = if rng.random_bool(0.5) {
        d.aig.word_xor(&s, &i)
    } else {
        d.aig.add(&s, &i)
    };
    let next = if rng.random_bool(0.5) {
        mixed.clone()
    } else {
        let sel = d.new_input("sel");
        let inc = d.aig.inc(&s);
        d.aig.mux_word(sel, &inc, &mixed)
    };
    d.set_next_word(&s, &next);
    // Redundant property cone: equality against a constant, built both as
    // an XNOR tree and as a negated XOR-reduction.
    let target = rng.random_range(1..(1u64 << w));
    let bad1 = d.aig.eq_const(&s, target);
    let konst = d.aig.const_word(target, w);
    let diff = d.aig.word_xor(&s, &konst);
    let any = d.aig.redor(&diff);
    let bad = d.aig.and(bad1, !any);
    d.add_property("p", bad);
    d.check().expect("valid");
    d
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

/// Engine-level agreement on random memory designs (falsification mode);
/// traces from the fraiged model must validate on the original design.
#[test]
fn fraig_engine_agrees_with_unreduced_on_random_mem_designs() {
    let mut rng = StdRng::seed_from_u64(0xF4A16);
    for round in 0..25 {
        let d = random_mem_design(&mut rng);
        let mut fraiged = BmcEngine::new(&d, VerifyOptions::default());
        let fraig_run = fraiged.check(0, 5).expect("fraiged run");
        let mut plain = BmcEngine::new(&d, VerifyOptions::default().fraig(FraigConfig::disabled()));
        let plain_run = plain.check(0, 5).expect("plain run");
        assert_eq!(
            verdict_shape(&fraig_run.verdict),
            verdict_shape(&plain_run.verdict),
            "round {round}: verdicts diverge: {:?} vs {:?}",
            fraig_run.verdict,
            plain_run.verdict
        );
        let stats = fraiged.fraig_stats().expect("pass ran");
        assert!(stats.ands_after <= stats.ands_before, "round {round}");
    }
}

/// Agreement with induction proofs enabled (floating context included).
#[test]
fn fraig_proof_engine_agrees_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0xF4A17);
    for round in 0..15 {
        let d = if round % 2 == 0 {
            random_latch_design(&mut rng)
        } else {
            random_mem_design(&mut rng)
        };
        let mut fraiged = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
        let fraig_run = fraiged.check(0, 6).expect("fraiged run");
        let mut plain = BmcEngine::new(
            &d,
            VerifyOptions::default()
                .proofs(true)
                .fraig(FraigConfig::disabled()),
        );
        let plain_run = plain.check(0, 6).expect("plain run");
        assert_eq!(
            verdict_shape(&fraig_run.verdict),
            verdict_shape(&plain_run.verdict),
            "round {round}: verdicts diverge: {:?} vs {:?}",
            fraig_run.verdict,
            plain_run.verdict
        );
    }
}

/// The pass itself must find merges on the redundant latch designs, and
/// the reduced model must cost the engine no more gates than the original
/// (per frame, every frame).
#[test]
fn fraig_shrinks_redundant_designs() {
    let mut rng = StdRng::seed_from_u64(0xF4A18);
    let mut total_removed = 0usize;
    for _ in 0..10 {
        let mut d = random_latch_design(&mut rng);
        let before = d.num_gates();
        let stats = fraig_design(&mut d, &FraigConfig::default());
        d.check().expect("rewrite keeps the design well-formed");
        assert_eq!(stats.ands_before, before);
        assert_eq!(stats.ands_after, d.num_gates());
        assert!(d.num_gates() <= before);
        total_removed += stats.ands_removed();
    }
    assert!(
        total_removed > 0,
        "the redundant comparator cones must yield at least one merge"
    );
}

/// Refinement must keep every counterexample pattern. The paper-width
/// quicksort (the DIMACS-export design) refutes over a hundred candidate
/// pairs in its first rounds; a sweep that dropped older patterns would
/// re-form the classes they split and spend the whole check budget
/// refuting them again, where keeping them reduces to the same model in
/// a few hundred checks.
#[test]
fn paper_quicksort_reduces_without_spending_the_check_budget() {
    let qs = QuickSort::new(QuickSortConfig::paper(3));
    let fraig = FraigConfig::default();
    for workers in [0, 1] {
        let reduced = ReducedModel::reduce(
            &qs.design,
            &RewriteConfig::default(),
            &fraig,
            &ResourceGovernor::unlimited(),
            workers,
        );
        let stats = reduced.fraig_stats().expect("fraig ran");
        assert_eq!(reduced.model().num_gates(), 1735, "{workers} workers");
        assert!(
            stats.sat_checks < fraig.max_checks,
            "{workers} workers: {} checks spent",
            stats.sat_checks
        );
    }
}
