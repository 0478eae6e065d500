//! Differential testing of the simplifying sink layer: BMC over random
//! designs must produce identical verdicts with simplification enabled
//! (structural hashing + SAT sweeping + lazy emission, the default) and
//! disabled (the seed's naive per-frame Tseitin encoding).
//!
//! This is the soundness harness for `emm_sat::simplify` at the system
//! level, in the style of `emm-sat/tests/differential.rs`: randomized
//! inputs, an independent reference, and exact agreement required.

use emm_aig::{Design, LatchInit, MemInit};
use emm_bmc::{BmcEngine, BmcVerdict, UnrollConfig, Unroller, VerifyOptions};
use emm_sat::{Simplifier, SimplifyConfig, SolveResult, Solver};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random memory design driven by a free-running counter and inputs
/// (mirrors the generator of `tests/engine.rs`).
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

/// A random memory-free sequential design: latch words mixed through
/// xor/add/mux cones of inputs, with an equality property.
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
        mixed
    } else {
        let sel = d.new_input("sel");
        let inc = d.aig.inc(&s);
        d.aig.mux_word(sel, &inc, &mixed)
    };
    d.set_next_word(&s, &next);
    let bad = d.aig.eq_const(&s, rng.random_range(1..(1u64 << w)));
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

/// Engine-level agreement on random memory designs (falsification mode).
#[test]
fn simplified_engine_agrees_with_naive_on_random_mem_designs() {
    let mut rng = StdRng::seed_from_u64(0x51313);
    for round in 0..25 {
        let d = random_mem_design(&mut rng);
        // Use the most aggressive configuration (sweeping included) so the
        // riskiest merge path is the one differentially tested.
        let mut simplified = BmcEngine::new(
            &d,
            VerifyOptions::default().simplify(SimplifyConfig::sweeping()),
        );
        let simp_run = simplified.check(0, 5).expect("simplified run");
        let mut naive = BmcEngine::new(
            &d,
            VerifyOptions::default().simplify(SimplifyConfig::disabled()),
        );
        let naive_run = naive.check(0, 5).expect("naive run");
        assert_eq!(
            verdict_shape(&simp_run.verdict),
            verdict_shape(&naive_run.verdict),
            "round {round}: verdicts diverge: {:?} vs {:?}",
            simp_run.verdict,
            naive_run.verdict
        );
    }
}

/// Engine-level agreement with induction proofs enabled, on memory designs
/// (exercises the floating context, LFP constraints, and arbitrary-init
/// handling through the simplifying sink).
#[test]
fn simplified_proof_engine_agrees_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0x51314);
    for round in 0..15 {
        let d = if round % 2 == 0 {
            random_latch_design(&mut rng)
        } else {
            random_mem_design(&mut rng)
        };
        let mut simplified = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
        let simp_run = simplified.check(0, 6).expect("simplified run");
        let mut naive = BmcEngine::new(
            &d,
            VerifyOptions::default()
                .proofs(true)
                .simplify(SimplifyConfig::disabled()),
        );
        let naive_run = naive.check(0, 6).expect("naive run");
        assert_eq!(
            verdict_shape(&simp_run.verdict),
            verdict_shape(&naive_run.verdict),
            "round {round}: verdicts diverge: {:?} vs {:?}",
            simp_run.verdict,
            naive_run.verdict
        );
    }
}

/// Unroller-level equisatisfiability: at every frame, the bad literal is
/// satisfiable through a `SimplifySink` exactly when it is through a bare
/// solver — and the simplified encoding never emits more clauses.
#[test]
fn simplified_unrolling_is_equisatisfiable_per_frame() {
    let mut rng = StdRng::seed_from_u64(0x51315);
    for round in 0..20 {
        let d = random_latch_design(&mut rng);
        let bad_bit = d.properties()[0].bad;
        let config = UnrollConfig {
            initial_state: true,
            ..UnrollConfig::default()
        };

        let mut plain_solver = Solver::new();
        let mut plain = Unroller::new(&d, &mut plain_solver, config.clone());

        let mut simp_solver = Solver::new();
        let mut simp = Simplifier::new(SimplifyConfig::sweeping());
        let mut sink = simp.attach(&mut simp_solver);
        let mut simplified = Unroller::new(&d, &mut sink, config);

        for k in 0..6 {
            plain.extend(&d, &mut plain_solver);
            let mut sink = simp.attach(&mut simp_solver);
            simplified.extend(&d, &mut sink);
            let bad = sink.materialize(simplified.lit(k, bad_bit));
            let expect = plain_solver.solve_with(&[plain.lit(k, bad_bit)]);
            let got = simp_solver.solve_with(&[bad]);
            assert_eq!(expect, got, "round {round} depth {k}");
            assert_ne!(got, SolveResult::Unknown, "round {round} depth {k}");
        }
        assert!(
            simp_solver.stats().original_clauses <= plain_solver.stats().original_clauses,
            "round {round}: simplification must not grow the formula"
        );
    }
}
