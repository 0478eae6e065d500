//! Differential testing of the cut-based rewriting pass: BMC over random
//! designs must produce identical verdicts with rewriting enabled (the
//! default — the engine encodes a rewritten, fraig-reduced model) and
//! disabled.
//!
//! This is the system-level soundness harness for `emm_aig::rewrite`, in
//! the style of `fraig_differential.rs`: randomized memory and latch
//! designs, exact verdict agreement required, and — because
//! `validate_traces` stays on — every counterexample found on the reduced
//! model is re-simulated against the *original* design, so an unsound
//! cone replacement surfaces as a hard `SpuriousTrace` error, not just a
//! flaky disagreement.

use emm_aig::{rewrite_design, Design, LatchInit, MemInit, RewriteConfig};
use emm_bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random memory design driven by a free-running counter and inputs
/// (mirrors the generator of `fraig_differential.rs`).
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

/// A random memory-free sequential design whose property cone contains
/// rewritable shapes: comparator chains, selected updates, and a
/// disguised-wire redundancy (`(s∧i) ∨ (s∧¬i) ≡ s` per bit).
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
    // Property cone with hidden structure: a bound comparison gated by a
    // disguised wire built bit by bit.
    let target = rng.random_range(1..(1u64 << w));
    let cmp = if rng.random_bool(0.5) {
        let k = d.aig.const_word(target, w);
        d.aig.ult(&s, &k)
    } else {
        d.aig.eq_const(&s, target)
    };
    let mut wire = emm_aig::Aig::TRUE;
    for (&sb, &ib) in s.bits().iter().zip(i.bits()) {
        let t = d.aig.and(sb, ib);
        let e = d.aig.and(sb, !ib);
        let redundant = d.aig.or(t, e); // ≡ sb
        wire = d.aig.and(wire, redundant);
    }
    let bad = d.aig.and(cmp, wire);
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
/// traces from the rewritten model must validate on the original design.
#[test]
fn rewrite_engine_agrees_with_unrewritten_on_random_mem_designs() {
    let mut rng = StdRng::seed_from_u64(0x2E581);
    for round in 0..25 {
        let d = random_mem_design(&mut rng);
        let mut rewritten = BmcEngine::new(&d, VerifyOptions::default());
        let rewrite_run = rewritten.check(0, 5).expect("rewritten run");
        let mut plain = BmcEngine::new(
            &d,
            VerifyOptions::default().rewrite(RewriteConfig::disabled()),
        );
        let plain_run = plain.check(0, 5).expect("plain run");
        assert_eq!(
            verdict_shape(&rewrite_run.verdict),
            verdict_shape(&plain_run.verdict),
            "round {round}: verdicts diverge: {:?} vs {:?}",
            rewrite_run.verdict,
            plain_run.verdict
        );
        let stats = rewritten.rewrite_stats().expect("pass ran");
        assert!(stats.ands_after <= stats.ands_before, "round {round}");
    }
}

/// Agreement with induction proofs enabled (floating context included),
/// also crossing rewrite-only against fraig-only configurations.
#[test]
fn rewrite_proof_engine_agrees_on_random_designs() {
    let mut rng = StdRng::seed_from_u64(0x2E582);
    for round in 0..15 {
        let d = if round % 2 == 0 {
            random_latch_design(&mut rng)
        } else {
            random_mem_design(&mut rng)
        };
        let mut rewritten = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
        let rewrite_run = rewritten.check(0, 6).expect("rewritten run");
        let mut plain = BmcEngine::new(
            &d,
            VerifyOptions::default()
                .proofs(true)
                .rewrite(RewriteConfig::disabled()),
        );
        let plain_run = plain.check(0, 6).expect("plain run");
        assert_eq!(
            verdict_shape(&rewrite_run.verdict),
            verdict_shape(&plain_run.verdict),
            "round {round}: verdicts diverge: {:?} vs {:?}",
            rewrite_run.verdict,
            plain_run.verdict
        );
    }
}

/// The pass itself must find reductions on the redundant latch designs,
/// and the rewritten design must stay well-formed.
#[test]
fn rewrite_shrinks_redundant_designs() {
    let mut rng = StdRng::seed_from_u64(0x2E583);
    let mut total_removed = 0usize;
    for _ in 0..10 {
        let mut d = random_latch_design(&mut rng);
        let before = d.num_gates();
        let stats = rewrite_design(&mut d, &RewriteConfig::default());
        d.check().expect("rewrite keeps the design well-formed");
        assert_eq!(stats.ands_before, before);
        assert_eq!(stats.ands_after, d.num_gates());
        assert!(d.num_gates() <= before);
        total_removed += stats.ands_removed();
    }
    assert!(
        total_removed > 0,
        "the disguised-wire cones must yield at least one rewrite"
    );
}
