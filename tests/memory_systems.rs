//! Integration tests for the supporting memory-system designs under both
//! memory models, plus the BDD engine as a second opinion.

use emm_verif::bdd::{SymbolicChecker, SymbolicOptions, SymbolicVerdict};
use emm_verif::bmc::{BmcEngine, BmcVerdict, VerifyOptions};
use emm_verif::core::explicit_model;
use emm_verif::designs::fifo::{Fifo, FifoConfig};
use emm_verif::designs::lifo::{Lifo, LifoConfig};
use emm_verif::designs::memcpy::{Memcpy, MemcpyConfig};
use emm_verif::designs::regfile::{RegFile, RegFileConfig};

/// FIFO safety properties are provable with EMM.
#[test]
fn fifo_properties_hold() {
    let fifo = Fifo::new(FifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    let mut engine = BmcEngine::new(&fifo.design, VerifyOptions::default().proofs(true));
    let run = engine.check(fifo.no_overflow.0 as usize, 30).expect("run");
    assert!(run.verdict.is_proof(), "no_overflow: {:?}", run.verdict);
    // Integrity needs more depth to close inductively; check falsification
    // emptiness to a healthy bound instead (the randomized simulation test
    // already covers the positive side).
    let mut engine = BmcEngine::new(&fifo.design, VerifyOptions::default());
    let run = engine.check(fifo.integrity.0 as usize, 8).expect("run");
    assert!(
        matches!(run.verdict, BmcVerdict::BoundReached),
        "integrity must have no shallow counterexample: {:?}",
        run.verdict
    );
}

/// LIFO push/pop identity has no counterexample; the overflow property is
/// provable.
#[test]
fn lifo_properties_hold() {
    let lifo = Lifo::new(LifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    let mut engine = BmcEngine::new(&lifo.design, VerifyOptions::default());
    let run = engine
        .check(lifo.push_pop_identity.0 as usize, 8)
        .expect("run");
    assert!(
        matches!(run.verdict, BmcVerdict::BoundReached),
        "{:?}",
        run.verdict
    );
    let mut engine = BmcEngine::new(&lifo.design, VerifyOptions::default().proofs(true));
    let run = engine.check(lifo.no_overflow.0 as usize, 30).expect("run");
    assert!(run.verdict.is_proof(), "no_overflow: {:?}", run.verdict);
}

/// The multi-port register file's shadow consistency: no counterexample
/// under EMM with multiple write and read ports.
#[test]
fn regfile_shadow_consistency_multiport() {
    for (r, w) in [(2usize, 1usize), (3, 1), (2, 2)] {
        let rf = RegFile::new(RegFileConfig {
            addr_width: 2,
            data_width: 2,
            read_ports: r,
            write_ports: w,
            watched: 1,
        });
        let mut engine = BmcEngine::new(&rf.design, VerifyOptions::default());
        let run = engine
            .check(rf.shadow_consistency.0 as usize, 6)
            .expect("run");
        assert!(
            matches!(run.verdict, BmcVerdict::BoundReached),
            "R={r} W={w}: {:?}",
            run.verdict
        );
    }
}

/// Mutating the regfile property to an off-by-one creates a witness that
/// validates — guarding against vacuous "no counterexample" results.
#[test]
fn regfile_detects_injected_bug() {
    // Watch register 1 but shadow register 2's writes: inconsistency is
    // reachable and must be found and validated.
    let rf = RegFile::new(RegFileConfig {
        addr_width: 2,
        data_width: 2,
        read_ports: 1,
        write_ports: 1,
        watched: 1,
    });
    // Rebuild with a mismatch by watching a different address in the
    // property: simplest path is to add a new property comparing a read of
    // address 2 against the shadow of address 1.
    let mut d = rf.design.clone();
    let raddr = d.aig.const_word(2, 2);
    let rd = d.add_read_port(rf.memory, raddr, emm_verif::aig::Aig::TRUE);
    let shadow_bits: Vec<emm_verif::aig::Bit> = d
        .latches()
        .iter()
        .filter(|l| l.name.starts_with("shadow["))
        .map(|l| l.output)
        .collect();
    let shadow = emm_verif::aig::Word::from(shadow_bits);
    let eq = d.aig.eq_word(&rd, &shadow);
    // Force divergence: write nonzero to addr 2 while shadow (addr 1)
    // stays zero. "bad" = values differ.
    d.add_property("cross_check", !eq);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(1, 6).expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            trace.validate(&d).expect("bug witness must re-simulate");
        }
        other => panic!("expected a witness for the injected bug, got {other:?}"),
    }
}

/// The memcpy engine's copy_correct property has no counterexample under
/// EMM with arbitrary-init source — a workload where eq. (6) carries the
/// proof — and *does* have one when eq. (6) is disabled.
#[test]
fn memcpy_needs_init_consistency() {
    let engine_design = Memcpy::new(MemcpyConfig {
        len: 2,
        addr_width: 2,
        data_width: 2,
    });
    let bound = engine_design.cycle_bound();
    // Proof with eq. (6).
    let mut engine = BmcEngine::new(&engine_design.design, VerifyOptions::default().proofs(true));
    let run = engine
        .check(engine_design.copy_correct.0 as usize, bound)
        .expect("run");
    assert!(run.verdict.is_proof(), "copy_correct: {:?}", run.verdict);
    // Spurious CE without eq. (6) — the paper's Section 4.2 caveat.
    let mut engine = BmcEngine::new(
        &engine_design.design,
        VerifyOptions::default()
            .validate_traces(false)
            .emm(emm_verif::core::EmmOptions {
                skip_init_consistency: true,
                ..emm_verif::core::EmmOptions::default()
            }),
    );
    let run = engine
        .check(engine_design.copy_correct.0 as usize, bound)
        .expect("run");
    assert!(
        run.verdict.is_counterexample(),
        "without eq. (6) the copy check must fail: {:?}",
        run.verdict
    );
}

/// EMM and the explicit expansion agree on the FIFO design, and the BDD
/// engine agrees with both on the explicit model.
#[test]
fn three_engines_agree_on_fifo() {
    let fifo = Fifo::new(FifoConfig {
        addr_width: 2,
        data_width: 1,
    });
    let prop = fifo.no_overflow.0 as usize;

    // EMM proof.
    let mut emm = BmcEngine::new(&fifo.design, VerifyOptions::default().proofs(true));
    let emm_run = emm.check(prop, 40).expect("emm");
    assert!(emm_run.verdict.is_proof(), "EMM: {:?}", emm_run.verdict);

    // Explicit-model proof.
    let (expl, _) = explicit_model(&fifo.design);
    let mut exp = BmcEngine::new(&expl, VerifyOptions::default().proofs(true));
    let exp_run = exp.check(prop, 60).expect("explicit");
    assert!(
        exp_run.verdict.is_proof(),
        "explicit: {:?}",
        exp_run.verdict
    );

    // BDD reachability on the explicit model.
    let mut mc = SymbolicChecker::new(&expl, SymbolicOptions::default()).expect("bdd build");
    assert!(
        matches!(mc.check(prop), SymbolicVerdict::Proof { .. }),
        "the BDD engine must also prove no_overflow"
    );
}

/// The explicit model is larger than the EMM model by design — the size
/// gap the whole paper is about.
#[test]
fn explicit_blowup_is_real() {
    let fifo = Fifo::new(FifoConfig {
        addr_width: 4,
        data_width: 8,
    });
    let (expl, _) = explicit_model(&fifo.design);
    let original = fifo.design.stats();
    let expanded = expl.stats();
    assert_eq!(
        expanded.latches,
        original.latches + 16 * 8,
        "memory bits become latches"
    );
    assert!(
        expanded.gates > original.gates * 4,
        "decoder/mux logic dominates: {} vs {}",
        expanded.gates,
        original.gates
    );
}
