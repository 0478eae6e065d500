//! Integration tests for the extensions beyond the paper's core scope:
//! the data-race checker (Section 4.1's "beyond the scope" remark) and
//! the cone-of-influence front end.

use emm_verif::aig::coi::cone_of_influence;
use emm_verif::aig::{Design, MemInit};
use emm_verif::bmc::{AbstractionSpec, BmcEngine, BmcVerdict, VerifyOptions};
use emm_verif::core::add_race_checkers;
use emm_verif::designs::quicksort::{QuickSort, QuickSortConfig};
use emm_verif::designs::regfile::{RegFile, RegFileConfig};

/// A two-write-port design with unconstrained enables: the race checker's
/// property must yield a real, validated witness.
#[test]
fn race_witness_found_and_validated() {
    let mut d = Design::new();
    let mem = d.add_memory("m", 3, 4, MemInit::Zero);
    for p in 0..2 {
        let a = d.new_input_word(&format!("a{p}"), 3);
        let e = d.new_input(&format!("e{p}"));
        let data = d.new_input_word(&format!("d{p}"), 4);
        d.add_write_port(mem, a, e, data);
    }
    let checks = add_race_checkers(&mut d);
    d.check().expect("valid");
    let prop = checks[0].1 .0 as usize;
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(prop, 4).expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            assert_eq!(trace.depth(), 1, "a race is reachable immediately");
            trace.validate(&d).expect("race witness re-simulates");
        }
        other => panic!("expected race witness, got {other:?}"),
    }
}

/// The register file's arbiter makes it race-free — provable, not just
/// unfalsifiable: the arbiter logic is combinational, so the race property
/// is unsatisfiable in a single floating frame (backward induction depth 0).
#[test]
fn arbitrated_regfile_is_provably_race_free() {
    let rf = RegFile::new(RegFileConfig {
        addr_width: 3,
        data_width: 2,
        read_ports: 1,
        write_ports: 3,
        watched: 0,
    });
    let mut d = rf.design.clone();
    let checks = add_race_checkers(&mut d);
    assert_eq!(checks.len(), 1);
    d.check().expect("valid");
    let prop = checks[0].1 .0 as usize;
    let mut engine = BmcEngine::new(&d, VerifyOptions::default().proofs(true));
    let run = engine.check(prop, 10).expect("run");
    assert!(
        run.verdict.is_proof(),
        "race freedom must be proved: {:?}",
        run.verdict
    );
}

/// COI as a static abstraction: quicksort P2's cone excludes nothing by
/// itself (control reaches everything), but on a two-subsystem design the
/// cone-based reduced model proves the property outright.
#[test]
fn coi_abstraction_supports_proofs() {
    use emm_verif::aig::LatchInit;
    let mut d = Design::new();
    // Relevant: mod-3 counter. Irrelevant: a big shift register.
    let c = d.new_latch_word("c", 2, LatchInit::Zero);
    let wrap = d.aig.eq_const(&c, 2);
    let inc = d.aig.inc(&c);
    let zero = d.aig.const_word(0, 2);
    let next = d.aig.mux_word(wrap, &zero, &inc);
    d.set_next_word(&c, &next);
    let noise_in = d.new_input_word("noise", 8);
    let mut prev = noise_in;
    for s in 0..6 {
        let stage = d.new_latch_word(&format!("s{s}"), 8, LatchInit::Free);
        d.set_next_word(&stage, &prev);
        prev = stage;
    }
    let bad = d.aig.eq_const(&c, 3);
    d.add_property("c_ne_3", bad);
    d.check().expect("valid");

    let cone = cone_of_influence(&d, &[0]);
    assert_eq!(cone.num_latches(), 2, "only the counter");
    let spec = AbstractionSpec::from_cone(&cone);
    let mut engine = BmcEngine::new(
        &d,
        VerifyOptions::default()
            .proofs(true)
            .abstraction(Some(spec))
            .validate_traces(false),
    );
    let run = engine.check(0, 10).expect("run");
    assert!(
        run.verdict.is_proof(),
        "COI-reduced proof: {:?}",
        run.verdict
    );
}

/// COI on quicksort: P2's structural cone still contains both memories
/// (the FSM reads the array), which is exactly why the paper needs
/// *proof-based* abstraction to discover the array is semantically
/// irrelevant — COI alone cannot.
#[test]
fn coi_is_weaker_than_pba_on_quicksort() {
    let qs = QuickSort::new(QuickSortConfig::small(3));
    let cone = cone_of_influence(&qs.design, &[qs.p2.0 as usize]);
    assert!(
        cone.memories[qs.array.0 as usize],
        "COI keeps the array (structural dependence), unlike PBA (Table 2)"
    );
    assert!(cone.memories[qs.stack.0 as usize]);
}
